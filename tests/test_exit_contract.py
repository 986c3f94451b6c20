"""The exit-code contract of `vecf`, for every command, config key and kind of
value: 0 checks passed, 1 a check failed, 2 config error, 3 solver abort.

A config error prints one `config error:` line and writes nothing, an abort
prints one `solver abort:` line, and a run that exits 0 writes nothing to
stderr; no exception and no floating-point warning escapes `cli.main`.
"""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from vecf import cli, equations, experiments
from vecf.config import SCHEMA

KEYS = [f"{section}.{key}" for section, keys in SCHEMA.items() for key in keys]
# every value class drawn: the smallest subnormal, the extremes of a float,
# the non-finite values, zero, a negative number, an integer beyond every
# bound (10^13, as a cell count would need 80 TB) and a non-number
VALUES = ["5e-324", "1e300", "-1e300", "nan", "inf", "-inf", "0", "-3",
          "10000000000000", "banana"]
# the evolve-family runs stay small unless the drawn key replaces these
SMALL = ["--set", "solver.n_cells=32", "--set", "solver.t_end=0.05"]


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(command=st.sampled_from(sorted(cli.COMMANDS)), key=st.sampled_from(KEYS),
       value=st.sampled_from(VALUES))
def test_every_command_keeps_the_exit_code_contract(command, key, value):
    samples = ["--samples", "20"] if command in cli.SUITE_COMMANDS else []
    err = io.StringIO()
    with contextlib.ExitStack() as stack:
        for module, name, ladder in ((experiments, "DOD_RESOLUTIONS", (64, 128)),
                                     (experiments, "CONVERGENCE_RESOLUTIONS", (32, 64, 128)),
                                     (equations, "ORACLE_RESOLUTIONS", (64, 128))):
            stack.enter_context(mock.patch.object(module, name, ladder))
        out = Path(stack.enter_context(tempfile.TemporaryDirectory())) / "out"
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        stack.enter_context(contextlib.redirect_stderr(err))
        # every warning is an error inside the run, and none may escape it
        stack.enter_context(warnings.catch_warnings())
        warnings.simplefilter("error")
        code = cli.main(["--out", str(out)] + SMALL + ["--set", f"{key}={value}", command]
                        + samples)
        wrote = out.exists()
    err = err.getvalue()
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err == ""
    elif code == 2:
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not wrote
    elif code == 3:
        assert err.startswith("solver abort: ") and err.count("\n") == 1

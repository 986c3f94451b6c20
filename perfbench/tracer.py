"""Outside-in tracing of vecf's public functions for the per-layer metrics.

The tracer replaces a function at every module attribute that binds it,
because vecf modules import names directly (``solver1d`` calls its own
``principal_blocks`` binding, ``verification`` its own ``bisection_roots``).
Span wrappers record (name, parent span, start, end) in memory; self times
are computed from the recorded parent links, never estimated.  Functions
called ~1e5 times per operation get count-only wrappers, so their cost is
not inflated by two clock reads per call.  Timing uses ``perf_counter``
only.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

# traced functions and the statistics reported for each; a span reporting
# none still parents its callees, so their self times stay exact
SPANS = {
    "cli.main": ("self_s",),
    "config.load_config": ("busy_s",),
    "experiments.dod_experiment": (),
    "solver1d.evolve": ("calls", "self_s"),
    "solver1d.step": ("calls", "busy_s", "self_s"),
    "equations.principal_blocks": ("calls", "busy_s"),
    "equations.assemble_lower_order": ("calls", "busy_s"),
    "equations.divergence_residual": ("busy_s",),
    "constitutive.stress_tensor_fields": ("busy_s",),
    "causality.max_characteristic_speed": ("calls",),
    "causality.causality_scan": ("busy_s",),
    "causality.hyperbolicity_region_map": ("busy_s",),
    "characteristics.bisection_roots": ("calls", "busy_s"),
    "symbol.fluid_symbol": ("calls", "busy_s"),
    "symbol.det_by_elimination": ("calls", "busy_s"),
    "tensor.minkowski": ("calls", "busy_s"),
    "verification.factorization_suite": ("busy_s",),
    "verification.collapse_suite": ("busy_s",),
    "verification.roots_suite": ("busy_s",),
    "verification.time_matrix_suite": ("busy_s",),
}

# functions called ~1e5 times per operation: counted, not timed
COUNTED = ("characteristics.eval_factor_base", "symbol.symbol_components")

# grid sizes the step-latency percentiles are reported at, and the tail
# percentile: p80 keeps ten samples beyond it from 50 steps per size on
STEP_SIZES = (128, 256, 512, 4096)
STEP_TAIL_PERCENTILE = 80

_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}


def per_layer_spec() -> list:
    """(name, unit, better) of every per-layer metric a traced run emits."""
    spec = [(f"{span}.{stat}", _UNITS[stat], "lower")
            for span, stats in SPANS.items() for stat in stats]
    spec += [(f"{fn}.calls", "count", "lower") for fn in COUNTED]
    spec += [
        ("solver1d.cell_steps", "count", "lower"),
        ("experiments.evolve_useful_ratio", "ratio", "higher"),
        ("cli.artifact_bytes", "B", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("cell_steps_per_s", "1/s", "higher"),
        ("factorization_samples_per_s", "1/s", "higher"),
        ("collapse_samples_per_s", "1/s", "higher"),
        ("roots_samples_per_s", "1/s", "higher"),
        ("time_matrix_samples_per_s", "1/s", "higher"),
    ]
    for n in STEP_SIZES:
        spec += [
            (f"solver1d.step.ms_p50.n{n}", "ms", "lower"),
            (f"solver1d.step.ms_p{STEP_TAIL_PERCENTILE}.n{n}", "ms", "lower"),
            (f"solver1d.step.samples.n{n}", "count", "lower"),
        ]
    return spec


def _vecf_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "vecf" or name.startswith("vecf."))]


class Tracer:
    """Spans and counts for one traced operation; install, run, uninstall."""

    def __init__(self):
        self.spans = []            # [name, parent index or -1, start, end, grid size]
        self.counts = Counter()
        self.cell_steps = 0
        self.evolve_inputs = []    # (config, snapshot times) per evolve call
        self._stack = []
        self._patched = []         # (module, attribute, original)

    def install(self) -> None:
        for name in SPANS:
            self._patch(name, self._span_wrapper)
        for name in COUNTED:
            self._patch(name, self._count_wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _patch(self, name: str, make) -> None:
        mod, fn = name.split(".")
        original = getattr(sys.modules[f"vecf.{mod}"], fn, None)
        if original is None:
            return      # gone from this version of vecf: its metrics read 0
        wrapper = make(name, original)
        for module in _vecf_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span_wrapper(self, name: str, fn):
        spans, stack = self.spans, self._stack
        on_step = name == "solver1d.step"
        on_evolve = name == "solver1d.evolve"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            size = None
            if on_step:
                grid = args[0] if args else kwargs["grid"]
                # cells of every field row, so a batch axis (5, B, N) counts B * N
                self.cell_steps += grid.V[0].size
                size = grid.V.shape[-1]
            elif on_evolve:
                cfg = args[0] if args else kwargs["cfg"]
                snaps = args[1] if len(args) > 1 else kwargs.get("snapshot_times")
                self.evolve_inputs.append((cfg, None if snaps is None else tuple(snaps)))
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, 0.0, 0.0, size])
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][2] = start
                spans[index][3] = end
        return wrapper

    def useful_evolve_ratio(self) -> float:
        """Evolves with inputs not already evolved / evolves run (0 if none).

        Re-running an evolve on equal (config, snapshot times) repeats work
        the verdict already has, so only the first of equal inputs counts.
        """
        distinct = []
        for key in self.evolve_inputs:
            if not any(key == seen for seen in distinct):
                distinct.append(key)
        return len(distinct) / len(self.evolve_inputs) if self.evolve_inputs else 0.0

    def metrics(self) -> dict:
        """Per-layer values from the recorded spans and counts (0 if unused)."""
        calls = Counter()
        busy = defaultdict(float)
        own = defaultdict(float)
        children = [0.0] * len(self.spans)
        step_ms = defaultdict(list)
        for name, parent, start, end, size in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for (name, parent, start, end, size), covered in zip(self.spans, children):
            calls[name] += 1
            busy[name] += end - start
            own[name] += end - start - covered
            if size is not None:
                step_ms[size].append(1e3 * (end - start))
        stat = {"calls": calls, "busy_s": busy, "self_s": own}
        out = {f"{span}.{s}": stat[s][span]
               for span, stats in SPANS.items() for s in stats}
        for name in COUNTED:
            out[f"{name}.calls"] = self.counts[name]
        out["solver1d.cell_steps"] = self.cell_steps
        out["experiments.evolve_useful_ratio"] = self.useful_evolve_ratio()
        for n in STEP_SIZES:
            samples = step_ms.get(n, [])
            out[f"solver1d.step.ms_p50.n{n}"] = _percentile(samples, 50)
            out[f"solver1d.step.ms_p{STEP_TAIL_PERCENTILE}.n{n}"] = _percentile(
                samples, STEP_TAIL_PERCENTILE)
            out[f"solver1d.step.samples.n{n}"] = len(samples)
        return out


def _percentile(samples: list, k: int) -> float:
    if len(samples) < 2:
        return float(samples[0]) if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[k - 1]

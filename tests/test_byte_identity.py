"""tools/byte_identity.py: the same tree matches itself once runtime_seconds
is dropped, and a tree that prints otherwise does not."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("byte_identity", ROOT / "tools" / "byte_identity.py")
byte_identity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(byte_identity)

# a suite whose JSON records its runtime_seconds, at a small sample count
SUITE = [("verify-factorization", ["verify-factorization", "--samples", "20"])]


def test_a_tree_matches_itself_and_not_a_changed_copy(tmp_path):
    assert byte_identity.compare(ROOT, ROOT, SUITE) == []
    shutil.copytree(ROOT / "src", tmp_path / "src")
    cli = tmp_path / "src" / "vecf" / "cli.py"
    cli.write_text(cli.read_text().replace("'PASS'", "'passed'"))
    assert byte_identity.compare(ROOT, tmp_path, SUITE) == ["verify-factorization: stdout differs"]

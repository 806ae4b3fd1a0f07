"""tools/unrun_lines.py, the probe for statements that the tests never run, on a fixture package."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "unrun_lines.py"

# called() runs with x true only, so its last return never runs; uncalled() never runs at all.
# Docstrings and the module's own statements are not listed
MODULE = '''"""A fixture module."""

SCALE = 2


def called(x):
    """Docstring."""
    if x:
        return SCALE
    return 0


def uncalled():
    y = SCALE + 1
    return y
'''
TEST = '''from fixturepkg.mod import called


def test_called():
    assert called(True) == 2
'''


def test_unrun_lines_lists_the_statements_no_test_ran(tmp_path):
    package = tmp_path / "fixturepkg"
    package.mkdir()
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "mod.py").write_text(MODULE, encoding="utf-8")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text(TEST, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, str(TOOL), str(package), str(tests)], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "1 passed" in run.stdout
    listed = [line for line in run.stdout.splitlines() if line.startswith(str(package))]
    mod = package / "mod.py"
    assert listed == [f"{mod}:10: return 0", f"{mod}:14: y = SCALE + 1", f"{mod}:15: return y"]

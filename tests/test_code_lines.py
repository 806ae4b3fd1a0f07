"""tools/code_lines.py, the code-line count quoted for src/umebkit, on a fixture package."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

# nine code lines: the import, the class, the method, its two-line return, the function, its
# two-line assignment of a string that is not a docstring and its return
LONG = '''"""Module docstring,
over two lines."""

# a comment

import os


class Thing:
    """Class docstring."""

    def method(self):
        """Function docstring,

        three lines."""
        return (1 +
                2)  # a trailing comment


def f():
    x = """not a docstring:
a string in an assignment"""
    return x
'''
SHORT = '''"""Only a docstring and one line."""
X = 1
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_count_a_fixture_package(tmp_path, capsys):
    tool = load_tool()
    (tmp_path / "long.py").write_text(LONG, encoding="utf-8")
    (tmp_path / "short.py").write_text(SHORT, encoding="utf-8")
    assert tool.code_lines(LONG) == 9 and tool.code_lines(SHORT) == 1
    assert tool.main(["code_lines.py", str(tmp_path)]) == 0
    # one line per module, the largest first, then the total
    assert capsys.readouterr().out.splitlines() == [f"{'long':<12}     9", f"{'short':<12}     1", f"{'total':<12}    10"]

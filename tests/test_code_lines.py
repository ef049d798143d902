"""scripts/code_lines.py: what counts as a code line, and the table it prints."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Code lines: `import os`, the two lines of `x = (...)`, `def f():` and
# `return x`.  The docstrings, the comment and the blank lines do not count.
SNIPPET = '''"""Module docstring,
over two lines."""

# a comment
import os

x = (1 +
     2)


def f():
    """Function docstring."""
    return x  # a trailing comment
'''


def test_code_lines_skips_docstrings_comments_and_blank_lines():
    assert code_lines.code_lines(SNIPPET) == 5


def test_table_gives_code_and_physical_lines_per_module_and_in_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("y = 1\n\n")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    table = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert table == [["module", "code", "lines"], ["a.py", "5", "13"],
                     ["b.py", "1", "2"], ["total", "6", "15"]]

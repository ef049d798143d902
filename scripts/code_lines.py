"""Count the code lines and the physical lines of the harvnet package,
per module and in total.

A code line is a line that holds at least one token of Python code: blank
lines, comment-only lines and the lines of docstrings (the string literal
that opens a module, class or function body) do not count.  A physical
line is any line of the file.  Run from the repository root:

    python scripts/code_lines.py [DIR]

DIR defaults to src/harvnet.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of lines of `source` that hold code, docstrings excluded."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/harvnet")
    rows = [(path.name, code_lines(text), len(text.splitlines()))
            for path in sorted(root.glob("*.py")) for text in [path.read_text()]]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':16s} {'code':>5s} {'lines':>6s}")
    for name, code, physical in rows:
        print(f"{name:16s} {code:5d} {physical:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

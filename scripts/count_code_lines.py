"""Count the code lines of a package's modules.

    python3 scripts/count_code_lines.py [PACKAGE_DIR]

A code line is a source line that holds at least one token other than a
comment, a newline or indentation, and that is not part of a docstring
(the first statement of a module, class or function, when it is a string
literal).  Blank lines, comment-only lines and docstring lines are left out.
The script prints one line per module, `code total name`, and the sums;
PACKAGE_DIR defaults to this repository's src/rhflab.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SKIP_TOKENS = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
               tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(code lines, total lines) of one module's source."""
    skip = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIP_TOKENS:
            continue
        code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(code), len(source.splitlines())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package = Path(argv[0]) if argv else ROOT / "src" / "rhflab"
    totals = [0, 0]
    for path in sorted(package.glob("*.py")):
        code, total = count(path.read_text())
        totals[0] += code
        totals[1] += total
        print(f"{code:6d} {total:6d} {path.name}")
    print(f"{totals[0]:6d} {totals[1]:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())

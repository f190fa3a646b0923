"""Print the total and code-only line counts of the netsense package.

Code-only lines hold some token other than a comment or a docstring: blank
lines, comment lines and the lines of module, class and function docstrings
are left out, and a line of code with a trailing comment counts. Standard
library only; run from anywhere:

    python tools/src_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/netsense next to this script's directory.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings of the module, its classes and its functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(total, code-only) lines of one Python file."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    code = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in SKIPPED:
                continue
            span = set(range(tok.start[0], tok.end[0] + 1))
            if not span <= docs:
                code |= span
    return len(text.splitlines()), len(code)


def main(argv: list[str]) -> None:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "netsense"
    total = code = 0
    for path in sorted(package.rglob("*.py")):
        lines, code_lines = count(path)
        total, code = total + lines, code + code_lines
        print(f"{path.relative_to(package)}: {lines} total, {code_lines} code")
    print(f"netsense: {total:,} total, {code:,} code")


if __name__ == "__main__":
    main(sys.argv[1:])

"""Print the physical and code lines of each ``src/gzslgen/*.py`` module.

    python3 scripts/code_lines.py

A code line holds at least one token that is not a comment: blank lines,
comment-only lines and the lines of a module, class or function docstring
do not count. A line inside any other multi-line string does. The last line
gives the totals.
"""

from __future__ import annotations

import ast
import glob
import io
import os
import tokenize

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "gzslgen")
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count_lines(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            code.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(source.splitlines()), len(code)


def main() -> None:
    total_physical = total_code = 0
    for path in sorted(glob.glob(os.path.join(_SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            physical, code = count_lines(fh.read())
        total_physical += physical
        total_code += code
        print(f"{os.path.basename(path):<16} {physical:>6} {code:>6}")
    print(f"{'total':<16} {total_physical:>6} {total_code:>6}")


if __name__ == "__main__":
    main()

"""Code lines of Python files: their lines without docstrings, comments and blank lines.

    python3 tests/source_size.py src/nipr/*.py

Prints a table as ``wc -l`` does: each file's count, then the total.  A line
counts when a token other than a comment or a docstring (the string that
starts a module, class or function body) is on it; a string over several
lines counts on each of them.  Standard library only; pytest does not collect
this file.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
          tokenize.ENDMARKER}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstrings(tree):
    """The (start, end) positions of the docstrings in the tree, as tokenize gives them."""
    for node in ast.walk(tree):
        if isinstance(node, BODIES) and node.body and isinstance(first := node.body[0], ast.Expr) \
                and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
            yield (first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset)


def code_lines(text):
    spans = list(docstrings(ast.parse(text)))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in LAYOUT or any(a <= tok.start and tok.end <= b for a, b in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(paths):
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            n = code_lines(fh.read())
        total += n
        print(f"{n:7d} {path}")
    print(f"{total:7d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

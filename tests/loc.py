"""Line counts of the rplsim sources: all lines, and code lines.

A code line holds a token that is not a comment or a docstring; blank
lines count only as all lines. A docstring is the string constant that
opens a module, class or function. Needs no pytest:

    python tests/loc.py [DIR]

prints one line per ``*.py`` file in DIR (default ``src/rplsim``) and a
total line.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(tree):
    """(line, column) where each docstring of ``tree`` starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(path: Path) -> tuple[int, int]:
    """(all lines, code lines) of one source file."""
    text = path.read_text(encoding="utf-8")
    docstrings = _docstring_starts(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIPPED and tok.start not in docstrings:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code)


def main(argv) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).parent.parent / "src" / "rplsim"
    total_lines = total_code = 0
    for path in sorted(root.glob("*.py")):
        lines, code = count(path)
        total_lines += lines
        total_code += code
        print("%-16s %5d lines %5d code" % (path.name, lines, code))
    print("%-16s %5d lines %5d code" % ("total", total_lines, total_code))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

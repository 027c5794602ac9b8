"""Count the code lines of the Python files under a source directory.

A code line holds at least one code token: comments, blank lines and
docstrings (the string that opens a module, class or function body) do not
count, and a statement spread over several lines counts each line that holds
one of its tokens.  Prints the count of each file and the total.

    python tools/code_lines.py [directory]    # default: src/confhess
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path):
    """The number of code lines of one Python file."""
    text = Path(path).read_text(encoding="utf-8")
    skip = _docstring_lines(ast.parse(text))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIP:
            lines.update(r for r in range(tok.start[0], tok.end[0] + 1) if r not in skip)
    return len(lines)


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src/confhess")
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

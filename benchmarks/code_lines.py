"""Code lines of each Python module under a directory, and their total.

    python benchmarks/code_lines.py [PATH]

PATH defaults to the repository's ``src``.  A code line holds a token other
than a comment or whitespace, and lies outside every module, class and
function docstring; a string or bracket that spans lines makes each of its
lines a code line.  Blank lines, comment lines and docstrings are not code.
This is the count the design notes quote when code is added or removed.
"""

import ast
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in one Python source file."""
    with tokenize.open(path) as f:
        text = f.read()
    lines = set()
    for tok in tokenize.generate_tokens(iter(text.splitlines(keepends=True)).__next__):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text, str(path))))


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else SRC
    files = [root] if root.is_file() else sorted(root.rglob("*.py"))
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print(f"{count:>6}  {path.relative_to(root) if path != root else path}")
    print(f"{total:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())

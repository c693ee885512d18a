"""Code lines and public names of each Python module under a directory,
and the code lines in all; then the code lines of each C source file.

    python benchmarks/code_lines.py [PATH]

PATH defaults to the repository's ``src``.  A code line holds a token other
than a comment or whitespace, and lies outside every module, class and
function docstring; a string or bracket that spans lines makes each of its
lines a code line.  Blank lines, comment lines and docstrings are not code.
A module's public names are the entries of its ``__all__`` list or tuple
("-" where it has none), read from the source with ``ast`` and no import;
a package's ``__init__.py`` row is the package's own surface, and the last
lines repeat it for each top-level package (``topocompat.__all__`` under
``src``).  A module that defines a top-level class ``Graph`` adds one more
line, the number of that class's public methods and properties (those whose
names do not start with ``_``), read the same way.  The last line is the
number of environment variables the modules read by name: the distinct
string literals given to ``os.environ.get``, ``os.getenv`` or a read of
``os.environ[...]``, found with ``ast`` too.  After it comes one line per
``.c`` file under PATH: its code lines, those that hold something other
than whitespace and ``/* */`` or ``//`` comments (a comment marker inside
a string or character literal starts none).  These are the counts the
design notes quote when code or names are added or removed.
"""

import ast
import re
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
CLASS = "Graph"  # the class whose public methods and properties are counted
# a C comment, or a string or character literal, which may hold comment markers
C_COMMENT_OR_LITERAL = re.compile(r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'',
                                  re.S)


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


def public_names(tree: ast.Module):
    """The number of entries in the module's top-level ``__all__`` list or
    tuple, or None when it assigns none."""
    count = None
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            count = len(node.value.elts)
    return count


def public_members(tree: ast.Module):
    """The number of public methods and properties of the module's top-level
    class ``CLASS``, or None when it defines none."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == CLASS:
            return sum(isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                       and not item.name.startswith("_") for item in node.body)
    return None


def environment_variables(tree: ast.Module) -> set:
    """The string literals the module gives ``os.environ.get`` or
    ``os.getenv``, or reads ``os.environ`` at."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("os.environ.get", "os.getenv"):
            key = node.args[0] if node.args else None
        elif (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
              and ast.unparse(node.value) == "os.environ"):
            key = node.slice
        else:
            continue
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            names.add(key.value)
    return names


def code_lines(path: Path):
    """The number of code lines in one Python source file, of its public
    names, and of its class ``CLASS``'s public members (None without one),
    and the environment variables it reads by name."""
    with tokenize.open(path) as f:
        text = f.read()
    lines = set()
    for tok in tokenize.generate_tokens(iter(text.splitlines(keepends=True)).__next__):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    tree = ast.parse(text, str(path))
    return (len(lines - docstring_lines(tree)), public_names(tree), public_members(tree),
            environment_variables(tree))


def c_code_lines(path: Path) -> int:
    """The number of lines of one C source file that hold something other
    than whitespace and comments: each comment is replaced by its newlines,
    each literal kept, and the non-blank lines are counted."""
    text = C_COMMENT_OR_LITERAL.sub(
        lambda m: m[0] if m[0][0] in "\"'" else "\n" * m[0].count("\n"), path.read_text())
    return sum(1 for line in text.splitlines() if line.strip())


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else SRC
    files = [root] if root.is_file() else sorted(root.rglob("*.py"))
    c_files = [] if root.is_file() else sorted(root.rglob("*.c"))
    total, surfaces, variables = 0, [], set()
    print(f"{'code':>6} {'names':>6}  module")
    for path in files:
        count, names, members, read = code_lines(path)
        total += count
        variables |= read
        print(f"{count:>6} {'-' if names is None else names:>6}  "
              f"{path.relative_to(root) if path != root else path}")
        if path.name == "__init__.py" and path.parent.parent == root:  # a top-level package
            surfaces.append(f"{'':>6} {names or 0:>6}  {path.parent.name}.__all__")
        if members is not None:
            surfaces.append(f"{'':>6} {members:>6}  {CLASS} public methods and properties")
    print(f"{total:>6} {'':>6}  total", *surfaces,
          f"{'':>6} {len(variables):>6}  environment variables read", sep="\n")
    for path in c_files:
        print(f"{c_code_lines(path):>6} {'':>6}  {path.relative_to(root)} (C)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

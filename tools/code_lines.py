"""Count the code lines of each module under src/swapsim and in total.

A code line is a line that is not blank, not only a comment and not inside
a docstring (a module's, class's or function's first statement when it is a
string, found with ``ast``). Run from anywhere: ``python tools/code_lines.py``,
or give another package directory as the one argument.
"""
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "swapsim"
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(text))
    return sum(1 for number, line in enumerate(text.splitlines(), 1)
               if number not in skip and line.strip() and not line.strip().startswith("#"))


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:<16} {count:>6,}")
    print(f"{'total':<16} {total:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

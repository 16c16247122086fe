"""Count the code lines of each module of src/kromatic.

A code line is a line spanned by an AST node, less the lines of
docstrings and the blank or comment-only lines inside a node's span.
Run from anywhere:

    python tools/code_lines.py
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kromatic"


def _docstring_lines(tree):
    """The lines of every module, class and function docstring."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(text):
    """The number of code lines in a module's source text."""
    tree = ast.parse(text)
    spanned = set()
    for node in ast.walk(tree):
        if hasattr(node, "lineno"):
            spanned.update(range(node.lineno, node.end_lineno + 1))
    lines = text.splitlines()
    return sum(1 for i in spanned - _docstring_lines(tree)
               if lines[i - 1].strip()
               and not lines[i - 1].strip().startswith("#"))


def main():
    counts = {p.stem: code_lines(p.read_text())
              for p in sorted(SRC.glob("*.py"))}
    for name, n in counts.items():
        print(f"{name:12} {n:6,}")
    print(f"{'total':12} {sum(counts.values()):6,}")


if __name__ == "__main__":
    main()

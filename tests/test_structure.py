"""Source-level guards over the modules of src/kromatic, and a test of the
code-line counter in tools/."""
import ast
import importlib.util
from pathlib import Path

import kromatic

SRC = Path(kromatic.__file__).parent


def _imported_names(tree):
    """{name: defining module} for every `from .module import name` (and
    `from . import name`, from the package itself) anywhere in a module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                out[alias.asname or alias.name] = node.module or "__init__"
    return out


def _references(stmt, name, home, imported):
    """Whether a top-level statement of a module with these imports uses
    `name` as defined in module `home`.  An import alone is no use."""
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return False
    return imported.get(name, home) == home and any(
        isinstance(node, ast.Name) and node.id == name
        for node in ast.walk(stmt))


def test_every_definition_has_a_caller():
    # a module-level function or class that no other top-level statement
    # of the package uses is dead code, or an oracle for tests/helpers.py
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    imports = {mod: _imported_names(tree) for mod, tree in trees.items()}
    dead = []
    for home, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not any(_references(stmt, node.name, home, imports[mod])
                       for mod, other in trees.items()
                       if mod == home or node.name in imports[mod]
                       for stmt in other.body if stmt is not node):
                dead.append(f"{home}.{node.name}")
    assert dead == []


def test_every_method_has_a_caller():
    # a method that no statement of the package reads as an attribute,
    # outside its own body, is dead code; the check goes by name, so two
    # methods called coeff are kept alive by a read of either
    trees = [ast.parse(p.read_text()) for p in SRC.glob("*.py")]
    methods = [f for tree in trees for cls in tree.body
               if isinstance(cls, ast.ClassDef) for f in cls.body
               if isinstance(f, ast.FunctionDef)
               and not (f.name.startswith("__") and f.name.endswith("__"))]
    assert methods

    def reads(node, name, skip):
        if node is skip:
            return False
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        return any(reads(child, name, skip)
                   for child in ast.iter_child_nodes(node))

    dead = [f.name for f in methods
            if not any(reads(tree, f.name, f) for tree in trees)]
    assert dead == []


def test_heap_words_stay_in_the_heap_layer():
    # core and quasisym read the heap layer's count tables, never its words
    tables = {"lyndon_count", "lyndon_support_counts", "pyramid_classes"}
    for mod in ("core", "quasisym"):
        tree = ast.parse((SRC / f"{mod}.py").read_text())
        names = {name for name, home in _imported_names(tree).items()
                 if home == "heaps"}
        assert names <= tables, (mod, sorted(names - tables))


def test_private_names_stay_in_their_module():
    # a module imports only the public names of another; a private helper
    # that two modules need is public, or the code that needs it moves
    leaks = sorted(
        f"{path.stem} imports {node.module or '__init__'}.{alias.name}"
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_") and not (
            alias.name.startswith("__") and alias.name.endswith("__")))
    assert leaks == []


def test_code_lines_counts_only_code():
    path = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    text = '''"""Module docstring,
over two lines."""
import os  # a trailing comment

# a comment line


class A:
    """Class docstring."""

    def f(self, x):
        """Function docstring,

        with a blank line inside."""
        # a comment inside the body
        y = (x +

             1
             )
        return [y,
                # a comment inside an expression
                os.sep]
'''
    # import, class and def, then the three lines of y = (...) and the two
    # of the return that hold code, each once; the blank and comment lines
    # inside those spans do not count
    assert tool.code_lines(text) == 8

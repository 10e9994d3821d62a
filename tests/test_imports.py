"""Every module-level import of the package and of the tests is used.

Checked with ``ast`` alone, since the tests need no linter: a name bound
by an import at module level (a ``try``/``except`` or ``if`` block at
module level included) must be read somewhere in the module, in code, in
an annotation (quoted ones included) or in ``__all__``.
"""

import ast
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join(os.path.dirname(HERE), "src", "hodgehurwitz")
MODULES = sorted(os.path.join(folder, name)
                 for folder in (PACKAGE, HERE)
                 for name in os.listdir(folder) if name.endswith(".py"))


def _module_imports(tree: ast.Module):
    """(bound name, line) of each import at module level."""
    blocks = [tree.body]
    while blocks:
        for node in blocks.pop():
            if isinstance(node, (ast.Try, ast.If)):
                blocks += [node.body, node.orelse,
                           *(h.body for h in getattr(node, "handlers", ()))]
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    yield name, node.lineno
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                for alias in node.names:
                    yield alias.asname or alias.name, node.lineno


def _names_read(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            names.update(ast.literal_eval(node.value))
        # a quoted annotation is a string holding an expression
        for child in (getattr(node, "annotation", None),
                      getattr(node, "returns", None)):
            for sub in ast.walk(child) if child is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value,
                                                                str):
                    names |= _names_read(ast.parse(sub.value))
    return names


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_every_module_level_import_is_used(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    read = _names_read(tree)
    unused = [f"{name} (line {line})"
              for name, line in _module_imports(tree) if name not in read]
    assert not unused, f"{os.path.basename(path)} never uses {unused}"


def test_an_unused_import_is_reported():
    tree = ast.parse("import os\nfrom math import gcd, lcm\n"
                     "x: 'Optional[int]' = gcd(1, 2)\n")
    read = _names_read(tree)
    assert [n for n, _ in _module_imports(tree) if n not in read] == \
        ["os", "lcm"]


def _private_package_imports(tree: ast.Module):
    """(module, name, line) of each import, anywhere in the module, of
    an underscore name from a module of the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("hodgehurwitz")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield node.module, alias.name, node.lineno


@pytest.mark.parametrize(
    "path", [p for p in MODULES if os.path.dirname(p) == PACKAGE],
    ids=os.path.basename)
def test_no_module_imports_a_private_name_of_another(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    private = [f"{name} from {module} (line {line})"
               for module, name, line in _private_package_imports(tree)]
    assert not private, f"{os.path.basename(path)} imports {private}"


def test_a_private_import_is_reported():
    tree = ast.parse("from .cli import Tables, _Parser\n"
                     "def f():\n"
                     "    from hodgehurwitz.hurwitz import _count\n"
                     "    from fractions import _gcd\n")
    assert list(_private_package_imports(tree)) == \
        [("cli", "_Parser", 1), ("hodgehurwitz.hurwitz", "_count", 3)]

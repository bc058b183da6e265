import ast
import importlib
import pathlib

import pytest

import laneemden


def test_exports_resolve():
    """Each public name is the attribute of the module that _EXPORTS names for it."""
    assert laneemden.__all__ == ["__version__", *laneemden._MODULE_OF]
    for module, names in laneemden._EXPORTS.items():
        mod = importlib.import_module(f"laneemden.{module}")
        for name in names:
            assert name in laneemden.__all__
            assert getattr(laneemden, name) is getattr(mod, name), name
    with pytest.raises(AttributeError):
        laneemden.no_such_name


def _names_used(node, inside=()):
    """(defined, used): the names of the functions and classes defined under node, and
    every name, attribute or string constant met outside a definition of that name."""
    defined, used = set(), set()
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        defined.add(node.name)
        inside += (node.name,)
    name = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
            else node.value if isinstance(node, ast.Constant) else None)
    if isinstance(name, str) and name not in inside:
        used.add(name)
    for child in ast.iter_child_nodes(node):
        d, u = _names_used(child, inside)
        defined |= d
        used |= u
    return defined, used


def test_every_definition_is_used():
    """Each function and class of the package is named in src/ or perfbench/ outside its
    own definition: code that only tests call does not live in the package."""
    root = pathlib.Path(__file__).resolve().parents[1]
    defined, used = set(), set()
    for tree in ("src/laneemden", "perfbench"):
        for path in sorted((root / tree).rglob("*.py")):
            d, u = _names_used(ast.parse(path.read_text()))
            used |= u
            if tree == "src/laneemden":
                defined |= d
    unused = {n for n in defined - used if not (n.startswith("__") and n.endswith("__"))}
    assert not unused, sorted(unused)

import ast
import dataclasses
import importlib
import inspect
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
    own definition: code that only tests call does not live in the package.  A name
    counts for one owner only: no two classes of the package define a public method or
    property of the same name, where a use of one would hide the other's lack of use."""
    root = pathlib.Path(__file__).resolve().parents[1]
    defined, used, owners = set(), set(), {}
    for tree in ("src/laneemden", "perfbench"):
        for path in sorted((root / tree).rglob("*.py")):
            module = ast.parse(path.read_text())
            d, u = _names_used(module)
            used |= u
            if tree != "src/laneemden":
                continue
            defined |= d
            for cls in (c for c in ast.walk(module) if isinstance(c, ast.ClassDef)):
                for f in cls.body:
                    if (isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not f.name.startswith("_")):
                        owners.setdefault(f.name, []).append(f"{path.stem}.{cls.name}")
    unused = {n for n in defined - used if not (n.startswith("__") and n.endswith("__"))}
    assert not unused, sorted(unused)
    shared = {name: classes for name, classes in owners.items() if len(classes) > 1}
    assert not shared, shared


def test_phi_tables_are_run_inputs():
    """verify imports nothing from halfspace: its checks take the phi tables that
    cli.run_suite builds, and only cli names TABLE_REACH, the rule of their reach."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "laneemden"
    tree = ast.parse((src / "verify.py").read_text())
    imported = set()  # the modules and the names of each import
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {a.name for a in node.names}
    assert not [m for m in imported if "halfspace" in m.split(".")], sorted(imported)
    readers = [path.name for path in sorted(src.glob("*.py"))
               if "TABLE_REACH" in _names_used(ast.parse(path.read_text()))[1]]
    assert readers == ["cli.py"]


def test_check_table_states_each_read_once():
    """Each entry of cli.CHECKS names a verify function whose parameters without a
    default are the entry's reads, in order, which run_suite passes by position; and
    no check function of verify gives a run input a default, so RunConfig states
    each default once."""
    from laneemden import cli, verify
    for name, (fname, reads) in cli.CHECKS.items():
        params = inspect.signature(getattr(verify, fname)).parameters.values()
        required = [p for p in params if p.default is p.empty]
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in required), name
        assert tuple(p.name for p in required) == reads, name
    run_inputs = set().union(*cli.CHECK_READS.values(),
                             (f.name for f in dataclasses.fields(cli.RunConfig)))
    defaulted = [f"{fname}({p.name})" for fname, fn in vars(verify).items()
                 if fname.startswith("check_") and inspect.isfunction(fn)
                 for p in inspect.signature(fn).parameters.values()
                 if p.name in run_inputs and p.default is not p.empty]
    assert not defaulted, defaulted


def test_checks_take_no_problem_parameter():
    """ProblemParams alone states n, p, q and the slopes: no check function of
    cli.CHECKS takes one of its fields as a parameter of its own; a check reads
    them from params or profile.params."""
    from laneemden import cli, verify
    from laneemden.params import ProblemParams
    fields = {f.name for f in dataclasses.fields(ProblemParams)}
    taken = [f"{fname}({p})" for fname, _ in cli.CHECKS.values()
             for p in inspect.signature(getattr(verify, fname)).parameters if p in fields]
    assert not taken, taken

"""What perfbench reaches into the package by name must still be there.

``perfbench/run.py`` lists the functions its tracer wraps in
``LAYER_FUNCTIONS``; a rename in the package would leave a traced name
behind and its per-layer metrics empty.  ``perfbench/workloads.py``
calls into the package through ``tk``, the imported package, and through
names bound to its modules; a rename there would only show as a failed
benchmark run.  ``perfbench/test_smoke.py`` breaks one line of
``catalog.py`` to prove the benchmark's checks catch a wrong answer; a
refactor that rewrote that line would disarm the check.  All three are
read with ``ast``, so perfbench is not imported.
"""

import ast
import enum
import functools
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
SMOKE = ROOT / "perfbench" / "test_smoke.py"
CATALOG = ROOT / "src" / "tieknot" / "catalog.py"


def _layer_functions():
    for node in ast.parse(RUN.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYER_FUNCTIONS"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYER_FUNCTIONS in {RUN}")


def _resolves(name):
    module, *attributes = name.split(".")
    try:
        functools.reduce(getattr, attributes, importlib.import_module(f"tieknot.{module}"))
    except (ImportError, AttributeError):
        return False
    return True


def test_traced_layer_functions_exist():
    names = _layer_functions()
    assert len(names) > 20
    assert [name for name in names if not _resolves(name)] == []


def _wrappable(name):
    """Whether perfbench's tracer wraps ``name``: a public function whose
    ``__module__`` is its module, or a public function or property of a
    class defined there that is neither an enum nor an exception.  A
    re-export, a cache wrapper or a plain attribute is none of these."""
    module_name, *attributes = name.split(".")
    module = importlib.import_module(f"tieknot.{module_name}")
    if any(attribute.startswith("_") for attribute in attributes):
        return False
    owner = getattr(module, attributes[0], None)
    if len(attributes) == 1:
        return inspect.isfunction(owner) and owner.__module__ == module.__name__
    if (len(attributes) != 2 or not inspect.isclass(owner) or owner.__module__ != module.__name__
            or issubclass(owner, (enum.Enum, BaseException))):
        return False
    member = vars(owner).get(attributes[1])
    if isinstance(member, (classmethod, staticmethod)):
        member = member.__func__
    return inspect.isfunction(member) or (isinstance(member, property) and member.fget is not None)


def test_traced_layer_functions_are_wrappable():
    assert [name for name in _layer_functions() if not _wrappable(name)] == []


def _chain(node):
    """``["tk", "notation", "parse_tw"]`` for ``tk.notation.parse_tw``;
    None unless ``node`` is a dotted chain on a plain name."""
    attributes = []
    while isinstance(node, ast.Attribute):
        attributes.insert(0, node.attr)
        node = node.value
    return [node.id, *attributes] if isinstance(node, ast.Name) else None


def _workload_names():
    """Every ``<module>.<name>`` chain that the workloads reach through ``tk``."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    modules = {}  # a name bound to ``tk.<module>`` -> the module
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)  # a, b = tk.x, tk.y
                else:
                    pairs = [(target, node.value)]
                for name, value in pairs:
                    chain = _chain(value)
                    if isinstance(name, ast.Name) and chain is not None and chain[0] == "tk" and len(chain) == 2:
                        modules[name.id] = chain[1]
    names = set()
    for node in ast.walk(tree):
        chain = _chain(node) if isinstance(node, ast.Attribute) else None
        if chain is not None and chain[0] == "tk":
            names.add(".".join(chain[1:]))
        elif chain is not None and chain[0] in modules:
            names.add(".".join([modules[chain[0]], *chain[1:]]))
    return names


def test_workload_package_names_exist():
    names = _workload_names()
    assert {"cli.main", "notation.classify_final", "catalog.KnotName.parse", "genfunc.RationalGF"} <= names
    assert [name for name in sorted(names) if not _resolves(name)] == []


def _mutation():
    """The ``(old, new)`` strings of the one ``source.replace`` in the smoke tests."""
    calls = [
        node
        for node in ast.walk(ast.parse(SMOKE.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "replace"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "source"
    ]
    assert len(calls) == 1, f"expected one source.replace(...) in {SMOKE}"
    return tuple(ast.literal_eval(arg) for arg in calls[0].args)


def test_benchmark_mutation_target_is_in_catalog():
    old, new = _mutation()
    assert old != new
    assert CATALOG.read_text(encoding="utf-8").count(old) == 1

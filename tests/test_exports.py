"""Export hygiene: each public name of lnlab is defined once, in the submodule
whose ``__all__`` lists it, no module imports a name it never uses, every
public function or class has a user, and every private function and every
public method has a caller in the package or the benchmark."""

import ast
from collections import Counter
import importlib
import inspect
import pathlib
import pkgutil

import lnlab

SUBMODULES = [importlib.import_module(f"lnlab.{info.name}")
              for info in pkgutil.iter_modules(lnlab.__path__)]


def test_every_export_has_one_home():
    home: dict[str, str] = {}
    for mod in SUBMODULES:
        names = mod.__all__
        assert len(names) == len(set(names)), f"{mod.__name__} lists a name twice"
        for name in names:
            obj = getattr(mod, name)
            # type aliases such as matrix.Matrix are neither classes nor
            # functions, so they carry no defining module to check
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == mod.__name__, (
                    f"{mod.__name__} re-exports {name} from {obj.__module__}")
            assert name not in home, (
                f"{name} is exported from {home.get(name)} and {mod.__name__}")
            home[name] = mod.__name__


def test_every_import_is_used():
    # a name bound by a top-level import is read in its module or listed in
    # its __all__; __future__ imports only switch on language features
    unused = []
    for path in sorted(pathlib.Path(lnlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bound, exported = {}, set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
            elif (isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                exported = set(ast.literal_eval(node.value))
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += [f"{path.name}:{line} {name}" for name, line in bound.items()
                   if name not in read and name not in exported]
    assert not unused, f"unused imports: {', '.join(unused)}"


# public names no user path loads yet, each with the reason it stays
KEEP = {
    "build_from_connection": "flat Lie bialgebra bundles (ROADMAP item 7)",
    "courant_operator": "acceptance criterion 6",
    "concomitants": "bench/tracer.py wraps it by name",
    "vf_bracket": "bench/tracer.py wraps it by name",
}


def _loads(node: ast.AST) -> Counter:
    """How often ``node`` loads each name: plain names, attributes and
    from-imports."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def _loaded_names(node: ast.AST) -> set[str]:
    """Names that ``node`` loads."""
    return set(_loads(node))


SRC = pathlib.Path(lnlab.__file__).parent
BENCH = pathlib.Path(__file__).parents[1] / "bench"


def test_every_public_function_has_a_user():
    # a module-level public function or class is loaded somewhere in lnlab
    # outside its own definition, or by the benchmark, or is a package export
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            names = _loaded_names(node)
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined[node.name] = path.name
                names.discard(node.name)
            used |= names
    for path in sorted(BENCH.glob("*.py")):
        used |= _loaded_names(ast.parse(path.read_text(), filename=str(path)))
    unused = sorted(f"{home}:{name}" for name, home in defined.items()
                    if name not in used and name not in lnlab.__all__ and name not in KEEP)
    assert not unused, f"public names without a user: {', '.join(unused)}"
    stale = sorted(name for name in KEEP if name not in defined or name in used)
    assert not stale, f"KEEP entries that name nothing or now have a user: {stale}"


def _defs_and_loads() -> tuple[list[tuple[str, ast.FunctionDef, bool]], Counter]:
    """(label, node, whether it is a method) for each def of lnlab at module
    level or in a module-level class, and how often lnlab and the benchmark
    load each name."""
    loads, defs = Counter(), []
    for path in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        loads += _loads(tree)
        if path.parent != SRC:
            continue
        for node in tree.body:
            method = isinstance(node, ast.ClassDef)
            defs += [(f"{path.name}:{m.name}", m, method)
                     for m in (node.body if method else [node])
                     if isinstance(m, ast.FunctionDef)]
    return defs, loads


def test_every_private_function_has_a_caller():
    # a non-dunder _name def of lnlab, at module level or in a class, is
    # loaded in lnlab or the benchmark outside its own body: a second path
    # that only tests reach does not stay in the package
    defs, loads = _defs_and_loads()
    defs = [(label, m) for label, m, _ in defs
            if m.name.startswith("_") and not m.name.endswith("__")]
    assert len(defs) > 80
    uncalled = [label for label, m in defs if loads[m.name] <= _loads(m)[m.name]]
    assert not uncalled, f"private functions without a caller: {', '.join(uncalled)}"


# public methods and properties no package or benchmark path loads, each
# with the reason it stays
KEEP_METHODS: dict[str, str] = {}


def test_every_public_method_has_a_user():
    # a public method or property of an lnlab class is loaded in lnlab or the
    # benchmark outside its own body, as the private defs are: a method that
    # only tests call belongs with the tests
    defs, loads = _defs_and_loads()
    methods = [(label, m) for label, m, method in defs
               if method and not m.name.startswith("_")]
    assert len(methods) > 60
    unused = {m.name: label for label, m in methods if loads[m.name] <= _loads(m)[m.name]}
    flagged = sorted(label for name, label in unused.items() if name not in KEEP_METHODS)
    assert not flagged, f"public methods without a user: {', '.join(flagged)}"
    stale = sorted(KEEP_METHODS.keys() - unused.keys())
    assert not stale, f"KEEP_METHODS entries that name nothing or now have a user: {stale}"

"""Reachability lint: every public def of lnlab is entered on a user path.

The user paths are what users and the benchmark run:

- every catalog scene through the command line: ``examples run`` in both
  formats, ``examples show``, ``check`` on its file, and ``lift`` on each of
  its objects (the objects that are not liftable take the error path);
- the failing and refused scenes of ``test_scene_cli.py``;
- one item of each kind of each workload of ``bench/workloads.py``, computed
  and checked.

They run once, under ``helpers.codes_entered``, which records the code
object of every Python function entered under any name.  Each public def
(a function of a module, or a method or property of any class of a module,
defined in lnlab under a name without a leading underscore) is entered, or
``KEEP`` names it with the reason it stays.  The name-based checks of
``test_exports.py`` count a method as used when another method shares its
name; this lint does not.
"""

import contextlib
import importlib
import inspect
import io
import json
import pathlib
import pkgutil
import sys
import tempfile

import pytest

import lnlab
import test_scene_cli as cli_tests
from helpers import codes_entered
from lnlab.catalog import example_names, example_source
from lnlab.cli import main
from lnlab.scene import parse_scene

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

# public defs no user path enters, each with the reason it stays
TRACED = "bench/tracer.py wraps it by name"
KEEP = {
    "gder:build_from_connection": "flat Lie bialgebra bundles (ROADMAP item 7)",
    "lnb:courant_operator": "acceptance criterion 6",
    "pnlab:concomitants": TRACED,
    "pnlab:concomitant_R": TRACED,
    "forms:vf_bracket": TRACED,
    "forms:wedge": TRACED,
    "forms:exterior_d": TRACED,
    "gder:GenDer.extend": TRACED,
    "forms:interior_vvf": "only concomitant_R calls it",
    "forms:sharp": "only concomitant_R calls it",
    "gder:FramedBundle.zero_form": "only build_from_connection calls it",
    "poly:Poly.constant_value": "only courant_operator calls it",
    "poly:Poly.total_degree": "only courant_operator calls it",
    "forms:_Alternating.zero": ("only zero_form, exterior_d and DiffForm.basis on a "
                                "repeated index call it"),
}


def public_defs() -> dict[str, object]:
    """``module:name`` or ``module:Class.name`` -> code object, for every
    public function of an lnlab module and every public method and property
    of a class it defines."""
    out = {}
    for info in pkgutil.iter_modules(lnlab.__path__):
        mod = importlib.import_module(f"lnlab.{info.name}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not name.startswith("_"):
                out[f"{info.name}:{name}"] = obj.__code__
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if isinstance(member, property):
                        member = member.fget
                    elif isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if inspect.isfunction(member) and member.__module__ == mod.__name__:
                        out[f"{info.name}:{name}.{attr}"] = member.__code__
    return out


def _cli(*argv: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


def _failing_runs() -> list[tuple[list[str], str]]:
    """(arguments before ``check``'s file, scene text) for each failing or
    refused scene of test_scene_cli.py."""
    t = cli_tests
    texts = [t.FAILING_PN_SCENE, t.NOT_DUAL_FRAMES, "{not json"]
    texts += [json.dumps(scene) for scene in (
        t.NON_POISSON_KOSMANN, t.NON_POISSON_PN, t.PRODUCT_JX_SCENE, t.HEISENBERG_COCYCLE,
        t.NOT_AN_ALGEBROID)]
    texts += [t.torsion_scene([[entry, "0"], ["0", "x"]])
              for entry in ("2^15000*y", *t.GROWING_ENTRIES)]
    runs = [([], text) for text in texts]
    runs += [(["--max-degree", "2"], json.dumps(t.GROWTH_WHILE_BUILDING)),
             (["--max-degree", "4"], t.torsion_scene([["0", "y^3"], ["x^3", "0"]]))]
    for edit in t.MALFORMED_EDITS.values():
        scene = json.loads(t.PN_SCENE)
        text = edit(scene)
        runs.append(([], json.dumps(scene) if text is None else text))
    for frame in (["a,b", "c"], [" c", "d"]):
        scene = json.loads(t.PN_SCENE)
        scene["objects"]["A"] = {"type": "algebroid", "frame": frame,
                                 "anchor": [["1", "0"], ["0", "1"]]}
        runs.append(([], json.dumps(scene)))
    for kind in ("gder_tangent", "gder_cotangent"):
        scene = json.loads(t.PN_SCENE)
        scene["objects"].update(X=t.VECTOR_FIELD, D={"type": kind, "endomorphism": "X"})
        runs.append(([], json.dumps(scene)))
    return runs


def _workload_items() -> list:
    """One item of each kind of each benchmark workload."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import workloads
    items = {}
    for item in (workloads.identities(1) + workloads.dense(1)
                 + workloads.scenes(1, workloads.load_goldens())):
        items.setdefault(item.kind, item)
    return list(items.values())


def run_user_paths(tmp: pathlib.Path) -> None:
    for name in example_names():
        for fmt in ("text", "table"):
            _cli("examples", "run", name, "--format", fmt)
        _cli("examples", "show", name)
        path = tmp / f"{name}.json"
        path.write_text(example_source(name))
        _cli("check", str(path), "--report", str(tmp / f"{name}.txt"))
        for obj in parse_scene(example_source(name)).objects:
            _cli("lift", str(path), obj)
    failing = tmp / "failing.json"
    for args, text in _failing_runs():
        failing.write_text(text)
        _cli(*args, "check", str(failing))
    failing.write_text(cli_tests.PN_SCENE)
    _cli("lift", str(failing), "missing")
    _cli("lift", str(tmp / "missing.json"), "rx")
    for item in _workload_items():
        item.check(item.compute())


@pytest.fixture(scope="module")
def entered():
    with tempfile.TemporaryDirectory() as tmp:
        _, seen = codes_entered(run_user_paths, pathlib.Path(tmp))
    return seen


def test_every_public_def_is_entered_on_a_user_path(entered):
    defs = public_defs()
    assert len(defs) > 100
    unreached = sorted(label for label, code in defs.items()
                       if code not in entered and label not in KEEP)
    assert not unreached, f"public defs no user path enters: {', '.join(unreached)}"
    stale = sorted(label for label in KEEP if label not in defs or defs[label] in entered)
    assert not stale, f"KEEP entries that name nothing or are now entered: {stale}"

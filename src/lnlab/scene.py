"""Scene files: declarative inputs for the command-line checker.

A scene is a JSON object with three keys:

    {
      "chart": ["x", "y"],
      "objects": { "pi0": {"type": "bivector", ...}, ... },
      "checks":  [ {"check": "pn", "bivector": "pi0", ...}, ... ]
    }

All polynomial entries are strings in the chart coordinates (integer or
rational coefficients, ``+ - * ^`` and parentheses).  Object types:

    bivector            coeffs: {"x,y": "poly", ...}
    endomorphism        matrix: [[poly, ...], ...]  (row j = output component
                        along d/dx_j, column i = input direction d/dx_i)
    vector_field        components: [poly, ...]
    tangent_algebroid   (no further keys)
    cotangent_algebroid bivector: <name>
    algebroid           frame: [distinct names, no ',' and no outer spaces],
                        anchor: [[poly, ...], ...],
                        brackets: {"e1,e2": [poly, ...], ...}
    gder_tangent        endomorphism: <name>   (the derivation it induces on
                        the tangent frame)
    gder_cotangent      endomorphism: <name>   (likewise on the coframe)

Checks and the keys each reads.  bivector, endomorphism and field name
objects of those types (field: a vector_field); target, algebroid, base and
dual name algebroids of any of the three algebroid types; gder names a
gder_tangent or gder_cotangent object.

    algebroid           target
    bialgebroid         base, dual
    im                  algebroid, gder
    pn                  bivector, endomorphism
    kosmann             bivector, endomorphism
    mm1                 bivector, endomorphism, field
    mm1_random          dims: 1 to 5 entries, each 1 to 6 (default [2, 3]),
                        count 1 to 50 (default 5), seed (default: the run's seed)
    hierarchy           bivector, endomorphism, depth 0 to 16 (default 2)
    lnb                 base, dual, gder
    base_pn             base, dual, gder
    deform_hierarchy    base, dual, gder, depth 1 to 16 (default 1)
    holomorphic         base, dual, gder
    torsion             endomorphism
    correspondence      gder

Within one ``run`` a structure already verified is not verified again: the
algebroid, cocycle and IM verdicts and the dual and self-bracket of a
derivation that one check computes serve the later checks of the run, and
are dropped when it ends.  Library calls outside a run verify in full.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import __version__
from .poly import Chart, GrowthLimitError, Poly, PolyError, parse_poly
from .forms import (Multivector, VForm, frolicher_nijenhuis,
                    nijenhuis_torsion)
from .gder import FramedBundle, GenDer, build_drT, build_drTstar
from .algebroid import (AlgebroidStructure, check_bialgebroid, check_im,
                        cotangent_of_poisson, tangent_algebroid)
from .pnlab import PNCandidate, check_pn, hierarchy, kosmann_equivalence, mm1_identity
from .lifts import linearize, verify_correspondence
from .lnb import (LNCandidate, base_pn, check_lnb, deform_hierarchy,
                  holomorphic_detect)
from .report import CheckReport, _verification_run

__all__ = ["Scene", "Report", "SceneError", "parse_scene", "run", "render"]


class SceneError(Exception):
    """Malformed scene input: syntax, unknown references, or bad shapes."""


@dataclass
class Scene:
    chart: Chart
    objects: dict[str, object]
    checks: list[tuple[str, Callable[[int], CheckReport]]]
    source: str


@dataclass
class Report:
    """Executed scene: one report per declared check, in order."""

    digest: str
    version: str
    items: list[tuple[str, CheckReport, float]] = field(default_factory=list)
    resource_errors: int = 0

    @property
    def passed(self) -> bool:
        return self.resource_errors == 0 and all(r.passed for _, r, _ in self.items)


def _need(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise SceneError(f"{where}: missing required key '{key}'")
    return mapping[key]


def _dict(value, key: str, where: str) -> dict:
    if not isinstance(value, dict):
        raise SceneError(f"{where}: '{key}' must be an object")
    return value


def _matrix(value, rows: int, cols: int, what: str, where: str) -> list:
    if (not isinstance(value, list) or len(value) != rows
            or any(not isinstance(row, list) or len(row) != cols for row in value)):
        raise SceneError(f"{where}: {what} must be {rows}x{cols}")
    return value


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _poly(chart: Chart, text, where: str) -> Poly:
    if not isinstance(text, str):
        raise SceneError(f"{where}: polynomial entries must be strings")
    try:
        return parse_poly(chart, text)
    except GrowthLimitError as e:  # a resource bound, not malformed input
        raise GrowthLimitError(f"{where}: {e}") from e
    except PolyError as e:
        raise SceneError(f"{where}: {e}") from e


def _coord_pair(chart: Chart, key: str, where: str) -> tuple[int, int]:
    parts = [p.strip() for p in key.split(",")]
    if len(parts) != 2:
        raise SceneError(f"{where}: index key '{key}' must name two coordinates")
    try:
        i, j = chart.index(parts[0]), chart.index(parts[1])
    except KeyError as e:
        raise SceneError(f"{where}: {e.args[0]}") from None
    if not i < j:
        raise SceneError(f"{where}: key '{key}' must be in chart order")
    return i, j


def _build_object(chart: Chart, name: str, spec: dict, env: dict) -> object:
    where = f"object '{name}'"
    if not isinstance(spec, dict):
        raise SceneError(f"{where}: must be an object")
    kind = _need(spec, "type", where)
    n = chart.dim
    if kind == "bivector":
        coeffs = {}
        for key, text in _dict(_need(spec, "coeffs", where), "coeffs", where).items():
            coeffs[_coord_pair(chart, key, where)] = _poly(chart, text, where)
        return Multivector(chart, 2, coeffs)
    if kind == "endomorphism":
        rows = _matrix(_need(spec, "matrix", where), n, n, "matrix", where)
        coeffs = {}
        for j, row in enumerate(rows):
            for i, text in enumerate(row):
                p = _poly(chart, text, where)
                if not p.is_zero:
                    coeffs[((i,), j)] = p
        return VForm(chart, 1, n, coeffs)
    if kind == "vector_field":
        comps = _need(spec, "components", where)
        if not isinstance(comps, list) or len(comps) != n:
            raise SceneError(f"{where}: need {n} components")
        return VForm.section(chart, [_poly(chart, t, where) for t in comps])
    if kind == "tangent_algebroid":
        return tangent_algebroid(chart)
    if kind == "cotangent_algebroid":
        pi = _resolve(env, _need(spec, "bivector", where), Multivector, where)
        return cotangent_of_poisson(pi)
    if kind == "algebroid":
        frame = _need(spec, "frame", where)
        if not isinstance(frame, list) or not all(isinstance(f, str) for f in frame):
            raise SceneError(f"{where}: 'frame' must be a list of section names")
        if len(set(frame)) != len(frame):
            raise SceneError(f"{where}: 'frame' names a section twice")
        for f in frame:
            # bracket keys are split at ',' and stripped: such a name has no key
            if "," in f or f != f.strip():
                raise SceneError(f"{where}: frame section name {f!r} cannot be "
                                 "named by a bracket key")
        frame = tuple(frame)
        bundle = FramedBundle(chart, frame)
        rows = _matrix(_need(spec, "anchor", where), len(frame), n, "anchor", where)
        anchor = [[_poly(chart, t, where) for t in row] for row in rows]
        structure = {}
        for key, comps in _dict(spec.get("brackets", {}), "brackets", where).items():
            parts = [p.strip() for p in key.split(",")]
            if len(parts) != 2 or any(p not in frame for p in parts):
                raise SceneError(f"{where}: bracket key '{key}' must name two frame sections")
            a, b = frame.index(parts[0]), frame.index(parts[1])
            if not a < b:
                raise SceneError(f"{where}: bracket key '{key}' must be in frame order")
            if not isinstance(comps, list) or len(comps) != len(frame):
                raise SceneError(f"{where}: bracket '{key}' needs {len(frame)} components")
            structure[(a, b)] = [_poly(chart, t, where) for t in comps]
        return AlgebroidStructure(bundle, anchor, structure)
    if kind in ("gder_tangent", "gder_cotangent"):
        r = _resolve(env, _need(spec, "endomorphism", where), VForm, where)
        return build_drT(r) if kind == "gder_tangent" else build_drTstar(r)
    raise SceneError(f"{where}: unknown type '{kind}'")


def _resolve(env: dict, name, expected, where: str):
    if not isinstance(name, str):
        raise SceneError(f"{where}: object references must be names")
    if name not in env:
        raise SceneError(f"{where}: reference to undefined object '{name}'")
    obj = env[name]
    if not isinstance(obj, expected):
        raise SceneError(f"{where}: object '{name}' has the wrong type "
                         f"(expected {expected.__name__})")
    return obj


def parse_scene(text: str) -> Scene:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise SceneError(f"syntax error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except RecursionError:  # the decoder recurses once per nested array or object
        raise SceneError("JSON nests too deep to read") from None
    if not isinstance(data, dict):
        raise SceneError("scene must be a JSON object")
    coords = _need(data, "chart", "scene")
    if (not isinstance(coords, list) or not coords
            or not all(isinstance(c, str) for c in coords)):
        raise SceneError("scene: 'chart' must be a non-empty list of coordinate names")
    for c in coords:
        # the names polynomial entries can read: [A-Za-z_][A-Za-z0-9_]*
        if not (c.isascii() and c.isidentifier()):
            raise SceneError(f"scene: coordinate name {c!r} is not a polynomial variable")
    try:
        chart = Chart(tuple(coords))
    except ValueError as e:
        raise SceneError(f"scene: {e}") from None
    env: dict[str, object] = {}
    for name, spec in _dict(data.get("objects", {}), "objects", "scene").items():
        env[name] = _build_object(chart, name, spec, env)
    checks = data.get("checks", [])
    if not isinstance(checks, list):
        raise SceneError("scene: 'checks' must be a list")
    bound = []
    for pos, ck in enumerate(checks):
        where = f"check #{pos + 1}"
        if not isinstance(ck, dict) or "check" not in ck:
            raise SceneError(f"{where}: must be an object with a 'check' key")
        try:
            bound.append((ck["check"], _bind_check(ck, env, where)))
        except PolyError as e:  # a candidate's shape precondition
            raise SceneError(f"{where}: {e}") from e
    return Scene(chart, env, bound, text)


def _random_linear(rng: random.Random, chart: Chart) -> Poly:
    terms = {(0,) * chart.dim: Fraction(rng.randint(-2, 2))}
    for i in range(chart.dim):
        exp = tuple(1 if j == i else 0 for j in range(chart.dim))
        terms[exp] = Fraction(rng.randint(-2, 2))
    return Poly(chart, terms)


def _run_mm1_random(dims: list[int], count: int, seed: int) -> CheckReport:
    rng = random.Random(seed)
    report = CheckReport("randomized concomitant derivation identity")
    for dim in dims:
        chart = Chart(tuple(f"x{i + 1}" for i in range(dim)))
        for trial in range(count):
            pi = Multivector(chart, 2, {(i, j): _random_linear(rng, chart)
                                        for i in range(dim)
                                        for j in range(i + 1, dim)})
            r = VForm(chart, 1, dim, {((i,), j): _random_linear(rng, chart)
                                      for i in range(dim) for j in range(dim)})
            X = VForm.section(chart, [_random_linear(rng, chart) for _ in range(dim)])
            sub = mm1_identity(PNCandidate(pi, r), X)
            report.add(f"dim {dim} trial {trial + 1}", sub.passed,
                       detail="" if sub.passed else f"{len(sub.failures())} components")
    return report


def _run_torsion(r: VForm) -> CheckReport:
    torsion = nijenhuis_torsion(r)
    report = CheckReport("Nijenhuis torsion")
    report.add_zero("torsion of the endomorphism", torsion)
    half = frolicher_nijenhuis(r, r) * Fraction(1, 2)
    report.add_zero("torsion equals half the self-bracket", torsion - half)
    return report


def _bind_check(ck: dict, env: dict, where: str) -> Callable[[int], CheckReport]:
    """Resolve a check's references and numeric keys and build its
    candidate once; return its runner, which takes the run's seed.

    Runners call the checkers through this module's globals, looked up when
    they run, so that a rebinding of a checker (a tracer's, say) applies."""
    for key in ("depth", "count", "seed"):
        if key in ck and not _is_int(ck[key]):
            raise SceneError(f"{where}: '{key}' must be an integer")
    dims = ck.get("dims", [2, 3])
    if not isinstance(dims, list) or not all(map(_is_int, dims)):
        raise SceneError(f"{where}: 'dims' must be a list of integers")

    def ref(key: str, expected: type):
        return _resolve(env, _need(ck, key, where), expected, where)

    def bounded(key: str, default: int, low: int, high: int) -> int:
        value = ck.get(key, default)
        if value < low:
            raise SceneError(f"{where}: '{key}' must be at least {low}")
        if value > high:
            raise SceneError(f"{where}: '{key}' must be at most {high}")
        return value

    def pn() -> PNCandidate:
        return PNCandidate(ref("bivector", Multivector), ref("endomorphism", VForm))

    def ln() -> LNCandidate:
        return LNCandidate(ref("base", AlgebroidStructure),
                           ref("dual", AlgebroidStructure), ref("gder", GenDer))

    kind = ck["check"]
    if kind == "algebroid":
        A = ref("target", AlgebroidStructure)
        return lambda seed: A.validate()
    if kind == "bialgebroid":
        A, Astar = ref("base", AlgebroidStructure), ref("dual", AlgebroidStructure)
        if A.bundle.dual() != Astar.bundle:
            raise SceneError(f"{where}: frame ({', '.join(A.bundle.frame)}) of "
                             f"'{ck['base']}' is not dual to frame "
                             f"({', '.join(Astar.bundle.frame)}) of '{ck['dual']}'")
        return lambda seed: check_bialgebroid(A, Astar)
    if kind == "im":
        A, D = ref("algebroid", AlgebroidStructure), ref("gder", GenDer)
        return lambda seed: check_im(A, D)
    if kind == "pn":
        c = pn()
        return lambda seed: check_pn(c)
    if kind == "kosmann":
        c = pn()
        return lambda seed: kosmann_equivalence(c)
    if kind == "mm1":
        c, X = pn(), ref("field", VForm)
        if X.degree != 0:
            raise SceneError(f"{where}: 'field' must name a vector field")
        return lambda seed: mm1_identity(c, X)
    if kind == "mm1_random":
        count = bounded("count", 5, 1, 50)
        if not dims or min(dims) < 1:
            raise SceneError(f"{where}: 'dims' must list dimensions of at least 1")
        if len(dims) > 5 or max(dims) > 6:
            raise SceneError(f"{where}: 'dims' must list at most 5 dimensions of at most 6")
        return lambda seed: _run_mm1_random(dims, count, ck.get("seed", seed))
    if kind == "hierarchy":
        depth = bounded("depth", 2, 0, 16)
        c = pn()
        return lambda seed: hierarchy(c, depth)[1]
    if kind == "lnb":
        c = ln()
        return lambda seed: check_lnb(c)
    if kind == "base_pn":
        c = ln()
        return lambda seed: base_pn(c)[1]
    if kind == "deform_hierarchy":
        depth = bounded("depth", 1, 1, 16)
        c = ln()
        return lambda seed: deform_hierarchy(c, depth)[1]
    if kind == "holomorphic":
        c = ln()
        return lambda seed: holomorphic_detect(c)
    if kind == "torsion":
        r = ref("endomorphism", VForm)
        if r.degree != 1:
            raise SceneError(f"{where}: 'endomorphism' must name an endomorphism")
        return lambda seed: _run_torsion(r)
    if kind == "correspondence":
        D = ref("gder", GenDer)
        return lambda seed: verify_correspondence(linearize(D), D)
    raise SceneError(f"{where}: unknown check '{kind}'")


def run(scene: Scene, seed: int = 0) -> Report:
    digest = hashlib.sha256(scene.source.encode()).hexdigest()[:16]
    report = Report(digest, __version__)
    with _verification_run():
        for pos, (name, runner) in enumerate(scene.checks):
            label = f"{pos + 1}:{name}"
            start = time.monotonic()
            try:
                sub = runner(seed)
            except GrowthLimitError as e:
                sub = CheckReport(name)
                sub.add("resource bound", False, detail=str(e))
                report.resource_errors += 1
            except PolyError as e:
                sub = CheckReport(name)
                sub.add("precondition", False, detail=str(e))
            report.items.append((label, sub, time.monotonic() - start))
    return report


def render(report: Report, fmt: str = "text") -> str:
    if fmt not in ("text", "table"):
        raise SceneError(f"unknown format '{fmt}'")
    lines = [f"lnlab {report.version}  scene {report.digest}",
             f"overall: {'PASS' if report.passed else 'FAIL'}"]
    for label, sub, elapsed in report.items:
        lines.append("")
        if fmt == "text":
            lines.append(f"-- {label} ({elapsed:.2f}s)")
            lines.append(sub.render_text())
        else:
            lines.append(f"-- {label}")
            lines.append(sub.render_table())
    return "\n".join(lines) + "\n"

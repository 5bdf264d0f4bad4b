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
    algebroid           frame: [names], anchor: [[poly, ...], ...],
                        brackets: {"e1,e2": [poly, ...], ...}
    gder_tangent        endomorphism: <name>   (the derivation it induces on
                        the tangent frame)
    gder_cotangent      endomorphism: <name>   (likewise on the coframe)

Check names: algebroid, bialgebroid, im, pn, kosmann, mm1, mm1_random,
hierarchy, lnb, base_pn, deform_hierarchy, holomorphic, torsion,
correspondence.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from .poly import Chart, GrowthLimitError, Poly, PolyError, parse_poly
from .forms import (Multivector, VForm, frolicher_nijenhuis,
                    nijenhuis_torsion)
from .gder import GenDer, build_drT, build_drTstar
from .algebroid import (AlgebroidStructure, check_bialgebroid, check_im,
                        cotangent_of_poisson, tangent_algebroid)
from .pnlab import PNCandidate, check_pn, hierarchy, kosmann_equivalence, mm1_identity
from .lifts import linearize, verify_correspondence
from .lnb import (LNCandidate, base_pn, check_lnb, deform_hierarchy,
                  holomorphic_detect)
from .report import CheckReport

__all__ = ["Scene", "Report", "SceneError", "parse_scene", "run", "render"]


class SceneError(Exception):
    """Malformed scene input: syntax, unknown references, or bad shapes."""


@dataclass
class Scene:
    chart: Chart
    objects: dict[str, object]
    checks: list[dict]
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
        frame = tuple(frame)
        from .gder import FramedBundle
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
    if kind == "gder_tangent":
        r = _resolve(env, _need(spec, "endomorphism", where), VForm, where)
        return build_drT(r)
    if kind == "gder_cotangent":
        r = _resolve(env, _need(spec, "endomorphism", where), VForm, where)
        return build_drTstar(r)
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
    if not isinstance(data, dict):
        raise SceneError("scene must be a JSON object")
    coords = _need(data, "chart", "scene")
    if (not isinstance(coords, list) or not coords
            or not all(isinstance(c, str) for c in coords)):
        raise SceneError("scene: 'chart' must be a non-empty list of coordinate names")
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
    for pos, ck in enumerate(checks):
        if not isinstance(ck, dict) or "check" not in ck:
            raise SceneError(f"check #{pos + 1}: must be an object with a 'check' key")
        _validate_check(chart, ck, env, f"check #{pos + 1}")
    return Scene(chart, env, checks, text)


def _pn_candidate(chart: Chart, ck: dict, env: dict, where: str) -> PNCandidate:
    pi = _resolve(env, _need(ck, "bivector", where), Multivector, where)
    r = _resolve(env, _need(ck, "endomorphism", where), VForm, where)
    try:
        return PNCandidate(pi, r)
    except PolyError as e:
        raise SceneError(f"{where}: {e}") from e


def _ln_candidate(ck: dict, env: dict, where: str) -> LNCandidate:
    A = _resolve(env, _need(ck, "base", where), AlgebroidStructure, where)
    Astar = _resolve(env, _need(ck, "dual", where), AlgebroidStructure, where)
    D = _resolve(env, _need(ck, "gder", where), GenDer, where)
    try:
        return LNCandidate(A, Astar, D)
    except PolyError as e:
        raise SceneError(f"{where}: {e}") from e


def _random_linear(rng: random.Random, chart: Chart) -> Poly:
    terms = {(0,) * chart.dim: Fraction(rng.randint(-2, 2))}
    for i in range(chart.dim):
        exp = tuple(1 if j == i else 0 for j in range(chart.dim))
        terms[exp] = Fraction(rng.randint(-2, 2))
    return Poly(chart, terms)


def _run_mm1_random(ck: dict, seed: int) -> CheckReport:
    dims = ck.get("dims", [2, 3])
    count = ck.get("count", 5)
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


_CHECKS = ("algebroid", "bialgebroid", "im", "pn", "kosmann", "mm1",
           "mm1_random", "hierarchy", "lnb", "base_pn", "deform_hierarchy",
           "holomorphic", "torsion", "correspondence")


def _validate_check(chart: Chart, ck: dict, env: dict, where: str) -> None:
    kind = ck["check"]
    if kind not in _CHECKS:
        raise SceneError(f"{where}: unknown check '{kind}'")
    for key in ("depth", "count", "seed"):
        if key in ck and not _is_int(ck[key]):
            raise SceneError(f"{where}: '{key}' must be an integer")
    dims = ck.get("dims", [])
    if not isinstance(dims, list) or not all(map(_is_int, dims)):
        raise SceneError(f"{where}: 'dims' must be a list of integers")
    if kind == "algebroid":
        _resolve(env, _need(ck, "target", where), AlgebroidStructure, where)
    elif kind == "bialgebroid":
        _resolve(env, _need(ck, "base", where), AlgebroidStructure, where)
        _resolve(env, _need(ck, "dual", where), AlgebroidStructure, where)
    elif kind == "im":
        _resolve(env, _need(ck, "algebroid", where), AlgebroidStructure, where)
        _resolve(env, _need(ck, "gder", where), GenDer, where)
    elif kind in ("pn", "kosmann", "hierarchy"):
        _pn_candidate(chart, ck, env, where)
    elif kind == "mm1":
        _pn_candidate(chart, ck, env, where)
        _resolve(env, _need(ck, "field", where), VForm, where)
    elif kind in ("lnb", "base_pn", "deform_hierarchy", "holomorphic"):
        _ln_candidate(ck, env, where)
    elif kind == "torsion":
        _resolve(env, _need(ck, "endomorphism", where), VForm, where)
    elif kind == "correspondence":
        _resolve(env, _need(ck, "gder", where), GenDer, where)


def _run_check(chart: Chart, ck: dict, env: dict, seed: int) -> CheckReport:
    kind = ck["check"]
    where = f"check '{kind}'"
    if kind == "algebroid":
        return _resolve(env, ck["target"], AlgebroidStructure, where).validate()
    if kind == "bialgebroid":
        return check_bialgebroid(_resolve(env, ck["base"], AlgebroidStructure, where),
                                 _resolve(env, ck["dual"], AlgebroidStructure, where))
    if kind == "im":
        return check_im(_resolve(env, ck["algebroid"], AlgebroidStructure, where),
                        _resolve(env, ck["gder"], GenDer, where))
    if kind == "pn":
        return check_pn(_pn_candidate(chart, ck, env, where))
    if kind == "kosmann":
        return kosmann_equivalence(_pn_candidate(chart, ck, env, where))
    if kind == "mm1":
        return mm1_identity(_pn_candidate(chart, ck, env, where),
                            _resolve(env, ck["field"], VForm, where))
    if kind == "mm1_random":
        return _run_mm1_random(ck, ck.get("seed", seed))
    if kind == "hierarchy":
        _, report = hierarchy(_pn_candidate(chart, ck, env, where),
                              ck.get("depth", 2))
        return report
    if kind == "lnb":
        return check_lnb(_ln_candidate(ck, env, where))
    if kind == "base_pn":
        _, report = base_pn(_ln_candidate(ck, env, where))
        return report
    if kind == "deform_hierarchy":
        _, report = deform_hierarchy(_ln_candidate(ck, env, where),
                                     ck.get("depth", 1))
        return report
    if kind == "holomorphic":
        return holomorphic_detect(_ln_candidate(ck, env, where))
    if kind == "torsion":
        r = _resolve(env, ck["endomorphism"], VForm, where)
        report = CheckReport("Nijenhuis torsion")
        report.add_zero("torsion of the endomorphism", nijenhuis_torsion(r))
        half = frolicher_nijenhuis(r, r) * Fraction(1, 2)
        report.add_zero("torsion equals half the self-bracket",
                        nijenhuis_torsion(r) - half)
        return report
    if kind == "correspondence":
        D = _resolve(env, ck["gder"], GenDer, where)
        return verify_correspondence(linearize(D), D)
    raise SceneError(f"unknown check '{kind}'")


def run(scene: Scene, seed: int = 0) -> Report:
    digest = hashlib.sha256(scene.source.encode()).hexdigest()[:16]
    report = Report(digest, __version__)
    for pos, ck in enumerate(scene.checks):
        label = f"{pos + 1}:{ck['check']}"
        start = time.monotonic()
        try:
            sub = _run_check(scene.chart, ck, scene.objects, seed)
        except GrowthLimitError as e:
            sub = CheckReport(ck["check"])
            sub.add("resource bound", False, detail=str(e))
            report.resource_errors += 1
        except PolyError as e:
            sub = CheckReport(ck["check"])
            sub.add("precondition", False, detail=str(e))
        report.items.append((label, sub, time.monotonic() - start))
    return report


def render(report: Report, fmt: str = "text") -> str:
    if fmt not in ("text", "table"):
        raise SceneError(f"unknown format '{fmt}'")
    head = [f"lnlab {report.version}  scene {report.digest}",
            f"overall: {'PASS' if report.passed else 'FAIL'}"]
    lines = list(head)
    for label, sub, elapsed in report.items:
        lines.append("")
        if fmt == "text":
            lines.append(f"-- {label} ({elapsed:.2f}s)")
            lines.append(sub.render_text())
        else:
            lines.append(f"-- {label}")
            lines.append(sub.render_table())
    return "\n".join(lines) + "\n"

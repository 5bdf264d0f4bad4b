"""Scene parsing, report rendering, the shipped catalog, and the exit-status
contract of the command line."""

import argparse
import contextlib
import io
import json
import pathlib
import re
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import decimal, shift_lie_frames
from lnlab import algebroid, lnb, report
from lnlab import scene as scene_module
from lnlab.poly import Chart, Poly, get_degree_limit, set_degree_limit
from lnlab.forms import DiffForm, Multivector, VForm
from lnlab.gder import FramedBundle
from lnlab.algebroid import AlgebroidStructure, check_bialgebroid, deform_algebroid
from lnlab.lnb import LNCandidate, check_lnb
from lnlab.matrix import transpose
from lnlab.catalog import example_names, example_source
from lnlab.cli import main
from lnlab.pnlab import concomitant_C
from lnlab.report import CheckItem
from lnlab.scene import SceneError, parse_scene, render, run

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "bench" / "goldens"

PN_SCENE = """{
  "chart": ["x", "y"],
  "objects": {
    "pi0": {"type": "bivector", "coeffs": {"x,y": "1"}},
    "rx":  {"type": "endomorphism", "matrix": [["x", "0"], ["0", "x"]]}
  },
  "checks": [
    {"check": "pn", "bivector": "pi0", "endomorphism": "rx"}
  ]
}
"""

LN_OBJECTS = {
    "A": {"type": "tangent_algebroid"},
    "Astar": {"type": "cotangent_algebroid", "bivector": "pi0"},
    "D": {"type": "gder_tangent", "endomorphism": "rx"},
}

VECTOR_FIELD = {"type": "vector_field", "components": ["y", "x"]}

# J @x = x @x + @y, J @y = -(1 + x^2) @x - x @y: a complex structure on R^2
# that is not constant, so its derivation D^J is not zero
JX_SCENE = {
    "chart": ["x", "y"],
    "objects": {
        "zero": {"type": "bivector", "coeffs": {}},
        "J": {"type": "endomorphism", "matrix": [["x", "-(1 + x^2)"], ["1", "-x"]]},
        "A": {"type": "tangent_algebroid"},
        "Astar": {"type": "cotangent_algebroid", "bivector": "zero"},
        "D": {"type": "gder_tangent", "endomorphism": "J"},
    },
    "checks": [
        {"check": "lnb", "base": "A", "dual": "Astar", "gder": "D"},
        {"check": "holomorphic", "base": "A", "dual": "Astar", "gder": "D"},
    ],
}
ANTICOMMUTES = "derivation anticommutes with the symbol"

# Scenes that fail (exit 1) or that the command line refuses (exit 2 or 3);
# the reachability lint of test_reachability.py runs them too.
FAILING_PN_SCENE = PN_SCENE.replace('[["x", "0"], ["0", "x"]]', '[["0", "-1"], ["1", "0"]]')
# [pi, pi] != 0 for pi = z @x^@y + xy @y^@z
NON_POISSON_KOSMANN = {
    "chart": ["x", "y", "z"],
    "objects": {"pi": {"type": "bivector", "coeffs": {"x,y": "z", "y,z": "x*y"}},
                "r": {"type": "endomorphism",
                      "matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}},
    "checks": [{"check": "kosmann", "bivector": "pi", "endomorphism": "r"}]}
# J @x = x @x + @y, J @y = (1 - x^2) @x - x @y squares to +id
PRODUCT_JX_SCENE = {**JX_SCENE, "objects": {
    **JX_SCENE["objects"], "J": {"type": "endomorphism", "matrix": [["x", "1 - x^2"], ["1", "-x"]]}}}
NOT_DUAL_FRAMES = (example_source("bialgebra-aff2")
                   .replace('"e1*", "e2*"', '"f1", "f2"').replace("e1*,e2*", "f1,f2"))
# the pn check on the same bivector fails [pi, pi] = 0
NON_POISSON_PN = {**NON_POISSON_KOSMANN,
                  "checks": [{"check": "pn", "bivector": "pi", "endomorphism": "r"}]}
# acceptance criterion 7 on R^2: the rank-3 Heisenberg algebra [e1, e2] = e3
# with [e1*, e2*] = e1* fails the cocycle condition on (e1, e2)
HEISENBERG_COCYCLE = {
    "chart": ["x", "y"],
    "objects": {"h": {"type": "algebroid", "frame": ["e1", "e2", "e3"],
                      "anchor": [["0", "0"]] * 3, "brackets": {"e1,e2": ["0", "0", "1"]}},
                "hdual": {"type": "algebroid", "frame": ["e1*", "e2*", "e3*"],
                          "anchor": [["0", "0"]] * 3, "brackets": {"e1*,e2*": ["1", "0", "0"]}}},
    "checks": [{"check": "bialgebroid", "base": "h", "dual": "hdual"}]}
# rho(e1) = @x and rho(e2) = @y, but [e1, e2] = e1 while [@x, @y] = 0
NOT_AN_ALGEBROID = {
    "chart": ["x", "y"],
    "objects": {"a": {"type": "algebroid", "frame": ["e1", "e2"],
                      "anchor": [["1", "0"], ["0", "1"]], "brackets": {"e1,e2": ["1", "0"]}},
                "adual": {"type": "algebroid", "frame": ["e1*", "e2*"],
                          "anchor": [["0", "0"], ["0", "0"]], "brackets": {}}},
    "checks": [{"check": "algebroid", "target": "a"},
               {"check": "bialgebroid", "base": "a", "dual": "adual"}]}
# [pi, pi] has degree 3, past a limit of 2, while the object is built
GROWTH_WHILE_BUILDING = {
    "chart": ["x", "y", "z"],
    "objects": {"pi": {"type": "bivector", "coeffs": {"x,y": "x^2", "y,z": "y^2"}},
                "Astar": {"type": "cotangent_algebroid", "bivector": "pi"}},
    "checks": []}

# edits of PN_SCENE that the command line refuses with exit 2, by id: an
# edit changes the scene in place, or returns the file's text
MALFORMED_EDITS = {
    "unknown-coordinate":
        lambda s: s["objects"]["pi0"].update(coeffs={"x,z": "1"}),
    "objects-list":
        lambda s: s.update(objects=[]),
    "coeffs-list":
        lambda s: s["objects"]["pi0"].update(coeffs=["1"]),
    "brackets-list":
        lambda s: s["objects"].update(A={"type": "algebroid", "frame": ["e"],
                                         "anchor": [["1", "0"]], "brackets": []}),
    "frame-string":
        lambda s: s["objects"].update(A={"type": "algebroid", "frame": "ef",
                                         "anchor": [["1", "0"], ["0", "1"]]}),
    "depth-string":
        lambda s: s["checks"].append({"check": "hierarchy", "bivector": "pi0",
                                      "endomorphism": "rx", "depth": "2"}),
    "dims-string":
        lambda s: s["checks"].append({"check": "mm1_random", "dims": "23"}),
    "count-string":
        lambda s: s["checks"].append({"check": "mm1_random", "count": "5"}),
    "seed-list":
        lambda s: s["checks"].append({"check": "mm1_random", "seed": [7]}),
    "duplicate-coordinate":
        lambda s: s.update(chart=["x", "x"]),
    "matrix-number":
        lambda s: s["objects"]["rx"].update(matrix=7),
    "zero-denominator":
        lambda s: s["objects"]["pi0"].update(coeffs={"x,y": "1/0"}),
    "dims-negative":
        lambda s: s["checks"].append({"check": "mm1_random", "dims": [-1]}),
    "dims-zero":
        lambda s: s["checks"].append({"check": "mm1_random", "dims": [2, 0]}),
    "dims-empty":
        lambda s: s["checks"].append({"check": "mm1_random", "dims": []}),
    "count-zero":
        lambda s: s["checks"].append({"check": "mm1_random", "count": 0}),
    "hierarchy-depth-negative":
        lambda s: s["checks"].append({"check": "hierarchy", "bivector": "pi0",
                                      "endomorphism": "rx", "depth": -3}),
    "deform-depth-zero":
        lambda s: s.update(objects={**s["objects"], **LN_OBJECTS},
                           checks=[{"check": "deform_hierarchy", "base": "A",
                                    "dual": "Astar", "gder": "D", "depth": 0}]),
    "dims-over-bound":
        lambda s: s["checks"].append({"check": "mm1_random", "dims": [2, 7]}),
    "dims-too-many":
        lambda s: s["checks"].append({"check": "mm1_random", "dims": [2] * 6}),
    "count-over-bound":
        lambda s: s["checks"].append({"check": "mm1_random", "count": 51}),
    "hierarchy-depth-over-bound":
        lambda s: s["checks"].append({"check": "hierarchy", "bivector": "pi0",
                                      "endomorphism": "rx", "depth": 17}),
    "deform-depth-over-bound":
        lambda s: s.update(objects={**s["objects"], **LN_OBJECTS},
                           checks=[{"check": "deform_hierarchy", "base": "A",
                                    "dual": "Astar", "gder": "D", "depth": 17}]),
    "field-not-a-vector-field":
        lambda s: s["checks"].append({"check": "mm1", "bivector": "pi0",
                                      "endomorphism": "rx", "field": "rx"}),
    "torsion-of-a-vector-field":
        lambda s: s.update(objects={**s["objects"], "X": VECTOR_FIELD},
                           checks=[{"check": "torsion", "endomorphism": "X"}]),
    "literal-past-digit-limit":
        lambda s: s["objects"]["pi0"].update(coeffs={"x,y": "1" * 5000}),
    "frame-repeated-name":
        lambda s: s["objects"].update(A={"type": "algebroid", "frame": ["e", "e"],
                                         "anchor": [["1", "0"], ["0", "1"]]}),
    "chart-name-number":
        lambda s: s.update(chart=["x", "1"], objects={}, checks=[]),
    "chart-name-expression":
        lambda s: s.update(chart=["x", "x+y"], objects={}, checks=[]),
    "chart-name-trailing-space":
        lambda s: s.update(chart=["x", "y "], objects={}, checks=[]),
    "json-nested-100000":
        lambda s: "[" * 100_000,
    "poly-parentheses-5000":
        lambda s: s["objects"]["pi0"].update(coeffs={"x,y": "(" * 5000 + "x" + ")" * 5000}),
    "poly-unary-minus-5000":
        lambda s: s["objects"]["pi0"].update(coeffs={"x,y": "-" * 5000 + "x"}),
}

# matrix entries past a growth bound: a constant power, a product of 64
# constants, and a monomial past the default degree limit
GROWING_ENTRIES = ("(2^65535)^65535*y", "*".join(["2^65535"] * 64), "x^65")


def torsion_scene(matrix: list[list[str]]) -> str:
    """A scene whose one check is the torsion of the endomorphism on R^2
    with these rows."""
    return json.dumps({"chart": ["x", "y"],
                       "objects": {"r": {"type": "endomorphism", "matrix": matrix}},
                       "checks": [{"check": "torsion", "endomorphism": "r"}]})


@pytest.fixture
def scene_file(tmp_path):
    def write(content: str, name: str = "scene.json"):
        path = tmp_path / name
        path.write_text(content)
        return str(path)
    return write


class TestParsing:
    def test_minimal_scene(self):
        scene = parse_scene(PN_SCENE)
        assert scene.chart.coords == ("x", "y")
        assert set(scene.objects) == {"pi0", "rx"}
        assert len(scene.checks) == 1

    def test_syntax_error_carries_position(self):
        with pytest.raises(SceneError, match=r"line \d+, column \d+"):
            parse_scene('{"chart": ["x"],}')

    def test_dangling_reference(self):
        bad = PN_SCENE.replace('"bivector": "pi0"', '"bivector": "pi9"')
        with pytest.raises(SceneError, match="undefined object 'pi9'"):
            parse_scene(bad)

    def test_unknown_check(self):
        bad = PN_SCENE.replace('"check": "pn"', '"check": "frobnicate"')
        with pytest.raises(SceneError, match="unknown check"):
            parse_scene(bad)

    def test_bivector_keys_must_be_ordered(self):
        bad = PN_SCENE.replace('"x,y"', '"y,x"')
        with pytest.raises(SceneError, match="chart order"):
            parse_scene(bad)

    def test_wrong_reference_type(self):
        bad = PN_SCENE.replace('"bivector": "pi0"', '"bivector": "rx"')
        with pytest.raises(SceneError, match="wrong type"):
            parse_scene(bad)

    def test_documented_check_names(self):
        """The README and the module docstring list the same checks, each of
        them is a check parse_scene knows, and an unlisted name is not."""
        doc = scene_module.__doc__.split("Checks and the keys each reads")[1]
        doc_names = re.findall(r"^    (\w+) ", doc, re.M)
        readme = (ROOT / "README.md").read_text()
        section = readme.split("## Scene files")[1].split("\n## ")[0]
        assert re.findall(r"^- `(\w+)`:", section, re.M) == doc_names
        assert len(doc_names) == len(set(doc_names)) > 0
        for name in doc_names + ["nijenhuis"]:
            text = json.dumps({"chart": ["x"], "checks": [{"check": name}]})
            try:
                parse_scene(text)
            except SceneError as e:
                expected = "unknown check" if name == "nijenhuis" else "missing required key"
                assert expected in str(e), name
            else:
                assert name == "mm1_random"


class TestRunAndRender:
    def test_report_digest_is_stable(self):
        scene = parse_scene(PN_SCENE)
        assert run(scene).digest == run(scene).digest

    def test_table_render_is_deterministic(self):
        scene = parse_scene(PN_SCENE)
        a = render(run(scene), "table")
        b = render(run(scene), "table")
        assert a == b

    def test_text_render_mentions_every_check(self):
        scene = parse_scene(example_source("pn-xid"))
        out = render(run(scene), "text")
        for label in ("1:pn", "2:kosmann", "3:torsion"):
            assert label in out

    def test_unknown_format(self):
        scene = parse_scene(PN_SCENE)
        with pytest.raises(SceneError):
            render(run(scene), "yaml")

    def test_defect_rendering_per_container(self):
        """Failing items print their defect through CheckItem.line()."""
        ch = Chart(("x", "y"))
        zero, one = Poly.zero(ch), Poly.const(ch, 1)
        x, y = Poly.var(ch, "x"), Poly.var(ch, "y")
        E = FramedBundle(ch, ("e1", "e2", "e3"))
        zrow = [[zero, zero]] * 3
        A = AlgebroidStructure(E, zrow, {(0, 1): [zero, zero, one]})
        pert = AlgebroidStructure(E.dual(), zrow, {(0, 1): [one, zero, zero]})
        first = check_bialgebroid(A, pert).failures()[0]
        assert first.line() == ("[FAIL] cocycle condition  ((e1,e2))\n"
                                "       defect: (-1) e2^e3")
        w = DiffForm(ch, 1, {(0,): x * y, (1,): one * -2})
        assert str(w) == "(x*y) dx + (-2) dy"
        assert str(DiffForm(ch, 0, {(): x + 1})) == "(x + 1) 1"
        assert str(Multivector(ch, 2, {(0, 1): x - y})) == "(x - y) @x^@y"
        V = VForm(ch, 0, 2, {((), 0): x, ((), 1): one * 3})
        assert V.render(["e1", "e2"]) == "(x) e1 + (3) e2"
        K = VForm(ch, 1, 2, {((0,), 1): y, ((1,), 0): one})
        assert K.render(["@x", "@y"]) == "(y) dx (x) @y + (1) dy (x) @x"
        assert repr(V) == "VForm(deg=0, vals=2, 2 terms)"
        assert CheckItem("law", False, V).line() == (
            "[FAIL] law\n       defect: (x) @x + (3) @y")
        assert CheckItem("law", False, w).line() == (
            "[FAIL] law\n       defect: (x*y) dx + (-2) dy")


class TestCatalog:
    def test_catalog_size(self):
        assert len(example_names()) >= 8

    def test_all_examples_parse(self):
        for name in example_names():
            scene = parse_scene(example_source(name))
            assert scene.checks

    def test_expected_verdicts(self, capsys):
        for name in example_names():
            code = main(["examples", "run", name, "--format", "table"])
            capsys.readouterr()
            assert code == (1 if name == "pn-J2" else 0), name

    @pytest.mark.parametrize("name", example_names())
    def test_table_output_matches_golden(self, name, capsys):
        """The bytes the benchmark checks, recorded in bench/goldens/."""
        code = main(["examples", "run", name, "--format", "table"])
        assert code == (1 if name == "pn-J2" else 0)
        assert capsys.readouterr().out == (GOLDENS / f"{name}.txt").read_text()

    def test_differentiates_no_constant(self, monkeypatch, capsys):
        """Every partial goes through ``Poly.grad``, which gives a constant
        zero partials with no ``Poly.diff`` call."""
        calls, constants, diff = [], [], Poly.diff

        def counted(p, i):
            calls.append(i)
            if not p.total_degree():
                constants.append(p)
            return diff(p, i)
        monkeypatch.setattr(Poly, "diff", counted)
        for name in example_names():
            main(["examples", "run", name, "--format", "table"])
        capsys.readouterr()
        assert calls and constants == []

    def test_mm1_random_failure_counts_the_failing_coframe_pairs(self, monkeypatch, capsys):
        """With [X, r] shifted by the constant dx_n (x) @x_n, each trial of
        ``mm1_random`` fails on the coframe pairs where C(pi, shift) != 0
        (the oracle of ``TestMM1Failures`` in test_pnlab.py), and its detail
        reads "N of M coframe pairs"."""
        def shift(chart):
            n = chart.dim
            return VForm(chart, 1, n, {((n - 1,), n - 1): Poly.const(chart, 1)})
        mm1 = scene_module.mm1_identity
        entered = shift_lie_frames(monkeypatch, shift)
        trials = []
        monkeypatch.setattr(scene_module, "mm1_identity",
                            lambda c, X: trials.append(c) or mm1(c, X))
        assert main(["examples", "run", "mm1-random", "--format", "table"]) == 1
        out = capsys.readouterr().out.splitlines()
        rows = out[out.index("-- 2:mm1_random") + 4:]
        want = []
        for c, label in zip(trials[1:], [f"dim {d} trial {t}" for d in (2, 3) for t in (1, 2, 3)]):
            ch = c.chart
            pairs = [(a, b) for a in range(ch.dim) for b in range(a + 1, ch.dim)]
            bad = sum(not concomitant_C(c.pi, shift(ch), DiffForm.basis(ch, (a,)),
                                        DiffForm.basis(ch, (b,))).is_zero for a, b in pairs)
            want.append(f"{label} | FAIL   | {bad} of {len(pairs)} coframe pairs" if bad
                        else f"{label} | pass   | ")
        assert len(trials) == 7 and rows == want
        assert entered == [c.chart for c in trials]
        assert "dim 3 trial 1 | FAIL   | 2 of 3 coframe pairs" in rows

    def test_show_is_verbatim(self, capsys):
        main(["examples", "show", "pn-xid"])
        assert capsys.readouterr().out == example_source("pn-xid")

    def test_list_prints_names(self, capsys):
        assert main(["examples", "list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == sorted(example_names())

    def test_unknown_example(self, capsys):
        assert main(["examples", "run", "nope"]) == 2


class TestCheckCommand:
    def test_pass_and_report_file(self, scene_file, tmp_path, capsys):
        report_path = tmp_path / "out.txt"
        code = main(["check", scene_file(PN_SCENE),
                     "--report", str(report_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert report_path.read_text() == out
        assert "overall: PASS" in out

    def test_failing_scene_exits_one(self, scene_file, capsys):
        assert main(["check", scene_file(FAILING_PN_SCENE)]) == 1
        assert "overall: FAIL" in capsys.readouterr().out

    def test_kosmann_on_a_non_poisson_bivector_is_a_failed_precondition(self, scene_file,
                                                                        capsys):
        """[pi, pi] != 0 for pi = z @x^@y + xy @y^@z, so ``kosmann_equivalence``
        raises at run time and the run records a failed precondition."""
        scene = json.dumps(NON_POISSON_KOSMANN)
        assert main(["check", scene_file(scene), "--format", "table"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "overall: FAIL"
        assert "precondition | FAIL   | bivector is not Poisson" in out

    @pytest.mark.parametrize("scene, lines", [
        (NON_POISSON_PN, ["[FAIL] Poisson condition [pi,pi]",
                          "       defect: (2*x*z) @x^@y^@z"]),
        (HEISENBERG_COCYCLE, ["[FAIL] cocycle condition  ((e1,e2))",
                              "       defect: (-1) e2^e3"]),
        (NOT_AN_ALGEBROID, ["[FAIL] anchor morphism  ((e1,e2))", "       defect: (1) @x",
                            "", "-- 2:bialgebroid (0.00s)", "bialgebroid pair: FAIL",
                            "[FAIL] base structure valid  (1 defects)"]),
    ], ids=["multivector", "frame-bivector", "invalid-base"])
    def test_text_report_renders_each_failing_defect(self, scene_file, capsys, scene, lines):
        """The text report of a failing check renders its defect, whatever
        container holds it; a bialgebroid whose base is not a Lie algebroid
        counts the base's defects."""
        assert main(["check", scene_file(json.dumps(scene))]) == 1
        out = re.sub(r"\(\d+\.\d\ds\)", "(0.00s)", capsys.readouterr().out).splitlines()
        assert out[1] == "overall: FAIL"
        start = out.index(lines[0])
        assert out[start:start + len(lines)] == lines

    def test_im_check_of_the_scaling_derivation_passes(self, scene_file, capsys):
        """The ``im`` check on (TM, D^r) for r = x id."""
        scene = json.loads(PN_SCENE)
        scene["objects"].update(A=LN_OBJECTS["A"], D=LN_OBJECTS["D"])
        scene["checks"] = [{"check": "im", "algebroid": "A", "gder": "D"}]
        assert main(["check", scene_file(json.dumps(scene)), "--format", "table"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1:5] == ["overall: PASS", "", "-- 1:im", "IM equations: PASS"]
        assert out[-1] == "IM symbol square                | pass   | r o rho - rho o l"

    def test_holomorphic_law_on_a_complex_structure_that_is_not_constant(self, scene_file,
                                                                         capsys):
        """JX passes ``check_lnb`` and ``holomorphic_detect`` with D^J != 0, so
        its anticommutation rows depend on the derivation term, which the
        constant J of the catalog scene leaves at zero.  Its table is the
        catalog scene's row for row."""
        scene = json.dumps(JX_SCENE)
        assert any(not v.is_zero for v in parse_scene(scene).objects["D"].d_frame)
        assert main(["check", scene_file(scene), "--format", "table"]) == 0
        out = capsys.readouterr().out.splitlines()
        golden = (GOLDENS / "lnb-holomorphic-J2.txt").read_text().splitlines()
        assert out[1:] == golden[1:] and len(out) == 36
        assert out[-6:] == ["r squares to minus identity             | pass   | ",
                            "l squares to minus identity             | pass   | "] + [
            f"{ANTICOMMUTES} | pass   | ({u};d/d{v})" for u in ("@x", "@y") for v in "xy"]

    def test_holomorphic_law_on_a_product_structure_fails_the_squares(self, scene_file,
                                                                      capsys):
        """J @x = x @x + @y, J @y = (1 - x^2) @x - x @y squares to +id: the
        pair is still a Lie-Nijenhuis bialgebroid, and the holomorphic check
        fails on the two squares alone."""
        scene = json.dumps(PRODUCT_JX_SCENE)
        assert main(["check", scene_file(scene), "--format", "table"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "overall: FAIL"
        assert out[4] == "Lie-Nijenhuis bialgebroid: PASS"
        assert out[-9:] == ["holomorphic structure: FAIL",
                            "law                                     | status | detail",
                            "----------------------------------------+--------+-------",
                            "r squares to minus identity             | FAIL   | ",
                            "l squares to minus identity             | FAIL   | "] + [
            f"{ANTICOMMUTES} | pass   | ({u};d/d{v})" for u in ("@x", "@y") for v in "xy"]

    def test_bialgebroid_frames_that_are_not_dual_exit_two(self, scene_file, capsys):
        """An input error naming both objects and frames, not a failed
        precondition verdict."""
        assert main(["check", scene_file(NOT_DUAL_FRAMES)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: check #3: frame (e1, e2) of 'aff2' is not "
                                "dual to frame (f1, f2) of 'aff2dual'\n")

    def test_missing_file_exits_two(self, capsys):
        assert main(["check", "/nonexistent/scene.json"]) == 2

    def test_malformed_scene_exits_two(self, scene_file, capsys):
        assert main(["check", scene_file("{not json")]) == 2

    @pytest.mark.parametrize("edit", list(MALFORMED_EDITS.values()), ids=list(MALFORMED_EDITS))
    def test_malformed_scene_reports_input_error(self, scene_file, capsys, edit):
        """An edit changes the scene in place, or returns the file's text."""
        scene = json.loads(PN_SCENE)
        text = edit(scene)
        assert main(["check", scene_file(json.dumps(scene) if text is None else text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("frame", [["a,b", "c"], [" c", "d"]])
    def test_frame_name_no_bracket_key_can_name_exits_two(self, scene_file, capsys, frame):
        """Bracket keys are split at ',' and stripped, so such a name could
        never be given a bracket."""
        scene = json.loads(PN_SCENE)
        scene["objects"]["A"] = {"type": "algebroid", "frame": frame,
                                 "anchor": [["1", "0"], ["0", "1"]]}
        assert main(["check", scene_file(json.dumps(scene))]) == 2
        assert capsys.readouterr().err == (
            f"error: object 'A': frame section name {frame[0]!r} cannot be named "
            "by a bracket key\n")

    @pytest.mark.parametrize("kind", ["gder_tangent", "gder_cotangent"])
    def test_derivation_of_a_vector_field_exits_two(self, scene_file, capsys, kind):
        """Both derivation types refuse a vector field as the torsion check
        does, naming the object."""
        scene = json.loads(PN_SCENE)
        scene["objects"].update(X=VECTOR_FIELD, D={"type": kind, "endomorphism": "X"})
        assert main(["check", scene_file(json.dumps(scene))]) == 2
        assert capsys.readouterr().err == (
            "error: object 'D': 'endomorphism' must name an endomorphism\n")

    def test_library_error_while_building_an_object_names_it(self, scene_file, capsys,
                                                             monkeypatch):
        def refuse(pi):
            raise scene_module.PolyError("refused")
        monkeypatch.setattr(scene_module, "cotangent_of_poisson", refuse)
        scene = json.loads(PN_SCENE)
        scene["objects"]["Astar"] = LN_OBJECTS["Astar"]
        with pytest.raises(SceneError, match="^object 'Astar': refused$"):
            parse_scene(json.dumps(scene))
        assert main(["check", scene_file(json.dumps(scene))]) == 2
        assert capsys.readouterr().err == "error: object 'Astar': refused\n"

    def test_growth_while_building_an_object_names_it(self, scene_file, capsys):
        """[pi, pi] of the cotangent algebroid's bivector passes the limit
        while the object is built: a resource bound, named by the object."""
        scene = json.dumps(GROWTH_WHILE_BUILDING)
        old = get_degree_limit()
        try:
            assert main(["--max-degree", "2", "check", scene_file(scene)]) == 3
        finally:
            set_degree_limit(old)
        assert capsys.readouterr().err == (
            "resource bound: object 'Astar': monomial degree 3 exceeds limit 2\n")

    @pytest.mark.parametrize("check, key", [
        ({"check": "mm1_random", "count": 10 ** 9}, "count"),
        ({"check": "mm1_random", "dims": [40]}, "dims"),
        ({"check": "hierarchy", "bivector": "pi0", "endomorphism": "rx",
          "depth": 10 ** 9}, "depth"),
    ])
    def test_over_bound_keys_are_named_at_parse_time(self, check, key):
        scene = json.loads(PN_SCENE)
        scene["checks"] = [check]
        with pytest.raises(SceneError, match=f"'{key}' must .* at most"):
            parse_scene(json.dumps(scene))

    def test_table_output_is_byte_identical(self, scene_file, capsys):
        path = scene_file(PN_SCENE)
        main(["check", path, "--format", "table"])
        first = capsys.readouterr().out
        main(["check", path, "--format", "table"])
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("e", [1, 15000])
    def test_text_defect_with_coefficients_of_any_size(self, scene_file, capsys, e):
        # r = [[c y, 0], [0, x]] has N_r = (-c x + c^2 y) dx^dy (x) @x
        # + (-x + c y) dx^dy (x) @y; 2^15000 has 4,516 digits
        scene = torsion_scene([[f"2^{e}*y", "0"], ["0", "x"]])
        assert main(["check", scene_file(scene)]) == 1
        out, err = capsys.readouterr()
        c, cc = decimal(2 ** e), decimal(4 ** e)
        assert (f"defect: (-{c}*x + {cc}*y) dx^dy (x) @x + (-x + {c}*y) dx^dy (x) @y\n"
                in out)
        assert "Traceback" not in out + err

    def test_degree_limit_exit_three(self, scene_file, capsys):
        scene = torsion_scene([["0", "y^3"], ["x^3", "0"]])
        old = get_degree_limit()
        try:
            assert main(["--max-degree", "4", "check", scene_file(scene)]) == 3
        finally:
            set_degree_limit(old)
        out = capsys.readouterr().out
        assert "resource bound" in out and "monomial degree 5 exceeds limit 4" in out

    @pytest.mark.parametrize("entry, detail", [
        (GROWING_ENTRIES[0], "coefficient of 2097121 bits exceeds limit 1048576"),
        pytest.param(GROWING_ENTRIES[1], "coefficient of 1114096 bits exceeds limit 1048576",
                     id="64 constant factors"),
        (GROWING_ENTRIES[2], "monomial degree 65 exceeds limit 64")])
    def test_growth_in_an_input_exits_three(self, scene_file, capsys, entry, detail):
        """An entry past a growth bound is a resource bound, named by its
        place; the constant power or product, of degree 0, stops at once."""
        path = scene_file(torsion_scene([[entry, "0"], ["0", "x"]]))
        start = time.perf_counter()
        assert main(["check", path]) == 3
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == f"resource bound: object 'r': {detail}\n"

    @pytest.mark.parametrize("case, expected", [
        ("pass", 0), ("fail", 1), ("input", 2), ("resource", 3)])
    def test_max_degree_is_scoped_to_the_run(self, scene_file, capsys, case, expected):
        scenes = {
            "pass": PN_SCENE,
            "fail": PN_SCENE.replace('[["x", "0"], ["0", "x"]]',
                                     '[["0", "-1"], ["1", "0"]]'),
            "input": "{not json",
            "resource": PN_SCENE.replace('[["x", "0"], ["0", "x"]]',
                                         '[["0", "y^3"], ["x^3", "0"]]'),
        }
        assert get_degree_limit() == 64
        assert main(["--max-degree", "4", "check", scene_file(scenes[case])]) == expected
        assert get_degree_limit() == 64

    def test_max_degree_restored_after_exception(self, scene_file, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("lnlab.cli.run", boom)
        with pytest.raises(RuntimeError):
            main(["--max-degree", "4", "check", scene_file(PN_SCENE)])
        assert get_degree_limit() == 64

    def test_nonpositive_max_degree_is_a_usage_error(self, scene_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--max-degree", "0", "check", scene_file(PN_SCENE)])
        assert exc.value.code == 2
        assert get_degree_limit() == 64

    def test_oversized_max_degree_is_a_usage_error(self, scene_file, capsys):
        """A packed exponent slot holds at most 2**16 - 1."""
        with pytest.raises(SystemExit) as exc:
            main(["--max-degree", "70000", "check", scene_file(PN_SCENE)])
        assert exc.value.code == 2
        assert "--max-degree must be from 1 to 65535" in capsys.readouterr().err
        assert get_degree_limit() == 64


_DELETE = object()


def _json_paths(node, path=()):
    """The path of every value nested in a JSON document."""
    if isinstance(node, dict):
        children = list(node.items())
    elif isinstance(node, list):
        children = list(enumerate(node))
    else:
        children = []
    for key, child in children:
        yield path + (key,), child
        yield from _json_paths(child, path + (key,))


def _mutate(name: str, path: tuple, value) -> str:
    """The catalog scene with the value at path replaced, or deleted."""
    scene = json.loads(example_source(name))
    node = scene
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return json.dumps(scene)


# every key and string in the catalog: object and check names, types, polys
_CATALOG_STRINGS = sorted({
    s for name in example_names()
    for path, value in _json_paths(json.loads(example_source(name)))
    for s in (path[-1], value) if isinstance(s, str)})

_VALUES = st.one_of(
    st.none(),
    st.integers(-3, 5),
    st.sampled_from(_CATALOG_STRINGS + ["1/0", "x^9", ""]),
    st.text(max_size=4),
    st.lists(st.integers(-2, 3) | st.sampled_from(_CATALOG_STRINGS), max_size=3),
    st.dictionaries(st.sampled_from(_CATALOG_STRINGS), st.integers(-2, 3), max_size=2),
)


@st.composite
def mutated_catalog_scenes(draw) -> str:
    name = draw(st.sampled_from(example_names()))
    paths = [path for path, _ in _json_paths(json.loads(example_source(name)))]
    path = draw(st.sampled_from(paths))
    return _mutate(name, path, draw(st.just(_DELETE) | _VALUES))


class TestParserReuse:
    """The argument parser is built on the first call of main and reused;
    each call still parses its own arguments only."""

    def test_later_calls_build_no_parser(self, monkeypatch, capsys):
        main(["examples", "list"])
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert main(["examples", "show", "pn-xid"]) == 0
        assert main(["--seed", "3", "examples", "run", "pn-xid", "--format", "table"]) == 0
        assert main(["--max-degree", "8", "examples", "list"]) == 0
        capsys.readouterr()
        assert built == []

    def test_usage_error_after_a_reused_parse(self, capsys):
        def usage_error() -> str:
            with pytest.raises(SystemExit) as exc:
                main(["examples", "frob"])
            assert exc.value.code == 2
            return capsys.readouterr().err

        first = usage_error()
        assert main(["examples", "run", "pn-xid", "--format", "table"]) == 0
        capsys.readouterr()
        assert usage_error() == first
        assert first.startswith("usage: lnlab examples") and "invalid choice: 'frob'" in first

    def test_seed_applies_to_its_call_only(self, scene_file, monkeypatch, capsys):
        seeds = []
        real = scene_module._run_mm1_random

        def recorded(dims, count, seed):
            seeds.append(seed)
            return real(dims, count, seed)
        monkeypatch.setattr(scene_module, "_run_mm1_random", recorded)
        source = json.dumps({"chart": ["x"], "objects": {},
                             "checks": [{"check": "mm1_random", "count": 2}]})
        path = scene_file(source)
        assert main(["--seed", "5", "check", path, "--format", "table"]) == 0
        capsys.readouterr()
        assert main(["check", path, "--format", "table"]) == 0
        assert capsys.readouterr().out == render(run(parse_scene(source), seed=0), "table")
        assert seeds == [5, 0, 0]


class TestSceneFuzz:
    @given(mutated_catalog_scenes())
    @example(_mutate("pn-xid", ("objects", "pi0", "coeffs", "x,y"), "1/0"))
    @example(_mutate("mm1-random", ("checks", 1, "dims"), [-1]))
    @settings(derandomize=True, deadline=None, max_examples=80)
    def test_mutated_catalog_scene_exits_with_a_status(self, text):
        """Any edit of a catalog scene gives an exit status, never an exception."""
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "scene.json"
            path.write_text(text)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = main(["--max-degree", "8", "check", str(path)])
        assert code in (0, 1, 2, 3)


class TestLiftCommand:
    def test_endomorphism_shows_both_lifts(self, scene_file, capsys):
        code = main(["lift", scene_file(PN_SCENE), "rx"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tangent lift" in out
        assert "cotangent lift" in out
        assert "vx" in out and "px" in out

    TANGENT = ("on chart ('x', 'y', 'vx', 'vy'):\n"
               "  (x) dx (x) @x + (vx) dx (x) @vx + (x) dy (x) @y"
               " + (vx) dy (x) @vy + (x) dvx (x) @vx + (x) dvy (x) @vy\n")
    COTANGENT = ("on chart ('x', 'y', 'px', 'py'):\n"
                 "  (x) dx (x) @x + (py) dx (x) @py + (x) dy (x) @y"
                 " + (-py) dy (x) @px + (x) dpx (x) @px + (x) dpy (x) @py\n")

    @pytest.mark.parametrize("obj, expect", [
        ("r", "tangent lift " + TANGENT + "cotangent lift " + COTANGENT),
        ("D", "linearization " + TANGENT),
        ("Dstar", "linearization " + COTANGENT),
    ])
    def test_lift_xid_bytes(self, obj, expect, scene_file, capsys):
        code = main(["lift", scene_file(example_source("lift-xid")), obj])
        assert code == 0
        assert capsys.readouterr().out == expect

    def test_unknown_object_exits_two(self, scene_file, capsys):
        assert main(["lift", scene_file(PN_SCENE), "missing"]) == 2

    def test_non_liftable_object_exits_two(self, scene_file, capsys):
        assert main(["lift", scene_file(PN_SCENE), "pi0"]) == 2

    @pytest.mark.parametrize("text, message", [
        ("[" * 100_000, "JSON nests too deep to read"),
        (PN_SCENE.replace('"x,y": "1"', '"x,y": "' + "(" * 5000 + "1" + ")" * 5000 + '"'),
         "object 'pi0': nesting deeper than 100 (at position 100)"),
    ], ids=["json-nested-100000", "poly-parentheses-5000"])
    def test_deeply_nested_input_exits_two(self, scene_file, capsys, text, message):
        assert main(["lift", scene_file(text), "rx"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def _count(monkeypatch, calls: dict, label: str, owners, attr: str) -> None:
    """Count the calls of ``attr`` through each owner that binds it."""
    for owner in owners:
        fn = getattr(owner, attr)

        def counted(*args, _fn=fn):
            calls[label] = calls.get(label, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(owner, attr, counted)


def _count_bodies(monkeypatch) -> dict:
    calls: dict = {}
    for label, owner, attr in (("validate", AlgebroidStructure, "_validate"),
                               ("cocycle", algebroid, "_cocycle"),
                               ("im", algebroid, "_im_report"),
                               ("dual", lnb, "dual"), ("bracket", lnb, "bracket")):
        _count(monkeypatch, calls, label, [owner], attr)
    return calls


class TestVerdictStore:
    """Within one scene run each structure is verified once; outside a run
    every call verifies in full."""

    def test_each_body_runs_once_per_argument_tuple(self, monkeypatch, capsys):
        bodies = _count_bodies(monkeypatch)
        entries: dict = {}
        _count(monkeypatch, entries, "validate", [AlgebroidStructure], "validate")
        _count(monkeypatch, entries, "check_lnb", [scene_module, lnb], "check_lnb")
        _count(monkeypatch, entries, "check_bialgebroid", [lnb], "check_bialgebroid")
        assert main(["examples", "run", "lnb-tangent-xid", "--format", "table"]) == 0
        assert capsys.readouterr().out == (GOLDENS / "lnb-tangent-xid.txt").read_text()
        assert entries == {"check_lnb": 6, "check_bialgebroid": 6, "validate": 24}
        assert bodies == {"validate": 5, "cocycle": 4, "im": 5, "dual": 1, "bracket": 1}

    def test_library_calls_verify_in_full(self, monkeypatch):
        objects = parse_scene(example_source("lnb-tangent-xid")).objects
        c = LNCandidate(objects["A"], objects["Astar"], objects["D"])
        bodies = _count_bodies(monkeypatch)
        assert check_lnb(c).passed and check_lnb(c).passed
        assert bodies == {"validate": 8, "cocycle": 2, "im": 4, "dual": 2, "bracket": 2}
        assert report._verdicts.get() is None

    @pytest.mark.parametrize("name", example_names())
    def test_store_is_dropped_when_the_run_ends(self, name, capsys):
        """Also when a check raised: at --max-degree 1 most scenes stop at a
        resource bound."""
        assert main(["--max-degree", "1", "examples", "run", name]) in (0, 1, 3)
        capsys.readouterr()
        assert report._verdicts.get() is None

    def test_store_is_dropped_when_an_error_escapes(self, monkeypatch):
        inside = []

        def boom(c):
            inside.append(report._verdicts.get())
            raise RuntimeError("boom")
        monkeypatch.setattr(scene_module, "check_lnb", boom)
        with pytest.raises(RuntimeError):
            main(["examples", "run", "lnb-tangent-xid"])
        assert inside == [{}]
        assert report._verdicts.get() is None

    def test_a_resource_error_is_raised_again(self, monkeypatch):
        """The dual IM check of a deformed member passes the bound; the
        second check of the same member in the run raises it again."""
        objects = parse_scene(example_source("lnb-tangent-xid")).objects
        A, D = objects["A"], objects["D"]
        Lstar = transpose(lnb._l_matrix(D))
        member = LNCandidate(A, deform_algebroid(objects["Astar"], Lstar), D)
        sc = scene_module.Scene(A.chart, objects,
                                [("lnb", lambda seed: check_lnb(member))] * 2, "")
        bodies = _count_bodies(monkeypatch)
        old = get_degree_limit()
        set_degree_limit(1)
        try:
            rep = run(sc)
        finally:
            set_degree_limit(old)
        assert rep.resource_errors == 2
        assert [sub.items[0].detail for _, sub, _ in rep.items] == [
            "monomial degree 2 exceeds limit 1"] * 2
        # the base IM check is stored; the dual one raised both times
        assert bodies == {"validate": 2, "cocycle": 1, "im": 3, "dual": 1}

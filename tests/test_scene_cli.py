"""Scene parsing, report rendering, the shipped catalog, and the exit-status
contract of the command line."""

import json

import pytest

from lnlab.poly import get_degree_limit, set_degree_limit
from lnlab.catalog import example_names, example_source
from lnlab.cli import main
from lnlab.scene import SceneError, parse_scene, render, run

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
        failing = PN_SCENE.replace('[["x", "0"], ["0", "x"]]',
                                   '[["0", "-1"], ["1", "0"]]')
        assert main(["check", scene_file(failing)]) == 1
        assert "overall: FAIL" in capsys.readouterr().out

    def test_missing_file_exits_two(self, capsys):
        assert main(["check", "/nonexistent/scene.json"]) == 2

    def test_malformed_scene_exits_two(self, scene_file, capsys):
        assert main(["check", scene_file("{not json")]) == 2

    def test_table_output_is_byte_identical(self, scene_file, capsys):
        path = scene_file(PN_SCENE)
        main(["check", path, "--format", "table"])
        first = capsys.readouterr().out
        main(["check", path, "--format", "table"])
        assert capsys.readouterr().out == first

    def test_degree_limit_exit_three(self, scene_file, capsys):
        scene = json.dumps({
            "chart": ["x", "y"],
            "objects": {"r": {"type": "endomorphism",
                              "matrix": [["0", "y^3"], ["x^3", "0"]]}},
            "checks": [{"check": "torsion", "endomorphism": "r"}]})
        old = get_degree_limit()
        try:
            assert main(["--max-degree", "4", "check", scene_file(scene)]) == 3
        finally:
            set_degree_limit(old)
        assert "resource bound" in capsys.readouterr().out

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


class TestLiftCommand:
    def test_endomorphism_shows_both_lifts(self, scene_file, capsys):
        code = main(["lift", scene_file(PN_SCENE), "rx"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tangent lift" in out
        assert "cotangent lift" in out
        assert "vx" in out and "px" in out

    def test_unknown_object_exits_two(self, scene_file, capsys):
        assert main(["lift", scene_file(PN_SCENE), "missing"]) == 2

    def test_non_liftable_object_exits_two(self, scene_file, capsys):
        assert main(["lift", scene_file(PN_SCENE), "pi0"]) == 2

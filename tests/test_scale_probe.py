"""Smoke test of ``tools/scale_probe.py`` at dimension 4: every line prints
the verdicts the families are known to have and a positive time.  No
assertion is made on the timings themselves."""

import importlib.util
import pathlib

from lnlab.pnlab import PNCandidate, check_pn

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "scale_probe.py"
_spec = importlib.util.spec_from_file_location("scale_probe", TOOL)
scale_probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scale_probe)

CHECKS = ("check_pn", "check_bialgebroid", "check_lnb")
VERDICTS = {"separable": ("PASS", "PASS", "PASS"), "benenti": ("PASS", "PASS", "PASS"),
            "benenti+E12": ("FAIL", "PASS", "FAIL")}


def test_dimension_4_verdicts(capsys):
    assert scale_probe.main(dims=(4,), repeat=1) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": ")[0] for line in lines] == [f"{name} dim 4" for name in VERDICTS]
    for line, verdicts in zip(lines, VERDICTS.values()):
        parts = [part.split() for part in line.split(": ", 1)[1].split(", ")]
        assert [p[:2] for p in parts] == [[c, v] for c, v in zip(CHECKS, verdicts)]
        assert all(p[3] == "ms" and float(p[2]) > 0 for p in parts)


def test_the_torsion_point_fails_only_the_torsion_and_its_corollary():
    pi, r = scale_probe.benenti(2, e12=True)
    assert {i.law for i in check_pn(PNCandidate(pi, r)).failures()} == {
        "Nijenhuis torsion N_r", "deformed bivector Poisson [pi_r,pi_r]"}

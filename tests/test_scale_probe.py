"""Smoke test of ``tools/scale_probe.py`` at dimension 4: every line prints
the verdicts the families are known to have, a positive median time, a
nonnegative interquartile range and kernel call counts that repeat exactly
from run to run.  No assertion is made on the timings themselves."""

import importlib.util
import pathlib

from lnlab import algebroid, pnlab
from lnlab.pnlab import PNCandidate, check_pn

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "scale_probe.py"
_spec = importlib.util.spec_from_file_location("scale_probe", TOOL)
scale_probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scale_probe)

CHECKS = ("check_pn", "check_bialgebroid", "check_lnb", "mm1_identity", "bracket")
# [D^r, D^r] = 2 D^{N_r}: the bracket fails exactly where the torsion does
VERDICTS = {"separable": ("PASS", "PASS", "PASS", "PASS", "PASS"),
            "benenti": ("PASS", "PASS", "PASS", "PASS", "PASS"),
            "benenti+E12": ("FAIL", "PASS", "FAIL", "PASS", "FAIL")}


def run_dimension_4(capsys) -> list[list[list[str]]]:
    """The words of each checker's part of each line at dimension 4."""
    assert scale_probe.main(dims=(4,), repeat=3) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": ")[0] for line in lines] == [f"{name} dim 4" for name in VERDICTS]
    return [[part.split() for part in line.split(": ", 1)[1].split(", ")] for line in lines]


def test_dimension_4_verdicts(capsys):
    for parts, verdicts in zip(run_dimension_4(capsys), VERDICTS.values()):
        assert [p[:2] for p in parts] == [[c, v] for c, v in zip(CHECKS, verdicts)]
        assert all(p[3:5] == ["ms", "(IQR"] and float(p[2]) > 0
                   and p[5].endswith(")") and float(p[5][:-1]) >= 0 for p in parts)
        assert all(p[6::2] == ["add", "sum", "diff"] for p in parts)


def test_dimension_4_counts_repeat_exactly(capsys):
    """Two runs give the same kernel call counts, and each checker makes
    some: ``check_pn`` accumulates, differentiates and finishes sums."""
    first, second = ([[p[7::2] for p in parts] for parts in run_dimension_4(capsys)]
                     for _ in range(2))
    assert first == second
    assert all(len(counts) == 3 for line in first for counts in line)
    assert all(int(n) > 0 for line in first for n in line[0])


def test_the_torsion_point_fails_only_the_torsion_and_its_corollary():
    pi, r = scale_probe.benenti(2, e12=True)
    assert {i.law for i in check_pn(PNCandidate(pi, r)).failures()} == {
        "Nijenhuis torsion N_r", "deformed bivector Poisson [pi_r,pi_r]"}


def test_check_pn_forms_pi_pi_once(monkeypatch):
    """[pi, pi] for the first item and [pi_r, pi_r] for the last: the
    Koszul algebroid that ``check_pn`` deforms is built without [pi, pi]."""
    calls = []

    def wrap(module):
        schouten = module.schouten
        monkeypatch.setattr(module, "schouten", lambda P, Q: calls.append(P) or schouten(P, Q))
    wrap(pnlab)
    wrap(algebroid)
    pi, r = scale_probe.benenti(2)
    assert check_pn(PNCandidate(pi, r)).passed
    assert len(calls) == 2 and calls[0] is pi and calls[1] is not pi

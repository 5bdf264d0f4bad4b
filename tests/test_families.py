"""The complete lift of a pair (pi, r) to TM keeps its PN verdict.

(pi^c, r^c) is Poisson-Nijenhuis exactly when (pi, r) is (``families``), so
``check_pn`` must give the lift the base verdict.  Where r o pi# is
selfadjoint the laws that fail agree too; where it is not, the lift can fail
a concomitant C item that the base passes, as C of a pair that is not
selfadjoint depends on the chart.  The lifts are dimension-4 inputs with a
pi^c that depends on the fiber coordinates.
"""

import random

from lnlab.catalog import example_names, example_source
from lnlab.forms import Multivector, VForm
from lnlab.lifts import tangent_lift
from lnlab.pnlab import PNCandidate, check_pn
from lnlab.poly import Poly
from lnlab.scene import parse_scene

from families import complete_lift
from helpers import CH2, CH3, rnd_bivector, rnd_endo, rnd_poly

ONE, X = Poly.const(CH2, 1), Poly.var(CH2, "x")
PI0 = Multivector(CH2, 2, {(0, 1): ONE})
SELFADJ = "selfadjoint composite r o pi#"


def catalog_pairs() -> list[PNCandidate]:
    """Each distinct (bivector, endomorphism) of a catalog scene."""
    seen = {}
    for name in example_names():
        objects = parse_scene(example_source(name)).objects.values()
        for pi in objects:
            for r in objects:
                if (isinstance(pi, Multivector) and pi.degree == 2 and isinstance(r, VForm)
                        and r.degree == 1 and r.vals == r.chart.dim):
                    seen.setdefault((str(pi), str(r)), PNCandidate(pi, r))
    return list(seen.values())


def corpus() -> list[PNCandidate]:
    """Criterion 4's pairs on the symplectic plane; four random pairs on R^2;
    and four pairs (pi, f id) on R^3 with pi the linear Poisson structure of
    so(3)* and f affine, which are selfadjoint and torsion-free, so that C
    alone decides their verdict."""
    rs = [{((0,), 0): X, ((1,), 1): X}, {((0,), 1): ONE, ((1,), 0): -ONE},
          {((0,), 0): ONE, ((1,), 1): ONE}, {}]
    rng = random.Random(1717)
    dense = [PNCandidate(rnd_bivector(rng, CH2), rnd_endo(rng, CH2)) for _ in range(4)]
    x, y, z = (Poly.var(CH3, c) for c in "xyz")
    so3 = Multivector(CH3, 2, {(1, 2): x, (0, 2): -y, (0, 1): z})
    scaled = [PNCandidate(so3, VForm(CH3, 1, 3, {((i,), i): f for i in range(3)}))
              for f in (rnd_poly(rng, CH3) for _ in range(4))]
    return [PNCandidate(PI0, VForm(CH2, 1, 2, r)) for r in rs] + dense + scaled


def failing_laws(report) -> set[str]:
    return {i.law for i in report.failures()}


def test_the_catalog_has_four_pairs_and_some_pass():
    pairs = catalog_pairs()
    assert len(pairs) == 4
    assert {check_pn(c).passed for c in pairs} == {True, False}


def test_the_lift_keeps_the_verdict():
    selfadjoint = 0
    for c in catalog_pairs() + corpus():
        base = check_pn(c)
        lift = check_pn(PNCandidate(complete_lift(c.pi), tangent_lift(c.r)))
        assert lift.passed == base.passed
        if SELFADJ not in failing_laws(base):
            selfadjoint += 1
            assert failing_laws(lift) == failing_laws(base)
    assert selfadjoint == 10

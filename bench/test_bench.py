"""Self-tests of the benchmark's tracer and correctness checks.

    python3 -m pytest bench -q

They are not part of the program's test suite; they check that the spans
count what they claim and that a wrong answer is caught.
"""

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from fractions import Fraction  # noqa: E402

from lnlab import algebroid, cli, forms, lnb, poly, scene  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402


def _install():
    counters = tr.PolyCounters()
    validate_seen = tr.DistinctCounter(tr.algebroid_key)
    lnb_seen = tr.DistinctCounter(tr.candidate_key)
    tracer = tr.Tracer()
    tracer.install(tr.lnlab_targets(counters, validate_seen, lnb_seen),
                   extra_modules=[workloads])
    return tracer, validate_seen, lnb_seen


def test_lnb_tangent_xid_call_counts():
    """The 3-check scene re-verifies its prerequisites: check_lnb 6 times,
    check_bialgebroid 6 times, validate 24 times (counted by hand from the
    call graph at the commit that introduced the benchmark)."""
    original = lnb.check_lnb
    tracer, validate_seen, lnb_seen = _install()
    try:
        assert scene.check_lnb is lnb.check_lnb is not original
        code, text = workloads.run_scene("lnb-tangent-xid")
    finally:
        tracer.uninstall()
    assert code == 0
    assert text == workloads.load_goldens()["lnb-tangent-xid"]
    assert tracer.calls("lnb.check_lnb") == 6
    assert tracer.calls("algebroid.check_bialgebroid") == 6
    assert tracer.calls("algebroid.validate") == 24
    assert len(lnb_seen.seen) == 4
    assert scene.check_lnb is original is lnb.check_lnb


def test_every_binding_is_wrapped_and_restored():
    originals = (scene.run, cli.run, poly.Poly.__mul__, poly.Poly.__rmul__,
                 algebroid.AlgebroidStructure.validate)
    tracer, _, _ = _install()
    try:
        assert cli.run is scene.run
        assert poly.Poly.__rmul__ is poly.Poly.__mul__
        assert all(getattr(f, "__wrapped__", None) is o for f, o in zip(
            (scene.run, cli.run, poly.Poly.__mul__, poly.Poly.__rmul__,
             algebroid.AlgebroidStructure.validate), originals))
    finally:
        tracer.uninstall()
    assert (scene.run, cli.run, poly.Poly.__mul__, poly.Poly.__rmul__,
            algebroid.AlgebroidStructure.validate) == originals


def test_nested_self_time():
    """outer runs 2 s, calls inner (3 s), runs 5 s; bookkeeping hooks that
    take 4 s and 1 s are charged to neither span."""
    now = [0.0]
    tracer = tr.Tracer(clock=lambda: now[0])

    def advance(dt):
        now[0] += dt

    inner = tracer.wrap("inner", lambda: advance(3),
                        on_result=lambda _: advance(4))

    def outer_body():
        advance(2)
        inner()
        advance(5)

    outer = tracer.wrap("outer", outer_body, on_call=lambda: advance(1))
    outer()
    assert tracer.stats["inner"] == [1, 3.0]
    assert tracer.stats["outer"] == [1, 7.0]
    assert tracer.overhead_s == 5.0


def test_checks_reject_wrong_answers():
    rng = random.Random(3)
    r = workloads.rnd_endo(rng, workloads.CH3)
    item = workloads.torsion_item(r)
    N, F = item.compute()
    assert item.check((N, F)).ok
    assert not item.check((N * Fraction(2), F)).ok
    P = workloads.rnd_bivector(rng, workloads.CH3)
    Q = workloads.rnd_bivector(rng, workloads.CH3)
    s = workloads.schouten_item(P, Q)
    a, b = s.compute()
    assert s.check((a, b)).ok
    assert not s.check((a, forms.schouten(P, P))).ok
    ch = workloads.CH2
    c = workloads.pnlab.PNCandidate(workloads.rnd_bivector(rng, ch),
                                    workloads.rnd_endo(rng, ch))
    m = workloads.mm1_item(c, workloads.rnd_vf(rng, ch))
    [(lhs, rhs)] = m.compute()
    assert m.check([(lhs, rhs)]).ok
    assert not m.check([(lhs, (rhs[0], rhs[0]))]).ok
    assert not m.check([(lhs[:2] + (lhs[1],), rhs)]).ok
    golden = workloads.load_goldens()["pn-J2"]
    sc = workloads.scene_item("pn-J2", golden)
    assert sc.check((1, golden)).ok
    assert not sc.check((0, golden)).ok
    assert not sc.check((1, golden + b" ")).ok

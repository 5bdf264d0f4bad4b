"""Per-layer spans and counters, recorded from outside the program.

The tracer wraps public functions and methods of ``lnlab`` with a timing
shim.  Each wrapped call is a span; its self time is its duration minus the
full duration of the wrapped calls it makes, so nested layers do not double
count.  The shim's own bookkeeping (reading the clock, counting result terms)
is charged to neither the span nor its parent: it accumulates in
``overhead_s`` so it can be subtracted from the traced wall time.

Spans are aggregated in memory as (calls, self seconds) per name; no
per-call record is kept, so a traced pass over millions of polynomial
operations stays small.

A module that did ``from .lnb import check_lnb`` holds its own binding of the
function, so patching ``lnb.check_lnb`` alone would let those calls bypass
the span.  ``Tracer.install`` therefore replaces every binding of each
wrapped object in every loaded ``lnlab`` module (and in any extra modules it
is given), and checks afterwards that none is left unwrapped.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Callable, Iterable

__all__ = ["Tracer", "Target", "lnlab_targets"]


@dataclass
class Target:
    """One traced callable: the span name, where its definition lives, and
    optional hooks run on each call outside the timed region."""

    name: str
    owner: Any
    attr: str
    on_result: Callable[[Any], None] | None = None
    on_call: Callable[..., None] | None = None


class Tracer:
    """Aggregating span recorder.

    ``clock`` is injectable so that tests can drive it deterministically.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, list] = {}
        self.overhead_s = 0.0
        self._stack: list[float] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def reset(self) -> None:
        for st in self.stats.values():
            st[0] = 0
            st[1] = 0.0
        self.overhead_s = 0.0

    def absorb(self, seconds: float) -> None:
        """Keep time spent outside the program (an interrupt that ran inside
        a span) out of that span's self time."""
        if self._stack:
            self._stack[-1] += seconds

    def calls(self, name: str) -> int:
        return self.stats[name][0]

    def self_s(self, name: str) -> float:
        return self.stats[name][1]

    def wrap(self, name: str, fn: Callable,
             on_result: Callable[[Any], None] | None = None,
             on_call: Callable[..., None] | None = None) -> Callable:
        """Return ``fn`` wrapped as a span called ``name``."""
        st = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = self.clock
        tracer = self

        def span(*args, **kwargs):
            enter = clock()
            if on_call is not None:
                on_call(*args, **kwargs)
            stack.append(0.0)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                end = clock()
                child = stack.pop()
                st[0] += 1
                st[1] += (end - start) - child
                if returned and on_result is not None:
                    on_result(result)
                leave = clock()
                tracer.overhead_s += (leave - enter) - (end - start)
                if stack:
                    stack[-1] += leave - enter
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        span.__qualname__ = getattr(fn, "__qualname__", name)
        span.__doc__ = getattr(fn, "__doc__", None)
        return span

    def install(self, targets: Iterable[Target],
                extra_modules: Iterable[ModuleType] = ()) -> None:
        """Wrap every binding of every target in the scanned namespaces."""
        namespaces = _namespaces(extra_modules)
        originals = []
        for t in targets:
            original = t.owner.__dict__[t.attr]
            originals.append(original)
            wrapper = self.wrap(t.name, original, t.on_result, t.on_call)
            for owner, ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        self._patched.append((owner, key, original))
                        setattr(owner, key, wrapper)
        for owner, ns in namespaces:
            for key, value in ns.items():
                if any(value is o for o in originals):
                    raise RuntimeError(f"binding {key} in {owner!r} was not wrapped")

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()


def _namespaces(extra_modules: Iterable[ModuleType]) -> list[tuple[Any, dict]]:
    """Module and class namespaces that may hold a binding of a target."""
    mods = [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lnlab" or name.startswith("lnlab."))]
    mods += list(extra_modules)
    out: list[tuple[Any, dict]] = []
    for m in mods:
        out.append((m, vars(m)))
        for value in list(vars(m).values()):
            if isinstance(value, type) and value.__module__ == m.__name__:
                out.append((value, value.__dict__))
    return out


# -- the lnlab layer map -------------------------------------------------------


class PolyCounters:
    """Exact counts over polynomial results: terms produced and the largest
    total degree reached."""

    def __init__(self) -> None:
        self.terms_out = 0
        self.max_total_degree = 0

    def reset(self) -> None:
        self.terms_out = 0
        self.max_total_degree = 0

    def observe(self, p) -> None:
        terms = p.terms
        self.terms_out += len(terms)
        if terms:
            d = max(map(sum, terms))
            if d > self.max_total_degree:
                self.max_total_degree = d


class DistinctCounter:
    """Counts the distinct arguments a function was called with, by a value
    key, so that calls / distinct measures repeated work."""

    def __init__(self, key: Callable[[Any], Any]) -> None:
        self.key = key
        self.seen: set = set()

    def reset(self) -> None:
        self.seen.clear()

    def on_call(self, obj, *args, **kwargs) -> None:
        self.seen.add(self.key(obj))


def _poly_key(p) -> tuple:
    return (p.chart.coords, frozenset(p.terms.items()))


def algebroid_key(A) -> tuple:
    return (A.bundle.chart.coords, A.bundle.frame,
            tuple(tuple(_poly_key(p) for p in row) for row in A.anchor),
            tuple(sorted((k, tuple(_poly_key(p) for p in v))
                         for k, v in A.structure.items())),
            A.pre_lie_only)


def _vform_key(v) -> tuple:
    return (v.degree, v.vals,
            frozenset((k, _poly_key(p)) for k, p in v.coeffs.items()))


def candidate_key(c) -> tuple:
    D = c.D
    lf = None if D.l_frame is None else tuple(map(_vform_key, D.l_frame))
    return (algebroid_key(c.A), algebroid_key(c.Astar), D.degree,
            tuple(map(_vform_key, D.d_frame)), lf, _vform_key(D.r))


POLY_OPS = ("mul", "add", "neg", "diff", "parse")


def lnlab_targets(poly_counters: PolyCounters,
                  validate_seen: DistinctCounter,
                  lnb_seen: DistinctCounter) -> list[Target]:
    """The spans the benchmark records, one per public entry of each layer."""
    from lnlab import algebroid, forms, gder, lifts, lnb, pnlab, poly, scene

    obs = poly_counters.observe
    P = poly.Poly
    targets = [
        Target("poly.mul", P, "__mul__", obs),
        Target("poly.add", P, "__add__", obs),
        Target("poly.neg", P, "__neg__", obs),
        Target("poly.diff", P, "diff", obs),
        Target("poly.parse", poly, "parse_poly", obs),
    ]
    for name in ("wedge", "exterior_d", "schouten", "frolicher_nijenhuis",
                 "nijenhuis_torsion", "vf_bracket"):
        targets.append(Target(f"forms.{name}", forms, name))
    targets.append(Target("gder.extend", gder.GenDer, "extend"))
    for name in ("bracket", "dual", "build_drT"):
        targets.append(Target(f"gder.{name}", gder, name))
    targets.append(Target("algebroid.validate", algebroid.AlgebroidStructure,
                          "validate", on_call=validate_seen.on_call))
    for name in ("check_bialgebroid", "check_im"):
        targets.append(Target(f"algebroid.{name}", algebroid, name))
    for name in ("check_pn", "concomitants", "kosmann_equivalence",
                 "mm1_identity", "concomitant_R"):
        targets.append(Target(f"pnlab.{name}", pnlab, name))
    targets.append(Target("lnb.check_lnb", lnb, "check_lnb",
                          on_call=lnb_seen.on_call))
    for name in ("linearize", "verify_correspondence"):
        targets.append(Target(f"lifts.{name}", lifts, name))
    for name in ("parse_scene", "run", "render"):
        targets.append(Target(f"scene.{name}", scene, name))
    return targets

#!/usr/bin/env python3
"""lnlab benchmark: time to a verified verdict, end to end and per layer.

    python3 bench/run.py --workload identities|scenes|dense --seed N
                         --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout, nothing is installed.  Load is one client in a
closed loop: the next item starts only after the previous verdict returned.
The item list of a workload is one *pass*; passes repeat until ``--seconds``
have been measured and at least 100 verdicts were timed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs untraced
passes, then the same passes with a span around every public function of each
layer, and reports per-layer counts and self times per pass, plus the
tracing overhead.  Either way every verdict is checked against a known answer
and the last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

A copy of the result, with the machine fingerprint, is written to
``bench/results/``.  Without a result (the program cannot be imported, say)
the exit code is 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from speed import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

WORKLOADS = ("identities", "scenes", "dense")
MIN_SAMPLES = 100
SETUP_PROBES = 7
DEFAULT_DEGREE_LIMIT = 64


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# -- set-up ------------------------------------------------------------------


def load(workload: str, seed: int) -> list:
    """Import the program from this checkout and build the workload's inputs
    (and, for scenes, load the goldens).  This is what ``setup_s`` times."""
    sys.path.insert(0, SRC)
    try:
        import lnlab
    except ImportError as e:
        raise BenchError(f"cannot import lnlab from {SRC}: {e}") from None
    if os.path.dirname(os.path.abspath(lnlab.__file__)) != os.path.join(SRC, "lnlab"):
        raise BenchError(f"lnlab imported from {lnlab.__file__}, not from {SRC}")
    import workloads
    if workload == "identities":
        return workloads.identities(seed)
    if workload == "dense":
        return workloads.dense(seed)
    goldens = workloads.load_goldens()
    if not goldens:
        raise BenchError("no scene goldens found")
    return workloads.scenes(seed, goldens)


def setup_probe(workload: str, seed: int) -> None:
    _, net, scale = SpeedProbe().run(lambda: load(workload, seed))
    print(json.dumps({"setup_s": net, "scale": scale}))


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set up in fresh interpreters, so each sample pays the cold import.
    Returns the raw and the reference-speed samples."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        try:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--setup-probe",
                 "--workload", workload, "--seed", str(seed)],
                cwd=ROOT, capture_output=True, text=True, timeout=120)
        except subprocess.TimeoutExpired:
            raise BenchError("set-up probe timed out") from None
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(probe["setup_s"])
        scaled.append(probe["setup_s"] * probe["scale"])
    return raw, scaled


# -- measurement -------------------------------------------------------------


class Tally:
    """Verdict times, their speed scales and outcomes over a run's passes."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.scales: list[float] = []
        self.kinds: list[str] = []
        self.passes: list[tuple[int, int]] = []
        self.failed = 0
        self.failures: list[str] = []
        self.nontrivial = 0
        self.inspected = 0

    def record(self, item, run_s: float, scale: float, ok: bool, why: str,
               nontrivial: bool | None) -> None:
        self.latencies.append(run_s)
        self.scales.append(scale)
        self.kinds.append(item.kind)
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{item.kind}: {why}")
        if nontrivial is not None:
            self.inspected += 1
            self.nontrivial += nontrivial

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def scaled(self) -> list[float]:
        """Verdict times at reference speed."""
        return [t * k for t, k in zip(self.latencies, self.scales)]

    def pass_walls(self, passes: list[tuple[int, int]] | None = None) -> list[float]:
        lat = self.scaled()
        return [sum(lat[lo:hi]) for lo, hi in (passes or self.passes)]

    def correct(self) -> bool:
        # a kernel that returned zero everywhere would satisfy every
        # "defect vanishes" check; most inspected items must be non-zero
        trivial = self.inspected and 2 * self.nontrivial < self.inspected
        if trivial:
            self.failures.append(f"only {self.nontrivial} of {self.inspected} "
                                 "inspected results are non-zero")
        return self.failed == 0 and not trivial


def run_pass(items: list, tally: Tally, probe) -> None:
    """One closed-loop pass: each verdict starts after the previous one
    returned and was checked."""
    lo = tally.attempted
    for item in items:
        def attempt(item=item):
            try:
                return item.compute(), None
            except Exception as e:  # a raised exception is a failed verdict
                return None, e
        (out, err), net, scale = probe.run(attempt)
        if err is not None:
            tally.record(item, net, scale, False, f"{type(err).__name__}: {err}", None)
            continue
        v = item.check(out)
        tally.record(item, net, scale, v.ok, v.why, v.nontrivial)
    tally.passes.append((lo, tally.attempted))


def run_passes(items: list, tally: Tally, probe, seconds: float,
               min_samples: int, on_pass_start=None, on_pass_end=None) -> None:
    start = time.perf_counter()
    first = tally.attempted
    while True:
        if on_pass_start is not None:
            on_pass_start()
        run_pass(items, tally, probe)
        if on_pass_end is not None:
            on_pass_end()
        if (time.perf_counter() - start >= seconds
                and tally.attempted - first >= min_samples):
            return


def check_degree_limit() -> None:
    from lnlab import poly
    if poly.get_degree_limit() != DEFAULT_DEGREE_LIMIT:
        raise BenchError(f"degree limit is {poly.get_degree_limit()}, "
                         f"expected {DEFAULT_DEGREE_LIMIT} at workload start")


def end_to_end(workload: str, seed: int, seconds: float, items: list):
    setup_raw, setup = measure_setup(workload, seed)
    check_degree_limit()
    tally = Tally()
    run_passes(items, tally, SpeedProbe(), seconds, MIN_SAMPLES)
    lat = tally.scaled()
    deciles = statistics.quantiles(lat, n=10)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(tally.pass_walls()), "s"),
        "verdicts_per_s": (len(lat) / sum(lat), "1/s"),
        "verdict_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "verdict_p90_ms": (deciles[8] * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    raw = tally.latencies
    notes = {
        "samples": len(lat),
        "passes": len(tally.passes),
        "items_per_pass": len(items),
        "speed_scale": statistics.median(tally.scales),
        "raw_setup_s": statistics.median(setup_raw),
        "raw_wall_s": statistics.median(sum(raw[lo:hi]) for lo, hi in tally.passes),
        "raw_verdict_p50_ms": statistics.median(raw) * 1e3,
        "raw_verdict_p90_ms": statistics.quantiles(raw, n=10)[8] * 1e3,
    }
    return tally, metrics, notes


def traced(seconds: float, items: list):
    """Untraced passes, then traced passes over the same items.  Per-layer
    values are per pass (median over traced passes), times at reference
    speed."""
    import tracer as tr

    check_degree_limit()
    tally = Tally()
    probe = SpeedProbe()
    run_passes(items, tally, probe, seconds / 3, 1)
    untraced = list(tally.passes)

    counters = tr.PolyCounters()
    validate_seen = tr.DistinctCounter(tr.algebroid_key)
    lnb_seen = tr.DistinctCounter(tr.candidate_key)
    tracer = tr.Tracer()
    snapshots: list[dict] = []

    def start_pass() -> None:
        tracer.reset()
        counters.reset()
        validate_seen.reset()
        lnb_seen.reset()

    def end_pass() -> None:
        lo, hi = tally.passes[-1]
        scale = statistics.median(tally.scales[lo:hi])
        raw_wall = sum(tally.latencies[lo:hi])
        snap = {}
        for name, (calls, self_s) in tracer.stats.items():
            snap[f"{name}.calls"] = calls
            snap[f"{name}.self_s"] = self_s * scale
        poly_self = sum(tracer.self_s(f"poly.{op}") for op in tr.POLY_OPS)
        snap["poly.self_share"] = poly_self / (raw_wall - tracer.overhead_s)
        snap["poly.terms_out"] = counters.terms_out
        snap["poly.max_total_degree"] = counters.max_total_degree
        snap["algebroid.validate.repeat_ratio"] = _ratio(
            tracer.calls("algebroid.validate"), len(validate_seen.seen))
        snap["lnb.check_lnb.repeat_ratio"] = _ratio(
            tracer.calls("lnb.check_lnb"), len(lnb_seen.seen))
        snapshots.append(snap)

    tracer.install(tr.lnlab_targets(counters, validate_seen, lnb_seen),
                   extra_modules=[sys.modules["workloads"]])
    probe.on_sample = tracer.absorb
    try:
        run_passes(items, tally, probe, 2 * seconds / 3, 1, start_pass, end_pass)
    finally:
        tracer.uninstall()
    traced_passes = tally.passes[len(untraced):]

    metrics = {}
    for key in snapshots[0]:
        if key == "pnlab.concomitant_R.self_s":
            continue
        unit = _unit(key)
        if unit in ("count", "degree"):
            metrics[key] = (statistics.median_low(s[key] for s in snapshots), unit)
        else:
            metrics[key] = (statistics.median(s[key] for s in snapshots), unit)
    untraced_wall = statistics.median(tally.pass_walls(untraced))
    traced_wall = statistics.median(tally.pass_walls(traced_passes))
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    notes = {"untraced_passes": len(untraced),
             "traced_passes": len(traced_passes),
             "items_per_pass": len(items),
             "untraced_pass_s": untraced_wall,
             "traced_pass_s": traced_wall}
    return tally, metrics, notes


def _ratio(calls: int, distinct: int) -> float:
    return calls / distinct if distinct else 0.0


def _unit(key: str) -> str:
    if key.endswith(".calls") or key == "poly.terms_out":
        return "count"
    if key.endswith("_s"):
        return "s"
    if key == "poly.max_total_degree":
        return "degree"
    return "ratio"


# -- reporting ---------------------------------------------------------------


def fingerprint() -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"nproc": nproc, "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "git_sha": git_sha()}


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git (which
    would search parent directories); "unknown" outside a git work tree."""
    gitdir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(gitdir, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(gitdir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(gitdir, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric names and units this mode must report, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        declared = declared_metrics(bool(args.trace))
        items = load(args.workload, args.seed)
        if args.trace:
            tally, metrics, notes = traced(args.seconds, items)
        else:
            tally, metrics, notes = end_to_end(args.workload, args.seed,
                                               args.seconds, items)
        reported = {name: unit for name, (_, unit) in metrics.items()}
        if reported != declared:
            raise BenchError("metrics differ from BENCHMARK.json: "
                             f"{sorted(set(reported.items()) ^ set(declared.items()))}")
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2

    fp = fingerprint()
    correct = tally.correct()
    print(f"lnlab benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {args.seconds:g} s, one closed-loop client")
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    for key, value in notes.items():
        print(f"  {key:<34} {value:.6g}" if isinstance(value, float)
              else f"  {key:<34} {value}")
    for name in declared:
        value, unit = metrics[name]
        print(f"  {name:<34} {value:<14.6g} {unit}")
    print(f"  {'error_rate':<34} {tally.failed / tally.attempted:<14.6g} ratio "
          f"({tally.failed} wrong or raised of {tally.attempted})")
    for line in tally.failures:
        print(f"  FAILED {line}")
    result = {"correct": correct, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                          for name in declared}}
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "fingerprint": fp, "notes": notes, "failures": tally.failures,
                   "raw_verdict_s": tally.latencies, "speed_scale": tally.scales,
                   "kinds": tally.kinds,
                   "passes": tally.passes,
                   **result}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

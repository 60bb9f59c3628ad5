"""p2qbrace benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  With ``--trace 0`` passes repeat
until S seconds are spent (at least one pass) and the end-to-end metrics
are printed.  With ``--trace 1`` one untraced pass is followed by one
traced pass, and the per-layer metrics and the tracing overhead are
printed; the repeatable counters are also compared with those of an
earlier traced run of the same sources and workload, when there is one.
End-to-end times are in reference seconds (see ``refclock``); the plain
wall-clock figures are printed above the JSON line.
The last line of standard output is the JSON result.  Scratch files go to
``.bench_work/`` (removed on exit) and traces to ``.bench_traces/``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from refclock import REF_PART_S, RefClock  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACES = ROOT / ".bench_traces"
WORKLOAD_NAMES = ("classify_cold", "classify_warm", "catalog", "brace_ybe")


def _percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _source_hash() -> str:
    """Digest of the package and benchmark sources, which fix the counters."""
    digest = hashlib.sha256()
    for tree in (SRC / "p2qbrace", Path(__file__).parent):
        for path in sorted(tree.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _import_package() -> None:
    """Put ``src/`` first on the path and make sure the package comes from it."""
    if not (SRC / "p2qbrace" / "__init__.py").is_file():
        sys.exit(f"perfbench: no p2qbrace sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import p2qbrace

    if not Path(p2qbrace.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: p2qbrace was imported from {p2qbrace.__file__}, not {SRC}")


def _end_to_end(clock, setup, walls, latencies) -> tuple[dict, list[str]]:
    """The reported metrics, in reference seconds, and the plain figures."""
    ref = clock.ref_seconds
    metrics = {
        "setup_s": (ref(setup), "s"),
        "wall_s": (statistics.median(ref(w) for w in walls), "s"),
        "class_ms_p90": (1000 * _percentile([ref(c) for c in latencies], 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    plain = [
        f"reference kernel {part} {1000 * clock.median_part_s(part):.4g} ms "
        f"(fast spells {1000 * cost:.4g} ms)"
        for part, cost in REF_PART_S.items()
    ] + [
        f"{len(clock.samples)} samples, {clock.spent:.3g} s left out of the intervals",
        f"plain setup_s {setup.seconds:.6g} s",
        f"plain wall_s {statistics.median(w.seconds for w in walls):.6g} s",
        # printed but not reported: on brace_ybe the median falls among a
        # few sparse latencies, and its ten-run spread reached 0.16
        f"class_ms_p50 {1000 * statistics.median(ref(c) for c in latencies):.6g} ms",
        f"plain class_ms_p50 {1000 * statistics.median(c.seconds for c in latencies):.6g} ms",
        f"plain class_ms_p90 {1000 * _percentile([c.seconds for c in latencies], 90):.6g} ms",
    ]
    return metrics, plain


def _repeatable_counts(tracer) -> dict:
    """Counters that must be identical on every traced run of the same code."""
    counts = {f"{name}.calls": n for name, n in tracer.calls().items()}
    calls = counts["holomorph.closure_packed.calls"]
    full = tracer.counts["holomorph.closure_packed.full"]
    counts["holomorph.closure_packed.hit_ratio"] = full / calls if calls else 0.0
    for key in ("enumeration.orbit_classes", "enumeration.regular_subgroups",
                "ybe.check_ybe.bytes_computed"):
        counts[key] = tracer.counts[key]
    return counts


def _check_counts_repeat(checks, workload: str, counts: dict) -> None:
    """Compare with the counters an earlier traced run of these sources left."""
    path = TRACES / f"counters-{workload}-{_source_hash()}.json"
    if path.exists():
        before = json.loads(path.read_text())
        changed = sorted(k for k in counts.keys() | before.keys() if counts.get(k) != before.get(k))
        checks.expect(not changed, f"counters differ from the earlier traced run: {changed}")
        return
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True, indent=1) + "\n")
    tmp.replace(path)


def _per_layer(tracer, checks, workload, seed, untraced_s, traced_s) -> dict:
    metrics = {}
    self_times = tracer.self_times()
    counts = _repeatable_counts(tracer)
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (counts[f"{name}.calls"], "count")
        metrics[f"{name}.self_s"] = (self_times[name], "s")
    metrics["holomorph.closure_packed.hit_ratio"] = (
        counts["holomorph.closure_packed.hit_ratio"], "ratio")
    metrics["enumeration.orbit_classes"] = (counts["enumeration.orbit_classes"], "count")
    metrics["enumeration.regular_subgroups"] = (counts["enumeration.regular_subgroups"], "count")
    metrics["ybe.check_ybe.bytes_computed"] = (counts["ybe.check_ybe.bytes_computed"], "B")
    metrics["trace.untraced_wall_s"] = (untraced_s, "s")
    metrics["trace.traced_wall_s"] = (traced_s, "s")
    metrics["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    span_cost_s = Tracer.span_cost() * len(tracer.spans)
    metrics["trace.span_cost_frac"] = (span_cost_s / untraced_s, "ratio")
    TRACES.mkdir(exist_ok=True)
    _check_counts_repeat(checks, workload, counts)
    tracer.write(TRACES / f"{workload}-seed{seed}.jsonl.gz")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_package()
    from workloads import WORKLOADS, Checks

    rng = random.Random(args.seed)
    checks = Checks()
    notes = []
    workdir = ROOT / ".bench_work"
    workdir.mkdir(exist_ok=True)
    # a kernel sample would be charged to the traced span it interrupts,
    # so traced runs go without
    clock = RefClock()
    try:
        if not args.trace:
            clock.start()
        workload = WORKLOADS[args.workload](checks, workdir, clock)
        workload.setup(rng)
        setup = clock.since((T_START, 0.0))

        walls, latencies = [], []
        t_first = time.perf_counter()
        while True:
            mark = clock.mark()
            latencies.extend(workload.run_pass(rng))
            walls.append(clock.since(mark))
            if args.trace or time.perf_counter() - t_first >= args.seconds:
                break
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                t0 = time.perf_counter()
                workload.run_pass(rng)
                traced_s = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            metrics = _per_layer(
                tracer, checks, args.workload, args.seed, walls[0].seconds, traced_s)
        else:
            clock.stop()
            metrics, notes = _end_to_end(clock, setup, walls, latencies)
    finally:
        clock.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    failed_frac = checks.failed / checks.attempted
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"passes {len(walls)}, calls timed {len(latencies)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for line in notes:
        print(line)
    print(f"failed_frac {failed_frac:.6g} ({checks.failed} of {checks.attempted} checks failed)")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

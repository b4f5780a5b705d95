"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dp_n18_cold --seed 0 --seconds 20 --trace 0

``--trace 0`` runs the workload untraced for ``--seconds`` and prints the
end-to-end metrics.  ``--trace 1`` does the same, then runs the workload once
more with every layer seam wrapped and prints the per-layer metrics.  The
last line of standard output is the result object; the line before it
records the host, the noise sentinel, every sample and every failed check.
The exit status is 0 only when every correctness check passed.

A batch workload (one cold search or suite run per operation) runs each
operation in a fresh interpreter, as a user would, so no process-level cache
carries over from one operation to the next.  ``fleet_mix`` runs its closed
loop in this process.  Fresh probe processes repeat the workload's set-up
and nothing else, between the operations of a batch workload and after the
loop of ``fleet_mix``; ``setup_s`` is their median.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
#: Operations every batch run makes, however short ``--seconds`` is.
MIN_OPS = 3
#: Fresh set-up probe processes per run: batch workloads (about 0.5 s
#: each), ``fleet_mix`` (about 2 s each) and any workload at ``--size tiny``.
SETUP_PROBES = {"batch": 11, "fleet": 5, "tiny": 3}
#: Runs of the noise sentinel before and after the timed phase.
SENTINEL_REPEATS = 5
#: Longest a child process may take.
CHILD_TIMEOUT_S = 170
#: Workloads, metric names and units.
SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
PER_LAYER = [metric["name"] for metric in SPEC["per_layer"]]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks every workload for the benchmark's own tests",
    )
    parser.add_argument(
        "--child",
        choices=("op", "traced-op", "setup"),
        help="internal: run one operation (or only the set-up) and report it",
    )
    parser.add_argument("--index", type=int, default=0, help="internal: operation index")
    return parser.parse_args(argv)


def import_program():
    """Import the package from this checkout's ``src``, and nothing else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_fingerprint() -> dict:
    import numpy

    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "cpu": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def sentinel_ms() -> list[float]:
    """Times of a fixed NumPy kernel: sorting 2^19 seeded doubles."""
    import numpy

    data = numpy.random.default_rng(12345).random(1 << 19)
    times = []
    for _ in range(SENTINEL_REPEATS):
        start = time.perf_counter()
        numpy.sort(data, kind="quicksort")
        times.append((time.perf_counter() - start) * 1000.0)
    return times


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def child(args, mode: str, index: int = 0) -> dict:
    """Run this script in a fresh interpreter and return its report."""
    proc = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--size", args.size,
            "--child", mode,
            "--index", str(index),
        ],
        cwd=CHECKOUT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {mode} process for {args.workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_probe(args) -> float:
    """The set-up time of one fresh probe process."""
    return child(args, "setup")["setup_s"]


def probe_count(args, kind: str) -> int:
    return SETUP_PROBES["tiny" if args.size == "tiny" else kind]


def workdir_for(args) -> str:
    path = CHECKOUT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return str(path)


# -- child processes ------------------------------------------------------------


def run_child(args) -> int:
    """Set up, then run one operation (traced or not), or only the set-up."""
    import_program()
    import workloads

    workdir = workdir_for(args)
    workload = workloads.make(args.workload, args.seed, args.size, workdir)
    try:
        workload.setup()
        report = {"setup_s": time.perf_counter() - T0}
        if args.child == "op":
            began = time.perf_counter()
            outcome = workload.op(args.index)
            report["wall_s"] = time.perf_counter() - began
        elif args.child == "traced-op":
            outcome, report["layers"], report["wall_s"] = traced_op(workload, args)
        if args.child != "setup":
            report.update(problems=outcome.problems, counts=outcome.counts)
        report["rss_mb"] = rss_mb()
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


def traced_op(workload, args):
    """One operation with every seam wrapped, under a root span ``op``."""
    import layers
    from tracer import Patcher, Tracer

    tracer, patcher = Tracer(), Patcher()
    layers.install(tracer, patcher)
    try:
        tracer.mark_driver()
        began = time.perf_counter()
        with tracer.span("op"):
            outcome = workload.op(args.index)
        wall = time.perf_counter() - began
    finally:
        patcher.restore()
    extra, problems = reconcile(tracer, wall)
    for problem in problems:
        outcome.check(False, problem)
    if "sink_bytes" in outcome.counts:
        extra["suite.sinks.bytes"] = outcome.counts["sink_bytes"]
    dump_spans(tracer, args)
    values = layers.metrics(tracer, PER_LAYER, extra)
    # Layer counts the inputs determine must repeat from run to run.
    recorded = workload.expected.get("layer_counts")  # the same for every seed
    if recorded is None and args.seed == 0:
        recorded = workload.expected.get("seed0_layer_counts")
    if recorded and args.size == "full":
        got = {name: values[name] for name in recorded}
        outcome.check(got == recorded, f"layer counts {got}")
    return outcome, values, wall


def reconcile(tracer, wall: "float | None") -> tuple[dict, list]:
    """The reconciliation metrics, and the failed checks of the trace itself."""
    problems = []
    split = tracer.reconcile("op")
    drift = abs(split["layer_s"] + split["unattributed_s"] - split["traced_wall_s"])
    if drift > 1e-6 * max(split["traced_wall_s"], 1.0):
        problems.append(f"layer self times miss the traced wall time by {drift:.6f} s")
    if wall is not None and abs(split["traced_wall_s"] - wall) > 0.01 * wall + 0.001:
        problems.append(f"root span {split['traced_wall_s']:.4f} s vs wall {wall:.4f} s")
    extra = {
        "unattributed_s": split["unattributed_s"],
        "traced_wall_s": split["traced_wall_s"],
        "concurrent_busy_s": split["concurrent_s"],
    }
    return extra, problems


def dump_spans(tracer, args) -> None:
    out_dir = CHECKOUT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(str(out_dir / f"spans-{args.workload}-{args.seed}.jsonl"))


# -- the parent process -------------------------------------------------------------


class Result:
    """Attempts, failures and failed checks of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def note(self, problems: list, what: str) -> None:
        """One attempted operation; it failed if any of its checks did."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


def repeated(seen: dict, variant, counts: dict) -> list[str]:
    """Equal inputs must give exactly equal counts: the failed check, if any."""
    first = seen.setdefault(str(variant), counts)
    if first != counts:
        return [f"counts did not repeat for inputs {variant}: {first} != {counts}"]
    return []


def run_batch(args, result: Result, variants: int) -> tuple[dict, dict, "dict | None"]:
    """Fresh-process operations for ``--seconds`` (at least ``MIN_OPS``)."""
    reports, counts, setups = [], {}, []
    probes = probe_count(args, "batch")
    start, probing = time.perf_counter(), 0.0

    def elapsed() -> float:
        """Seconds spent on operations so far (set-up probes excluded)."""
        return time.perf_counter() - start - probing

    while len(reports) < MIN_OPS or (
        # Stop when one more operation of the typical length would overrun.
        elapsed() + statistics.median(r["wall_s"] for r in reports) <= args.seconds
    ):
        index = len(reports)
        report = child(args, "op", index)
        problems = report["problems"] + repeated(counts, index % variants, report["counts"])
        result.note(problems, f"op {index}")
        reports.append(report)
        # Spread the set-up probes over the run: the host's speed drifts
        # over seconds, and a burst of probes would sample one moment of it.
        began = time.perf_counter()
        while len(setups) < probes * min(1.0, elapsed() / args.seconds):
            setups.append(setup_probe(args))
        probing += time.perf_counter() - began
    walls = [r["wall_s"] for r in reports]
    ms = [w * 1000.0 for w in walls]
    metrics = {
        "wall_s": statistics.median(walls),
        "req_per_s": len(walls) / sum(walls),
        "req_p50_ms": statistics.median(ms),
        "req_p99_ms": percentile(ms, 99),
        "peak_rss_mb": max(r["rss_mb"] for r in reports),
    }
    layer = None
    if args.trace:
        report = child(args, "traced-op", 0)
        result.note(report["problems"] + repeated(counts, 0, report["counts"]), "traced op")
        layer = report["layers"]
        layer["trace_overhead"] = report["wall_s"] / metrics["wall_s"]
    setups += [setup_probe(args) for _ in range(probes - len(setups))]
    metrics["setup_s"] = statistics.median(setups)
    detail = {
        "op_walls_s": walls,
        "setup_samples_s": setups,
        "counts": counts,
    }
    return metrics, detail, layer


def run_fleet(args, result: Result) -> tuple[dict, dict, "dict | None"]:
    """The closed loop in this process, then the untimed checks."""
    import_program()
    import workloads

    workdir = workdir_for(args)
    fleet = workloads.FleetMix(args.seed, args.size, workdir)
    try:
        fleet.setup()
        phase = fleet.run_loop(args.seconds, fleet.min_requests)
        latencies = phase["latencies_ms"]
        result.attempted += len(latencies)
        result.failed += phase["failures"]
        if phase["failures"]:
            result.problems.append(
                f"{phase['failures']} of {len(latencies)} requests failed: {phase['errors']}"
            )
        metrics = {
            "wall_s": statistics.median(fleet.block_seconds(phase["completions_s"])),
            "req_per_s": len(latencies) / phase["elapsed_s"],
            "req_p50_ms": statistics.median(latencies),
            "req_p99_ms": percentile(latencies, 99),
        }
        outcome = fleet.verify()
        result.note(outcome.problems, "fleet checks")
        layer = traced_loop(fleet, args, result, metrics["wall_s"]) if args.trace else None
        metrics["peak_rss_mb"] = rss_mb()
    finally:
        fleet.close()
        shutil.rmtree(workdir, ignore_errors=True)
    setups = [setup_probe(args) for _ in range(probe_count(args, "fleet"))]
    metrics["setup_s"] = statistics.median(setups)
    detail = {
        "requests": len(latencies),
        "elapsed_s": phase["elapsed_s"],
        "setup_samples_s": setups,
        "counts": outcome.counts,
    }
    return metrics, detail, layer


def traced_loop(fleet, args, result: Result, untraced_block_s: float) -> dict:
    """Half the minimum request count again, with every seam wrapped."""
    import layers
    from tracer import Patcher, Tracer

    tracer, patcher = Tracer(), Patcher()
    before, fleet_before = fleet.service_stats(), fleet.client.fleet_stats()
    layers.install(tracer, patcher)
    try:
        phase = fleet.run_loop(0.0, fleet.min_requests // 2, tracer=tracer)
    finally:
        patcher.restore()
    result.attempted += len(phase["latencies_ms"])
    result.failed += phase["failures"]
    if phase["failures"]:
        result.problems.append(f"{phase['failures']} traced requests failed: {phase['errors']}")
    after, fleet_after = fleet.service_stats(), fleet.client.fleet_stats()
    extra, problems = reconcile(tracer, None)
    result.note(problems, "traced loop")
    for field in ("store_hits", "dedup_savings", "measured", "retries", "failures"):
        extra[f"runtime.service.{field}"] = sum(
            getattr(a, field) - getattr(b, field) for a, b in zip(after, before)
        )
    served = [
        sum(getattr(a, f) - getattr(b, f) for f in ("store_hits", "measured", "dedup_savings"))
        for a, b in zip(after, before)
    ]
    extra["runtime.fleet.member_share_max"] = max(served) / max(sum(served), 1)
    for field in ("redirects", "failovers"):
        extra[f"runtime.fleet.{field}"] = fleet_after[field] - fleet_before[field]
    traced_block_s = statistics.median(fleet.block_seconds(phase["completions_s"]))
    extra["trace_overhead"] = traced_block_s / untraced_block_s
    dump_spans(tracer, args)
    return layers.metrics(tracer, PER_LAYER, extra)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.child:
        return run_child(args)
    import workloads

    if args.workload not in workloads.NAMES:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {workloads.NAMES}")
    result = Result()
    sentinel = sentinel_ms()
    if args.workload == workloads.FleetMix.name:
        metrics, detail, layer = run_fleet(args, result)
    else:
        variants = workloads.BATCH[args.workload].variants
        metrics, detail, layer = run_batch(args, result, variants)
    sentinel += sentinel_ms()
    if layer is None:
        values, table = metrics, SPEC["end_to_end"]
    else:
        layer["host.sentinel_ms"] = statistics.median(sentinel)
        values, table = layer, SPEC["per_layer"]
    reported = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "host": host_fingerprint(),
        "sentinel_ms": statistics.median(sentinel),
        "fail_frac": result.failed / max(result.attempted, 1),
        "metrics": metrics,
        "problems": result.problems,
        **detail,
    }
    print(json.dumps({"info": info}, default=str))
    correct = not result.problems and result.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": reported,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

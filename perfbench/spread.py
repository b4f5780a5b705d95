"""Measure the benchmark's own run-to-run spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --seeds 10 [--workloads dp_n18_cold fleet_mix]

Runs every chosen workload once per seed, interleaved round-robin (seed 1 of
every workload, then seed 2, ...), and prints, per workload and end-to-end
metric, the median of the runs and the distance between their first and
third quartiles as a share of that median.  Each share should stay below a
third of the metric's bound in ``BENCHMARK.json``.  Every run's result line
is appended to ``.perfbench_out/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    args = parser.parse_args(argv)

    out = CHECKOUT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    values: dict[str, dict[str, list[float]]] = {w: {} for w in args.workloads}
    failures = 0
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for workload in args.workloads:
            command = [
                *spec["command"],
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", "0",
            ]
            proc = subprocess.run(command, cwd=CHECKOUT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines() or ["{}"]
            line = lines[-1]
            with open(out / "spread.jsonl", "a", encoding="utf-8") as handle:
                handle.write(json.dumps({"workload": workload, "seed": seed, "lines": lines[-2:]}) + "\n")
            if proc.returncode != 0:
                failures += 1
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                continue
            for name, metric in json.loads(line)["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: ok", file=sys.stderr)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload, metrics in values.items():
        for name, series in metrics.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (median,) * 3
            share = (q3 - q1) / median if median else float("inf")
            flag = "" if share < bounds[name] / 3 else "  <-- above a third of the bound"
            print(
                f"{workload:18} {name:12} median {median:12.4f}  "
                f"iqr/median {share:.4f}  bound {bounds[name]}{flag}"
            )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

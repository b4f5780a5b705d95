"""The benchmark's own tests.

Run them by explicit path from the root of a checkout (they take about half a
minute, so the package's test suite does not collect them)::

    python -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(CHECKOUT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Patcher, Tracer  # noqa: E402


class FakeClock:
    """A clock the test advances by hand (nanoseconds)."""

    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now


# -- self-time arithmetic ------------------------------------------------------


def test_nested_spans_self_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.mark_driver()
    root = tracer.begin("op")
    clock.now = 10
    outer = tracer.begin("outer")
    clock.now = 15
    inner = tracer.begin("inner")
    clock.now = 45
    tracer.end(inner)
    clock.now = 60
    tracer.end(outer)
    clock.now = 65
    again = tracer.begin("inner")
    clock.now = 70
    tracer.end(again)
    clock.now = 100
    tracer.end(root)
    assert tracer.self_seconds("inner") * 1e9 == pytest.approx(35)
    assert tracer.self_seconds("outer") * 1e9 == pytest.approx(20)
    assert tracer.self_seconds("op") * 1e9 == pytest.approx(45)
    split = tracer.reconcile("op")
    assert split["traced_wall_s"] * 1e9 == pytest.approx(100)
    assert split["unattributed_s"] * 1e9 == pytest.approx(45)
    assert split["layer_s"] * 1e9 == pytest.approx(55)


def test_generator_seam_times_only_next_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def producer():
        for value in range(3):
            clock.now += 7  # producing costs 7 per item ...
            span = tracer.begin("child")  # ... plus a child layer costing 2
            clock.now += 2
            tracer.end(span)
            yield value
        clock.now += 1  # the final StopIteration costs 1

    root = tracer.begin("op")
    items = []
    for item in tracer.iterate("gen", producer(), on_item=lambda _: tracer.count("items")):
        clock.now += 100  # the consumer's own work is not the generator's
        items.append(item)
    tracer.end(root)
    assert items == [0, 1, 2]
    assert tracer.calls("gen") == 4  # three items and the exhausting call
    assert tracer.self_seconds("gen") * 1e9 == pytest.approx(3 * 7 + 1)
    assert tracer.self_seconds("child") * 1e9 == pytest.approx(3 * 2)
    assert tracer.self_seconds("op") * 1e9 == pytest.approx(300)
    assert tracer.counter("items") == 3


def test_out_of_order_end_is_an_error():
    tracer = Tracer()
    first = tracer.begin("a")
    tracer.begin("b")
    with pytest.raises(RuntimeError):
        tracer.end(first)


def test_counts_that_differ_are_reported():
    seen: dict = {}
    assert run.repeated(seen, 0, {"misses": 5}) == []
    assert run.repeated(seen, 1, {"misses": 9}) == []
    assert run.repeated(seen, 0, {"misses": 5}) == []
    problems = run.repeated(seen, 0, {"misses": 6})
    assert problems
    result = run.Result()
    result.note(problems, "op 2")
    result.note([], "op 3")
    assert (result.attempted, result.failed) == (2, 1)


# -- seams ---------------------------------------------------------------------


def _bindings() -> dict:
    """Every attribute of every loaded ``repro`` module and of its classes."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            found[(name, key)] = value
            if inspect.isclass(value):
                for attr, raw in list(vars(value).items()):
                    found[(name, key, attr)] = raw
    found[("threading.Thread.join",)] = vars(__import__("threading").Thread)["join"]
    return found


@pytest.fixture(scope="module")
def traced_tiny_runs():
    """Tiny runs of all four workloads under one installed trace."""
    import repro  # noqa: F401  (load every module before taking the snapshot)
    from repro.machine.configs import tiny_machine
    from repro.models import theory
    from repro.wht.canonical import right_recursive_plan

    workdir = CHECKOUT / ".perfbench_work" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    before = _bindings()
    tracer, patcher = Tracer(), Patcher()
    layers.install(tracer, patcher)
    outcomes = []
    try:
        tracer.mark_driver()
        for name in workloads.BATCH:
            workload = workloads.make(name, 0, "tiny", str(workdir))
            workload.setup()
            outcomes.append(workload.op(0))
        fleet = workloads.FleetMix(0, "tiny", str(workdir))
        try:
            fleet.setup()
            fleet.run_loop(0.0, fleet.min_requests, tracer=tracer)
            outcomes.append(fleet.verify())
        finally:
            fleet.close()
        # The tiny workloads fit L2 and skip the theory kind; reach those
        # seams directly.
        tiny_machine().prepare_batch([right_recursive_plan(10)])
        theory.extreme_instruction_counts(6)
    finally:
        patcher.restore()
        shutil.rmtree(workdir, ignore_errors=True)
    return tracer, outcomes, before


def test_every_seam_records_a_span(traced_tiny_runs):
    tracer, outcomes, _ = traced_tiny_runs
    spans = {name.removesuffix(".busy_s") for name in run.PER_LAYER if name.endswith(".busy_s")}
    missing = spans - tracer.names()
    assert not missing, f"seams that recorded nothing: {sorted(missing)}"
    assert all(outcome.ok for outcome in outcomes), [o.problems for o in outcomes]
    for counter in ("machine.cache.l2.sim_accesses", "runtime.transport.frames", "suite.units"):
        assert tracer.counter(counter) > 0, counter


def test_originals_are_restored(traced_tiny_runs):
    _, _, before = traced_tiny_runs
    after = _bindings()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert not changed, changed[:10]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(workloads.NAMES)


# -- whole runs ----------------------------------------------------------------


def _run(workload: str, trace: int, cwd: Path = CHECKOUT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload, "--seed", "3", "--seconds", "0.2",
            "--trace", str(trace), "--size", "tiny",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_passes_its_checks(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = run.SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in table
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program():
    bare = CHECKOUT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(CHECKOUT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("dp_n18_cold", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)

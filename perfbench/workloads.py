"""The four benchmark workloads.

Each workload builds its fixtures in :meth:`setup`, runs timed operations
and checks every result it produces.  An operation returns an
:class:`Outcome`: whether its checks passed, and the counts its inputs
determine (simulated accesses and misses, plans, records, digests), which
must repeat exactly whenever the same inputs run again.

Three workloads are *batch* workloads: one operation is one cold search or
one cold suite run.  ``fleet_mix`` is a closed loop of requests against a
loopback-TCP fleet; see :meth:`FleetMix.run_loop`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CHECKOUT = Path(__file__).resolve().parents[1]
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


@dataclass
class Outcome:
    """One operation's failed checks and its input-determined counts."""

    counts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def check(self, condition: bool, problem: str) -> None:
        if not condition:
            self.problems.append(problem)


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def sub_seed(seed: int, index: int) -> int:
    """A per-operation seed: a deterministic function of the run seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def opteron_config():
    from repro.machine.configs import opteron_like

    return opteron_like(noise_sigma=0.0).config


def scalar_cycles(config, plan) -> float:
    """A fresh scalar re-measure through the per-call cost function."""
    from repro.machine.machine import SimulatedMachine
    from repro.search.costs import MeasuredCyclesCost

    return float(MeasuredCyclesCost(SimulatedMachine(config))(plan))


def tree_digest(root: str, exclude: tuple[str, ...] = ()) -> tuple[str, int]:
    """SHA-256 over the sorted relative paths and bytes under ``root``."""
    digest = hashlib.sha256()
    total = 0
    for directory, subdirs, files in os.walk(root):
        subdirs.sort()
        for name in sorted(files):
            path = os.path.join(directory, name)
            rel = os.path.relpath(path, root)
            if rel in exclude:
                continue
            with open(path, "rb") as handle:
                data = handle.read()
            digest.update(rel.encode() + b"\0" + data + b"\0")
            total += len(data)
    return digest.hexdigest(), total


class BatchWorkload:
    """A workload whose operation is one cold search or suite run."""

    name = ""
    #: Distinct input sets a run cycles through; operation ``i`` uses set
    #: ``i % variants``, and equal sets must give equal counts.
    variants = 1

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = int(seed)
        self.size = size
        self.workdir = workdir
        self.expected = load_expected().get(self.name, {})

    def setup(self) -> None:
        self.config = opteron_config()

    def op(self, index: int) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        pass


class DPCold(BatchWorkload):
    """``dp_search`` through a cold ``CostEngine`` over an empty store.

    The machine is noise-free, so the search and its result do not depend on
    the seed (which only feeds the engine's per-plan noise derivation).
    """

    name = "dp_n18_cold"

    def op(self, index: int) -> Outcome:
        from repro.machine.machine import SimulatedMachine
        from repro.runtime.cost_engine import CostEngine
        from repro.runtime.store import MemoryStore
        from repro.search import dp

        n = 18 if self.size == "full" else 10
        engine = CostEngine(SimulatedMachine(self.config), store=MemoryStore(), seed=self.seed)
        result = dp.dp_search(n, engine)
        best = result.best(n)
        cost = float(result.best_costs[n])
        out = Outcome()
        if self.size == "full":
            out.check(str(best) == self.expected["best_plan"], f"best plan {best}")
            out.check(cost == self.expected["best_cost"], f"best cost {cost}")
        out.check(scalar_cycles(self.config, best) == cost, "scalar re-measure differs")
        measured = engine.measured
        plans = [record.plan for k in range(1, n + 1) for record in result.candidates_for(k)]
        totals = _counter_totals(engine, plans)
        out.check(engine.measured == measured, "re-reading records measured again")
        out.counts = {"measured": measured, "candidates": len(plans), **totals}
        if self.size == "full":
            out.check(out.counts == self.expected["counts"], f"counts {out.counts}")
        return out


class PrunedSearch(BatchWorkload):
    """``ModelPrunedSearch``: combined-model filter, cycle-measured survivors."""

    name = "pruned_n14"
    variants = 3

    def op(self, index: int) -> Outcome:
        from repro.machine.machine import SimulatedMachine
        from repro.runtime.cost_engine import CostEngine
        from repro.runtime.store import MemoryStore
        from repro.search.pruned import ModelPrunedSearch

        n, samples = (14, 1000) if self.size == "full" else (10, 100)
        engine = CostEngine(SimulatedMachine(self.config), store=MemoryStore(), seed=self.seed)
        search = ModelPrunedSearch(
            model_cost="model_combined",
            measure_cost="cycles",
            samples=samples,
            keep_fraction=0.25,
            engine=engine,
        )
        report = search.search(n, rng=sub_seed(self.seed, index % self.variants))
        result = report.result
        out = Outcome()
        survivors = [plan for plan, _ in result.history]
        # The best quarter survives, plus any candidate tying the threshold.
        keep = math.ceil(0.25 * result.considered)
        model = [r.values["model_combined"] for r in engine.records(survivors, ("model_combined",))]
        below = sum(value < report.threshold for value in model)
        out.check(
            len(survivors) == keep or (below < keep and max(model) == report.threshold),
            f"{len(survivors)} survivors of {result.considered} candidates",
        )
        out.check(max(model) <= report.threshold, "a survivor is above the threshold")
        out.check(
            report.measured_evaluations == len(survivors),
            f"{report.measured_evaluations} measured for {len(survivors)} survivors",
        )
        out.check(
            scalar_cycles(self.config, result.best_plan) == result.best_cost,
            "scalar re-measure differs",
        )
        out.counts = {
            "candidates": result.considered,
            "measured": report.measured_evaluations,
            "best_cost": result.best_cost,
            **_counter_totals(engine, survivors),
        }
        return out


class PaperSuite(BatchWorkload):
    """``repro.suite`` of the committed paper spec into empty directories."""

    name = "paper_suite_cold"
    #: The committed spec's own seed; benchmark seed ``s`` runs seed base + s.
    base_seed = 20070122

    def setup(self) -> None:
        spec_name = "paper.json" if self.size == "full" else "ci.json"
        with open(CHECKOUT / "benchmarks" / "suites" / spec_name, encoding="utf-8") as handle:
            self.spec = json.load(handle)
        self.spec["seeds"] = [self.base_seed + self.seed]

    def op(self, index: int) -> Outcome:
        import repro

        root = os.path.join(self.workdir, f"suite-{index}")
        store, artifacts = os.path.join(root, "store"), os.path.join(root, "artifacts")
        try:
            result = repro.suite(self.spec, store=store, artifacts=artifacts).run()
            with open(os.path.join(artifacts, "manifest.json"), encoding="utf-8") as handle:
                units = json.load(handle)["units"]
            digest, sink_bytes = tree_digest(artifacts, exclude=("manifest.json",))
        finally:
            shutil.rmtree(root, ignore_errors=True)
        out = Outcome()
        bad = sorted(uid for uid, unit in units.items() if unit["status"] != "complete")
        out.check(not bad and len(units) == len(result.results), f"units not ok: {bad}")
        out.check(not result.failed, "suite reported failed units")
        if self.size == "full" and self.seed == 0:
            out.check(digest == self.expected["seed0_digest"], f"sink digest {digest}")
        out.counts = {
            "units": len(units),
            "measured": result.total_measured,
            "sink_bytes": sink_bytes,
            "digest": digest,
        }
        return out


def _counter_totals(engine, plans) -> dict:
    """Sums of the simulated statistics over ``plans`` (from the cache)."""
    names = ("instructions", "l1_accesses", "l1_misses", "l2_misses")
    totals = dict.fromkeys(names, 0)
    for record in engine.records(plans, names):
        for name in names:
            totals[name] += int(record.values[name])
    return totals


class FleetMix:
    """Closed-loop Zipf traffic from two client threads over a 2-member fleet.

    Setup starts two in-process ``CampaignService`` members over one shared
    ``ShardedRecordStore``, serves each over loopback TCP, joins them into a
    fleet and warms the store through a ``FleetClient`` with ``population``
    distinct RSU plans.  Each request then asks for ``request_plans`` plans
    drawn Zipf(1.1) from that population; every tenth request of a thread
    also carries one plan nobody requested before, drawn when it is due from
    the same seeded sampler (see :meth:`fresh_plan`).
    """

    name = "fleet_mix"
    threads = 2
    zipf_exponent = 1.1

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = int(seed)
        self.size = size
        self.workdir = workdir
        full = size == "full"
        self.n = 12 if full else 8
        self.population_size = 2000 if full else 100
        self.request_plans = 16 if full else 4
        self.min_requests = 1000 if full else 40
        #: Completions per ``wall_s`` block.
        self.block = 100 if full else 10
        self.expected = load_expected().get(self.name, {})
        self.services: list = []
        self.servers: list = []
        self.client = None

    # -- setup -----------------------------------------------------------------

    def setup(self) -> None:
        from repro.runtime.fleet import FleetClient
        from repro.runtime.service import CampaignService
        from repro.runtime.sharded_store import ShardedRecordStore
        from repro.runtime.transport import serve_tcp
        from repro.wht.random_plans import RSUSampler

        self.config = opteron_config()
        self.sampler, self.sampler_rng = RSUSampler(), np.random.default_rng(self.seed)
        self.keys: set[str] = set()
        self.fresh: list = []
        self.fresh_lock = threading.Lock()
        self.population = self.distinct_plans(self.population_size)
        ranks = np.arange(1, self.population_size + 1, dtype=np.float64)
        weights = ranks**-self.zipf_exponent
        self.weights = weights / weights.sum()

        store_dir = os.path.join(self.workdir, "fleet-store")
        self.services = [
            CampaignService(
                store=ShardedRecordStore(store_dir, auto_compact=None),
                workers=2,
                shared_store=True,
                name=f"member{index}",
            )
            for index in range(2)
        ]
        self.servers = [serve_tcp(service) for service in self.services]
        urls = [server.url for server in self.servers]
        for server in self.servers:
            server.join_fleet(urls, self_url=server.url)
        self.client = FleetClient(urls, self.config, seed=self.seed)
        for start in range(0, self.population_size, 250):
            self.client.records(self.population[start : start + 250], ("cycles",))
        self.warm_measured = self.measured_total()
        self.fresh_requested: set[int] = set()
        self.fresh_due = 0
        self.fresh_next = 0
        self.samples: list = []

    def distinct_plans(self, count: int) -> list:
        """The next ``count`` sampled plans not drawn before."""
        from repro.wht.encoding import plan_key

        plans: list = []
        while len(plans) < count:
            for plan in self.sampler.sample_many(self.n, count - len(plans), rng=self.sampler_rng):
                key = plan_key(plan)
                if key not in self.keys:
                    self.keys.add(key)
                    plans.append(plan)
        return plans

    def fresh_plan(self, pick: int):
        """Never-requested plan number ``pick``.  Plans are drawn one at a
        time in order of their number, so each number names the same plan in
        every run."""
        with self.fresh_lock:
            while pick >= len(self.fresh):
                self.fresh += self.distinct_plans(1)
            return self.fresh[pick]

    def measured_total(self) -> int:
        return sum(service.stats().measured for service in self.services)

    def service_stats(self) -> list:
        return [service.stats() for service in self.services]

    # -- the closed loop ---------------------------------------------------------

    def run_loop(self, seconds: float, min_requests: int, tracer=None) -> dict:
        """Both client threads request until ``seconds`` have passed and at
        least ``min_requests`` requests completed; returns latencies (ms),
        sorted completion times (s from the start), failures and the first
        few errors."""
        lock = threading.Lock()
        latencies: list[float] = []
        completions: list[float] = []
        failures = [0]
        errors: list[str] = []
        fresh_used = [0] * self.threads
        keep_samples = 32
        start = time.perf_counter()
        deadline = start + seconds
        base = self.fresh_next

        def client_thread(slot: int) -> None:
            rng = np.random.default_rng([self.seed, slot, base])
            root = None
            if tracer is not None:
                tracer.mark_driver()
                root = tracer.begin("op")
            try:
                issued = 0
                while True:
                    with lock:
                        done = len(latencies)
                    if time.perf_counter() >= deadline and done >= min_requests:
                        break
                    draws = rng.choice(self.population_size, self.request_plans, p=self.weights)
                    plans = [self.population[i] for i in draws]
                    if issued % 10 == 9:
                        # Thread ``slot`` owns every ``threads``-th fresh plan.
                        pick = base + self.threads * fresh_used[slot] + slot
                        plans.append(self.fresh_plan(pick))
                        fresh_used[slot] += 1
                        with lock:
                            self.fresh_due += 1
                            self.fresh_requested.add(pick)
                    issued += 1
                    began = time.perf_counter()
                    error = None
                    try:
                        records = self.client.records(plans, ("cycles",))
                    except Exception as exc:  # a failed request counts against fail_frac
                        records, error = None, repr(exc)
                    ended = time.perf_counter()
                    with lock:
                        latencies.append((ended - began) * 1000.0)
                        completions.append(ended - start)
                        if records is None:
                            failures[0] += 1
                            if len(errors) < 5:
                                errors.append(error)
                        elif len(self.samples) < keep_samples:
                            self.samples.append((plans, [r.values["cycles"] for r in records]))
            finally:
                if root is not None:
                    tracer.end(root)

        workers = [
            threading.Thread(target=client_thread, args=(slot,), name=f"bench-client-{slot}")
            for slot in range(self.threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        elapsed = time.perf_counter() - start
        self.fresh_next = max(self.fresh_requested, default=-1) + 1
        return {
            "latencies_ms": latencies,
            "completions_s": sorted(completions),
            "failures": failures[0],
            "errors": errors,
            "elapsed_s": elapsed,
        }

    def block_seconds(self, completions: list[float]) -> list[float]:
        """Seconds taken by each consecutive block of ``block`` completions."""
        marks = [0.0] + completions[self.block - 1 :: self.block]
        return [b - a for a, b in zip(marks, marks[1:])]

    # -- checks ------------------------------------------------------------------

    def verify(self) -> Outcome:
        """Untimed checks after the loop: zero duplicate measurements, no
        redirects or failovers, and sampled responses equal to a private
        serial engine's records."""
        from repro.machine.machine import SimulatedMachine
        from repro.runtime.backends import SerialBackend
        from repro.runtime.cost_engine import CostEngine
        from repro.runtime.store import MemoryStore
        from repro.wht.encoding import plan_key

        out = Outcome()
        out.check(
            len(self.fresh_requested) == self.fresh_due,
            f"{len(self.fresh_requested)} fresh plans for {self.fresh_due} requests due one",
        )
        requested = {plan_key(p) for p in self.population}
        requested.update(plan_key(self.fresh[i]) for i in self.fresh_requested)
        measured = self.measured_total()
        out.check(measured == len(requested), f"{measured} measured for {len(requested)} plans")
        stats = self.service_stats()
        fleet = self.client.fleet_stats()
        redirects = fleet["redirects"] + sum(s.redirects for s in stats)
        failovers = fleet["failovers"] + sum(s.failovers for s in stats)
        out.check(redirects == 0 and failovers == 0, f"{redirects} redirects, {failovers} failovers")
        engine = CostEngine(
            SimulatedMachine(self.config), backend=SerialBackend(), store=MemoryStore(), seed=self.seed
        )
        for plans, values in self.samples:
            private = [r.values["cycles"] for r in engine.records(plans, ("cycles",))]
            out.check(private == values, "a response differs from a private serial engine")
        out.check(bool(self.samples), "no response sampled")
        population = hashlib.sha256(
            "\n".join(plan_key(p) for p in self.population).encode()
        ).hexdigest()
        out.counts = {"warm_measured": self.warm_measured, "population": population}
        if self.size == "full" and self.seed == 0:
            out.check(out.counts == self.expected["seed0_counts"], f"counts {out.counts}")
        return out

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        for server in self.servers:
            server.close()
        for service in self.services:
            service.shutdown()


BATCH = {cls.name: cls for cls in (DPCold, PrunedSearch, PaperSuite)}
NAMES = (*BATCH, FleetMix.name)


def make(name: str, seed: int, size: str, workdir: str):
    if name == FleetMix.name:
        return FleetMix(seed, size, workdir)
    return BATCH[name](seed, size, workdir)

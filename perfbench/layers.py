"""The layer table: which public call is wrapped at each seam, and what it reports.

Layers are named after the package modules.  :func:`install` wraps every
seam for one traced run; :func:`metrics` turns the tracer's aggregates into
the ``<module>.<seam>.<quantity>`` metrics ``BENCHMARK.json`` lists.  Counts
are taken outside the timed span, so a seam's ``busy_s`` is the wrapped
call's own self time.
"""

from __future__ import annotations

import importlib
import threading


def install(tracer, patcher) -> None:
    """Wrap every seam; ``patcher.restore()`` puts the originals back."""
    # By module path: a package may re-export a function under the name of
    # one of its modules (``repro.wht.random_plans``).
    (cache, hierarchy, machine, trace, cache_misses, instruction_count, theory,
     backends, cost_engine, fleet, service, sharded_store, store, transport,
     dp, pruned, manifest, sinks, encoding, interpreter, random_plans) = (
        importlib.import_module(f"repro.{path}")
        for path in (
            "machine.cache", "machine.hierarchy", "machine.machine", "machine.trace",
            "models.cache_misses", "models.instruction_count", "models.theory",
            "runtime.backends", "runtime.cost_engine", "runtime.fleet", "runtime.service",
            "runtime.sharded_store", "runtime.store", "runtime.transport",
            "search.dp", "search.pruned", "suite.manifest", "suite.sinks",
            "wht.encoding", "wht.interpreter", "wht.random_plans",
        )
    )

    def timed(name, after=None, before=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                state = before(args, kwargs) if before is not None else None
                frame = tracer.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.end(frame)
                if after is not None:
                    after(args, kwargs, result, state)
                return result

            return wrapper

        return make

    def iterated(name, on_item):
        def make(fn):
            def wrapper(*args, **kwargs):
                return tracer.iterate(name, fn(*args, **kwargs), on_item)

            return wrapper

        return make

    def outermost(name):
        """``before`` hook: whether this call is not nested in its own layer."""
        return lambda args, kwargs: not tracer.inside(name)

    # machine.cache: one simulator class per level on the machines used here.
    def simulated(level):
        def after(args, kwargs, mask, state):
            tracer.count(f"machine.cache.{level}.sim_accesses", len(args[1]))
            tracer.count(f"machine.cache.{level}.misses", int(mask.sum()))

        return after

    patcher.method(cache.TwoWayLRUCache, "simulate", timed("machine.cache.l1", simulated("l1")))
    patcher.method(cache.NWayLRUCache, "simulate", timed("machine.cache.l2", simulated("l2")))

    # machine.trace: generators, timed per next().
    def chunk_counter(seam):
        def on_item(chunk):
            tracer.count(f"machine.trace.{seam}.chunks")
            tracer.count(f"machine.trace.{seam}.lines", chunk.lines.shape[0])

        return on_item

    patcher.function(
        trace, "stream_line_chunks", iterated("machine.trace.stream", chunk_counter("stream"))
    )
    patcher.function(
        trace, "splice_line_chunks", iterated("machine.trace.splice", chunk_counter("splice"))
    )

    # machine.hierarchy: batch simulation self time and analytic outcomes.
    def batch_plans(args, kwargs, result, state):
        tracer.count("machine.hierarchy.simulated_plans", len(result))

    def resolved(counter):
        def after(args, kwargs, result, state):
            if result is not None:
                tracer.count(counter)

        return after

    Hierarchy = hierarchy.MemoryHierarchy
    patcher.method(
        Hierarchy, "process_line_chunks_batch", timed("machine.hierarchy", batch_plans)
    )
    patcher.method(
        Hierarchy,
        "analytic_coverage_stats",
        timed("machine.hierarchy", resolved("machine.hierarchy.analytic_l1_plans")),
    )
    patcher.method(
        Hierarchy,
        "analytic_l2_misses",
        timed("machine.hierarchy", resolved("machine.hierarchy.analytic_l2_plans")),
    )

    # machine.prepare
    def prepared(args, kwargs, result, state):
        tracer.count("machine.prepare.plans", len(result))
        tracer.count(
            "machine.prepare.distinct", len({encoding.plan_key(p.plan) for p in result})
        )

    def prepared_one(args, kwargs, result, state):
        tracer.count("machine.prepare.plans")
        tracer.count("machine.prepare.distinct")

    Machine = machine.SimulatedMachine
    patcher.method(Machine, "prepare_batch", timed("machine.prepare", prepared))
    patcher.method(Machine, "prepare", timed("machine.prepare", prepared_one))

    # wht
    patcher.method(
        interpreter.PlanInterpreter,
        "iter_nest_blocks",
        iterated("wht.interpreter", lambda block: tracer.count("wht.interpreter.blocks")),
    )

    def sampled(args, kwargs, result, outer):
        if outer:
            tracer.count("wht.random_plans.plans", len(result) if isinstance(result, list) else 1)

    for attr in ("sample", "sample_many"):
        patcher.method(
            random_plans.RSUSampler,
            attr,
            timed("wht.random_plans", sampled, outermost("wht.random_plans")),
        )

    # models
    def encoded(args, kwargs, result, outer):
        if outer:
            tracer.count("models.batch.plans", result.num_plans)

    patcher.function(
        encoding, "encode_plans", timed("models.batch", encoded, outermost("models.batch"))
    )
    patcher.method(instruction_count.InstructionCountModel, "count_batch", timed("models.batch"))
    patcher.method(cache_misses.CacheMissModel, "misses_batch", timed("models.batch"))
    patcher.function(theory, "extreme_instruction_counts", timed("models.theory"))

    # runtime.cost_engine
    def engine_before(args, kwargs):
        return args[0].measured

    def engine_after(args, kwargs, result, measured_before):
        tracer.count("runtime.cost_engine.requested", len(args[1]))
        tracer.count("runtime.cost_engine.measured", args[0].measured - measured_before)

    patcher.method(
        cost_engine.CostEngine,
        "records",
        timed("runtime.cost_engine", engine_after, engine_before),
    )

    # runtime.store: the concrete store classes (views forward to these).
    def appended(args, kwargs, result, outer):
        if outer:
            tracer.count("runtime.store.append.records", len(args[2]))

    for cls in (store.MemoryStore, store.NullStore, store.DiskStore, sharded_store.ShardedRecordStore):
        patcher.method(
            cls,
            "append_cost_records",
            timed("runtime.store.append", appended, outermost("runtime.store.append")),
        )
        patcher.method(cls, "get_cost_records", timed("runtime.store.read"))

    # runtime.service: execution on the service's worker threads, and the
    # server-side wait for a ticket's records.
    def service_execute(fn):
        timed_fn = timed("runtime.service.execute")(fn)

        def wrapper(*args, **kwargs):
            if "-worker-" in threading.current_thread().name:
                return timed_fn(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    patcher.method(backends.BatchedBackend, "measure_units", service_execute)
    patcher.method(service.JobTicket, "result", timed("runtime.service.wait"))

    # runtime.transport: frames are counted where they are sent (each is
    # received once).  ``recv`` is not timed: a reader thread spends its
    # life blocked in it, waiting for the next frame.
    def sent(args, kwargs, result, state):
        tracer.count("runtime.transport.frames")
        tracer.count("runtime.transport.bytes", len(args[1]))

    patcher.method(transport.FrameTransport, "encode", timed("runtime.transport"))
    patcher.method(transport.FrameTransport, "send_bytes", timed("runtime.transport", sent))
    patcher.method(transport.RemoteTransport, "call", timed("runtime.transport.call"))

    # runtime.fleet: client self time, less the time it waits to join the
    # per-member submit threads it fans a batch out to.
    patcher.method(fleet.FleetClient, "records", timed("runtime.fleet"))

    def fleet_join(fn):
        timed_fn = timed("runtime.fleet.join")(fn)

        def wrapper(*args, **kwargs):
            if tracer.current() == "runtime.fleet":
                return timed_fn(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    patcher.method(threading.Thread, "join", fleet_join)

    # search: DP and the two stages of the pruned search.
    patcher.function(dp, "dp_search", timed("search.dp"))
    stage_calls: dict[int, int] = {}

    def search_before(args, kwargs):
        stage_calls[threading.get_ident()] = 0

    patcher.method(pruned.ModelPrunedSearch, "search", timed("search.pruned", before=search_before))
    patcher.method(
        pruned.ModelPrunedSearch, "generate_candidates", timed("search.pruned.stage1")
    )
    stage1 = timed("search.pruned.stage1")
    stage2 = timed("search.pruned.stage2")

    def staged(fn):
        first, second = stage1(fn), stage2(fn)

        def wrapper(*args, **kwargs):
            ident = threading.get_ident()
            index = stage_calls.get(ident, 0)
            stage_calls[ident] = index + 1
            return (first if index == 0 else second)(*args, **kwargs)

        return wrapper

    patcher.binding(pruned, "evaluate_cost_batch", staged)

    # suite
    for cls in (sinks.CSVSink, sinks.JSONLSink, sinks.FigureArtifactSink):
        patcher.method(cls, "write", timed("suite.sinks"))
    patcher.method(manifest.Manifest, "flush", timed("suite.manifest"))

    def unit_recorded(args, kwargs, result, state):
        tracer.count("suite.units")

    patcher.method(manifest.Manifest, "record_unit", timed("suite.manifest", unit_recorded))


def metrics(tracer, names, extra: dict[str, float]) -> dict[str, float]:
    """The value of every metric in ``names``: from ``extra`` if there, else a
    span's self time (``<span>.busy_s``), a span's call count
    (``<span>.calls``) or a counter the seams recorded (0 if never reached)."""
    values: dict[str, float] = {}
    for name in names:
        if name in extra:
            values[name] = extra[name]
        elif name.endswith(".busy_s"):
            values[name] = tracer.self_seconds(name.removesuffix(".busy_s"))
        elif name.endswith(".calls"):
            values[name] = tracer.calls(name.removesuffix(".calls"))
        else:
            values[name] = tracer.counter(name)
    return values

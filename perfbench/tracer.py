"""In-memory span recorder and seam patcher for the traced benchmark run.

A span is one call into a layer: a name, the thread it ran on, its start and
end (``perf_counter_ns``) and its depth below the thread's root span.  Each
thread keeps its own stack, so a span's *self time* is its duration minus
the time its same-thread child spans cover.  Spans stay in memory (up to
``max_spans``; the aggregates are always complete) and are written out by
:meth:`Tracer.dump` when the run ends.

:class:`Patcher` installs wrappers at the seams and restores the originals.
A module-level function is rebound in every loaded ``repro`` module that
holds it, because callers look a function up under the name *they*
imported (``repro.machine.machine.stream_line_chunks``, not only
``repro.machine.trace.stream_line_chunks``).
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import threading
import time

__all__ = ["Patcher", "Tracer"]


class _ThreadState:
    __slots__ = ("name", "driver", "stack", "spans", "self_ns", "top_ns", "calls", "counts")

    def __init__(self, thread: threading.Thread):
        self.name = thread.name
        self.driver = False
        #: Open spans, innermost last: ``[name, start_ns, child_ns]``.
        self.stack: list[list] = []
        #: Closed spans: ``(name, depth, start_ns, end_ns, self_ns)``.
        self.spans: list[tuple] = []
        self.self_ns: dict[str, int] = {}
        #: Total duration of the spans opened on an empty stack, by name.
        self.top_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}


class Tracer:
    """Per-thread span stacks with self-time aggregation."""

    def __init__(self, max_spans: int = 300_000, clock=time.perf_counter_ns):
        self.max_spans = max_spans
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread())
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> list:
        frame = [name, 0, 0]
        self._state().stack.append(frame)
        frame[1] = self.clock()
        return frame

    def end(self, frame: list) -> None:
        now = self.clock()
        state = self._state()
        stack = state.stack
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        stack.pop()
        name, start, child = frame
        duration = now - start
        own = duration - child
        if stack:
            stack[-1][2] += duration
        else:
            state.top_ns[name] = state.top_ns.get(name, 0) + duration
        state.self_ns[name] = state.self_ns.get(name, 0) + own
        state.calls[name] = state.calls.get(name, 0) + 1
        if len(state.spans) < self.max_spans:
            state.spans.append((name, len(stack), start, now, own))

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager form of :meth:`begin`/:meth:`end`."""
        frame = self.begin(name)
        try:
            yield
        finally:
            self.end(frame)

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        return any(frame[0] == name for frame in self._state().stack)

    def current(self) -> "str | None":
        stack = self._state().stack
        return stack[-1][0] if stack else None

    def count(self, name: str, value: int = 1) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + int(value)

    def iterate(self, name: str, iterator, on_item=None):
        """Re-yield ``iterator``, timing each ``next()`` as one span."""
        iterator = iter(iterator)
        try:
            while True:
                frame = self.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    self.end(frame)
                    return
                except BaseException:
                    self.end(frame)
                    raise
                self.end(frame)
                if on_item is not None:
                    on_item(item)
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    def mark_driver(self) -> None:
        """Declare the calling thread one that drives the workload."""
        self._state().driver = True

    # -- results -------------------------------------------------------------

    def _snapshot(self) -> list[_ThreadState]:
        with self._lock:
            return list(self._threads)

    def self_seconds(self, name: str) -> float:
        return sum(t.self_ns.get(name, 0) for t in self._snapshot()) / 1e9

    def calls(self, name: str) -> int:
        return sum(t.calls.get(name, 0) for t in self._snapshot())

    def counter(self, name: str) -> int:
        return sum(t.counts.get(name, 0) for t in self._snapshot())

    def names(self) -> set[str]:
        names: set[str] = set()
        for state in self._snapshot():
            names.update(state.calls)
        return names

    def reconcile(self, root: str) -> dict[str, float]:
        """Split the driver threads' time into layer self time and the rest.

        On a driver thread every span nests under a ``root`` span, so the
        self times of all its spans add up to the root spans' duration:
        ``layer_s + unattributed_s == traced_wall_s``.  Spans on other
        threads (server handlers, workers, fan-out submitters) run
        concurrently with that time and are summed as ``concurrent_s``.
        """
        layer = unattributed = wall = concurrent = 0
        for state in self._snapshot():
            if state.driver:
                for name, own in state.self_ns.items():
                    if name == root:
                        unattributed += own
                    else:
                        layer += own
                wall += state.top_ns.get(root, 0)
            else:
                concurrent += sum(state.self_ns.values())
        return {
            "layer_s": layer / 1e9,
            "unattributed_s": unattributed / 1e9,
            "traced_wall_s": wall / 1e9,
            "concurrent_s": concurrent / 1e9,
        }

    def dump(self, path: str) -> None:
        """Write every kept span as one JSON line: ``[thread, name, depth,
        start_ns, end_ns, self_ns]``."""
        with open(path, "w", encoding="utf-8") as handle:
            for state in self._snapshot():
                for span in state.spans:
                    handle.write(json.dumps([state.name, *span]) + "\n")


class Patcher:
    """Installs seam wrappers and puts every original back on :meth:`restore`."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module, attr: str, make_wrapper) -> None:
        """Wrap ``module.attr`` under every ``repro`` name bound to it."""
        original = getattr(module, attr)
        wrapped = functools.wraps(original)(make_wrapper(original))
        rebound = 0
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, key, wrapped)
                    rebound += 1
        if not rebound:
            raise LookupError(f"{module.__name__}.{attr} is bound nowhere")

    def binding(self, module, attr: str, make_wrapper) -> None:
        """Wrap the one binding ``module.attr`` (a caller's own import)."""
        original = getattr(module, attr)
        self._set(module, attr, functools.wraps(original)(make_wrapper(original)))

    def method(self, cls, attr: str, make_wrapper) -> None:
        """Wrap a method defined on ``cls`` itself (static methods too)."""
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            inner = raw.__func__
            self._set(cls, attr, staticmethod(functools.wraps(inner)(make_wrapper(inner))))
        else:
            self._set(cls, attr, functools.wraps(raw)(make_wrapper(raw)))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

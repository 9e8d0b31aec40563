"""Per-layer tracing for the traced run: timing wrappers + span capture.

:func:`install` wraps the public functions of each program layer --
looked up through the module that calls them -- with wrappers that
record one interval per call into an in-memory :class:`EventStore`,
and turns on the program's own ``repro.obs`` tracer with a tracer
whose events land in the same store.  Nothing under ``src/`` changes:
the wrappers live here and are installed only in traced processes.

:func:`aggregate` turns the intervals into per-layer *self* time (an
interval's duration minus what its direct children cover), nesting
them per thread -- or per asyncio task on the server's event loop,
where spans of concurrent requests interleave on one thread.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict

#: Nesting tolerance: program spans carry microsecond timestamps.
_TOL_NS = 1_000

#: asyncio-task identity on the server's event loop (unset elsewhere).
_TASK = contextvars.ContextVar("perfbench_task", default=None)
_TASK_IDS = itertools.count(1)


def _group():
    task = _TASK.get()
    return task if task is not None else threading.get_ident()


class EventStore:
    """Closed intervals ``(name, start_ns, end_ns, group, kind)``."""

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def add(self, name, start_ns, end_ns, kind=None):
        self.events.append((name, start_ns, end_ns, _group(), kind))

    def clear(self) -> None:
        self.events = []

    def dump(self, path: str) -> None:
        """Write the events as NDJSON (one interval per line)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, group, kind in self.events:
                handle.write(json.dumps(
                    {"name": name, "start_ns": start, "end_ns": end,
                     "group": str(group), "kind": kind}
                ) + "\n")


def _timed(store: EventStore, name: str, fn, kind_arg=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.time_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            kind = args[kind_arg] if kind_arg is not None else None
            store.add(name, start, time.time_ns(), kind)

    return wrapper


def _timed_async(store: EventStore, name: str, fn, *, new_task=False):
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        if new_task:
            _TASK.set(f"task-{next(_TASK_IDS)}")
        start = time.time_ns()
        try:
            return await fn(*args, **kwargs)
        finally:
            store.add(name, start, time.time_ns())

    return wrapper


def _patch(store, owner, attr: str, name: str, **kw) -> None:
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
        owner, attr
    )
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(_timed(store, name, raw.__func__)))
    else:
        setattr(owner, attr, _timed(store, name, raw, **kw))


def install(store: EventStore, *, serve: bool = False) -> None:
    """Wrap every traced layer and turn on the program's span tracer."""
    import repro.core.cache as cache
    import repro.core.spec as spec
    import repro.graphs.digraph as digraph
    import repro.resilience.adaptive as adaptive
    import repro.resilience.degrade as degrade
    import repro.resilience.faults as faults
    import repro.resilience.sweep as sweep
    import repro.simulation.engine as engine
    import repro.temporal.processes as processes
    import repro.temporal.replay as replay
    from repro.obs.trace import Tracer, enable_tracing

    _patch(store, spec.NetworkSpec, "parse", "core.spec.parse")
    _patch(store, cache.SpecCache, "entry", "core.cache.entry")
    _patch(store, cache.CacheEntry, "arrays", "core.cache.arrays")
    for module in (faults, adaptive):
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                for attr in ("sample_faults", "sample_faults_at"):
                    if attr in obj.__dict__:
                        _patch(store, obj, attr, "resilience.faults.sample")
    for module in (faults, sweep, replay):
        _patch(store, module, "trial_seed", "resilience.faults.seed")
    _patch(store, degrade.DegradedNetwork, "__init__",
           "resilience.degrade.build")
    for module, attrs in (
        (sweep, ("connectivity_metrics", "path_survival", "measure")),
        (replay, ("connectivity_metrics", "path_survival")),
    ):
        for attr in attrs:
            _patch(store, module, attr, "resilience.metrics.score")
    _patch(store, digraph.DiGraph, "bfs_distances", "graphs.digraph.bfs")
    _patch(store, engine.SlottedSimulator, "run", "simulation.engine.run")
    _patch(store, engine.SlottedSimulator, "step", "simulation.engine.step")
    _patch(store, processes.FaultProcess, "trace",
           "temporal.processes.compile")
    _patch(store, replay, "replay_trace", "temporal.replay.replay")
    for cls in (sweep.SweepSummary, replay.TemporalSummary):
        _patch(store, cls, "as_dict", "serialize")
        _patch(store, cls, "to_json", "serialize")
    if serve:
        import repro.serve.app as app

        _patch(store, app, "_dumps", "serialize")
        server = app.ReproServer
        server._handle_connection = _timed_async(
            store, "serve.connection", server._handle_connection,
            new_task=True,
        )
        server._respond = _timed_async(store, "serve.app.respond",
                                       server._respond)
        _patch(store, server, "_run_verb", "serve.app.run_verb", kind_arg=1)

    class _StoreTracer(Tracer):
        """The program's tracer, recording into the benchmark's store."""

        def add_complete(self, name, start_us, duration_us, args=None,
                         pid=None, tid=None):
            if pid is not None and pid != os.getpid():
                return  # a pool worker's chunk: not on this process's stack
            start = int(start_us) * 1000
            store.add(name, start, start + int(duration_us) * 1000)

    enable_tracing(_StoreTracer())


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def aggregate(events) -> dict:
    """``{(kind, name, parent): [calls, total_ns, self_ns]}``.

    Events nest per group (thread or asyncio task) by time containment;
    a root interval's ``kind`` is inherited by everything under it.
    """
    groups = defaultdict(list)
    for event in events:
        groups[event[3]].append(event)
    stats: dict[tuple, list[int]] = defaultdict(lambda: [0, 0, 0])

    def close(frame) -> None:
        name, start, end, kind, parent, child_ns = frame
        row = stats[(kind, name, parent)]
        row[0] += 1
        row[1] += end - start
        row[2] += max(end - start - child_ns, 0)

    for members in groups.values():
        members.sort(key=lambda e: (e[1], -e[2]))
        stack: list[list] = []
        for name, start, end, _group_key, kind in members:
            while stack and stack[-1][2] <= start:
                close(stack.pop())
            while stack and end > stack[-1][2] + _TOL_NS:
                close(stack.pop())  # partial overlap: not a child
            parent = None
            if stack:
                top = stack[-1]
                top[5] += end - start
                parent = top[0]
                kind = top[3] if kind is None else kind
            stack.append([name, start, end, kind, parent, 0])
        while stack:
            close(stack.pop())
    return dict(stats)


def totals(stats: dict, *, kind=None, name=None, parent=None) -> list[int]:
    """Summed ``[calls, total_ns, self_ns]`` over matching keys."""
    out = [0, 0, 0]
    for (k, n, p), row in stats.items():
        if kind is not None and k != kind:
            continue
        if name is not None and n != name:
            continue
        if parent is not None and p != parent:
            continue
        for i in range(3):
            out[i] += row[i]
    return out


def self_table(stats: dict, kind=None) -> dict[str, float]:
    """``{layer name: self seconds}``, optionally for one request kind."""
    table: dict[str, float] = defaultdict(float)
    for (k, n, _p), row in stats.items():
        if kind is None or k == kind:
            table[n] += row[2] / 1e9
    return dict(table)


def serializable(stats: dict) -> list:
    return [[k, n, p, *row] for (k, n, p), row in sorted(
        stats.items(), key=lambda item: tuple(str(x) for x in item[0])
    )]


def from_serializable(rows) -> dict:
    return {(k, n, p): [c, t, s] for k, n, p, c, t, s in rows}


def registry_totals() -> dict[str, float]:
    """The sweep counters of the program's global metrics registry."""
    from repro.obs.metrics import REGISTRY

    def counter_sum(name):
        return sum(c.value for c in REGISTRY.series(name).values())

    wait_sum = wait_count = 0.0
    for hist in REGISTRY.series("repro_sweep_queue_wait_seconds").values():
        _counts, total, count = hist.state()
        wait_sum += total
        wait_count += count
    return {
        "chunks": counter_sum("repro_sweep_chunks_total"),
        "trials": counter_sum("repro_sweep_trials_total"),
        "downgrades": counter_sum("repro_sweep_backend_downgrades_total"),
        "queue_wait_s": wait_sum,
        "queue_waits": wait_count,
    }

"""Per-layer metrics of the traced run, computed from aggregated intervals.

Every ``*_s`` metric is seconds **per timed request** of the traced
pass and, unless its definition below says otherwise, a *self* time:
the layer's own time minus the time of the layers it calls.  Counts
are per request too; ``*.connectivity`` / ``*.paths`` splits are per
request of that kind.
"""

from __future__ import annotations

from harness import scaled
from layers import from_serializable, self_table, totals

#: (name, unit) of every per-layer metric, in output order.
PER_LAYER = (
    ("core.spec.parse_s", "s/req"),
    ("core.cache.entry_s", "s/req"),
    ("core.cache.build_s", "s/req"),
    ("core.cache.arrays_s", "s/req"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.cache.spills", "1/req"),
    ("core.cache.spill_hits", "1/req"),
    ("resilience.faults.sample_s", "s/req"),
    ("resilience.faults.seed_s", "s/req"),
    ("resilience.faults.samples", "1/req"),
    ("resilience.faults.sample_s.connectivity", "s/req"),
    ("resilience.faults.sample_s.paths", "s/req"),
    ("resilience.sweep.prepare_s", "s/req"),
    ("resilience.sweep.execute_s", "s/req"),
    ("resilience.sweep.kernel_s", "s/req"),
    ("resilience.sweep.kernel_s.connectivity", "s/req"),
    ("resilience.sweep.kernel_s.paths", "s/req"),
    ("resilience.sweep.summarize_s", "s/req"),
    ("resilience.sweep.queue_wait_s", "s/req"),
    ("resilience.sweep.chunks", "1/req"),
    ("resilience.sweep.trials", "1/req"),
    ("resilience.sweep.downgrades", "1/req"),
    ("resilience.degrade.build_s", "s/req"),
    ("resilience.degrade.builds", "1/req"),
    ("resilience.metrics.score_s", "s/req"),
    ("graphs.digraph.bfs_s", "s/req"),
    ("graphs.digraph.bfs_calls", "1/req"),
    ("simulation.engine.run_s", "s/req"),
    ("simulation.engine.steps", "1/req"),
    ("temporal.processes.compile_s", "s/req"),
    ("temporal.replay.prepare_s", "s/req"),
    ("temporal.replay.replay_s", "s/req"),
    ("temporal.replay.segments", "1/req"),
    ("temporal.replay.execute_s", "s/req"),
    ("temporal.replay.execute_inline_s", "s/req"),
    ("temporal.replay.summarize_s", "s/req"),
    ("serialize_s", "s/req"),
    ("serve.app.parse_s", "s/req"),
    ("serve.app.queue_s", "s/req"),
    ("serve.app.admission_s", "s/req"),
    ("serve.app.execute_s", "s/req"),
    ("serve.app.write_s", "s/req"),
    ("serve.app.rejected", "1/req"),
    ("serve.app.bad_requests", "1/req"),
    ("serve.protocol.validate_s", "s/req"),
    ("serve.coalesce.follower_ratio", "ratio"),
    ("loadgen.lag_ms", "ms"),
    ("loadgen.backlog", "count"),
    ("unattributed_s", "s/req"),
    ("tracing.overhead_s", "s/req"),
    ("tracing.overhead_ratio", "ratio"),
)

#: Interval name -> the layer it is reported under (self time).
SELF_LAYERS = {
    "core.spec.parse": "core.spec.parse_s",
    "core.cache.entry": "core.cache.entry_s",
    "cache.build": "core.cache.build_s",
    "core.cache.arrays": "core.cache.arrays_s",
    "resilience.faults.sample": "resilience.faults.sample_s",
    "resilience.faults.seed": "resilience.faults.seed_s",
    "sweep.prepare": "resilience.sweep.prepare_s",
    "sweep.execute": "resilience.sweep.kernel_s",
    "sweep.summarize": "resilience.sweep.summarize_s",
    "resilience.degrade.build": "resilience.degrade.build_s",
    "resilience.metrics.score": "resilience.metrics.score_s",
    "graphs.digraph.bfs": "graphs.digraph.bfs_s",
    "simulation.engine.run": "simulation.engine.run_s",
    "simulation.engine.step": "simulation.engine.run_s",
    "temporal.processes.compile": "temporal.processes.compile_s",
    "temporal.prepare": "temporal.replay.prepare_s",
    "temporal.replay.replay": "temporal.replay.replay_s",
    "temporal.execute": "temporal.execute (self)",
    "temporal.summarize": "temporal.replay.summarize_s",
    "serialize": "serialize_s",
    "serve.parse": "serve.app.parse_s",
    "serve.validate": "serve.protocol.validate_s",
    "serve.admission": "serve.app.admission_s",
    "serve.coalesce": "serve.coalesce (follower wait)",
    "serve.app.respond": "serve.app.write_s",
    "serve.app.run_verb": "serve.app.run_verb (self)",
}
#: Roots: their self time is the time no layer accounts for.
ROOTS = ("request", "serve.connection", "serve.request")

#: Shares of one request quoted from a cProfile of the seed commit,
#: printed next to the traced split: (kind, layer) -> share.
CPROFILE_SHARES = {
    ("connectivity", "resilience.faults.sample_s"): 0.76,
    ("paths", "resilience.sweep.kernel_s"): 0.95,
    ("paths", "resilience.faults.sample_s"): 0.03,
}


def layer_split(stats: dict, kind=None) -> dict[str, float]:
    """``{layer: self seconds}`` over the partition of request time."""
    split: dict[str, float] = {}
    for name, seconds in self_table(stats, kind).items():
        layer = "unattributed_s" if name in ROOTS else SELF_LAYERS.get(
            name, name
        )
        split[layer] = split.get(layer, 0.0) + seconds
    if "serve.execute" in split:
        # the loop-side await spans the executor's work, which is
        # already split into the layers it ran: only the hop remains
        del split["serve.execute"]
        split["serve.app.queue_s"] = _total(stats, "serve.execute", kind) \
            - _total(stats, "serve.app.run_verb", kind)
    return split


def _self(stats, name, kind=None) -> float:
    return totals(stats, kind=kind, name=name)[2] / 1e9


def _total(stats, name, kind=None) -> float:
    return totals(stats, kind=kind, name=name)[1] / 1e9


def _calls(stats, name, parent=None, kind=None) -> int:
    return totals(stats, name=name, parent=parent, kind=kind)[0]


def _kind_counts(stats) -> dict:
    counts: dict = {}
    for (kind, name, _parent), row in stats.items():
        if name == "request":
            counts[kind] = counts.get(kind, 0) + row[0]
    return counts


def _inner_metrics(inner: dict, per: int) -> dict[str, float]:
    """The layers only an inline pass sees (samplers and kernels)."""
    kinds = _kind_counts(inner)
    out = {
        "resilience.faults.sample_s": _self(inner, "resilience.faults.sample"),
        "resilience.faults.seed_s": _self(inner, "resilience.faults.seed"),
        "resilience.faults.samples": _calls(inner, "resilience.faults.sample"),
        "resilience.sweep.kernel_s": _self(inner, "sweep.execute"),
        "resilience.degrade.build_s": _self(inner, "resilience.degrade.build"),
        "resilience.degrade.builds": _calls(inner, "resilience.degrade.build"),
        "resilience.metrics.score_s": _self(inner, "resilience.metrics.score"),
        "graphs.digraph.bfs_s": _self(inner, "graphs.digraph.bfs"),
        "graphs.digraph.bfs_calls": _calls(inner, "graphs.digraph.bfs"),
        "simulation.engine.run_s": _self(inner, "simulation.engine.run")
        + _self(inner, "simulation.engine.step"),
        "simulation.engine.steps": _calls(inner, "simulation.engine.step"),
        "temporal.processes.compile_s": _self(
            inner, "temporal.processes.compile"),
        "temporal.replay.replay_s": _self(inner, "temporal.replay.replay"),
        "temporal.replay.segments": _calls(
            inner, "resilience.degrade.build",
            parent="temporal.replay.replay"),
        "temporal.replay.execute_inline_s": _total(inner, "temporal.execute"),
        "unattributed_s": sum(_self(inner, root) for root in ROOTS),
    }
    out = {k: v / per for k, v in out.items()}
    for kind in ("connectivity", "paths"):
        n = kinds.get(kind, 0)
        out[f"resilience.faults.sample_s.{kind}"] = (
            _self(inner, "resilience.faults.sample", kind) / n if n else 0.0)
        out[f"resilience.sweep.kernel_s.{kind}"] = (
            _self(inner, "sweep.execute", kind) / n if n else 0.0)
    return out


def _outer_metrics(outer: dict, per: int) -> dict[str, float]:
    """The layers the caller's own process runs (parse, cache, summary)."""
    out = {
        "core.spec.parse_s": _self(outer, "core.spec.parse"),
        "core.cache.entry_s": _self(outer, "core.cache.entry"),
        "core.cache.build_s": _self(outer, "cache.build"),
        "core.cache.arrays_s": _self(outer, "core.cache.arrays"),
        "resilience.sweep.prepare_s": _self(outer, "sweep.prepare"),
        "resilience.sweep.execute_s": _total(outer, "sweep.execute"),
        "resilience.sweep.summarize_s": _self(outer, "sweep.summarize"),
        "temporal.replay.prepare_s": _self(outer, "temporal.prepare"),
        "temporal.replay.execute_s": _total(outer, "temporal.execute"),
        "temporal.replay.summarize_s": _self(outer, "temporal.summarize"),
        "serialize_s": _self(outer, "serialize"),
        "serve.app.parse_s": _self(outer, "serve.parse"),
        "serve.app.queue_s": _total(outer, "serve.execute")
        - _total(outer, "serve.app.run_verb"),
        "serve.app.admission_s": _self(outer, "serve.admission"),
        "serve.app.execute_s": _total(outer, "serve.app.run_verb"),
        "serve.app.write_s": _self(outer, "serve.app.respond"),
        "serve.protocol.validate_s": _self(outer, "serve.validate"),
    }
    return {k: v / per for k, v in out.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def closed_layers(trace: dict) -> tuple[dict, dict]:
    """Per-layer metrics of a closed-loop trace run, and the inner stats.

    With a pooled session the inner layers come from the inline repeat.
    """
    pooled = trace["pooled"]
    outer = from_serializable(pooled["stats"])
    inline = trace.get("inline")
    inner = from_serializable(inline["stats"]) if inline else outer
    per = max(trace["requests"], 1)
    metrics = {name: 0.0 for name, _unit in PER_LAYER}
    metrics.update(_outer_metrics(outer, per))
    metrics.update(_inner_metrics(inner, per))
    cache, registry = pooled["cache"], pooled["registry"]
    metrics["core.cache.hit_ratio"] = _ratio(
        cache["hits"], cache["hits"] + cache["misses"])
    metrics["core.cache.spills"] = cache["spills"] / per
    metrics["core.cache.spill_hits"] = cache["spill_hits"] / per
    metrics["resilience.sweep.queue_wait_s"] = registry["queue_wait_s"] / per
    for key in ("chunks", "trials", "downgrades"):
        metrics[f"resilience.sweep.{key}"] = registry[key] / per
    # both passes at reference host speed, so drift between them cancels
    untraced = sum(scaled(trace["untraced"]["latencies_s"],
                          trace["untraced"]["calibration_s"]))
    traced = sum(scaled(pooled["latencies_s"], pooled["calibration_s"]))
    metrics["tracing.overhead_s"] = (traced - untraced) / per
    metrics["tracing.overhead_ratio"] = _ratio(traced - untraced, untraced)
    return metrics, inner


def _series_sum(series: dict, prefix: str, needle: str = "") -> float:
    return sum(v for k, v in series.items()
               if k.startswith(prefix) and needle in k)


def serve_layers(server: dict, before: dict, after: dict, *, requests: int,
                 client_s: float, traced_latency_s: float,
                 untraced_latency_s: float, lag_ms: float,
                 backlog: int) -> tuple[dict, dict]:
    """Per-layer metrics of the traced server pass.

    ``client_s`` is the summed send-to-response time the generator saw;
    whatever the server's layers do not account for is unattributed
    (connection handling, the kernel's TCP stack, the client).
    """
    stats = from_serializable(server["stats"])
    per = max(requests, 1)
    metrics = {name: 0.0 for name, _unit in PER_LAYER}
    metrics.update(_outer_metrics(stats, per))
    metrics.update(_inner_metrics(stats, per))
    metrics["temporal.replay.execute_inline_s"] = metrics[
        "temporal.replay.execute_s"]
    attributed = sum(seconds for layer, seconds in layer_split(stats).items()
                     if layer != "unattributed_s")
    metrics["unattributed_s"] = (client_s - attributed) / per

    s0, s1 = before["stats"], after["stats"]
    hits = s1["cache"]["hits"] - s0["cache"]["hits"]
    misses = s1["cache"]["misses"] - s0["cache"]["misses"]
    metrics["core.cache.hit_ratio"] = _ratio(hits, hits + misses)
    for key in ("spills", "spill_hits"):
        metrics[f"core.cache.{key}"] = (
            s1["cache"][key] - s0["cache"][key]) / per
    leaders = s1["coalescer"]["leaders"] - s0["coalescer"]["leaders"]
    followers = s1["coalescer"]["followers"] - s0["coalescer"]["followers"]
    metrics["serve.coalesce.follower_ratio"] = _ratio(
        followers, leaders + followers)
    metrics["serve.app.rejected"] = (
        s1["admission"]["rejected"] - s0["admission"]["rejected"]) / per
    m0, m1 = before["series"], after["series"]

    def delta(prefix, needle=""):
        return _series_sum(m1, prefix, needle) - _series_sum(m0, prefix,
                                                             needle)

    metrics["serve.app.bad_requests"] = delta(
        "repro_http_requests_total", 'status="400"') / per
    metrics["resilience.sweep.queue_wait_s"] = delta(
        "repro_sweep_queue_wait_seconds_sum") / per
    metrics["resilience.sweep.chunks"] = delta("repro_sweep_chunks_total") / per
    metrics["resilience.sweep.trials"] = delta("repro_sweep_trials_total") / per
    metrics["resilience.sweep.downgrades"] = delta(
        "repro_sweep_backend_downgrades_total") / per
    metrics["loadgen.lag_ms"] = lag_ms
    metrics["loadgen.backlog"] = backlog
    metrics["tracing.overhead_s"] = traced_latency_s - untraced_latency_s
    metrics["tracing.overhead_ratio"] = _ratio(
        traced_latency_s - untraced_latency_s, untraced_latency_s)
    return metrics, stats

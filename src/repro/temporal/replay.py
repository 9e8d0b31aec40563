"""Replay engine: step a fault trace against the kernels and simulator.

A :class:`~repro.temporal.processes.FaultTrace` is piecewise constant:
between events the dead sets do not change, so the replay walks the
trace's *segments*, weighting each one's score by its length.  A trace
revisits few distinct fault states, and the vectorized sweep kernel
(:meth:`~repro.resilience.sweep._VectorContext.score_states`) scores
all of a trial's distinct states as one mask batch -- the same numbers
:func:`~repro.resilience.metrics.connectivity_metrics` and, for
generic-router families, :func:`~repro.resilience.metrics.path_survival`
give per state.  :class:`~repro.resilience.degrade.DegradedNetwork`
views are built only where a mode needs them: ``full`` mode drives one
slotted simulation across the whole horizon through views that swap at
segment boundaries (messages in flight experience the churn), a
``traffic`` matrix routes its demands on them, and ``paths`` scoring
on families with structured ``fault_route`` hooks runs
``path_survival`` on them.

Per-trial metrics:

* ``availability`` -- time-weighted mean alive-pair connectivity;
* ``survivability`` -- repair-aware survivability: the fraction of the
  horizon the surviving machine stays *fully* connected;
* ``time_to_disconnect`` -- first slot at which some surviving pair is
  severed (the horizon when none ever is);
* ``events`` -- trace length (fail + repair transitions);
* ``paths`` mode adds ``within_bound_time`` / ``mean_stretch_time``
  (time-weighted bounded-path fraction and stretch);
* ``full`` mode adds ``delivery_ratio`` / ``dropped`` /
  ``mean_latency`` / ``slots`` from the churned slotted run.

Determinism contract: trial ``i`` compiles its trace from
``trial_seed(seed, i)`` and trials never share state, so the summary
is byte-identical for any worker count and any chunking of the trial
index range (property-tested in ``tests/test_temporal.py``).  Trials
run on :class:`~repro.resilience.sweep.PersistentSweepExecutor`, the
executor every sweep uses: :class:`_TemporalPlan` is a context-protocol
plan its workers turn into a :class:`_TemporalContext`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import ClassVar

from ..resilience.degrade import DegradedNetwork
from ..resilience.faults import trial_seed
# connectivity_metrics is no longer called here; it stays importable
# because perfbench's traced run wraps it by this module's name
from ..resilience.metrics import connectivity_metrics, path_survival  # noqa: F401
from ..resilience.sweep import (
    PersistentSweepExecutor,
    _nearest_rank,
    _paths_kernel_refusal,
    _SweepPlan,
    _TopologyArrays,
    _VectorContext,
)
from ..simulation.engine import SlottedSimulator
from .processes import FaultProcess, FaultTrace, make_fault_process
from .traffic import TrafficMatrix, served_fraction

__all__ = [
    "DEFAULT_HORIZON",
    "TEMPORAL_METRICS_MODES",
    "TemporalSummary",
    "replay_trace",
    "prepare_temporal_sweep",
    "execute_temporal",
    "summarize_temporal",
]

#: Default replay horizon in slots (used by the Experiment grid too).
DEFAULT_HORIZON = 1000

#: Per-trial metric keys by metrics mode (quantile-summarized).
TEMPORAL_METRICS_MODES: dict[str, tuple[str, ...]] = {
    "connectivity": (
        "availability",
        "survivability",
        "time_to_disconnect",
        "events",
    ),
    "paths": (
        "availability",
        "survivability",
        "time_to_disconnect",
        "events",
        "within_bound_time",
        "mean_stretch_time",
    ),
    "full": (
        "availability",
        "survivability",
        "time_to_disconnect",
        "events",
        "within_bound_time",
        "mean_stretch_time",
        "delivery_ratio",
        "dropped",
        "mean_latency",
        "slots",
    ),
}


# ----------------------------------------------------------------------
# Plan / prepared request
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _TemporalPlan:
    """Everything a trial needs, frozen once and shipped to workers.

    A context-protocol plan: its ``backend`` tag makes the sweep
    executors build a :class:`_TemporalContext` for it.
    """

    backend: ClassVar[str] = "temporal"

    canonical: str
    process: FaultProcess
    seed: int
    horizon: int
    workload: object  # name, callable or TrafficMatrix (picklable)
    workload_name: str
    messages: int
    bound: int
    metrics: str
    curve_points: int
    traffic: TrafficMatrix | None


@dataclass(frozen=True)
class _PreparedTemporal:
    """A validated temporal sweep: plan + parent-only network handle."""

    plan: _TemporalPlan
    trials: int
    skipped: bool  # capacity accounting said the machine is too small
    net: object = None  # parent-process convenience; never pickled


def _resolve_process(process, faults, mtbf, mttr, law) -> FaultProcess:
    if isinstance(process, FaultProcess):
        if any(v is not None for v in (faults, mtbf, mttr, law)):
            raise ValueError(
                "pass either a FaultProcess instance or keyword process "
                "parameters (faults/mtbf/mttr/law), not both"
            )
        return process
    if not isinstance(process, str):
        raise ValueError(
            f"process must be a FaultProcess or a registry key, "
            f"got {type(process).__name__}"
        )
    return make_fault_process(
        process,
        faults if faults is not None else 1,
        mtbf=mtbf if mtbf is not None else 400.0,
        mttr=mttr if mttr is not None else 100.0,
        law=law if law is not None else "exponential",
    )


def prepare_temporal_sweep(
    spec,
    process="coupler-renewal",
    *,
    faults: int | None = None,
    mtbf: float | None = None,
    mttr: float | None = None,
    law: str | None = None,
    horizon: int = DEFAULT_HORIZON,
    trials: int = 20,
    seed: int = 0,
    workload="uniform",
    messages: int = 60,
    bound: int | None = None,
    metrics: str = "connectivity",
    curve_points: int = 16,
    traffic: TrafficMatrix | None = None,
    _net=None,
) -> _PreparedTemporal:
    """Validate one temporal sweep request into a frozen plan.

    Raises ``ValueError`` on a bad request *before* any replay work;
    applies the process's ``max_faults`` capacity accounting (a machine
    too small for the requested churn population is *skipped*, never
    scored immune).
    """
    from ..core.spec import NetworkSpec

    resolved = _resolve_process(process, faults, mtbf, mttr, law)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if not 1 <= curve_points <= 512:
        raise ValueError(
            f"curve_points must be in [1, 512], got {curve_points}"
        )
    if metrics not in TEMPORAL_METRICS_MODES:
        known = ", ".join(sorted(TEMPORAL_METRICS_MODES))
        raise ValueError(
            f"unknown metrics mode {metrics!r}; known modes: {known}"
        )
    if metrics == "full" and messages < 1:
        raise ValueError(
            f"messages must be >= 1 for full metrics, got {messages}"
        )
    if traffic is not None and not isinstance(traffic, TrafficMatrix):
        raise ValueError(
            f"traffic must be a TrafficMatrix, got {type(traffic).__name__}"
        )
    parsed = NetworkSpec.parse(spec)
    net = _net if _net is not None else parsed.build()
    cap = resolved.max_faults(net)
    skipped = cap is not None and resolved.faults > cap
    workload_name = (
        workload
        if isinstance(workload, str)
        else getattr(workload, "name", getattr(workload, "__name__", "custom"))
    )
    plan = _TemporalPlan(
        canonical=parsed.canonical(),
        process=resolved,
        seed=int(seed),
        horizon=int(horizon),
        workload=workload,
        workload_name=str(workload_name),
        messages=int(messages),
        bound=net.diameter + 2 if bound is None else int(bound),
        metrics=metrics,
        curve_points=int(curve_points),
        traffic=traffic,
    )
    return _PreparedTemporal(
        plan=plan, trials=int(trials), skipped=skipped, net=net
    )


# ----------------------------------------------------------------------
# Per-trial replay
# ----------------------------------------------------------------------
def _bin_curve(segvals, horizon: int, points: int) -> list[float]:
    """Time-weighted mean of a piecewise-constant signal per bin.

    Each ``(start, stop, value)`` slot segment visits only the bins it
    overlaps in exact arithmetic; the float bin edges are correctly
    rounded quotients, so they can shrink an overlap to nothing but
    never create one outside that range.  A bin's sum is
    ``math.fsum`` of the positive overlaps times their values --
    exact, so leaving out the terms that are ``0.0`` gives the float
    a scan of every segment would.
    """
    edges = [horizon * b / points for b in range(points + 1)]
    terms: list[list[float]] = [[] for _ in range(points)]
    for start, stop, value in segvals:
        first = start * points // horizon
        last = min(points - 1, (stop * points - 1) // horizon)
        for b in range(first, last + 1):
            overlap = min(stop, edges[b + 1]) - max(start, edges[b])
            if overlap > 0:
                terms[b].append(overlap * value)
    return [
        math.fsum(acc) / (edges[b + 1] - edges[b])
        for b, acc in enumerate(terms)
    ]


def _slotted_metrics(ctx, starts, views) -> dict[str, float]:
    """One churned slotted run: the delivery story under repair."""
    plan = ctx.plan
    cursor = {"segment": 0}

    def _advance(now: int) -> None:
        while (
            cursor["segment"] + 1 < len(starts)
            and now >= starts[cursor["segment"] + 1]
        ):
            cursor["segment"] += 1

    def _next_coupler(holder: int, msg) -> int:
        view = views[cursor["segment"]]
        if holder in view.dead_processors:
            return -1  # the holder itself died: the message is lost
        return view.next_coupler(holder, msg)

    def _relay(coupler: int, msg) -> int:
        return views[cursor["segment"]].relay(coupler, msg)

    sim = SlottedSimulator(
        ctx.model,
        _next_coupler,
        relay_of=_relay,
        disabled_couplers=frozenset(),
    )
    sim.inject(ctx.triples)
    while not sim.all_settled() and sim.now < plan.horizon:
        _advance(sim.now)
        sim.step()
    total = len(sim.messages)
    delivered = [m for m in sim.messages if m.delivered]
    mean_latency = (
        math.fsum(m.latency for m in delivered) / len(delivered)
        if delivered
        else 0.0
    )
    return {
        "delivery_ratio": len(delivered) / total if total else 1.0,
        "dropped": float(total - len(delivered)),
        "mean_latency": mean_latency,
        "slots": float(sim.now),
    }


def replay_trace(ctx, trace: FaultTrace) -> dict[str, object]:
    """Score one compiled trace; the per-trial metrics row.

    ``ctx`` is a :class:`_TemporalContext` (network + family + plan
    shared across the trials of one process)."""
    plan = ctx.plan
    horizon = plan.horizon
    segments = list(trace.segments())
    # segments revisit a handful of fault states: score each distinct
    # state once, then fold the segments over their state's scores
    state_ids: dict[tuple, int] = {}
    seg_state = [
        state_ids.setdefault((dead_c, dead_p), len(state_ids))
        for _start, _stop, dead_c, dead_p in segments
    ]
    states = list(state_ids)
    scores = ctx.scorer.score_states(states)
    state_views = (
        [
            DegradedNetwork(
                ctx.net, trace.scenario_for(dead_c, dead_p), family=ctx.family
            )
            for dead_c, dead_p in states
        ]
        if ctx.needs_views
        else None
    )

    alive_segs = []
    survival_weight = 0.0
    time_to_disconnect = float(horizon)
    disconnected = False
    for (start, stop, _c, _p), state in zip(segments, seg_state):
        alive = scores[state]["alive_connectivity"]
        weight = stop - start
        alive_segs.append((start, stop, float(alive)))
        if alive >= 1.0:
            survival_weight += weight
        elif not disconnected:
            disconnected = True
            time_to_disconnect = float(start)
    row: dict[str, object] = {
        "availability": math.fsum(
            (stop - start) * v for start, stop, v in alive_segs
        )
        / horizon,
        "survivability": survival_weight / horizon,
        "time_to_disconnect": time_to_disconnect,
        "events": float(len(trace.events)),
        "_curve": _bin_curve(alive_segs, horizon, plan.curve_points),
    }
    if plan.metrics in ("paths", "full"):
        if ctx.kernel_paths:
            quality = [(r["mean_stretch"], r["within_bound"]) for r in scores]
        else:
            quality = [
                path_survival(view, plan.bound)[2:] for view in state_views
            ]
        within_acc = 0.0
        stretch_acc = 0.0
        for (start, stop, _c, _p), state in zip(segments, seg_state):
            stretch, within = quality[state]
            within_acc += (stop - start) * within
            stretch_acc += (stop - start) * stretch
        row["within_bound_time"] = within_acc / horizon
        row["mean_stretch_time"] = stretch_acc / horizon
    if plan.traffic is not None:
        served = [served_fraction(plan.traffic, view) for view in state_views]
        row["demand_served"] = (
            math.fsum(
                (stop - start) * served[state]
                for (start, stop, _c, _p), state in zip(segments, seg_state)
            )
            / horizon
        )
    if plan.metrics == "full":
        starts = [start for start, _stop, _c, _p in segments]
        views = [state_views[state] for state in seg_state]
        row.update(_slotted_metrics(ctx, starts, views))
    return row


class _TemporalContext:
    """Per-process trial runner over one shared built network.

    Segment scores come from a vectorized sweep kernel over the
    topology ``arrays`` (exported from ``net`` when not given): its
    ``connectivity`` rows everywhere, its ``paths`` rows when the
    family routes with the generic BFS hook (``kernel_paths``).
    ``needs_views`` says whether trials also build
    :class:`~repro.resilience.degrade.DegradedNetwork` views -- for
    the ``full``-mode simulator, a traffic matrix, or ``paths`` on a
    structured-router family.
    """

    def __init__(
        self, plan: _TemporalPlan, net=None, family=None, arrays=None
    ) -> None:
        from ..core.registry import get_family
        from ..core.spec import NetworkSpec
        from ..core.workloads import resolve_workload

        self.plan = plan
        parsed = NetworkSpec.parse(plan.canonical)
        self.net = net if net is not None else parsed.build()
        self.family = family if family is not None else get_family(parsed.family)
        paths = plan.metrics in ("paths", "full")
        self.kernel_paths = (
            paths and _paths_kernel_refusal(parsed.family, self.net) is None
        )
        self.needs_views = (
            plan.metrics == "full"
            or plan.traffic is not None
            or (paths and not self.kernel_paths)
        )
        if arrays is None:
            arrays = _TopologyArrays.from_network(self.net)
        # the kernel reads only the plan's metrics, bound and backend
        # (no sampler: score_states takes the trace's fault states)
        kernel_plan = _SweepPlan(
            canonical=plan.canonical,
            model=None,
            seed=plan.seed,
            workload=plan.workload_name,
            messages=0,
            bound=plan.bound,
            max_slots=0,
            baseline_mean_latency=None,
            metrics="paths" if self.kernel_paths else "connectivity",
            backend=plan.backend,
        )
        self.scorer = _VectorContext(kernel_plan, arrays)
        self.model = self.net.hypergraph_model()
        self.triples = (
            resolve_workload(
                plan.workload,
                self.net,
                messages=plan.messages,
                seed=plan.seed,
            )
            if plan.metrics == "full"
            else None
        )

    def run_trial(self, index: int) -> dict[str, object]:
        """The metrics row of trial ``index``."""
        plan = self.plan
        trace = plan.process.trace(
            plan.canonical, self.net, trial_seed(plan.seed, index), plan.horizon
        )
        return replay_trace(self, trace)

    def run_range(self, start: int, stop: int) -> list[dict[str, object]]:
        """Rows of trials ``start .. stop - 1``, in index order."""
        return [self.run_trial(i) for i in range(start, stop)]


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def execute_temporal(
    prepared: _PreparedTemporal, workers: int = 1
) -> list[dict[str, object]]:
    """All trial rows, in trial-index order.

    A one-call wrapper over :class:`PersistentSweepExecutor` (sessions
    run temporal plans on their own persistent executor instead).
    Trials are pure functions of their index, so sharding the index
    range over ``workers`` processes returns byte-identical rows for
    every worker count.
    """
    if prepared.skipped:
        return []
    with PersistentSweepExecutor(workers) as executor:
        return executor.run_range(prepared, 0, prepared.trials)


# ----------------------------------------------------------------------
# Summary
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TemporalSummary:
    """Deterministic aggregate of one temporal sweep.

    ``quantiles`` maps each scored metric to the same
    ``mean/p05/p50/p95/min/max`` cell shape as
    :class:`~repro.resilience.sweep.SweepSummary`;
    ``availability_curve`` is the across-trials mean availability per
    horizon bin -- the availability-over-time curve.  A sweep skipped
    by capacity accounting reports ``skipped_underfaulted=True`` with
    zero trials instead of perfect scores.
    """

    spec: str
    process: str
    faults: int
    mtbf: float
    mttr: float
    law: str
    horizon: int
    trials: int
    seed: int
    workload: str
    messages: int
    bound: int
    quantiles: dict[str, dict[str, float]]
    availability_curve: tuple[float, ...]
    disconnected_fraction: float | None
    skipped_underfaulted: bool

    def as_dict(self) -> dict[str, object]:
        """JSON-ready view (key set pinned by the CLI golden schema)."""
        return {
            "spec": self.spec,
            "process": self.process,
            "faults": self.faults,
            "mtbf": self.mtbf,
            "mttr": self.mttr,
            "law": self.law,
            "horizon": self.horizon,
            "trials": self.trials,
            "seed": self.seed,
            "workload": self.workload,
            "messages": self.messages,
            "bound": self.bound,
            "quantiles": self.quantiles,
            "availability_curve": list(self.availability_curve),
            "disconnected_fraction": self.disconnected_fraction,
            "skipped_underfaulted": self.skipped_underfaulted,
        }

    def to_json(self) -> str:
        """Stable JSON (sorted keys, indent 2)."""
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def formatted(self) -> str:
        """Human-readable report."""
        head = (
            f"temporal sweep: {self.spec}  process={self.process} "
            f"faults={self.faults}  mtbf={self.mtbf} mttr={self.mttr} "
            f"law={self.law}"
        )
        if self.skipped_underfaulted:
            return (
                f"{head}\n  skipped: machine too small for "
                f"{self.faults} churning components"
            )
        lines = [
            head,
            f"  horizon={self.horizon} slots, {self.trials} trials, "
            f"seed={self.seed}",
            f"  disconnected in {self.disconnected_fraction:.1%} of trials",
            "",
            f"  {'metric':<20} {'mean':>10} {'p05':>10} {'p50':>10} "
            f"{'p95':>10}",
        ]
        for key, cell in self.quantiles.items():
            lines.append(
                f"  {key:<20} {cell['mean']:>10.4f} {cell['p05']:>10.4f} "
                f"{cell['p50']:>10.4f} {cell['p95']:>10.4f}"
            )
        curve = " ".join(f"{v:.3f}" for v in self.availability_curve)
        lines += ["", f"  availability curve: {curve}"]
        return "\n".join(lines)


def summarize_temporal(
    prepared: _PreparedTemporal, rows: list[dict]
) -> TemporalSummary:
    """Aggregate per-trial rows into the deterministic summary."""
    plan = prepared.plan
    process = plan.process
    base = {
        "spec": plan.canonical,
        "process": process.key,
        "faults": process.faults,
        "mtbf": float(process.mtbf),
        "mttr": float(process.mttr),
        "law": process.law,
        "horizon": plan.horizon,
        "seed": plan.seed,
        "workload": plan.workload_name,
        "messages": plan.messages if plan.metrics == "full" else 0,
        "bound": plan.bound,
    }
    if prepared.skipped or not rows:
        return TemporalSummary(
            trials=0,
            quantiles={},
            availability_curve=(),
            disconnected_fraction=None,
            skipped_underfaulted=True,
            **base,
        )
    trials = len(rows)
    summarized = list(TEMPORAL_METRICS_MODES[plan.metrics])
    if plan.traffic is not None:
        summarized.append("demand_served")
    quantiles: dict[str, dict[str, float]] = {}
    for key in summarized:
        values = sorted(float(r[key]) for r in rows)
        quantiles[key] = {
            "mean": round(sum(values) / len(values), 6),
            "p05": round(_nearest_rank(values, 0.05), 6),
            "p50": round(_nearest_rank(values, 0.50), 6),
            "p95": round(_nearest_rank(values, 0.95), 6),
            "min": round(values[0], 6),
            "max": round(values[-1], 6),
        }
    curve = tuple(
        round(
            math.fsum(r["_curve"][b] for r in rows) / trials,
            6,
        )
        for b in range(plan.curve_points)
    )
    disconnected = sum(
        1 for r in rows if float(r["time_to_disconnect"]) < plan.horizon
    )
    return TemporalSummary(
        trials=trials,
        quantiles=quantiles,
        availability_curve=curve,
        disconnected_fraction=round(disconnected / trials, 6),
        skipped_underfaulted=False,
        **base,
    )

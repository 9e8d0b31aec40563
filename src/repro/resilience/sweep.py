"""Parallel Monte-Carlo survivability sweeps.

Fan ``trials`` independent fault scenarios over ``multiprocessing``
workers and aggregate the per-trial
:class:`~repro.resilience.metrics.ResilienceMetrics` rows into quantile
summaries.  Determinism is a hard requirement here: per-trial seeds
come from :func:`~repro.resilience.faults.trial_seed` (a function of
the sweep seed and the trial index only), rows are re-ordered by trial
index, and quantiles use exact nearest-rank selection -- so the same
seed produces **byte-identical** JSON for any worker count.

Three executors share that contract:

* the **batched** backend (default) builds one network + family
  context per process -- via a ``multiprocessing`` pool *initializer*,
  so workers never rebuild the topology per trial -- shares the intact
  baseline across all trials, and ships workers compact trial-index
  ranges instead of per-trial argument tuples.  Its ``metrics`` modes
  short-circuit scoring: ``"connectivity"`` skips both the per-pair
  ``fault_route`` scan and the slotted simulation (the design-search
  fast path), ``"paths"`` keeps route quality but skips simulation,
  ``"full"`` computes everything;
* the **vectorized** backend (``metrics="connectivity"`` and
  ``"paths"``) never instantiates a
  :class:`~repro.resilience.degrade.DegradedNetwork` at
  all: the built network's topology is exported once into flat numpy
  arrays (CSR coupler->processor incidence, coupler endpoint pairs,
  processor->group map), fault masks for whole trial *batches* are
  drawn as boolean arrays -- seeded by the same SHA-256 per-trial
  scheme, so every draw matches the batched backend bit for bit -- and
  connectivity metrics come from a batched reachability closure over
  the masked group adjacency instead of per-trial Python BFS.
  ``"paths"`` mode swaps the closure for a level-synchronous
  boolean-matmul BFS whose frontier expansions yield per-pair
  *distances*, scoring route quality (``max_path_length`` /
  ``mean_stretch`` / ``within_bound``) for whole batches; it is
  byte-identical to the batched ``fault_route`` scan for every family
  whose hook is the generic BFS fallback, and families with structured
  hooks are downgraded to ``batched`` with a recorded reason (see
  :func:`_prepare_sweep`) rather than ever silently diverging.  The
  one-shot pools share the topology arrays with their workers through
  :mod:`multiprocessing.shared_memory` (attached, not copied);
  :class:`PersistentSweepExecutor` workers rebuild them once per
  cached context.  The boolean matmuls run as exact ``float32`` BLAS
  products (see :func:`_count_matmul`).  This is the
  10^5-10^6-trial path;
* the **legacy** backend is the original one-task-per-trial executor
  that re-parses and rebuilds the network inside every trial.  It is
  kept as the regression reference: for the same seed the batched
  backend's ``full`` mode must produce byte-identical JSON.

:func:`pooled_survivability_sweeps` runs *many* sweeps' trial batches
on one shared worker pool (the design search's
``parallelism="candidates"`` mode), returning summaries byte-identical
to per-sweep execution.

Pool *ownership* lives in executors, not in the sweep functions: the
default (one-shot) path spawns and tears down a pool per call, while a
:class:`PersistentSweepExecutor` -- what
:class:`repro.core.session.Session` injects -- keeps one lazily-started
pool alive across calls, re-initializing each worker's trial context
only when the sweep plan changes.  Both produce byte-identical rows
for the same plan and worker count.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import random
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import cached_property
from multiprocessing import shared_memory

import numpy as np

from ..obs.metrics import REGISTRY, reset_worker_registry, worker_registry
from ..obs.trace import add_complete_event, now_us, span
from .adaptive import (
    SAMPLING_MODES,
    adaptive_summary_block,
    make_sampler,
    run_adaptive,
)
from .degrade import DegradedNetwork
from .faults import FaultModel, SamplerTables, make_fault_model, trial_seed
from .metrics import connectivity_metrics, measure, path_survival

__all__ = [
    "SweepSummary",
    "PersistentSweepExecutor",
    "survivability_sweep",
    "pooled_survivability_sweeps",
    "METRICS_MODES",
    "SAMPLING_MODES",
    "SWEEP_BACKENDS",
]

#: Per-trial metric keys that get quantile summaries (``full`` mode).
_SUMMARIZED = (
    "connectivity",
    "alive_connectivity",
    "reachable_groups",
    "max_path_length",
    "mean_stretch",
    "within_bound",
    "delivery_ratio",
    "latency_inflation",
    "mean_latency",
    "dropped",
    "slots",
)

#: Scoring depth -> the per-trial metric keys it produces.
METRICS_MODES: dict[str, tuple[str, ...]] = {
    "connectivity": (
        "connectivity",
        "alive_connectivity",
        "reachable_groups",
    ),
    "paths": (
        "connectivity",
        "alive_connectivity",
        "reachable_groups",
        "max_path_length",
        "mean_stretch",
        "within_bound",
    ),
    "full": _SUMMARIZED,
}

#: Registered trial executors (see the module docstring).
SWEEP_BACKENDS = ("batched", "vectorized", "legacy")

#: Most trials the vectorized backend scores per numpy batch; the
#: effective batch also shrinks with the group count (see
#: :data:`_VECTOR_CELL_BUDGET`) so the (batch, groups, groups) working
#: set stays bounded.  Batch size never changes results.
_VECTOR_BATCH = 4096

#: Largest inner dimension :func:`_count_matmul` accepts: float32
#: represents every integer up to ``2**24`` exactly, and a 0/1 product
#: count never exceeds the inner dimension.
_F32_EXACT_INNER = 1 << 24

#: Cap on cells per vectorized batch (~32 MB of int64), applied to the
#: widest per-trial axis -- ``groups^2`` (reachability tensors),
#: ``num_processors`` (fault masks) and the coupler incidence nnz (the
#: source/target gathers) -- so machines that are large in *any*
#: dimension get smaller batches instead of multi-GB temporaries.
_VECTOR_CELL_BUDGET = 4_000_000


@dataclass(frozen=True)
class SweepSummary:
    """Aggregated result of one survivability sweep."""

    spec: str
    model: str
    faults: int
    trials: int
    seed: int
    workload: str
    messages: int
    bound: int
    #: metric -> {"mean": .., "p05": .., "p50": .., "p95": .., "min": .., "max": ..}
    quantiles: dict[str, dict[str, float]] = field(default_factory=dict)
    #: fraction of trials in which every routed pair met the bound
    #: (``None`` when path metrics were not computed)
    within_bound_fraction: float | None = 1.0
    #: fraction of trials in which some surviving pair was severed
    partitioned_fraction: float = 0.0
    #: the backend that actually executed the trials.  Deliberately NOT
    #: part of :meth:`as_dict`/:meth:`to_json`: the byte-identity
    #: contract says equal requests produce equal JSON across backends.
    backend: str = "batched"
    #: why the executed backend differs from the requested one
    #: (``None`` when it does not) -- the visible record of a
    #: vectorized->batched ``paths`` downgrade for structured-routing
    #: families.  Also excluded from the JSON.
    downgrade_reason: str | None = None
    #: the adaptive/estimator record (sampling mode, trials spent vs
    #: requested, survival estimate with its confidence interval) --
    #: present exactly when the request opted in via ``ci_target=`` or
    #: a non-uniform ``sampling=``, and absent from the JSON otherwise
    #: so plain fixed-trial sweeps keep their pre-adaptive bytes.
    adaptive: dict | None = None

    def as_dict(self) -> dict[str, object]:
        """JSON-ready view (stable key order via ``to_json``)."""
        payload: dict[str, object] = {
            "spec": self.spec,
            "model": self.model,
            "faults": self.faults,
            "trials": self.trials,
            "seed": self.seed,
            "workload": self.workload,
            "messages": self.messages,
            "bound": self.bound,
            "quantiles": self.quantiles,
            "within_bound_fraction": self.within_bound_fraction,
            "partitioned_fraction": self.partitioned_fraction,
        }
        if self.adaptive is not None:
            payload["adaptive"] = self.adaptive
        return payload

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, 2-space indent, rounded floats.

        The byte-identity contract of the sweep: same spec/model/seed
        gives the same string regardless of worker count or backend.
        """
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def formatted(self) -> str:
        """Human-readable quantile table."""
        within = (
            "path metrics not computed"
            if self.within_bound_fraction is None
            else f"{100 * self.within_bound_fraction:.1f}% of trials within"
        )
        lines = [
            f"{self.spec} under {self.faults} {self.model} fault(s): "
            f"{self.trials} trials, seed {self.seed}, "
            f"workload {self.workload} x{self.messages}",
            f"  path-length bound diameter+2 = {self.bound}: "
            f"{within}; "
            f"{100 * self.partitioned_fraction:.1f}% partitioned",
            f"  {'metric':<18} {'mean':>9} {'p05':>9} {'p50':>9} {'p95':>9}",
        ]
        for key in _SUMMARIZED:
            q = self.quantiles.get(key)
            if q is None:
                continue
            lines.append(
                f"  {key:<18} {q['mean']:>9.4f} {q['p05']:>9.4f} "
                f"{q['p50']:>9.4f} {q['p95']:>9.4f}"
            )
        if self.adaptive is not None:
            a = self.adaptive
            target = (
                "no CI target"
                if a["ci_target"] is None
                else f"CI target +/-{a['ci_target']}"
            )
            lines.append(
                f"  {a['sampling']} sampling, {target}: survival "
                f"{a['survival']:.6f} in [{a['ci_low']:.6f}, "
                f"{a['ci_high']:.6f}], {a['trials_spent']}/"
                f"{a['trials_requested']} trials over {a['rounds']} round(s)"
            )
        if self.downgrade_reason is not None:
            lines.append(f"  note: {self.downgrade_reason}")
        return "\n".join(lines)


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    """Exact nearest-rank quantile (no interpolation, no float fuzz).

    ``q`` is interpreted in exact hundredths so the rank computation
    is pure integer arithmetic: ``rank = ceil(pct * n / 100)``.
    """
    if not sorted_values:
        return 0.0
    pct = round(q * 100)
    rank = max(1, -(-pct * len(sorted_values) // 100))
    return sorted_values[min(rank, len(sorted_values)) - 1]


# ----------------------------------------------------------------------
# Legacy executor (the PR 2 path): one task per trial, rebuild inside.
# ----------------------------------------------------------------------
def _run_trial(task) -> dict[str, object]:
    """One Monte-Carlo trial; top-level so it pickles to workers."""
    (
        canonical,
        model,
        tseed,
        workload,
        messages,
        wseed,
        bound,
        max_slots,
        baseline_mean_latency,
    ) = task
    from ..core.spec import NetworkSpec

    net = NetworkSpec.parse(canonical).build()
    scenario = model.scenario(canonical, net, tseed)
    degraded = DegradedNetwork(net, scenario)
    row = measure(
        degraded,
        workload=workload,
        messages=messages,
        seed=wseed,
        bound=bound,
        max_slots=max_slots,
        baseline_mean_latency=baseline_mean_latency,
    )
    return row.as_dict()


# ----------------------------------------------------------------------
# Batched executor: one context per process, trial-index ranges only.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _SweepPlan:
    """Everything a trial needs, frozen once and shipped to workers."""

    canonical: str
    model: FaultModel
    seed: int
    workload: str
    messages: int
    bound: int
    max_slots: int
    baseline_mean_latency: float | None
    metrics: str
    backend: str = "batched"


class _TrialContext:
    """Per-process trial runner over one shared built network.

    Workers construct this exactly once (pool initializer), so the
    spec is parsed and the topology built per *process*, not per
    trial -- the frozen network, its family descriptor and the plan
    are shared by every trial the process executes.
    """

    def __init__(self, plan: _SweepPlan, net=None, family=None) -> None:
        from ..core.registry import get_family
        from ..core.spec import NetworkSpec
        from ..core.workloads import resolve_workload

        self.plan = plan
        parsed = NetworkSpec.parse(plan.canonical)
        self.net = net if net is not None else parsed.build()
        self.family = family if family is not None else get_family(parsed.family)
        #: the ``full``-mode traffic: generated on the intact machine
        #: from the plan's seed, so one list serves every trial
        self.traffic = (
            resolve_workload(
                plan.workload, self.net, messages=plan.messages, seed=plan.seed
            )
            if plan.metrics == "full"
            else None
        )

    def _degraded(self, index: int) -> DegradedNetwork:
        """Trial ``index``'s fault scenario applied to the network."""
        plan = self.plan
        # index-aware samplers (stratified/importance wrappers) need the
        # trial *index*, not just its seed: the index picks the stratum
        # or replays the proposal draw.  Duck-typed so custom models can
        # opt in without importing the adaptive machinery.
        scenario_at = getattr(plan.model, "scenario_at", None)
        if scenario_at is not None:
            scenario = scenario_at(plan.canonical, self.net, plan.seed, index)
        else:
            scenario = plan.model.scenario(
                plan.canonical, self.net, trial_seed(plan.seed, index)
            )
        return DegradedNetwork(self.net, scenario, family=self.family)

    def _score(
        self, degraded: DegradedNetwork, timings: dict[str, float] | None
    ) -> dict[str, object]:
        """The metrics row of one degraded view, per the plan's mode."""
        plan = self.plan
        if plan.metrics == "full":
            return measure(
                degraded,
                workload=plan.workload,
                messages=plan.messages,
                seed=plan.seed,
                traffic=self.traffic,
                bound=plan.bound,
                max_slots=plan.max_slots,
                baseline_mean_latency=plan.baseline_mean_latency,
                timings=timings,
            ).as_dict()
        # paths mode takes reachable_groups from path_survival (the
        # *routed* fraction) instead of the BFS pass, so skip the
        # redundant reachability loop there
        row: dict[str, object] = connectivity_metrics(
            degraded, with_reachable=plan.metrics == "connectivity"
        )
        if plan.metrics == "paths":
            reachable, max_len, stretch, within = path_survival(
                degraded, plan.bound
            )
            row["reachable_groups"] = reachable
            row["max_path_length"] = max_len
            row["mean_stretch"] = stretch
            row["within_bound"] = within
        return row

    def run_range(self, start: int, stop: int) -> list[dict[str, object]]:
        """Rows of trials ``start .. stop - 1``, in index order.

        Observes the chunk's sampling (scenario draw plus view build)
        and scoring seconds on the same histograms as vectorized
        chunks, and in ``full`` mode the slotted simulator's share of
        the scoring on ``repro_sweep_simulate_seconds``.
        """
        rows: list[dict[str, object]] = []
        timings = {"simulate": 0.0} if self.plan.metrics == "full" else None
        sample_s = kernel_s = 0.0
        for index in range(start, stop):
            began = time.perf_counter()
            degraded = self._degraded(index)
            sampled = time.perf_counter()
            rows.append(self._score(degraded, timings))
            sample_s += sampled - began
            kernel_s += time.perf_counter() - sampled
        _observe_chunk_split(self.plan, sample_s, kernel_s, timings)
        return rows


# ----------------------------------------------------------------------
# Vectorized executor: shared-memory topology arrays, batched masks.
# ----------------------------------------------------------------------
#: Array fields of :class:`_TopologyArrays`, in shared-memory export order.
_ARRAY_FIELDS = (
    "endpoints",
    "proc_group",
    "src_indptr",
    "src_indices",
    "tgt_indptr",
    "tgt_indices",
)


@dataclass(frozen=True)
class _TopologyArrays:
    """One built network, flattened into numpy arrays.

    This is everything the vectorized backend needs per trial --
    coupler endpoint group pairs, the processor->group map and the
    CSR coupler->source/target-processor incidence -- exported once
    per topology.  The one-shot pools (:func:`survivability_sweep`
    and :func:`pooled_survivability_sweeps` without an executor) share
    it with their workers via :mod:`multiprocessing.shared_memory`
    (attached, not copied); :class:`PersistentSweepExecutor` workers
    rebuild it from the plan's spec, once per cached context.
    """

    num_processors: int
    num_groups: int
    num_couplers: int
    endpoints: np.ndarray  # (m, 2) int64: coupler -> (src_group, dst_group)
    proc_group: np.ndarray  # (n,) int64: processor -> group
    src_indptr: np.ndarray  # (m + 1,) int64 CSR over source processors
    src_indices: np.ndarray
    tgt_indptr: np.ndarray  # (m + 1,) int64 CSR over target processors
    tgt_indices: np.ndarray

    @classmethod
    def from_network(cls, net) -> "_TopologyArrays":
        """Export any registry-built network's topology."""
        from .faults import coupler_endpoints, processor_groups

        model = net.hypergraph_model()
        n = net.num_processors
        m = model.num_hyperarcs
        endpoints = np.asarray(coupler_endpoints(net), dtype=np.int64).reshape(
            m, 2
        )
        proc_group = np.asarray(processor_groups(net), dtype=np.int64)
        src_indptr = np.zeros(m + 1, dtype=np.int64)
        tgt_indptr = np.zeros(m + 1, dtype=np.int64)
        src_chunks: list[tuple[int, ...]] = []
        tgt_chunks: list[tuple[int, ...]] = []
        for idx, ha in enumerate(model.hyperarcs):
            src_chunks.append(ha.sources)
            tgt_chunks.append(ha.targets)
            src_indptr[idx + 1] = src_indptr[idx] + len(ha.sources)
            tgt_indptr[idx + 1] = tgt_indptr[idx] + len(ha.targets)
        flat = [p for chunk in src_chunks for p in chunk]
        src_indices = np.asarray(flat, dtype=np.int64)
        flat = [p for chunk in tgt_chunks for p in chunk]
        tgt_indices = np.asarray(flat, dtype=np.int64)
        return cls(
            num_processors=n,
            num_groups=net.num_groups,
            num_couplers=m,
            endpoints=endpoints,
            proc_group=proc_group,
            src_indptr=src_indptr,
            src_indices=src_indices,
            tgt_indptr=tgt_indptr,
            tgt_indices=tgt_indices,
        )

    @cached_property
    def sampler_tables(self) -> SamplerTables:
        """The fault samplers' lookup tables, built once per topology."""
        return SamplerTables.from_network(_ArrayNetworkProxy(self))


class _ArrayNetworkProxy:
    """Duck-typed stand-in for a built network, backed by arrays.

    Implements exactly the surface the registered
    :meth:`FaultModel.sample_faults` implementations touch
    (``num_couplers`` / ``num_processors`` / ``num_groups``,
    ``label_of`` for the group of a processor, and ``base_graph()``
    with ``arc_array()`` for
    :func:`~repro.resilience.faults.coupler_endpoints`, plus the
    :func:`~repro.resilience.faults.sampler_tables` cached on the
    topology arrays) so workers can draw byte-identical fault sets
    without ever rebuilding the network.
    """

    __slots__ = ("_arrays",)

    def __init__(self, arrays: _TopologyArrays) -> None:
        self._arrays = arrays

    @property
    def num_processors(self) -> int:
        return self._arrays.num_processors

    @property
    def num_groups(self) -> int:
        return self._arrays.num_groups

    @property
    def num_couplers(self) -> int:
        return self._arrays.num_couplers

    def label_of(self, processor: int) -> tuple[int]:
        return (int(self._arrays.proc_group[processor]),)

    def base_graph(self) -> "_ArrayNetworkProxy":
        # coupler_endpoints() only calls .arc_array() on the result
        return self

    def arc_array(self) -> np.ndarray:
        return self._arrays.endpoints

    @property
    def _sampler_tables(self) -> SamplerTables:
        return self._arrays.sampler_tables


def _proxy_surface_error(exc: Exception, proxy: _ArrayNetworkProxy) -> bool:
    """Whether ``exc`` stems from the array proxy's *missing* surface.

    Custom ``sample_faults`` implementations may touch network surface
    :class:`_ArrayNetworkProxy` does not carry -- those failures are a
    backend limitation worth naming.  But an ``AttributeError`` /
    ``IndexError`` / ``TypeError`` raised by the fault model's own code
    is a genuine bug that must propagate untranslated.  An
    ``AttributeError`` qualifies only when it was raised *on the proxy
    itself* (``exc.obj``); other lookup errors only when the innermost
    traceback frame is one of the proxy's own methods.
    """
    if isinstance(exc, AttributeError):
        return getattr(exc, "obj", None) is proxy
    proxy_codes = {
        _ArrayNetworkProxy.label_of.__code__,
        _ArrayNetworkProxy.base_graph.__code__,
        _ArrayNetworkProxy.arc_array.__code__,
    }
    tb = exc.__traceback__
    innermost = None
    while tb is not None:
        innermost = tb
        tb = tb.tb_next
    return (
        innermost is not None
        and innermost.tb_frame.f_code in proxy_codes
    )


def _count_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` of 0/1 arrays as exact ``float32`` counts, via BLAS.

    Integer matmuls never reach BLAS; float32 ones do.  Every partial
    sum is a non-negative integer no larger than the inner dimension,
    so below :data:`_F32_EXACT_INNER` each count -- and every ``> 0``
    test on it -- is exactly what an integer product gives.
    """
    inner = a.shape[-1]
    if inner > _F32_EXACT_INNER:
        raise ValueError(
            f"inner dimension {inner} exceeds {_F32_EXACT_INNER}, where "
            f"float32 counts stop being exact"
        )
    return np.matmul(
        a.astype(np.float32, copy=False), b.astype(np.float32, copy=False)
    )


class _VectorContext:
    """Per-process vectorized trial scorer over shared topology arrays.

    Scores ``connectivity``- and ``paths``-mode metrics for whole
    trial batches: the per-trial fault draws reuse the exact sampler +
    SHA-256 seed stream of the batched backend (so the two backends
    agree bit for bit), but everything downstream -- the dead-coupler
    closure, the surviving group adjacency, reachability (and, in
    ``paths`` mode, all-pairs distances from level-synchronous
    frontier expansion), and the metric ratios -- is batched numpy
    over all trials of a chunk at once, with no per-trial
    ``DegradedNetwork`` or Python BFS.
    """

    def __init__(self, plan: _SweepPlan, arrays: _TopologyArrays) -> None:
        self.plan = plan
        self.arrays = arrays
        self._proxy = _ArrayNetworkProxy(arrays)
        g = arrays.num_groups
        m = arrays.num_couplers
        self._src_sizes = np.diff(arrays.src_indptr)
        self._tgt_sizes = np.diff(arrays.tgt_indptr)
        #: coupler -> flattened (src_group, dst_group) cell index
        self._pair_id = arrays.endpoints[:, 0] * g + arrays.endpoints[:, 1]
        #: (n, g) one-hot processor->group incidence for dead counts
        self._group_onehot = np.zeros(
            (arrays.num_processors, g), dtype=np.float32
        )
        if arrays.num_processors:
            self._group_onehot[
                np.arange(arrays.num_processors), arrays.proc_group
            ] = 1
        self._group_sizes = np.bincount(arrays.proc_group, minlength=g)
        #: (g, g) intact group distances, the stretch denominators
        #: (``paths`` mode only; computed once per sweep context)
        self._intact_dist = (
            self._intact_group_distances() if plan.metrics == "paths" else None
        )
        cells = max(
            g**2,
            arrays.num_processors,
            int(arrays.src_indptr[-1]),
            int(arrays.tgt_indptr[-1]),
            1,
        )
        #: most fault states one :meth:`_score_batch` call takes
        self.batch = max(1, min(_VECTOR_BATCH, _VECTOR_CELL_BUDGET // cells))

    def _intact_group_distances(self) -> np.ndarray:
        """``(g, g)`` BFS distances over the intact loopless group digraph.

        The ``mean_stretch`` denominators of
        :func:`~repro.resilience.metrics.path_survival`: ``endpoints``
        is exactly ``base_graph().arc_array()`` for every family the
        kernel accepts (``_prepare_sweep`` downgrades the rest), so
        this equals ``base_graph().without_loops().bfs_distances(u)[v]``
        for every pair.  ``-1`` marks pairs unreachable intact.
        """
        g = self.arrays.num_groups
        endpoints = self.arrays.endpoints
        adj = np.zeros((g, g), dtype=np.float32)
        if len(endpoints):
            off_diag = endpoints[:, 0] != endpoints[:, 1]
            adj[endpoints[off_diag, 0], endpoints[off_diag, 1]] = 1
        dist = np.full((g, g), -1, dtype=np.int64)
        np.fill_diagonal(dist, 0)
        reach = np.eye(g, dtype=bool)
        hops = 0
        while True:
            grown = (_count_matmul(reach, adj) > 0) | reach
            frontier = grown & ~reach
            if not frontier.any():
                break
            hops += 1
            dist[frontier] = hops
            reach = grown
        return dist

    def _degenerate_row(self) -> dict[str, object] | None:
        """The fixed row of a machine with at most one processor.

        The :func:`~repro.resilience.metrics.connectivity_metrics`
        short-circuit (plus, in ``paths`` mode, ``path_survival``'s
        answer for fewer than two live groups); ``None`` for machines
        the kernel scores.
        """
        if self.arrays.num_processors > 1:
            return None
        row: dict[str, object] = {
            "connectivity": 1.0,
            "alive_connectivity": 1.0,
            "reachable_groups": 1.0,
        }
        if self.plan.metrics == "paths":
            row.update(max_path_length=0, mean_stretch=1.0, within_bound=1.0)
        return row

    def run_range(self, start: int, stop: int) -> list[dict[str, object]]:
        """Rows of trials ``start .. stop - 1``, in index order."""
        degenerate = self._degenerate_row()
        if degenerate is not None:
            return [dict(degenerate) for _ in range(start, stop)]
        batch = self.batch
        rows: list[dict[str, object]] = []
        sample_s = kernel_s = 0.0
        for lo in range(start, stop, batch):
            began = time.perf_counter()
            dead_proc, direct = self._sample_masks(lo, min(lo + batch, stop))
            sampled = time.perf_counter()
            rows.extend(self._score_batch(dead_proc, direct))
            sample_s += sampled - began
            kernel_s += time.perf_counter() - sampled
        _observe_chunk_split(self.plan, sample_s, kernel_s)
        return rows

    def score_states(self, states) -> list[dict[str, object]]:
        """Metric rows of explicit ``(couplers, processors)`` fault states.

        The kernel without the sampler: rows come back in ``states``
        order, each equal to what a trial drawing that fault set
        scores.  The temporal replay scores a trace's distinct fault
        states through this, one mask batch per :attr:`batch` states.
        """
        degenerate = self._degenerate_row()
        if degenerate is not None:
            return [dict(degenerate) for _ in states]
        rows: list[dict[str, object]] = []
        for lo in range(0, len(states), self.batch):
            masks = self._fault_masks(states[lo : lo + self.batch])
            rows.extend(self._score_batch(*masks))
        return rows

    def _sample_masks(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """``(dead_processors, directly_hit_couplers)`` boolean masks.

        One row per trial; each row replays the exact draw the batched
        backend's ``model.scenario(...)`` would make for that trial
        index (same sampler, same ``trial_seed`` stream).  One
        generator is re-seeded per trial: ``Random.seed(x)`` leaves
        exactly the state ``Random(x)`` starts from.
        """
        return self._fault_masks(self._draws(lo, hi))

    def _draws(self, lo: int, hi: int):
        """Yield each trial's ``(couplers, processors)`` fault draw.

        A generator, so mask assembly consumes the draws as they come
        instead of holding a whole batch of them.
        """
        plan = self.plan
        sample_at = getattr(plan.model, "sample_faults_at", None)
        rng = random.Random()
        for j in range(hi - lo):
            rng.seed(trial_seed(plan.seed, lo + j))
            try:
                if sample_at is not None:
                    couplers, processors = sample_at(self._proxy, rng, lo + j)
                else:
                    couplers, processors = plan.model.sample_faults(
                        self._proxy, rng
                    )
            except (AttributeError, IndexError, TypeError) as exc:
                # custom models may sample from network surface the
                # array proxy does not carry -- name the restriction
                # instead of leaking a deep (possibly pickled) error.
                # Only errors that actually originate from the proxy's
                # missing surface are translated: a bug inside the
                # model's own sample_faults propagates untouched.
                if not _proxy_surface_error(exc, self._proxy):
                    raise
                raise ValueError(
                    f"fault model {type(plan.model).__name__} needs "
                    f"network surface the vectorized backend's array "
                    f"proxy does not provide ({exc}); run it with "
                    f"backend='batched'"
                ) from exc
            yield couplers, processors

    def _fault_masks(self, states) -> tuple[np.ndarray, np.ndarray]:
        """``(dead_processors, directly_hit_couplers)`` boolean masks.

        One row per ``(couplers, processors)`` pair ``states`` yields;
        indices out of range are ignored, exactly as
        :class:`~repro.resilience.degrade.DegradedNetwork` ignores
        them.  Both masks are filled by one scatter each.
        """
        n, m = self.arrays.num_processors, self.arrays.num_couplers
        coupler_rows: list[int] = []
        coupler_cols: list[int] = []
        proc_rows: list[int] = []
        proc_cols: list[int] = []
        rows = 0
        for j, (couplers, processors) in enumerate(states):
            hit = [c for c in couplers if 0 <= c < m]
            coupler_cols += hit
            coupler_rows += [j] * len(hit)
            hit = [p for p in processors if 0 <= p < n]
            proc_cols += hit
            proc_rows += [j] * len(hit)
            rows = j + 1
        dead_proc = np.zeros((rows, n), dtype=bool)
        direct = np.zeros((rows, m), dtype=bool)
        direct[coupler_rows, coupler_cols] = True
        dead_proc[proc_rows, proc_cols] = True
        return dead_proc, direct

    def _score_batch(
        self, dead_proc: np.ndarray, direct: np.ndarray
    ) -> list[dict[str, object]]:
        """Metric rows of one batch of ``(dead_processors, hit_couplers)``."""
        arrays = self.arrays
        n, g, m = arrays.num_processors, arrays.num_groups, arrays.num_couplers
        batch = len(dead_proc)
        paths_mode = self.plan.metrics == "paths"
        # effective dead couplers (the DegradedNetwork closure): hit
        # directly, or every source processor died, or every target died
        if m:
            src_dead = np.add.reduceat(
                dead_proc[:, arrays.src_indices],
                arrays.src_indptr[:-1],
                axis=1,
                dtype=np.int64,
            )
            tgt_dead = np.add.reduceat(
                dead_proc[:, arrays.tgt_indices],
                arrays.tgt_indptr[:-1],
                axis=1,
                dtype=np.int64,
            )
            dead_coupler = (
                direct
                | (src_dead == self._src_sizes)
                | (tgt_dead == self._tgt_sizes)
            )
        else:
            dead_coupler = direct
        # surviving group adjacency, one scatter for the whole batch
        ti, ci = np.nonzero(~dead_coupler)
        adj = np.zeros(batch * g * g, dtype=bool)
        adj[ti * (g * g) + self._pair_id[ci]] = True
        adj = adj.reshape(batch, g, g)
        diag = np.arange(g)
        dist = None
        hops = 0
        if paths_mode:
            # level-synchronous frontier expansion: one boolean matmul
            # per hop, so per-pair *distances* fall out of the frontier
            # masks.  dist[b, u, v] equals bfs_distances(u)[v] on the
            # surviving base (loops never shorten a distinct-pair
            # route), i.e. exactly the length the generic fault_route
            # hook reports; the final `reach` is the same closure the
            # squaring loop below produces.
            reach = np.broadcast_to(np.eye(g, dtype=bool), adj.shape).copy()
            # int32 halves the largest paths-mode temporaries; every
            # distance is below g, and int32 / int64 divides exactly
            # like int64 / int64 in the stretch ratios
            dist = np.full((batch, g, g), -1, dtype=np.int32)
            dist[:, diag, diag] = 0
            adj_f = adj.astype(np.float32)
            while True:
                grown = (_count_matmul(reach, adj_f) > 0) | reach
                frontier = grown & ~reach
                if not frontier.any():
                    break
                hops += 1
                dist[frontier] = hops
                reach = grown
        else:
            # reachability closure by repeated squaring: R holds
            # "reaches in <= 2^k hops" (identity included, loops kept --
            # the same booleans as bfs_distances(u)[v] >= 0 on the
            # surviving base)
            reach = adj.copy()
            reach[:, diag, diag] = True
            while True:
                reach_f = reach.astype(np.float32)
                grown = _count_matmul(reach_f, reach_f) > 0
                if np.array_equal(grown, reach):
                    break
                reach = grown
        # a same-group pair needs a surviving closed walk at its group:
        # some surviving out-arc (u, v) that is a loop or can get back
        sibling_ok = np.any(adj & np.swapaxes(reach, 1, 2), axis=2)
        dead_per_group = _count_matmul(dead_proc, self._group_onehot)
        alive_per_group = self._group_sizes[None, :] - dead_per_group.astype(
            np.int64
        )
        reach_off = reach.copy()
        reach_off[:, diag, diag] = False
        cross = np.einsum(
            "bu,buv,bv->b",
            alive_per_group,
            reach_off.astype(np.int64),
            alive_per_group,
        )
        same = (alive_per_group * (alive_per_group - 1) * sibling_ok).sum(axis=1)
        connected = cross + same
        alive = alive_per_group.sum(axis=1)
        alive_pairs = alive * (alive - 1)
        live = (alive_per_group > 0).astype(np.int64)
        num_live = live.sum(axis=1)
        routed = np.einsum(
            "bu,buv,bv->b", live, reach_off.astype(np.int64), live
        )
        live_pairs = num_live * (num_live - 1)
        connectivity = connected / (n * (n - 1))
        alive_conn = np.where(
            alive_pairs > 0, connected / np.maximum(alive_pairs, 1), 1.0
        )
        reachable = np.where(
            num_live >= 2, routed / np.maximum(live_pairs, 1), 1.0
        )
        if not paths_mode:
            return [
                {
                    "connectivity": float(connectivity[j]),
                    "alive_connectivity": float(alive_conn[j]),
                    "reachable_groups": float(reachable[j]),
                }
                for j in range(batch)
            ]
        return self._paths_rows(
            batch,
            dist,
            hops,
            alive_per_group,
            num_live,
            live_pairs,
            connectivity,
            alive_conn,
        )

    def _paths_rows(
        self,
        batch: int,
        dist: np.ndarray,
        hops: int,
        alive_per_group: np.ndarray,
        num_live: np.ndarray,
        live_pairs: np.ndarray,
        connectivity: np.ndarray,
        alive_conn: np.ndarray,
    ) -> list[dict[str, object]]:
        """``paths``-mode rows from the batched distance tensor.

        Reproduces :func:`~repro.resilience.metrics.path_survival`
        value for value: same live-pair set, same ``routed`` /
        ``within`` / ``max_path_length`` counts, and the identical
        ``mean_stretch`` float -- both sides feed the same multiset of
        exact ``length / intact_distance`` ratios through
        :func:`math.fsum`, which is order-independent.
        """
        bound = self.plan.bound
        diag = np.arange(self.arrays.num_groups)
        live = alive_per_group > 0
        pair_mask = live[:, :, None] & live[:, None, :]
        pair_mask[:, diag, diag] = False
        routed_mask = pair_mask & (dist > 0)
        routed_counts = routed_mask.sum(axis=(1, 2))
        within_counts = (routed_mask & (dist <= bound)).sum(axis=(1, 2))
        max_len = np.where(routed_mask, dist, -1).max(axis=(1, 2), initial=-1)
        # stretch denominators: pairs unreachable *intact* (d0 == -1)
        # have no defined stretch and stay out of the mean (they still
        # count in reachable/within, mirroring path_survival)
        stretch_mask = routed_mask & (self._intact_dist > 0)[None, :, :]
        # every trial's ratios in one trial-major array: trial j's
        # terms are ratios[ends[j - 1]:ends[j]]
        intact = np.broadcast_to(self._intact_dist, dist.shape)
        ratios = dist[stretch_mask] / intact[stretch_mask]
        ends = np.cumsum(stretch_mask.sum(axis=(1, 2))).tolist()
        registry = worker_registry()
        labels = {"backend": self.plan.backend}
        registry.counter(
            "repro_sweep_paths_kernel_trials_total", _PATHS_TRIALS_HELP, labels
        ).inc(batch)
        registry.histogram(
            "repro_sweep_paths_kernel_hops", _PATHS_HOPS_HELP, labels
        ).observe(hops)
        rows: list[dict[str, object]] = []
        for j in range(batch):
            row: dict[str, object] = {
                "connectivity": float(connectivity[j]),
                "alive_connectivity": float(alive_conn[j]),
            }
            if num_live[j] < 2:
                row.update(
                    reachable_groups=1.0,
                    max_path_length=0,
                    mean_stretch=1.0,
                    within_bound=1.0,
                )
            elif routed_counts[j] == 0:
                # nothing routed: the bound is *not* vacuously confirmed
                row.update(
                    reachable_groups=0.0,
                    max_path_length=-1,
                    mean_stretch=0.0,
                    within_bound=0.0,
                )
            else:
                terms = ratios[ends[j - 1] if j else 0 : ends[j]].tolist()
                row.update(
                    reachable_groups=int(routed_counts[j]) / int(live_pairs[j]),
                    max_path_length=int(max_len[j]),
                    mean_stretch=(
                        math.fsum(terms) / len(terms) if terms else 1.0
                    ),
                    within_bound=int(within_counts[j]) / int(routed_counts[j]),
                )
            rows.append(row)
        return rows


def _export_shared(
    arrays: _TopologyArrays,
) -> tuple[tuple, list[shared_memory.SharedMemory]]:
    """Copy the topology arrays into named shared-memory segments.

    Returns ``(meta, handles)``: ``meta`` is the picklable attachment
    recipe shipped to workers, ``handles`` the parent-owned segments
    (close + unlink them once the pool is done).
    """
    entries = []
    handles: list[shared_memory.SharedMemory] = []
    try:
        for name in _ARRAY_FIELDS:
            arr: np.ndarray = getattr(arrays, name)
            shm = shared_memory.SharedMemory(
                create=True, size=max(arr.nbytes, 1)
            )
            handles.append(shm)
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
            view[...] = arr
            entries.append((name, shm.name, arr.shape, arr.dtype.str))
    except BaseException:
        # never leak the segments already created (e.g. /dev/shm full
        # partway through the export)
        _release_shared(handles)
        raise
    meta = (
        arrays.num_processors,
        arrays.num_groups,
        arrays.num_couplers,
        tuple(entries),
    )
    return meta, handles


def _attach_shared(
    meta,
) -> tuple[_TopologyArrays, list[shared_memory.SharedMemory]]:
    """Worker-side inverse of :func:`_export_shared` (views, not copies)."""
    n, g, m, entries = meta
    handles = []
    kwargs: dict[str, np.ndarray] = {}
    for field_name, shm_name, shape, dtype in entries:
        shm = shared_memory.SharedMemory(name=shm_name)
        handles.append(shm)
        kwargs[field_name] = np.ndarray(
            shape, dtype=np.dtype(dtype), buffer=shm.buf
        )
    arrays = _TopologyArrays(
        num_processors=n, num_groups=g, num_couplers=m, **kwargs
    )
    return arrays, handles


def _release_shared(handles: list[shared_memory.SharedMemory]) -> None:
    """Close and unlink parent-owned shared segments (idempotent)."""
    for shm in handles:
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


# ----------------------------------------------------------------------
# Worker plumbing shared by the per-sweep and the pooled executors.
# ----------------------------------------------------------------------
def _make_context(plan, net=None, arrays=None):
    """The trial-runner context for ``plan`` (builds what it lacks).

    ``plan`` is a :class:`_SweepPlan` or a temporal replay plan
    (``backend == "temporal"``, turned into a ``_TemporalContext``).
    """
    if plan.backend == "temporal":
        from ..temporal.replay import _TemporalContext

        return _TemporalContext(plan, net=net, arrays=arrays)
    if plan.backend == "vectorized":
        if arrays is None:
            if net is None:
                from ..core.spec import NetworkSpec

                net = NetworkSpec.parse(plan.canonical).build()
            arrays = _TopologyArrays.from_network(net)
        return _VectorContext(plan, arrays)
    return _TrialContext(plan, net=net)


# -- chunk observation (fork-aware metrics + shipped timings) ---------
#: Help strings of the sweep metric families, parent- and worker-side.
_CHUNKS_HELP = "Sweep trial chunks executed"
_TRIALS_HELP = "Monte-Carlo trials executed"
_RUN_HELP = "Wall time of one sweep trial chunk"
_WAIT_HELP = "Queue wait between chunk dispatch and worker pickup"
_PATHS_TRIALS_HELP = "Trials scored by the vectorized all-pairs paths kernel"
_PATHS_HOPS_HELP = "BFS frontier expansions per vectorized paths batch"
_SAMPLE_HELP = "Fault sampling time of one trial chunk"
_KERNEL_HELP = "Scoring time of one trial chunk"
_SIMULATE_HELP = "Slotted-simulator time of one full-mode trial chunk"
_DOWNGRADE_HELP = "Sweeps downgraded from their requested backend"


def _observe_chunk_split(
    plan, sample_s: float, kernel_s: float, timings: dict | None = None
) -> None:
    """One chunk's sampling and scoring seconds (and, given ``timings``,
    its simulator seconds) on the per-mode chunk histograms."""
    registry = worker_registry()
    labels = {"backend": plan.backend, "metrics": plan.metrics}
    registry.histogram(
        "repro_sweep_sample_seconds", _SAMPLE_HELP, labels
    ).observe(sample_s)
    registry.histogram(
        "repro_sweep_kernel_seconds", _KERNEL_HELP, labels
    ).observe(kernel_s)
    if timings is not None:
        registry.histogram(
            "repro_sweep_simulate_seconds", _SIMULATE_HELP, labels
        ).observe(timings["simulate"])


def _observed_range(ctx, start: int, stop: int):
    """``(rows, meta)`` of a trial range, with the worker's obs delta.

    Workers always measure (two clock reads per multi-trial chunk --
    noise) and record into the per-process worker registry; ``meta``
    ships the drained registry delta plus the chunk's wall window home
    with the rows.  The parent merges the delta into the global
    registry and decides whether a tracer turns the timings into
    events -- the tracing flag never propagates to workers, and the
    rows themselves are untouched either way.
    """
    labels = {"backend": ctx.plan.backend}
    registry = worker_registry()
    start_us = now_us()
    rows = ctx.run_range(start, stop)
    duration_us = now_us() - start_us
    registry.counter("repro_sweep_chunks_total", _CHUNKS_HELP, labels).inc()
    registry.counter("repro_sweep_trials_total", _TRIALS_HELP, labels).inc(
        stop - start
    )
    registry.histogram(
        "repro_sweep_chunk_run_seconds", _RUN_HELP, labels
    ).observe(duration_us / 1e6)
    meta = {
        "metrics": registry.drain(),
        "start_us": start_us,
        "dur_us": duration_us,
        "pid": os.getpid(),
        "trials": stop - start,
        "backend": ctx.plan.backend,
    }
    return rows, meta


def _absorb_chunk_metas(metas, dispatched_us: int | None = None) -> None:
    """Merge shipped worker deltas into the parent's global registry.

    Every merge operation is commutative, so the totals are identical
    for any worker count and chunk completion order.  With a dispatch
    timestamp the parent also derives per-chunk queue wait (dispatch
    -> worker pickup); with a tracer active each chunk becomes a
    ``sweep.chunk`` event on the worker's own pid row of the timeline.
    """
    for meta in metas:
        if not meta:
            continue
        REGISTRY.merge(meta["metrics"])
        if dispatched_us is not None:
            wait = max(meta["start_us"] - dispatched_us, 0) / 1e6
            REGISTRY.histogram(
                "repro_sweep_queue_wait_seconds",
                _WAIT_HELP,
                {"backend": meta["backend"]},
            ).observe(wait)
        add_complete_event(
            "sweep.chunk",
            meta["start_us"],
            meta["dur_us"],
            args={"trials": meta["trials"], "backend": meta["backend"]},
            pid=meta["pid"],
            tid=0,
        )


def _observe_inline_run(plan: _SweepPlan, trials: int, seconds: float) -> None:
    """Record one inline (in-parent) run as a single chunk observation."""
    labels = {"backend": plan.backend}
    REGISTRY.counter("repro_sweep_chunks_total", _CHUNKS_HELP, labels).inc()
    REGISTRY.counter("repro_sweep_trials_total", _TRIALS_HELP, labels).inc(
        trials
    )
    REGISTRY.histogram(
        "repro_sweep_chunk_run_seconds", _RUN_HELP, labels
    ).observe(seconds)
    # contexts record kernel-level series (e.g. the vectorized paths
    # kernel counters) into the worker registry regardless of where
    # they run; inline runs drain that delta into the global registry
    # here, exactly as _absorb_chunk_metas does for pool chunks
    REGISTRY.merge(worker_registry().drain())


_WORKER_CTX = None
_WORKER_SHM: list[shared_memory.SharedMemory] = []


def _init_sweep_worker(plan: _SweepPlan, shared_meta=None) -> None:
    """Pool initializer: build the shared trial context once per process."""
    global _WORKER_CTX, _WORKER_SHM
    reset_worker_registry()  # drop fork-inherited parent state
    if shared_meta is not None:
        arrays, _WORKER_SHM = _attach_shared(shared_meta)
        _WORKER_CTX = _VectorContext(plan, arrays)
    else:
        _WORKER_CTX = _make_context(plan)


def _run_sweep_chunk(index_range: tuple[int, int]):
    """Run a contiguous range of trials on the process-local context.

    Returns ``(rows, meta)`` -- the trial rows plus the worker's
    observation delta (see :func:`_observed_range`).
    """
    assert _WORKER_CTX is not None, "sweep worker used before initialization"
    return _observed_range(_WORKER_CTX, *index_range)


_POOL_PLANS: tuple[_SweepPlan, ...] | None = None
_POOL_METAS: tuple | None = None
_POOL_CTXS: dict[int, object] = {}
#: plan index -> ``(arrays, handles)``: shared-memory attachments are
#: kept for the pool's lifetime (views are cheap; the segments are
#: shared) so an evicted vectorized context never re-attaches.
_POOL_SHM: dict[int, tuple] = {}

#: Most sweep contexts a pooled worker keeps alive at once.  Batched
#: contexts hold a whole built network, and a design-search window can
#: span hundreds of candidates; evicting in insertion order keeps each
#: worker at O(1) networks (chunk scheduling is mostly contiguous per
#: candidate, so evicted contexts are rarely rebuilt).
_POOL_CTX_CACHE = 8


def _init_pool_worker(plans: tuple[_SweepPlan, ...], shared_metas) -> None:
    """Pool initializer for the many-sweeps-one-pool executor."""
    global _POOL_PLANS, _POOL_METAS, _POOL_CTXS, _POOL_SHM
    reset_worker_registry()  # drop fork-inherited parent state
    _POOL_PLANS = plans
    _POOL_METAS = shared_metas
    _POOL_CTXS = {}
    _POOL_SHM = {}


def _run_pool_chunk(task: tuple[int, int, int]):
    """Run one sweep's trial range; contexts are cached per process.

    Vectorized plans come with a shared-memory meta: the worker
    attaches the parent's topology arrays (views, not copies) instead
    of rebuilding the candidate's network.  Returns
    ``(plan_index, start, rows, obs_meta)``.
    """
    assert _POOL_PLANS is not None, "pool worker used before initialization"
    plan_index, start, stop = task
    ctx = _POOL_CTXS.get(plan_index)
    if ctx is None:
        meta = _POOL_METAS[plan_index] if _POOL_METAS else None
        if meta is not None:
            attached = _POOL_SHM.get(plan_index)
            if attached is None:
                attached = _POOL_SHM[plan_index] = _attach_shared(meta)
            ctx = _VectorContext(_POOL_PLANS[plan_index], attached[0])
        else:
            ctx = _make_context(_POOL_PLANS[plan_index])
        while len(_POOL_CTXS) >= _POOL_CTX_CACHE:
            _POOL_CTXS.pop(next(iter(_POOL_CTXS)))
        _POOL_CTXS[plan_index] = ctx
    rows, obs_meta = _observed_range(ctx, start, stop)
    return plan_index, start, rows, obs_meta


def _index_chunks(trials: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous ``(start, stop)`` trial ranges, ~4 chunks per worker."""
    chunk = max(1, trials // (workers * 4))
    return [(lo, min(lo + chunk, trials)) for lo in range(0, trials, chunk)]


# ----------------------------------------------------------------------
# Persistent executor: one long-lived pool, contexts re-keyed by plan.
# ----------------------------------------------------------------------
#: Most plan contexts a persistent worker (or the inline executor)
#: keeps alive at once; least recently used evicted first.
_PERSIST_CTX_CACHE = 8

_PERSIST_CTXS: OrderedDict = OrderedDict()
_PERSIST_LIMIT = _PERSIST_CTX_CACHE


def _init_persistent_worker(context_cache: int) -> None:
    """Pool initializer: an empty per-process plan-keyed context cache."""
    global _PERSIST_CTXS, _PERSIST_LIMIT
    reset_worker_registry()  # drop fork-inherited parent state
    _PERSIST_CTXS = OrderedDict()
    _PERSIST_LIMIT = context_cache


def _cached_context(cache: OrderedDict, limit: int, plan: _SweepPlan, **kw):
    """The trial context for ``plan``, LRU-cached when the plan hashes.

    Plans are frozen dataclasses, hashable whenever their fault model
    is (every built-in model); an unhashable custom model just skips
    caching and rebuilds per chunk -- correct, only slower.
    """
    try:
        ctx = cache.get(plan)
    except TypeError:
        return _make_context(plan, **kw)
    if ctx is not None:
        cache.move_to_end(plan)
        return ctx
    ctx = _make_context(plan, **kw)
    while len(cache) >= limit:
        cache.popitem(last=False)
    cache[plan] = ctx
    return ctx


def _run_persistent_chunk(task: tuple[int, _SweepPlan, int, int]):
    """Run one sweep's trial range on the persistent worker's context cache.

    Unlike the one-shot initializers, the plan travels with the task,
    so one pool serves any sequence of sweeps: a worker builds the
    context the first time it sees a plan and reuses it for every
    later chunk of that plan.
    """
    index, plan, start, stop = task
    ctx = _cached_context(_PERSIST_CTXS, _PERSIST_LIMIT, plan)
    rows, obs_meta = _observed_range(ctx, start, stop)
    return index, start, rows, obs_meta


class PersistentSweepExecutor:
    """A reusable sweep executor that owns one lazily-started pool.

    The one-shot path pays a full ``multiprocessing`` pool spawn (and
    per-process network build) on every sweep call; this executor
    keeps the pool alive across calls and ships each task its frozen
    :class:`_SweepPlan`, so workers re-initialize their trial context
    only when the plan actually changes.  ``workers`` of
    ``None``/``0``/``1`` runs inline with a parent-side context cache
    (warm repeated sweeps skip context rebuilds there too).

    Row lists are **byte-identical** to the one-shot executor for the
    same plan and worker count -- trial chunking, per-trial seeds and
    row order are shared.  This is what
    :class:`repro.core.session.Session` injects into
    :func:`survivability_sweep`, :func:`pooled_survivability_sweeps`
    and the design search, and what runs temporal replay plans
    (:meth:`run_range` on a prepared temporal sweep; their chunks are
    observed under ``backend="temporal"``).
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        context_cache: int = _PERSIST_CTX_CACHE,
    ) -> None:
        if context_cache < 1:
            raise ValueError(
                f"context_cache must be >= 1, got {context_cache}"
            )
        self.workers = workers if workers is not None and workers > 1 else 0
        self._context_cache = context_cache
        self._pool = None
        self._pool_lock = threading.Lock()
        self._inline_ctxs: OrderedDict = OrderedDict()
        self._inline_lock = threading.Lock()
        self._closed = False
        self._interrupted = False

    @property
    def parallel(self) -> bool:
        """Whether this executor fans trials over a worker pool."""
        return self.workers > 1

    @property
    def pool_started(self) -> bool:
        """Whether the lazily-created pool currently exists."""
        return self._pool is not None

    def _ensure_pool(self):
        if self._closed:
            raise RuntimeError("executor is closed")
        # locked: concurrent server threads must share ONE pool, never
        # race two into existence (Pool itself is thread-safe once built)
        with self._pool_lock:
            if self._pool is None:
                self._pool = multiprocessing.Pool(
                    processes=self.workers,
                    initializer=_init_persistent_worker,
                    initargs=(self._context_cache,),
                )
            return self._pool

    def _pool_map(self, fn, tasks, chunksize=None):
        """``pool.map`` that remembers interrupts for :meth:`close`.

        A ``KeyboardInterrupt``/``SystemExit`` mid-map can leave tasks
        the pool will never drain; marking the executor interrupted
        makes the eventual :meth:`close` terminate the workers instead
        of hanging on (or warning out of) a doomed drain.
        """
        pool = self._ensure_pool()
        try:
            if chunksize is None:
                return pool.map(fn, tasks)
            return pool.map(fn, tasks, chunksize=chunksize)
        except (KeyboardInterrupt, SystemExit):
            self._interrupted = True
            raise

    def run(self, prepared: _PreparedSweep, *, arrays=None) -> list[dict]:
        """All trial rows of one prepared sweep, in trial-index order.

        ``arrays`` (inline vectorized runs only) short-circuits the
        topology export when the caller already holds the spec's
        :class:`_TopologyArrays`.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        plan, trials = prepared.plan, prepared.trials
        if plan.backend == "legacy":
            tasks = _legacy_tasks(plan, trials)
            if not self.parallel:
                return [_run_trial(t) for t in tasks]
            return self._pool_map(
                _run_trial,
                tasks,
                chunksize=max(1, trials // (self.workers * 4)),
            )
        return self.run_range(prepared, 0, trials, arrays=arrays)

    def run_range(
        self, prepared: _PreparedSweep, start: int, stop: int, *, arrays=None
    ) -> list[dict]:
        """Rows of trials ``start .. stop - 1`` of one prepared sweep.

        The adaptive engine's wave primitive: each wave is one
        contiguous index range, so per-trial seeds -- and therefore
        the rows -- are exactly what a fixed run of ``stop`` trials
        would produce for that slice, at any worker count.  Legacy
        plans have no range form (they are excluded from adaptive
        sweeps at validation).
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        plan = prepared.plan
        if plan.backend == "legacy":
            raise ValueError(
                "trial ranges support the batched and vectorized "
                "backends; the legacy reference path runs whole sweeps"
            )
        if start >= stop:
            return []
        if not self.parallel:
            # lock covers only the cache lookup/insert; trial compute
            # runs unlocked (contexts are read-only once built)
            with self._inline_lock:
                ctx = _cached_context(
                    self._inline_ctxs,
                    self._context_cache,
                    plan,
                    net=prepared.net,
                    arrays=arrays,
                )
            start_us = now_us()
            rows = ctx.run_range(start, stop)
            _observe_inline_run(
                plan, stop - start, (now_us() - start_us) / 1e6
            )
            return rows
        tasks = [
            (0, plan, start + lo, start + hi)
            for lo, hi in _index_chunks(stop - start, self.workers)
        ]
        dispatched_us = now_us()
        chunks = self._pool_map(_run_persistent_chunk, tasks)
        _absorb_chunk_metas((meta for _, _, _, meta in chunks), dispatched_us)
        return [row for _, _, rows, _ in chunks for row in rows]

    def run_many(
        self, prepared_list: list[_PreparedSweep], *, arrays_list=None
    ) -> list[list[dict]]:
        """Row lists for many prepared sweeps, scheduled on ONE pool.

        Returns one row list per input sweep, each identical to what
        :meth:`run` would produce for it alone.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        if not self.parallel:
            out = []
            for i, prepared in enumerate(prepared_list):
                arrays = arrays_list[i] if arrays_list else None
                out.append(self.run(prepared, arrays=arrays))
            return out
        tasks = [
            (i, p.plan, lo, hi)
            for i, p in enumerate(prepared_list)
            for lo, hi in _index_chunks(p.trials, self.workers)
        ]
        dispatched_us = now_us()
        results = self._pool_map(_run_persistent_chunk, tasks)
        _absorb_chunk_metas((meta for _, _, _, meta in results), dispatched_us)
        by_sweep: list[dict[int, list[dict]]] = [{} for _ in prepared_list]
        for index, start, rows, _meta in results:
            by_sweep[index][start] = rows
        return [
            [row for start in sorted(g) for row in g[start]] for g in by_sweep
        ]

    def close(self, *, terminate: bool = False) -> None:
        """Shut the pool down and drop cached contexts (idempotent).

        ``terminate=False`` (the default) drains the pool: workers
        finish in-flight chunks and exit.  ``terminate=True`` kills
        them immediately -- the path signal handlers take, where an
        interrupted ``map`` may never return its tasks and a drain
        would hang.  Either way teardown is quiet: a pool whose drain
        fails (workers already dead after a ``KeyboardInterrupt``,
        interpreter shutdown races) falls back to terminate instead of
        leaking ``BrokenProcessPool``/resource-tracker warnings out of
        ``atexit``.
        """
        self._closed = True
        self._inline_ctxs.clear()
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is None:
            return
        terminate = terminate or self._interrupted
        try:
            if terminate:
                pool.terminate()
            else:
                pool.close()
            pool.join()
        except BaseException:
            # last resort: never let teardown noise escape -- kill the
            # workers and swallow whatever state the pool was left in
            try:
                pool.terminate()
                pool.join()
            except BaseException:  # pragma: no cover - interpreter exit
                pass
            if not terminate:
                raise

    def __enter__(self) -> "PersistentSweepExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# Preparation and aggregation shared by every executor.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _PreparedSweep:
    """One validated sweep: the worker plan plus parent-only state."""

    plan: _SweepPlan
    trials: int
    simulate: bool
    net: object  # the built network (parent-side only; never pickled)
    #: why ``plan.backend`` differs from the requested backend
    #: (``None`` when it does not); surfaced on the summary
    downgrade: str | None = None
    #: sequential-stopping half-width target (``None`` = fixed trials)
    ci_target: float | None = None
    #: the requested trial-allocation strategy (``"uniform"``,
    #: ``"stratified"`` or ``"importance"``); the index-aware sampler
    #: itself rides inside ``plan.model``
    sampling: str = "uniform"


def _intact_baseline(
    net,
    family_key: str,
    *,
    workload: str,
    messages: int,
    seed: int,
    max_slots: int,
) -> float:
    """Mean latency of the intact network under one workload config.

    The normalizer for ``metrics="full"`` latency inflation; it
    depends only on ``(workload, messages, seed, max_slots)``, so
    sessions cache it per spec instead of recomputing per sweep.
    """
    from ..core.registry import get_family
    from ..core.workloads import resolve_workload
    from ..simulation.network_sim import run_traffic

    traffic = resolve_workload(workload, net, messages=messages, seed=seed)
    report = run_traffic(
        get_family(family_key).simulator(net), traffic, max_slots=max_slots
    )
    return report.mean_latency


def _paths_kernel_refusal(family_key: str, net) -> str | None:
    """Why the vectorized paths kernel cannot score ``net`` (or ``None``).

    The kernel's distances equal the generic BFS fallback's route
    lengths; a structured ``fault_route`` hook (stack-Kautz word-level
    routing) can return longer routes, so those families run on the
    ``fault_route`` scan instead -- recorded, never silent.
    """
    from ..core.registry import NetworkFamily, get_family

    if type(get_family(family_key)).fault_route is not NetworkFamily.fault_route:
        return (
            f"family {family_key!r} overrides fault_route with "
            "structured routing the vectorized paths kernel cannot "
            "reproduce byte-for-byte"
        )
    if net.num_groups > 1 and not hasattr(net, "base_graph"):
        # defensive: stretch denominators come from the base graph;
        # no registered multi-group family lacks one today
        return f"family {family_key!r} exposes no base_graph() for intact distances"
    return None


def _prepare_sweep(
    spec,
    model: FaultModel | str = "coupler",
    *,
    faults: int | None = None,
    trials: int = 100,
    seed: int = 0,
    workload: str = "uniform",
    messages: int = 60,
    bound: int | None = None,
    max_slots: int = 100_000,
    metrics: str = "full",
    backend: str = "batched",
    ci_target: float | None = None,
    sampling: str = "uniform",
    _net=None,
    _baseline=None,
) -> _PreparedSweep:
    """Validate one sweep request and freeze its :class:`_SweepPlan`.

    ``_net`` and ``_baseline`` are internal fast paths: callers that
    already hold the built network / the intact-baseline mean latency
    (sessions, the design search) pass them to skip the recompute;
    they MUST match what ``spec`` would produce.  ``_baseline`` may be
    a float or a zero-argument callable producing one -- the callable
    is only invoked after the request validates (so cache-backed
    providers never run for rejected requests).
    """
    from ..core.spec import NetworkSpec

    parsed = NetworkSpec.parse(spec)
    if isinstance(model, str):
        model = make_fault_model(model, 1 if faults is None else faults)
    elif faults is not None:
        raise ValueError(
            "faults applies to string model keys; a FaultModel instance "
            "already carries its intensity"
        )
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if ci_target is not None:
        if not isinstance(ci_target, (int, float)) or isinstance(
            ci_target, bool
        ):
            raise ValueError(
                f"ci_target must be a number > 0 or None, got {ci_target!r}"
            )
        if not ci_target > 0:
            raise ValueError(f"ci_target must be > 0, got {ci_target}")
        ci_target = float(ci_target)
    if sampling not in SAMPLING_MODES:
        known = ", ".join(SAMPLING_MODES)
        raise ValueError(f"unknown sampling mode {sampling!r}; known: {known}")
    if backend == "legacy" and (ci_target is not None or sampling != "uniform"):
        raise ValueError(
            "adaptive sweeps (ci_target=/sampling=) support the batched "
            "and vectorized backends; the legacy reference path runs "
            "fixed uniform sweeps only"
        )
    if metrics not in METRICS_MODES:
        known = ", ".join(sorted(METRICS_MODES))
        raise ValueError(f"unknown metrics mode {metrics!r}; known: {known}")
    if backend not in SWEEP_BACKENDS:
        known = ", ".join(SWEEP_BACKENDS)
        raise ValueError(f"unknown sweep backend {backend!r}; known: {known}")
    if backend == "legacy" and metrics != "full":
        raise ValueError(
            "the legacy backend only supports metrics='full'; use "
            "backend='batched' for connectivity/paths short-circuits "
            "(or 'vectorized' for connectivity/paths at scale)"
        )
    if backend == "vectorized" and metrics == "full":
        raise ValueError(
            "the vectorized backend scores metrics='connectivity' and "
            "'paths'; 'full' (slotted simulation) needs backend='batched'"
        )
    net = parsed.build() if _net is None else _net
    downgrade = None
    if backend == "vectorized" and metrics == "paths":
        downgrade = _paths_kernel_refusal(parsed.family, net)
        if downgrade is not None:
            downgrade += "; executed on backend='batched'"
            backend = "batched"
    if sampling != "uniform":
        # the index-aware sampler wrapper rides in the plan's model
        # slot: same key/faults surface, but trial contexts detect
        # scenario_at/sample_faults_at and pass the trial index through
        model = make_sampler(
            model, net, sampling=sampling, trials=trials, ci_target=ci_target
        )
    if downgrade is not None:
        REGISTRY.counter(
            "repro_sweep_backend_downgrades_total",
            _DOWNGRADE_HELP,
            {"from": "vectorized", "to": backend},
        ).inc()
    resolved_bound = net.diameter + 2 if bound is None else bound
    simulate = metrics == "full"
    if simulate:
        # The intact baseline depends only on (workload, messages, seed):
        # run it once here instead of once per trial.
        if _baseline is None:
            baseline_mean_latency = _intact_baseline(
                net,
                parsed.family,
                workload=workload,
                messages=messages,
                seed=seed,
                max_slots=max_slots,
            )
        elif callable(_baseline):
            baseline_mean_latency = _baseline()
        else:
            baseline_mean_latency = _baseline
    else:
        baseline_mean_latency = None
    plan = _SweepPlan(
        canonical=parsed.canonical(),
        model=model,
        seed=seed,
        workload=workload,
        messages=messages,
        bound=resolved_bound,
        max_slots=max_slots,
        baseline_mean_latency=baseline_mean_latency,
        metrics=metrics,
        backend=backend,
    )
    return _PreparedSweep(
        plan=plan,
        trials=trials,
        simulate=simulate,
        net=net,
        downgrade=downgrade,
        ci_target=ci_target,
        sampling=sampling,
    )


def _summarize(prepared: _PreparedSweep, rows: list[dict]) -> SweepSummary:
    """Aggregate per-trial rows into the deterministic quantile summary.

    Denominators come from ``len(rows)``, not the requested trial
    count: an adaptive sweep may stop before spending its cap, and the
    summary's ``trials`` then reports what actually ran (the cap
    survives in the ``adaptive`` block's ``trials_requested``).
    """
    plan, trials = prepared.plan, len(rows)
    summarized = METRICS_MODES[plan.metrics]
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
    if "within_bound" in summarized:
        within_full = sum(1 for r in rows if float(r["within_bound"]) >= 1.0)
        within_bound_fraction = round(within_full / trials, 6)
    else:
        within_bound_fraction = None
    # partitioned == some *surviving* pair severed: dead endpoints are a
    # casualty count, not a partition (alive_connectivity excludes them)
    partitioned = sum(
        1 for r in rows if float(r["alive_connectivity"]) < 1.0
    )
    return SweepSummary(
        spec=plan.canonical,
        model=plan.model.key,
        faults=plan.model.faults,
        trials=trials,
        seed=plan.seed,
        workload=plan.workload,
        messages=plan.messages if prepared.simulate else 0,
        bound=plan.bound,
        quantiles=quantiles,
        within_bound_fraction=within_bound_fraction,
        partitioned_fraction=round(partitioned / trials, 6),
        backend=plan.backend,
        downgrade_reason=prepared.downgrade,
        adaptive=adaptive_summary_block(prepared, rows),
    )


def _legacy_tasks(plan: _SweepPlan, trials: int) -> list[tuple]:
    """The legacy backend's one-task-per-trial argument tuples."""
    return [
        (
            plan.canonical,
            plan.model,
            trial_seed(plan.seed, i),
            plan.workload,
            plan.messages,
            plan.seed,
            plan.bound,
            plan.max_slots,
            plan.baseline_mean_latency,
        )
        for i in range(trials)
    ]


def _execute(
    prepared: _PreparedSweep,
    workers: int | None,
    executor: "PersistentSweepExecutor | None" = None,
    extra_stop=None,
) -> list[dict]:
    """Run one prepared sweep's trials on the plan's backend.

    With ``executor`` the trials run on its (persistent) pool; without
    one, this is the one-shot path that spawns and tears down a pool
    per call.  Row lists are byte-identical either way.  A sweep with
    ``ci_target`` set runs the sequential-stopping wave loop instead
    of one fixed batch (``extra_stop`` is its optional second stopping
    rule -- the design search's early discard).
    """
    plan, trials = prepared.plan, prepared.trials
    if prepared.ci_target is not None:
        if executor is not None:
            return run_adaptive(prepared, executor, extra_stop=extra_stop)
        with PersistentSweepExecutor(workers) as owned:
            return run_adaptive(prepared, owned, extra_stop=extra_stop)
    if executor is not None:
        return executor.run(prepared)
    parallel = workers is not None and workers > 1
    if plan.backend == "legacy":
        tasks = _legacy_tasks(plan, trials)
        if parallel:
            with multiprocessing.Pool(processes=workers) as pool:
                return pool.map(
                    _run_trial, tasks, chunksize=max(1, trials // (workers * 4))
                )
        return [_run_trial(t) for t in tasks]
    if not parallel:
        ctx = _make_context(plan, net=prepared.net)
        start_us = now_us()
        rows = ctx.run_range(0, trials)
        _observe_inline_run(plan, trials, (now_us() - start_us) / 1e6)
        return rows
    dispatched_us = now_us()
    if plan.backend == "vectorized":
        # topology arrays go into shared memory once; workers attach
        meta, handles = _export_shared(
            _TopologyArrays.from_network(prepared.net)
        )
        try:
            with multiprocessing.Pool(
                processes=workers,
                initializer=_init_sweep_worker,
                initargs=(plan, meta),
            ) as pool:
                chunks = pool.map(_run_sweep_chunk, _index_chunks(trials, workers))
        finally:
            _release_shared(handles)
    else:
        with multiprocessing.Pool(
            processes=workers,
            initializer=_init_sweep_worker,
            initargs=(plan,),
        ) as pool:
            chunks = pool.map(_run_sweep_chunk, _index_chunks(trials, workers))
    _absorb_chunk_metas((meta for _, meta in chunks), dispatched_us)
    return [row for rows, _ in chunks for row in rows]


def survivability_sweep(
    spec,
    model: FaultModel | str = "coupler",
    *,
    faults: int | None = None,
    trials: int = 100,
    seed: int = 0,
    workers: int | None = None,
    workload: str = "uniform",
    messages: int = 60,
    bound: int | None = None,
    max_slots: int = 100_000,
    metrics: str = "full",
    backend: str = "batched",
    ci_target: float | None = None,
    sampling: str = "uniform",
    _net=None,
    _executor: PersistentSweepExecutor | None = None,
    _extra_stop=None,
) -> SweepSummary:
    """Monte-Carlo survivability of ``spec`` under ``model`` faults.

    ``model`` is a :class:`FaultModel` instance or a registered key
    (``"coupler"``, ``"processor"``, ``"link"``, ``"adversarial"``,
    ``"group"``); string keys get intensity ``faults`` (default 1).
    Passing ``faults`` alongside a :class:`FaultModel` instance is an
    error -- the instance already carries its intensity.  ``workers``
    counts ``multiprocessing`` processes (``None``/``0``/``1`` runs
    inline); the aggregate is identical for every worker count.

    ``metrics`` selects scoring depth: ``"full"`` (everything,
    including the degraded slotted simulation), ``"paths"``
    (connectivity + route quality, no simulation) or
    ``"connectivity"`` (surviving-base reachability only -- the
    design-search fast path).  ``backend`` selects the executor:
    ``"batched"`` (default; shared built network per process),
    ``"vectorized"`` (shared-memory topology arrays + batched numpy
    scoring; ``connectivity`` and ``paths`` metrics, byte-identical to
    ``batched`` -- the 10^5-10^6-trial path) or ``"legacy"`` (the
    original rebuild-per-trial path, ``full`` metrics only).  All
    backends produce byte-identical JSON for the same seed wherever
    their metrics modes overlap.  Vectorized ``paths`` requests for
    families with structured ``fault_route`` hooks (stack-Kautz) run
    on ``batched`` instead, with the reason recorded on the summary's
    ``downgrade_reason``/``backend`` attributes -- identical numbers,
    never a silent divergence.  ``_net`` is internal: callers that
    already built the spec's network (the design search evaluates
    shape filters on it first) pass it to skip the rebuild; it MUST
    be the machine ``spec`` names.  ``_executor`` (internal, session
    plumbing) runs the trials on an injected
    :class:`PersistentSweepExecutor` instead of a one-shot pool.

    ``ci_target`` switches the sweep to sequential stopping: trials
    run in deterministic waves until the 95% confidence interval on
    the survival probability has half-width at most ``ci_target`` (or
    the ``trials`` cap is hit); the summary's ``adaptive`` block then
    reports ``trials_spent`` vs ``trials_requested`` and the final CI.
    ``sampling`` picks the trial-allocation strategy: ``"uniform"``
    (default, the plain sampler), ``"stratified"`` (trials allocated
    across fault-cardinality strata, mass-reweighted estimator) or
    ``"importance"`` (cardinality draws biased toward the rare
    high-fault tail, likelihood-ratio reweighted).  Both knobs
    preserve byte-identity at any worker count; non-uniform sampling
    needs a fault model with a known cardinality distribution
    (``coupler``, ``processor`` or ``bernoulli``).  ``_extra_stop``
    (internal, design-search plumbing) is a second stopping predicate
    evaluated per wave.

    >>> s = survivability_sweep("pops(2,2)", "coupler", trials=4, seed=1,
    ...                         messages=8)
    >>> s.trials
    4
    >>> c = survivability_sweep("pops(2,2)", "coupler", trials=4, seed=1,
    ...                         metrics="connectivity")
    >>> sorted(c.quantiles)
    ['alive_connectivity', 'connectivity', 'reachable_groups']
    >>> v = survivability_sweep("pops(2,2)", "coupler", trials=4, seed=1,
    ...                         metrics="connectivity", backend="vectorized")
    >>> v.to_json() == c.to_json()
    True
    """
    with span("sweep.prepare", spec=str(spec), trials=trials,
              backend=backend):
        prepared = _prepare_sweep(
            spec,
            model,
            faults=faults,
            trials=trials,
            seed=seed,
            workload=workload,
            messages=messages,
            bound=bound,
            max_slots=max_slots,
            metrics=metrics,
            backend=backend,
            ci_target=ci_target,
            sampling=sampling,
            _net=_net,
        )
    with span("sweep.execute", spec=prepared.plan.canonical, trials=trials,
              backend=prepared.plan.backend, metrics=prepared.plan.metrics):
        rows = _execute(prepared, workers, _executor, extra_stop=_extra_stop)
    with span("sweep.summarize", spec=prepared.plan.canonical, trials=trials):
        return _summarize(prepared, rows)


def _reject_legacy_pooled(prepared: _PreparedSweep) -> None:
    """The legacy reference executor deliberately has no pooled form."""
    if prepared.plan.backend == "legacy":
        raise ValueError(
            "pooled sweeps support the batched and vectorized backends; "
            "the legacy reference path runs per-sweep only"
        )


def pooled_survivability_sweeps(
    requests,
    *,
    workers: int | None = None,
    executor: PersistentSweepExecutor | None = None,
) -> list[SweepSummary]:
    """Run many survivability sweeps on ONE shared worker pool.

    ``requests`` is an iterable of dicts of
    :func:`survivability_sweep` keyword arguments (``spec`` required,
    same defaults; ``backend`` may be ``"batched"`` or
    ``"vectorized"`` -- ``"legacy"`` has no pooled form, and
    per-request ``workers`` is rejected since the pool is shared).
    Instead of
    opening one pool per sweep, every sweep's trial-index chunks are
    scheduled onto a single pool, so many small sweeps -- the design
    search's candidates -- keep all workers busy at once.  Workers
    build each sweep's context lazily and cache it per process.

    Returns the summaries in request order; each is **byte-identical**
    to what :func:`survivability_sweep` returns for the same request,
    whatever ``workers`` is (``None``/``0``/``1`` runs inline).
    ``executor`` (session plumbing) schedules the same chunks on an
    injected :class:`PersistentSweepExecutor` instead of a one-shot
    pool; ``workers`` is ignored in that case.

    >>> a, b = pooled_survivability_sweeps(
    ...     [dict(spec="pops(2,2)", trials=3, metrics="connectivity"),
    ...      dict(spec="sk(2,2,2)", trials=3, metrics="connectivity")])
    >>> (a.spec, b.spec)
    ('pops(2,2)', 'sk(2,2,2)')
    """
    requests = list(requests)
    for request in requests:
        if "workers" in request:
            raise ValueError(
                "per-request 'workers' is not supported; the pool is "
                "shared -- pass workers= to pooled_survivability_sweeps"
            )
    if executor is not None:
        # session plumbing: the injected executor owns pool lifetime.
        # Inline executors run one request at a time (networks released
        # as the context cache turns over); parallel ones drop the
        # parent-side nets and let workers build plan contexts lazily.
        if not executor.parallel:
            summaries = []
            for request in requests:
                p = _prepare_sweep(**request)
                _reject_legacy_pooled(p)
                if p.ci_target is not None:
                    rows = run_adaptive(p, executor)
                else:
                    rows = executor.run(p)
                summaries.append(_summarize(p, rows))
            return summaries
        prepared_list: list[_PreparedSweep] = []
        for request in requests:
            p = _prepare_sweep(**request)
            _reject_legacy_pooled(p)
            prepared_list.append(replace(p, net=None))
        if any(p.ci_target is not None for p in prepared_list):
            # adaptive requests need their per-wave stop decisions, so
            # a mixed batch runs request-by-request on the shared pool
            # (losing cross-sweep chunk interleaving, never bytes)
            return [
                _summarize(
                    p,
                    run_adaptive(p, executor)
                    if p.ci_target is not None
                    else executor.run(p),
                )
                for p in prepared_list
            ]
        rows_lists = executor.run_many(prepared_list)
        return [
            _summarize(p, rows)
            for p, rows in zip(prepared_list, rows_lists)
        ]
    if any(r.get("ci_target") is not None for r in requests):
        # one-shot adaptive batches borrow a temporary persistent pool:
        # wave scheduling needs an executor that survives across waves
        with PersistentSweepExecutor(workers) as owned:
            return pooled_survivability_sweeps(requests, executor=owned)
    if workers is None or workers <= 1:
        # prepare-and-execute one request at a time so each built
        # network is released before the next candidate's is built
        summaries = []
        for request in requests:
            p = _prepare_sweep(**request)
            _reject_legacy_pooled(p)
            summaries.append(_summarize(p, _execute(p, None)))
        return summaries
    # vectorized plans ship their topology through shared memory here
    # too: the parent exports each candidate's arrays once and releases
    # the built network immediately (workers attach the arrays, and
    # batched workers rebuild from the canonical spec).  Built Python
    # networks are held one at a time; the flat shm segments -- much
    # smaller -- do stay allocated for the whole pool run
    prepared: list[_PreparedSweep] = []
    metas: list = []
    handles: list[shared_memory.SharedMemory] = []
    try:
        for request in requests:
            p = _prepare_sweep(**request)
            _reject_legacy_pooled(p)
            if p.plan.backend == "vectorized":
                meta, owned = _export_shared(
                    _TopologyArrays.from_network(p.net)
                )
                metas.append(meta)
                handles.extend(owned)
            else:
                metas.append(None)
            prepared.append(replace(p, net=None))
        tasks = [
            (index, start, stop)
            for index, p in enumerate(prepared)
            for start, stop in _index_chunks(p.trials, workers)
        ]
        plans = tuple(p.plan for p in prepared)
        dispatched_us = now_us()
        with multiprocessing.Pool(
            processes=workers,
            initializer=_init_pool_worker,
            initargs=(plans, tuple(metas)),
        ) as pool:
            results = pool.map(_run_pool_chunk, tasks)
    finally:
        _release_shared(handles)
    _absorb_chunk_metas((meta for _, _, _, meta in results), dispatched_us)
    rows_by_sweep: list[dict[int, list[dict]]] = [{} for _ in prepared]
    for plan_index, start, rows, _meta in results:
        rows_by_sweep[plan_index][start] = rows
    summaries = []
    for index, p in enumerate(prepared):
        ordered = [
            row
            for start in sorted(rows_by_sweep[index])
            for row in rows_by_sweep[index][start]
        ]
        summaries.append(_summarize(p, ordered))
    return summaries

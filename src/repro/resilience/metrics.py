"""Survivability metrics over a degraded network.

Three views of "what still works":

* **connectivity** -- which ordered processor pairs can still talk at
  all (dead endpoints cannot);
* **path quality** -- degraded group-route lengths from the family's
  ``fault_route`` hook, their stretch over the intact distances, and
  the fraction within the paper's ``k + 2`` bound (``diameter + 2``
  generalized to every family);
* **delivery under load** -- run the same workload on the broken and
  the intact machine, compare delivery ratio and latency.

Everything funnels into one flat, JSON-ready
:class:`ResilienceMetrics` row -- the unit the Monte-Carlo sweep
aggregates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields

from ..hypergraphs.hypergraph import cached_on
from .degrade import DegradedNetwork

__all__ = [
    "ResilienceMetrics",
    "connectivity_ratio",
    "alive_connectivity_ratio",
    "connectivity_metrics",
    "path_survival",
    "measure",
]


@dataclass(frozen=True)
class ResilienceMetrics:
    """One trial's flat survivability row (JSON-ready)."""

    spec: str
    model: str
    seed: int
    faults: int
    connectivity: float  # ordered processor pairs still connected
    alive_connectivity: float  # same, over surviving endpoints only
    reachable_groups: float  # ordered live-group pairs still connected
    max_path_length: int  # longest degraded group route (-1: none)
    mean_stretch: float  # degraded length / intact distance, mean
    within_bound: float  # routed pairs within diameter+2 (1.0 if all)
    bound: int
    delivery_ratio: float
    dropped: int
    mean_latency: float
    latency_inflation: float  # degraded / intact mean latency
    slots: int

    def as_dict(self) -> dict[str, object]:
        """Field name -> value mapping."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _connectivity_counts(
    degraded: DegradedNetwork,
) -> tuple[int, int, int, list, list[int]]:
    """One distance pass feeding every connectivity-flavoured metric.

    Returns ``(connected, alive_pairs, all_pairs, reach, alive_per_group)``
    over ordered distinct pairs; ``reach[u]`` is the surviving-base
    distance row of group ``u`` (a fresh list, from the view's shared
    :meth:`~repro.resilience.degrade.DegradedNetwork.group_distances`).
    """
    net = degraded.net
    n = net.num_processors
    base = degraded.surviving_base()
    g = net.num_groups
    reach = degraded.group_distances().tolist()
    # a surviving closed walk at u exists iff some surviving out-arc
    # (u, v) is a loop or can get back (reach[v][u] >= 0) -- the same
    # booleans as the diagonal of the view's next-coupler table
    sibling_ok = [
        any(v == u or reach[v][u] >= 0 for v in base.successors(u).tolist())
        for u in range(g)
    ]
    alive_per_group = [0] * g
    for p in degraded.alive_processors:
        alive_per_group[degraded._group_of(p)] += 1
    alive = sum(alive_per_group)
    connected = 0
    for gu in range(g):
        au = alive_per_group[gu]
        if au == 0:
            continue
        # same-group ordered pairs need a surviving closed walk
        if au > 1 and sibling_ok[gu]:
            connected += au * (au - 1)
        for gv in range(g):
            if gv == gu:
                continue
            if reach[gu][gv] >= 0:
                connected += au * alive_per_group[gv]
    return connected, alive * (alive - 1), n * (n - 1), reach, alive_per_group


def connectivity_ratio(degraded: DegradedNetwork) -> float:
    """Fraction of ordered distinct processor pairs still connected.

    Pairs with a dead endpoint count as disconnected, so processor
    faults lower the ratio even when the fabric itself survives.
    Single-processor machines report 1.0.

    >>> from repro.core import build
    >>> from repro.resilience.faults import UniformCouplerFaults
    >>> net = build("pops(2,2)")
    >>> scen = UniformCouplerFaults(0).scenario("pops(2,2)", net, 0)
    >>> connectivity_ratio(DegradedNetwork(net, scen))
    1.0
    """
    if degraded.net.num_processors <= 1:
        return 1.0
    connected, _, all_pairs, _, _ = _connectivity_counts(degraded)
    return connected / all_pairs


def alive_connectivity_ratio(degraded: DegradedNetwork) -> float:
    """Connected fraction of ordered pairs of *surviving* processors.

    1.0 means the fabric is not partitioned for anyone still alive --
    dead endpoints are out of the denominator, unlike
    :func:`connectivity_ratio`.  1.0 when fewer than two processors
    survive.
    """
    connected, alive_pairs, _, _, _ = _connectivity_counts(degraded)
    return connected / alive_pairs if alive_pairs else 1.0


def connectivity_metrics(
    degraded: DegradedNetwork, *, with_reachable: bool = True
) -> dict[str, float]:
    """The connectivity-only survivability row, in one BFS pass.

    The batched sweep backend's fast path: when no simulation metrics
    are requested, a trial is scored from the surviving base digraph
    alone -- ``connectivity`` (all ordered processor pairs),
    ``alive_connectivity`` (surviving endpoints only) and
    ``reachable_groups`` (ordered live-group pairs with a surviving
    path, the same fraction :func:`path_survival` routes -- both the
    structured ``fault_route`` hooks and their BFS fallback succeed
    exactly on BFS-reachable pairs).  No per-pair routing and no
    slotted simulation, which is what makes design-search sweeps over
    hundreds of candidates tractable.  ``with_reachable=False`` skips
    the reachability loop for callers that recompute the routed
    fraction themselves (the sweep's ``paths`` mode).

    >>> from repro.core import degrade
    >>> row = connectivity_metrics(degrade("pops(2,3)", faults=0))
    >>> row == {"connectivity": 1.0, "alive_connectivity": 1.0,
    ...         "reachable_groups": 1.0}
    True
    """
    net = degraded.net
    if net.num_processors <= 1:
        row = {"connectivity": 1.0, "alive_connectivity": 1.0}
        if with_reachable:
            row["reachable_groups"] = 1.0
        return row
    connected, alive_pairs, all_pairs, reach, alive_per_group = (
        _connectivity_counts(degraded)
    )
    out = {
        "connectivity": connected / all_pairs,
        "alive_connectivity": connected / alive_pairs if alive_pairs else 1.0,
    }
    if not with_reachable:
        return out
    live = [g for g in range(net.num_groups) if alive_per_group[g] > 0]
    if len(live) < 2:
        reachable = 1.0
    else:
        pairs = routed = 0
        for gu in live:
            row = reach[gu]
            for gv in live:
                if gv == gu:
                    continue
                pairs += 1
                if row[gv] >= 0:
                    routed += 1
        reachable = routed / pairs
    out["reachable_groups"] = reachable
    return out


def _intact_distances(net) -> tuple[tuple[int, ...], ...] | None:
    """Loopless intact group distances ``dist[u][v]``, cached on ``net``.

    They depend on the topology alone, so every degraded view of one
    built network shares one BFS pass; ``None`` for single-star
    machines (no base digraph: every pair is one hop apart).  Tuples,
    so no reader can change what the next trial sees.
    """
    if not hasattr(net, "base_graph"):
        return None

    def build():
        intact = net.base_graph().without_loops()
        return tuple(
            tuple(int(d) for d in intact.bfs_distances(u))
            for u in range(net.num_groups)
        )

    return cached_on(net, "_intact_group_distances", build)


def path_survival(
    degraded: DegradedNetwork, bound: int | None = None
) -> tuple[float, int, float, float]:
    """``(reachable_groups, max_len, mean_stretch, within_bound)``.

    Runs the family ``fault_route`` hook over every ordered pair of
    distinct live groups.  ``reachable_groups`` is the routed
    fraction; ``max_len`` the longest degraded route (-1 when no pair
    routes); ``mean_stretch`` the mean ratio of degraded length to
    intact distance; ``within_bound`` the fraction of routed pairs
    with length <= ``bound`` (default ``diameter + 2``, the paper's
    ``k + 2`` on stack-Kautz).  Machines with fewer than two live
    groups report ``(1.0, 0, 1.0, 1.0)``.

    Routed pairs whose *intact* distance is undefined (BFS ``-1``,
    possible for degenerate/partial specs) have no meaningful stretch:
    they stay in ``reachable_groups``/``within_bound`` but are left
    out of the ``mean_stretch`` average instead of counting as 1.0.
    """
    net = degraded.net
    if bound is None:
        bound = net.diameter + 2
    dead = degraded.dead_groups
    live = [g for g in range(net.num_groups) if g not in dead]
    if len(live) < 2:
        return 1.0, 0, 1.0, 1.0
    intact = _intact_distances(net)
    routed = 0
    within = 0
    max_len = -1
    stretch_terms: list[float] = []
    pairs = 0
    for gu in live:
        intact_dist = intact[gu] if intact is not None else None
        for gv in live:
            if gv == gu:
                continue
            pairs += 1
            path = degraded.fault_route(gu, gv)
            if path is None:
                continue
            length = len(path) - 1
            routed += 1
            max_len = max(max_len, length)
            if length <= bound:
                within += 1
            d0 = intact_dist[gv] if intact_dist is not None else 1
            if d0 > 0:
                stretch_terms.append(length / d0)
    if routed == 0:
        # nothing routed: the bound is *not* vacuously confirmed
        return 0.0, max_len, 0.0, 0.0
    # fsum is exact and order-independent, so the vectorized paths
    # kernel can sum the same multiset of ratios in any order and land
    # on the identical float
    stretch = (
        math.fsum(stretch_terms) / len(stretch_terms) if stretch_terms else 1.0
    )
    return routed / pairs, max_len, stretch, within / routed


def measure(
    degraded: DegradedNetwork,
    *,
    workload="uniform",
    messages: int = 60,
    seed: int = 0,
    bound: int | None = None,
    max_slots: int = 100_000,
    baseline_mean_latency: float | None = None,
    traffic=None,
    timings: dict[str, float] | None = None,
    **workload_options,
) -> ResilienceMetrics:
    """All survivability metrics of one degraded network, one row.

    The delivery comparison runs identical traffic (generated on the
    intact machine with ``seed``) through the degraded and the intact
    simulator; ``latency_inflation`` is the mean-latency ratio (0.0
    when the broken machine delivers nothing, 1.0 when the intact mean
    is zero).  ``baseline_mean_latency`` short-circuits the intact run
    -- the sweep computes it once and shares it across trials, since
    the baseline depends only on ``(workload, messages, seed)``.
    ``traffic`` likewise short-circuits the workload generation with
    the triples ``workload`` resolves to (the sweep resolves them once
    per trial context; they are read, never mutated).  ``timings``,
    when given, accumulates the seconds spent in the slotted simulator
    under ``"simulate"`` (the sweep's per-chunk simulate histogram).
    """
    from ..core.workloads import resolve_workload
    from ..simulation.network_sim import run_traffic

    net = degraded.net
    if bound is None:
        bound = net.diameter + 2
    # one BFS pass feeds both ratios (identical values, half the work);
    # the routed reachable_groups fraction comes from path_survival below
    conn_row = connectivity_metrics(degraded, with_reachable=False)
    connectivity = conn_row["connectivity"]
    alive_connectivity = conn_row["alive_connectivity"]
    reachable, max_len, stretch, within = path_survival(degraded, bound)
    if traffic is None:
        traffic = resolve_workload(
            workload, net, messages=messages, seed=seed, **workload_options
        )
    began = time.perf_counter()
    report = run_traffic(
        degraded.simulator(), traffic, max_slots=max_slots
    )
    if baseline_mean_latency is None:
        baseline = run_traffic(
            degraded.family.simulator(net), list(traffic), max_slots=max_slots
        )
        baseline_mean_latency = baseline.mean_latency
    if timings is not None:
        timings["simulate"] = (
            timings.get("simulate", 0.0) + time.perf_counter() - began
        )
    if report.delivery_ratio == 0.0:
        inflation = 0.0
    elif baseline_mean_latency == 0.0:
        inflation = 1.0
    else:
        inflation = report.mean_latency / baseline_mean_latency
    return ResilienceMetrics(
        spec=degraded.scenario.spec,
        model=degraded.scenario.model,
        seed=degraded.scenario.seed,
        faults=degraded.scenario.size,
        connectivity=connectivity,
        alive_connectivity=alive_connectivity,
        reachable_groups=reachable,
        max_path_length=max_len,
        mean_stretch=stretch,
        within_bound=within,
        bound=bound,
        delivery_ratio=report.delivery_ratio,
        dropped=report.num_dropped,
        mean_latency=report.mean_latency,
        latency_inflation=inflation,
        slots=report.slots,
    )

"""Apply a `FaultScenario` to any registry-built network.

:class:`DegradedNetwork` is the degraded-mode view the rest of the
subsystem works on: the surviving base digraph and hypergraph, a
fault-aware ``next_coupler``/``relay`` pair so the *unmodified*
:class:`~repro.simulation.engine.SlottedSimulator` runs on the broken
machine (dead couplers drop messages instead of wedging the run), and
the per-family ``fault_route`` hook for structured rerouting.

Effective faults close over the scenario: a coupler is dead when it was
hit directly, when every source processor died, or when every target
processor died; a group is dead when all of its processors died.

>>> from repro.core import build
>>> from repro.resilience.faults import UniformCouplerFaults
>>> net = build("pops(2,2)")
>>> scen = UniformCouplerFaults(1).scenario("pops(2,2)", net, seed=0)
>>> deg = DegradedNetwork(net, scen)
>>> len(deg.surviving_couplers)
3
"""

from __future__ import annotations

import numpy as np

from ..graphs.digraph import DiGraph
from ..hypergraphs.hypergraph import DirectedHypergraph
from ..simulation.engine import Message, SlottedSimulator
from .faults import FaultScenario, coupler_endpoints, processor_groups

__all__ = ["DegradedNetwork", "degrade_network"]


class DegradedNetwork:
    """A registry-built network with a fault scenario applied.

    Parameters
    ----------
    net:
        Any network owned by a registered family (``repro.build(...)``).
    scenario:
        The :class:`~repro.resilience.faults.FaultScenario` to apply.
    family:
        Optional family descriptor; resolved from ``net`` by default.
    """

    def __init__(self, net, scenario: FaultScenario, family=None) -> None:
        from ..core.registry import family_for_network

        self.net = net
        self.scenario = scenario
        self.family = family if family is not None else family_for_network(net)
        self._model = net.hypergraph_model()
        n = net.num_processors
        m = self._model.num_hyperarcs
        self.dead_processors = frozenset(
            p for p in scenario.processors if 0 <= p < n
        )
        dead = {c for c in scenario.couplers if 0 <= c < m}
        if self.dead_processors:
            # a coupler also dies with all its sources or all its targets
            for idx, ha in enumerate(self._model.hyperarcs):
                if idx in dead:
                    continue
                if all(s in self.dead_processors for s in ha.sources) or all(
                    t in self.dead_processors for t in ha.targets
                ):
                    dead.add(idx)
        self.dead_couplers = frozenset(dead)
        self._endpoints = coupler_endpoints(net)
        self._groups = processor_groups(net)
        self._num_groups = net.num_groups
        # caches, built on demand
        self._base: DiGraph | None = None
        self._dist: np.ndarray | None = None
        self._hops: list[int] | None = None
        self._relay_targets: list[tuple[int, ...]] | None = None
        self._dead_groups: frozenset[int] | None = None
        self._word_faults = None

    # ------------------------------------------------------------------
    # Survivor views
    # ------------------------------------------------------------------
    @property
    def alive_processors(self) -> tuple[int, ...]:
        """Surviving processor ids, ascending."""
        return tuple(
            p
            for p in range(self.net.num_processors)
            if p not in self.dead_processors
        )

    @property
    def surviving_couplers(self) -> frozenset[int]:
        """Hyperarc indices of couplers still alive."""
        return frozenset(
            c
            for c in range(self._model.num_hyperarcs)
            if c not in self.dead_couplers
        )

    @property
    def dead_groups(self) -> frozenset[int]:
        """Groups whose processors all died (whole block dark)."""
        if self._dead_groups is None:
            alive = {self._groups[p] for p in self.alive_processors}
            self._dead_groups = frozenset(
                g for g in range(self.net.num_groups) if g not in alive
            )
        return self._dead_groups

    def word_fault_set(self):
        """The scenario as a word-level :class:`~repro.routing.FaultSet`.

        Only meaningful for networks with Kautz-word group labels
        (stack-Kautz); cached, since it depends on the scenario alone
        and ``fault_route`` consults it once per ordered group pair.
        """
        if self._word_faults is None:
            from ..routing.fault_tolerant import FaultSet

            self._word_faults = FaultSet.from_indices(
                self.net, groups=self.dead_groups, couplers=self.dead_couplers
            )
        return self._word_faults

    def surviving_base(self) -> DiGraph:
        """The group-level digraph spanned by surviving couplers."""
        if self._base is None:
            arcs = [
                self._endpoints[c]
                for c in range(len(self._endpoints))
                if c not in self.dead_couplers
            ]
            self._base = DiGraph(
                self.net.num_groups,
                arcs,
                name=f"degraded({self.scenario.spec})",
            )
        return self._base

    def surviving_hypergraph(self) -> DirectedHypergraph:
        """The hypergraph restricted to surviving couplers.

        Node ids are unchanged (dead processors stay as isolated
        nodes), so processor indices remain comparable with the intact
        machine.
        """
        return DirectedHypergraph(
            self.net.num_processors,
            [
                ha
                for idx, ha in enumerate(self._model.hyperarcs)
                if idx not in self.dead_couplers
            ],
            name=f"degraded({self.scenario.spec})",
        )

    def group_distances(self) -> np.ndarray:
        """All-pairs group distances over :meth:`surviving_base`.

        ``dist[u, v]`` is the length of a shortest surviving group walk
        ``u -> v`` (``-1``: unreachable, ``0`` on the diagonal): one
        BFS per group, on first use, read-only.  The connectivity
        metrics and the next-coupler table both read it; loops never
        shorten a walk between distinct groups, so it doubles as the
        loopless base's distance matrix the routing needs.
        """
        if self._dist is None:
            base = self.surviving_base()
            g = base.num_nodes
            dist = np.empty((g, g), dtype=np.int64)
            for u in range(g):
                dist[u] = base.bfs_distances(u)
            dist.setflags(write=False)
            self._dist = dist
        return self._dist

    # ------------------------------------------------------------------
    # Degraded-mode routing
    # ------------------------------------------------------------------
    def _group_of(self, processor: int) -> int:
        groups = self._groups
        if 0 <= processor < len(groups):
            return groups[processor]
        return int(self.net.label_of(processor)[0])  # the network's range error

    def _next_coupler_table(self) -> list[int]:
        """Flat ``(g x g)`` table: the coupler leaving group ``gu``
        toward group ``gv`` sits at ``gu * g + gv`` (``-1``: no
        surviving route).

        Between distinct groups the hop is the smallest surviving
        successor one step nearer the destination; parallel couplers
        resolve to the lowest surviving index.  The diagonal is
        sibling delivery: the loop coupler when it survives, else the
        first hop of the shortest surviving closed walk (smallest
        successor on ties).
        """
        g = self._num_groups
        coupler_of: dict[tuple[int, int], int] = {}
        for c, arc in enumerate(self._endpoints):
            if c not in self.dead_couplers:
                coupler_of.setdefault(arc, c)
        succ: list[list[int]] = [[] for _ in range(g)]
        for u, v in sorted(coupler_of):
            if u != v:
                succ[u].append(v)
        dist = self.group_distances().tolist()
        hops = [-1] * (g * g)
        for u in range(g):
            row = dist[u]
            for dest in range(g):
                nxt = -1
                if dest == u:
                    if (u, u) in coupler_of:
                        nxt = u
                    else:
                        best_len = -1
                        for v in succ[u]:
                            back = dist[v][u]
                            if back >= 0 and (best_len < 0 or back < best_len):
                                nxt, best_len = v, back
                elif row[dest] > 0:
                    want = row[dest] - 1
                    for v in succ[u]:
                        if dist[v][dest] == want:
                            nxt = v
                            break
                if nxt >= 0:
                    hops[u * g + dest] = coupler_of[(u, nxt)]
        return hops

    def next_coupler(self, holder: int, msg: Message) -> int:
        """Fault-aware routing callback for the slotted engine.

        Returns ``-1`` ("drop") when the destination is unreachable on
        the surviving network or either endpoint is dead.
        """
        dead = self.dead_processors
        if msg.src in dead or msg.dst in dead:
            return -1
        hops = self._hops
        if hops is None:
            hops = self._hops = self._next_coupler_table()
        groups = self._groups
        dst = msg.dst
        g = self._num_groups
        if 0 <= holder < len(groups) and 0 <= dst < len(groups):
            return hops[groups[holder] * g + groups[dst]]
        return hops[self._group_of(holder) * g + self._group_of(dst)]

    def relay(self, coupler: int, msg: Message) -> int:
        """Relay selection that never hands a message to a corpse.

        Reads the view's per-coupler tuple of surviving targets, built
        on first use.
        """
        table = self._relay_targets
        if table is None:
            dead = self.dead_processors
            table = self._relay_targets = [
                tuple(t for t in ha.targets if t not in dead)
                for ha in self._model.hyperarcs
            ]
        targets = table[coupler]
        if msg.dst in targets:
            return msg.dst
        if not targets:  # unreachable: dead couplers are never requested
            raise RuntimeError(f"coupler {coupler} has no surviving targets")
        return targets[msg.dst % len(targets)]

    def fault_route(self, src_group: int, dst_group: int) -> list[int] | None:
        """Group-level degraded route, via the family's hook."""
        for name, g in (("src_group", src_group), ("dst_group", dst_group)):
            if not 0 <= g < self._num_groups:
                raise IndexError(
                    f"{name} {g} out of range [0, {self._num_groups})"
                )
        return self.family.fault_route(self.net, src_group, dst_group, self)

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def simulator(self, policy=None) -> SlottedSimulator:
        """An unmodified slotted simulator wired for the broken machine."""
        return SlottedSimulator(
            self._model,
            self.next_coupler,
            relay_of=self.relay,
            policy=policy,
            disabled_couplers=self.dead_couplers,
        )

    def simulate(
        self,
        workload="uniform",
        *,
        messages: int = 200,
        seed: int = 0,
        policy=None,
        max_slots: int = 100_000,
        **workload_options,
    ):
        """Run a named workload on the degraded machine.

        Traffic is generated against the *intact* network (same triples
        as the healthy baseline for the same seed), so delivery ratio
        and latency inflation are apples-to-apples.
        """
        from ..core.workloads import resolve_workload
        from ..simulation.network_sim import run_traffic

        traffic = resolve_workload(
            workload, self.net, messages=messages, seed=seed, **workload_options
        )
        return run_traffic(self.simulator(policy), traffic, max_slots=max_slots)

    def __repr__(self) -> str:
        return (
            f"<DegradedNetwork {self.scenario.spec} "
            f"model={self.scenario.model} seed={self.scenario.seed} "
            f"dead_couplers={len(self.dead_couplers)} "
            f"dead_processors={len(self.dead_processors)}>"
        )


def degrade_network(net, scenario: FaultScenario) -> DegradedNetwork:
    """Functional alias for :class:`DegradedNetwork`."""
    return DegradedNetwork(net, scenario)

"""Built-in family registrations: pops, sk, sii, sops.

Each :func:`~repro.core.registry.register_family` block below is the
*complete* wiring of one topology into the toolkit -- constructor,
router, simulator, optical design, parameter schema and equal-``N``
enumerator.  Adding a fifth family means writing one more block like
these, and every facade entry point, CLI subcommand and comparison
table picks it up automatically.

The routers all return :class:`~repro.routing.stack_routing.StackRoute`
hop lists in optical-design coordinates (``(group, mux)`` couplers and
transmitter ports), so a route can be replayed against the design's
:meth:`trace` regardless of family.
"""

from __future__ import annotations

from functools import lru_cache

from ..graphs.kautz import kautz_num_nodes
from ..hypergraphs.hypergraph import cached_on
from ..networks.design import (
    POPSDesign,
    StackImaseItohDesign,
    StackKautzDesign,
)
from ..networks.pops import POPSNetwork
from ..networks.single_ops import SingleOPSDesign, SingleOPSNetwork, single_ops_simulator
from ..networks.stack_imase_itoh import StackImaseItohNetwork
from ..networks.stack_kautz import StackKautzNetwork
from ..routing.stack_routing import StackHop, StackRoute, stack_kautz_route
from .registry import NetworkFamily, register_family
from .spec import NetworkSpec, Param

__all__ = [
    "POPSFamily",
    "StackKautzFamily",
    "StackImaseItohFamily",
    "SingleOPSFamily",
]


def _ii_hop(d: int, n: int, u: int, v: int) -> StackHop:
    """The design-coordinate hop for base arc ``u -> v`` of ``II+(d, n)``.

    ``u == v`` is the dedicated loop coupler (mux ``d``, port 0); other
    arcs resolve their multiplexer from the Imase-Itoh offset.
    """
    if u == v:
        return StackHop(u, u, mux=d, tx_port=0, is_loop=True)
    a = (-d * u - v) % n
    if not 1 <= a <= d:
        raise ValueError(f"group {v} is not an Imase-Itoh successor of {u}")
    m = a - 1
    return StackHop(u, v, mux=m, tx_port=d - m, is_loop=False)


@lru_cache(maxsize=64)
def _ii_routing_table(d: int, n: int):
    """Exact next-hop table over the loopless ``II(d, n)`` base graph."""
    from ..routing.tables import build_routing_table

    base = StackImaseItohNetwork(1, d, n).base_graph()
    return build_routing_table(base.without_loops())


def _kautz_word_tables(net: StackKautzNetwork):
    """``(group -> Kautz word, word -> group)`` of ``net``, cached on it.

    Structured rerouting maps two groups to words and every route back
    to groups once per ordered pair per trial; the tables replace the
    recursive Imase-Itoh conversions (and their word validation) on
    that path.  The first is a tuple; the dict never leaves this
    module.
    """

    def build():
        words = tuple(net.group_word(g) for g in range(net.num_groups))
        return words, {w: g for g, w in enumerate(words)}

    return cached_on(net, "_kautz_word_tables", build)


@register_family
class POPSFamily(NetworkFamily):
    """Single-hop ``POPS(t, g)`` (paper Sec. 2.4, Figs. 4-5, 11)."""

    key = "pops"
    title = "partitioned optical passive star POPS(t, g)"
    params = (
        Param("t", "processors per group (== coupler degree)"),
        Param("g", "number of groups"),
    )
    network_type = POPSNetwork
    aliases = ("partitioned-ops",)
    coupler_kind = "POPS"

    def construct(self, t: int, g: int) -> POPSNetwork:
        return POPSNetwork(t, g)

    def route(self, net: POPSNetwork, src: int, dst: int) -> StackRoute:
        if src == dst:
            return StackRoute(src, dst, ())
        i, j = net.route(src, dst)
        g = net.num_groups
        # Sec. 3.1 port convention: transmitter port j (toward group j)
        # feeds multiplexer g-1-j of the group transmit block.
        hop = StackHop(
            i,
            j,
            mux=g - 1 - j,
            tx_port=net.transmitter_port(src, dst),
            is_loop=i == j,
        )
        return StackRoute(src, dst, (hop,))

    def simulator(self, net: POPSNetwork, policy=None):
        from ..simulation.network_sim import pops_simulator

        return pops_simulator(net, policy)

    def design(self, t: int, g: int) -> POPSDesign:
        return POPSDesign(t, g)

    def sizes(self, target_n: int):
        for g in range(1, target_n + 1):
            if target_n % g == 0:
                yield NetworkSpec("pops", (target_n // g, g))


@register_family
class StackKautzFamily(NetworkFamily):
    """Multi-hop ``SK(s, d, k)`` (paper Sec. 2.7, Definition 4, Fig. 12)."""

    key = "sk"
    title = "stack-Kautz SK(s, d, k)"
    params = (
        Param("s", "stacking factor (processors per group)"),
        Param("d", "Kautz degree"),
        Param("k", "Kautz diameter"),
    )
    network_type = StackKautzNetwork
    aliases = ("stack-kautz", "stackkautz")
    coupler_kind = "Kautz"

    def construct(self, s: int, d: int, k: int) -> StackKautzNetwork:
        return StackKautzNetwork(s, d, k)

    def route(self, net: StackKautzNetwork, src: int, dst: int) -> StackRoute:
        return stack_kautz_route(net, src, dst)

    def fault_route(
        self, net: StackKautzNetwork, src_group: int, dst_group: int, degraded
    ) -> list[int] | None:
        """Sec. 2.5 structured rerouting: the ``<= k + 2`` candidates.

        Word-level :func:`~repro.routing.fault_tolerant.fault_tolerant_route`
        over the scenario's faults (via ``FaultSet.from_indices``); its
        link-fault semantics treat a dead coupler as a dead fiber pair,
        so when that conservative view severs the pair we fall back to
        the registry default -- directed BFS on the survivors.
        """
        from ..routing.fault_tolerant import fault_tolerant_route

        if src_group == dst_group:
            return [src_group]
        faults = degraded.word_fault_set()
        words, group_of_word = _kautz_word_tables(net)
        if not (0 <= src_group < len(words) and 0 <= dst_group < len(words)):
            net.group_word(src_group)  # the network's range error
            net.group_word(dst_group)
        x, y = words[src_group], words[dst_group]
        if x not in faults.nodes and y not in faults.nodes:
            path = fault_tolerant_route(x, y, net.degree, faults)
            if path is not None:
                try:
                    return [group_of_word[w] for w in path]
                except KeyError:  # not a Kautz word: the network's error
                    return [net.group_of_word(w) for w in path]
        return super().fault_route(net, src_group, dst_group, degraded)

    def simulator(self, net: StackKautzNetwork, policy=None):
        from ..simulation.network_sim import stack_kautz_simulator

        return stack_kautz_simulator(net, policy)

    def design(self, s: int, d: int, k: int) -> StackKautzDesign:
        return StackKautzDesign(s, d, k)

    def sizes(self, target_n: int):
        for d in range(2, 8):
            for k in range(1, 8):
                groups = kautz_num_nodes(d, k)
                if groups > target_n:
                    break
                if target_n % groups == 0:
                    yield NetworkSpec("sk", (target_n // groups, d, k))

    def candidate_specs(self, *, max_processors: int, min_processors: int = 2):
        """Direct ``(s, d, k)`` enumeration -- same set as the default
        :meth:`~repro.core.registry.NetworkFamily.candidate_specs`
        window scan (``d`` in 2..7, ``k`` in 1..7), without testing
        every ``N`` for divisibility by every group count."""
        for d in range(2, 8):
            for k in range(1, 8):
                groups = kautz_num_nodes(d, k)
                if groups > max_processors:
                    break
                for s in range(1, max_processors // groups + 1):
                    if s * groups >= min_processors:
                        yield NetworkSpec("sk", (s, d, k))


@register_family
class StackImaseItohFamily(NetworkFamily):
    """Any-size ``SII(s, d, n)`` -- the end-of-Sec.-2.7 extension."""

    key = "sii"
    title = "stack-Imase-Itoh SII(s, d, n)"
    params = (
        Param("s", "stacking factor (processors per group)"),
        Param("d", "Imase-Itoh degree", minimum=2),
        Param("n", "number of groups"),
    )
    network_type = StackImaseItohNetwork
    aliases = ("stack-imase-itoh", "stack-ii")
    coupler_kind = "Imase-Itoh"

    def construct(self, s: int, d: int, n: int) -> StackImaseItohNetwork:
        return StackImaseItohNetwork(s, d, n)

    def route(self, net: StackImaseItohNetwork, src: int, dst: int) -> StackRoute:
        d, n = net.degree, net.num_groups
        xs, _ = net.label_of(src)
        xd, _ = net.label_of(dst)
        if src == dst:
            return StackRoute(src, dst, ())
        if xs == xd:
            return StackRoute(src, dst, (_ii_hop(d, n, xs, xs),))
        table = _ii_routing_table(d, n)
        groups = [xs]
        while groups[-1] != xd:
            nxt = table.next_hop(groups[-1], xd)
            if nxt < 0:
                raise ValueError(
                    f"II({d},{n}) cannot route group {xs} -> {xd}"
                )
            groups.append(int(nxt))
        hops = tuple(_ii_hop(d, n, u, v) for u, v in zip(groups, groups[1:]))
        return StackRoute(src, dst, hops)

    def simulator(self, net: StackImaseItohNetwork, policy=None):
        from ..simulation.network_sim import stack_imase_itoh_simulator

        return stack_imase_itoh_simulator(net, policy)

    def design(self, s: int, d: int, n: int) -> StackImaseItohDesign:
        return StackImaseItohDesign(s, d, n)

    def sizes(self, target_n: int):
        for d in (2, 3):
            for n in range(d + 1, target_n + 1):
                if target_n % n == 0:
                    yield NetworkSpec("sii", (target_n // n, d, n))


@register_family
class SingleOPSFamily(NetworkFamily):
    """The single-OPS baseline ``sops(n)`` the paper argues against."""

    key = "sops"
    title = "single-OPS SingleOPS(n)"
    params = (Param("n", "number of processors sharing the one star"),)
    network_type = SingleOPSNetwork
    aliases = ("single-ops", "singleops",)
    coupler_kind = "star"

    def construct(self, n: int) -> SingleOPSNetwork:
        return SingleOPSNetwork(n)

    def route(self, net: SingleOPSNetwork, src: int, dst: int) -> StackRoute:
        net.label_of(src)
        net.label_of(dst)
        if src == dst:
            return StackRoute(src, dst, ())
        hop = StackHop(0, 0, mux=0, tx_port=0, is_loop=False)
        return StackRoute(src, dst, (hop,))

    def simulator(self, net: SingleOPSNetwork, policy=None):
        return single_ops_simulator(net, policy)

    def design(self, n: int) -> SingleOPSDesign:
        return SingleOPSDesign(n)

    def sizes(self, target_n: int):
        yield NetworkSpec("sops", (target_n,))

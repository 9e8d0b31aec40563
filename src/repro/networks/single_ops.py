"""Single-OPS lightwave networks: the baseline multi-OPS competes with.

The paper's introduction splits OPS networks into single-OPS (all
processors share one passive star: [8, 21, 22]) and multi-OPS, and
argues "multi-OPS networks seem more viable and cost-effective under
current optical technology" [9, 11].  To make that claim measurable we
implement the single-OPS side:

* :class:`SingleOPSNetwork` -- ``n`` processors on one OPS(n, n).
  With a single wavelength the coupler carries **one message per
  slot** network-wide; multi-hop *virtual* topologies (de Bruijn
  shufflenets of [22]) only change who may talk to whom per hop, not
  that global serialization.
* the splitting loss is ``10*log10(n)`` -- the whole machine's power
  budget rides one 1/n split, which is the technological ceiling the
  paper alludes to (POPS/stack-Kautz split only 1/t or 1/s).

The EXT-6 benchmark runs identical traffic through a single-OPS
machine, a POPS and a stack-Kautz of the same size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..graphs.digraph import DiGraph
from ..hypergraphs.hypergraph import DirectedHypergraph, Hyperarc, cached_on
from ..optical.components import splitting_loss_db
from ..optical.ops import OPSCoupler

__all__ = ["SingleOPSNetwork", "SingleOPSDesign"]


@dataclass(frozen=True)
class SingleOPSNetwork:
    """All ``num_processors`` processors on one OPS coupler.

    Parameters
    ----------
    num_processors:
        ``n``: machine size == coupler degree.
    virtual_topology:
        Optional digraph over the processors restricting who forwards
        to whom (a single-hop machine when ``None``).  With a virtual
        topology each processor needs only one statically tuned
        transmitter/receiver *pair tuning*; physically everything still
        crosses the one star.

    >>> net = SingleOPSNetwork(8)
    >>> net.coupler().degree
    8
    >>> round(net.splitting_loss_db(), 2)
    9.03
    """

    num_processors: int
    virtual_topology: DiGraph | None = field(default=None)

    def __post_init__(self) -> None:
        if self.num_processors < 1:
            raise ValueError(f"need n >= 1, got {self.num_processors}")
        if (
            self.virtual_topology is not None
            and self.virtual_topology.num_nodes != self.num_processors
        ):
            raise ValueError(
                "virtual topology must have one node per processor"
            )

    # ------------------------------------------------------------------
    @property
    def num_couplers(self) -> int:
        """Always 1 -- that is the point."""
        return 1

    @property
    def num_groups(self) -> int:
        """One group: the whole machine shares the star."""
        return 1

    @property
    def processor_degree(self) -> int:
        """One statically tuned transceiver pair per processor."""
        return 1

    @property
    def coupler_degree(self) -> int:
        """``n``: everyone splits the one star."""
        return self.num_processors

    @property
    def diameter(self) -> int:
        """1 when single-hop; the virtual-topology diameter otherwise."""
        if self.num_processors == 1:
            return 0
        if self.virtual_topology is None:
            return 1
        from ..graphs.properties import diameter as graph_diameter

        return graph_diameter(self.virtual_topology)

    def label_of(self, processor: int) -> tuple[int, int]:
        """``(0, processor)``: one group holds everyone."""
        if not 0 <= processor < self.num_processors:
            raise IndexError(f"processor {processor} out of range")
        return (0, processor)

    def coupler(self) -> OPSCoupler:
        """The one degree-``n`` star."""
        return OPSCoupler(self.num_processors, self.num_processors, label="star")

    def splitting_loss_db(self) -> float:
        """``10*log10(n)``: every message pays the full machine split."""
        return splitting_loss_db(self.num_processors)

    def hypergraph(self) -> DirectedHypergraph:
        """One hyperarc covering everyone (built once, shared)."""
        everyone = tuple(range(self.num_processors))
        return cached_on(
            self,
            "_hypergraph_model",
            lambda: DirectedHypergraph(
                self.num_processors,
                [Hyperarc(everyone, everyone, label="star")],
                name=f"SingleOPS({self.num_processors})",
            ),
        )

    def hypergraph_model(self) -> DirectedHypergraph:
        """Protocol alias for :meth:`hypergraph`."""
        return self.hypergraph()

    def is_single_hop(self) -> bool:
        """Single-hop iff no virtual topology constrains forwarding."""
        return self.virtual_topology is None

    def hop_distance(self, src: int, dst: int) -> int:
        """Hops under the virtual topology (1 everywhere when single-hop)."""
        if not 0 <= src < self.num_processors:
            raise IndexError(f"processor {src} out of range")
        if not 0 <= dst < self.num_processors:
            raise IndexError(f"processor {dst} out of range")
        if src == dst:
            return 0
        if self.virtual_topology is None:
            return 1
        return int(self.virtual_topology.bfs_distances(src)[dst])

    def slots_lower_bound(self, num_messages: int) -> int:
        """Serialization bound: one message per slot, network-wide.

        For multi-hop virtual topologies every *hop* costs a slot, so
        the bound is actually the total hop count; this method returns
        the single-hop floor.
        """
        return num_messages

    def __str__(self) -> str:
        tag = (
            ""
            if self.virtual_topology is None
            else f",virtual={self.virtual_topology.name or 'G'}"
        )
        return f"SingleOPS({self.num_processors}{tag})"


class SingleOPSDesign:
    """The (trivial) optical design of a single-OPS machine.

    One multiplexer/beam-splitter pair forms the star; there is no OTIS
    stage at all.  Exists so the facade can drive ``sops`` through the
    same build -> route -> simulate -> design pipeline as the multi-OPS
    families, and so the comparison tables can price the baseline.

    >>> d = SingleOPSDesign(8)
    >>> d.verify()
    True
    >>> d.bill_of_materials().couplers
    1
    """

    def __init__(self, num_processors: int) -> None:
        self.network = SingleOPSNetwork(num_processors)
        self.num_processors = num_processors
        self.name = f"SingleOPS({num_processors})"

    def verify(self) -> bool:
        """The one hyperarc covers every ordered processor pair."""
        model = self.network.hypergraph()
        return model.num_hyperarcs == 1 and model.is_single_hop()

    def bill_of_materials(self):
        """Component counts: one star, ``n`` transceiver pairs, no OTIS."""
        from .design import BillOfMaterials

        n = self.num_processors
        return BillOfMaterials(
            otis_units={},
            multiplexers=1,
            beam_splitters=1,
            loop_fibers=0,
            transmitters=n,
            receivers=n,
            couplers=1,
        )

    def worst_case_power_budget(
        self, transmitter=None, receiver=None, fiber_length_m: float = 1.0
    ):
        """Loss audit: the whole machine rides one ``1/n`` split."""
        from ..optical.components import (
            BeamSplitter,
            OpticalFiber,
            OpticalMultiplexer,
            Receiver,
            Transmitter,
        )
        from ..optical.power import PowerBudget

        tx = transmitter if transmitter is not None else Transmitter()
        rx = receiver if receiver is not None else Receiver()
        path = (
            OpticalMultiplexer(fan_in=self.num_processors),
            OpticalFiber(length_m=fiber_length_m),
            BeamSplitter(fan_out=self.num_processors),
        )
        return PowerBudget(tx, path, rx)

    def __repr__(self) -> str:
        return f"<SingleOPSDesign {self.name}>"


def single_ops_simulator(net: SingleOPSNetwork, policy=None):
    """Slotted simulator over a single-OPS machine.

    Single-hop mode: every message takes the star once.  Virtual-
    topology mode: messages hop along shortest virtual paths, every
    hop re-crossing the star (still one transmission per slot total).
    """
    from ..routing.tables import build_routing_table
    from ..simulation.engine import Message, SlottedSimulator

    model = net.hypergraph()
    if net.virtual_topology is None:

        def next_coupler(holder: int, msg: Message) -> int:
            return 0

        def relay(coupler: int, msg: Message) -> int:
            return msg.dst

        return SlottedSimulator(model, next_coupler, relay_of=relay, policy=policy)

    table = build_routing_table(net.virtual_topology)

    def next_coupler(holder: int, msg: Message) -> int:
        return 0

    def relay(coupler: int, msg: Message) -> int:
        nxt = table.next_hop(msg.current, msg.dst)
        if nxt < 0:
            raise RuntimeError(
                f"virtual topology cannot route {msg.current} -> {msg.dst}"
            )
        return nxt

    return SlottedSimulator(model, next_coupler, relay_of=relay, policy=policy)

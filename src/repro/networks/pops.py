"""The Partitioned Optical Passive Star network POPS(t, g) (Sec. 2.4).

``POPS(t, g)`` (Chiarulli et al. [9]) has ``N = t*g`` processors in
``g`` groups of ``t``, and ``g**2`` OPS couplers of degree ``t``.
Coupler ``(i, j)`` takes input from every processor of group ``i`` and
broadcasts to every processor of group ``j`` -- a *single-hop*
multi-OPS network: any processor reaches any other in one optical hop,
at the price of ``g`` transmitters and ``g`` receivers per processor.

Model (Berthome, Ferreira [3], paper Fig. 5): the stack-graph
``sigma(t, K+_g)`` -- couplers are the ``g**2`` arcs of the complete
digraph with loops on the groups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.complete import complete_digraph_with_loops
from ..graphs.digraph import DiGraph
from ..hypergraphs.hypergraph import cached_on
from ..hypergraphs.stack_graph import StackGraph
from ..optical.ops import OPSCoupler

__all__ = ["POPSNetwork"]


@dataclass(frozen=True)
class POPSNetwork:
    """The single-hop multi-OPS network ``POPS(t, g)``.

    Parameters
    ----------
    group_size:
        ``t``: processors per group (== OPS coupler degree).
    num_groups:
        ``g``: number of groups.

    >>> net = POPSNetwork(4, 2)      # paper Fig. 4
    >>> net.num_processors, net.num_couplers
    (8, 4)
    >>> net.coupler_label_between(0, 1)
    (0, 1)
    """

    group_size: int
    num_groups: int

    def __post_init__(self) -> None:
        if self.group_size < 1 or self.num_groups < 1:
            raise ValueError(
                f"need t >= 1 and g >= 1, got t={self.group_size}, g={self.num_groups}"
            )

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def num_processors(self) -> int:
        """``N = t * g``."""
        return self.group_size * self.num_groups

    @property
    def num_couplers(self) -> int:
        """``g**2`` couplers of degree ``t``."""
        return self.num_groups**2

    @property
    def transmitters_per_processor(self) -> int:
        """``g``: one statically-tuned transmitter per reachable coupler."""
        return self.num_groups

    @property
    def receivers_per_processor(self) -> int:
        """``g``: one receiver per coupler heard."""
        return self.num_groups

    @property
    def processor_degree(self) -> int:
        """``g`` transceiver pairs per processor (protocol surface)."""
        return self.num_groups

    @property
    def coupler_degree(self) -> int:
        """``t``: inputs (== outputs) per coupler -- the splitting factor."""
        return self.group_size

    @property
    def diameter(self) -> int:
        """Optical hop diameter: 1 (0 for the one-processor machine)."""
        return 1 if self.num_processors > 1 else 0

    # ------------------------------------------------------------------
    # Naming
    # ------------------------------------------------------------------
    def processor_id(self, group: int, index: int) -> int:
        """Flat id of processor ``index`` of ``group`` (groups contiguous)."""
        self._check_group(group)
        if not 0 <= index < self.group_size:
            raise IndexError(f"index {index} out of range [0, {self.group_size})")
        return group * self.group_size + index

    def group_of(self, processor: int) -> int:
        """Group of a flat processor id."""
        self._check_proc(processor)
        return processor // self.group_size

    def label_of(self, processor: int) -> tuple[int, int]:
        """``(group, index)`` label of a flat processor id."""
        self._check_proc(processor)
        return divmod(processor, self.group_size)

    def group_members(self, group: int) -> np.ndarray:
        """All processors of ``group``."""
        self._check_group(group)
        start = group * self.group_size
        return np.arange(start, start + self.group_size, dtype=np.int64)

    def coupler_label_between(self, src_group: int, dst_group: int) -> tuple[int, int]:
        """Label ``(i, j)`` of the coupler from group ``i`` to group ``j``.

        POPS is single-hop precisely because this exists for *every*
        ordered pair of groups, loops included.
        """
        self._check_group(src_group)
        self._check_group(dst_group)
        return (src_group, dst_group)

    def couplers(self) -> list[OPSCoupler]:
        """All ``g**2`` degree-``t`` couplers, labeled ``(i, j)``.

        Order: row-major in ``(i, j)`` -- matching the arc order of
        ``K+_g`` in CSR form, so coupler ``g*i + j`` is hyperarc
        ``g*i + j`` of :meth:`stack_graph_model`.
        """
        return [
            OPSCoupler(self.group_size, self.group_size, label=(i, j))
            for i in range(self.num_groups)
            for j in range(self.num_groups)
        ]

    # ------------------------------------------------------------------
    # Models
    # ------------------------------------------------------------------
    def base_graph(self) -> DiGraph:
        """``K+_g``: the group-level topology."""
        return complete_digraph_with_loops(self.num_groups)

    def stack_graph_model(self) -> StackGraph:
        """``sigma(t, K+_g)`` (paper Fig. 5; built once, shared)."""
        return cached_on(
            self,
            "_hypergraph_model",
            lambda: StackGraph(self.group_size, self.base_graph()),
        )

    def hypergraph_model(self) -> StackGraph:
        """Protocol alias for :meth:`stack_graph_model`."""
        return self.stack_graph_model()

    def is_single_hop(self) -> bool:
        """One optical hop joins every ordered processor pair (Sec. 1)."""
        return self.stack_graph_model().is_single_hop()

    def hop_distance(self, src: int, dst: int) -> int:
        """0 to itself, 1 everywhere else -- POPS is single-hop."""
        self._check_proc(src)
        self._check_proc(dst)
        return 0 if src == dst else 1

    # ------------------------------------------------------------------
    # One-hop routing
    # ------------------------------------------------------------------
    def route(self, src: int, dst: int) -> tuple[int, int]:
        """The coupler label carrying a ``src -> dst`` message."""
        return self.coupler_label_between(self.group_of(src), self.group_of(dst))

    def transmitter_port(self, src: int, dst: int) -> int:
        """Which of ``src``'s ``g`` transmitters serves a ``dst`` message.

        Port ``j`` drives the coupler toward group ``j`` (the group
        transmit block of Sec. 3.1 makes port ``j`` feed multiplexer
        ``g-1-j``; we index ports by *destination group* here, the
        design layer resolves the optics).
        """
        return self.group_of(dst)

    def _check_group(self, group: int) -> None:
        if not 0 <= group < self.num_groups:
            raise IndexError(f"group {group} out of range [0, {self.num_groups})")

    def _check_proc(self, p: int) -> None:
        if not 0 <= p < self.num_processors:
            raise IndexError(f"processor {p} out of range [0, {self.num_processors})")

    def __str__(self) -> str:
        return f"POPS({self.group_size},{self.num_groups})"

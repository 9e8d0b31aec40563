"""The stack-Kautz network SK(s, d, k) (paper Sec. 2.7, Definition 4).

``SK(s, d, k) = sigma(s, KG+(d, k))``: the stack-graph of stacking
factor ``s`` over the Kautz graph with loops.  It has
``N = s * d**(k-1) * (d+1)`` processors, node degree ``d + 1``
(``d`` Kautz couplers + 1 loop coupler per group) and diameter ``k`` --
a *multi-hop* multi-OPS network: constant, small transceiver count per
processor, with shortest-path routing inherited from the Kautz graph.

A processor is labeled ``(x, y)``: ``x`` the Kautz group, ``y`` its
index in the group.  Group ids here are the **Imase-Itoh node indices**
(so the optical design drops straight onto one
``OTIS(d, d**(k-1)*(d+1))``, Corollary 1); the Kautz *word* of a group
is available via :meth:`StackKautzNetwork.group_word`, and word <->
index conversion uses the explicit isomorphism of
:mod:`repro.graphs.imase_itoh`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..graphs.digraph import DiGraph
from ..graphs.imase_itoh import (
    imase_itoh_graph,
    imase_itoh_index_to_kautz_word,
    imase_itoh_successors,
    kautz_word_to_imase_itoh_index,
)
from ..graphs.kautz import kautz_num_nodes
from ..hypergraphs.hypergraph import cached_on
from ..hypergraphs.stack_graph import StackGraph
from ..optical.ops import OPSCoupler

__all__ = ["StackKautzNetwork"]


@dataclass(frozen=True)
class StackKautzNetwork:
    """The multi-hop multi-OPS network ``SK(s, d, k)``.

    >>> net = StackKautzNetwork(6, 3, 2)     # paper Fig. 7
    >>> net.num_processors, net.num_groups, net.processor_degree, net.diameter
    (72, 12, 4, 2)
    """

    stacking_factor: int
    degree: int
    diameter: int

    def __post_init__(self) -> None:
        if self.stacking_factor < 1:
            raise ValueError(f"need s >= 1, got {self.stacking_factor}")
        if self.degree < 1:
            raise ValueError(f"need d >= 1, got {self.degree}")
        if self.diameter < 1:
            raise ValueError(f"need k >= 1, got {self.diameter}")

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def num_groups(self) -> int:
        """``d**(k-1) * (d+1)`` Kautz groups."""
        return kautz_num_nodes(self.degree, self.diameter)

    @property
    def num_processors(self) -> int:
        """``N = s * d**(k-1) * (d+1)``."""
        return self.stacking_factor * self.num_groups

    @property
    def processor_degree(self) -> int:
        """``d + 1``: transmitters (and receivers) per processor."""
        return self.degree + 1

    @property
    def num_couplers(self) -> int:
        """``d**(k-1) * (d+1) * (d+1)`` couplers of degree ``s``.

        ``d + 1`` per group: ``d`` Kautz arcs plus the loop.  (The paper
        states this as ``d**(k-1) * (d+1)**2``.)
        """
        return self.num_groups * (self.degree + 1)

    @property
    def coupler_degree(self) -> int:
        """``s``: inputs (== outputs) per coupler -- the splitting factor."""
        return self.stacking_factor

    # ------------------------------------------------------------------
    # Naming
    # ------------------------------------------------------------------
    def processor_id(self, group: int, index: int) -> int:
        """Flat id of processor ``(x, y)``; groups are contiguous blocks."""
        self._check_group(group)
        if not 0 <= index < self.stacking_factor:
            raise IndexError(
                f"index {index} out of range [0, {self.stacking_factor})"
            )
        return group * self.stacking_factor + index

    def label_of(self, processor: int) -> tuple[int, int]:
        """``(x, y)`` label of a flat processor id."""
        self._check_proc(processor)
        return divmod(processor, self.stacking_factor)

    def group_word(self, group: int) -> tuple[int, ...]:
        """The Kautz word labeling ``group`` (Definition 2 labels)."""
        self._check_group(group)
        return imase_itoh_index_to_kautz_word(group, self.degree, self.diameter)

    def group_of_word(self, word: tuple[int, ...]) -> int:
        """Group id carrying Kautz word ``word``."""
        if len(word) != self.diameter:
            raise ValueError(
                f"word length {len(word)} != diameter {self.diameter}"
            )
        return kautz_word_to_imase_itoh_index(word, self.degree)

    def group_members(self, group: int) -> np.ndarray:
        """All ``s`` processors of ``group``."""
        self._check_group(group)
        start = group * self.stacking_factor
        return np.arange(start, start + self.stacking_factor, dtype=np.int64)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def group_successors(self, group: int) -> list[int]:
        """The ``d`` Kautz successors of ``group`` (loop excluded)."""
        self._check_group(group)
        return imase_itoh_successors(group, self.degree, self.num_groups)

    def base_graph(self) -> DiGraph:
        """``KG+(d, k)`` on Imase-Itoh ids, nodes labeled by Kautz words."""
        return self._base_graph_cached(self.degree, self.diameter)

    @staticmethod
    @lru_cache(maxsize=64)
    def _base_graph_cached(d: int, k: int) -> DiGraph:
        # Kautz graphs never contain loops (consecutive letters differ),
        # so adding one per node is exactly the KG+ of Definition 4.
        g = imase_itoh_graph(d, kautz_num_nodes(d, k)).with_extra_loops()
        labels = [
            imase_itoh_index_to_kautz_word(u, d, k) for u in range(g.num_nodes)
        ]
        out = g.relabel(labels)
        out.name = f"KG+({d},{k})"
        return out

    def stack_graph_model(self) -> StackGraph:
        """``sigma(s, KG+(d, k))`` -- Definition 4 (built once, shared)."""
        return cached_on(
            self,
            "_hypergraph_model",
            lambda: StackGraph(self.stacking_factor, self.base_graph()),
        )

    def hypergraph_model(self) -> StackGraph:
        """Protocol alias for :meth:`stack_graph_model`."""
        return self.stack_graph_model()

    def couplers(self) -> list[OPSCoupler]:
        """All couplers, degree ``s``, labeled ``(x, v)`` per base arc.

        Order matches the hyperarc order of :meth:`stack_graph_model`
        (base-graph CSR arc order), so coupler ``c`` is hyperarc ``c``.
        """
        s = self.stacking_factor
        return [
            OPSCoupler(s, s, label=(int(u), int(v)))
            for u, v in self.base_graph().arc_array().tolist()
        ]

    def hop_distance(self, src: int, dst: int) -> int:
        """Optical hops needed from processor ``src`` to ``dst``.

        0 for itself; group distance when the groups differ; 1 (the
        loop coupler) for a sibling in the same group.
        """
        xs, _ = self.label_of(src)
        xd, _ = self.label_of(dst)
        if src == dst:
            return 0
        if xs == xd:
            return 1
        return int(self.base_graph().bfs_distances(xs)[xd])

    def verify_definition(self) -> None:
        """Machine-check Definition 4 invariants; raises on violation.

        * node count ``s * d**(k-1) * (d+1)``;
        * every group has out-degree ``d+1`` including its loop;
        * the stack-graph hop diameter equals ``k`` (for ``s >= 2`` the
          loop makes same-group pairs distance 1 <= k; for s == 1 ditto).
        """
        base = self.base_graph()
        assert base.num_nodes == self.num_groups
        assert (base.out_degrees() == self.degree + 1).all()
        assert (base.in_degrees() == self.degree + 1).all()
        for u in range(base.num_nodes):
            assert base.has_arc(u, u), f"group {u} lacks its loop"
        model = self.stack_graph_model()
        assert model.num_nodes == self.num_processors
        assert model.num_hyperarcs == self.num_couplers
        if self.num_processors > 1:
            assert model.hop_diameter() == self.diameter

    def _check_group(self, group: int) -> None:
        if not 0 <= group < self.num_groups:
            raise IndexError(f"group {group} out of range [0, {self.num_groups})")

    def _check_proc(self, p: int) -> None:
        if not 0 <= p < self.num_processors:
            raise IndexError(
                f"processor {p} out of range [0, {self.num_processors})"
            )

    def __str__(self) -> str:
        return f"SK({self.stacking_factor},{self.degree},{self.diameter})"

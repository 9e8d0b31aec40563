"""The stack-Imase-Itoh network: SK's "any size" generalization.

The paper notes (end of Sec. 2.7) that the stack-Kautz definition
"can be trivially extended to the stack-Imase-Itoh network" -- we make
that extension real.  ``SII(s, d, n) = sigma(s, II+(d, n))`` exists for
*every* group count ``n`` (Kautz graphs only exist for
``n = d**(k-1) * (d+1)``), inheriting the ``ceil(log_d n)`` diameter
bound of [15], and it drops onto exactly the same OTIS design
(Proposition 1 applies verbatim -- that is the point of stating it for
``II`` rather than for Kautz).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..graphs.digraph import DiGraph
from ..graphs.imase_itoh import (
    imase_itoh_diameter_bound,
    imase_itoh_graph,
    imase_itoh_successors,
)
from ..hypergraphs.hypergraph import cached_on
from ..hypergraphs.stack_graph import StackGraph
from ..optical.ops import OPSCoupler

__all__ = ["StackImaseItohNetwork"]


@dataclass(frozen=True)
class StackImaseItohNetwork:
    """The multi-hop multi-OPS network ``SII(s, d, n)``.

    >>> net = StackImaseItohNetwork(4, 3, 10)   # no Kautz graph has 10 groups
    >>> net.num_processors, net.processor_degree
    (40, 4)
    >>> net.diameter_bound
    3
    """

    stacking_factor: int
    degree: int
    num_groups: int

    def __post_init__(self) -> None:
        if self.stacking_factor < 1:
            raise ValueError(f"need s >= 1, got {self.stacking_factor}")
        if self.degree < 2:
            raise ValueError(
                f"need d >= 2 (II diameter bound requires it), got {self.degree}"
            )
        if self.num_groups < 1:
            raise ValueError(f"need n >= 1, got {self.num_groups}")

    @property
    def num_processors(self) -> int:
        """``N = s * n``."""
        return self.stacking_factor * self.num_groups

    @property
    def processor_degree(self) -> int:
        """``d + 1``: ``d`` II couplers + 1 loop coupler."""
        return self.degree + 1

    @property
    def num_couplers(self) -> int:
        """``n * (d + 1)`` couplers of degree ``s``."""
        return self.num_groups * (self.degree + 1)

    @property
    def diameter_bound(self) -> int:
        """``ceil(log_d n)`` -- the bound of [15] on the group graph."""
        return imase_itoh_diameter_bound(self.degree, self.num_groups)

    @property
    def coupler_degree(self) -> int:
        """``s``: inputs (== outputs) per coupler -- the splitting factor."""
        return self.stacking_factor

    @property
    def diameter(self) -> int:
        """Exact optical hop diameter of ``sigma(s, II+(d, n))``.

        The group-graph diameter (loops never shorten inter-group
        paths), except that for ``s >= 2`` same-group siblings cost one
        loop-coupler hop, so the result is at least 1.  Always within
        the :attr:`diameter_bound` of [15].
        """
        base_diam = self._base_diameter_cached(self.degree, self.num_groups)
        floor = 1 if self.stacking_factor > 1 and self.num_groups >= 1 else 0
        return max(base_diam, floor) if self.num_processors > 1 else 0

    @staticmethod
    @lru_cache(maxsize=64)
    def _base_diameter_cached(d: int, n: int) -> int:
        g = StackImaseItohNetwork._base_cached(d, n).without_loops()
        if n == 1:
            return 0
        dist = np.stack([g.bfs_distances(u) for u in range(n)])
        if (dist < 0).any():
            raise ValueError(f"II({d},{n}) is not strongly connected")
        return int(dist.max())

    def processor_id(self, group: int, index: int) -> int:
        """Flat id of processor ``(x, y)``."""
        if not 0 <= group < self.num_groups:
            raise IndexError(f"group {group} out of range [0, {self.num_groups})")
        if not 0 <= index < self.stacking_factor:
            raise IndexError(
                f"index {index} out of range [0, {self.stacking_factor})"
            )
        return group * self.stacking_factor + index

    def label_of(self, processor: int) -> tuple[int, int]:
        """``(x, y)`` label of a flat processor id."""
        if not 0 <= processor < self.num_processors:
            raise IndexError(
                f"processor {processor} out of range [0, {self.num_processors})"
            )
        return divmod(processor, self.stacking_factor)

    def group_members(self, group: int) -> np.ndarray:
        """All ``s`` processors of ``group``."""
        if not 0 <= group < self.num_groups:
            raise IndexError(f"group {group} out of range [0, {self.num_groups})")
        start = group * self.stacking_factor
        return np.arange(start, start + self.stacking_factor, dtype=np.int64)

    def group_successors(self, group: int) -> list[int]:
        """The ``d`` II successors of ``group`` (loop excluded)."""
        if not 0 <= group < self.num_groups:
            raise IndexError(f"group {group} out of range [0, {self.num_groups})")
        return imase_itoh_successors(group, self.degree, self.num_groups)

    def base_graph(self) -> DiGraph:
        """``II+(d, n)``: the Imase-Itoh graph with a loop at every node."""
        return self._base_cached(self.degree, self.num_groups)

    @staticmethod
    @lru_cache(maxsize=64)
    def _base_cached(d: int, n: int) -> DiGraph:
        # One loop coupler per group *in addition to* the II arcs --
        # II(d, n) can itself contain loops for general n, and the
        # dedicated loop coupler exists physically either way.
        g = imase_itoh_graph(d, n).with_extra_loops()
        g.name = f"II+({d},{n})"
        return g

    def stack_graph_model(self) -> StackGraph:
        """``sigma(s, II+(d, n))`` (built once, shared)."""
        return cached_on(
            self,
            "_hypergraph_model",
            lambda: StackGraph(self.stacking_factor, self.base_graph()),
        )

    def hypergraph_model(self) -> StackGraph:
        """Protocol alias for :meth:`stack_graph_model`."""
        return self.stack_graph_model()

    def hop_distance(self, src: int, dst: int) -> int:
        """Optical hops from ``src`` to ``dst``: 0 self, 1 sibling,
        group-graph distance otherwise."""
        xs, _ = self.label_of(src)
        xd, _ = self.label_of(dst)
        if src == dst:
            return 0
        if xs == xd:
            return 1
        return int(self.base_graph().without_loops().bfs_distances(xs)[xd])

    def couplers(self) -> list[OPSCoupler]:
        """All couplers in base CSR arc order, labeled by their base arc."""
        s = self.stacking_factor
        return [
            OPSCoupler(s, s, label=(int(u), int(v)))
            for u, v in self.base_graph().arc_array().tolist()
        ]

    def __str__(self) -> str:
        return f"SII({self.stacking_factor},{self.degree},{self.num_groups})"

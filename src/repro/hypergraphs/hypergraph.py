"""Directed hypergraphs: the model for one-to-many optical networks.

Messages sent through an OPS coupler are broadcast to *all* of its
outputs, so OPS-based networks are one-to-many and graphs undersell
them; the right model is a directed hypergraph (Berge [1], and the
stack-graph refinement of Bourdin, Ferreira, Marcus [7] -- paper
Sec. 2.3, Fig. 3).

A :class:`DirectedHypergraph` has nodes ``0..n-1`` and *hyperarcs*
``(sources, targets)``: every source node can transmit into the
hyperarc, every target node receives everything transmitted.  A
degree-``s`` OPS coupler is exactly a hyperarc with ``|sources| =
|targets| = s``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from ..graphs.digraph import DiGraph

__all__ = ["Hyperarc", "DirectedHypergraph", "cached_on"]


@dataclass(frozen=True)
class Hyperarc:
    """One hyperarc: a one-to-many communication medium.

    ``sources`` may transmit; ``targets`` all receive every
    transmission.  Both are stored as sorted tuples.  ``label`` is an
    arbitrary identifier (the POPS network labels its couplers with the
    group pair ``(i, j)``).
    """

    sources: tuple[int, ...]
    targets: tuple[int, ...]
    label: object = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "sources", tuple(sorted(self.sources)))
        object.__setattr__(self, "targets", tuple(sorted(self.targets)))
        if not self.sources or not self.targets:
            raise ValueError("hyperarc needs at least one source and one target")

    @property
    def in_size(self) -> int:
        """Number of source nodes (OPS coupler fan-in)."""
        return len(self.sources)

    @property
    def out_size(self) -> int:
        """Number of target nodes (OPS coupler fan-out)."""
        return len(self.targets)

    def is_ops_of_degree(self, s: int) -> bool:
        """Whether this hyperarc models a degree-``s`` OPS coupler."""
        return self.in_size == s and self.out_size == s


class DirectedHypergraph:
    """Immutable directed hypergraph over nodes ``0..num_nodes-1``.

    >>> h = DirectedHypergraph(4, [Hyperarc((0, 1), (2, 3))])
    >>> h.num_hyperarcs
    1
    >>> sorted(h.out_hyperarcs(0))
    [0]
    """

    __slots__ = ("_n", "_hyperarcs", "_out", "_in", "name")

    def __init__(
        self,
        num_nodes: int,
        hyperarcs: Iterable[Hyperarc],
        name: str = "",
    ) -> None:
        if num_nodes < 0:
            raise ValueError(f"num_nodes must be >= 0, got {num_nodes}")
        self._n = int(num_nodes)
        self._hyperarcs = tuple(hyperarcs)
        self.name = name
        self._out: list[list[int]] = [[] for _ in range(num_nodes)]
        self._in: list[list[int]] = [[] for _ in range(num_nodes)]
        for idx, ha in enumerate(self._hyperarcs):
            for u in ha.sources:
                self._check_node(u)
                self._out[u].append(idx)
            for v in ha.targets:
                self._check_node(v)
                self._in[v].append(idx)

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def num_hyperarcs(self) -> int:
        """Number of hyperarcs (OPS couplers, in network terms)."""
        return len(self._hyperarcs)

    @property
    def hyperarcs(self) -> tuple[Hyperarc, ...]:
        """All hyperarcs, in insertion order."""
        return self._hyperarcs

    def hyperarc(self, index: int) -> Hyperarc:
        """The hyperarc at ``index``."""
        return self._hyperarcs[index]

    def out_hyperarcs(self, u: int) -> list[int]:
        """Indices of hyperarcs in which ``u`` is a source."""
        self._check_node(u)
        return list(self._out[u])

    def in_hyperarcs(self, v: int) -> list[int]:
        """Indices of hyperarcs in which ``v`` is a target."""
        self._check_node(v)
        return list(self._in[v])

    def out_degree(self, u: int) -> int:
        """Number of hyperarcs ``u`` can transmit into."""
        self._check_node(u)
        return len(self._out[u])

    def in_degree(self, v: int) -> int:
        """Number of hyperarcs ``v`` listens to."""
        self._check_node(v)
        return len(self._in[v])

    def neighbors_out(self, u: int) -> np.ndarray:
        """Distinct nodes reachable from ``u`` in one hyperarc hop."""
        self._check_node(u)
        targets: set[int] = set()
        for idx in self._out[u]:
            targets.update(self._hyperarcs[idx].targets)
        return np.asarray(sorted(targets), dtype=np.int64)

    def underlying_digraph(self) -> DiGraph:
        """The digraph with an arc ``u -> v`` per (hyperarc, u, v) triple.

        This is the point-to-point graph a message *could* traverse;
        parallel arcs appear when two hyperarcs join the same pair.
        """
        arcs = [
            (u, v)
            for ha in self._hyperarcs
            for u in ha.sources
            for v in ha.targets
        ]
        return DiGraph(self._n, arcs, name=f"U({self.name})" if self.name else "")

    def bfs_hop_distances(self, source: int) -> np.ndarray:
        """Minimum number of hyperarc hops from ``source`` to every node."""
        self._check_node(source)
        dist = np.full(self._n, -1, dtype=np.int64)
        dist[source] = 0
        frontier = [source]
        d = 0
        while frontier:
            d += 1
            nxt: list[int] = []
            for u in frontier:
                for idx in self._out[u]:
                    for v in self._hyperarcs[idx].targets:
                        if dist[v] < 0:
                            dist[v] = d
                            nxt.append(v)
            frontier = nxt
        return dist

    def hop_diameter(self) -> int:
        """Max over pairs of the hyperarc-hop distance; ``-1`` if disconnected."""
        worst = 0
        for u in range(self._n):
            dist = self.bfs_hop_distances(u)
            if (dist < 0).any():
                return -1
            worst = max(worst, int(dist.max()))
        return worst

    def is_single_hop(self) -> bool:
        """Every ordered pair is joined by one hyperarc hop (paper Sec. 1)."""
        return self._n <= 1 or self.hop_diameter() == 1

    def degree_set(self) -> set[tuple[int, int]]:
        """Distinct ``(in_size, out_size)`` shapes over all hyperarcs."""
        return {(ha.in_size, ha.out_size) for ha in self._hyperarcs}

    def _check_node(self, u: int) -> None:
        if not 0 <= u < self._n:
            raise IndexError(f"node {u} out of range [0, {self._n})")

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"<DirectedHypergraph{tag} n={self._n} h={self.num_hyperarcs}>"


def cached_on(owner, attr: str, build: Callable[[], object]):
    """``build()``, computed once and cached on ``owner`` as ``attr``.

    For per-topology derived data of frozen built networks -- their
    hypergraph model (immutable, so every degraded view and simulator
    of one network shares it) and lookup tables.  Owners that refuse
    new attributes (``__slots__``) get a fresh build on every call --
    correct, only slower.
    """
    value = getattr(owner, attr, None)
    if value is None:
        value = build()
        try:
            object.__setattr__(owner, attr, value)
        except (AttributeError, TypeError):
            pass
    return value

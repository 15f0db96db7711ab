"""The communication graph as a first-class value.

The source paper fixes the network to the complete graph: every process
hears every other process each round.  Li, Hurfin & Wang
(arXiv:1206.0089) show approximate Byzantine consensus survives on
*partially-connected* networks when values are relayed through witness
sets, which makes the communication graph itself an experimental axis
-- ring lattices, tori, random-regular graphs, disconnection-threshold
studies.

:class:`Topology` is the immutable value the whole stack shares: the
network restricts delivery to its edges, the round kernel keys its
distinct-inbox memoization by neighborhood, configs validate their
family against it, and sweep cells carry its *spec string* (see
:mod:`repro.topology.generators`) so grids stay primitive and
picklable.

Graphs are undirected and simple (no self-loops, no parallel edges);
a process always "hears" itself regardless of the graph -- self-links
are implicit and never stored.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Topology"]


@dataclass(frozen=True)
class Topology:
    """An undirected communication graph over processes ``0..n-1``.

    Attributes
    ----------
    n:
        Number of processes (vertices).
    spec:
        The canonical spec string this graph was built from (see
        :func:`~repro.topology.generators.topology_from_spec`); carried
        into config descriptions and sweep-cell identities.
    neighbor_sets:
        ``neighbor_sets[pid]`` is the frozenset of processes adjacent
        to ``pid``.  Self-links are implicit: delivery, relays and
        inbox assembly always include the process itself.

    Derived quantities (completeness, connectivity, diameter) are
    computed lazily and cached on the instance -- the value is
    immutable, so they can never go stale.
    """

    n: int
    spec: str
    neighbor_sets: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"topology needs at least one process, got n={self.n}")
        if len(self.neighbor_sets) != self.n:
            raise ValueError(
                f"topology {self.spec!r}: {len(self.neighbor_sets)} neighbor "
                f"sets for n={self.n} processes"
            )
        for pid, hood in enumerate(self.neighbor_sets):
            if pid in hood:
                raise ValueError(
                    f"topology {self.spec!r}: self-loop on p{pid} (self-links "
                    "are implicit; neighbor sets must not contain the process)"
                )
            for q in hood:
                if not 0 <= q < self.n:
                    raise ValueError(
                        f"topology {self.spec!r}: p{pid} lists invalid "
                        f"neighbor {q}"
                    )
                if pid not in self.neighbor_sets[q]:
                    raise ValueError(
                        f"topology {self.spec!r}: edge p{pid}-p{q} is not "
                        "symmetric (graphs are undirected)"
                    )

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_edges(
        cls, n: int, edges, spec: str = "edges"
    ) -> "Topology":
        """Build a topology from an explicit undirected edge list.

        ``edges`` is any iterable of ``(u, v)`` pairs; duplicates and
        orientation are normalized, self-loops rejected.
        """
        hoods: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"edge list contains self-loop on p{u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(
                    f"edge ({u}, {v}) lies outside processes 0..{n - 1}"
                )
            hoods[u].add(v)
            hoods[v].add(u)
        return cls(
            n=n, spec=spec, neighbor_sets=tuple(frozenset(h) for h in hoods)
        )

    @classmethod
    def load_edge_list(
        cls, path: str | Path, n: int | None = None
    ) -> "Topology":
        """Load an explicit topology from an edge-list file.

        One ``u v`` pair per line; blank lines and ``#`` comments are
        ignored.  ``n`` defaults to ``max vertex id + 1``.
        """
        path = Path(path)
        edges: list[tuple[int, int]] = []
        for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 'u v', got {raw!r}"
                )
            edges.append((int(parts[0]), int(parts[1])))
        if not edges and n is None:
            raise ValueError(f"{path} contains no edges and no n was given")
        if n is None:
            n = 1 + max(max(u, v) for u, v in edges)
        return cls.from_edges(n, edges, spec=f"edgelist:{path.name}")

    # -- adjacency -------------------------------------------------------------

    def neighbors(self, pid: int) -> frozenset[int]:
        """Processes adjacent to ``pid`` (never includes ``pid``)."""
        return self.neighbor_sets[pid]

    def degree(self, pid: int) -> int:
        return len(self.neighbor_sets[pid])

    def min_degree(self) -> int:
        return min(len(h) for h in self.neighbor_sets)

    def max_degree(self) -> int:
        return max(len(h) for h in self.neighbor_sets)

    def edge_count(self) -> int:
        return sum(len(h) for h in self.neighbor_sets) // 2

    @property
    def is_complete(self) -> bool:
        """Whether every process hears every other (the paper's network)."""
        cached = self.__dict__.get("_is_complete")
        if cached is None:
            cached = all(len(h) == self.n - 1 for h in self.neighbor_sets)
            object.__setattr__(self, "_is_complete", cached)
        return cached

    def adjacency_matrix(self):
        """The adjacency as a read-only ``(n, n)`` numpy bool matrix.

        ``matrix[p, q]`` is True when ``q`` is a neighbor of ``p`` (no
        self-links).  Built on first use and cached; needs numpy.
        """
        cached = self.__dict__.get("_adjacency")
        if cached is None:
            import numpy as np

            cached = np.zeros((self.n, self.n), dtype=bool)
            for pid, hood in enumerate(self.neighbor_sets):
                cached[pid, list(hood)] = True
            cached.setflags(write=False)
            object.__setattr__(self, "_adjacency", cached)
        return cached

    # -- connectivity ----------------------------------------------------------

    def _eccentricities(self) -> tuple[int, ...]:
        """Per-vertex BFS eccentricity; ``-1`` marks unreachable pairs."""
        cached = self.__dict__.get("_ecc")
        if cached is not None:
            return cached
        eccs = []
        for source in range(self.n):
            dist = [-1] * self.n
            dist[source] = 0
            queue = deque([source])
            reached = 1
            far = 0
            while queue:
                node = queue.popleft()
                for neighbor in self.neighbor_sets[node]:
                    if dist[neighbor] < 0:
                        dist[neighbor] = dist[node] + 1
                        far = max(far, dist[neighbor])
                        reached += 1
                        queue.append(neighbor)
            eccs.append(far if reached == self.n else -1)
        cached = tuple(eccs)
        object.__setattr__(self, "_ecc", cached)
        return cached

    def is_connected(self) -> bool:
        """Whether every process can reach every other along edges."""
        return self._eccentricities()[0] >= 0 if self.n > 1 else True

    def diameter(self) -> float:
        """Longest shortest path; ``math.inf`` when disconnected."""
        eccs = self._eccentricities()
        if any(e < 0 for e in eccs):
            return math.inf
        return float(max(eccs)) if self.n > 1 else 0.0

    # -- reporting -------------------------------------------------------------

    def stats(self) -> dict[str, object]:
        """Connectivity statistics for tables and banners."""
        return {
            "n": self.n,
            "edges": self.edge_count(),
            "min_degree": self.min_degree(),
            "max_degree": self.max_degree(),
            "complete": self.is_complete,
            "connected": self.is_connected(),
            "diameter": self.diameter(),
        }

    def describe(self) -> str:
        """One-line summary, e.g. for CLI banners."""
        diameter = self.diameter()
        rendered = "inf" if math.isinf(diameter) else f"{int(diameter)}"
        return (
            f"{self.spec}: n={self.n} edges={self.edge_count()} "
            f"degree=[{self.min_degree()},{self.max_degree()}] "
            f"diameter={rendered}"
        )

    def __repr__(self) -> str:
        return f"Topology({self.spec!r}, n={self.n})"

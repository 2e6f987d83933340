"""Undirected connected networks: construction and loading.

Agents are indexed 0..n-1.  For star graphs the hub is always index 0.
Every constructor rejects disconnected input, so downstream code may rely
on connectivity without re-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

RING = "ring"
STAR = "star"
COMPLETE = "complete"
CUSTOM = "custom"

TOPOLOGIES = (RING, STAR, COMPLETE)


@dataclass(frozen=True)
class Graph:
    """Immutable undirected connected graph.

    Attributes:
        n: number of agents (>= 2).
        adjacency: symmetric (n, n) boolean matrix with a false diagonal.
        topology: one of "ring", "star", "complete", "custom".
    """

    n: int
    adjacency: np.ndarray
    topology: str = CUSTOM

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool)
        if adj.shape != (self.n, self.n):
            raise ValueError(f"adjacency must be ({self.n}, {self.n}), got {adj.shape}")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        if adj.diagonal().any():
            raise ValueError("self-loops are not allowed")
        if self.n < 2:
            raise ValueError("a network needs at least 2 agents")
        adj.flags.writeable = False
        object.__setattr__(self, "adjacency", adj)
        reached = np.zeros(self.n, dtype=bool)
        frontier = reached.copy()
        reached[0] = frontier[0] = True
        while frontier.any():
            frontier = adj[frontier].any(axis=0) & ~reached
            reached |= frontier
        if not reached.all():
            cut_off = np.flatnonzero(~reached).tolist()
            raise ValueError(f"graph is disconnected: agents {cut_off} cannot reach agent 0")

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as (i, j) pairs with i < j, built on first use."""
        rows, cols = np.nonzero(np.triu(self.adjacency))
        return tuple(zip(rows.tolist(), cols.tolist()))

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.adjacency)) // 2

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)


def ring_graph(n: int) -> Graph:
    """Cycle on n >= 3 agents, i adjacent to (i +- 1) mod n."""
    if n < 3:
        raise ValueError(f"ring needs n >= 3, got {n}")
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = True
    return Graph(n, adj, topology=RING)


def star_graph(n: int) -> Graph:
    """Star on n >= 2 agents with hub at index 0."""
    if n < 2:
        raise ValueError(f"star needs n >= 2, got {n}")
    adj = np.zeros((n, n), dtype=bool)
    adj[0, 1:] = adj[1:, 0] = True
    return Graph(n, adj, topology=STAR)


def complete_graph(n: int) -> Graph:
    """Complete graph on n >= 2 agents."""
    if n < 2:
        raise ValueError(f"complete graph needs n >= 2, got {n}")
    adj = ~np.eye(n, dtype=bool)
    return Graph(n, adj, topology=COMPLETE)


_BUILDERS = {RING: ring_graph, STAR: star_graph, COMPLETE: complete_graph}


def build_topology(kind: str, n: int) -> Graph:
    """Construct one of the named topology families."""
    try:
        builder = _BUILDERS[kind.lower()]
    except KeyError:
        raise ValueError(
            f"unknown topology {kind!r}; expected one of {sorted(_BUILDERS)}"
        ) from None
    return builder(n)


def load_edge_list(text: str) -> Graph:
    """Parse an edge list with one "u v" pair (0-indexed) per line.

    Blank lines and lines starting with '#' are ignored.  Duplicate edges
    collapse; self-loops, malformed lines, and disconnected graphs are
    rejected.
    """
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer agent id in {raw!r}") from None
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: negative agent id in {raw!r}")
        if u == v:
            raise ValueError(f"line {lineno}: self-loop on agent {u}")
        edges.add((min(u, v), max(u, v)))
    if not edges:
        raise ValueError("edge list is empty")
    # An id missing below the largest one is an isolated agent; reject it
    # before allocating the n x n adjacency from that largest id.
    nodes = sorted({v for edge in edges for v in edge})
    n = len(nodes)
    if nodes[-1] != n - 1:
        missing = next(i for i, v in enumerate(nodes) if i != v)
        raise ValueError(f"graph is disconnected: agent {missing} appears in no edge")
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    return Graph(n, adj, topology=CUSTOM)

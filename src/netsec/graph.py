"""Undirected connected networks: construction, loading, and symmetry tests.

Agents are indexed 0..n-1.  For star graphs the hub is always index 0.
Every constructor rejects disconnected input, so downstream code may rely
on connectivity without re-checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

RING = "ring"
STAR = "star"
COMPLETE = "complete"
CUSTOM = "custom"

TOPOLOGIES = (RING, STAR, COMPLETE)

# Exact automorphism search is exponential; above this size callers should
# rely on the declared topology tag instead.
MAX_TRANSITIVITY_N = 10


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
    _edges: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

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
        edges = tuple(
            (int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(adj)))
        )
        object.__setattr__(self, "_edges", edges)
        components = self.components()
        if len(components) > 1:
            report = "; ".join(str(sorted(c)) for c in components)
            raise ValueError(f"graph is disconnected: components {report}")

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as (i, j) pairs with i < j."""
        return self._edges

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)

    def neighbors(self, i: int) -> np.ndarray:
        return np.nonzero(self.adjacency[i])[0]

    def components(self) -> list[set[int]]:
        """Connected components via union-find."""
        parent = list(range(self.n))

        def find(x):
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        for i, j in self._edges:
            parent[find(i)] = find(j)
        groups: dict[int, set[int]] = {}
        for v in range(self.n):
            groups.setdefault(find(v), set()).add(v)
        return list(groups.values())

    def distance(self, i: int, j: int) -> int:
        """Shortest-path edge count between agents i and j (BFS)."""
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError(f"agent index out of range for n={self.n}")
        if i == j:
            return 0
        dist = np.full(self.n, -1, dtype=int)
        dist[i] = 0
        frontier = [i]
        while frontier:
            nxt = []
            for u in frontier:
                for v in self.neighbors(u):
                    if dist[v] < 0:
                        dist[v] = dist[u] + 1
                        if v == j:
                            return int(dist[v])
                        nxt.append(int(v))
            frontier = nxt
        raise AssertionError("unreachable: graph is connected by construction")


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


def is_vertex_transitive(g: Graph) -> bool:
    """Exact vertex-transitivity test by automorphism search (n <= 10).

    True iff for every target vertex j there is an adjacency-preserving
    permutation mapping vertex 0 to j.  Candidates are pruned by degree
    and by the multiset of neighbor degrees.
    """
    if g.n > MAX_TRANSITIVITY_N:
        raise ValueError(
            f"exact transitivity test supports n <= {MAX_TRANSITIVITY_N} "
            f"(got n={g.n}); rely on the topology tag for larger graphs"
        )
    deg = g.degrees()
    if deg.min() != deg.max():
        return False
    signature = [tuple(sorted(deg[v] for v in g.neighbors(u))) for u in range(g.n)]
    if len(set(signature)) > 1:
        return False
    adj = g.adjacency
    n = g.n

    def extend(mapping: list[int], used: list[bool]) -> bool:
        v = len(mapping)
        if v == n:
            return True
        for cand in range(n):
            if used[cand] or signature[cand] != signature[v]:
                continue
            if all(adj[v, u] == adj[cand, mapping[u]] for u in range(v)):
                mapping.append(cand)
                used[cand] = True
                if extend(mapping, used):
                    return True
                mapping.pop()
                used[cand] = False
        return False

    for j in range(1, n):
        if signature[j] != signature[0]:
            return False
        if not extend([j], [v == j for v in range(n)]):
            return False
    return True

import numpy as np
import pytest

from netsec.graph import (
    Graph,
    build_topology,
    complete_graph,
    load_edge_list,
    ring_graph,
    star_graph,
)


def test_ring_structure():
    g = build_topology("ring", 5)
    assert g.topology == "ring"
    assert g.edge_count == 5
    assert (g.adjacency.sum(axis=1) == 2).all()
    for i in range(5):
        assert g.adjacency[i, (i + 1) % 5]


def test_complete_edge_count():
    g = build_topology("complete", 4)
    assert g.edge_count == 6


def test_star_degrees():
    g = build_topology("star", 5)
    deg = g.adjacency.sum(axis=1)
    assert deg[0] == 4
    assert (deg[1:] == 1).all()


@pytest.mark.parametrize("kind,n", [("ring", 2), ("star", 1), ("complete", 1)])
def test_builders_reject_small_n(kind, n):
    with pytest.raises(ValueError):
        build_topology(kind, n)


def test_unknown_topology_rejected():
    with pytest.raises(ValueError, match="unknown topology"):
        build_topology("torus", 5)


def test_load_edge_list_triangle():
    g = load_edge_list("0 1\n1 2\n2 0")
    assert g.n == 3
    assert g.edge_count == 3
    assert np.array_equal(g.adjacency, complete_graph(3).adjacency)
    assert g.topology == "custom"


def test_load_edge_list_collapses_duplicates():
    g = load_edge_list("0 1\n1 0\n0 1\n1 2")
    assert g.edge_count == 2


def test_load_edge_list_rejects_disconnected():
    with pytest.raises(ValueError, match="disconnected"):
        load_edge_list("0 1\n2 3")


@pytest.mark.parametrize("text, missing", [("0 1\n1 3", 2), ("0 100000000", 1)])
def test_load_edge_list_rejects_gapped_ids_before_allocating(text, missing):
    # The id check runs before the n x n adjacency is allocated, so the huge
    # id raises ValueError rather than asking numpy for ~10**16 bytes.
    with pytest.raises(ValueError, match=f"disconnected: agent {missing} "):
        load_edge_list(text)


def test_load_edge_list_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        load_edge_list("0 0")


def test_load_edge_list_reports_bad_line_number():
    with pytest.raises(ValueError, match="line 2"):
        load_edge_list("0 1\n1 two\n2 0")


def test_graph_constructor_rejects_asymmetric():
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = True
    with pytest.raises(ValueError, match="symmetric"):
        Graph(3, adj)


def test_adjacency_is_immutable():
    g = ring_graph(4)
    with pytest.raises(ValueError):
        g.adjacency[0, 2] = True


def union_find_components(n, edges):
    """Oracle: connected components by union-find with path compression."""
    parent = list(range(n))

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for i, j in edges:
        parent[find(i)] = find(j)
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), set()).add(v)
    return list(groups.values())


def test_all_constructed_graphs_connected():
    # Connectivity is a constructor invariant; the oracle must agree.
    for g in (ring_graph(6), star_graph(6), complete_graph(6), complete_graph(2)):
        assert len(union_find_components(g.n, g.edges)) == 1


def test_constructor_accepts_exactly_connected_graphs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def edge_lists(draw):
        n = draw(st.integers(2, 7))
        agent = st.integers(0, n - 1)
        pairs = st.tuples(agent, agent).filter(lambda e: e[0] != e[1])
        return n, draw(st.lists(pairs, max_size=10))

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(edge_lists())
    @hypothesis.example((3, [(1, 2)]))  # agent 0 itself is the isolated one
    @hypothesis.example((4, [(0, 1), (2, 3)]))
    @hypothesis.example((5, [(0, 2), (2, 4), (4, 0), (1, 3)]))
    def check(case):
        n, edges = case
        adj = np.zeros((n, n), dtype=bool)
        for u, v in edges:
            adj[u, v] = adj[v, u] = True
        components = union_find_components(n, edges)
        if len(components) == 1:
            assert Graph(n, adj).n == n
            return
        cut_off = sorted(set(range(n)) - next(c for c in components if 0 in c))
        with pytest.raises(ValueError) as info:
            Graph(n, adj)
        assert str(info.value) == f"graph is disconnected: agents {cut_off} cannot reach agent 0"

    check()

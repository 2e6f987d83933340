import itertools

import numpy as np
import pytest

from netsec.graph import (
    Graph,
    build_topology,
    complete_graph,
    is_vertex_transitive,
    load_edge_list,
    ring_graph,
    star_graph,
)


def test_ring_structure():
    g = build_topology("ring", 5)
    assert g.topology == "ring"
    assert g.edge_count == 5
    assert (g.degrees() == 2).all()
    for i in range(5):
        assert g.adjacency[i, (i + 1) % 5]


def test_complete_edge_count():
    g = build_topology("complete", 4)
    assert g.edge_count == 6


def test_star_degrees():
    g = build_topology("star", 5)
    deg = g.degrees()
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


def test_distance_ring_antipodal():
    assert ring_graph(6).distance(0, 3) == 3


def test_distance_star_leaf_to_leaf():
    assert star_graph(5).distance(1, 2) == 2


def test_distance_identity():
    for g in (ring_graph(5), star_graph(4), complete_graph(3)):
        for i in range(g.n):
            assert g.distance(i, i) == 0


def test_distance_symmetry_and_triangle_inequality():
    rng = np.random.default_rng(11)
    g = load_edge_list("0 1\n1 2\n2 3\n3 4\n4 0\n1 4\n2 5")
    for _ in range(50):
        i, j, k = rng.integers(0, g.n, size=3)
        assert g.distance(i, j) == g.distance(j, i)
        assert g.distance(i, k) <= g.distance(i, j) + g.distance(j, k)


def test_ring_distance_formula():
    n = 7
    g = ring_graph(n)
    for i, j in itertools.combinations(range(n), 2):
        assert g.distance(i, j) == min(abs(i - j), n - abs(i - j))


def test_complete_4_is_vertex_transitive():
    assert is_vertex_transitive(complete_graph(4))


def test_star_is_not_vertex_transitive():
    assert not is_vertex_transitive(star_graph(4))


def test_rings_and_completes_are_vertex_transitive():
    for n in range(3, 9):
        assert is_vertex_transitive(ring_graph(n))
        assert is_vertex_transitive(complete_graph(n))


def test_regular_but_not_vertex_transitive():
    # Two K4-minus-an-edge blocks bridged into a 3-regular graph; vertices
    # sit in different numbers of triangles, so no automorphism can map
    # them onto each other.
    text = "\n".join(
        ["0 1", "0 2", "0 3", "1 2", "1 3", "4 5", "4 6", "4 7", "5 6", "5 7", "2 6", "3 7"]
    )
    g = load_edge_list(text)
    assert (g.degrees() == 3).all()
    assert not is_vertex_transitive(g)


def test_vertex_transitivity_size_cap():
    with pytest.raises(ValueError, match="topology tag"):
        is_vertex_transitive(ring_graph(11))


def test_all_constructed_graphs_connected():
    # Connectivity is a constructor invariant; components() must be trivial.
    for g in (ring_graph(6), star_graph(6), complete_graph(6)):
        assert len(g.components()) == 1

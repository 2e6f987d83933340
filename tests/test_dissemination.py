import itertools

import numpy as np
import pytest

from netsec.dissemination import (
    Params,
    complete_connected_probability,
    complete_docs,
    complete_pair_bounds,
    complete_pair_reach,
    disseminate,
    p_for_half_coverage,
    reach_closed_form,
    reach_exact,
    reach_monte_carlo,
    ring_docs,
    star_docs,
    topology_docs,
)
from netsec.graph import complete_graph, load_edge_list, ring_graph, star_graph
from reed_frost import complete_reach_oracle

P_GRID = [round(0.1 * k, 1) for k in range(1, 10)]


def brute_force_pair_probability(g, p, i, j):
    """Independent oracle: direct sum over all edge subsets with DFS connectivity."""
    edges = g.edges
    m = len(edges)
    total = 0.0
    for mask in range(1 << m):
        adj = {v: [] for v in range(g.n)}
        bits = 0
        for e, (u, v) in enumerate(edges):
            if mask >> e & 1:
                adj[u].append(v)
                adj[v].append(u)
                bits += 1
        stack, seen = [i], {i}
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if j in seen:
            total += p**bits * (1 - p) ** (m - bits)
    return total


# ---------------------------------------------------------------------------
# Params
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"p": -0.1}, {"p": 1.2}, {"p": 0.5, "alpha": 0.5}, {"p": 0.5, "omega": 0.99},
])
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        Params(**kwargs)


def test_params_accepts_boundaries():
    Params(0.0, 1.0, 1.0)
    Params(1.0, 3.0, 2.0)


# ---------------------------------------------------------------------------
# Exact enumeration
# ---------------------------------------------------------------------------

def test_exact_single_edge():
    g = load_edge_list("0 1")
    diss = reach_exact(g, 0.7)
    assert diss.reach[0, 1] == pytest.approx(0.7, abs=1e-15)
    assert diss.reach[0, 0] == 1.0


def test_exact_triangle_matches_formula():
    g = complete_graph(3)
    for p in P_GRID:
        diss = reach_exact(g, p)
        expected = p + p**2 - p**3
        for i, j in itertools.combinations(range(3), 2):
            assert diss.reach[i, j] == pytest.approx(expected, abs=1e-12)


def test_exact_ring4_distance_one_value():
    diss = reach_exact(ring_graph(4), 0.5)
    assert diss.reach[0, 1] == pytest.approx(0.5625, abs=1e-12)


def test_exact_agrees_with_brute_force_oracle():
    g = load_edge_list("0 1\n1 2\n2 3\n3 0\n0 2")
    for p in (0.2, 0.7):
        diss = reach_exact(g, p)
        for i, j in [(0, 1), (1, 3), (0, 2)]:
            assert diss.reach[i, j] == pytest.approx(
                brute_force_pair_probability(g, p, i, j), abs=1e-12
            )


def test_exact_invariant_to_enumeration_chunk(monkeypatch):
    # 2**11 masks in chunks of 100 span 21 chunks, the last one short; the
    # counts must equal those of a single-chunk walk.
    import netsec.dissemination as diss_mod

    g = load_edge_list("0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 0\n0 3\n1 5\n2 6\n3 5")
    assert g.edge_count >= 10
    results = {}
    for chunk in (1 << g.edge_count, 100):
        monkeypatch.setattr(diss_mod, "_ENUM_CHUNK", chunk)
        diss_mod._subset_counts.cache_clear()
        results[chunk] = reach_exact(g, 0.35).reach
    diss_mod._subset_counts.cache_clear()
    full, chunked = results.values()
    assert np.array_equal(full, chunked)
    for i, j in [(0, 1), (2, 5), (4, 6)]:
        assert chunked[i, j] == pytest.approx(
            brute_force_pair_probability(g, 0.35, i, j), abs=1e-12
        )


def test_exact_rejects_large_graphs():
    with pytest.raises(ValueError, match="at most"):
        reach_exact(complete_graph(8), 0.5)  # 28 edges


def test_exact_matrix_properties():
    g = ring_graph(5)
    diss = reach_exact(g, 0.4)
    assert np.array_equal(diss.reach, diss.reach.T)
    assert (diss.reach.diagonal() == 1.0).all()
    assert (diss.reach > 0).all()
    assert (diss.reach <= 1).all()


# ---------------------------------------------------------------------------
# Closed forms vs the enumeration oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_ring_closed_form_matches_enumeration(n):
    g = ring_graph(n)
    for p in P_GRID:
        exact = reach_exact(g, p)
        closed = reach_closed_form(g, p)
        assert np.abs(exact.reach - closed.reach).max() < 1e-10


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_star_closed_form_matches_enumeration(n):
    g = star_graph(n)
    for p in P_GRID:
        exact = reach_exact(g, p)
        closed = reach_closed_form(g, p)
        assert np.abs(exact.reach - closed.reach).max() < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_complete_closed_form_matches_enumeration(n):
    g = complete_graph(n)
    for p in P_GRID:
        exact = reach_exact(g, p)
        closed = reach_closed_form(g, p)
        assert np.abs(exact.reach - closed.reach).max() < 1e-10


def test_complete_small_cases_exact():
    for p in P_GRID:
        assert complete_pair_reach(2, p) == p
        assert complete_pair_reach(3, p) == p + p**2 - p**3


def test_ring3_equals_complete3():
    for p in P_GRID:
        ring = reach_closed_form(ring_graph(3), p)
        comp = reach_closed_form(complete_graph(3), p)
        assert np.abs(ring.reach - comp.reach).max() < 1e-12


def test_closed_form_rejects_custom_topology():
    g = load_edge_list("0 1\n1 2\n2 0\n2 3")
    with pytest.raises(ValueError, match="closed form"):
        reach_closed_form(g, 0.5)


def test_star_docs_formulas():
    # hub: (n-1)p + 1, leaf: (n-2)p^2 + p + 1
    n = 5
    for p in P_GRID:
        diss = reach_closed_form(star_graph(n), p)
        assert diss.expected_docs[0] == pytest.approx(4 * p + 1, abs=1e-12)
        assert diss.expected_docs[1] == pytest.approx(3 * p**2 + p + 1, abs=1e-12)
        assert diss.expected_docs[0] > diss.expected_docs[1]


def test_ring_docs_rational_form():
    n = 5
    for p in P_GRID:
        expected = (1 + p - 6 * p**5 + 4 * p**6) / (1 - p)
        assert ring_docs(n, p) == pytest.approx(expected, rel=1e-12)
    assert ring_docs(n, 1.0) == n


# ---------------------------------------------------------------------------
# Complete-graph recursion and bounds
# ---------------------------------------------------------------------------

def test_all_reach_base_cases():
    for p in P_GRID:
        assert complete_connected_probability(1, p) == 1.0
        assert complete_connected_probability(2, p) == p


def test_all_reach_extremes():
    assert complete_connected_probability(6, 0.0) == 0.0
    assert complete_connected_probability(6, 1.0) == 1.0


def test_pair_bounds_tight_for_two_agents():
    for p in P_GRID:
        lo, hi = complete_pair_bounds(2, p)
        assert lo == pytest.approx(p, abs=1e-15)
        assert hi == pytest.approx(p, abs=1e-15)


def test_pair_bounds_contain_exact_value():
    for n in range(2, 12):
        for p in P_GRID:
            lo, hi = complete_pair_bounds(n, p)
            value = complete_pair_reach(n, p)
            assert lo - 1e-12 <= value <= hi + 1e-12


def test_pair_bounds_at_p_one():
    lo, hi = complete_pair_bounds(7, 1.0)
    assert lo == 1.0 and hi == 1.0


@pytest.mark.parametrize("n", [10, 20, 40, 100])
@pytest.mark.parametrize("p", [0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.5, 0.9])
def test_complete_graph_matches_reed_frost_oracle(n, p):
    # Small p is the sparse-sharing regime, where tiny connectivity
    # probabilities must not be found as one minus a sum close to 1.
    pair, connected = complete_reach_oracle(n, p)
    assert complete_pair_reach(n, p) == pytest.approx(pair, rel=1e-9, abs=0.0)
    assert complete_connected_probability(n, p) == pytest.approx(connected, rel=1e-9, abs=0.0)


def test_pair_reach_large_n_uses_log_binomials():
    # n=60 exercises the log-gamma branch; the value must stay a probability
    # inside the analytic envelope.
    for p in (0.05, 0.2, 0.5):
        value = complete_pair_reach(60, p)
        lo, hi = complete_pair_bounds(60, p)
        assert lo - 1e-9 <= value <= hi + 1e-9


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def test_monte_carlo_extremes_exact():
    g = ring_graph(5)
    assert np.array_equal(reach_monte_carlo(g, 1.0, 50, seed=3).reach, np.ones((5, 5)))
    assert np.array_equal(reach_monte_carlo(g, 0.0, 50, seed=3).reach, np.eye(5))


def test_monte_carlo_seed_determinism():
    g = ring_graph(6)
    a = reach_monte_carlo(g, 0.5, 2000, seed=42)
    b = reach_monte_carlo(g, 0.5, 2000, seed=42)
    c = reach_monte_carlo(g, 0.5, 2000, seed=43)
    assert np.array_equal(a.reach, b.reach)
    assert not np.array_equal(a.reach, c.reach)


def test_monte_carlo_within_standard_errors():
    g = ring_graph(6)
    mc = reach_monte_carlo(g, 0.5, 100_000, seed=0)
    closed = reach_closed_form(g, 0.5)
    off = ~np.eye(6, dtype=bool)
    deviations = np.abs(mc.reach - closed.reach)[off] / mc.std_err[off]
    assert deviations.max() < 4.0


def test_monte_carlo_symmetry_and_diagonal():
    mc = reach_monte_carlo(star_graph(5), 0.6, 5000, seed=9)
    assert np.array_equal(mc.reach, mc.reach.T)
    assert (mc.reach.diagonal() == 1.0).all()
    assert (mc.std_err.diagonal() == 0.0).all()


def test_monte_carlo_rejects_bad_samples():
    with pytest.raises(ValueError, match="samples"):
        reach_monte_carlo(ring_graph(4), 0.5, 0)


def test_monte_carlo_invariant_to_batch_size(monkeypatch):
    # One stream read in order makes the estimate independent of how the
    # spreads are batched internally.
    import netsec.dissemination as diss_mod

    g = ring_graph(5)
    full = reach_monte_carlo(g, 0.5, 1000, seed=5)
    monkeypatch.setattr(diss_mod, "_MC_CHUNK", 64)
    chunked = reach_monte_carlo(g, 0.5, 1000, seed=5)
    assert np.array_equal(full.reach, chunked.reach)


def test_monte_carlo_draws_each_spread_once(monkeypatch):
    # Every source reads the same labels, so 2 * samples spreads are
    # labelled in all.
    import netsec.dissemination as diss_mod

    labelled = []
    label = diss_mod._component_labels

    def counting(present, edges, n):
        labelled.append(present.shape[0])
        return label(present, edges, n)

    monkeypatch.setattr(diss_mod, "_component_labels", counting)
    reach_monte_carlo(ring_graph(5), 0.5, 1000, seed=5)
    assert sum(labelled) == 2 * 1000


def test_disseminate_dispatch():
    g = ring_graph(4)
    assert disseminate(g, 0.5, "exact").method == "exact"
    assert disseminate(g, 0.5, "closed").method == "closed"
    assert disseminate(g, 0.5, "mc", samples=10, seed=1).method == "mc"
    with pytest.raises(ValueError, match="method"):
        disseminate(g, 0.5, "quantum")


# ---------------------------------------------------------------------------
# Expected documents
# ---------------------------------------------------------------------------

def test_expected_documents_p_zero_is_one():
    diss = reach_exact(ring_graph(5), 0.0)
    assert np.array_equal(diss.expected_docs, np.ones(5))


def test_expected_documents_complete_p_one_is_n():
    diss = reach_closed_form(complete_graph(7), 1.0)
    assert np.array_equal(diss.expected_docs, np.full(7, 7.0))


def test_expected_documents_equal_on_ring():
    docs = reach_closed_form(ring_graph(10), 0.9).expected_docs
    assert docs.max() - docs.min() < 1e-12


def test_expected_documents_range():
    for g in (ring_graph(6), star_graph(6), complete_graph(5)):
        for p in (0.2, 0.8):
            diss = reach_exact(g, p)
            docs = diss.expected_docs
            assert np.array_equal(docs, diss.reach.sum(axis=0))
            assert (docs >= 1.0).all()
            assert (docs <= g.n + 1e-12).all()


def test_topology_docs_matches_matrix_route():
    for topology, g in (("ring", ring_graph(6)), ("star", star_graph(6)),
                        ("complete", complete_graph(6))):
        for p in (0.3, 0.8):
            direct = topology_docs(topology, 6, p)
            via_matrix = reach_closed_form(g, p).expected_docs
            assert np.abs(direct - via_matrix).max() < 1e-10


# ---------------------------------------------------------------------------
# Monotonicity properties
# ---------------------------------------------------------------------------

def test_docs_strictly_increase_with_p():
    grid = np.linspace(0.0, 1.0, 21)
    for topology in ("ring", "star", "complete"):
        for n in (4, 6):
            values = [topology_docs(topology, n, p).mean() for p in grid]
            assert all(a < b for a, b in zip(values, values[1:]))


def test_ring_docs_below_complete_docs():
    for n in (4, 5, 8):
        for p in np.linspace(0.05, 0.95, 10):
            assert ring_docs(n, p) <= complete_docs(n, p) + 1e-12


def test_subgraph_monotonicity_exact():
    # Removing an edge can only reduce every reach probability.
    big = load_edge_list("0 1\n1 2\n2 3\n3 0\n0 2")
    small = load_edge_list("0 1\n1 2\n2 3\n3 0")
    for p in (0.3, 0.7):
        assert (
            reach_exact(small, p).reach <= reach_exact(big, p).reach + 1e-12
        ).all()


# ---------------------------------------------------------------------------
# Half-coverage threshold
# ---------------------------------------------------------------------------

def test_half_coverage_boundary_n2():
    assert p_for_half_coverage(complete_graph(2)) == 0.0


def test_half_coverage_ring10_near_asymptote():
    p_hat = p_for_half_coverage(ring_graph(10), tolerance=1e-12)
    assert abs(ring_docs(10, p_hat) - 5.0) <= 1e-9
    # 1 - 4/(n+2) up to exponentially small corrections
    assert abs(p_hat - (1 - 4 / 12)) < 0.02


def test_half_coverage_star_uses_mean():
    n = 5
    g = star_graph(n)
    p_hat = p_for_half_coverage(g, tolerance=1e-12)
    hub, leaf = star_docs(n, p_hat)
    assert (hub + (n - 1) * leaf) / n == pytest.approx(n / 2, abs=1e-9)


def test_half_coverage_rejects_custom():
    with pytest.raises(ValueError):
        p_for_half_coverage(load_edge_list("0 1\n1 2"))

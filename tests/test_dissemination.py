import itertools
import random
import time

import numpy as np
import pytest

import netsec.dissemination as diss_mod
from netsec.dissemination import (
    MAX_EXACT_AGENTS,
    MAX_EXACT_EDGES,
    Params,
    _component_labels,
    _p_for_mean_docs,
    complete_docs,
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
from oracles import complete_connected_probability, complete_pair_bounds, complete_pair_counts
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


def random_connected_edges(rng, n, m):
    """m distinct edges on agents 0..n-1 that contain a random spanning tree."""
    order = list(range(n))
    rng.shuffle(order)
    tree = {tuple(sorted((order[k], rng.choice(order[:k])))) for k in range(1, n)}
    others = [e for e in itertools.combinations(range(n), 2) if e not in tree]
    return tuple(sorted(tree | set(rng.sample(others, m - len(tree)))))


def edge_list_graph(edges):
    return load_edge_list("".join(f"{u} {v}\n" for u, v in edges))


def closure_reach(n, edges, p):
    """Exact reach by Boolean transitive closure of all 2**m edge subsets at once.

    joined[u][v] is a bitset over edge subsets: bit t of byte b stands for
    subset 8b + t, so the three lowest edges vary inside a byte and the
    others pick the byte.  Warshall's closure joins u and v through each w
    in turn.  A subset of k edges weighs p**k (1-p)**(m-k).
    """
    m = len(edges)
    slot = np.arange(8)
    blocks = 1 << (m - 3)
    empty = np.zeros(blocks, dtype=np.uint8)
    joined = [[empty] * n for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        if e < 3:
            bits = np.full(blocks, ((slot >> e & 1) << slot).sum(), dtype=np.uint8)
        else:
            run = np.repeat(np.array([0, 255], dtype=np.uint8), 1 << (e - 3))
            bits = np.tile(run, 1 << (m - 1 - e))
        joined[u][v] = joined[v][u] = bits
    for w in range(n):
        for u in range(n):
            for v in range(u + 1, n):
                if w not in (u, v):
                    joined[u][v] = joined[v][u] = joined[u][v] | (joined[u][w] & joined[w][v])
    block_size = np.zeros(1, dtype=np.int64)
    for _ in range(m - 3):
        block_size = np.concatenate([block_size, block_size + 1])
    slot_size = (slot & 1) + (slot >> 1 & 1) + (slot >> 2)
    slot_weight = p**slot_size * (1 - p) ** (3 - slot_size)
    byte_weight = (np.arange(256)[:, None] >> slot & 1) @ slot_weight
    sizes = np.arange(m - 2)
    size_weight = p**sizes * (1 - p) ** (m - 3 - sizes)
    reach = np.eye(n)
    for u, v in itertools.combinations(range(n), 2):
        # Blocks counted by byte value and size, in exact integers.
        key = joined[u][v].astype(np.int64) * (m - 2) + block_size
        tally = np.bincount(key, minlength=256 * (m - 2)).reshape(256, m - 2)
        reach[u, v] = reach[v, u] = byte_weight @ tally @ size_weight
    return reach


# ---------------------------------------------------------------------------
# Params
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"alpha": float("nan")}, {"omega": float("inf")}, {"alpha": 0.5}, {"omega": 0.99},
])
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        Params(**kwargs)


def test_params_accepts_boundaries():
    assert Params() == Params(1.0, 1.0)
    Params(3.0, 2.0)


def test_params_holds_only_costs():
    # p reaches the game through a Dissemination; a call that still passes
    # p first fails instead of shifting it into a cost.
    with pytest.raises(TypeError):
        Params(0.5, 1.0, 1.0)
    with pytest.raises(ValueError, match="alpha"):
        Params(0.5)


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
    g = load_edge_list("0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 0\n0 3\n1 5\n2 6\n3 5")
    assert g.edge_count >= 10
    # 3**7 > 2**11, so this graph is enumerated.
    assert diss_mod._exact_counter(g.n, g.edge_count) is diss_mod._edge_subset_counts
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


def _route_cases():
    """(n, m) pairs on each side of the route boundary 3**n <= 2**m and at
    it, and random sizes up to 12 edges.  Enumeration doubles with each
    edge (about 0.2 s at 17), so larger m is left to the closure test."""
    rng = random.Random(2024)
    cases = [(9, 17)]
    for n in range(2, 11):
        boundary = next(m for m in range(60) if 3**n <= 2**m)
        cases += [(n, m) for m in (boundary - 1, boundary) if n - 1 <= m <= n * (n - 1) // 2]
    while len(cases) < 200:
        n = rng.randint(2, 10)
        cases.append((n, rng.randint(n - 1, min(n * (n - 1) // 2, 12))))
    return [(n, random_connected_edges(rng, n, m)) for n, m in cases]


def test_vertex_recursion_equals_edge_enumeration():
    cases = _route_cases()
    routes = {diss_mod._exact_counter(n, len(edges)) for n, edges in cases}
    assert routes == {diss_mod._vertex_subset_counts, diss_mod._edge_subset_counts}
    for n, edges in cases:
        recursion = diss_mod._vertex_subset_counts(edges, n)
        assert recursion.dtype == np.int64
        assert np.array_equal(recursion, diss_mod._edge_subset_counts(edges, n)), (n, edges)


def test_complete_pair_counts_oracle_matches_enumeration():
    edges = tuple(itertools.combinations(range(6), 2))
    counts = diss_mod._edge_subset_counts(edges, 6)
    assert counts[0, 1].tolist() == complete_pair_counts(6)


def test_vertex_recursion_exact_at_int64_limit():
    # K_12's 66 edges are the recursion's largest case; its largest count,
    # at 33 edges, is above 2**62.
    n = MAX_EXACT_AGENTS
    edges = tuple(itertools.combinations(range(n), 2))
    assert diss_mod._exact_counter(n, len(edges)) is diss_mod._vertex_subset_counts
    counts = diss_mod._vertex_subset_counts(edges, n)
    expected = complete_pair_counts(n)
    assert max(expected) > 2**62
    assert counts.dtype == np.int64
    off = ~np.eye(n, dtype=bool)
    assert counts[off].tolist() == [expected] * (n * (n - 1))
    assert not counts[~off].any()


def test_vertex_recursion_invariant_to_pair_chunk(monkeypatch):
    # One S per chunk, a few S per chunk, and whole layers: the same counts.
    n, edges = 10, random_connected_edges(random.Random(10), 10, 25)
    assert diss_mod._exact_counter(n, len(edges)) is diss_mod._vertex_subset_counts
    results = []
    for chunk in (1, 64, diss_mod._PAIR_CHUNK):
        monkeypatch.setattr(diss_mod, "_PAIR_CHUNK", chunk)
        results.append(diss_mod._vertex_subset_counts(edges, n))
    assert all(np.array_equal(results[-1], counts) for counts in results[:-1])


@pytest.mark.parametrize("n", [9, 10])
@pytest.mark.parametrize("p", [0.001, 0.3, 0.9])
def test_exact_complete_graph_matches_closed_form(n, p):
    reach = reach_exact(complete_graph(n), p).reach
    off = ~np.eye(n, dtype=bool)
    assert np.allclose(reach[off], complete_pair_reach(n, p), rtol=1e-12, atol=0.0)


def test_exact_nine_agents_twenty_two_edges_matches_closure():
    edges = random_connected_edges(random.Random(9), 9, 22)
    g = edge_list_graph(edges)
    diss_mod._subset_counts.cache_clear()
    start = time.perf_counter()
    reach_exact(g, 0.3)
    assert time.perf_counter() - start < 0.5
    for p in (0.3, 0.8):
        reach = reach_exact(g, p).reach
        assert np.allclose(reach, closure_reach(9, edges, p), rtol=1e-12, atol=0.0)


def test_exact_rejects_large_graphs():
    # 13 agents on a ring with 10 chords: 23 edges, past both exact bounds.
    g = edge_list_graph([(i, (i + 1) % 13) for i in range(13)] + [(i, i + 2) for i in range(10)])
    assert g.n > MAX_EXACT_AGENTS and g.edge_count > MAX_EXACT_EDGES
    with pytest.raises(ValueError, match="at most 12 agents or at most 22 edges"):
        reach_exact(g, 0.5)


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


def test_complete_pair_reach_of_two_agents_is_p_from_the_tables():
    # Two agents reach each other only over their one edge; the general
    # recursion gives p bit for bit, with no special case for n = 2.
    for p in np.linspace(0.0, 1.0, 3001):
        assert complete_pair_reach(2, float(p)) == p
        assert complete_docs(2, float(p)) == 1.0 + p


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
    # At n=60 the binomials come from log-factorials; the value must stay a
    # probability inside the analytic envelope.
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


@pytest.mark.parametrize("n", [15, 16])
def test_monte_carlo_within_standard_errors_at_subset_threshold(n):
    # A 15-ring's edge sets fit in a chunk, so its spreads come from one
    # edge-set histogram; a 16-ring labels every spread.  Both estimates
    # must agree with the closed form; the bound allows for 105 pairs.
    g = ring_graph(n)
    mc = reach_monte_carlo(g, 0.5, 20_000, seed=0)
    closed = reach_closed_form(g, 0.5)
    off = ~np.eye(n, dtype=bool)
    deviations = np.abs(mc.reach - closed.reach)[off] / mc.std_err[off]
    assert deviations.max() < 4.5


def test_monte_carlo_rejects_bad_samples():
    with pytest.raises(ValueError, match="samples"):
        reach_monte_carlo(ring_graph(4), 0.5, 0)


def test_monte_carlo_bounds_samples_where_the_spread_count_fits_int64():
    # 2 * samples spreads are drawn as an int64 binomial count.
    with pytest.raises(ValueError, match=r"2\*\*62 - 1"):
        reach_monte_carlo(ring_graph(6), 0.5, 2**62)
    mc = reach_monte_carlo(ring_graph(6), 0.5, 2**62 - 1)
    np.testing.assert_allclose(mc.reach, reach_closed_form(ring_graph(6), 0.5).reach, atol=1e-6)


def test_monte_carlo_invariant_to_batch_size(monkeypatch):
    # One stream read in order makes the per-spread estimate independent of
    # how the spreads are batched internally; a 20-ring's 2**20 edge sets
    # exceed a chunk, so it labels every spread in both runs.
    g = ring_graph(20)
    full = reach_monte_carlo(g, 0.5, 1000, seed=5)
    monkeypatch.setattr(diss_mod, "_MC_CHUNK", 64)
    chunked = reach_monte_carlo(g, 0.5, 1000, seed=5)
    assert np.array_equal(full.reach, chunked.reach)


def _counting_labels(monkeypatch):
    """Wrap _component_labels to record each batch of labelled rows."""
    import netsec.dissemination as diss_mod

    batches = []
    label = diss_mod._component_labels

    def counting(present, edges, n):
        batches.append(present.copy())
        return label(present, edges, n)

    monkeypatch.setattr(diss_mod, "_component_labels", counting)
    return batches


def test_monte_carlo_labels_each_distinct_subset_once(monkeypatch):
    # A 5-ring's 2**5 edge sets fit in a chunk, so its spreads are drawn as
    # one edge-set histogram and labelled in one batch that holds every
    # occurring set once.
    batches = _counting_labels(monkeypatch)
    reach_monte_carlo(ring_graph(5), 0.5, 1000, seed=5)
    assert len(batches) == 1
    present = batches[0]
    assert present.shape[0] <= 2**5
    assert np.unique(present, axis=0).shape[0] == present.shape[0]


def test_edge_set_counts_follow_the_multinomial_law():
    # Over a 3-edge path's 8 edge sets, a set of k edges is drawn by each
    # spread with probability p**k (1-p)**(3-k).  Every histogram counts
    # each spread once, and over many seeds each set's count has the
    # binomial mean (within 5 standard errors) and variance (within 20%,
    # about 6 standard errors of a sample variance over 2000 seeds).
    g = load_edge_list("0 1\n1 2\n2 3")
    m, p, spreads, seeds = g.edge_count, 0.3, 200, 2000
    hist = np.array([
        diss_mod._edge_set_counts(np.random.default_rng(seed), spreads, m, p)
        for seed in range(seeds)
    ])
    assert hist.shape == (seeds, 1 << m)
    assert (hist.sum(axis=1) == spreads).all()
    k = np.array([bin(mask).count("1") for mask in range(1 << m)])
    prob = p**k * (1.0 - p) ** (m - k)
    variance = spreads * prob * (1.0 - prob)
    assert (np.abs(hist.mean(axis=0) - spreads * prob) <= 5.0 * np.sqrt(variance / seeds)).all()
    assert (np.abs(hist.var(axis=0, ddof=1) / variance - 1.0) <= 0.2).all()


@pytest.mark.parametrize("samples", [1, 1000])
@pytest.mark.parametrize("p", [0.0, 1.0])
def test_edge_set_counts_one_hot_when_edges_are_certain(p, samples):
    # p = 0 puts every spread on the empty set, p = 1 on the full set.
    m = 3
    hist = diss_mod._edge_set_counts(np.random.default_rng(4), 2 * samples, m, p)
    expected = np.zeros(1 << m, dtype=hist.dtype)
    expected[(1 << m) - 1 if p else 0] = 2 * samples
    assert np.array_equal(hist, expected)


def test_monte_carlo_labels_every_spread_above_threshold(monkeypatch):
    # A 20-ring has more subsets than a chunk has spreads: every spread is
    # labelled once.
    batches = _counting_labels(monkeypatch)
    reach_monte_carlo(ring_graph(20), 0.5, 1000, seed=5)
    assert sum(present.shape[0] for present in batches) == 2 * 1000


@pytest.mark.parametrize("budget", [28 * 30, 20])
def test_monte_carlo_chunks_bounded_by_draws(monkeypatch, budget):
    # A chunk draws m uniforms a spread and at most _MC_DRAWS in all, so a
    # dense graph takes fewer spreads a chunk, and at least one; the stream
    # read in order keeps the estimate of the default 50 000-spread chunk.
    g = complete_graph(8)
    full = reach_monte_carlo(g, 0.3, 100, seed=7)
    batches = _counting_labels(monkeypatch)
    monkeypatch.setattr(diss_mod, "_MC_DRAWS", budget)
    small = reach_monte_carlo(g, 0.3, 100, seed=7)
    assert np.array_equal(small.reach, full.reach)
    assert np.array_equal(small.std_err, full.std_err)
    rows = max(1, budget // g.edge_count)
    assert max(present.shape[0] for present in batches) <= rows
    assert sum(present.shape[0] for present in batches) == 2 * 100


def per_spread_monte_carlo(g, p, samples, seed, chunk):
    """Reference estimator: label every spread and count each one.

    A graph whose 2**m edge sets fit in a chunk takes its spreads from the
    edge-set histogram `reach_monte_carlo` draws, expanded into one row per
    spread; a larger graph draws each spread's uniforms from the stream.
    """
    n, edges = g.n, g.edges
    m = len(edges)
    spreads = 2 * samples
    rng = np.random.default_rng(seed & (2**64 - 1))
    histogram = 1 << m <= chunk
    if histogram:
        codes = np.repeat(np.arange(1 << m), diss_mod._edge_set_counts(rng, spreads, m, p))
        rows = ((codes[:, None] >> np.arange(m)) & 1).astype(bool)
    counts = np.zeros((n, n))
    for start in range(0, spreads, chunk):
        if histogram:
            present = rows[start : start + chunk]
        else:
            present = rng.random((min(chunk, spreads - start), m)) < p
        labels = _component_labels(present, edges, n)
        for src in range(n):
            counts[src] += (labels == labels[:, src : src + 1]).sum(axis=0)
    reach = counts / spreads
    return reach, np.sqrt(reach * (1.0 - reach) / spreads)


MC_ORACLE_GRAPHS = [
    ring_graph(5),
    ring_graph(6),
    ring_graph(15),
    ring_graph(16),
    ring_graph(30),
    star_graph(5),
    complete_graph(5),
    complete_graph(6),
]


@pytest.mark.parametrize("chunk", [None, 64])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("g", MC_ORACLE_GRAPHS, ids=lambda g: f"{g.topology}{g.n}")
def test_monte_carlo_matches_per_spread_oracle(monkeypatch, g, p, chunk):
    # Counting repeated edge sets must give the same integer counts as
    # labelling every spread.  Graphs whose 2**m edge sets fit in a chunk
    # (at most 15 edges by default, 6 with 64-spread chunks) are checked
    # against their histogram expanded into spreads, larger ones against
    # spreads drawn from uniforms, in full chunks and a partial last one.
    if chunk is None:
        # A full chunk and one of 2000 spreads.
        samples = diss_mod._MC_CHUNK // 2 + 1000
    else:
        # 94 chunks, the last of 48 spreads.
        monkeypatch.setattr(diss_mod, "_MC_CHUNK", chunk)
        samples = 3000
    mc = reach_monte_carlo(g, p, samples, seed=11)
    reach, std_err = per_spread_monte_carlo(g, p, samples, 11, diss_mod._MC_CHUNK)
    assert np.array_equal(mc.reach, reach)
    assert np.array_equal(mc.std_err, std_err)


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


@pytest.mark.parametrize("tolerance", [0.0, float("nan")])
def test_mean_docs_inversion_rejects_non_positive_tolerance(tolerance):
    with pytest.raises(ValueError, match="tolerance must be positive"):
        _p_for_mean_docs("ring", 5, 2.5, tolerance)
    with pytest.raises(ValueError, match="tolerance must be positive"):
        p_for_half_coverage(ring_graph(5), tolerance=tolerance)

import numpy as np
import pytest

from netsec import cli, game
from netsec.attack import _water_fill, breach_probabilities, optimal_attack
from netsec.dissemination import (
    Params,
    complete_docs,
    complete_pair_bounds,
    reach_closed_form,
    reach_exact,
    ring_docs,
    star_docs,
)
from netsec.game import (
    NonConvergenceError,
    best_response_dynamics,
    evaluate_outcome,
    find_crossover_p,
    investment_gap,
    nash_random,
    nash_strategic_vt,
    social_optimum_numeric,
    social_optimum_random,
    social_optimum_strategic_vt,
    star_sacrificial_lamb,
    star_uniform_attack_strategy,
    unique_crossover_condition,
)
from netsec.graph import complete_graph, load_edge_list, ring_graph, star_graph

P_GRID = [round(0.1 * k, 1) for k in range(1, 10)]


# ---------------------------------------------------------------------------
# Closed-form investments
# ---------------------------------------------------------------------------

def test_nash_random_values():
    assert np.array_equal(nash_random(5, 1.0), np.full(5, 0.2))
    assert nash_random(4, 2.0)[0] == 0.125
    assert nash_random(10**6, 1.0)[0] == pytest.approx(1e-6, abs=0)


def test_social_optimum_random_star_formulas():
    n = 5
    for p in P_GRID:
        docs = np.full(n, 1 + p + (n - 2) * p**2)
        docs[0] = 1 + (n - 1) * p
        q = social_optimum_random(docs, 1.0)
        assert q[0] == pytest.approx(((n - 1) * p + 1) / n, abs=1e-12)
        assert q[1] == pytest.approx(((n - 2) * p**2 + p + 1) / n, abs=1e-12)


def test_social_optimum_random_p_zero_matches_nash():
    docs = np.ones(6)
    assert np.array_equal(social_optimum_random(docs, 1.5), nash_random(6, 1.5))


def test_social_optimum_random_complete_large_p():
    # Densely connected graphs push optimal protection toward the maximum,
    # and dominate the ring at equal (n, p).
    n, p = 20, 0.9
    q_complete = social_optimum_random(np.full(n, complete_docs(n, p)), 1.0)[0]
    q_ring = social_optimum_random(np.full(n, ring_docs(n, p)), 1.0)[0]
    assert q_complete >= q_ring
    # the pair-reach envelope translates into a floor on the optimum
    lo, _ = complete_pair_bounds(n, p)
    assert q_complete >= (1 + (n - 1) * lo) / n - 1e-12
    assert 1 - q_complete < 0.1


def test_strategic_optimum_equals_random_optimum_on_vt():
    for n in (4, 5):
        for p in P_GRID:
            for d in (ring_docs(n, p), complete_docs(n, p)):
                np.testing.assert_array_equal(
                    social_optimum_strategic_vt(d, n, 1.0),
                    social_optimum_random(np.full(n, d), 1.0),
                )


def test_strategic_optimum_p_one():
    assert social_optimum_strategic_vt(5.0, 5, 1.0)[0] == 1.0
    assert social_optimum_strategic_vt(5.0, 5, 2.0)[0] == 0.5


def test_strategic_optimum_rejects_heterogeneous_docs():
    with pytest.raises(ValueError, match="homogeneous|same count"):
        social_optimum_strategic_vt(np.array([2.0, 2.1, 2.0]), alpha=1.0)


def test_nash_strategic_endpoints():
    n, omega = 5, 1.0
    # p=1: documents reach everyone, strategic play degenerates to 1/(alpha n)
    assert nash_strategic_vt(float(n), n, 1.0, omega)[0] == 0.2
    # p=0: only own documents at stake
    assert nash_strategic_vt(1.0, n, 1.0, omega)[0] == pytest.approx(
        (n - 1 + omega) / (n - 1 + n * omega), abs=1e-15
    )


def test_nash_strategic_ring_large_n_limit():
    # Limit (1+p)/(1-p) / ((1+p)/(1-p) + alpha omega); the finite-n gap
    # decays like 1/n (about 1.6e-3 at n=200).
    p, alpha, omega = 0.5, 1.0, 1.0
    ratio = (1 + p) / (1 - p)
    limit = ratio / (ratio + alpha * omega)
    q200 = nash_strategic_vt(ring_docs(200, p), 200, alpha, omega)[0]
    q800 = nash_strategic_vt(ring_docs(800, p), 800, alpha, omega)[0]
    assert abs(q200 - limit) < 2e-3
    assert abs(q800 - limit) < 1e-3
    assert abs(q800 - limit) < abs(q200 - limit)


def test_nash_strategic_unimodal_with_peak_at_half_coverage():
    n = 5
    for topology, docs_of in (("ring", ring_docs), ("complete", complete_docs)):
        grid = np.linspace(0.0, 1.0, 201)
        values = np.array([nash_strategic_vt(docs_of(n, p), n, 1.0, 1.0)[0] for p in grid])
        diffs = np.diff(values)
        signs = [d for d in diffs if abs(d) > 1e-13]
        flips = sum(
            1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0)
        )
        assert flips == 1
        peak_docs = docs_of(n, float(grid[np.argmax(values)]))
        assert abs(peak_docs - n / 2) < 0.1


# ---------------------------------------------------------------------------
# Ordering of the four investment profiles on vertex-transitive networks
# ---------------------------------------------------------------------------

def test_investment_ordering_chain():
    n, alpha, omega = 5, 1.0, 1.0
    for docs_of in (ring_docs, complete_docs):
        for p in P_GRID:
            d = docs_of(n, p)
            q_nr = nash_random(n, alpha)[0]
            q_or = social_optimum_random(np.full(n, d), alpha)[0]
            q_ns = nash_strategic_vt(d, n, alpha, omega)[0]
            q_os = social_optimum_strategic_vt(d, n, alpha)[0]
            assert q_or == q_os  # attack type does not move the optimum
            assert q_nr < q_ns  # strict for p < 1
            assert q_nr < q_or  # strict for p > 0


# ---------------------------------------------------------------------------
# Best-response dynamics
# ---------------------------------------------------------------------------

def _closed_diss(g, p):
    return reach_closed_form(g, p)


@pytest.mark.parametrize("build", [complete_graph, ring_graph])
def test_brd_matches_closed_form(build):
    g = build(5)
    diss = _closed_diss(g, 0.5)
    params = Params(0.5, 1.0, 1.0)
    out = best_response_dynamics(g, diss, params, q0=np.full(5, 0.5))
    expected = nash_strategic_vt(diss.expected_docs, 5, 1.0, 1.0)
    assert np.abs(out.q - expected).max() < 1e-6
    assert out.regime == "nash-strategic"


def test_brd_start_independence_on_vt():
    g = ring_graph(5)
    diss = _closed_diss(g, 0.4)
    params = Params(0.4, 1.0, 1.0)
    out_low = best_response_dynamics(g, diss, params, q0=np.full(5, 0.05))
    out_high = best_response_dynamics(g, diss, params, q0=np.full(5, 0.95))
    assert np.abs(out_low.q - out_high.q).max() < 1e-6


def test_brd_no_profitable_unilateral_deviation():
    g = star_graph(5)
    p = 0.6
    diss = _closed_diss(g, p)
    params = Params(p, 1.0, 1.0)
    out = best_response_dynamics(g, diss, params, tol=1e-10)
    docs, reach = diss.expected_docs, diss.reach

    def reward(i, q):
        a = optimal_attack(q, docs, params.omega).a
        return 1.0 - breach_probabilities(a, q, reach)[i] - 0.5 * params.alpha * q[i] ** 2

    for i in range(5):
        base = reward(i, out.q)
        for trial in np.linspace(0.0, 1.0, 100):
            q = out.q.copy()
            q[i] = trial
            assert reward(i, q) <= base + 1e-7
    gap, _ = game._nash_gap(out.q, docs, reach, params.alpha, params.omega)
    assert -1e-12 <= gap <= 1e-10


# Exact best-response dynamics cycles on both (periods of 12 and 8 sweeps).
SIX_NODE = "0 1\n1 2\n2 3\n3 4\n1 4\n0 5\n"
FIVE_NODE = "0 1\n1 2\n1 3\n1 4\n2 3\n2 4\n"


def _grid_rewards(i, q, docs, reach, alpha, omega, grid):
    """Oracle: agent i's reward at each q_i in grid, the attack from a
    row-wise water-filling scan independent of the solver's kernel."""
    qs = np.tile(q, (grid.size, 1))
    qs[:, i] = grid
    v = (1.0 - qs) * docs
    vs = -np.sort(-v, axis=1)
    lams = (omega - vs.cumsum(axis=1)) / np.arange(1, q.size + 1)
    k = (vs + lams > 0.0).sum(axis=1)
    lam = lams[np.arange(grid.size), k - 1]
    a = np.maximum(v + lam[:, None], 0.0) / omega
    return 1.0 - (a * (1.0 - qs)) @ reach[i] - 0.5 * alpha * grid**2


def test_best_response_matches_grid_oracle():
    # The reward is not concave in q_i: at an upward kink a local method
    # can stop short of the global best response.
    g = load_edge_list(SIX_NODE)
    rng = np.random.default_rng(11)
    grid = np.linspace(0.0, 1.0, 1001)
    for p in (0.3, 0.6, 0.825, 0.9):
        diss = reach_exact(g, p)
        docs, reach = diss.expected_docs, diss.reach
        for alpha, omega in ((1.0, 1.0), (1.5, 2.0)):
            for _ in range(40):
                q = rng.random(6)
                i = int(rng.integers(6))
                x = game._best_response(i, q, docs, reach, alpha, omega)
                assert 0.0 <= x <= 1.0
                best = _grid_rewards(i, q, docs, reach, alpha, omega, grid).max()
                at_x = _grid_rewards(i, q, docs, reach, alpha, omega, np.array([x]))[0]
                assert at_x >= best - 1e-12, (p, alpha, omega, i, q)


def test_brd_refuses_non_equilibrium(capsys, tmp_path):
    # Rewards are not concave in q_i, so BRD can settle or cycle where some
    # agent still gains by deviating alone; that is exit 3, not an answer.
    g = load_edge_list(FIVE_NODE)
    p = 0.6413
    with pytest.raises(NonConvergenceError, match="gains"):
        best_response_dynamics(g, reach_exact(g, p), Params(p, 1.0, 1.0))
    edges = tmp_path / "graph.txt"
    edges.write_text(FIVE_NODE, encoding="utf-8")
    code = cli.main([
        "equilibrium", "--edges", str(edges), "--p", str(p), "--regime", "nash-strategic",
    ])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "gains" in captured.err


@pytest.mark.parametrize("p", [0.825, 0.85])
def test_brd_stops_on_repeated_profile(p):
    g = load_edge_list(SIX_NODE)
    with pytest.raises(NonConvergenceError, match="repeats the profile") as err:
        best_response_dynamics(g, reach_exact(g, p), Params(p, 1.0, 1.0))
    assert err.value.iterations < 500
    assert err.value.residual > 1e-8  # the Nash gap at the last profile
    assert err.value.last_q.shape == (6,)


def test_brd_kernel_budget(monkeypatch):
    # Best responses are closed-form region walks; only the Nash-gap
    # certificate evaluates rewards through the water-fill kernel.
    calls = []

    def counting_fill(v, omega):
        calls.append(1)
        return _water_fill(v, omega)

    monkeypatch.setattr(game, "_water_fill", counting_fill)
    g = star_graph(20)
    best_response_dynamics(g, _closed_diss(g, 0.9), Params(0.9, 1.0, 1.0))
    assert len(calls) <= 2 * g.n


def test_brd_star_curve_shape():
    # Equilibrium investments over p: a single interior peak, and exactly
    # 1/(alpha n) at p=1 where the star becomes informationally uniform.
    g = star_graph(5)
    grid = np.linspace(0.0, 1.0, 21)
    center = []
    for p in grid:
        out = best_response_dynamics(g, _closed_diss(g, p), Params(p, 1.0, 1.0))
        center.append(out.q[0])
    assert abs(center[-1] - 0.2) < 1e-6
    diffs = [d for d in np.diff(center) if abs(d) > 1e-8]
    flips = sum(1 for a, b in zip(diffs, diffs[1:]) if (a > 0) != (b > 0))
    assert flips == 1
    assert max(center) > center[0] and max(center) > center[-1]


def test_brd_nonconvergence_error_payload():
    g = ring_graph(5)
    diss = _closed_diss(g, 0.5)
    with pytest.raises(NonConvergenceError) as err:
        best_response_dynamics(g, diss, Params(0.5, 1.0, 1.0), max_iter=1, tol=1e-14)
    assert err.value.last_q is not None
    assert err.value.residual > 0


@pytest.mark.parametrize("q0", [
    [0.5, 0.5, np.nan, 0.5],
    [0.5, 0.5, 1.5, 0.5],
    [0.5, -0.1, 0.5, 0.5],
    [0.5, 0.5, 0.5],
])
def test_brd_rejects_bad_start(q0):
    g = ring_graph(4)
    with pytest.raises(ValueError, match="investments"):
        best_response_dynamics(g, _closed_diss(g, 0.5), Params(0.5, 1.0, 1.0), q0=q0)


def test_brd_welfare_equals_reward_sum():
    g = ring_graph(5)
    out = best_response_dynamics(g, _closed_diss(g, 0.3), Params(0.3, 1.0, 1.0))
    assert abs(out.welfare - out.rewards.sum()) <= 1e-9


# ---------------------------------------------------------------------------
# Numeric social optimum
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("build", [complete_graph, ring_graph])
def test_social_optimum_numeric_matches_closed_form(build):
    g = build(5)
    for p in (0.2, 0.5, 0.8):
        diss = _closed_diss(g, p)
        out = social_optimum_numeric(g, diss, Params(p, 1.0, 1.0))
        expected = social_optimum_strategic_vt(diss.expected_docs, alpha=1.0)
        assert np.abs(out.q - expected).max() < 1e-5
        expected_welfare = 5 - (1 - expected[0]) * diss.expected_docs[0] - 2.5 * expected[0] ** 2
        assert abs(out.welfare - expected_welfare) < 1e-8


def test_social_optimum_numeric_p_zero_uniform():
    g = star_graph(5)
    out = social_optimum_numeric(g, _closed_diss(g, 0.0), Params(0.0, 1.0, 1.0))
    assert np.abs(out.q - 0.2).max() < 1e-6


def test_social_optimum_numeric_star_near_uniform_attack():
    g = star_graph(5)
    out = social_optimum_numeric(g, _closed_diss(g, 0.5), Params(0.5, 1.0, 1.0))
    assert np.abs(out.attack_vector - 0.2).max() < 0.02
    lamb = star_sacrificial_lamb(5, 0.5, 1.0, 1.0)
    assert out.welfare > lamb.welfare_bound
    uniform = star_uniform_attack_strategy(5, 0.5, 1.0)
    assert out.welfare >= uniform.welfare - 1e-9


def test_social_optimum_numeric_regime_tag():
    g = ring_graph(4)
    out = social_optimum_numeric(g, _closed_diss(g, 0.5), Params(0.5, 1.0, 1.0))
    assert out.regime == "opt-strategic"
    assert out.attack is not None


@pytest.mark.parametrize("g, p, diss_of", [
    (star_graph(5), 0.5, reach_closed_form),
    (ring_graph(5), 0.3, reach_closed_form),
    (load_edge_list("0 1\n1 2\n2 3\n0 2\n"), 0.6, reach_exact),
])
def test_social_optimum_solves_each_point_once(monkeypatch, g, p, diss_of):
    # The line search's accepted trial carries its welfare, gradient and
    # attack into the next iteration, so no point is solved twice in a row.
    solved = _record_fills(monkeypatch)
    social_optimum_numeric(g, diss_of(g, p), Params(p, 1.0, 1.0))
    repeats = sum(a == b for a, b in zip(solved, solved[1:]))
    assert len(solved) > 8
    assert repeats == 0


def _record_fills(monkeypatch):
    """Record the values v of every kernel call the game module makes."""
    solved = []

    def recording_fill(v, omega):
        solved.append(np.asarray(v, dtype=float).tobytes())
        return _water_fill(v, omega)

    monkeypatch.setattr(game, "_water_fill", recording_fill)
    return solved


def test_newton_direction_solves_the_region_hessian():
    # Within an active-set region the welfare gradient is linear, so central
    # differences of it give the region's Hessian up to rounding.
    rng = np.random.default_rng(5)
    partly_attacked = 0
    for _ in range(40):
        n = int(rng.integers(2, 8))
        docs = 1.0 + rng.random(n) * (n - 1)
        q = rng.random(n)
        alpha, omega = 1.0 + rng.random(), 1.0 + 3.0 * rng.random()
        free = rng.random(n) < 0.7
        _, grad, active = game._welfare_and_gradient(q, docs, alpha, omega)
        partly_attacked += active.size < n
        h = 1e-6
        hessian = np.column_stack([
            (game._welfare_and_gradient(q + h * e, docs, alpha, omega)[1]
             - game._welfare_and_gradient(q - h * e, docs, alpha, omega)[1]) / (2 * h)
            for e in np.eye(n)
        ])
        expected = np.zeros(n)
        expected[free] = np.linalg.solve(-hessian[np.ix_(free, free)], grad[free])
        direction = game._newton_direction(grad, free, active, docs, alpha, omega)
        np.testing.assert_allclose(direction, expected, rtol=1e-6, atol=1e-9)
    assert partly_attacked >= 5


def test_social_optimum_ring4_p_zero_no_cycling(monkeypatch):
    # At p=0 on a 4-ring, q = [0, .5, .5, 0] sits on a region boundary with
    # a mirror image of equal welfare; an ascent that accepts equal-welfare
    # steps cycles between the two.  The optimum is uniform 1/(alpha n).
    calls = _record_fills(monkeypatch)
    g = ring_graph(4)
    out = social_optimum_numeric(g, _closed_diss(g, 0.0), Params(0.0, 1.0, 1.0))
    assert np.abs(out.q - 0.25).max() <= 1e-12
    assert len(calls) <= 8 * 16


def test_social_optimum_star5_sweep_kernel_budget(monkeypatch):
    # Newton steps converge in a handful of iterations per start; projected
    # gradient ascent needed about 19 400 kernel calls on this grid.
    calls = _record_fills(monkeypatch)
    g = star_graph(5)
    for p in np.linspace(0.0, 1.0, 21):
        social_optimum_numeric(g, _closed_diss(g, p), Params(p, 1.0, 1.0))
    assert len(calls) < 2000


def _grid_welfare(qs, docs, alpha, omega):
    """Welfare at each row of qs, the attack by sort-based simplex projection."""
    v = (1.0 - qs) * docs
    ranked = -np.sort(-v, axis=1)
    levels = (omega - np.cumsum(ranked, axis=1)) / np.arange(1, docs.size + 1)
    k = (ranked + levels > 0.0).sum(axis=1)
    lam = levels[np.arange(len(qs)), k - 1]
    a = np.maximum(v + lam[:, None], 0.0) / omega
    return docs.size - (a * v).sum(axis=1) - 0.5 * alpha * (qs**2).sum(axis=1)


def _box_grid(axes):
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def social_optimum_grid_oracle(docs, alpha, omega):
    """Oracle: best welfare on a 0.02 grid of [0, 1]^n, refined to 0.001
    within a coarse step of the coarse winner."""
    coarse = _box_grid([np.linspace(0.0, 1.0, 51)] * docs.size)
    centre = coarse[np.argmax(_grid_welfare(coarse, docs, alpha, omega))]
    offsets = np.arange(-20, 21) * 0.001
    fine = _box_grid([np.unique(np.clip(c + offsets, 0.0, 1.0)) for c in centre])
    welfare = _grid_welfare(fine, docs, alpha, omega)
    best = int(np.argmax(welfare))
    return fine[best], float(welfare[best])


@pytest.mark.parametrize("g, diss_of", [
    (star_graph(3), reach_closed_form),
    (ring_graph(3), reach_closed_form),
    (load_edge_list("0 1\n1 2\n"), reach_exact),
])
@pytest.mark.parametrize("alpha, omega", [(1.0, 1.0), (2.0, 1.0), (1.0, 3.0)])
def test_social_optimum_matches_grid_oracle(g, diss_of, alpha, omega):
    for p in (0.0, 0.2, 0.5, 0.8, 1.0):
        diss = diss_of(g, p)
        out = social_optimum_numeric(g, diss, Params(p, alpha, omega))
        q_grid, w_grid = social_optimum_grid_oracle(diss.expected_docs, alpha, omega)
        assert out.welfare >= w_grid - 1e-12
        assert out.welfare <= w_grid + 1e-5
        assert np.abs(out.q - q_grid).max() <= 2e-3


# ---------------------------------------------------------------------------
# Crossover
# ---------------------------------------------------------------------------

def test_gap_signs_at_extremes():
    for topology in ("ring", "complete"):
        assert investment_gap(topology, 5, 1e-9, 1.0, 1.0) > 0  # over-investment
        assert investment_gap(topology, 5, 1 - 1e-9, 1.0, 1.0) < 0  # under-investment


def test_crossover_root_is_a_sign_change():
    p_star = find_crossover_p("complete", 5, 1.0, 1.0, tol=1e-12)
    assert investment_gap("complete", 5, p_star - 1e-6, 1.0, 1.0) > 0
    assert investment_gap("complete", 5, p_star + 1e-6, 1.0, 1.0) < 0


def test_crossover_earlier_on_denser_graph():
    p_complete = find_crossover_p("complete", 5, 1.0, 1.0)
    p_ring = find_crossover_p("ring", 5, 1.0, 1.0)
    assert p_complete < p_ring


def test_crossover_details():
    p_star, info = find_crossover_p("ring", 5, 1.0, 1.0, details=True)
    assert len(info["sign_changes"]) == 1
    assert info["sign_changes"][0] == pytest.approx(p_star, abs=1e-8)
    lo, hi = info["condition_interval"]
    assert lo < p_star < hi


def test_crossover_rejects_star():
    with pytest.raises(ValueError):
        find_crossover_p("star", 5, 1.0, 1.0)


def test_unique_crossover_condition_cases():
    assert unique_crossover_condition(3.0, 5, 1.0)  # d >= n/2: rhs <= 0
    assert not unique_crossover_condition(1.0, 5, 1.0)  # 8 >= 12 fails
    # Here the boundary in d solves d^2 - 9 d + 10 = 0.
    boundary = (9 - np.sqrt(41)) / 2
    assert unique_crossover_condition(boundary + 1e-6, 5, 1.0)
    assert not unique_crossover_condition(boundary - 1e-6, 5, 1.0)


def test_condition_interval_on_ring_grid():
    n = 5
    holds = [
        unique_crossover_condition(ring_docs(n, p), n, 1.0)
        for p in np.linspace(0.0, 1.0, 101)
    ]
    # One contiguous block that reaches p = 1.
    assert not holds[0] and holds[-1]
    assert sum(1 for a, b in zip(holds, holds[1:]) if a != b) == 1


# ---------------------------------------------------------------------------
# Star strategies (uniform-attack vs sacrificial lamb)
# ---------------------------------------------------------------------------

def test_star_uniform_large_n_limits():
    n, p, alpha = 200, 0.5, 1.0
    strategy = star_uniform_attack_strategy(n, p, alpha)
    assert abs(strategy.q_leaf - p**2 / alpha) <= 0.02
    assert abs(strategy.q_center - (1 - p + p**3 / alpha)) <= 0.02
    assert not strategy.clamped


def test_star_uniform_welfare_per_node_limit():
    n, p, alpha = 500, 0.5, 1.0
    strategy = star_uniform_attack_strategy(n, p, alpha)
    assert abs(strategy.welfare / n - (1 - p**2 + p**4 / (2 * alpha))) <= 0.01


def test_star_uniform_induces_uniform_attack():
    n, p = 12, 0.45
    strategy = star_uniform_attack_strategy(n, p, 1.0)
    hub, leaf = star_docs(n, p)
    docs = np.full(n, leaf)
    docs[0] = hub
    q = np.full(n, strategy.q_leaf)
    q[0] = strategy.q_center
    sol = optimal_attack(q, docs, 1.0)
    assert np.abs(sol.a - 1 / n).max() < 1e-12


def test_star_lamb_large_n_bound():
    n, p = 500, 0.5
    lamb = star_sacrificial_lamb(n, p, 1.0, 1.0)
    assert lamb.feasible
    assert abs(lamb.welfare_bound / n - (1 - p**2)) <= 0.01


def test_star_uniform_beats_lamb():
    strategy = star_uniform_attack_strategy(50, 0.5, 1.0)
    lamb = star_sacrificial_lamb(50, 0.5, 1.0, 1.0)
    assert strategy.welfare > lamb.welfare_bound


def test_star_lamb_feasibility_threshold():
    # The lamb soaks up the whole attack only while omega <= leaf docs;
    # with omega above 1 that fails for small p.
    lamb = star_sacrificial_lamb(10, 0.05, 1.0, 2.0)
    assert not lamb.feasible
    assert lamb.q_leaf_min > 1.0
    assert star_sacrificial_lamb(10, 0.9, 1.0, 2.0).feasible


def test_star_lamb_attack_lands_on_lamb():
    n, p, omega = 8, 0.6, 1.0
    lamb = star_sacrificial_lamb(n, p, 1.0, omega)
    assert lamb.feasible
    hub, leaf = star_docs(n, p)
    docs = np.full(n, leaf)
    docs[0] = hub
    q = np.full(n, lamb.q_leaf_min)
    q[0] = lamb.q_center_min
    q[-1] = 0.0  # the lamb
    sol = optimal_attack(q, docs, omega)
    assert sol.a[-1] == pytest.approx(1.0, abs=1e-12)
    assert sol.n_star == 1


# ---------------------------------------------------------------------------
# Outcome assembly and Jacobian structure
# ---------------------------------------------------------------------------

def test_evaluate_outcome_reward_identity():
    g = star_graph(5)
    diss = _closed_diss(g, 0.7)
    params = Params(0.7, 1.2, 1.5)
    rng = np.random.default_rng(0)
    for regime in ("nash-random", "opt-random", "nash-strategic", "opt-strategic"):
        q = rng.random(5)
        out = evaluate_outcome(diss, params, q, regime)
        assert abs(out.welfare - out.rewards.sum()) <= 1e-9
        expected = 1 - breach_probabilities(out.attack_vector, q, diss.reach) - 0.6 * q**2
        assert np.abs(out.rewards - expected).max() <= 1e-12


def test_evaluate_outcome_random_regime_uniform_attack():
    g = ring_graph(4)
    out = evaluate_outcome(_closed_diss(g, 0.5), Params(0.5, 1.0, 1.0), np.zeros(4), "nash-random")
    assert np.array_equal(out.attack_vector, np.full(4, 0.25))
    assert out.attack is None


@pytest.mark.parametrize("regime", game.REGIMES)
@pytest.mark.parametrize(
    "q",
    [[0.5], np.full(6, 0.5), [0.5, 0.5, 1.5, 0.5, 0.5], [0.1, -0.2, 0, 0, 0]],
    ids=["one-entry", "six-entries", "above-one", "negative"],
)
def test_evaluate_outcome_rejects_bad_investments(regime, q):
    diss = _closed_diss(ring_graph(5), 0.5)
    with pytest.raises(ValueError, match="investments"):
        evaluate_outcome(diss, Params(0.5, 1.0, 1.0), q, regime)


def test_negated_jacobian_diagonal_dominance():
    # Off-diagonal mass D(n-1)/(omega n) + D(D-1)/(omega n) never exceeds
    # the diagonal 2D(n-1)/(omega n) + alpha at the symmetric equilibrium.
    for build in (ring_graph, complete_graph):
        g = build(5)
        for p in P_GRID:
            diss = _closed_diss(g, p)
            d = diss.expected_docs[0]
            omega = alpha = 1.0
            diag = 2 * d * (g.n - 1) / (omega * g.n) + alpha
            off = sum(
                d / (omega * g.n) * (1 + diss.reach[0, j]) for j in range(1, g.n)
            )
            assert diag >= off - 1e-12

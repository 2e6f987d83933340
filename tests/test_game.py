import numpy as np
import pytest

from netsec import game
from netsec.attack import _water_fill, breach_probabilities, optimal_attack
from netsec.dissemination import (
    Dissemination,
    Params,
    complete_docs,
    complete_pair_bounds,
    reach_closed_form,
    reach_exact,
    reach_monte_carlo,
    ring_docs,
    ring_pair_reach,
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


# Dissemination routes and closed forms that take p, and closed forms that
# take a common document count d in [1, n], here with n = 5.
BY_P = {
    "reach_exact": lambda p: reach_exact(ring_graph(5), p),
    "reach_closed_form": lambda p: reach_closed_form(star_graph(5), p),
    "reach_monte_carlo": lambda p: reach_monte_carlo(ring_graph(5), p, 10),
    "star_docs": lambda p: star_docs(5, p),
    "ring_docs": lambda p: ring_docs(5, p),
    "ring_pair_reach": lambda p: ring_pair_reach(5, p, 2),
    "ring_pair_reach_self": lambda p: ring_pair_reach(5, p, 0),
    "investment_gap": lambda p: investment_gap("ring", 5, p, 1.0, 1.0),
    "star_sacrificial_lamb": lambda p: star_sacrificial_lamb(5, p, 1.0, 1.0),
    "star_uniform_attack_strategy": lambda p: star_uniform_attack_strategy(5, p, 1.0),
}
BY_DOCS = {
    "nash_strategic_vt": lambda d: nash_strategic_vt(d, 5),
    "nash_strategic_vt_vector": lambda d: nash_strategic_vt(np.full(5, d)),
    "social_optimum_strategic_vt": lambda d: social_optimum_strategic_vt(d, 5),
    "unique_crossover_condition": lambda d: unique_crossover_condition(d, 5, 1.0),
}


@pytest.mark.parametrize("call, value, message", [
    *[(name, p, "transmission probability") for name in BY_P for p in (-0.1, 1.5, np.nan)],
    *[(name, d, "expected documents") for name in BY_DOCS for d in (0.5, 6.0, np.nan)],
])
def test_closed_forms_reject_out_of_range_inputs(call, value, message):
    # Out of range, the formulas return numbers that mean nothing: a
    # negative centre investment, or docs of -731 on a ring at p = 3.
    with pytest.raises(ValueError, match=message):
        {**BY_P, **BY_DOCS}[call](value)


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
    params = Params()
    out = best_response_dynamics(diss, params, q0=np.full(5, 0.5))
    expected = nash_strategic_vt(diss.expected_docs, 5, 1.0, 1.0)
    assert np.abs(out.q - expected).max() < 1e-6
    assert out.regime == "nash-strategic"


def test_brd_start_independence_on_vt():
    g = ring_graph(5)
    diss = _closed_diss(g, 0.4)
    params = Params()
    out_low = best_response_dynamics(diss, params, q0=np.full(5, 0.05))
    out_high = best_response_dynamics(diss, params, q0=np.full(5, 0.95))
    assert np.abs(out_low.q - out_high.q).max() < 1e-6


def test_brd_no_profitable_unilateral_deviation():
    g = star_graph(5)
    p = 0.6
    diss = _closed_diss(g, p)
    params = Params()
    out = best_response_dynamics(diss, params, tol=1e-10)
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
    assert -1e-12 <= _nash_gap(out.q, diss) <= 1e-10


def _best_response(i, q, docs, reach, alpha, omega):
    """Agent i's best response at one point, as a one-row stack."""
    walk = game._walk_constants(1, q.size)
    return game._best_response(i, q[None], docs[None], reach[None, i], alpha, omega, walk)[0]


def _nash_gap(q, diss):
    """The Nash gap at one point with alpha = omega = 1, as a one-row stack."""
    gains, _ = game._nash_gap(q[None], diss.expected_docs[None], diss.reach[None], 1.0, 1.0)
    return gains[0]


# Plain cyclic best-response sweeps cycle on both (periods of 12 and 8
# sweeps).  Accelerated sweeps still cycle on SIX_NODE at p = 0.825 and
# 0.85, and certify an equilibrium on FIVE_NODE at p = 0.6413.
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
                x = _best_response(i, q, docs, reach, alpha, omega)
                assert 0.0 <= x <= 1.0
                best = _grid_rewards(i, q, docs, reach, alpha, omega, grid).max()
                at_x = _grid_rewards(i, q, docs, reach, alpha, omega, np.array([x]))[0]
                assert at_x >= best - 1e-12, (p, alpha, omega, i, q)


def test_brd_refuses_non_equilibrium():
    # Rewards are not concave in q_i, so BRD can settle or cycle where some
    # agent still gains by deviating alone; that is exit 3, not an answer
    # (test_cli.py::test_strategic_non_equilibria_exit_3).  On this graph
    # the accelerated sweeps certify a profile, so it must be one: no agent
    # gains by moving alone to any point of a fine grid.
    g = load_edge_list(FIVE_NODE)
    p = 0.6413
    diss = reach_exact(g, p)
    out = best_response_dynamics(diss, Params())
    docs, reach = diss.expected_docs, diss.reach
    grid = np.linspace(0.0, 1.0, 100_001)
    for i in range(5):
        best = _grid_rewards(i, out.q, docs, reach, 1.0, 1.0, grid).max()
        at_q = _grid_rewards(i, out.q, docs, reach, 1.0, 1.0, out.q[i : i + 1])[0]
        assert best <= at_q + 1e-9, i


@pytest.mark.parametrize("p", [0.825, 0.85])
def test_brd_stops_on_repeated_profile(p):
    g = load_edge_list(SIX_NODE)
    with pytest.raises(NonConvergenceError, match="repeats the profile") as err:
        best_response_dynamics(reach_exact(g, p), Params())
    assert err.value.iterations < 500
    assert err.value.residual > 1e-8  # the Nash gap at the last profile
    assert err.value.last_q.shape == (6,)


def test_brd_kernel_budget(monkeypatch):
    # Best responses are closed-form region walks; only the Nash-gap
    # certificate evaluates rewards through the water-fill kernel, n + 1
    # stacked calls whatever the number of points.
    calls = _record_fills(monkeypatch)
    g = star_graph(20)
    best_response_dynamics(_closed_diss(g, 0.9), Params())
    assert sum(map(len, calls)) <= 2 * g.n
    calls.clear()
    grid = [0.3, 0.6, 0.9]
    best_response_dynamics([_closed_diss(g, p) for p in grid], Params())
    assert sum(map(len, calls)) <= 2 * g.n * len(grid)
    assert len(calls) == g.n + 1


def test_brd_sweep_budget(monkeypatch):
    # Plain cyclic sweeps need 107 here, each step shrinking by about 0.84;
    # extrapolating over the last sweeps certifies in under 30 (counting
    # the certificate's n best responses).
    calls = []
    real = game._best_response

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(game, "_best_response", counting)
    g = star_graph(20)
    best_response_dynamics(_closed_diss(g, 0.9), Params())
    assert len(calls) <= 30 * g.n
    # A stack of points shares each call, so the budget holds for it too.
    calls.clear()
    ps = (0.5, 0.7, 0.9)
    best_response_dynamics([_closed_diss(g, p) for p in ps], Params())
    assert len(calls) <= 30 * g.n


def _star_oracle(n, p):
    """Leaf-symmetric equilibrium of a star by nested bisection: for each
    centre investment the leaves' common best-response fixed point, then
    the centre's best-response fixed point against it."""
    diss = _closed_diss(star_graph(n), p)
    docs, reach = diss.expected_docs, diss.reach

    def profile(centre, leaf):
        q = np.full(n, leaf)
        q[0] = centre
        return q

    def fixed_point(excess):  # excess >= 0 at 0 and <= 0 at 1
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if excess(mid) > 0.0 else (lo, mid)
        return 0.5 * (lo + hi)

    def leaf_level(centre):
        return fixed_point(
            lambda leaf: _best_response(1, profile(centre, leaf), docs, reach, 1.0, 1.0)
            - leaf
        )

    centre = fixed_point(
        lambda c: _best_response(0, profile(c, leaf_level(c)), docs, reach, 1.0, 1.0) - c
    )
    return profile(centre, leaf_level(centre)), diss


@pytest.mark.parametrize("p", [0.5, 0.9])
@pytest.mark.parametrize("n", [5, 20, 40, 60, 80, 120])
def test_brd_certifies_star_equilibria(n, p):
    # Plain cyclic sweeps took 107, 394 and 935 sweeps on the 20-, 40- and
    # 60-stars at p = 0.9 and stalled on the 120-star.
    oracle, diss = _star_oracle(n, p)
    assert _nash_gap(oracle, diss) <= 1e-8
    out = best_response_dynamics(diss, Params())
    assert np.abs(out.q - oracle).max() <= 1e-7


def test_brd_falls_back_to_plain_sweeps_after_a_cycle():
    # Extrapolated sweeps cycle on this graph at p = 0.7; plain sweeps from
    # the repeated profile certify an equilibrium.
    g = load_edge_list("0 1\n0 6\n1 2\n1 5\n1 6\n2 3\n3 4\n3 5\n4 5\n4 6\n5 6\n")
    diss = reach_exact(g, 0.7)
    out = best_response_dynamics(diss, Params())
    assert _nash_gap(out.q, diss) <= 1e-8


def test_brd_reports_exhausted_sweeps():
    g = star_graph(20)
    with pytest.raises(NonConvergenceError, match="no convergence in 3 sweeps") as err:
        best_response_dynamics(_closed_diss(g, 0.9), Params(), max_iter=3)
    assert err.value.iterations == 3


@pytest.mark.parametrize("tol", [0.0, float("nan")])
@pytest.mark.parametrize("solver", [best_response_dynamics, social_optimum_numeric])
def test_iterative_solvers_reject_non_positive_tol(solver, tol):
    g = ring_graph(5)
    with pytest.raises(ValueError, match="tol must be positive"):
        solver(_closed_diss(g, 0.5), Params(), tol=tol)


def test_brd_star_curve_shape():
    # Equilibrium investments over p: a single interior peak, and exactly
    # 1/(alpha n) at p=1 where the star becomes informationally uniform.
    g = star_graph(5)
    grid = np.linspace(0.0, 1.0, 21)
    center = []
    for p in grid:
        out = best_response_dynamics(_closed_diss(g, p), Params())
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
        best_response_dynamics(diss, Params(), max_iter=1, tol=1e-14)
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
        best_response_dynamics(_closed_diss(g, 0.5), Params(), q0=q0)


def test_brd_welfare_equals_reward_sum():
    g = ring_graph(5)
    out = best_response_dynamics(_closed_diss(g, 0.3), Params())
    assert abs(out.welfare - out.rewards.sum()) <= 1e-9


# ---------------------------------------------------------------------------
# Stacked best-response dynamics
# ---------------------------------------------------------------------------

def _random_connected_graph(rng, n):
    """A random spanning tree on n agents plus up to n - 1 random chords."""
    edges = {(int(rng.integers(v)), v) for v in range(1, n)}
    for _ in range(int(rng.integers(n))):
        edges.add(tuple(sorted(rng.choice(n, 2, replace=False).tolist())))
    return load_edge_list("".join(f"{u} {v}\n" for u, v in sorted(edges)))


def _solve_each(disses, **options):
    """Per-point results up to the first failing point: q bytes, or the
    error's (message, residual, iterations, last_q bytes)."""
    results = []
    for diss in disses:
        try:
            out = best_response_dynamics(diss, Params(), **options)
        except NonConvergenceError as exc:
            assert exc.index is None
            return results + [(str(exc), exc.residual, exc.iterations, exc.last_q.tobytes())]
        results.append(out.q.tobytes())
    return results


def _solve_stacked(disses, **options):
    """A stacked solve: every point's q bytes, or (index, error as above)."""
    try:
        outs = best_response_dynamics(disses, Params(), **options)
    except NonConvergenceError as exc:
        return exc.index, (str(exc), exc.residual, exc.iterations, exc.last_q.tobytes())
    assert all(out.regime == "nash-strategic" for out in outs)
    return [out.q.tobytes() for out in outs]


def _assert_stack_matches(disses, **options):
    """Compare a stacked solve with per-point calls; whether a point failed."""
    each = _solve_each(disses, **options)
    stacked = _solve_stacked(disses, **options)
    if isinstance(each[-1], tuple):
        assert stacked == (len(each) - 1, each[-1])
        return True
    assert stacked == each
    return False


def test_stacked_brd_matches_per_point_calls_on_random_graphs():
    # Fewer sweeps than the default keep the failing points cheap; both
    # sides of each comparison use the same budget.
    rng = np.random.default_rng(13)
    failing = 0
    for _ in range(30):
        g = _random_connected_graph(rng, int(rng.integers(3, 8)))
        ps = np.sort(rng.uniform(0.05, 0.95, 5))
        disses = [reach_exact(g, p) for p in ps]
        failing += _assert_stack_matches(disses, max_iter=100)
    assert 0 < failing < 30  # both outcomes are covered


@pytest.mark.parametrize("n", [5, 20])
def test_stacked_brd_matches_per_point_calls_on_stars(n):
    g = star_graph(n)
    grid = np.linspace(0.0, 1.0, 21)
    assert not _assert_stack_matches([_closed_diss(g, p) for p in grid])


def test_stacked_brd_reports_the_lowest_failing_point():
    # SIX_NODE certifies at 0.3, 0.5 and 0.6 and cycles at 0.825 and 0.85.
    g = load_edge_list(SIX_NODE)
    ps = [0.3, 0.6, 0.85, 0.5, 0.825]
    disses = [reach_exact(g, p) for p in ps]
    each = [_solve_each([diss])[0] for diss in disses]
    assert [isinstance(result, tuple) for result in each] == [False, False, True, False, True]
    assert _solve_stacked(disses) == (2, each[2])
    order = [0, 4, 3]  # 0.825 now fails between certifying points
    assert _solve_stacked([disses[k] for k in order]) == (1, each[4])


def test_stacked_brd_row_ignores_its_stack():
    g = star_graph(5)
    grid = np.linspace(0.0, 1.0, 9)
    disses = [_closed_diss(g, p) for p in grid]
    alone = [_solve_stacked([diss])[0] for diss in disses]
    assert _solve_stacked(disses[::-1]) == alone[::-1]
    assert _solve_stacked(disses[1::3]) == alone[1::3]


def test_stacked_brd_checks_its_sequences():
    diss = _closed_diss(star_graph(4), 0.5)
    with pytest.raises(ValueError, match="at least one"):
        best_response_dynamics([], Params())
    with pytest.raises(ValueError, match="disagree"):
        best_response_dynamics([diss, _closed_diss(star_graph(5), 0.5)], Params())


# ---------------------------------------------------------------------------
# Numeric social optimum
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("build", [complete_graph, ring_graph])
def test_social_optimum_numeric_matches_closed_form(build):
    g = build(5)
    for p in (0.2, 0.5, 0.8):
        diss = _closed_diss(g, p)
        out = social_optimum_numeric(diss, Params())
        expected = social_optimum_strategic_vt(diss.expected_docs, alpha=1.0)
        assert np.abs(out.q - expected).max() < 1e-5
        expected_welfare = 5 - (1 - expected[0]) * diss.expected_docs[0] - 2.5 * expected[0] ** 2
        assert abs(out.welfare - expected_welfare) < 1e-8


def test_social_optimum_numeric_p_zero_uniform():
    g = star_graph(5)
    out = social_optimum_numeric(_closed_diss(g, 0.0), Params())
    assert np.abs(out.q - 0.2).max() < 1e-6


def test_social_optimum_numeric_star_near_uniform_attack():
    g = star_graph(5)
    out = social_optimum_numeric(_closed_diss(g, 0.5), Params())
    assert np.abs(out.attack_vector - 0.2).max() < 0.02
    lamb = star_sacrificial_lamb(5, 0.5, 1.0, 1.0)
    assert out.welfare > lamb.welfare_bound
    uniform = star_uniform_attack_strategy(5, 0.5, 1.0)
    assert out.welfare >= uniform.welfare - 1e-9


def test_social_optimum_numeric_regime_tag():
    g = ring_graph(4)
    out = social_optimum_numeric(_closed_diss(g, 0.5), Params())
    assert out.regime == "opt-strategic"
    assert out.attack is not None


@pytest.mark.parametrize("g, p, diss_of", [
    (star_graph(5), 0.5, reach_closed_form),
    (ring_graph(5), 0.3, reach_closed_form),
    (load_edge_list("0 1\n1 2\n2 3\n0 2\n"), 0.6, reach_exact),
])
def test_social_optimum_solves_each_point_once(monkeypatch, g, p, diss_of):
    # The line search's accepted trial carries its welfare, gradient and
    # attack into the next iteration, so no row of an evaluation repeats a
    # row of the one before, except a stationary point that one start
    # ends on and another start reaches bit for bit next.
    real = game._welfare_and_gradient
    solved = []

    def recording(q, docs, alpha, omega):
        solved.append({row.tobytes() for row in q})
        return real(q, docs, alpha, omega)

    monkeypatch.setattr(game, "_welfare_and_gradient", recording)
    diss = diss_of(g, p)
    social_optimum_numeric(diss, Params())
    assert sum(map(len, solved)) > 8
    docs = diss.expected_docs
    ref_step = 1.0 / (1.0 + 2.0 * docs.max() ** 2)
    for a, b in zip(solved, solved[1:]):
        for row in a & b:
            q = np.frombuffer(row)
            grad = real(q[None], docs[None], 1.0, 1.0)[1][0]
            assert np.abs(np.clip(q + ref_step * grad, 0.0, 1.0) - q).max() <= 1e-8 * ref_step


def _record_fills(monkeypatch):
    """Record, for every kernel call the game module makes, the bytes of
    each row of its values v."""
    solved = []

    def recording_fill(v, omega):
        solved.append([row.tobytes() for row in np.asarray(v, dtype=float)])
        return _water_fill(v, omega)

    monkeypatch.setattr(game, "_water_fill", recording_fill)
    return solved


def test_newton_direction_solves_the_region_hessian():
    # Within an active-set region the welfare gradient is linear, so central
    # differences of it give the region's Hessian up to rounding.  Each
    # point is a one-row stack.
    rng = np.random.default_rng(5)
    partly_attacked = 0

    def gradient(q, docs, alpha, omega):
        return game._welfare_and_gradient(q[None], docs[None], alpha, omega)[1][0]

    for _ in range(40):
        n = int(rng.integers(2, 8))
        docs = 1.0 + rng.random(n) * (n - 1)
        q = rng.random(n)
        alpha, omega = 1.0 + rng.random(), 1.0 + 3.0 * rng.random()
        free = rng.random(n) < 0.7
        _, grad, active = game._welfare_and_gradient(q[None], docs[None], alpha, omega)
        partly_attacked += active.sum() < n
        h = 1e-6
        hessian = np.column_stack([
            (gradient(q + h * e, docs, alpha, omega) - gradient(q - h * e, docs, alpha, omega))
            / (2 * h)
            for e in np.eye(n)
        ])
        expected = np.zeros(n)
        expected[free] = np.linalg.solve(-hessian[np.ix_(free, free)], grad[0][free])
        direction = game._newton_direction(grad, free[None], active, docs[None], alpha, omega)
        np.testing.assert_allclose(direction[0], expected, rtol=1e-6, atol=1e-9)
    assert partly_attacked >= 5


def test_newton_direction_rows_ignore_their_stack():
    # A stack of rows gets each row's one-row direction, bit for bit.
    rng = np.random.default_rng(6)
    for n in (1, 3, 8):
        docs = 1.0 + rng.random((7, n)) * (n - 1)
        q = rng.random((7, n))
        _, grad, active = game._welfare_and_gradient(q, docs, 1.5, 2.0)
        free = rng.random((7, n)) < 0.7
        stacked = game._newton_direction(grad, free, active, docs, 1.5, 2.0)
        for b in range(7):
            value, grad_b, active_b = game._welfare_and_gradient(q[b : b + 1], docs[b : b + 1], 1.5, 2.0)
            assert np.array_equal(grad_b[0], grad[b]) and np.array_equal(active_b[0], active[b])
            alone = game._newton_direction(grad_b, free[b : b + 1], active_b, docs[b : b + 1], 1.5, 2.0)
            assert np.array_equal(alone[0], stacked[b])


def test_row_dot_matches_one_dimensional_dot():
    # Stacked welfare and directions keep each row's bytes only if every
    # row's dot product is the one a 1-D `x @ y` gives.
    rng = np.random.default_rng(8)
    for n in (1, 3, 7, 20, 130):
        x, y = rng.random((6, n)) - 0.5, rng.random((6, n)) * 3.0
        dots = game._row_dot(x, y)
        assert [float(d) for d in dots] == [float(x[b] @ y[b]) for b in range(6)]


def test_social_optimum_ring4_p_zero_no_cycling(monkeypatch):
    # At p=0 on a 4-ring, q = [0, .5, .5, 0] sits on a region boundary with
    # a mirror image of equal welfare; an ascent that accepts equal-welfare
    # steps cycles between the two.  The optimum is uniform 1/(alpha n).
    calls = _record_fills(monkeypatch)
    g = ring_graph(4)
    out = social_optimum_numeric(_closed_diss(g, 0.0), Params())
    assert np.abs(out.q - 0.25).max() <= 1e-12
    assert sum(map(len, calls)) <= 8 * 16


def test_social_optimum_star5_sweep_kernel_budget(monkeypatch):
    # Newton steps converge in a handful of iterations per start; projected
    # gradient ascent needed about 19 400 kernel rows on this grid.  The
    # stacked sweep evaluates the same rows in few calls.
    calls = _record_fills(monkeypatch)
    g = star_graph(5)
    grid = np.linspace(0.0, 1.0, 21)
    for p in grid:
        social_optimum_numeric(_closed_diss(g, p), Params())
    rows = sum(map(len, calls))
    assert rows < 2000
    calls.clear()
    social_optimum_numeric([_closed_diss(g, p) for p in grid], Params())
    assert sum(map(len, calls)) == rows
    assert len(calls) <= 60


def _sequential_optimum(diss, alpha, omega, tol=1e-8, max_iter=20_000):
    """Oracle: the projected Newton ascent one start and one trial step at
    a time, through one-row calls of the solver's kernels; the best q."""
    docs = diss.expected_docs[None]
    n = docs.shape[1]
    ref_step = 1.0 / (alpha + 2.0 * float(docs.max()) ** 2 / omega)
    rng = np.random.default_rng(0)
    starts = [np.full(n, c) for c in (0.1, 0.5, 0.9)] + [rng.random(n) for _ in range(5)]
    best_q, best_welfare = None, -np.inf
    for q0 in starts:
        q = q0[None]
        value, grad, active = game._welfare_and_gradient(q, docs, alpha, omega)
        for _ in range(max_iter):
            if np.abs(np.clip(q + ref_step * grad, 0.0, 1.0) - q).max() <= tol * ref_step:
                if value[0] > best_welfare:
                    best_q, best_welfare = q[0], value[0]
                break
            blocked = ((q <= 0.0) & (grad < 0.0)) | ((q >= 1.0) & (grad > 0.0))
            direction = game._newton_direction(grad, ~blocked, active, docs, alpha, omega)
            step = 1.0
            while step > 1e-16:
                trial = np.clip(q + step * direction, 0.0, 1.0)
                evaluated = game._welfare_and_gradient(trial, docs, alpha, omega)
                if evaluated[0][0] >= value[0] + 1e-4 * float(grad[0] @ (trial - q)[0]):
                    break
                step *= 0.5
            else:
                break
            q, (value, grad, active) = trial, evaluated
    return best_q


@pytest.mark.parametrize("g, p, diss_of, alpha, omega", [
    (star_graph(20), 0.9, reach_closed_form, 1.0, 1.0),  # line searches of up to 8 steps
    (star_graph(5), 0.45, reach_closed_form, 1.0, 1.0),
    (star_graph(6), 0.7, reach_closed_form, 1.5, 2.0),
    (load_edge_list(SIX_NODE), 0.6, reach_exact, 1.0, 1.0),
    (load_edge_list(FIVE_NODE), 0.3, reach_exact, 2.0, 3.0),
])
def test_stacked_line_search_matches_one_step_at_a_time(g, p, diss_of, alpha, omega):
    # Rows try several halvings of their step in one round and take the
    # first that passes, which is the step a one-at-a-time search accepts.
    diss = diss_of(g, p)
    out = social_optimum_numeric(diss, Params(alpha, omega))
    assert out.q.tobytes() == _sequential_optimum(diss, alpha, omega).tobytes()


def _solve_optima(disses, alpha=1.0, omega=1.0, **options):
    """Per-point or stacked optima: each point's (q, welfare, rewards,
    attack) bytes, or (index, message, iterations) of the error raised."""
    single = isinstance(disses, Dissemination)
    try:
        outs = social_optimum_numeric(disses, Params(alpha, omega), **options)
    except NonConvergenceError as exc:
        return exc.index, str(exc), exc.iterations
    outs = [outs] if single else outs
    assert all(out.regime == "opt-strategic" for out in outs)
    return [
        (out.q.tobytes(), out.welfare, out.rewards.tobytes(), out.attack.a.tobytes())
        for out in outs
    ]


def _assert_optima_stack_matches(disses, **options):
    each = [_solve_optima(diss, **options) for diss in disses]
    stacked = _solve_optima(disses, **options)
    assert stacked == [result[0] for result in each]


@pytest.mark.parametrize("n", [5, 20])
def test_stacked_optimum_matches_per_point_calls_on_stars(n):
    g = star_graph(n)
    grid = np.linspace(0.0, 1.0, 21)
    _assert_optima_stack_matches([_closed_diss(g, p) for p in grid])


def test_stacked_optimum_matches_per_point_calls_on_random_graphs():
    rng = np.random.default_rng(17)
    for k in range(30):
        g = _random_connected_graph(rng, int(rng.integers(3, 8)))
        ps = np.sort(rng.uniform(0.05, 0.95, 5))
        costs = ({"alpha": 1.5}, {"omega": 2.0}, {"alpha": 2.0, "omega": 3.0})[k % 3]
        _assert_optima_stack_matches([reach_exact(g, p) for p in ps], **costs)


# At max_iter=2 with alpha = 1.5 and omega = 2 no start converges at
# p = 0.2 or 0.3 on this graph; at 0.1, 0.5 and 0.9 some start does.
SEVEN_NODE = "0 1\n0 4\n0 5\n1 2\n1 3\n1 4\n2 3\n3 4\n3 6\n4 6\n"


def test_stacked_optimum_reports_the_lowest_failing_point():
    g = load_edge_list(SEVEN_NODE)
    ps = [0.1, 0.3, 0.5, 0.2, 0.9]
    disses = [reach_exact(g, p) for p in ps]
    options = {"alpha": 1.5, "omega": 2.0, "max_iter": 2}
    each = [_solve_optima(diss, **options) for diss in disses]
    assert [isinstance(result, tuple) for result in each] == [False, True, False, True, False]
    assert each[1] == (None, "no projected-gradient start converged within 2 iterations "
                       "(8 starts attempted)", 2)
    assert _solve_optima(disses, **options) == (1,) + each[1][1:]
    assert _solve_optima(disses[2:], **options) == (1,) + each[3][1:]
    assert isinstance(_solve_optima(disses[::2], **options), list)


def test_stacked_optimum_checks_its_sequences():
    diss = _closed_diss(star_graph(4), 0.5)
    with pytest.raises(ValueError, match="at least one"):
        social_optimum_numeric([], Params())
    with pytest.raises(ValueError, match="disagree"):
        social_optimum_numeric([diss, _closed_diss(star_graph(5), 0.5)], Params())


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
        out = social_optimum_numeric(diss, Params(alpha, omega))
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
    lo, hi = info["condition_interval"]
    assert lo < p_star < hi


def test_crossover_is_the_only_sign_change():
    # The gap has the sign of a cubic in D(p) with one root in (1, n), so a
    # grid sees one sign change and the bisection lands in its bracket.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    graphs = st.one_of(
        st.tuples(st.just("ring"), st.integers(3, 40)),
        st.tuples(st.just("complete"), st.integers(2, 40)),
    )

    @hypothesis.settings(max_examples=50, deadline=None)
    @hypothesis.given(graphs, st.floats(1.0, 10.0), st.floats(1.0, 100.0))
    def check(graph, alpha, omega):
        topology, n = graph
        grid = np.linspace(1e-9, 1.0 - 1e-9, 201)
        gaps = np.array([investment_gap(topology, n, p, alpha, omega) for p in grid])
        assert gaps[0] > 0.0 > gaps[-1]
        (k,) = np.nonzero(np.diff(np.sign(gaps)))[0]
        assert grid[k] <= find_crossover_p(topology, n, alpha, omega) <= grid[k + 1]

    check()


@pytest.mark.parametrize("topology, docs", [("ring", ring_docs), ("complete", complete_docs)])
@pytest.mark.parametrize("n", [3, 4, 5, 10, 30])
@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_condition_interval_is_exact(topology, docs, n, alpha):
    _, info = find_crossover_p(topology, n, alpha, 1.0, details=True)
    lo, hi = info["condition_interval"]
    assert hi == 1.0
    if lo > 0.0:
        assert not unique_crossover_condition(docs(n, lo - 1e-6), n, alpha)
    for p in np.linspace(lo + 1e-6, 1.0, 101):
        assert unique_crossover_condition(docs(n, p), n, alpha)


@pytest.mark.parametrize("tol", [0.0, float("nan")])
def test_crossover_rejects_non_positive_tol(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        find_crossover_p("ring", 5, 1.0, 1.0, tol=tol)


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
    params = Params(1.2, 1.5)
    rng = np.random.default_rng(0)
    for regime in ("nash-random", "opt-random", "nash-strategic", "opt-strategic"):
        q = rng.random(5)
        out = evaluate_outcome(diss, params, q, regime)
        assert abs(out.welfare - out.rewards.sum()) <= 1e-9
        expected = 1 - breach_probabilities(out.attack_vector, q, diss.reach) - 0.6 * q**2
        assert np.abs(out.rewards - expected).max() <= 1e-12


def test_evaluate_outcome_random_regime_uniform_attack():
    g = ring_graph(4)
    out = evaluate_outcome(_closed_diss(g, 0.5), Params(), np.zeros(4), "nash-random")
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
        evaluate_outcome(diss, Params(), q, regime)


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

import hashlib

import numpy as np
import pytest

from netsec import game
from netsec.attack import _water_fill, optimal_attack
from netsec.dissemination import (
    Dissemination,
    Params,
    complete_docs,
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
    nash_random,
    nash_strategic_vt,
    social_optimum_numeric,
    social_optimum_random,
)
from netsec.graph import complete_graph, load_edge_list, ring_graph, star_graph
from oracles import (
    breach_probabilities,
    complete_pair_bounds,
    crossover_cubic,
    investment_gap,
    star_sacrificial_lamb,
    star_uniform_attack_strategy,
)

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


@pytest.mark.parametrize("docs", [
    [np.nan, 2.0],
    [np.inf, 2.0],
    [0.5, 2.0],
    [1.0, 2.5],
    np.nan,
])
def test_social_optimum_random_rejects_documents_outside_one_to_n(docs):
    # NaN passes a plain two-sided comparison, and would come back as a NaN investment.
    with pytest.raises(ValueError, match="expected documents must be finite numbers in"):
        social_optimum_random(docs, 1.0)


def test_social_optimum_random_stack_matches_row_by_row_calls():
    # A (B, n) stack divides by alpha n, n the agent count, not alpha B n.
    rng = np.random.default_rng(7)
    docs = rng.uniform(1.0, 6.0, (4, 6))
    stack = social_optimum_random(docs, 1.3)
    assert stack.tobytes() == np.array([social_optimum_random(row, 1.3) for row in docs]).tobytes()


def test_social_optimum_random_stack_refuses_a_row_above_n():
    # 7 documents exceed a row of 6 agents, though not the stack's 4 * 6 entries.
    docs = np.full((4, 6), 2.0)
    docs[2, 3] = 7.0
    with pytest.raises(ValueError, match=r"expected documents must be finite numbers in \[1, 6\]"):
        social_optimum_random(docs, 1.0)


# Dissemination routes and closed forms that take p, and the closed form
# that takes a common document count d in [1, n], here with n = 5.  The last
# four of BY_P are test oracles, which must meet the library's p check through
# ring_docs and star_docs rather than compute on a p outside [0, 1].
BY_P = {
    "reach_exact": lambda p: reach_exact(ring_graph(5), p),
    "reach_closed_form": lambda p: reach_closed_form(star_graph(5), p),
    "reach_monte_carlo": lambda p: reach_monte_carlo(ring_graph(5), p, 10),
    "star_docs": lambda p: star_docs(5, p),
    "ring_docs": lambda p: ring_docs(5, p),
    "ring_pair_reach": lambda p: ring_pair_reach(5, p, 2),
    "ring_pair_reach_self": lambda p: ring_pair_reach(5, p, 0),
    "investment_gap": lambda p: investment_gap("ring", 5, p, 1.0, 1.0),
    "crossover_cubic": lambda p: crossover_cubic("ring", 5, p, 1.0, 1.0),
    "star_sacrificial_lamb": lambda p: star_sacrificial_lamb(5, p, 1.0, 1.0),
    "star_uniform_attack_strategy": lambda p: star_uniform_attack_strategy(5, p, 1.0),
}
BY_DOCS = {"nash_strategic_vt": lambda d: nash_strategic_vt(d, 5)}


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
    # The optimal uniform investments make the attack uniform, so the
    # attacker's strategic edge is void and the random optimum is optimal.
    for n in (4, 5):
        for build in (ring_graph, complete_graph):
            disses = [reach_closed_form(build(n), p) for p in P_GRID]
            for diss, out in zip(disses, social_optimum_numeric(disses, Params())):
                expected = social_optimum_random(diss.expected_docs, 1.0)
                assert np.abs(out.q - expected).max() < 1e-5


def test_strategic_optimum_p_one():
    # Every agent holds every document: q_i = n / (alpha n) = 1 / alpha.
    for alpha, expected in ((1.0, 1.0), (2.0, 0.5)):
        out = social_optimum_numeric(reach_closed_form(ring_graph(5), 1.0), Params(alpha, 1.0))
        np.testing.assert_allclose(out.q, expected, rtol=1e-9, atol=0.0)


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
    expected = nash_strategic_vt(diss.expected_docs.mean(), 5, 1.0, 1.0)
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
# sweeps).  No Newton start certifies SIX_NODE at p = 0.7, 0.825 or 0.85,
# and the accelerated sweeps cycle there; Newton from q = 1, the fourth
# start, certifies an equilibrium on FIVE_NODE at p = 0.6413.
SIX_NODE = "0 1\n1 2\n2 3\n3 4\n1 4\n0 5\n"
FIVE_NODE = "0 1\n1 2\n1 3\n1 4\n2 3\n2 4\n"
# With alpha = 3 and omega = 2 no Newton start certifies this tree at
# p = 0.9; the accelerated sweeps do, where plain sweeps cycle.
EIGHT_NODE = "0 1\n0 2\n1 3\n1 4\n1 5\n1 7\n3 6\n"


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
    # Newton from q = 1 certifies a profile, so it must be one: no agent
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


def test_brd_cycle_check_at_the_edge_of_the_budget():
    # The sweep that restarts a point from its plain output checks that
    # profile as the start of the next sweep, which only exists within
    # max_iter.  Here sweep 136 repeats the profile of sweep 128; the
    # numbers come from lstsq, so they are read from an unbounded run.
    diss = reach_exact(load_edge_list(SIX_NODE), 0.7)
    with pytest.raises(NonConvergenceError, match="repeats the profile") as cycle:
        best_response_dynamics(diss, Params())
    repeat = cycle.value.iterations
    with pytest.raises(NonConvergenceError) as short:
        best_response_dynamics(diss, Params(), max_iter=repeat - 1)
    assert f"no convergence in {repeat - 1} sweeps" in str(short.value)
    assert short.value.iterations == repeat - 1
    assert short.value.last_q.tobytes() == cycle.value.last_q.tobytes()
    for max_iter in (repeat, repeat + 1):
        with pytest.raises(NonConvergenceError) as err:
            best_response_dynamics(diss, Params(), max_iter=max_iter)
        assert str(err.value) == str(cycle.value)
        assert err.value.iterations == repeat
        assert err.value.last_q.tobytes() == cycle.value.last_q.tobytes()


def test_brd_kernel_budget(monkeypatch):
    # Best responses are closed-form region walks; only the Nash-gap
    # certificate evaluates rewards through the water-fill kernel: one call
    # at the profiles and one over the n deviations of every point.  Newton
    # certifies every point here, so the whole solve makes those two calls.
    calls = _record_fills(monkeypatch)
    g = star_graph(20)
    best_response_dynamics(_closed_diss(g, 0.9), Params())
    assert [len(rows) for rows in calls] == [1, g.n]
    calls.clear()
    grid = [0.3, 0.6, 0.9]
    best_response_dynamics([_closed_diss(g, p) for p in grid], Params())
    assert [len(rows) for rows in calls] == [len(grid), g.n * len(grid)]


def _record_kernel_agents(monkeypatch):
    """Record the agent argument of every best-response kernel call: one
    index from a sweep, an array of (point, agent) pairs otherwise."""
    agents = []
    real = game._best_response

    def counting(agent, *args):
        agents.append(agent)
        return real(agent, *args)

    monkeypatch.setattr(game, "_best_response", counting)
    return agents


def test_brd_newton_budget(monkeypatch):
    # From the uniform start, Newton certifies the 20-star in two steps: the
    # start and two trials take one all-agent kernel call each, and the
    # certificate reuses the last.  A stack of points shares each call.
    agents = _record_kernel_agents(monkeypatch)
    g = star_graph(20)
    best_response_dynamics(_closed_diss(g, 0.9), Params())
    assert [np.size(a) for a in agents] == [g.n] * 3
    agents.clear()
    ps = (0.5, 0.7, 0.9)
    best_response_dynamics([_closed_diss(g, p) for p in ps], Params())
    assert [np.size(a) for a in agents] == [g.n * len(ps)] * 3


def test_brd_sweep_budget(monkeypatch):
    # No Newton start certifies EIGHT_NODE at p = 0.9, so the point takes
    # the sweeps.  Plain cyclic sweeps cycle there; extrapolating over the
    # last sweeps certifies it in under 30.
    agents = _record_kernel_agents(monkeypatch)
    diss = reach_exact(load_edge_list(EIGHT_NODE), 0.9)
    best_response_dynamics(diss, Params(3.0, 2.0))
    assert 0 < sum(np.ndim(a) == 0 for a in agents) <= 30 * diss.n
    # The points of a stack share each sweep's calls, so the stack makes as
    # many as its slowest point alone.  No start certifies these either.
    disses = [_closed_diss(star_graph(40), p) for p in (0.42, 0.46, 0.55)]
    alone = []
    for diss in disses:
        agents.clear()
        best_response_dynamics(diss, Params(2.0, 3.0))
        alone.append(sum(np.ndim(a) == 0 for a in agents))
    agents.clear()
    best_response_dynamics(disses, Params(2.0, 3.0))
    assert 0 < min(alone) and sum(np.ndim(a) == 0 for a in agents) == max(alone)


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


@pytest.mark.parametrize(
    "n, p", [(n, p) for p in (0.3, 0.5, 0.9) for n in (5, 20, 40, 60, 80, 120)] + [(60, 0.99)]
)
def test_brd_certifies_star_equilibria(n, p):
    # Plain cyclic sweeps took 107, 394 and 935 sweeps on the 20-, 40- and
    # 60-stars at p = 0.9 and stalled on the 120-star.  At p = 0.3 Newton's
    # line search fails from the uniform start on the 40- to 120-stars, and
    # the closed-form start certifies them; q = 0 certifies the 60-star at
    # p = 0.99.
    oracle, diss = _star_oracle(n, p)
    assert _nash_gap(oracle, diss) <= 1e-8
    out = best_response_dynamics(diss, Params())
    assert np.abs(out.q - oracle).max() <= 1e-7


@pytest.mark.parametrize(
    "n, p", [(160, 0.9), (240, 0.9), (300, 0.9), (300, 0.3)], ids=["160", "240", "300", "300-0.3"]
)
def test_brd_certifies_large_star_equilibria(n, p):
    # Accelerated sweeps took about 300 sweeps on the 160-star and ran out
    # of sweeps on the 240- and 300-stars at p = 0.9; Newton lands on the
    # equilibrium, from the closed-form start at p = 0.3.
    oracle, diss = _star_oracle(n, p)
    assert _nash_gap(oracle, diss) <= 1e-8
    out = best_response_dynamics(diss, Params())
    assert np.abs(out.q - oracle).max() <= 1e-12


def test_brd_falls_back_to_plain_sweeps_after_a_cycle(monkeypatch):
    # No Newton start certifies the 40-star at p = 0.55 with alpha = 2 and
    # omega = 3.  Extrapolated sweeps cycle there; plain sweeps from the
    # repeated profile certify an equilibrium.
    counts = _record_fallbacks(monkeypatch)
    diss = _closed_diss(star_graph(40), 0.55)
    out = best_response_dynamics(diss, Params(2.0, 3.0))
    gains, _ = game._nash_gap(out.q[None], diss.expected_docs[None], diss.reach[None], 2.0, 3.0)
    assert counts == [1] and gains[0] <= 1e-8


@pytest.mark.parametrize("graph, p, diss_of, start", [
    (star_graph(60), 0.3, reach_closed_form, 1),
    (star_graph(60), 0.99, reach_closed_form, 2),
    (load_edge_list("0 1\n0 6\n1 2\n1 5\n1 6\n2 3\n3 4\n3 5\n4 5\n4 6\n5 6\n"), 0.7, reach_exact, 3),
], ids=["star-60-0.3", "star-60-0.99", "seven-node-0.7"])
def test_brd_later_starts_certify_where_the_first_stalls(monkeypatch, graph, p, diss_of, start):
    # Newton stalls from the uniform start at each of these points, and one
    # of the later starts (the closed form, q = 0 or q = 1) certifies it
    # before any sweep runs: the equilibrium Newton reaches from that start
    # alone.
    runs, counts = _record_starts(monkeypatch), _record_fallbacks(monkeypatch)
    diss = diss_of(graph, p)
    out = best_response_dynamics(diss, Params())
    assert runs == [[False]] * start + [[True]] and counts == []
    assert out.q.tobytes() == _starts_alone(diss)
    assert _nash_gap(out.q, diss) <= 1e-8


def test_brd_reports_exhausted_sweeps():
    # No Newton start certifies the 40-star at p = 0.55 with alpha = 2 and
    # omega = 3, so max_iter bounds the sweeps that follow.
    g = star_graph(40)
    with pytest.raises(NonConvergenceError, match="no convergence in 3 sweeps") as err:
        best_response_dynamics(_closed_diss(g, 0.55), Params(2.0, 3.0), max_iter=3)
    assert err.value.iterations == 3


@pytest.mark.parametrize("tol", [0.0, float("nan")])
@pytest.mark.parametrize("solver", [best_response_dynamics, social_optimum_numeric])
def test_iterative_solvers_reject_non_positive_tol(solver, tol):
    g = ring_graph(5)
    with pytest.raises(ValueError, match="tol must be positive"):
        solver(_closed_diss(g, 0.5), Params(), tol=tol)


@pytest.mark.parametrize("max_iter", [0, -3])
@pytest.mark.parametrize("solver", [best_response_dynamics, social_optimum_numeric])
def test_iterative_solvers_reject_an_empty_budget(solver, max_iter):
    g = ring_graph(5)
    with pytest.raises(ValueError, match="^max_iter must be at least 1$"):
        solver(_closed_diss(g, 0.5), Params(), max_iter=max_iter)


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
    # No Newton start certifies this point, so it takes the sweeps; the
    # error carries their last profile and its Nash gap.
    diss = reach_exact(load_edge_list(SIX_NODE), 0.85)
    with pytest.raises(NonConvergenceError, match="no convergence in 1 sweeps") as err:
        best_response_dynamics(diss, Params(), max_iter=1, tol=1e-14)
    assert err.value.last_q.shape == (6,) and err.value.iterations == 1
    assert err.value.residual == _nash_gap(err.value.last_q, diss) > 0


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


def _solve_each(disses, params=Params(), **options):
    """Per-point results up to the first failing point: q bytes, or the
    error's (message, residual, iterations, last_q bytes)."""
    results = []
    for diss in disses:
        try:
            out = best_response_dynamics(diss, params, **options)
        except NonConvergenceError as exc:
            assert exc.index is None
            return results + [(str(exc), exc.residual, exc.iterations, exc.last_q.tobytes())]
        results.append(out.q.tobytes())
    return results


def _solve_stacked(disses, params=Params(), **options):
    """A stacked solve: every point's q bytes, or (index, error as above)."""
    try:
        outs = best_response_dynamics(disses, params, **options)
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


def _record_fallbacks(monkeypatch):
    """Record how many points each call hands from Newton to the sweeps."""
    counts = []
    real = game._sweeps

    def recording(x, *args):
        counts.append(len(x))
        return real(x, *args)

    monkeypatch.setattr(game, "_sweeps", recording)
    return counts


def _record_starts(monkeypatch):
    """Record, for each Newton run from one of the solver's starts, which
    of the points it was given it certifies."""
    runs = []
    real = game._newton

    def recording(*args):
        q, certified = real(*args)
        runs.append(certified.tolist())
        return q, certified

    monkeypatch.setattr(game, "_newton", recording)
    return runs


def test_stacked_brd_mixes_newton_and_fallback_points(monkeypatch):
    # On the 40-star with alpha = 2 and omega = 3, Newton from the uniform
    # start certifies p = 0.3, the closed-form start and q = 0 certify
    # other points of this grid, and the rest take the sweeps, alone or in
    # the stack.
    runs, counts = _record_starts(monkeypatch), _record_fallbacks(monkeypatch)
    params = Params(2.0, 3.0)
    disses = [_closed_diss(star_graph(40), p) for p in np.linspace(0.3, 0.575, 12)]
    each = _solve_each(disses, params)
    # Alone, a point runs the starts up to the one that certifies it, or
    # all four and then the sweeps (marked 4).
    starts, tried = [], 0
    for [certified] in runs:
        tried += 1
        if certified or tried == 4:
            starts.append(tried - 1 if certified else 4)
            tried = 0
    assert sorted(set(starts)) == [0, 1, 2, 4] and counts == [1] * starts.count(4)
    runs.clear()
    counts.clear()
    assert _solve_stacked(disses, params) == each
    assert [len(run) for run in runs] == [sum(s >= k for s in starts) for k in range(4)]
    assert counts == [starts.count(4)]


def _sweeps_alone(diss):
    """The sweep routine called directly on one point with the solver's
    defaults: q bytes, or the error's (message, residual, iterations,
    last_q bytes)."""
    n = diss.n
    last, errors = game._sweeps(
        np.full((1, n), 0.5), diss.expected_docs[None], diss.reach[None], 1.0, 1.0,
        1e-8, 500, game._walk_constants(n, n),
    )
    error = errors[0]
    if error is None:
        return last[0].tobytes()
    return str(error), error.residual, error.iterations, error.last_q.tobytes()


def _starts_alone(diss):
    """Newton called directly from each of the solver's starts in turn on
    one point with alpha = omega = 1: the q bytes of the first start that
    certifies it, or None."""
    n, docs, reach = diss.n, diss.expected_docs[None], diss.reach[None]
    spread = (n - docs) * docs
    for x in (np.full((1, n), 0.5), (spread + 1.0) / (spread + n), np.zeros((1, n)), np.ones((1, n))):
        q, certified = game._newton(x, docs, reach, 1.0, 1.0, 1e-8, game._walk_constants(n, n))
        if certified[0]:
            return q[0].tobytes()
    return None


@pytest.mark.parametrize("edges, p", [(FIVE_NODE, 0.6413), (SIX_NODE, 0.825), (SIX_NODE, 0.85)])
def test_brd_fallback_points_match_the_sweeps_alone(monkeypatch, edges, p):
    # Newton from the uniform start certifies none of these.  Each gets what
    # the later starts give it, and one that no start certifies what the
    # sweeps give it: q = 1 certifies FIVE_NODE, and no start SIX_NODE.
    counts = _record_fallbacks(monkeypatch)
    diss = reach_exact(load_edge_list(edges), p)
    [result] = _solve_each([diss])
    newton = _starts_alone(diss)
    assert (newton is None) == (edges == SIX_NODE)
    if newton is None:
        assert counts == [1] and result == _sweeps_alone(diss)
    else:
        assert counts == [] and result == newton


def test_brd_falls_back_on_a_singular_newton_system(monkeypatch):
    # A point whose Newton systems cannot be solved runs every start and
    # then takes the sweeps from q0.
    monkeypatch.setattr(game, "_solve_rows", lambda a, b: np.full(b.shape, np.nan))
    runs, counts = _record_starts(monkeypatch), _record_fallbacks(monkeypatch)
    diss = _closed_diss(star_graph(20), 0.9)
    [result] = _solve_each([diss])
    assert runs == [[False]] * 4 and counts == [1]
    assert result == _sweeps_alone(diss)


def test_brd_moves_on_after_a_singular_first_start(monkeypatch):
    # Only the first Newton system is singular: the point moves on to the
    # closed-form start, which certifies it without the sweeps.
    real, calls = game._solve_rows, []

    def first_singular(a, b):
        calls.append(len(b))
        return np.full(b.shape, np.nan) if len(calls) == 1 else real(a, b)

    monkeypatch.setattr(game, "_solve_rows", first_singular)
    runs, counts = _record_starts(monkeypatch), _record_fallbacks(monkeypatch)
    diss = _closed_diss(star_graph(20), 0.9)
    out = best_response_dynamics(diss, Params())
    assert runs == [[False], [True]] and counts == []
    assert _nash_gap(out.q, diss) <= 1e-8


def test_brd_returns_only_certified_profiles(monkeypatch):
    # Newton lands on the 20-star's equilibrium, but with a certificate
    # that never passes, neither a start nor the sweeps may return a profile.
    def failing_gap(q, *args):
        return np.ones(len(q)), np.zeros(len(q), dtype=int)

    monkeypatch.setattr(game, "_nash_gap", failing_gap)
    runs, counts = _record_starts(monkeypatch), _record_fallbacks(monkeypatch)
    with pytest.raises(NonConvergenceError, match="settled on a profile that is no equilibrium"):
        best_response_dynamics(_closed_diss(star_graph(20), 0.9), Params())
    assert runs == [[False]] * 4 and counts == [1]


def test_solve_rows_leaves_a_singular_row_nan():
    rng = np.random.default_rng(3)
    a = rng.random((3, 4, 4)) + 4.0 * np.eye(4)
    b = rng.random((3, 4))
    a[1] = 1.0  # rank one: LU meets an exact zero pivot
    out = game._solve_rows(a, b)
    assert np.isnan(out[1]).all()
    for j in (0, 2):
        assert out[j].tobytes() == game._solve_rows(a[j : j + 1], b[j : j + 1])[0].tobytes()
        assert np.allclose(a[j] @ out[j], b[j], rtol=0, atol=1e-12)


def test_sweep_kernel_keeps_its_bytes():
    # The digest pins the per-agent best responses the sweeps take, as the
    # kernel gave them while it took one agent index for a whole stack, so
    # points that fall back to the sweeps keep their bytes.  The all-agent
    # call that Newton and the certificate make gives the same bytes.
    rng = np.random.default_rng(19)
    digest = hashlib.sha256()
    for diss in (
        reach_exact(load_edge_list(SIX_NODE), 0.7),
        reach_exact(load_edge_list(FIVE_NODE), 0.6413),
        _closed_diss(star_graph(20), 0.9),
    ):
        rows, n = 6, diss.n
        q = rng.random((rows, n))
        q[rng.random((rows, n)) < 0.2] = 0.0  # some exactly 0 and 1
        q[rng.random((rows, n)) < 0.2] = 1.0
        docs, reach = np.tile(diss.expected_docs, (rows, 1)), np.tile(diss.reach, (rows, 1, 1))
        walk = game._walk_constants(rows * n, n)
        for alpha, omega in ((1.0, 1.0), (1.5, 2.0), (0.5, 0.3)):
            each = np.empty((rows, n))
            for i in range(n):
                each[:, i] = game._best_response(i, q, docs, reach[:, i], alpha, omega, walk)
                digest.update(each[:, i].tobytes())
            every = game._best_responses(q, docs, reach, alpha, omega, walk)
            assert every.tobytes() == each.tobytes()
    assert digest.hexdigest() == "110ae726d346ab7a4d654fc06b885fa9bf79a7ceffcd1bdc9df6412168f3287d"


def _newton_profiles(monkeypatch):
    """The (q, docs, reach) at which Newton takes Jacobians on seeded random
    graphs with alpha = omega = 1; the sweeps that follow stop after one."""
    rng = np.random.default_rng(13)
    profiles = []
    real = game._best_responses

    def recording(q, docs, reach, alpha, omega, walk, jacobian=False):
        if jacobian:
            profiles.extend(zip(q.copy(), docs, reach))
        return real(q, docs, reach, alpha, omega, walk, jacobian)

    monkeypatch.setattr(game, "_best_responses", recording)
    for _ in range(30):
        g = _random_connected_graph(rng, int(rng.integers(3, 8)))
        disses = [reach_exact(g, p) for p in np.sort(rng.uniform(0.05, 0.95, 5))]
        try:
            best_response_dynamics(disses, Params(), max_iter=1)
        except NonConvergenceError:
            pass
    monkeypatch.undo()
    return profiles


def test_best_response_jacobian_matches_central_differences(monkeypatch):
    # Where the best-response map is affine around q in q_j (both one-sided
    # differences agree), the closed-form Jacobian column equals the central
    # difference.  Random profiles reach interior optima, the floor where an
    # agent leaves the attack and responses clipped to 0; alpha = 0.05,
    # below the model's range but within the kernel's, clips responses to 1
    # with attacked others.  The profiles Newton visits on random graphs add
    # near-equilibrium ones.  A response held on the bound where another
    # agent enters was only seen at kinks of the map, which this cannot check.
    cases = [(q, docs, reach, 1.0, 1.0) for q, docs, reach in _newton_profiles(monkeypatch)]
    rng = np.random.default_rng(23)
    disses = [_closed_diss(star_graph(n), p) for n, p in ((5, 0.3), (12, 0.6), (20, 0.9))]
    for _ in range(6):
        g = _random_connected_graph(rng, int(rng.integers(4, 9)))
        disses.append(reach_exact(g, float(rng.uniform(0.1, 0.9))))
    for diss in disses:
        for alpha, omega in ((1.0, 1.0), (1.5, 2.0), (4.0, 1.0), (0.05, 2.0)):
            for _ in range(5):
                q = rng.uniform(1e-5, 1 - 1e-5, diss.n)
                cases.append((q, diss.expected_docs, diss.reach, alpha, omega))
    h, checked = 1e-6, 0
    for q, docs, reach, alpha, omega in cases:
        n = q.size
        shifted = np.clip(np.vstack([q, q + h * np.eye(n), q - h * np.eye(n)]), 0.0, 1.0)
        walk = game._walk_constants((2 * n + 1) * n, n)
        best, jac = game._best_responses(
            shifted, np.tile(docs, (2 * n + 1, 1)), np.tile(reach, (2 * n + 1, 1, 1)),
            alpha, omega, walk, True,
        )
        up, down = best[1 : n + 1].T - best[0, :, None], best[0, :, None] - best[n + 1 :].T
        affine = np.abs(up - down) <= 1e-12
        central = (up + down) / (shifted[1 : n + 1] - shifted[n + 1 :]).diagonal()
        assert np.abs(jac[0] - central)[affine].max(initial=0.0) <= 1e-7
        checked += (affine & (np.abs(central) > 1e-3)).sum()
    assert checked >= 2000


# ---------------------------------------------------------------------------
# Numeric social optimum
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("build", [complete_graph, ring_graph])
def test_social_optimum_numeric_matches_closed_form(build):
    g = build(5)
    for p in (0.2, 0.5, 0.8):
        diss = _closed_diss(g, p)
        out = social_optimum_numeric(diss, Params())
        expected = social_optimum_random(diss.expected_docs, 1.0)
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
    # row of the one before.  The start takes one evaluation; each point
    # here takes at least one step after it.
    real = game._welfare_and_gradient
    solved = []

    def recording(q, docs, alpha, omega):
        solved.append({row.tobytes() for row in q})
        return real(q, docs, alpha, omega)

    monkeypatch.setattr(game, "_welfare_and_gradient", recording)
    social_optimum_numeric(diss_of(g, p), Params())
    assert len(solved) > 1
    for a, b in zip(solved, solved[1:]):
        assert not a & b


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
    docs = _closed_diss(ring_graph(4), 0.0).expected_docs[None]
    q, errors = game._ascend(np.array([[0.0, 0.5, 0.5, 0.0]]), docs, 1.0, 1.0, 1e-8, 20_000)
    assert errors == [None]
    assert np.abs(q - 0.25).max() <= 1e-12
    assert sum(map(len, calls)) <= 16


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


def _sequential_optimum(diss, alpha, omega, q0, tol=1e-8, max_iter=20_000):
    """Oracle: the projected Newton ascent from q0 one trial step at a
    time, through one-row calls of the solver's kernels; the last iterate,
    its iterations and how it ended: "converged", "stopped" when no step
    passed the line search, or "max_iter"."""
    docs = diss.expected_docs[None]
    ref_step = 1.0 / (alpha + 2.0 * float(docs.max()) ** 2 / omega)
    q = q0[None]
    value, grad, active = game._welfare_and_gradient(q, docs, alpha, omega)
    for iteration in range(max_iter + 1):
        if np.abs(np.clip(q + ref_step * grad, 0.0, 1.0) - q).max() / ref_step <= tol:
            return q[0], iteration, "converged"
        if iteration == max_iter:
            return q[0], iteration, "max_iter"
        blocked = ((q <= 0.0) & (grad < 0.0)) | ((q >= 1.0) & (grad > 0.0))
        direction = game._newton_direction(grad, ~blocked, active, docs, alpha, omega)
        step = 1.0
        while step > 1e-16:
            trial = np.clip(q + step * direction, 0.0, 1.0)
            evaluated = game._welfare_and_gradient(trial, docs, alpha, omega)
            # An unclipped trial with q's active set passes untested.
            if (trial == q + step * direction).all() and (evaluated[2] == active).all():
                break
            if evaluated[0][0] >= value[0] + 1e-4 * float(grad[0] @ (trial - q)[0]):
                break
            step *= 0.5
        else:
            return q[0], iteration, "stopped"
        q, (value, grad, active) = trial, evaluated


@pytest.mark.parametrize("g, p, diss_of, alpha, omega", [
    (star_graph(20), 0.9, reach_closed_form, 1.0, 1.0),
    (star_graph(5), 0.45, reach_closed_form, 1.0, 1.0),
    (star_graph(6), 0.7, reach_closed_form, 1.5, 2.0),
    (load_edge_list(SIX_NODE), 0.6, reach_exact, 1.0, 1.0),
    (load_edge_list(FIVE_NODE), 0.3, reach_exact, 2.0, 3.0),
    (star_graph(60), 0.5, reach_closed_form, 1.0, 1.0),  # line searches of up to 8 steps
    (star_graph(20), 0.8, reach_closed_form, 1.0, 1.0),
    (star_graph(60), np.linspace(0.0, 1.0, 101), reach_closed_form, 1.0, 1.0),
    (load_edge_list(SIX_NODE), 0.3, reach_exact, 1e6, 1.0),  # steps taken untested
])
def test_stacked_line_search_matches_one_step_at_a_time(g, p, diss_of, alpha, omega):
    # Rows halve one shared step and each takes the first that passes,
    # which is the step a one-at-a-time search accepts, so each start row
    # gets the iterate, iterations and verdict it gets alone, also when
    # max_iter cuts it short.  One point runs from the uniform start and
    # five seeded ones; a p grid runs from the uniform start at every
    # point, so its rows finish at different iterations.
    disses = [diss_of(g, x) for x in np.atleast_1d(p)]
    starts = np.full((len(disses), g.n), 0.5)
    if len(disses) == 1:
        disses *= 6
        starts = np.vstack([starts, np.random.default_rng(3).random((5, g.n))])
    docs = np.array([diss.expected_docs for diss in disses])
    for max_iter in (1, 2, 20_000):
        last, errors = game._ascend(starts, docs, alpha, omega, 1e-8, max_iter)
        for diss, q0, q, error in zip(disses, starts, last, errors):
            expected, iterations, verdict = _sequential_optimum(diss, alpha, omega, q0, max_iter=max_iter)
            assert q.tobytes() == expected.tobytes()
            if error is None:
                assert verdict == "converged"
            else:  # only a cap stops a row; the full budget converges
                assert verdict == "max_iter" and error.iterations == iterations == max_iter < 3
                assert str(error).startswith(
                    f"projected Newton ascent did not converge within {max_iter} iterations "
                )


def test_social_optimum_at_large_alpha():
    # Near the optimum at large alpha, the Armijo test compares two welfare
    # values near n that differ by less than their rounding.  A step that
    # stays unclipped in q's active-set region gains on the region's
    # quadratic in exact arithmetic, so it is taken without the test.  On
    # the star at p = 1 every agent expects n documents, so the closed form
    # applies: q_i = 1 / alpha.
    diss = _closed_diss(star_graph(5), 1.0)
    out = social_optimum_numeric(diss, Params(1e9, 1.0))
    expected = social_optimum_random(diss.expected_docs, 1e9)
    np.testing.assert_allclose(out.q, expected, rtol=1e-12, atol=0.0)
    rng = np.random.default_rng(7)
    grid = np.linspace(0.0, 1.0, 11)
    for _ in range(6):
        g = _random_connected_graph(rng, int(rng.integers(4, 9)))
        disses = [reach_exact(g, p) for p in grid]
        for alpha in (1e4, 1e5, 1e6):
            outs = social_optimum_numeric(disses, Params(alpha, 1.0), max_iter=300)
            for diss, out in zip(disses, outs):
                docs = diss.expected_docs
                ref_step = 1.0 / (alpha + 2.0 * docs.max() ** 2)
                grad = game._welfare_and_gradient(out.q[None], docs[None], alpha, 1.0)[1][0]
                assert np.abs(np.clip(out.q + ref_step * grad, 0.0, 1.0) - out.q).max() / ref_step <= 1e-8


def test_ascent_names_the_iteration_its_line_search_failed(monkeypatch):
    # On this star the first iteration takes its step at t = 1/2, after
    # the start and two trials.  Every later trial loses welfare and claims
    # an empty active set, so all 54 halvings of the second iteration's
    # step fail.  The error names that iteration and keeps the first
    # step's iterate and its stationarity residual.
    real = game._welfare_and_gradient
    calls = []

    def worse(q, docs, alpha, omega):
        value, grad, active = real(q, docs, alpha, omega)
        calls.append(len(q))
        return (value - 1.0, grad, np.zeros_like(active)) if len(calls) > 3 else (value, grad, active)

    monkeypatch.setattr(game, "_welfare_and_gradient", worse)
    diss = _closed_diss(star_graph(10), 0.5)
    with pytest.raises(NonConvergenceError) as err:
        social_optimum_numeric(diss, Params())
    assert len(calls) == 3 + 54
    calls.clear()
    q, iterations, verdict = _sequential_optimum(diss, 1.0, 1.0, np.full(10, 0.5))
    assert (iterations, verdict, len(calls)) == (1, "stopped", 3 + 54)
    assert err.value.last_q.tobytes() == q.tobytes() and err.value.iterations == 1
    assert str(err.value) == (
        "projected Newton ascent stopped at iteration 2: no step along the Newton "
        f"direction passes the Armijo test (stationarity residual {err.value.residual:.3e})"
    )
    calls.clear()
    with pytest.raises(NonConvergenceError, match="within 1 iterations") as capped:
        social_optimum_numeric(diss, Params(), max_iter=1)
    assert capped.value.residual == err.value.residual


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


# At max_iter=1 with alpha = 1.5 and omega = 2 the ascent does not
# converge at p = 0.2 to 0.8 on this graph; at 0.1, 0.9 and 0.95 it does.
SEVEN_NODE = "0 1\n0 4\n0 5\n1 2\n1 3\n1 4\n2 3\n3 4\n3 6\n4 6\n"


def test_stacked_optimum_reports_the_lowest_failing_point():
    g = load_edge_list(SEVEN_NODE)
    ps = [0.1, 0.3, 0.95, 0.2, 0.9]
    disses = [reach_exact(g, p) for p in ps]
    options = {"alpha": 1.5, "omega": 2.0, "max_iter": 1}
    each = [_solve_optima(diss, **options) for diss in disses]
    assert [isinstance(result, tuple) for result in each] == [False, True, False, True, False]
    assert each[1] == (None, "projected Newton ascent did not converge within 1 iterations "
                       "(stationarity residual 3.188e-03)", 1)
    # The error carries the point's last iterate and the stationarity
    # residual there, which its message names.
    with pytest.raises(NonConvergenceError) as err:
        social_optimum_numeric(disses[1], Params(1.5, 2.0), max_iter=1)
    q, docs = err.value.last_q, disses[1].expected_docs
    assert q.tobytes() == _sequential_optimum(disses[1], 1.5, 2.0, np.full(7, 0.5), max_iter=1)[0].tobytes()
    ref_step = 1.0 / (1.5 + 2.0 * docs.max() ** 2 / 2.0)
    grad = game._welfare_and_gradient(q[None], docs[None], 1.5, 2.0)[1][0]
    stationarity = np.abs(np.clip(q + ref_step * grad, 0.0, 1.0) - q).max() / ref_step
    assert err.value.residual == pytest.approx(stationarity, rel=1e-12)
    assert f"{err.value.residual:.3e}" == "3.188e-03"
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


def test_one_start_matches_many_seeded_starts():
    # Welfare kinks upward where the attacker's active set changes, so the
    # ascent can stop at a local optimum.  On this sample 64 seeded starts
    # per point find no more welfare than the one start; on a wider sample
    # (graphs of 7 to 9 agents, more cost pairs) they can, as the
    # social_optimum_numeric docstring says.
    rng = np.random.default_rng(21)
    for _ in range(30):
        g = _random_connected_graph(rng, int(rng.integers(4, 9)))
        disses = [reach_exact(g, p) for p in np.sort(rng.uniform(0.05, 0.95, 3))]
        docs = np.repeat([diss.expected_docs for diss in disses], 64, axis=0)
        starts = rng.random(docs.shape)
        for alpha, omega in ((1.0, 1.0), (1.0, 3.0), (3.0, 2.0)):
            outs = social_optimum_numeric(disses, Params(alpha, omega))
            last, errors = game._ascend(starts, docs, alpha, omega, 1e-8, 20_000)
            welfare = game._welfare_and_gradient(last, docs, alpha, omega)[0]
            welfare[[error is not None for error in errors]] = -np.inf
            best = welfare.reshape(len(disses), 64).max(axis=1)
            assert np.isfinite(best).all()
            assert all(out.welfare >= top - 1e-9 for out, top in zip(outs, best))


def test_one_start_beats_the_star_strategies():
    # Equalizing the attack and the sacrificial lamb are feasible star
    # strategies, so their welfare bounds the optimum from below.
    grid = np.linspace(0.1, 1.0, 10)
    checked = {"uniform": 0, "lamb": 0}
    for n in (5, 10, 20, 50):
        disses = [_closed_diss(star_graph(n), p) for p in grid]
        for alpha in (1.0, 2.0, 5.0):
            for omega in (1.0, 2.0, 5.0):
                outs = social_optimum_numeric(disses, Params(alpha, omega))
                for p, out in zip(grid, outs):
                    uniform = star_uniform_attack_strategy(n, p, alpha)
                    if not uniform.clamped:
                        assert out.welfare >= uniform.welfare - 1e-12
                        checked["uniform"] += 1
                    lamb = star_sacrificial_lamb(n, p, alpha, omega)
                    if lamb.feasible:
                        assert out.welfare >= lamb.welfare_bound - 1e-12
                        checked["lamb"] += 1
    assert checked["uniform"] >= 300 and checked["lamb"] >= 200


# ---------------------------------------------------------------------------
# Crossover
# ---------------------------------------------------------------------------

def test_gap_signs_at_extremes():
    for topology in ("ring", "complete"):
        assert investment_gap(topology, 5, 1e-9, 1.0, 1.0) > 0  # over-investment
        assert investment_gap(topology, 5, 1 - 1e-9, 1.0, 1.0) < 0  # under-investment


def test_crossover_root_is_a_sign_change():
    p_star, _ = find_crossover_p("complete", 5, 1.0, 1.0, tol=1e-12)
    assert investment_gap("complete", 5, p_star - 1e-6, 1.0, 1.0) > 0
    assert investment_gap("complete", 5, p_star + 1e-6, 1.0, 1.0) < 0


def test_crossover_earlier_on_denser_graph():
    p_complete, _ = find_crossover_p("complete", 5, 1.0, 1.0)
    p_ring, _ = find_crossover_p("ring", 5, 1.0, 1.0)
    assert p_complete < p_ring


def test_crossover_details():
    # Where the sufficient condition for one crossover starts to hold.
    p_star, p_from = find_crossover_p("ring", 5, 1.0, 1.0)
    assert 0.0 < p_from < p_star < 1.0


@pytest.mark.parametrize("topology", ["ring", "complete"])
@pytest.mark.parametrize("alpha, omega", [
    (1.0, 1e6), (1.0, 1e12), (1.0, 1e300), (1e9, 1.0), (1e308, 1e308),
])
def test_crossover_at_large_costs(topology, alpha, omega):
    # Bisecting the gap itself found no sign change on [1e-9, 1 - 1e-9]
    # once omega pushed the root below 1e-9, and at alpha = omega = 1e308
    # alpha n omega overflowed; the cubic h(D(p)) changes sign on [0, 1]
    # whatever the costs.
    tol = 1e-10
    p_star, p_from = find_crossover_p(topology, 5, alpha, omega, tol)
    assert 0.0 <= p_star <= 1.0 and 0.0 <= p_from <= 1.0
    assert crossover_cubic(topology, 5, max(p_star - tol, 0.0), alpha, omega) >= 0
    assert crossover_cubic(topology, 5, min(p_star + tol, 1.0), alpha, omega) <= 0


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
        assert grid[k] <= find_crossover_p(topology, n, alpha, omega)[0] <= grid[k + 1]

    check()


@pytest.mark.parametrize("call", [
    lambda topology, n: investment_gap(topology, n, 0.5, 1.0, 1.0),
    lambda topology, n: find_crossover_p(topology, n, 1.0, 1.0),
], ids=["investment_gap", "find_crossover_p"])
@pytest.mark.parametrize("topology, n", [
    ("ring", 0), ("ring", 1), ("ring", 2), ("complete", 0), ("complete", 1),
])
def test_crossover_helpers_refuse_graphs_too_small(call, topology, n):
    # A 2-agent "ring" would cross at 0.170, but the only 2-agent graph,
    # K_2, crosses at 0.311: the helpers take the graph builders' bounds.
    message = {"ring": "ring needs n >= 3", "complete": "n must be >= 2"}[topology]
    with pytest.raises(ValueError, match=message):
        call(topology, n)


def unique_crossover_condition(d, n, alpha):
    """Oracle for the sufficient condition of a single crossover, evaluated
    literally: 2 (n - d) d >= (n - 2 d)(alpha n - 1)."""
    return 2.0 * (n - d) * d >= (n - 2.0 * d) * (alpha * n - 1.0)


@pytest.mark.parametrize("topology, docs", [("ring", ring_docs), ("complete", complete_docs)])
@pytest.mark.parametrize("n", [3, 4, 5, 10, 30])
@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_condition_interval_is_exact(topology, docs, n, alpha):
    _, lo = find_crossover_p(topology, n, alpha, 1.0)
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


def _outcome_bytes(out):
    """Every field of an outcome, arrays as bytes, floats by repr."""
    attack = out.attack and (out.attack.a.tobytes(), repr(out.attack.lam), out.attack.active.tobytes())
    return out.q.tobytes(), out.attack_vector.tobytes(), out.rewards.tobytes(), repr(out.welfare), attack


def _outcome_stacks():
    """(disses, qs) stacks: seeded random graphs at 7 p values and the
    20-star over an 11-point grid, with investments at and inside [0, 1]."""
    rng = np.random.default_rng(29)
    stacks = []
    for _ in range(12):
        g = _random_connected_graph(rng, int(rng.integers(3, 8)))
        stacks.append([reach_exact(g, p) for p in np.sort(rng.uniform(0.05, 0.95, 7))])
    stacks.append([_closed_diss(star_graph(20), p) for p in np.linspace(0.0, 1.0, 11)])
    for disses in stacks:
        qs = rng.random((len(disses), disses[0].n))
        qs[0], qs[1, 0] = 0.0, 1.0
        yield disses, qs


@pytest.mark.parametrize("regime", game.REGIMES)
def test_stacked_evaluate_outcome_matches_per_point_calls(regime):
    params = Params(1.2, 1.5)
    for disses, qs in _outcome_stacks():
        stacked = evaluate_outcome(disses, params, qs, regime)
        assert [out.regime for out in stacked] == [regime] * len(disses)
        assert [_outcome_bytes(out) for out in stacked] == [
            _outcome_bytes(evaluate_outcome(d, params, q, regime)) for d, q in zip(disses, qs)
        ]


@pytest.mark.parametrize("regime", game.REGIMES)
def test_stacked_outcomes_own_read_only_arrays(regime):
    disses, qs = next(_outcome_stacks())
    outs = evaluate_outcome(disses, Params(), qs, regime)
    arrays = [
        [out.q, out.attack_vector, out.rewards] + ([out.attack.a, out.attack.active] if out.attack else [])
        for out in outs
    ]
    assert not any(arr.flags.writeable for row in arrays for arr in row)
    assert not any(np.shares_memory(qs, arr) for row in arrays for arr in row)
    for j, row in enumerate(arrays):
        for other in arrays[j + 1 :]:
            assert not any(np.shares_memory(x, y) for x in row for y in other)


def test_stacked_evaluate_outcome_makes_one_attack_solve(monkeypatch):
    disses, qs = next(_outcome_stacks())
    calls = []
    real = game.optimal_attack

    def counting(*args):
        calls.append(np.shape(args[0]))
        return real(*args)

    monkeypatch.setattr(game, "optimal_attack", counting)
    evaluate_outcome(disses, Params(), qs, "opt-strategic")
    evaluate_outcome(disses, Params(), qs, "opt-random")
    assert calls == [qs.shape]


@pytest.mark.parametrize("regime", game.REGIMES)
@pytest.mark.parametrize(
    "points, shape, bad, message",
    [
        (3, (2, 5), None, r"^expected investments of shape \(3, 5\), got shape \(2, 5\)$"),
        (3, (3, 4), None, r"^expected investments of shape \(3, 5\), got shape \(3, 4\)$"),
        (3, (5,), None, r"^expected investments of shape \(3, 5\), got shape \(5,\)$"),
        (1, (1, 5), None, r"^expected investments of shape \(5,\), got shape \(1, 5\)$"),
        (3, (3, 5), 1.5, r"^investments must be finite numbers in \[0, 1\]$"),
        (3, (3, 5), np.nan, r"^investments must be finite numbers in \[0, 1\]$"),
        (3, (3, 5), -0.1, r"^investments must be finite numbers in \[0, 1\]$"),
        (0, (0, 5), None, r"^needs at least one dissemination$"),
    ],
    ids=["short-stack", "narrow-rows", "one-row-for-three", "stack-for-one",
         "above-one", "nan", "negative", "no-points"],
)
def test_stacked_evaluate_outcome_rejects_bad_stacks(regime, points, shape, bad, message):
    disses = [_closed_diss(ring_graph(5), p) for p in (0.2, 0.5, 0.8)][:points]
    diss = disses[0] if points == 1 else disses
    qs = np.full(shape, 0.5)
    if bad is not None:
        qs[1, 2] = bad  # one entry of one row
    with pytest.raises(ValueError, match=message):
        evaluate_outcome(diss, Params(), qs, regime)


@pytest.mark.parametrize("regime", game.REGIMES)
def test_stacked_evaluate_outcome_rejects_mixed_agent_counts(regime):
    disses = [_closed_diss(ring_graph(5), 0.5), _closed_diss(ring_graph(6), 0.5)]
    with pytest.raises(ValueError, match="^stacked disseminations disagree on the number of agents$"):
        evaluate_outcome(disses, Params(), np.full((2, 5), 0.5), regime)


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

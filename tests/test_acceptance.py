"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with `pytest -s tests/test_acceptance.py`).

Every tolerance and runtime budget is pinned here; the tests compare the
library against independent oracles (subset enumeration, simplex grid
search, finite differences) rather than against itself.
"""

import functools
import itertools
import time

import numpy as np

from netsec import cli
from netsec.attack import (
    attacker_payoff,
    optimal_attack,
)
from netsec.dissemination import (
    Params,
    complete_docs,
    complete_pair_reach,
    p_for_half_coverage,
    reach_closed_form,
    reach_exact,
    reach_monte_carlo,
    ring_docs,
    topology_docs,
)
from netsec.game import (
    _welfare_and_gradient,
    best_response_dynamics,
    find_crossover_p,
    nash_random,
    nash_strategic_vt,
    social_optimum_numeric,
    social_optimum_random,
)
from netsec.graph import build_topology, ring_graph
from oracles import (
    complete_connected_probability,
    complete_pair_bounds,
    kkt_residual,
    star_sacrificial_lamb,
    star_uniform_attack_strategy,
)

P_GRID = [round(0.1 * k, 1) for k in range(1, 10)]


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {description}")
                raise
            print(f"[PASS] criterion {number}: {description}")

        return wrapper

    return decorate


@criterion(1, "closed forms match exact edge-subset counts (1e-10); K2/K3 values exact")
def test_criterion_1_dissemination_oracle_equivalence():
    start = time.perf_counter()
    cases = (
        [("ring", n) for n in range(3, 7)]
        + [("star", n) for n in range(2, 7)]
        + [("complete", n) for n in range(2, 7)]
    )
    for kind, n in cases:
        g = build_topology(kind, n)
        for p in P_GRID:
            exact = reach_exact(g, p)
            closed = reach_closed_form(g, p)
            assert np.abs(exact.reach - closed.reach).max() <= 1e-10
    for p in P_GRID:
        assert complete_pair_reach(2, p) == p
        assert complete_pair_reach(3, p) == p + p**2 - p**3
    assert time.perf_counter() - start < 10.0


def connected_subset_counts(n, edges):
    """Oracle: entry k counts the k-edge subsets of `edges` that connect all n agents.

    Brute force over every subset, growing the set reached from agent 0
    until no kept edge leaves it.
    """
    counts = np.zeros(len(edges) + 1)
    for k in range(n - 1, len(edges) + 1):  # fewer edges cannot connect n agents
        for kept in itertools.combinations(edges, k):
            reached = {0}
            grew = True
            while grew:
                grew = False
                for u, v in kept:
                    if (u in reached) != (v in reached):
                        reached.update((u, v))
                        grew = True
            counts[k] += len(reached) == n
    return counts


@criterion(2, "all-reach recursion matches enumeration (1e-10); pair reach inside bounds to n=30")
def test_criterion_2_all_reach_recursion():
    start = time.perf_counter()
    for k in range(1, 7):
        counts = connected_subset_counts(k, list(itertools.combinations(range(k), 2)))
        m = counts.size - 1
        sizes = np.arange(m + 1)
        for p in P_GRID:
            value = complete_connected_probability(k, p)
            oracle = float(counts @ (p**sizes * (1.0 - p) ** (m - sizes)))
            assert abs(value - oracle) <= 1e-10
    for n in range(2, 31):
        for p in P_GRID:
            lo, hi = complete_pair_bounds(n, p)
            value = complete_pair_reach(n, p)
            assert lo - 1e-12 <= value <= hi + 1e-12
    assert time.perf_counter() - start < 5.0


@criterion(3, "Monte Carlo: >=99% of entries within 4 binomial standard errors")
def test_criterion_3_monte_carlo_calibration():
    start = time.perf_counter()
    g = ring_graph(6)
    closed = reach_closed_form(g, 0.5).reach
    within = total = 0
    for seed in range(20):
        mc = reach_monte_carlo(g, 0.5, 100_000, seed=seed)
        deviation = np.abs(mc.reach - closed)
        within += int((deviation <= 4.0 * mc.std_err).sum())
        total += deviation.size
    assert within / total >= 0.99
    assert time.perf_counter() - start < 30.0


@criterion(4, "attack KKT residual<=1e-9 and sum(a)=1 (1e-12) on 1000 instances; grid-search match; uniform exact")
def test_criterion_4_attack_solver():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(2, 15))
        q = rng.random(n)
        docs = 1.0 + rng.random(n) * (n - 1)
        omega = 1.0 + 4.0 * rng.random()
        sol = optimal_attack(q, docs, omega)
        assert kkt_residual(sol, q, docs, omega) <= 1e-9
        assert abs(sol.a.sum() - 1.0) <= 1e-12
        assert (sol.a >= 0.0).all()

    mesh = 1e-3
    ticks = np.arange(0.0, 1.0 + mesh / 2, mesh)
    a1, a2 = np.meshgrid(ticks, ticks, indexing="ij")
    a3 = 1.0 - a1 - a2
    invalid = a3 < -1e-12
    for _ in range(10):
        q = rng.random(3)
        docs = 1.0 + 2.0 * rng.random(3)
        omega = 1.0 + rng.random()
        v = (1.0 - q) * docs
        payoff = (
            a1 * v[0] + a2 * v[1] + a3 * v[2]
            - 0.5 * omega * (a1**2 + a2**2 + a3**2)
        )
        payoff[invalid] = -np.inf
        i, j = np.unravel_index(int(np.argmax(payoff)), payoff.shape)
        grid_best = np.array([a1[i, j], a2[i, j], max(a3[i, j], 0.0)])
        sol = optimal_attack(q, docs, omega)
        assert np.abs(sol.a - grid_best).max() <= 2 * mesh
        assert attacker_payoff(sol.a, q, docs, omega) >= payoff[i, j] - 1e-9

    for n in (3, 5, 9):
        sol = optimal_attack(np.full(n, 0.4), np.full(n, 2.0), 1.0)
        assert np.array_equal(sol.a, np.full(n, 1.0 / n))
    assert time.perf_counter() - start < 20.0


@criterion(5, "welfare gradients through the attack match central finite differences (1e-6) on 100 interior instances")
def test_criterion_5_sensitivity():
    rng = np.random.default_rng(99)
    step = 1e-5
    count = 0
    while count < 100:
        n = int(rng.integers(3, 9))
        docs = 1.0 + 0.5 * rng.random(n)
        q = 0.2 + 0.2 * rng.random(n)
        omega = 1.0 + rng.random()
        alpha = 1.0 + rng.random()
        sol = optimal_attack(q, docs, omega)
        if sol.n_star < n or sol.a.min() < 1e-3:
            continue
        count += 1
        # The solver's kernel takes stacks: each point is a one-row stack.
        grad = _welfare_and_gradient(q[None], docs[None], alpha, omega)[1][0]
        fd = np.zeros(n)
        for j in range(n):
            up, down = q.copy(), q.copy()
            up[j] += step
            down[j] -= step
            fd[j] = (
                _welfare_and_gradient(up[None], docs[None], alpha, omega)[0][0]
                - _welfare_and_gradient(down[None], docs[None], alpha, omega)[0][0]
            ) / (2 * step)
        assert np.abs(grad - fd).max() <= 1e-6


@criterion(6, "closed-form equilibria reproduce their formulas; p=1 endpoints exact")
def test_criterion_6_closed_form_equilibria():
    for n in (3, 5, 8):
        for alpha in (1.0, 2.0):
            assert (nash_random(n, alpha) == 1.0 / (alpha * n)).all()
            for p in P_GRID:
                docs = topology_docs("star", n, p)
                assert np.array_equal(social_optimum_random(docs, alpha), docs / (alpha * n))
                for omega in (1.0, 2.5):
                    d = ring_docs(n, p)
                    q = nash_strategic_vt(d, n, alpha, omega)[0]
                    assert q == ((n - d) * d + omega) / ((n - d) * d + alpha * n * omega)
                assert social_optimum_random(np.full(n, d), alpha)[0] == d / (alpha * n)
    # n=5, alpha=omega=1, p=1: exact endpoint values
    for d_at_one in (ring_docs(5, 1.0), complete_docs(5, 1.0)):
        assert d_at_one == 5.0
        assert nash_strategic_vt(d_at_one, 5, 1.0, 1.0)[0] == 0.2
        assert nash_random(5, 1.0)[0] == 0.2
        assert social_optimum_random(np.full(5, d_at_one), 1.0)[0] == 1.0


@criterion(7, "iterative solvers match closed forms within 1e-5 per agent on ring and complete")
def test_criterion_7_iterative_vs_closed_form():
    start = time.perf_counter()
    for kind in ("ring", "complete"):
        g = build_topology(kind, 5)
        for p in P_GRID:
            diss = reach_closed_form(g, p)
            params = Params()
            nash = best_response_dynamics(diss, params)
            expected_nash = nash_strategic_vt(diss.expected_docs.mean(), 5, 1.0, 1.0)
            assert np.abs(nash.q - expected_nash).max() <= 1e-5
            # The strategic optimum is the random one on these graphs.
            opt = social_optimum_numeric(diss, params)
            expected_opt = social_optimum_random(diss.expected_docs, 1.0)
            assert np.abs(opt.q - expected_opt).max() <= 1e-5
    assert time.perf_counter() - start < 60.0


def _sweep_csv(tmp_path, topology, n=5):
    out = tmp_path / f"{topology}.csv"
    code = cli.main(
        [
            "sweep-investments", "--topology", topology, "--n", str(n),
            "--p-grid", "0:1:101", "--alpha", "1", "--omega", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, rows


def _sign_changes(values, noise=1e-7):
    signs = [v for v in values if abs(v) > noise]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


@criterion(8, "101-point sweeps reproduce the over/under-investment structure of the figures")
def test_criterion_8_figure_reproduction(tmp_path):
    start = time.perf_counter()
    grid_step = 0.01
    for topology in ("complete", "ring"):
        header, rows = _sweep_csv(tmp_path, topology)
        col = {name: idx for idx, name in enumerate(header)}
        p = rows[:, col["p"]]
        q_nr, q_ns, q_os = (rows[:, col[c]] for c in ("q_NR", "q_NS", "q_OS"))
        assert (q_ns >= q_nr - 1e-9).all()
        assert _sign_changes(q_ns - q_os) == 1
        # unimodal with the peak at the half-coverage probability
        diffs = [d for d in np.diff(q_ns) if abs(d) > 1e-13]
        assert sum(1 for a, b in zip(diffs, diffs[1:]) if (a > 0) != (b > 0)) == 1
        p_hat = p_for_half_coverage(build_topology(topology, 5), tolerance=1e-12)
        assert abs(p[np.argmax(q_ns)] - p_hat) <= grid_step + 1e-9

    header, rows = _sweep_csv(tmp_path, "star")
    col = {name: idx for idx, name in enumerate(header)}
    for agent_class, agent in (("center", 0), ("leaf", 1)):
        q_nr = rows[:, col[f"q_NR_{agent}"]]
        q_ns = rows[:, col[f"q_NS_{agent}"]]
        q_os = rows[:, col[f"q_OS_{agent}"]]
        assert (q_ns >= q_nr - 1e-6).all(), agent_class
        assert _sign_changes(q_ns - q_os, noise=1e-6) == 1, agent_class

    assert find_crossover_p("complete", 5, 1.0, 1.0)[0] < find_crossover_p("ring", 5, 1.0, 1.0)[0]
    assert time.perf_counter() - start < 120.0


@criterion(9, "star strategies: uniform 0.78125/node, lamb 0.75/node (0.01), uniform beats lamb")
def test_criterion_9_star_strategies():
    start = time.perf_counter()
    uniform = star_uniform_attack_strategy(500, 0.5, 1.0)
    assert abs(uniform.welfare / 500 - 0.78125) <= 0.01
    lamb = star_sacrificial_lamb(500, 0.5, 1.0, 1.0)
    assert abs(lamb.welfare_bound / 500 - 0.75) <= 0.01
    assert (
        star_uniform_attack_strategy(50, 0.5, 1.0).welfare
        > star_sacrificial_lamb(50, 0.5, 1.0, 1.0).welfare_bound
    )
    assert time.perf_counter() - start < 1.0


@criterion(10, "property suites: monotonicity, dominance, attack ordering, comparison chain")
def test_criterion_10_property_suites():
    fine = np.linspace(0.0, 1.0, 41)
    for topology in ("ring", "star", "complete"):
        for n in (4, 6, 9):
            per_agent = np.array([topology_docs(topology, n, p) for p in fine])
            assert (np.diff(per_agent, axis=0) > 0).all()
    for n in (4, 6, 9):
        for p in fine[1:-1]:
            assert ring_docs(n, p) <= complete_docs(n, p) + 1e-12

    rng = np.random.default_rng(77)
    docs = np.full(6, 3.2)
    for _ in range(500):
        q = rng.random(6)
        sol = optimal_attack(q, docs, 1.0 + rng.random())
        for i in range(6):
            for j in range(6):
                if i == j or (sol.a[i] == 0.0 and sol.a[j] == 0.0):
                    continue
                assert (sol.a[i] < sol.a[j]) == (q[i] > q[j])

    for topology in ("ring", "complete"):
        n = 5
        disses = [reach_closed_form(build_topology(topology, n), p) for p in fine[1:-1]]
        optima = social_optimum_numeric(disses, Params())
        for p, diss, opt in zip(fine[1:-1], disses, optima):
            d = float(topology_docs(topology, n, p)[0])
            q_nr = nash_random(n, 1.0)[0]
            q_or = social_optimum_random(np.full(n, d), 1.0)[0]
            q_ns = nash_strategic_vt(d, n, 1.0, 1.0)[0]
            assert np.abs(opt.q - social_optimum_random(diss.expected_docs, 1.0)).max() <= 1e-5
            assert q_nr < q_ns
            assert q_nr < q_or

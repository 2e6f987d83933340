import numpy as np
import pytest

from netsec.attack import (
    BOUNDARY_TOL,
    _water_fill,
    attacker_payoff,
    breach_probabilities,
    expected_stolen,
    optimal_attack,
)
from netsec.dissemination import reach_closed_form, star_docs
from netsec.graph import ring_graph, star_graph
from oracles import kkt_residual, star_attack


def simplex_grid_argmax(q, docs, omega, mesh=1e-3):
    """Oracle: maximize the attacker objective over a meshed 3-simplex."""
    ticks = np.arange(0.0, 1.0 + mesh / 2, mesh)
    a1, a2 = np.meshgrid(ticks, ticks, indexing="ij")
    a3 = 1.0 - a1 - a2
    valid = a3 >= -1e-12
    v = (1.0 - np.asarray(q)) * np.asarray(docs)
    payoff = (
        a1 * v[0] + a2 * v[1] + a3 * v[2]
        - 0.5 * omega * (a1**2 + a2**2 + a3**2)
    )
    payoff[~valid] = -np.inf
    flat = int(np.argmax(payoff))
    i, j = np.unravel_index(flat, payoff.shape)
    best = np.array([a1[i, j], a2[i, j], max(a3[i, j], 0.0)])
    return best, payoff[i, j]


def random_instance(rng, n=None):
    n = n or int(rng.integers(2, 12))
    q = rng.random(n)
    docs = 1.0 + rng.random(n) * (n - 1)
    omega = 1.0 + rng.random() * 4.0
    return q, docs, omega


# ---------------------------------------------------------------------------
# optimal_attack
# ---------------------------------------------------------------------------

def test_single_agent():
    sol = optimal_attack([0.3], [1.0], 2.0)
    assert sol.a[0] == 1.0
    assert sol.lam == pytest.approx(2.0 - 0.7, abs=1e-15)
    assert sol.n_star == 1


def test_uniform_investments_give_exactly_uniform_attack():
    for n in (2, 3, 5, 8):
        sol = optimal_attack(np.full(n, 0.37), np.full(n, 2.5), 1.5)
        assert np.array_equal(sol.a, np.full(n, 1.0 / n))
        assert sol.n_star == n


def test_kkt_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(300):
        q, docs, omega = random_instance(rng)
        sol = optimal_attack(q, docs, omega)
        assert abs(sol.a.sum() - 1.0) <= 1e-12
        assert (sol.a >= 0.0).all()
        assert sol.n_star >= 1
        assert kkt_residual(sol, q, docs, omega) <= 1e-9


def test_active_set_matches_positive_entries():
    rng = np.random.default_rng(3)
    for _ in range(50):
        q, docs, omega = random_instance(rng)
        sol = optimal_attack(q, docs, omega)
        assert set(sol.active.tolist()) == set(np.nonzero(sol.a > 0)[0].tolist())


def test_matches_simplex_grid_search():
    rng = np.random.default_rng(5)
    for _ in range(20):
        q, docs, omega = random_instance(rng, n=3)
        sol = optimal_attack(q, docs, omega)
        best, best_payoff = simplex_grid_argmax(q, docs, omega)
        assert np.abs(sol.a - best).max() <= 2e-3
        assert attacker_payoff(sol.a, q, docs, omega) >= best_payoff - 1e-9


def test_ring4_grid_oracle():
    g = ring_graph(4)
    docs = reach_closed_form(g, 0.5).expected_docs
    rng = np.random.default_rng(1)
    q = rng.random(4)
    sol = optimal_attack(q, docs, 1.0)
    # reduce to a 3-agent oracle is not possible; check optimality instead
    assert kkt_residual(sol, q, docs, 1.0) <= 1e-12
    for _ in range(200):
        probe = rng.dirichlet(np.ones(4))
        assert attacker_payoff(sol.a, q, docs, 1.0) >= attacker_payoff(
            probe, q, docs, 1.0
        ) - 1e-12


def test_vertex_transitive_order_inversion():
    # On equal-docs networks, more protection means a strictly smaller
    # attack share, whenever at least one of the pair is attacked at all.
    rng = np.random.default_rng(21)
    docs = np.full(6, 3.0)
    for _ in range(500):
        q = rng.random(6)
        sol = optimal_attack(q, docs, 1.0 + rng.random())
        for i in range(6):
            for j in range(6):
                if i == j or (sol.a[i] == 0.0 and sol.a[j] == 0.0):
                    continue
                assert (sol.a[i] < sol.a[j]) == (q[i] > q[j])


def test_full_protection_caps_attack_share():
    rng = np.random.default_rng(2)
    docs = np.full(5, 2.2)
    for _ in range(100):
        q = rng.random(5)
        q[0] = 1.0
        sol = optimal_attack(q, docs, 1.0)
        assert sol.a[0] <= 1.0 / 5 + 1e-12


def test_solution_continuity_along_q_path():
    g = ring_graph(5)
    docs = reach_closed_form(g, 0.6).expected_docs
    rng = np.random.default_rng(8)
    q_from, q_to = rng.random(5), rng.random(5)
    steps = 400
    lipschitz = 2 * 5 * docs.max() / 1.0
    prev = optimal_attack(q_from, docs, 1.0).a
    for t in range(1, steps + 1):
        q = q_from + (q_to - q_from) * t / steps
        cur = optimal_attack(q, docs, 1.0).a
        assert np.abs(cur - prev).max() <= lipschitz / steps
        prev = cur


def test_rejects_bad_inputs():
    with pytest.raises(ValueError, match="omega"):
        optimal_attack([0.5, 0.5], [2.0, 2.0], 0.5)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        optimal_attack([1.5, 0.5], [2.0, 2.0], 1.0)
    with pytest.raises(ValueError, match="documents"):
        optimal_attack([0.5, 0.5], [0.5, 2.0], 1.0)


def _solution_bytes(sol):
    return sol.a.tobytes(), repr(sol.lam), sol.active.tobytes()


def test_stack_matches_one_dimensional_calls():
    rng = np.random.default_rng(41)
    for n in (1, 2, 3, 7, 12):
        q = rng.random((9, n))
        docs = 1.0 + rng.random((9, n)) * n
        q[0], docs[0] = 0.37, 2.5  # all values equal: the exact uniform attack
        q[1, 0] = 1.0  # one value zero
        docs[2] = docs[2, 0]  # equal documents, unequal investments
        omega = 1.0 + rng.random() * 4.0
        stacked = optimal_attack(q, docs, omega)
        assert [_solution_bytes(sol) for sol in stacked] == [
            _solution_bytes(optimal_attack(q_b, d_b, omega)) for q_b, d_b in zip(q, docs)
        ]
        arrays = [(sol.a, sol.active) for sol in stacked]
        assert not any(arr.flags.writeable for pair in arrays for arr in pair)
        for j, pair in enumerate(arrays):
            assert not any(np.shares_memory(x, y) for other in arrays[j + 1 :] for x in pair for y in other)


@pytest.mark.parametrize(
    "q_shape, docs_shape",
    [((3, 4), (3, 5)), ((3, 4), (2, 4)), ((4,), (3, 4)), ((3, 4), (4,)), ((2, 3, 4), (2, 3, 4))],
    ids=["row-width", "row-count", "row-for-stack", "stack-for-row", "three-dimensional"],
)
def test_rejects_stacks_of_other_shapes(q_shape, docs_shape):
    with pytest.raises(ValueError, match=r"^q and docs must share an \(n,\) or \(B, n\) shape, got "):
        optimal_attack(np.full(q_shape, 0.5), np.full(docs_shape, 2.0), 1.0)


@pytest.mark.parametrize("bad", [1.5, -0.5, np.nan])
def test_rejects_one_bad_investment_in_a_stack(bad):
    q = np.full((3, 4), 0.5)
    q[2, 1] = bad
    with pytest.raises(ValueError, match=r"^investments must be finite numbers in \[0, 1\]$"):
        optimal_attack(q, np.full((3, 4), 2.0), 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_documents(bad):
    # NaN passes a plain lower-bound test, and would give an attack off the simplex.
    with pytest.raises(ValueError, match="expected documents must be finite"):
        optimal_attack([0.1, 0.2], [bad, 2.0], 1.0)


def test_documents_have_no_upper_bound():
    # Only the game's closed forms bound docs by n; the attacker's program does not.
    sol = optimal_attack([0.1, 0.2], [50.0, 2.0], 1.0)
    assert sol.a.tolist() == [1.0, 0.0]


def test_water_level_scan_accepts_exactly_one_prefix():
    # The scan condition (k-th value stays positive, (k+1)-th does not)
    # identifies one and only one prefix size on generic instances.
    rng = np.random.default_rng(33)
    for _ in range(300):
        q, docs, omega = random_instance(rng)
        v = np.sort((1.0 - q) * docs)[::-1]
        n = v.size
        lams = (omega - np.cumsum(v)) / np.arange(1, n + 1)
        accepted = [
            k
            for k in range(1, n + 1)
            if v[k - 1] + lams[k - 1] > 0
            and (k == n or v[k] + lams[k - 1] <= 0)
        ]
        assert len(accepted) == 1


def reference_water_fill(v, omega, tol=1e-12):
    """Reference: the sort-and-scan as first written, before its numpy calls
    were trimmed; the arithmetic is the same, so results must match bit for
    bit."""
    n = v.size
    if n == 1:
        return np.ones(1), float(omega - v[0]), np.arange(1)
    if v.max() == v.min():
        return np.full(n, 1.0 / n), float(omega / n - v[0]), np.arange(n)
    vs = v[np.argsort(-v, kind="stable")]
    lams = (omega - np.cumsum(vs)) / np.arange(1, n + 1)
    k = int(np.nonzero(vs + lams > tol)[0][-1]) + 1
    lam = float(lams[k - 1])
    lam += (1.0 - np.maximum(v + lam, 0.0).sum() / omega) * omega / k
    a = np.maximum(v + lam, 0.0) / omega
    a[v + lam <= tol] = 0.0
    return a, lam, np.nonzero(a > 0.0)[0]


def test_water_fill_kernel_matches_checked_solver():
    # The solvers call the unchecked kernel directly; a one-row stack must
    # return exactly what the checked entry point and the reference scan
    # do, on generic values, ties, all-equal values and a single agent.
    rng = np.random.default_rng(11)
    cases = [random_instance(rng) for _ in range(50)]
    cases += [random_instance(rng, n) for n in (30, 200) for _ in range(5)]
    cases += [
        (np.array([0.2, 0.2, 0.5, 0.2]), np.array([3.0, 3.0, 1.0, 3.0]), 1.0),
        (np.array([0.0, 0.5, 0.0, 0.5]), np.array([2.0, 4.0, 2.0, 4.0]), 2.5),
        (np.full(6, 0.4), np.full(6, 2.0), 1.0),
        (np.full(3, 1.0), np.full(3, 1.5), 3.0),
        (np.array([0.3]), np.array([1.0]), 2.0),
    ]
    for q, docs, omega in cases:
        v = (1.0 - q) * docs
        before = v.copy()
        a, lam, active = _water_fill(v[None], omega)
        assert np.array_equal(v, before)
        assert a.shape == active.shape == (1, v.size) and lam.shape == (1,)
        sol = optimal_attack(q, docs, omega)
        for expected in ((sol.a, sol.lam, sol.active), reference_water_fill(v, omega)):
            assert np.array_equal(a[0], expected[0])
            assert lam[0] == expected[1]
            assert np.array_equal(active[0].nonzero()[0], expected[2])


def test_breach_probabilities_rows_match_single_points():
    rng = np.random.default_rng(4)
    for n in (1, 4, 9):
        a, q, reach = rng.random((5, n)), rng.random((5, n)), rng.random((5, n, n))
        stacked = breach_probabilities(a, q, reach)
        for b in range(5):
            assert np.array_equal(stacked[b], breach_probabilities(a[b], q[b], reach[b]))
            assert np.array_equal(stacked[b], reach[b] @ (a[b] * (1.0 - q[b])))


def _random_stack(rng, rows, n, omega):
    """A (rows, n) stack of values mixing generic rows, ties, all-equal
    rows and rows with a value within BOUNDARY_TOL of the water level."""
    v = rng.random((rows, n)) * n
    for b in range(rows):
        kind = rng.integers(4)
        if kind == 1:  # ties among a few levels
            v[b] = rng.integers(3, size=n) * 0.5
        elif kind == 2:
            v[b] = v[b, 0]
        elif kind == 3 and n > 1:  # one inactive value at the level, nudged
            lam = reference_water_fill(v[b], omega)[1]
            v[b, rng.integers(n)] = -lam + rng.choice([-2e-12, -5e-13, 0.0, 5e-13, 2e-12])
    return v


def test_water_fill_rows_match_reference_on_random_stacks():
    # Each row of a stack gets the bytes the reference scan gives it alone,
    # whatever the other rows hold.
    rng = np.random.default_rng(23)
    near_level = 0
    for _ in range(300):
        n = int(rng.choice([1, 2, 3, 5, 8, 20]))
        rows = int(rng.integers(1, 12))
        omega = float(rng.choice([0.3, 1.0, 2.5]))
        v = _random_stack(rng, rows, n, omega)
        before = v.copy()
        a, lam, active = _water_fill(v, omega)
        assert np.array_equal(v, before)
        for b in range(rows):
            ref_a, ref_lam, ref_active = reference_water_fill(v[b], omega)
            assert np.array_equal(a[b], ref_a)
            assert lam[b] == ref_lam
            assert np.array_equal(active[b].nonzero()[0], ref_active)
            near_level += bool((np.abs(v[b] + ref_lam) <= BOUNDARY_TOL).any())
    assert near_level >= 50


# ---------------------------------------------------------------------------
# Sensitivity
# ---------------------------------------------------------------------------

def finite_difference_jacobian(q, docs, omega, step=1e-5):
    n = len(q)
    jac = np.zeros((n, n))
    for j in range(n):
        up, down = np.array(q, dtype=float), np.array(q, dtype=float)
        up[j] += step
        down[j] -= step
        jac[:, j] = (optimal_attack(up, docs, omega).a - optimal_attack(down, docs, omega).a) / (
            2 * step
        )
    return jac


def region_jacobian(sol, docs, omega):
    """Oracle: d a_i / d q_j inside the active-set region of sol.

    With k active agents, d a_i / d q_i = -((k - 1) / (omega k)) docs_i and
    d a_i / d q_j = docs_j / (omega k) on the active set; rows and columns
    of inactive agents are zero.
    """
    docs = np.asarray(docs, dtype=float)
    act, k = sol.active, sol.n_star
    block = np.tile(docs[act] / (omega * k), (k, 1))
    np.fill_diagonal(block, -(k - 1) * docs[act] / (omega * k))
    jac = np.zeros((sol.a.size, sol.a.size))
    jac[np.ix_(act, act)] = block
    return jac


def test_sensitivity_matches_finite_differences_ring():
    g = ring_graph(5)
    docs = reach_closed_form(g, 0.5).expected_docs
    q = np.full(5, 0.2)
    sol = optimal_attack(q, docs, 1.0)
    fd = finite_difference_jacobian(q, docs, 1.0)
    assert np.abs(region_jacobian(sol, docs, 1.0) - fd).max() <= 1e-6


def test_sensitivity_interior_random_instances():
    rng = np.random.default_rng(17)
    count = 0
    while count < 100:
        n = int(rng.integers(3, 8))
        docs = 1.0 + rng.random(n) * 0.5
        q = 0.2 + 0.2 * rng.random(n)
        omega = 1.0 + rng.random()
        sol = optimal_attack(q, docs, omega)
        if sol.n_star < n or sol.a.min() < 1e-3:
            continue  # keep the active set stable across the fd step
        count += 1
        fd = finite_difference_jacobian(q, docs, omega)
        assert np.abs(region_jacobian(sol, docs, omega) - fd).max() <= 1e-6


def test_sensitivity_zero_for_single_active_agent():
    q, docs = [0.1, 0.9, 0.9], [3.0, 1.0, 1.0]
    assert optimal_attack(q, docs, 1.0).n_star == 1
    assert np.array_equal(finite_difference_jacobian(q, docs, 1.0), np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# Damage quantities
# ---------------------------------------------------------------------------

def test_breach_zero_under_full_protection():
    g = ring_graph(4)
    reach = reach_closed_form(g, 0.5).reach
    a = np.full(4, 0.25)
    assert breach_probabilities(a, np.ones(4), reach).max() == 0.0


def test_breach_self_attack_unprotected():
    g = ring_graph(4)
    reach = reach_closed_form(g, 0.5).reach
    a = np.array([0.0, 1.0, 0.0, 0.0])
    assert breach_probabilities(a, np.zeros(4), reach)[1] == 1.0


def test_breach_star_center_hand_value():
    # a uniform, q = 0, p = 0.5 on a 3-star: (1 + 0.5 + 0.5) / 3
    g = star_graph(3)
    reach = reach_closed_form(g, 0.5).reach
    a = np.full(3, 1 / 3)
    assert breach_probabilities(a, np.zeros(3), reach)[0] == pytest.approx(2 / 3, abs=1e-12)


def test_expected_stolen_trivial_cases():
    docs = np.array([2.0, 3.0, 1.5])
    a = np.full(3, 1 / 3)
    assert expected_stolen(a, np.ones(3), docs) == 0.0
    assert expected_stolen(a, np.zeros(3), docs) == pytest.approx(docs.mean(), abs=1e-12)


def test_stolen_equals_breach_sum():
    rng = np.random.default_rng(12)
    g = ring_graph(6)
    diss = reach_closed_form(g, 0.7)
    for _ in range(30):
        q = rng.random(6)
        a = rng.dirichlet(np.ones(6))
        total = breach_probabilities(a, q, diss.reach).sum()
        assert total == pytest.approx(expected_stolen(a, q, diss.expected_docs), abs=1e-12)


def test_attacker_payoff_uniform_formula():
    n, q_bar, d, omega = 5, 0.3, 2.4, 1.7
    a = np.full(n, 1 / n)
    value = attacker_payoff(a, np.full(n, q_bar), np.full(n, d), omega)
    assert value == pytest.approx((1 - q_bar) * d - omega / (2 * n), abs=1e-12)


def test_attacker_payoff_optimality_beats_uniform():
    rng = np.random.default_rng(9)
    for _ in range(100):
        q, docs, omega = random_instance(rng)
        n = len(q)
        sol = optimal_attack(q, docs, omega)
        assert attacker_payoff(sol.a, q, docs, omega) >= attacker_payoff(
            np.full(n, 1 / n), q, docs, omega
        ) - 1e-12


def test_attacker_payoff_rejects_off_simplex():
    with pytest.raises(ValueError, match="simplex"):
        attacker_payoff([0.5, 0.6], [0.1, 0.1], [2.0, 2.0], 1.0)


@pytest.mark.parametrize("a", [
    [np.nan, np.nan],
    [np.nan, 1.0],
    [np.inf, 0.0],
    [np.inf, -np.inf],
])
def test_attacker_payoff_rejects_non_finite_attack(a):
    with pytest.raises(ValueError, match="simplex"):
        attacker_payoff(a, [0.1, 0.1], [2.0, 2.0], 1.0)


# ---------------------------------------------------------------------------
# Star closed form
# ---------------------------------------------------------------------------

def assemble_star_vector(n, a_center, a_leaf):
    a = np.full(n, a_leaf)
    a[0] = a_center
    return a


def test_star_attack_matches_general_solver():
    n, p, omega = 5, 0.5, 1.0
    q_center, q_leaf = 0.1, 0.4
    a_center, a_leaf = star_attack(n, p, q_center, q_leaf, omega)
    hub, leaf = star_docs(n, p)
    docs = assemble_star_vector(n, hub, leaf)
    q = assemble_star_vector(n, q_center, q_leaf)
    sol = optimal_attack(q, docs, omega)
    assert abs(a_center - sol.a[0]) <= 1e-12
    assert np.abs(a_leaf - sol.a[1:]).max() <= 1e-12


def test_star_attack_zero_gap_is_uniform():
    n, p = 6, 0.4
    hub, leaf = star_docs(n, p)
    q_leaf = 0.3
    q_center = 1.0 - (1.0 - q_leaf) * leaf / hub
    a_center, a_leaf = star_attack(n, p, q_center, q_leaf, 1.0)
    assert a_center == pytest.approx(1 / n, abs=1e-12)
    assert a_leaf == pytest.approx(1 / n, abs=1e-12)


def test_star_attack_corner_all_on_center():
    # Large n widens the document gap until the whole attack lands on a
    # lightly protected hub.
    n, p, omega = 30, 0.5, 1.0
    q_center, q_leaf = 0.0, 0.9
    hub, leaf = star_docs(n, p)
    gap = hub - (1 - q_leaf) * leaf
    assert omega <= gap
    assert star_attack(n, p, q_center, q_leaf, omega) == (1.0, 0.0)
    docs = assemble_star_vector(n, hub, leaf)
    q = assemble_star_vector(n, q_center, q_leaf)
    sol = optimal_attack(q, docs, omega)
    assert sol.a[0] == 1.0 and sol.n_star == 1


def test_star_attack_corner_all_on_leaves():
    n, p, omega = 40, 0.6, 1.0
    q_center, q_leaf = 1.0, 0.0
    hub, leaf = star_docs(n, p)
    gap = (1 - q_center) * hub - leaf
    assert omega <= -(n - 1) * gap
    a_center, a_leaf = star_attack(n, p, q_center, q_leaf, omega)
    assert a_center == 0.0
    assert a_leaf == pytest.approx(1 / (n - 1), abs=1e-15)
    docs = assemble_star_vector(n, hub, leaf)
    q = assemble_star_vector(n, q_center, q_leaf)
    sol = optimal_attack(q, docs, omega)
    assert sol.a[0] == 0.0
    assert np.abs(sol.a[1:] - 1 / (n - 1)).max() <= 1e-12


def test_star_attack_interior_sign():
    # Positive gap just below omega: interior solution with the hub more
    # exposed than the leaves.
    n, p, omega = 5, 0.5, 1.0
    hub, leaf = star_docs(n, p)
    q_leaf = 0.5
    target_gap = 0.9 * omega
    q_center = 1.0 - ((1 - q_leaf) * leaf + target_gap) / hub
    a_center, a_leaf = star_attack(n, p, q_center, q_leaf, omega)
    assert a_center > a_leaf > 0.0

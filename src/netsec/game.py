"""Equilibria and social optima of the two-stage security game.

Defenders pick investments q first; the attacker best-responds.  Against a
random (uniform) attack both the Nash equilibrium and the social optimum
have closed forms on any graph.  Against a strategic attack, closed forms
exist when every agent expects the same document count (vertex-transitive
networks); general graphs are handled by best-response dynamics and
projected Newton ascent on welfare.  An agent's reward is piecewise
quadratic in its own investment, one piece per attacker active set, with
upward kinks between pieces: best responses walk those pieces exactly,
and a pure strategic equilibrium need not exist.  Both solvers check their
inputs once on entry; welfare and rewards come from the unchecked
water-fill kernel `_water_fill`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attack import (
    AttackSolution,
    _as_security,
    _water_fill,
    breach_probabilities,
    expected_stolen,
    optimal_attack,
)
from .dissemination import (
    Dissemination,
    Params,
    _check_cost,
    complete_docs,
    ring_docs,
    star_docs,
)
from .graph import COMPLETE, RING, Graph

NASH_RANDOM = "nash-random"
OPT_RANDOM = "opt-random"
NASH_STRATEGIC = "nash-strategic"
OPT_STRATEGIC = "opt-strategic"

REGIMES = (NASH_RANDOM, OPT_RANDOM, NASH_STRATEGIC, OPT_STRATEGIC)

_HOMOGENEITY_TOL = 1e-9


class NonConvergenceError(RuntimeError):
    """An iterative solver ran out of iterations.

    Carries the last iterate and its residual so callers can inspect or
    restart.
    """

    def __init__(self, message, last_q=None, residual=None, iterations=None):
        super().__init__(message)
        self.last_q = last_q
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class GameOutcome:
    """Investments with the induced attack, per-agent rewards, and welfare."""

    q: np.ndarray
    attack_vector: np.ndarray
    rewards: np.ndarray
    welfare: float
    regime: str
    attack: AttackSolution | None = None

    def __post_init__(self):
        for name in ("q", "attack_vector", "rewards"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def evaluate_outcome(
    diss: Dissemination, params: Params, q, regime: str
) -> GameOutcome:
    """Assemble a GameOutcome for given investments under a regime.

    Strategic regimes face the attacker's best response; random regimes
    face the uniform attack.  Every regime requires n investments in [0, 1].
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    n = diss.n
    q = _as_security(q, n)
    docs = diss.expected_docs
    sol = None
    if regime in (NASH_STRATEGIC, OPT_STRATEGIC):
        sol = optimal_attack(q, docs, params.omega)
        a = sol.a
    else:
        a = np.full(n, 1.0 / n)
    rewards = 1.0 - breach_probabilities(a, q, diss.reach) - 0.5 * params.alpha * q**2
    welfare = n - expected_stolen(a, q, docs) - 0.5 * params.alpha * float(q @ q)
    return GameOutcome(q, a, rewards, welfare, regime, attack=sol)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def nash_random(n: int, alpha: float) -> np.ndarray:
    """Equilibrium against a uniform random attack: q_i = 1 / (alpha n).

    Independent of the transmission probability and of the topology.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_cost("alpha", alpha)
    return np.full(n, 1.0 / (alpha * n))


def social_optimum_random(docs, alpha: float) -> np.ndarray:
    """Socially optimal investments against a random attack: docs_i / (alpha n)."""
    docs = np.atleast_1d(np.asarray(docs, dtype=float))
    n = docs.size
    _check_cost("alpha", alpha)
    if (docs > n + 1e-9).any() or (docs < 1.0 - 1e-9).any():
        raise ValueError("expected documents must lie in [1, n]")
    return docs / (alpha * n)


def _is_homogeneous(docs) -> bool:
    """Whether all agents expect the same document count, so the
    vertex-transitive closed forms apply."""
    arr = np.atleast_1d(np.asarray(docs, dtype=float))
    return bool(arr.max() - arr.min() <= _HOMOGENEITY_TOL)


def _homogeneous_docs(docs, n: int | None) -> tuple[float, int]:
    arr = np.atleast_1d(np.asarray(docs, dtype=float))
    if arr.size > 1:
        if not _is_homogeneous(arr):
            raise ValueError(
                "expected-document entries differ; this closed form only "
                "applies when all agents expect the same count"
            )
        if n is None:
            n = arr.size
        elif n != arr.size:
            raise ValueError(f"docs has length {arr.size} but n={n}")
        return float(arr.mean()), n
    if n is None:
        raise ValueError("n is required when docs is a scalar")
    return float(arr[0]), n


def social_optimum_strategic_vt(docs, n: int | None = None, alpha: float = 1.0) -> np.ndarray:
    """Social optimum against a strategic attack on a vertex-transitive network.

    Equals the random-attack optimum docs / (alpha n): the optimal uniform
    investments make the attack probabilities uniform, voiding the
    attacker's strategic edge.
    """
    d, n = _homogeneous_docs(docs, n)
    _check_cost("alpha", alpha)
    return np.full(n, d / (alpha * n))


def nash_strategic_vt(
    docs, n: int | None = None, alpha: float = 1.0, omega: float = 1.0
) -> np.ndarray:
    """Equilibrium against a strategic attack on a vertex-transitive network.

    q_i = ((n - d) d + omega) / ((n - d) d + alpha n omega) with d the
    common expected-document count.
    """
    d, n = _homogeneous_docs(docs, n)
    _check_cost("alpha", alpha)
    _check_cost("omega", omega)
    spread = (n - d) * d
    return np.full(n, (spread + omega) / (spread + alpha * n * omega))


# ---------------------------------------------------------------------------
# Iterative solvers
# ---------------------------------------------------------------------------

def _best_response(i, q, docs, reach, alpha, omega):
    """Agent i's exact global best response q_i in [0, 1] to the others' q.

    The reward is continuous and piecewise quadratic in q_i, one piece per
    attacker active set, with upward kinks where the set changes.  Write
    y = 1 - q_i.  While agent i is attacked, the water level is
    lam = lam0 - y docs_i / k with k attacked agents, so as q_i rises the
    others join the active set as a growing prefix of their values
    v_j = (1 - q_j) docs_j sorted descending, and agent i's own level
    lam0 + y docs_i (k - 1) / k falls until i leaves, at most once.  The
    walk visits these at most n regions, takes each region's stationary
    point in closed form from prefix sums, clipped to the region, and
    keeps the best (ties to the smallest q_i).  Once agent i is not
    attacked only its own cost moves, so an agent not attacked at q_i = 0
    best-responds with 0.  No water-fill is called.
    """
    n = q.size
    others = np.arange(n) != i
    v = ((1.0 - q) * docs)[others]
    order = (-v).argsort(kind="stable")
    s = v[order]
    w = ((1.0 - q) * reach[i])[others][order]
    d, r = docs[i], reach[i, i]
    m = np.arange(n)  # attacked others in region m
    k = m + 1.0
    lam0 = (omega - np.concatenate(([0.0], s.cumsum()))) / k
    weight = np.concatenate(([0.0], w.cumsum()))
    held = np.concatenate(([0.0], (s * w).cumsum()))
    # Region m spans y in [y_lo, y_hi]: the next other enters at the
    # bottom unless agent i leaves first (never when alone, m = 0, where
    # the bound comes out negative).
    enter = np.append(k[:-1] * (s + lam0[:-1]) / d, -np.inf)
    leave = -k * lam0 / (d * np.maximum(m, 1))
    y_hi = np.minimum(np.concatenate(([np.inf], enter[:-1])), 1.0)
    y_lo = np.maximum(np.maximum(enter, leave), 0.0)
    valid = np.flatnonzero(y_lo <= y_hi)
    if valid.size == 0:
        return 0.0
    # reward - 1 = -(held + weight lam0) / omega - lin y - quad y^2
    #              - alpha (1 - y)^2 / 2 within region m.
    lin = (r * lam0 - weight * d / k) / omega
    quad = r * d * m / (k * omega)
    y = np.clip((alpha - lin) / (alpha + 2.0 * quad), y_lo, y_hi)[valid]
    reward = (
        -(held + weight * lam0)[valid] / omega
        - (lin[valid] + quad[valid] * y) * y
        - 0.5 * alpha * (1.0 - y) ** 2
    )
    return 1.0 - float(y[reward.argmax()])


def _rewards(q, docs, reach, alpha, omega):
    """Every agent's reward at q against the attacker's best response."""
    a = _water_fill((1.0 - q) * docs, omega)[0]
    return 1.0 - breach_probabilities(a, q, reach) - 0.5 * alpha * q**2


def _nash_gap(q, docs, reach, alpha, omega):
    """Largest reward an agent gains by deviating alone to its exact best
    response, and that agent; zero, up to rounding, at a Nash equilibrium."""
    base = _rewards(q, docs, reach, alpha, omega)
    gains = np.empty(q.size)
    for i in range(q.size):
        deviation = q.copy()
        deviation[i] = _best_response(i, q, docs, reach, alpha, omega)
        gains[i] = _rewards(deviation, docs, reach, alpha, omega)[i] - base[i]
    agent = int(gains.argmax())
    return float(gains[agent]), agent


def best_response_dynamics(
    g: Graph,
    diss: Dissemination,
    params: Params,
    q0=None,
    tol: float = 1e-8,
    max_iter: int = 500,
) -> GameOutcome:
    """Cyclic exact best-response iteration for the strategic investment game.

    Agents update in fixed ascending order.  Once a sweep moves no
    investment by more than tol, the profile is certified by its Nash gap:
    it is returned only if no agent gains more than tol by deviating
    alone.  A pure strategic equilibrium need not exist on a general graph,
    because rewards kink upward in q_i, so NonConvergenceError (carrying
    the last iterate and its Nash gap) is raised when the gap fails, when
    a sweep ends on exactly the profile of an earlier sweep (a cycle), or
    past max_iter sweeps.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if g.n != diss.n:
        raise ValueError("graph and dissemination disagree on the number of agents")
    docs = np.asarray(diss.expected_docs, dtype=float)
    reach = diss.reach
    alpha, omega = params.alpha, params.omega
    n = g.n
    q = np.full(n, 0.5) if q0 is None else _as_security(q0, n)
    seen = {}
    for sweep in range(1, max_iter + 1):
        delta = 0.0
        for i in range(n):
            updated = _best_response(i, q, docs, reach, alpha, omega)
            delta = max(delta, abs(updated - q[i]))
            q[i] = updated
        key = q.tobytes()
        if delta <= tol or key in seen:
            break
        seen[key] = sweep
    gain, agent = _nash_gap(q, docs, reach, alpha, omega)
    if delta <= tol and gain <= tol:
        return evaluate_outcome(diss, params, q, NASH_STRATEGIC)
    if delta <= tol:
        reason = f"sweep {sweep} settled on a profile that is no equilibrium"
    elif key in seen:
        reason = f"sweep {sweep} repeats the profile of sweep {seen[key]}"
    else:
        reason = f"no convergence in {max_iter} sweeps (last sweep moved {delta:.3e})"
    raise NonConvergenceError(
        f"best-response dynamics stopped: {reason}; "
        f"agent {agent} gains {gain:.3e} by deviating alone",
        last_q=q,
        residual=gain,
        iterations=sweep,
    )


def _welfare_and_gradient(q, docs, alpha, omega):
    """Welfare at q, its gradient through the attacker's best response, and
    the attacked agents.

    All three come from one kernel call.  On the active set,
    d welfare / d q_i = docs_i (2 a_i - 1/k) - alpha q_i with k active
    agents; inactive agents only feel their own cost.  Uses the
    active-region sensitivity formula, so it is a supergradient choice at
    active-set boundaries.
    """
    v = (1.0 - q) * docs
    a, _, active = _water_fill(v, omega)
    value = docs.size - float(a @ v) - 0.5 * alpha * float(q @ q)
    grad = -alpha * q
    grad[active] += docs[active] * (2.0 * a[active] - 1.0 / active.size)
    return value, grad, active


def _newton_direction(grad, free, active, docs, alpha, omega):
    """Newton direction of the current active-set region on the free
    coordinates, zero elsewhere.

    Within a region the welfare is an exact quadratic whose negated Hessian
    on the free coordinates is diag(m) - u u' / k, with
    m_i = alpha + (2/omega) docs_i^2 on the active set (alpha off it),
    u_i = sqrt(2/omega) docs_i on the free active coordinates and k active
    agents.  Sherman-Morrison solves it in O(n); the denominator
    k - u' M^-1 u is positive because alpha > 0.
    """
    attacked = np.zeros(docs.size, dtype=bool)
    attacked[active] = True
    m = alpha + 2.0 / omega * docs**2 * attacked
    u = np.sqrt(2.0 / omega) * docs * (attacked & free)
    m_grad = np.where(free, grad, 0.0) / m
    m_u = u / m
    return m_grad + m_u * (float(u @ m_grad) / (active.size - float(u @ m_u)))


def social_optimum_numeric(
    g: Graph,
    diss: Dissemination,
    params: Params,
    tol: float = 1e-8,
    max_iter: int = 20_000,
    seed: int = 0,
) -> GameOutcome:
    """Welfare maximization over investments by projected Newton ascent.

    Runs from uniform starts {0.1, 0.5, 0.9} plus five seeded random
    starts.  Each iteration takes the Newton direction of the current
    active-set region's quadratic on the coordinates not held at a bound
    of [0, 1]^n, and halves the step from 1 until the box-projected trial
    passes the Armijo test W(trial) >= W(q) + 1e-4 g'(trial - q) (Bertsekas,
    SIAM J. Control Optim. 1982); a start that cannot pass it at any step
    has failed.  Convergence is a projected gradient norm <= tol at a fixed
    reference step, and the best-welfare converged run wins.  On graphs
    without a homogeneity guarantee the winner is the best stationary point
    found, not a certified global optimum.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if g.n != diss.n:
        raise ValueError("graph and dissemination disagree on the number of agents")
    docs = np.asarray(diss.expected_docs, dtype=float)
    alpha, omega = params.alpha, params.omega
    n = g.n
    ref_step = 1.0 / (alpha + 2.0 * float(docs.max()) ** 2 / omega)
    rng = np.random.default_rng(seed)
    starts = [np.full(n, c) for c in (0.1, 0.5, 0.9)]
    starts += [rng.random(n) for _ in range(5)]

    best_q, best_welfare = None, -np.inf
    failures = 0
    for q0 in starts:
        q = q0.copy()
        value, grad, active = _welfare_and_gradient(q, docs, alpha, omega)
        converged = False
        for _ in range(max_iter):
            if np.abs(np.clip(q + ref_step * grad, 0.0, 1.0) - q).max() <= tol * ref_step:
                converged = True
                break
            blocked = ((q <= 0.0) & (grad < 0.0)) | ((q >= 1.0) & (grad > 0.0))
            direction = _newton_direction(grad, ~blocked, active, docs, alpha, omega)
            step = 1.0
            while step > 1e-16:
                trial = np.clip(q + step * direction, 0.0, 1.0)
                evaluated = _welfare_and_gradient(trial, docs, alpha, omega)
                if evaluated[0] >= value + 1e-4 * float(grad @ (trial - q)):
                    break
                step *= 0.5
            else:
                break  # wedged: no step passes the Armijo test
            q, (value, grad, active) = trial, evaluated
        if converged:
            if value > best_welfare:
                best_q, best_welfare = q, value
        else:
            failures += 1
    if best_q is None:
        raise NonConvergenceError(
            f"no projected-gradient start converged within {max_iter} iterations "
            f"({failures} starts attempted)",
            iterations=max_iter,
        )
    return evaluate_outcome(diss, params, best_q, OPT_STRATEGIC)


# ---------------------------------------------------------------------------
# Over- vs under-investment crossover
# ---------------------------------------------------------------------------

def unique_crossover_condition(docs_value: float, n: int, alpha: float) -> bool:
    """Sufficient condition for a single over-to-under-investment crossover.

    Literal evaluation of 2 (n - d) d >= (n - 2 d)(alpha n - 1); always
    true once d >= n/2 since the right side is then non-positive.
    """
    d = float(docs_value)
    if not 1.0 - 1e-9 <= d <= n + 1e-9:
        raise ValueError(f"docs must lie in [1, n], got {d}")
    return 2.0 * (n - d) * d >= (n - 2.0 * d) * (alpha * n - 1.0)


def _vt_docs(topology: str, n: int, p: float) -> float:
    if topology == RING:
        return ring_docs(n, p)
    if topology == COMPLETE:
        return complete_docs(n, p)
    raise ValueError(
        f"closed-form crossover needs a ring or complete topology, got {topology!r}"
    )


def investment_gap(topology: str, n: int, p: float, alpha: float, omega: float) -> float:
    """Equilibrium minus optimal investment at p (positive = over-investment)."""
    return _gap_at_docs(_vt_docs(topology, n, p), n, alpha, omega)


def _gap_at_docs(d: float, n: int, alpha: float, omega: float) -> float:
    return float(nash_strategic_vt(d, n, alpha, omega)[0]) - d / (alpha * n)


def find_crossover_p(
    topology: str,
    n: int,
    alpha: float,
    omega: float,
    tol: float = 1e-10,
    details: bool = False,
):
    """Transmission probability where equilibrium investments are optimal.

    Bisects the gap between strategic equilibrium and strategic optimum on
    (0, 1), after checking it is positive near 0 and negative near 1.
    With details=True also returns every sign change found on a fine grid
    and the interval where the unique-crossover condition holds.
    """
    _check_cost("alpha", alpha)
    _check_cost("omega", omega)
    eps = 1e-9

    def gap(p):
        return investment_gap(topology, n, p, alpha, omega)

    if not (gap(eps) > 0.0 > gap(1.0 - eps)):
        raise ValueError(
            "no over-to-under-investment sign change on (0, 1); "
            f"gap({eps})={gap(eps):.3e}, gap(1-{eps})={gap(1.0 - eps):.3e}"
        )

    def bisect(lo, hi, f_lo):
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            f_mid = gap(mid)
            if f_mid == 0.0:
                return mid
            if (f_mid > 0.0) == (f_lo > 0.0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    p_star = bisect(eps, 1.0 - eps, gap(eps))
    if not details:
        return p_star

    grid = np.linspace(eps, 1.0 - eps, 1001)
    docs = [_vt_docs(topology, n, p) for p in grid]
    values = np.array([_gap_at_docs(d, n, alpha, omega) for d in docs])
    crossings = []
    for idx in np.nonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0)[0]:
        crossings.append(bisect(grid[idx], grid[idx + 1], values[idx]))
    holds = np.array([unique_crossover_condition(d, n, alpha) for d in docs])
    interval = None
    if holds.any():
        interval = (float(grid[holds][0]), float(grid[holds][-1]))
    return p_star, {
        "sign_changes": crossings,
        "condition_interval": interval,
        "condition_everywhere": bool(holds.all()),
    }


# ---------------------------------------------------------------------------
# Star-graph strategies (uniform-attack vs sacrificial lamb)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StarUniformStrategy:
    """Investments that equalize attack probabilities on a star."""

    q_center: float
    q_leaf: float
    welfare: float
    clamped: bool


@dataclass(frozen=True)
class StarLambStrategy:
    """Minimal investments that steer the whole attack onto one bare leaf."""

    feasible: bool
    welfare_bound: float
    q_center_min: float
    q_leaf_min: float


def star_uniform_attack_strategy(n: int, p: float, alpha: float) -> StarUniformStrategy:
    """Best investments among those making the attack uniform on a star.

    The a = 1/n attack requires (1-q_center) docs_center =
    (1-q_leaf) docs_leaf; optimizing welfare along that line gives the
    leaf level in closed form and the center level follows.  Values are
    clamped to [0, 1] (flagged) if the formula exits the box; welfare is
    evaluated at the uniform attack either way.
    """
    if n < 3:
        raise ValueError(f"needs n >= 3, got {n}")
    _check_cost("alpha", alpha)
    hub, leaf = star_docs(n, p)
    ratio = leaf / hub
    q_leaf = (leaf / alpha - ratio + ratio**2) / (ratio**2 + n - 1)
    clamped = not 0.0 <= q_leaf <= 1.0
    q_leaf = min(1.0, max(0.0, q_leaf))
    q_center = 1.0 - (1.0 - q_leaf) * ratio
    stolen = ((1.0 - q_center) * hub + (n - 1) * (1.0 - q_leaf) * leaf) / n
    welfare = n - stolen - 0.5 * alpha * (q_center**2 + (n - 1) * q_leaf**2)
    return StarUniformStrategy(q_center, q_leaf, welfare, clamped)


def star_sacrificial_lamb(n: int, p: float, alpha: float, omega: float) -> StarLambStrategy:
    """Welfare bound for leaving one leaf unprotected to absorb the attack.

    The attack concentrates on the bare leaf as long as q_leaf >=
    omega / docs_leaf and q_center >= (omega + docs_center - docs_leaf) /
    docs_center; both fit in [0, 1] exactly when omega <= docs_leaf.  The
    bound evaluates welfare at those minimal levels.
    """
    if n < 3:
        raise ValueError(f"needs n >= 3, got {n}")
    _check_cost("alpha", alpha)
    _check_cost("omega", omega)
    hub, leaf = star_docs(n, p)
    q_leaf_min = omega / leaf
    q_center_min = (omega + hub - leaf) / hub
    feasible = q_leaf_min <= 1.0 and q_center_min <= 1.0
    bound = n - leaf - 0.5 * alpha * (
        (1.0 - leaf / hub + omega / hub) ** 2 + (n - 2) * omega**2 / leaf**2
    )
    return StarLambStrategy(feasible, bound, q_center_min, q_leaf_min)

"""Equilibria and social optima of the two-stage security game.

Defenders pick investments q first; the attacker best-responds.  Against a
random (uniform) attack both the Nash equilibrium and the social optimum
have closed forms on any graph.  Against a strategic attack, closed forms
exist when every agent expects the same document count (vertex-transitive
networks); general graphs are handled by best-response dynamics and
projected Newton ascent on welfare.  An agent's reward is piecewise
quadratic in its own investment, one piece per attacker active set, with
upward kinks between pieces: best responses walk those pieces exactly,
and a pure strategic equilibrium need not exist.  Both iterative solvers
take a Dissemination, or a stack of them such as a p grid solved
together, and the cost coefficients in Params.  They check their inputs
once on entry; welfare and rewards come from the unchecked row-wise
water-fill kernel `_water_fill`, which takes a whole stack of rows in
one call.
"""

from __future__ import annotations

from collections.abc import Sequence
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
    _p_for_mean_docs,
    complete_docs,
    ring_docs,
    star_docs,
)
from .graph import COMPLETE, RING

NASH_RANDOM = "nash-random"
OPT_RANDOM = "opt-random"
NASH_STRATEGIC = "nash-strategic"
OPT_STRATEGIC = "opt-strategic"

REGIMES = (NASH_RANDOM, OPT_RANDOM, NASH_STRATEGIC, OPT_STRATEGIC)

_HOMOGENEITY_TOL = 1e-9
_ANDERSON_WINDOW = 4  # sweeps kept for extrapolation in best_response_dynamics


class NonConvergenceError(RuntimeError):
    """An iterative solver ran out of iterations.

    Carries the last iterate and its residual so callers can inspect or
    restart, and, from a stacked solve, the failing point's index.
    """

    def __init__(self, message, last_q=None, residual=None, iterations=None, index=None):
        super().__init__(message)
        self.last_q = last_q
        self.residual = residual
        self.iterations = iterations
        self.index = index


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
    """The document count d in [1, n] that every agent expects, and n."""
    arr = np.atleast_1d(np.asarray(docs, dtype=float))
    if n is None:
        if arr.size == 1:
            raise ValueError("n is required when docs is a scalar")
        n = arr.size
    elif arr.size > 1 and n != arr.size:
        raise ValueError(f"docs has length {arr.size} but n={n}")
    if not ((arr >= 1.0 - 1e-9) & (arr <= n + 1e-9)).all():  # NaN fails too
        raise ValueError(f"expected documents must lie in [1, {n}], got {docs}")
    if not _is_homogeneous(arr):
        raise ValueError(
            "expected-document entries differ; this closed form only "
            "applies when all agents expect the same count"
        )
    return float(arr.mean()), n


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

def _walk_constants(rows, n):
    """Arrays the best-response walk reuses for up to `rows` stacked rows
    of n agents: each row's flat offset, the region index m (attacked
    others), k = m + 1 and its negation, k over the entry bounds, and
    max(m, 1)."""
    m = np.arange(n)
    k = m + 1.0
    return np.arange(0, rows * n, n)[:, None], m, k, -k, k[:-1], np.maximum(m, 1)


def _best_response(i, q, docs, reach_i, alpha, omega, walk):
    """Agent i's exact global best response q_i in [0, 1] to the others' q,
    for each row of a stack.

    q and docs are (B, n) and reach_i holds agent i's reach row of each
    point (B, n); the points share alpha and omega.  Returns (B,).
    `walk` is `_walk_constants(B', n)` for some B' >= B, built once per
    solve.  The reward is continuous and piecewise quadratic in q_i, one
    piece per attacker active set, with upward kinks where the set changes.
    Write y = 1 - q_i.  While agent i is attacked, the water level is
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
    rows, n = q.shape
    offsets, m, k, neg_k, k_enter, m_floor = walk
    offsets = offsets[:rows]
    y_all = 1.0 - q
    v = y_all * docs
    w = y_all * reach_i
    key = -v
    key[:, i] = -np.inf  # agent i sorts first, as a zero, so each prefix
    v[:, i] = 0.0  # sum starts from 0 over the others sorted descending
    w[:, i] = 0.0
    order = key.argsort(axis=1, kind="stable")
    order += offsets
    s = v.take(order)
    w = w.take(order)
    d, r = docs[:, i, None], reach_i[:, i, None]
    # Prefix sums by np.add.accumulate, which skips the per-call wrapper
    # cost of the cumsum method on these small rows.
    lam0 = (omega - np.add.accumulate(s, axis=1)) / k
    weight = np.add.accumulate(w, axis=1)
    # Region m spans y in [y_lo, y_hi]: the next other enters at the
    # bottom unless agent i leaves first (never when alone, m = 0, where
    # the bound comes out negative).
    enter = np.full((rows, n), -np.inf)
    enter[:, :-1] = k_enter * (s[:, 1:] + lam0[:, :-1]) / d
    y_hi = np.ones((rows, n))
    np.minimum(enter[:, :-1], 1.0, out=y_hi[:, 1:])
    y_lo = np.maximum(np.maximum(enter, neg_k * lam0 / (d * m_floor)), 0.0)
    # reward - 1 = -(held + weight lam0) / omega - lin y - quad y^2
    #              - alpha (1 - y)^2 / 2 within region m.
    lin = (r * lam0 - weight * d / k) / omega
    quad = r * d * m / (k * omega)
    # An empty region (y_lo > y_hi) clips to y_hi; for region 0 that is
    # y = 1, the answer q_i = 0 when every region is empty.
    y = np.minimum(np.maximum((alpha - lin) / (alpha + 2.0 * quad), y_lo), y_hi)
    reward = (
        -(np.add.accumulate(s * w, axis=1) + weight * lam0) / omega
        - (lin + quad * y) * y
        - 0.5 * alpha * (1.0 - y) ** 2
    )
    reward[y_lo > y_hi] = -np.inf
    return 1.0 - y.take(reward.argmax(axis=1) + offsets[:, 0])


def _rewards(q, docs, reach, alpha, omega):
    """Each row's rewards at a stack q against the attacker's best response."""
    a = _water_fill((1.0 - q) * docs, omega)[0]
    return 1.0 - breach_probabilities(a, q, reach) - 0.5 * alpha * q**2


def _nash_gap(q, docs, reach, alpha, omega):
    """Per row of a stack, the largest reward an agent gains by deviating
    alone to its exact best response, and that agent; zero, up to rounding,
    at a Nash equilibrium.

    q and docs are (B, n) and reach is (B, n, n); the points share alpha
    and omega.  Returns two (B,) arrays from n + 1 stacked reward calls.
    """
    rows, n = q.shape
    walk = _walk_constants(rows, n)
    base = _rewards(q, docs, reach, alpha, omega)
    gains = np.empty((rows, n))
    for i in range(n):
        deviation = q.copy()
        deviation[:, i] = _best_response(i, q, docs, reach[:, i], alpha, omega, walk)
        gains[:, i] = _rewards(deviation, docs, reach, alpha, omega)[:, i] - base[:, i]
    agents = gains.argmax(axis=1)
    return gains[np.arange(rows), agents], agents


def _stack_points(diss):
    """The checked points of a solve given one Dissemination or a sequence:
    (single, disses)."""
    single = isinstance(diss, Dissemination)
    disses = [diss] if single else list(diss)
    if not disses:
        raise ValueError("needs at least one dissemination")
    if len({d.n for d in disses}) > 1:
        raise ValueError("stacked disseminations disagree on the number of agents")
    return single, disses


def best_response_dynamics(
    diss: Dissemination | Sequence[Dissemination],
    params: Params,
    q0=None,
    tol: float = 1e-8,
    max_iter: int = 500,
) -> GameOutcome | list[GameOutcome]:
    """Cyclic exact best-response iteration for the strategic investment
    game, accelerated by extrapolation.

    A sweep updates every agent once, in fixed ascending order.  The next
    sweep starts from the Anderson (type-II) extrapolation of the last
    `_ANDERSON_WINDOW` sweeps: their outputs combined with the weights that
    best cancel their residuals by least squares, clipped to [0, 1]
    (Walker and Ni, SIAM J. Numer. Anal. 2011).  A sweep that moves no less
    than the one before drops that history and starts from its own output.
    Once a sweep moves no investment by more than tol, the profile is
    certified by its Nash gap: it is returned only if no agent gains more
    than tol by deviating alone.  A pure strategic equilibrium need not
    exist on a general graph, because rewards kink upward in q_i, so
    NonConvergenceError (carrying the last iterate and its Nash gap) is
    raised when the gap fails, past max_iter sweeps, or on a cycle: a
    sweep starting without history from the profile an earlier one started
    from.  The first cycle only switches to plain sweeps; a second ends the
    iteration.

    `diss` may instead be a sequence of disseminations, one per point (a
    p grid, say), with the same number of agents, solved with the same
    `params` from the same start q0; a ValueError says if the sequence is
    empty or the counts differ.  The points' GameOutcomes come back as a
    list in input order.  Each sweep takes one stacked best-response call
    per agent over the points still iterating, while the extrapolation
    history, restarts, cycle detection and certificate stay per point, so
    every point gets the bytes a call with it alone would.  If any point
    fails, the NonConvergenceError raised is the one the lowest failing
    point raises alone, with that point's position as `index` (None when a
    single point was given); points above a failed one stop early.  The
    solve copies the points' n x n reach matrices into one array, 8 n^2
    bytes a point on top of the inputs, so callers bound the number of
    points: the CLI sweeps pass blocks of 16 MB.
    """
    if not tol > 0:  # NaN fails too
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    single, disses = _stack_points(diss)
    alpha, omega = params.alpha, params.omega
    n, rows = disses[0].n, len(disses)
    docs = np.array([d.expected_docs for d in disses], dtype=float)

    def stack(which):  # docs and reach of these points, one row each
        return docs[which], np.array([disses[b].reach for b in which])

    x = np.tile(np.full(n, 0.5) if q0 is None else _as_security(q0, n), (rows, 1))
    last = np.empty((rows, n))
    history = [([], []) for _ in range(rows)]  # per point: outputs, residuals
    seen = [{} for _ in range(rows)]
    reason, sweeps = [None] * rows, [max_iter] * rows
    prev, delta = [np.inf] * rows, [0.0] * rows
    accelerate = [True] * rows
    live, lowest_failed = list(range(rows)), rows
    stacked, walk = None, _walk_constants(rows, n)
    for sweep in range(1, max_iter + 1):
        for b in live:
            if not history[b][0]:  # the profile alone fixes what follows
                key = x[b].tobytes()
                if key in seen[b]:
                    if not accelerate[b]:
                        reason[b] = f"sweep {sweep} repeats the profile of sweep {seen[b][key]}"
                        sweeps[b], lowest_failed = sweep, min(lowest_failed, b)
                        continue
                    accelerate[b], seen[b] = False, {}  # plain sweeps from here on
                seen[b][key] = sweep
        live = [b for b in live if reason[b] is None and b < lowest_failed]
        if not live:
            break
        if stacked != live:  # restack only when points finish
            sub_reach = None  # frees the old stack first
            sub_docs, sub_reach = stack(live)
            stacked = live
        start = x[live]
        q = start.copy()
        for i in range(n):
            q[:, i] = _best_response(i, q, sub_docs, sub_reach[:, i], alpha, omega, walk)
        last[live] = q
        for j, (b, moved) in enumerate(zip(live, np.abs(q - start).max(axis=1).tolist())):
            outputs, residuals = history[b]
            delta[b] = moved
            if moved <= tol:
                sweeps[b] = sweep
                continue
            if moved >= prev[b] or not accelerate[b]:  # restart from the plain sweep
                outputs.clear()
                residuals.clear()
                x[b], prev[b] = q[j], np.inf
                continue
            outputs.append(q[j])
            residuals.append(q[j] - start[j])
            del outputs[:-_ANDERSON_WINDOW], residuals[:-_ANDERSON_WINDOW]
            x[b], prev[b] = q[j], moved
            if len(outputs) > 1:
                d_res = np.diff(residuals, axis=0).T
                gamma = np.linalg.lstsq(d_res, residuals[-1], rcond=None)[0]
                x[b] = np.clip(q[j] - np.diff(outputs, axis=0).T @ gamma, 0.0, 1.0)
        live = [b for b in live if delta[b] > tol]
    for b in live:
        reason[b] = f"no convergence in {max_iter} sweeps (last sweep moved {delta[b]:.3e})"
    done = list(range(min(lowest_failed + 1, rows)))
    sub_reach = None  # frees the sweep stack before the certificate builds its own
    gains, agents = _nash_gap(last[done], *stack(done), alpha, omega)
    for b in done:
        if reason[b] is None and gains[b] > tol:
            reason[b] = f"sweep {sweeps[b]} settled on a profile that is no equilibrium"
        if reason[b] is not None:
            raise NonConvergenceError(
                f"best-response dynamics stopped: {reason[b]}; "
                f"agent {agents[b]} gains {gains[b]:.3e} by deviating alone",
                last_q=last[b].copy(),
                residual=float(gains[b]),
                iterations=sweeps[b],
                index=None if single else b,
            )
    outcomes = [evaluate_outcome(d, params, q, NASH_STRATEGIC) for d, q in zip(disses, last)]
    return outcomes[0] if single else outcomes


def _row_dot(x, y):
    """Row-wise dots of (B, n) stacks, each by the BLAS call of a 1-D `x @ y`."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def _welfare_and_gradient(q, docs, alpha, omega):
    """Welfare at each row of a stack q, its gradient through the attacker's
    best response, and the attacked agents: (B,), (B, n) and (B, n) mask.

    All three come from one kernel call.  On the active set,
    d welfare / d q_i = docs_i (2 a_i - 1/k) - alpha q_i with k active
    agents; inactive agents only feel their own cost.  Uses the
    active-region sensitivity formula, so it is a supergradient choice at
    active-set boundaries.
    """
    v = (1.0 - q) * docs
    a, _, active = _water_fill(v, omega)
    value = q.shape[1] - _row_dot(a, v) - 0.5 * alpha * _row_dot(q, q)
    grad = -alpha * q
    k = active.sum(axis=1, keepdims=True)
    return value, np.where(active, grad + docs * (2.0 * a - 1.0 / k), grad), active


def _newton_direction(grad, free, active, docs, alpha, omega):
    """Newton direction of each row's active-set region on its free
    coordinates, zero elsewhere; all arguments but the costs are (B, n).

    Within a region the welfare is an exact quadratic whose negated Hessian
    on the free coordinates is diag(m) - u u' / k, with
    m_i = alpha + (2/omega) docs_i^2 on the active set (alpha off it),
    u_i = sqrt(2/omega) docs_i on the free active coordinates and k active
    agents.  Sherman-Morrison solves it in O(n); the denominator
    k - u' M^-1 u is positive because alpha > 0.
    """
    m = alpha + 2.0 / omega * docs**2 * active
    u = np.sqrt(2.0 / omega) * docs * (active & free)
    m_grad = np.where(free, grad, 0.0) / m
    m_u = u / m
    shift = _row_dot(u, m_grad) / (active.sum(axis=1) - _row_dot(u, m_u))
    return m_grad + m_u * shift[:, None]


_STARTS = 8  # uniform 0.1, 0.5 and 0.9, then five random starts from seed 0
_SLOTS = np.arange(8)  # line-search steps a row may try in one round
_HALVINGS = 0.5**_SLOTS


def social_optimum_numeric(
    diss: Dissemination | Sequence[Dissemination],
    params: Params,
    tol: float = 1e-8,
    max_iter: int = 20_000,
) -> GameOutcome | list[GameOutcome]:
    """Welfare maximization over investments by projected Newton ascent.

    Runs from uniform starts {0.1, 0.5, 0.9} plus five random starts drawn
    from seed 0.  Each iteration takes the Newton direction of the current
    active-set region's quadratic on the coordinates not held at a bound
    of [0, 1]^n, and halves the step from 1 until the box-projected trial
    passes the Armijo test W(trial) >= W(q) + 1e-4 g'(trial - q) (Bertsekas,
    SIAM J. Control Optim. 1982); a start that cannot pass it at any step
    has failed.  Convergence is a projected gradient norm <= tol at a fixed
    reference step, and the best-welfare converged run wins (the earliest
    start on ties).  On graphs without a homogeneity guarantee the winner
    is the best stationary point found, not a certified global optimum.

    The starts run as the rows of one stack.  Each round evaluates every
    running row's trials in one kernel call: a row tries at once as many
    halvings as its last line search needed and takes the first that
    passes, so each row takes the path, and gets the bytes, it would alone.
    Like `best_response_dynamics`, `diss` may be a sequence of points solved
    with the same `params`; all their starts join the stack, the
    GameOutcomes come back as a list in input order, and a failure raises
    the lowest failing point's NonConvergenceError with that point's
    position as `index` (None when a single point was given).
    """
    if not tol > 0:  # NaN fails too
        raise ValueError("tol must be positive")
    single, disses = _stack_points(diss)
    alpha, omega, n = params.alpha, params.omega, disses[0].n
    docs = np.repeat(np.array([d.expected_docs for d in disses], dtype=float), _STARTS, axis=0)
    ref_step = 1.0 / (alpha + 2.0 * docs.max(axis=1) ** 2 / omega)
    rng = np.random.default_rng(0)
    starts = np.vstack([np.full((3, n), [[0.1], [0.5], [0.9]]), rng.random((_STARTS - 3, n))])
    rows, q = len(disses) * _STARTS, np.tile(starts, (len(disses), 1))
    value, grad, active = _welfare_and_gradient(q, docs, alpha, omega)
    best_q, best_value = np.empty((rows, n)), np.full(rows, -np.inf)  # -inf: no convergence
    # The stack keeps the rows still running; `ids` maps them back.
    ids, iters, fresh = np.arange(rows), np.zeros(rows, dtype=int), np.ones(rows, dtype=bool)
    direction, step, width = np.zeros((rows, n)), np.ones(rows), np.ones(rows)
    wedged = np.zeros(rows, dtype=bool)
    while True:
        # Rows at a new iterate test it; stationary ones have converged.
        gap = np.abs(np.clip(q + ref_step[:, None] * grad, 0.0, 1.0) - q).max(axis=1)
        stationary = gap <= tol * ref_step
        done = wedged | (fresh & (stationary | (iters >= max_iter)))
        if done.any():
            won = fresh & stationary & (iters < max_iter)
            best_q[ids[won]], best_value[ids[won]] = q[won], value[won]
            state = ids, q, value, grad, active, direction, step, width, iters, fresh, docs, ref_step
            ids, q, value, grad, active, direction, step, width, iters, fresh, docs, ref_step = (
                x[~done] for x in state
            )
            if not ids.size:
                break
        if fresh.any():  # the others take a Newton direction and start from step 1
            blocked = ((q <= 0.0) & (grad < 0.0)) | ((q >= 1.0) & (grad > 0.0))
            new = _newton_direction(grad, ~blocked, active, docs, alpha, omega)
            direction = np.where(fresh[:, None], new, direction)
            step[fresh] = 1.0
        # Each row tries its next `width` halvings at once, as many as its
        # last line search needed, and takes the first that passes.
        steps = step[:, None] * _HALVINGS
        use = (steps > 1e-16) & (_SLOTS < width[:, None])
        tried = use.sum(axis=1)  # a prefix of each row's slots
        trials = np.clip(q[:, None] + steps[..., None] * direction[:, None], 0.0, 1.0)
        t_q = trials[use]
        t_value, t_grad, t_active = _welfare_and_gradient(
            t_q, docs.repeat(tried, axis=0), alpha, omega
        )
        welfare = np.full(use.shape, -np.inf)
        welfare[use] = t_value
        rise = np.matmul((trials - q[:, None])[:, :, None, :], grad[:, None, :, None])
        passes = welfare >= value[:, None] + 1e-4 * rise[..., 0, 0]
        fresh, slot = passes.any(axis=1), passes.argmax(axis=1)
        pick, moved = np.cumsum(tried) - tried + slot, fresh[:, None]
        q, grad = np.where(moved, t_q[pick], q), np.where(moved, t_grad[pick], grad)
        active, value = np.where(moved, t_active[pick], active), np.where(fresh, t_value[pick], value)
        iters += fresh
        width = np.where(fresh, np.minimum(slot + 1 - np.log2(step), _SLOTS.size), width)
        step = np.where(fresh, step, step * 0.5**tried)
        wedged = step <= 1e-16  # no step passes the Armijo test: the start failed
    welfare = best_value.reshape(-1, _STARTS)
    failed = np.isneginf(welfare.max(axis=1)).nonzero()[0]
    if failed.size:
        raise NonConvergenceError(
            f"no projected-gradient start converged within {max_iter} iterations "
            f"({_STARTS} starts attempted)",
            iterations=max_iter,
            index=None if single else int(failed[0]),
        )
    best = welfare.argmax(axis=1)
    outcomes = [
        evaluate_outcome(d, params, best_q[b * _STARTS + best[b]], OPT_STRATEGIC)
        for b, d in enumerate(disses)
    ]
    return outcomes[0] if single else outcomes


# ---------------------------------------------------------------------------
# Over- vs under-investment crossover
# ---------------------------------------------------------------------------

def unique_crossover_condition(docs_value: float, n: int, alpha: float) -> bool:
    """Sufficient condition for a single over-to-under-investment crossover.

    Literal evaluation of 2 (n - d) d >= (n - 2 d)(alpha n - 1); always
    true once d >= n/2 since the right side is then non-positive.
    """
    d = _homogeneous_docs(docs_value, n)[0]
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
    d = _vt_docs(topology, n, p)
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

    The root is unique: with d = D(p) rising from 1 to n, the gap has the sign
    of h(d) = d (n - d)(alpha n - d) - alpha n omega (d - 1), a cubic with a
    positive leading term, h(1) > 0 and h(n) < 0, so one root lies in (1, n).
    Bisects the gap on (0, 1) to `tol` after checking it is positive near 0
    and negative near 1.  With details=True also returns the exact interval
    where `unique_crossover_condition` holds: d lies between the roots of
    2 d^2 - 2 (n + alpha n - 1) d + n (alpha n - 1), the upper one is >= n,
    so the interval is (D^-1(d_lo), 1), with 0 as its lower end when d_lo <= 1.
    """
    if not tol > 0:  # NaN fails too
        raise ValueError("tol must be positive")
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
    lo, hi = eps, 1.0 - eps
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = gap(mid)
        if f_mid == 0.0:
            lo = hi = mid
        elif f_mid > 0.0:
            lo = mid
        else:
            hi = mid
    p_star = 0.5 * (lo + hi)
    if not details:
        return p_star
    b = alpha * n - 1.0
    # The smaller root as product / larger root, free of cancellation.
    d_lo = n * b / ((n + b) + float(np.hypot(n, b)))
    return p_star, {"condition_interval": (_p_for_mean_docs(topology, n, d_lo, tol), 1.0)}


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

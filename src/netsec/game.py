"""Equilibria and social optima of the two-stage security game.

Defenders pick investments q first; the attacker best-responds.  Against a
random (uniform) attack both the Nash equilibrium and the social optimum
have closed forms on any graph.  Against a strategic attack, closed forms
exist when every agent expects the same document count (vertex-transitive
networks); general graphs are handled by Newton steps on the
best-response map from four fixed starts, with best-response dynamics as
the fallback, and by projected Newton ascent on welfare.  An agent's
reward is piecewise quadratic in its own investment, one piece per
attacker active set, with upward kinks between pieces: best responses
walk those pieces exactly, and a pure strategic equilibrium need not
exist.  Both iterative solvers take a Dissemination, or a stack of them
such as a p grid solved together, and the cost coefficients in Params.
They check their inputs once on entry and iterate on the unchecked
row-wise water fill `_water_fill`; the outcomes they return come from one
stacked `evaluate_outcome`, so from one checked `optimal_attack` per
solve.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .attack import (
    AttackSolution,
    _as_docs,
    _as_security,
    _water_fill,
    optimal_attack,
)
from .dissemination import (
    Dissemination,
    Params,
    _bisect_p,
    _check_cost,
    _p_for_mean_docs,
    topology_docs,
)
from .graph import COMPLETE, RING

NASH_RANDOM = "nash-random"
OPT_RANDOM = "opt-random"
NASH_STRATEGIC = "nash-strategic"
OPT_STRATEGIC = "opt-strategic"

REGIMES = (NASH_RANDOM, OPT_RANDOM, NASH_STRATEGIC, OPT_STRATEGIC)

# Vertex-transitive families: every agent expects the same documents.
VT_TOPOLOGIES = (RING, COMPLETE)

_ANDERSON_WINDOW = 4  # sweeps kept for extrapolation in the fallback sweeps


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
    """Investments with the induced attack, per-agent rewards, and welfare.
    From `evaluate_outcome`, q, attack_vector and rewards are read-only rows
    of one array per field of the call; built by hand, it stores its
    arguments as given."""

    q: np.ndarray
    attack_vector: np.ndarray
    rewards: np.ndarray
    welfare: float
    regime: str
    attack: AttackSolution | None = None


def evaluate_outcome(
    diss: Dissemination | Sequence[Dissemination], params: Params, q, regime: str
) -> GameOutcome | list[GameOutcome]:
    """Assemble a GameOutcome for given investments under a regime.

    Strategic regimes face the attacker's best response; random regimes
    face the uniform attack.  Every regime requires n investments in [0, 1].
    `diss` may instead be a sequence of points with the same number of
    agents and q their (B, n) stack: the inputs are checked once, one
    `optimal_attack` call solves the stack, and a list of outcomes comes
    back in input order, each with the bytes and arrays it would get alone.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    single, disses, docs = _stack_points(diss)
    rows, n = docs.shape
    q = _as_security(q, (n,) if single else docs.shape).reshape(rows, n)
    sols = [None] * rows
    if regime in (NASH_STRATEGIC, OPT_STRATEGIC):
        sols = optimal_attack(q, docs, params.omega)
        a = np.array([sol.a for sol in sols])
    else:
        a = np.full((rows, n), 1.0 / n)
    # Each point's rewards read its own reach matrix; no reach stack is built.
    breach = np.empty((rows, n))
    for d, s, out in zip(disses, a * (1.0 - q), breach):
        np.dot(d.reach, s, out=out)
    rewards = 1.0 - breach - 0.5 * params.alpha * q**2
    welfare = n - _row_dot(a, (1.0 - q) * docs) - 0.5 * params.alpha * _row_dot(q, q)
    q.flags.writeable = a.flags.writeable = rewards.flags.writeable = False
    outcomes = list(map(GameOutcome, q, a, rewards, welfare.tolist(), [regime] * rows, sols))
    return outcomes[0] if single else outcomes


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
    """Socially optimal investments against a random attack: docs_i / (alpha n), row by row."""
    _check_cost("alpha", alpha)
    docs = _as_docs(docs, np.shape(docs)[-1] if np.ndim(docs) else 1)
    return docs / (alpha * docs.shape[-1])


def nash_strategic_vt(d: float, n: int, alpha: float = 1.0, omega: float = 1.0) -> np.ndarray:
    """Equilibrium against a strategic attack on a vertex-transitive network.

    q_i = ((n - d) d + omega) / ((n - d) d + alpha n omega) with d the
    document count every agent expects.  The social optimum there is
    `social_optimum_random`: the optimal uniform investments make the
    attack probabilities uniform, voiding the attacker's strategic edge.
    """
    d = _as_docs(d, n).item()  # one count, not a vector
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


def _best_response(agent, q, docs, reach_i, alpha, omega, walk, jacobian=False):
    """Each row's agent's exact global best response q_i in [0, 1] to the
    others' q, for each row of a stack.

    q and docs are (B, n), `agent` holds each row's agent i, (B,) or one
    index for every row, and reach_i holds that agent's reach row of the
    row's point (B, n); the points share alpha and omega.  Returns (B,).
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

    With jacobian=True also returns the (B, n) derivatives of the best
    response in the others' q, within the chosen region m.  At an interior
    optimum the m attacked others j move it by
    (r_ii docs_j + docs_i r_ij) / (k omega (alpha + 2 quad)) through the
    water level and the weight; on a region bound it follows that bound,
    and a best response clipped to 0 or 1 does not move.
    """
    rows, n = q.shape
    offsets, m, k, neg_k, k_enter, m_floor = walk
    offsets = offsets[:rows]
    row = np.arange(rows)
    y_all = 1.0 - q
    v = y_all * docs
    w = y_all * reach_i
    key = -v
    key[row, agent] = -np.inf  # agent i sorts first, as a zero, so each prefix
    v[row, agent] = 0.0  # sum starts from 0 over the others sorted descending
    w[row, agent] = 0.0
    order = key.argsort(axis=1, kind="stable")
    order += offsets
    s = v.take(order)
    w = w.take(order)
    d, r = docs[row, agent][:, None], reach_i[row, agent][:, None]
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
    floor = neg_k * lam0 / (d * m_floor)
    y_lo = np.maximum(np.maximum(enter, floor), 0.0)
    # reward - 1 = -(held + weight lam0) / omega - lin y - quad y^2
    #              - alpha (1 - y)^2 / 2 within region m.
    lin = (r * lam0 - weight * d / k) / omega
    with np.errstate(over="ignore"):  # k omega past the float range: quad -> 0, its limit
        quad = r * d * m / (k * omega)
    # An empty region (y_lo > y_hi) clips to y_hi; for region 0 that is
    # y = 1, the answer q_i = 0 when every region is empty.
    y_opt = (alpha - lin) / (alpha + 2.0 * quad)
    y = np.minimum(np.maximum(y_opt, y_lo), y_hi)
    reward = (
        -(np.add.accumulate(s * w, axis=1) + weight * lam0) / omega
        - (lin + quad * y) * y
        - 0.5 * alpha * (1.0 - y) ** 2
    )
    reward[y_lo > y_hi] = -np.inf
    pick = reward.argmax(axis=1) + offsets[:, 0]
    y_c = y.take(pick)
    if not jacobian:
        return 1.0 - y_c
    # In sorted positions: region mc's attacked others are positions 1..mc.
    # Its top is where other mc enters, y = (mc s_mc + omega - S_{mc-1}) / d,
    # its bottom where other mc + 1 enters or where agent i leaves,
    # y = (S_mc - omega) / (d mc), with S the prefix sums of s.
    mc = pick - offsets[:, 0]
    y_opt_c, lo_c, hi_c = y_opt.take(pick), y_lo.take(pick), y_hi.take(pick)
    moves = (y_c > 0.0) & (y_c < 1.0)
    top = moves & (y_opt_c > hi_c)
    low = moves & (y_opt_c < lo_c)
    bottom = low & (enter.take(pick) >= floor.take(pick))
    interior = moves & ~top & ~low
    d_s = docs.take(order)
    ratio = d_s / d
    with np.errstate(over="ignore"):  # scale past the float range: inner -> 0, its limit
        scale = k[mc] * omega * (alpha + 2.0 * quad.take(pick))
    inner = (r * d_s + d * reach_i.take(order)) / scale[:, None]
    bound = ratio * np.where(low & ~bottom, 1.0 / m_floor[mc], -1.0)[:, None]
    slope = np.where(interior[:, None], inner, bound)
    slope[(m == 0) | (m > mc[:, None]) | ~moves[:, None]] = 0.0
    edge = np.where(top, mc, np.where(bottom, mc + 1, -1))[:, None]
    slope = np.where(m == edge, m * ratio, slope)  # the entering other's own v
    jac = np.empty(rows * n)
    jac[order] = slope
    return 1.0 - y_c, jac.reshape(rows, n)


_PAIR_BLOCK = 1 << 16  # entries of the (point, agent) rows one kernel call takes


def _pair_blocks(rows, n):
    """The rows * n (point, agent) pairs of a stack in consecutive blocks of
    at most `_PAIR_BLOCK` // n pairs (one at least), each as (pairs,
    points, agents): the slice and each pair's point and agent.  Blocking
    keeps the work arrays of an all-agent call near 0.5 MB each."""
    size = max(1, _PAIR_BLOCK // n)
    for start in range(0, rows * n, size):
        pair = np.arange(start, min(start + size, rows * n))
        yield slice(pair[0], pair[-1] + 1), pair // n, pair % n


def _best_responses(q, docs, reach, alpha, omega, walk, jacobian=False):
    """Every agent's best response at each row of a stack, (B, n), from
    kernel calls over all (point, agent) pairs, each reading its agent's
    reach row; with jacobian=True also the (B, n, n) Jacobian of that
    simultaneous best-response map.  `walk` covers B n rows."""
    rows, n = q.shape
    best, jac = np.empty(rows * n), np.empty((rows * n, n) if jacobian else 0)
    reach_rows = reach.reshape(rows * n, n)
    for pairs, points, agents in _pair_blocks(rows, n):
        out = _best_response(
            agents, q[points], docs[points], reach_rows[pairs], alpha, omega, walk, jacobian
        )
        if jacobian:
            best[pairs], jac[pairs] = out
        else:
            best[pairs] = out
    return (best.reshape(rows, n), jac.reshape(rows, n, n)) if jacobian else best.reshape(rows, n)


def _nash_gap(q, docs, reach, alpha, omega, best=None):
    """Per row of a stack, the largest reward an agent gains by deviating
    alone to its exact best response, and that agent; zero, up to rounding,
    at a Nash equilibrium.

    q and docs are (B, n) and reach is (B, n, n); the points share alpha
    and omega.  `best` holds the agents' best responses at q when the
    caller has them.  Takes one all-agent best-response call and one water
    fill at q and one over the B n deviations (in blocks on large stacks).
    Each agent's reward reads only its own reach row, the same way at q as
    after deviating, so an agent whose best response is its q_i gains 0.
    """
    rows, n = q.shape
    if best is None:
        best = _best_responses(q, docs, reach, alpha, omega, _walk_constants(rows * n, n))
    stolen = _water_fill((1.0 - q) * docs, omega)[0] * (1.0 - q)
    reach_rows, best, gains = reach.reshape(rows * n, n), best.ravel(), np.empty(rows * n)
    for pairs, points, agents in _pair_blocks(rows, n):
        deviation = q[points]
        deviation[np.arange(len(agents)), agents] = best[pairs]
        a = _water_fill((1.0 - deviation) * docs[points], omega)[0]
        own = reach_rows[pairs]
        at_q = 1.0 - _row_dot(own, stolen[points]) - 0.5 * alpha * q.ravel()[pairs] ** 2
        moved = 1.0 - _row_dot(own, a * (1.0 - deviation)) - 0.5 * alpha * best[pairs] ** 2
        gains[pairs] = moved - at_q
    gains = gains.reshape(rows, n)
    agent = gains.argmax(axis=1)
    return gains[np.arange(rows), agent], agent


def _check_budget(tol, max_iter):
    if not tol > 0:  # NaN fails too
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")


def _stack_points(diss):
    """Check points given as one Dissemination or a sequence: (single,
    disses, docs) with docs the (B, n) expected documents."""
    single = isinstance(diss, Dissemination)
    disses = [diss] if single else list(diss)
    if not disses:
        raise ValueError("needs at least one dissemination")
    if len({d.n for d in disses}) > 1:
        raise ValueError("stacked disseminations disagree on the number of agents")
    return single, disses, np.array([d.expected_docs for d in disses], dtype=float)


def _stack_outcomes(single, disses, params, qs, errors, regime):
    """The points' GameOutcomes from their (B, n) q by one stacked
    `evaluate_outcome` call, so from one checked attack solve over the
    stack, unless some point's error is not None: then raise the lowest
    one's, with its position as `index`."""
    for b, error in enumerate(errors):
        if error is not None:
            error.index = None if single else b
            raise error
    return evaluate_outcome(disses[0] if single else disses, params, qs[0] if single else qs, regime)


def _solve_rows(a, b):
    """Each row's solution of a (B, n, n) stack a x = b with b (B, n), by
    one batched LAPACK call; a row whose matrix is singular gets NaN and
    leaves the others' bytes as they would be alone."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan)
        for j in range(len(b)):
            try:
                out[j] = np.linalg.solve(a[j : j + 1], b[j : j + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                pass
        return out


_NEWTON_STEPS = 8  # Newton steps a point may take from each start
_NEWTON_HALVINGS = 4  # step halvings a Newton line search may try


def _newton(x, docs, reach, alpha, omega, tol, walk):
    """Semismooth Newton on F(q) = BR(q) - q from x for each row of a stack,
    with BR the simultaneous best response of all agents.

    Each step solves (I - J) d = F with J the closed-form Jacobian of BR
    in the current regions, and halves the step from 1 until the
    box-clipped trial shrinks max |F| by the factor 1 - 1e-4 t.  A row
    settles once max |F| <= tol, and leaves without settling when its
    line search fails, its system is singular or it has taken
    `_NEWTON_STEPS` steps.  Returns each row's last iterate and whether
    its Nash gap, taken once over the settled rows, certifies it.
    """
    rows, n = x.shape
    q, residual = x.copy(), np.full(rows, np.inf)  # iterate and its max |F|
    direction, length, steps = np.zeros((rows, n)), np.ones(rows), np.full(rows, -1)
    settled, best = np.zeros(rows, dtype=bool), np.empty((rows, n))
    live, eye = np.arange(rows), np.eye(n)
    # Each round evaluates one trial per live row: x itself at first, then
    # the iterate plus `length` times its direction.  A row whose trial
    # passes moves there and takes a new direction; one whose trial fails
    # halves its length.
    while live.size:
        trial = np.clip(q[live] + length[live, None] * direction[live], 0.0, 1.0)
        response, jac = _best_responses(trial, docs[live], reach[live], alpha, omega, walk, True)
        shift = response - trial
        size = np.abs(shift).max(axis=1)
        taken = size <= (1.0 - 1e-4 * length[live]) * residual[live]
        moved = live[taken]
        q[moved], residual[moved], best[moved] = trial[taken], size[taken], response[taken]
        steps[moved] += 1
        length[live[~taken]] *= 0.5
        settled[moved] = size[taken] <= tol
        going = taken & (size > tol) & (steps[live] < _NEWTON_STEPS)
        if going.any():
            direction[live[going]] = _solve_rows(eye - jac[going], shift[going])
            length[live[going]] = 1.0
        searching = ~taken & (length[live] >= 0.5**_NEWTON_HALVINGS)
        live = live[(going | searching) & np.isfinite(direction[live]).all(axis=1)]
    certified = settled.copy()
    if settled.any():
        gains = _nash_gap(q[settled], docs[settled], reach[settled], alpha, omega, best[settled])[0]
        certified[settled] = gains <= tol
    return q, certified


def _sweeps(x, docs, reach, alpha, omega, tol, max_iter, walk):
    """Anderson-accelerated cyclic best-response sweeps from x for each row
    of a stack, as `best_response_dynamics` describes them: each row's last
    profile, (B, n), and its NonConvergenceError or None."""
    rows, n = docs.shape
    x = x.copy()
    last = np.empty((rows, n))
    history = [([], []) for _ in range(rows)]  # per point: outputs, residuals
    seen = [{x[b].tobytes(): 1} for b in range(rows)]  # per point: starts without history
    reason, sweeps = [None] * rows, [max_iter] * rows
    prev, delta = [np.inf] * rows, [0.0] * rows
    accelerate = [True] * rows
    live = list(range(rows))
    for sweep in range(1, max_iter + 1):
        rows_live = np.array(live)
        start, sub_docs = x[rows_live], docs[rows_live]
        q = start.copy()
        for i in range(n):
            q[:, i] = _best_response(i, q, sub_docs, reach[rows_live, i], alpha, omega, walk)
        last[rows_live] = q
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
                key = q[j].tobytes()  # the profile alone fixes what follows
                if sweep < max_iter and key in seen[b]:
                    if not accelerate[b]:
                        reason[b] = f"sweep {sweep + 1} repeats the profile of sweep {seen[b][key]}"
                        sweeps[b] = sweep + 1
                        continue
                    accelerate[b], seen[b] = False, {}  # plain sweeps from here on
                seen[b][key] = sweep + 1
                continue
            outputs.append(q[j])
            residuals.append(q[j] - start[j])
            del outputs[:-_ANDERSON_WINDOW], residuals[:-_ANDERSON_WINDOW]
            x[b], prev[b] = q[j], moved
            if len(outputs) > 1:
                d_res = np.diff(residuals, axis=0).T
                gamma = np.linalg.lstsq(d_res, residuals[-1], rcond=None)[0]
                x[b] = np.clip(q[j] - np.diff(outputs, axis=0).T @ gamma, 0.0, 1.0)
        live = [b for b in live if delta[b] > tol and reason[b] is None]
        if not live:
            break
    for b in live:
        reason[b] = f"no convergence in {max_iter} sweeps (last sweep moved {delta[b]:.3e})"
    gains, agents = _nash_gap(last, docs, reach, alpha, omega)
    errors = [None] * rows
    for b, why in enumerate(reason):
        if why is None and gains[b] > tol:
            why = f"sweep {sweeps[b]} settled on a profile that is no equilibrium"
        if why is not None:
            errors[b] = NonConvergenceError(
                f"best-response dynamics stopped: {why}; "
                f"agent {agents[b]} gains {gains[b]:.3e} by deviating alone",
                last_q=last[b].copy(),
                residual=float(gains[b]),
                iterations=sweeps[b],
            )
    return last, errors


def best_response_dynamics(
    diss: Dissemination | Sequence[Dissemination],
    params: Params,
    q0=None,
    tol: float = 1e-8,
    max_iter: int = 500,
) -> GameOutcome | list[GameOutcome]:
    """Strategic equilibrium by Newton steps on the best-response map from
    four fixed starts, with accelerated best-response sweeps as the
    fallback.

    Write BR(q) for the exact best responses of all agents at once.  Fix
    the regions (each agent's attacker active set, and the agents held at
    0 or 1) and BR is affine, so F(q) = BR(q) - q is piecewise affine and a
    Newton step solves it exactly once the regions are right (semismooth
    Newton: Qi and Sun, Math. Programming 1993).  From a start, each point
    takes up to `_NEWTON_STEPS` Newton steps with BR's Jacobian in closed
    form, each halved from 1 until it shrinks max |F| (see `_newton`).
    Once a step leaves no investment more than tol from its best response,
    the profile is certified by its Nash gap: it is returned only if no
    agent gains more than tol by deviating alone.

    BR jumps where an agent's best region changes, so Newton can stall
    short of an equilibrium from one start and reach it from another.  The
    starts, in order, are q0 (0.5 by default); each agent's
    vertex-transitive closed form with its own expected documents d_i,
    ((n - d_i) d_i + omega) / ((n - d_i) d_i + alpha n omega), as in
    `nash_strategic_vt`; q = 0; and q = 1.  Each later start runs only on
    the points that the earlier ones left uncertified (their steps ran
    out, their line search failed, their system was singular, or the gap
    failed).  A point that no start certifies runs the sweeps from q0, and
    max_iter bounds those sweeps.  A sweep updates every agent once, in
    fixed ascending order.  The next sweep starts from the Anderson
    (type-II) extrapolation of the last `_ANDERSON_WINDOW` sweeps: their
    outputs combined with the weights that best cancel their residuals by
    least squares, clipped to [0, 1] (Walker and Ni, SIAM J. Numer. Anal.
    2011).  A sweep that moves no less than the one before drops that
    history and starts from its own output.  Once a sweep moves no
    investment by more than tol, the profile is certified by its Nash gap
    as above.  The certificate is the only way out: a pure strategic
    equilibrium need not exist on a general graph, because rewards kink
    upward in q_i, so NonConvergenceError (carrying the sweeps' last
    iterate and its Nash gap) is raised when the gap fails, past max_iter
    sweeps, or on a cycle: a sweep starting without history from the
    profile an earlier one started from.  The first cycle only switches to
    plain sweeps; a second ends the iteration.

    `diss` may instead be a sequence of disseminations, one per point (a
    p grid, say), with the same number of agents, solved with the same
    `params` from the same start q0; a ValueError says if the sequence is
    empty or the counts differ.  The points' GameOutcomes come back as a
    list in input order.  Each Newton step takes one best-response call
    over every agent of the points still stepping from the same start, and
    each sweep one stacked call per agent over the points still sweeping,
    while step sizes, extrapolation history, restarts, cycle detection and
    certificate stay per point, so every point gets the bytes a call with
    it alone would.  Both stacked solvers run every point to its own end;
    if any fails, the NonConvergenceError raised is the one the lowest
    failing point raises alone, with that point's position as `index`
    (None when a single point was given).  The solve copies the points'
    n x n reach matrices into one stack, 8 n^2 bytes a point on top of
    the inputs.  Newton holds a few more stacks of that size, its
    Jacobians among them, and its kernel calls work in blocks of about
    0.5 MB an array (`_PAIR_BLOCK`), so callers bound the number of
    points: the CLI sweeps pass blocks of 16 MB.
    """
    _check_budget(tol, max_iter)
    single, disses, docs = _stack_points(diss)
    alpha, omega = params.alpha, params.omega
    rows, n = docs.shape
    reach = np.array([d.reach for d in disses])
    x = np.tile(np.full(n, 0.5) if q0 is None else _as_security(q0, (n,)), (rows, 1))
    walk = _walk_constants(rows * n, n)
    q, certified = _newton(x, docs, reach, alpha, omega, tol, walk)
    rest = np.flatnonzero(~certified)  # the points no start has certified yet
    spread = (n - docs) * docs / omega  # the closed form divided by alpha omega, so no cost overflows
    for start in ((spread + 1.0) / alpha / (spread / alpha + n), np.zeros((rows, n)), np.ones((rows, n))):
        if not rest.size:
            break
        last, certified = _newton(start[rest], docs[rest], reach[rest], alpha, omega, tol, walk)
        q[rest[certified]] = last[certified]
        rest = rest[~certified]
    errors = [None] * rows
    if rest.size:
        q[rest], rest_errors = _sweeps(x[rest], docs[rest], reach[rest], alpha, omega, tol, max_iter, walk)
        for b, error in zip(rest.tolist(), rest_errors):
            errors[b] = error
    return _stack_outcomes(single, disses, params, q, errors, NASH_STRATEGIC)


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


def _ascend(q, docs, alpha, omega, tol, max_iter):
    """Projected Newton ascent of welfare from q for each row of a stack,
    as `social_optimum_numeric` describes it: each row's last iterate,
    (B, n), and its NonConvergenceError or None.  Each iteration takes the
    live rows' Newton directions at once and halves one shared step from
    1; each halving evaluates the rows still searching in one kernel call,
    so every row takes the path, and gets the bytes, it would alone."""
    rows, q = len(q), q.copy()
    ref_step = 1.0 / (alpha + 2.0 * docs.max(axis=1) ** 2 / omega)
    value, grad, active = _welfare_and_gradient(q, docs, alpha, omega)
    residual, iters = np.empty(rows), np.zeros(rows, dtype=int)
    live, stalled = np.arange(rows), np.zeros(rows, dtype=bool)
    while live.size:
        x, g, ref = q[live], grad[live], ref_step[live]
        residual[live] = np.abs(np.clip(x + ref[:, None] * g, 0.0, 1.0) - x).max(axis=1) / ref
        going = (residual[live] > tol) & (iters[live] < max_iter)
        live, x, g = live[going], x[going], g[going]
        blocked = ((x <= 0.0) & (g < 0.0)) | ((x >= 1.0) & (g > 0.0))
        direction = _newton_direction(g, ~blocked, active[live], docs[live], alpha, omega)
        search, step = live, 1.0
        while search.size and step > 1e-16:
            x = q[search]
            ahead = x + step * direction
            trial = np.clip(ahead, 0.0, 1.0)
            t_value, t_grad, t_active = _welfare_and_gradient(trial, docs[search], alpha, omega)
            # Unclipped in q's own region a trial gains exactly, however
            # little the rounded welfare shows it, so it passes untested.
            same = (trial == ahead).all(axis=1) & (t_active == active[search]).all(axis=1)
            passes = same | (t_value >= value[search] + 1e-4 * _row_dot(trial - x, grad[search]))
            moved = search[passes]
            q[moved], value[moved] = trial[passes], t_value[passes]
            grad[moved], active[moved] = t_grad[passes], t_active[passes]
            iters[moved] += 1
            search, direction, step = search[~passes], direction[~passes], 0.5 * step
        stalled[search] = True  # no halving passed the Armijo test
        live = live[~stalled[live]]
    return q, [
        None if r <= tol else NonConvergenceError(
            (f"projected Newton ascent stopped at iteration {i + 1}: no step along the "
             "Newton direction passes the Armijo test" if stop else
             f"projected Newton ascent did not converge within {max_iter} iterations")
            + f" (stationarity residual {r:.3e})", last_q=x.copy(), residual=r, iterations=i,
        )
        for x, r, i, stop in zip(q, residual.tolist(), iters.tolist(), stalled.tolist())
    ]


def social_optimum_numeric(
    diss: Dissemination | Sequence[Dissemination],
    params: Params,
    tol: float = 1e-8,
    max_iter: int = 20_000,
) -> GameOutcome | list[GameOutcome]:
    """Welfare maximization over investments by projected Newton ascent.

    Runs from the uniform start q = 0.5.  Each iteration takes the Newton
    direction of the current active-set region's quadratic on the
    coordinates not held at a bound of [0, 1]^n, and halves the step from 1
    until the box-projected trial passes the Armijo test W(trial) >= W(q) +
    1e-4 g'(trial - q) (Bertsekas, SIAM J. Control Optim. 1982), or needs
    no clipping and keeps q's active set: on that convex region W is the
    quadratic the direction maximizes, so a step t <= 1 gains t (1 - t/2) g'd
    even where rounding hides it, as near the optimum at large alpha.  It
    converges once the stationarity residual |clip(q + s g) - q|_max / s, s
    a fixed reference step, is <= tol.  NonConvergenceError, carrying the
    last iterate, its residual and its iterations, says whether max_iter
    iterations ran out or, at which iteration, no halving down to 1e-16 passed.

    Within one attacker active set the welfare is a concave quadratic, but
    it kinks upward where the set changes, so local optima exist, and the
    result is a stationary point, not a certified global optimum.  64
    seeded starts find no more welfare on the tests' sample, but a wider
    scan found more on 19 of 4800 points of 7 to 9 agents.  One is the
    edge list 0 1/1 4/2 4/2 6/3 4/3 6/3 7/4 7/5 7/6 7 at p = 0.3 with
    alpha = 2 and omega = 3: the ascent leaves agent 0 unattacked at
    welfare 5.69618, and a quarter of 4096 random starts reach 5.69850,
    attacking all eight.  Like `best_response_dynamics`, `diss` may be a
    sequence of points, solved with the same `params` as the rows of one
    stack; outcomes and failures follow the stacked-solve contract there.
    """
    _check_budget(tol, max_iter)
    single, disses, docs = _stack_points(diss)
    q, errors = _ascend(np.full(docs.shape, 0.5), docs, params.alpha, params.omega, tol, max_iter)
    return _stack_outcomes(single, disses, params, q, errors, OPT_STRATEGIC)


# ---------------------------------------------------------------------------
# Over- vs under-investment crossover
# ---------------------------------------------------------------------------

def find_crossover_p(topology: str, n: int, alpha: float, omega: float, tol: float = 1e-10):
    """Transmission probability where equilibrium investments are optimal,
    and where the sufficient condition for one crossover starts to hold:
    (p_star, p_from), each to within `tol`.

    The root is unique: with d = D(p) rising from 1 to n, the gap has the sign
    of h(d) = d (n - d)(alpha n - d) - alpha n omega (d - 1), a cubic with a
    positive leading term, h(1) > 0 and h(n) < 0, so one root lies in (1, n).
    p_star bisects h(D(p)) / (alpha n omega) on [0, 1], which no cost can
    overflow.  The condition 2 (n - d) d >= (n - 2 d)(alpha n - 1) holds
    exactly on (p_from, 1]: d lies between the roots of
    2 d^2 - 2 (n + alpha n - 1) d + n (alpha n - 1), the upper one is >= n,
    so p_from = D^-1(d_lo), or 0 when d_lo <= 1.
    """
    _check_cost("alpha", alpha)
    _check_cost("omega", omega)
    if topology not in VT_TOPOLOGIES:
        raise ValueError(
            f"closed-form crossover needs a ring or complete topology, got {topology!r}"
        )

    def under_investment(p):  # -h(D(p)) / (alpha n omega), < 0 while equilibrium over-invests
        d = float(topology_docs(topology, n, p)[0])
        return (d - 1.0) - d * (n - d) * (1.0 - d / n / alpha) / omega

    p_star = _bisect_p(under_investment, tol, "tol")
    # d_lo = n b / ((n + b) + hypot(n, b)), b = alpha n - 1: the smaller root as product /
    # larger root, free of cancellation, with n and b divided by alpha so none overflows.
    n_a, b_a = n / alpha, n - 1.0 / alpha
    d_lo = n * b_a / ((n_a + b_a) + float(np.hypot(n_a, b_a)))
    return p_star, _p_for_mean_docs(topology, n, d_lo, tol)

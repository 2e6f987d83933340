"""Optimal attack against given protection investments.

The attacker targets one agent, trading expected stolen documents against
a quadratic targeting cost (omega / 2) * sum(a_i**2) over probability
vectors a on the simplex.  The problem is strictly concave, so the KKT
conditions pin down a unique solution, found exactly by an active-set
water-filling scan: with v_i = (1 - q_i) * docs_i,

    omega = sum_i max(0, v_i + lam),      a_i = max(0, v_i + lam) / omega.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dissemination import _check_cost

# Values of v_i + lam within this of zero are treated as inactive, so the
# corresponding a_i is an exact 0 rather than a denormalized positive.
BOUNDARY_TOL = 1e-12

_SIMPLEX_TOL = 1e-9


@dataclass(frozen=True)
class AttackSolution:
    """Optimal attack vector with its KKT multiplier and active set."""

    a: np.ndarray
    lam: float
    active: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        a.flags.writeable = False
        object.__setattr__(self, "a", a)
        active = np.asarray(self.active, dtype=int)
        active.flags.writeable = False
        object.__setattr__(self, "active", active)

    @property
    def n_star(self) -> int:
        """Number of agents attacked with positive probability."""
        return len(self.active)


def _as_security(q, shape: tuple | None = None) -> np.ndarray:
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if shape is not None and q.shape != shape:
        raise ValueError(f"expected investments of shape {shape}, got shape {q.shape}")
    if not ((q >= -1e-12) & (q <= 1.0 + 1e-12)).all():  # NaN fails both
        raise ValueError("investments must be finite numbers in [0, 1]")
    return np.clip(q, 0.0, 1.0)


def _as_docs(docs, n: float = np.inf) -> np.ndarray:
    """Expected documents as a float array, each finite and in [1, n] up to 1e-9."""
    arr = np.atleast_1d(np.asarray(docs, dtype=float))
    if not (np.isfinite(arr) & (arr >= 1.0 - 1e-9) & (arr <= n + 1e-9)).all():
        raise ValueError(f"expected documents must be finite numbers in [1, {n}], got {docs}")
    return arr


def _water_fill(v, omega: float):
    """Unchecked water-filling scan, row by row: (a, lam, active) for a
    (B, n) stack of values v.

    Returns the (B, n) attacks, the (B,) water levels and the (B, n) active
    masks.  Sorts each row descending (stable, so ties break by agent
    index) and scans for the largest prefix k whose water level
    lam_k = (omega - sum of top k) / k keeps the k-th value positive.
    Every step is row-local, so a row gets the bytes it would alone.  The
    solvers call this directly on inputs they have already checked;
    `optimal_attack` is the checked entry.
    """
    n = v.shape[1]
    flat = np.arange(0, v.size, n)  # each row's offset into v.ravel()
    vs = v.take((-v).argsort(axis=1, kind="stable") + flat[:, None])
    lams = (omega - np.add.accumulate(vs, axis=1)) / np.arange(1, n + 1)
    k = n - (vs + lams > BOUNDARY_TOL)[:, ::-1].argmax(axis=1)
    lam = lams.take(flat + k - 1)
    # One correction pass pins the simplex sum to machine precision.
    lam += (1.0 - np.add.reduce(np.maximum(v + lam[:, None], 0.0), axis=1) / omega) * omega / k
    level = v + lam[:, None]
    # Values within BOUNDARY_TOL of the level count as inactive.
    a = np.where(level > BOUNDARY_TOL, level, 0.0) / omega
    equal = vs[:, 0] == vs[:, -1]
    if equal.any():  # all-equal values: the solution is exactly uniform
        a[equal] = 1.0 / n
        lam[equal] = omega / n - v[equal, 0]
    return a, lam, a > 0.0


def optimal_attack(q, docs, omega: float) -> AttackSolution | list[AttackSolution]:
    """Solve the attacker's simplex-constrained quadratic program exactly.

    Checks the inputs, then runs the water-filling scan on
    v_i = (1 - q_i) * docs_i.  q and docs may instead be (B, n) stacks of
    one shape: one scan then returns the B solutions in row order, each
    with the bytes and arrays that its row would get alone.
    """
    q = _as_security(q)
    docs = _as_docs(docs)
    if docs.shape != q.shape or q.ndim > 2:
        raise ValueError(f"q and docs must share an (n,) or (B, n) shape, got {q.shape} and {docs.shape}")
    _check_cost("omega", omega)
    a, lam, active = _water_fill(((1.0 - q) * docs).reshape(-1, q.shape[-1]), omega)
    sols = [AttackSolution(row, level, on.nonzero()[0]) for row, level, on in zip(a, lam.tolist(), active)]
    return sols if q.ndim == 2 else sols[0]


def breach_probabilities(a, q, reach) -> np.ndarray:
    """Probability each agent i's document is stolen: sum_j reach[i, j] a_j (1 - q_j).

    Also takes stacks: a and q of shape (B, n) with reach (B, n, n).
    """
    a = np.asarray(a, dtype=float)
    q = _as_security(q)
    reach = np.asarray(reach, dtype=float)
    return (reach @ (a * (1.0 - q))[..., None])[..., 0]


def expected_stolen(a, q, docs) -> float:
    """Expected number of stolen documents: sum_j a_j (1-q_j) docs_j."""
    a = np.asarray(a, dtype=float)
    q = _as_security(q)
    docs = np.asarray(docs, dtype=float)
    return float(a @ ((1.0 - q) * docs))


def attacker_payoff(a, q, docs, omega: float) -> float:
    """Expected stolen documents minus the quadratic targeting cost."""
    a = np.asarray(a, dtype=float)
    if not ((a >= -_SIMPLEX_TOL).all() and abs(a.sum() - 1.0) <= _SIMPLEX_TOL):  # NaN, -inf fail first
        raise ValueError("attack vector must lie on the probability simplex")
    return expected_stolen(a, q, docs) - 0.5 * omega * float(a @ a)

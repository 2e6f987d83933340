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

from .dissemination import _check_cost, star_docs

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


def _as_security(q, n: int | None = None) -> np.ndarray:
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if n is not None and q.shape != (n,):
        raise ValueError(f"expected {n} investments, got shape {q.shape}")
    if not ((q >= -1e-12) & (q <= 1.0 + 1e-12)).all():  # NaN fails both
        raise ValueError("investments must be finite numbers in [0, 1]")
    return np.clip(q, 0.0, 1.0)


def _water_fill(v, omega: float):
    """Unchecked water-filling scan: (a, lam, active) for the values v.

    Sorts v descending (stable, so ties break by agent index) and scans for
    the largest prefix k whose water level lam_k = (omega - sum of top k) / k
    keeps the k-th value positive.  The solvers call this directly on
    inputs they have already checked; `optimal_attack` is the checked entry.
    """
    n = v.size
    if n == 1:
        return np.ones(1), float(omega - v[0]), np.arange(1)
    vs = v[(-v).argsort(kind="stable")]
    if vs[0] == vs[-1]:
        # All-equal values: the solution is exactly uniform.
        return np.full(n, 1.0 / n), float(omega / n - v[0]), np.arange(n)
    lams = (omega - vs.cumsum()) / np.arange(1, n + 1)
    k = int((vs + lams > BOUNDARY_TOL).nonzero()[0][-1]) + 1
    lam = float(lams[k - 1])
    # One correction pass pins the simplex sum to machine precision.
    lam += (1.0 - np.maximum(v + lam, 0.0).sum() / omega) * omega / k
    level = v + lam
    a = np.maximum(level, 0.0) / omega
    a[level <= BOUNDARY_TOL] = 0.0
    return a, lam, a.nonzero()[0]


def optimal_attack(q, docs, omega: float) -> AttackSolution:
    """Solve the attacker's simplex-constrained quadratic program exactly.

    Checks the inputs, then runs the water-filling scan on
    v_i = (1 - q_i) * docs_i.
    """
    q = _as_security(q)
    docs = np.atleast_1d(np.asarray(docs, dtype=float))
    if docs.shape != q.shape:
        raise ValueError("q and docs must have the same length")
    _check_cost("omega", omega)
    if (docs < 1.0 - 1e-9).any():
        raise ValueError("expected documents are always >= 1 on a connected graph")
    return AttackSolution(*_water_fill((1.0 - q) * docs, omega))


def kkt_residual(sol: AttackSolution, q, docs, omega: float) -> float:
    """Worst violation of the stationarity/slackness conditions at sol."""
    q = _as_security(q)
    docs = np.asarray(docs, dtype=float)
    v = (1.0 - q) * docs
    active = np.zeros(q.size, dtype=bool)
    active[sol.active] = True
    res = 0.0
    if active.any():
        res = float(np.abs(v[active] - omega * sol.a[active] + sol.lam).max())
    if (~active).any():
        res = max(res, float(np.maximum(v[~active] + sol.lam, 0.0).max()))
    return res


def breach_probabilities(a, q, reach) -> np.ndarray:
    """Probability each agent i's document is stolen: sum_j reach[i, j] a_j (1 - q_j)."""
    a = np.asarray(a, dtype=float)
    q = _as_security(q)
    reach = np.asarray(reach, dtype=float)
    return reach @ (a * (1.0 - q))


def expected_stolen(a, q, docs) -> float:
    """Expected number of stolen documents: sum_j a_j (1-q_j) docs_j."""
    a = np.asarray(a, dtype=float)
    q = _as_security(q)
    docs = np.asarray(docs, dtype=float)
    return float(a @ ((1.0 - q) * docs))


def attacker_payoff(a, q, docs, omega: float) -> float:
    """Expected stolen documents minus the quadratic targeting cost."""
    a = np.asarray(a, dtype=float)
    if abs(a.sum() - 1.0) > _SIMPLEX_TOL or (a < -_SIMPLEX_TOL).any():
        raise ValueError("attack vector must lie on the probability simplex")
    return expected_stolen(a, q, docs) - 0.5 * omega * float(a @ a)


def star_attack(
    n: int, p: float, q_center: float, q_leaf: float, omega: float
) -> tuple[float, float]:
    """Optimal attack on a star with symmetric leaf investments.

    Returns (a_center, a_leaf).  With gap = (1-q_center) * docs_center -
    (1-q_leaf) * docs_leaf, the solution is the all-in corner (1, 0) when
    omega <= gap, the leaves-only corner (0, 1/(n-1)) when
    omega <= -(n-1) * gap, and otherwise interior:

        a_center = 1/n + (1 - 1/n) * gap / omega
        a_leaf   = 1/n - gap / (n * omega)
    """
    if n < 3:
        raise ValueError(f"star attack formula needs n >= 3, got {n}")
    _check_cost("omega", omega)
    hub_docs, leaf_docs = star_docs(n, p)
    gap = (1.0 - q_center) * hub_docs - (1.0 - q_leaf) * leaf_docs
    if omega <= gap:
        return 1.0, 0.0
    if omega <= -(n - 1) * gap:
        return 0.0, 1.0 / (n - 1)
    return 1.0 / n + (1.0 - 1.0 / n) * gap / omega, 1.0 / n - gap / (n * omega)

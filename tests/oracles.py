"""Closed-form and certificate oracles that only the tests use.

The attacker's KKT residual and the star's two-class attack check the
water-filling solver; breach probabilities give each agent's reward from
first principles; the complete-graph connectivity probability reads the
recursion table behind `complete_pair_reach`, and the pair-reach envelope
brackets it.  The investment gap is the function `find_crossover_p`
bisects, and the paper's two star strategies (uniform attack and
sacrificial lamb) bound the social optimum from below.
"""

from dataclasses import dataclass

import numpy as np

from netsec.dissemination import _complete_tables, star_docs, topology_docs
from netsec.game import nash_strategic_vt


def kkt_residual(sol, q, docs, omega):
    """Worst violation of the stationarity/slackness conditions at sol."""
    v = (1.0 - np.asarray(q, dtype=float)) * np.asarray(docs, dtype=float)
    active = np.zeros(v.size, dtype=bool)
    active[sol.active] = True
    res = 0.0
    if active.any():
        res = float(np.abs(v[active] - omega * sol.a[active] + sol.lam).max())
    if (~active).any():
        res = max(res, float(np.maximum(v[~active] + sol.lam, 0.0).max()))
    return res


def star_attack(n, p, q_center, q_leaf, omega):
    """Optimal attack (a_center, a_leaf) on a star with symmetric leaf investments.

    With gap = (1-q_center) * docs_center - (1-q_leaf) * docs_leaf, the
    solution is the all-in corner (1, 0) when omega <= gap, the leaves-only
    corner (0, 1/(n-1)) when omega <= -(n-1) * gap, and otherwise interior:

        a_center = 1/n + (1 - 1/n) * gap / omega
        a_leaf   = 1/n - gap / (n * omega)
    """
    hub_docs, leaf_docs = star_docs(n, p)
    gap = (1.0 - q_center) * hub_docs - (1.0 - q_leaf) * leaf_docs
    if omega <= gap:
        return 1.0, 0.0
    if omega <= -(n - 1) * gap:
        return 0.0, 1.0 / (n - 1)
    return 1.0 / n + (1.0 - 1.0 / n) * gap / omega, 1.0 / n - gap / (n * omega)


def breach_probabilities(a, q, reach):
    """Probability each agent i's document is stolen: sum_j reach[i, j] a_j (1 - q_j).

    Also takes stacks: a and q of shape (B, n) with reach (B, n, n).
    """
    a, q = np.asarray(a, dtype=float), np.asarray(q, dtype=float)
    return (np.asarray(reach, dtype=float) @ (a * (1.0 - q))[..., None])[..., 0]


def investment_gap(topology, n, p, alpha, omega):
    """Equilibrium minus optimal investment at p on a ring or complete graph
    (positive = over-investment)."""
    d = float(topology_docs(topology, n, p)[0])
    return float(nash_strategic_vt(d, n, alpha, omega)[0]) - d / (alpha * n)


def complete_connected_probability(k, p):
    """Probability that the Bernoulli-thinned K_k stays connected, from the
    library's complete-graph recursion table."""
    return float(_complete_tables(k, p)[0][k])


def complete_pair_bounds(n, p):
    """(lower, upper) envelope for the complete-graph pair reach probability.

    The lower bound keeps only length-<=2 paths; the upper bound only asks
    that some edge reaches the destination.
    """
    lower = 1.0 - (1.0 - p) * (1.0 - p**2) ** (n - 2)
    upper = 1.0 - (1.0 - p) ** (n - 1)
    return lower, upper


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


def star_uniform_attack_strategy(n, p, alpha):
    """Best investments among those making the attack uniform on a star.

    The a = 1/n attack requires (1-q_center) docs_center =
    (1-q_leaf) docs_leaf; optimizing welfare along that line gives the
    leaf level in closed form and the center level follows.  Values are
    clamped to [0, 1] (flagged) if the formula exits the box; welfare is
    evaluated at the uniform attack either way.
    """
    hub, leaf = star_docs(n, p)
    ratio = leaf / hub
    q_leaf = (leaf / alpha - ratio + ratio**2) / (ratio**2 + n - 1)
    clamped = not 0.0 <= q_leaf <= 1.0
    q_leaf = min(1.0, max(0.0, q_leaf))
    q_center = 1.0 - (1.0 - q_leaf) * ratio
    stolen = ((1.0 - q_center) * hub + (n - 1) * (1.0 - q_leaf) * leaf) / n
    welfare = n - stolen - 0.5 * alpha * (q_center**2 + (n - 1) * q_leaf**2)
    return StarUniformStrategy(q_center, q_leaf, welfare, clamped)


def star_sacrificial_lamb(n, p, alpha, omega):
    """Welfare bound for leaving one leaf unprotected to absorb the attack.

    The attack concentrates on the bare leaf as long as q_leaf >=
    omega / docs_leaf and q_center >= (omega + docs_center - docs_leaf) /
    docs_center; both fit in [0, 1] exactly when omega <= docs_leaf.  The
    bound evaluates welfare at those minimal levels.
    """
    hub, leaf = star_docs(n, p)
    q_leaf_min = omega / leaf
    q_center_min = (omega + hub - leaf) / hub
    feasible = q_leaf_min <= 1.0 and q_center_min <= 1.0
    bound = n - leaf - 0.5 * alpha * (
        (1.0 - leaf / hub + omega / hub) ** 2 + (n - 2) * omega**2 / leaf**2
    )
    return StarLambStrategy(feasible, bound, q_center_min, q_leaf_min)

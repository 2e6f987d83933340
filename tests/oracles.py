"""Closed-form and certificate oracles that only the tests use.

The attacker's KKT residual and the star's two-class attack check the
water-filling solver; breach probabilities give each agent's reward from
first principles; the complete-graph connectivity probability reads the
recursion table behind `complete_pair_reach`, the pair-reach envelope
brackets it, and the complete graph's pair counts by edge-subset size check
the exact counting routes in Python integers.  The investment gap between
the equilibrium and the optimum on ring and complete graphs has the sign of
the cubic h(D(p)) that `find_crossover_p` bisects, here in exact rationals,
and the paper's two star strategies (uniform attack and sacrificial lamb)
bound the social optimum from below.  The chart's polyline points are
formatted point by point, as the SVG renderer did before it scaled whole
arrays at once.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from netsec._svg import _HEIGHT, _MARGIN, _WIDTH
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


def crossover_cubic(topology, n, p, alpha, omega):
    """h(D(p)) = d (n - d)(alpha n - d) - alpha n omega (d - 1) on a ring or
    complete graph, which has the sign of `investment_gap`, at the float
    d = D(p) in exact rational arithmetic, so no cost overflows it."""
    d = Fraction(float(topology_docs(topology, n, p)[0]))
    a, w = Fraction(alpha), Fraction(omega)
    return d * (n - d) * (a * n - d) - a * n * w * (d - 1)


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


def complete_pair_counts(n):
    """Number of k-edge subsets of K_n that join two given agents, for k = 0..C(n, 2).

    In Python integers.  c[s][j] counts the connected j-edge graphs on s
    labelled agents: of the C(C(s, 2), j) graphs, the disconnected ones
    whose first agent's component has t < s agents and i edges number
    C(s-1, t-1) c[t][i] C(C(s-t, 2), j-i).  The two agents' component has
    s agents, chosen C(n-2, s-2) ways, and j edges; the other C(n-s, 2)
    edges are free.
    """
    edges = comb(n, 2)
    c = [[0] * (edges + 1) for _ in range(n + 1)]
    c[1][0] = 1
    for s in range(2, n + 1):
        for j in range(comb(s, 2) + 1):
            split = sum(
                comb(s - 1, t - 1) * c[t][i] * comb(comb(s - t, 2), j - i)
                for t in range(1, s)
                for i in range(min(j, comb(t, 2)) + 1)
            )
            c[s][j] = comb(comb(s, 2), j) - split
    return [
        sum(
            comb(n - 2, s - 2) * c[s][j] * comb(comb(n - s, 2), k - j)
            for s in range(2, n + 1)
            for j in range(min(k, comb(s, 2)) + 1)
        )
        for k in range(edges + 1)
    ]


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


def polyline_points(xs, series):
    """Each series' polyline `points` text: every (x, y) pair mapped to pixels
    by its own scalar call and formatted on its own."""
    xs = list(xs)
    plot_w = _WIDTH - _MARGIN["left"] - _MARGIN["right"]
    plot_h = _HEIGHT - _MARGIN["top"] - _MARGIN["bottom"]
    x_lo, x_hi = min(xs), max(xs)
    ys_all = [y for ys in series.values() for y in ys]
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x):
        return _MARGIN["left"] + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return _MARGIN["top"] + (y_hi - y) / (y_hi - y_lo) * plot_h

    return [" ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys)) for ys in series.values()]

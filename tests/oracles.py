"""Closed-form and certificate oracles that only the tests use.

The attacker's KKT residual and the star's two-class attack check the
water-filling solver; the complete-graph connectivity probability reads the
recursion table behind `complete_pair_reach`, and the pair-reach envelope
brackets it.
"""

import numpy as np

from netsec.dissemination import _complete_tables, star_docs


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

"""Document-spread probabilities on a network.

Each agent's document spreads over an independent random subgraph in which
every edge survives with probability p.  The reach matrix holds, for each
ordered pair (i, j), the probability that j ends up holding i's document;
the expected-documents vector is its column sum.  Three routes compute the
same quantities: exact enumeration over edge subsets (the ground-truth
oracle), per-topology closed forms, and Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graph import COMPLETE, CUSTOM, RING, STAR, TOPOLOGIES, Graph

METHOD_EXACT = "exact"
METHOD_CLOSED = "closed"
METHOD_MC = "mc"

# 2**edges subsets are enumerated; beyond this the walk is unreasonably slow.
MAX_EXACT_EDGES = 22

# Exact integer binomials below this; log-gamma above to avoid float overflow.
_EXACT_BINOM_MAX = 30

_MC_CHUNK = 50_000
# Masks labelled per enumeration step; larger chunks buy little speed for
# megabytes of peak memory.
_ENUM_CHUNK = 2048


@dataclass(frozen=True)
class Params:
    """Game parameters: transmission probability and cost coefficients.

    alpha scales the defenders' quadratic cost, omega the attacker's; both
    must be >= 1, which the equilibrium boundary arguments rely on.
    """

    p: float
    alpha: float = 1.0
    omega: float = 1.0

    def __post_init__(self):
        _check_p(self.p)
        _check_cost("alpha", self.alpha)
        _check_cost("omega", self.omega)


@dataclass(frozen=True)
class Dissemination:
    """Reach probabilities and expected document counts.

    reach[i, j] is the probability that agent j holds agent i's document
    after it spreads; the diagonal is 1 (an agent always holds its own).
    expected_docs[i] sums column i of reach.  std_err is populated by the
    Monte Carlo route only.
    """

    reach: np.ndarray
    expected_docs: np.ndarray
    method: str
    std_err: np.ndarray | None = None

    def __post_init__(self):
        for name in ("reach", "expected_docs", "std_err"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=float)
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.reach.shape[0]


# ---------------------------------------------------------------------------
# Component labelling, shared by exact enumeration and Monte Carlo
# ---------------------------------------------------------------------------

def _component_labels(present: np.ndarray, edges, n: int) -> np.ndarray:
    """Per-row component labels by min-label propagation along edges.

    Each row of `present` marks the surviving edges of one sample or subset;
    every agent ends labelled with the smallest agent index in its component.
    """
    labels = np.broadcast_to(np.arange(n, dtype=np.int32), present.shape[:1] + (n,)).copy()
    changed = True
    while changed:
        changed = False
        for e, (u, v) in enumerate(edges):
            on = present[:, e]
            lu, lv = labels[:, u], labels[:, v]
            low = np.minimum(lu, lv)
            upd = on & (lu > low)
            if upd.any():
                labels[upd, u] = low[upd]
                changed = True
            upd = on & (lv > low)
            if upd.any():
                labels[upd, v] = low[upd]
                changed = True
    return labels


# ---------------------------------------------------------------------------
# Exact enumeration over edge subsets
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _subset_counts(edges: tuple[tuple[int, int], ...], n: int):
    """Connectivity counts over all 2**m edge subsets, binned by subset size.

    Returns pair_counts, where pair_counts[i, j, k] is the number of k-edge
    subsets in which i and j are connected.  The counts are independent of
    p, so one walk serves every p value.
    """
    m = len(edges)
    iu, ju = np.triu_indices(n, 1)
    npairs = iu.size
    pair_bins = np.zeros((m + 1) * npairs)
    bits = np.arange(m)
    for start in range(0, 1 << m, _ENUM_CHUNK):
        masks = np.arange(start, min(start + _ENUM_CHUNK, 1 << m))
        present = ((masks[:, None] >> bits) & 1).astype(bool)
        k = present.sum(axis=1)
        labels = _component_labels(present, edges, n)
        joined = labels[:, iu] == labels[:, ju]
        slot = k[:, None] * npairs + np.arange(npairs)
        pair_bins += np.bincount(slot[joined], minlength=pair_bins.size)
    pair_counts = np.zeros((n, n, m + 1))
    pair_counts[iu, ju] = pair_bins.reshape(m + 1, npairs).T
    pair_counts += np.transpose(pair_counts, (1, 0, 2))
    pair_counts.flags.writeable = False
    return pair_counts


def _subset_weights(m: int, p: float) -> np.ndarray:
    ks = np.arange(m + 1)
    return p**ks * (1.0 - p) ** (m - ks)


def reach_exact(g: Graph, p: float) -> Dissemination:
    """Exact reach matrix by enumerating all 2**m edge subsets.

    Each subset of size k carries weight p**k (1-p)**(m-k); an ordered
    pair accumulates the weight of every subset connecting it.  This is
    the ground-truth oracle the other methods are checked against.
    """
    _check_p(p)
    m = g.edge_count
    if m > MAX_EXACT_EDGES:
        raise ValueError(
            f"exact enumeration supports at most {MAX_EXACT_EDGES} edges, "
            f"got {m}; use the closed form or Monte Carlo"
        )
    pair_counts = _subset_counts(g.edges, g.n)
    reach = pair_counts @ _subset_weights(m, p)
    np.fill_diagonal(reach, 1.0)
    return Dissemination(reach, reach.sum(axis=0), METHOD_EXACT)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def _lchoose(a: int, b: int) -> float:
    return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)


def _binom_term(a: int, b: int, base: float, exp: int) -> float:
    """C(a, b) * base**exp without overflow for large a."""
    if a <= _EXACT_BINOM_MAX:
        return math.comb(a, b) * base**exp
    if base == 0.0:
        return 0.0 if exp > 0 else math.exp(_lchoose(a, b))
    return math.exp(_lchoose(a, b) + exp * math.log(base))


def _all_reach_table(k: int, p: float) -> list[float]:
    """Q[1..k]: probability one document reaches all of a complete graph.

    Removing an agent from a connected K_s leaves blocks that each touch it
    and share no edge; the block of size j holding the lowest other agent
    gives Q_s = sum_j C(s-2, j-1) (1-p)^(j(s-1-j)) Q_j (1 - (1-p)^j) Q_(s-j),
    Q_(s-j) covering the other blocks with the removed agent.  No term is
    subtracted, so small p loses no digits to cancellation.
    """
    q = [0.0] * (k + 1)
    q[1] = 1.0
    if k >= 2:
        q[2] = p  # single edge must survive
    one_minus = 1.0 - p
    hit = [1.0 - one_minus**j for j in range(k + 1)]
    for s in range(3, k + 1):
        q[s] = sum(
            _binom_term(s - 2, j - 1, one_minus, j * (s - 1 - j)) * q[j] * hit[j] * q[s - j]
            for j in range(1, s)
        )
    return q


def complete_connected_probability(k: int, p: float) -> float:
    """Probability a document reaches every agent of a complete graph on k nodes.

    Equals the probability that the Bernoulli-thinned K_k stays connected;
    see `_all_reach_table` for the all-positive recursion.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_p(p)
    return _all_reach_table(k, p)[k]


def complete_pair_reach(n: int, p: float) -> float:
    """Reach probability between two distinct agents of a complete graph."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    _check_p(p)
    if n == 2:
        return p
    if n == 3:
        return p + p**2 - p**3
    q = _all_reach_table(n, p)
    one_minus = 1.0 - p
    total = sum(
        _binom_term(n - 2, k - 2, one_minus, k * (n - k)) * q[k]
        for k in range(2, n + 1)
    )
    return min(1.0, total)


def complete_pair_bounds(n: int, p: float) -> tuple[float, float]:
    """(lower, upper) envelope for the complete-graph pair reach probability.

    The lower bound keeps only length-<=2 paths; the upper bound only asks
    that some edge reaches the destination.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    _check_p(p)
    lower = 1.0 - (1.0 - p) * (1.0 - p**2) ** (n - 2)
    upper = 1.0 - (1.0 - p) ** (n - 1)
    return lower, upper


def ring_pair_reach(n: int, p: float, dist: int) -> float:
    """Reach probability on a ring between agents `dist` edges apart."""
    if dist == 0:
        return 1.0
    return p**dist + p ** (n - dist) - p**n


def ring_docs(n: int, p: float) -> float:
    """Expected documents per agent on a ring, in polynomial form.

    The rational form has a removable singularity at p=1; the polynomial
    1 + 2*sum(p**l) - (n-1)*p**n does not.
    """
    return 1.0 + 2.0 * sum(p**ell for ell in range(1, n)) - (n - 1) * p**n


def star_docs(n: int, p: float) -> tuple[float, float]:
    """(hub, leaf) expected documents on a star."""
    return 1.0 + (n - 1) * p, 1.0 + p + (n - 2) * p**2


def complete_docs(n: int, p: float) -> float:
    """Expected documents per agent on a complete graph."""
    return 1.0 + (n - 1) * complete_pair_reach(n, p)


def topology_docs(topology: str, n: int, p: float) -> np.ndarray:
    """Per-agent expected documents for a named topology family."""
    _check_p(p)
    if topology == RING:
        if n < 3:
            raise ValueError("ring needs n >= 3")
        return np.full(n, ring_docs(n, p))
    if topology == STAR:
        if n < 2:
            raise ValueError("star needs n >= 2")
        hub, leaf = star_docs(n, p)
        docs = np.full(n, leaf)
        docs[0] = hub
        return docs
    if topology == COMPLETE:
        return np.full(n, complete_docs(n, p))
    raise ValueError(f"no closed form for topology {topology!r}")


def reach_closed_form(g: Graph, p: float) -> Dissemination:
    """Closed-form reach matrix for ring, star, and complete topologies."""
    _check_p(p)
    n = g.n
    if g.topology == STAR:
        reach = np.full((n, n), p**2)
        reach[0, :] = reach[:, 0] = p
    elif g.topology == RING:
        vals = np.array([ring_pair_reach(n, p, d) for d in range(n // 2 + 1)])
        d = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        reach = vals[np.minimum(d, n - d)]
    elif g.topology == COMPLETE:
        reach = np.full((n, n), complete_pair_reach(n, p))
    else:
        raise ValueError(
            f"no closed form for topology {g.topology!r}; "
            "use exact enumeration or Monte Carlo"
        )
    np.fill_diagonal(reach, 1.0)
    return Dissemination(reach, reach.sum(axis=0), METHOD_CLOSED)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def reach_monte_carlo(
    g: Graph, p: float, samples: int, seed: int = 0
) -> Dissemination:
    """Monte Carlo reach estimate from 2 * `samples` shared spreads.

    Each spread draws every edge once and is labelled once; every source
    reads its row from the same labels, so each entry averages 2 * `samples`
    spreads.  Sharing the spreads across sources is sound because every
    output is a pairwise marginal, the probability that i and j are joined;
    it also makes the estimate exactly symmetric.  One RNG stream, read in
    order, keeps estimates reproducible and independent of the chunk size.
    std_err holds the binomial standard error of each entry.
    """
    _check_p(p)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    n, edges = g.n, g.edges
    spreads = 2 * samples
    rng = np.random.default_rng(seed & (2**64 - 1))
    counts = np.zeros((n, n))
    for start in range(0, spreads, _MC_CHUNK):
        present = rng.random((min(_MC_CHUNK, spreads - start), len(edges))) < p
        labels = _component_labels(present, edges, n)
        for src in range(n):
            counts[src] += (labels == labels[:, src : src + 1]).sum(axis=0)
    reach = counts / spreads
    std_err = np.sqrt(reach * (1.0 - reach) / spreads)
    return Dissemination(reach, reach.sum(axis=0), METHOD_MC, std_err=std_err)


def disseminate(
    g: Graph,
    p: float,
    method: str = METHOD_EXACT,
    samples: int = 100_000,
    seed: int = 0,
) -> Dissemination:
    """Dispatch to one of the three computation routes by name."""
    if method == METHOD_EXACT:
        return reach_exact(g, p)
    if method == METHOD_CLOSED:
        return reach_closed_form(g, p)
    if method == METHOD_MC:
        return reach_monte_carlo(g, p, samples, seed)
    raise ValueError(f"unknown method {method!r}; expected exact, closed, or mc")


# ---------------------------------------------------------------------------
# Coverage threshold
# ---------------------------------------------------------------------------

def _mean_docs(topology: str, n: int, p: float) -> float:
    return float(topology_docs(topology, n, p).mean())


def p_for_half_coverage(g: Graph, tolerance: float = 1e-9) -> float:
    """Transmission probability at which mean expected documents hit n/2.

    Uses bisection on the closed-form mean, which is strictly increasing
    in p.  On the (non-homogeneous) star this targets the mean over
    agents; per-class thresholds differ and are not what this reports.
    """
    if g.topology not in TOPOLOGIES:
        raise ValueError(f"closed-form topologies only, got {g.topology!r}")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    n = g.n
    target = n / 2.0
    if _mean_docs(g.topology, n, 0.0) >= target - tolerance:
        return 0.0  # n=2 boundary: one document is already half of n
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = _mean_docs(g.topology, n, mid)
        if abs(val - target) <= tolerance:
            return mid
        if val < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _check_p(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"transmission probability must be in [0, 1], got {p}")


def _check_cost(name: str, value: float) -> None:
    """Cost coefficients must be finite and >= 1; NaN fails every comparison."""
    if not 1.0 <= value < math.inf:
        raise ValueError(f"{name} must be a finite number >= 1, got {value}")

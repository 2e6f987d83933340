"""Document-spread probabilities on a network.

Each agent's document spreads over an independent random subgraph in which
every edge survives with probability p.  The reach matrix holds, for each
ordered pair (i, j), the probability that j ends up holding i's document;
the expected-documents vector is its column sum.  Three routes compute the
same quantities: exact counts of the edge subsets that join each pair (the
ground-truth oracle, by a recursion over vertex subsets or by enumerating
edge subsets, whichever is cheaper), per-topology closed forms, and Monte
Carlo.
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

# Exact reach takes a recursion over vertex subsets (about 3**n steps) or
# enumerates all 2**m edge subsets, whichever is cheaper.  With at most 12
# agents a graph has at most 66 edges, and C(66, 33) < 2**63 keeps every
# recursion count exact in int64.  Enumeration doubles with each edge and
# takes about 8 s at 22.
MAX_EXACT_AGENTS = 12
MAX_EXACT_EDGES = 22

_MC_CHUNK = 50_000
# Uniforms drawn per Monte Carlo chunk: graphs of up to 64 edges keep
# _MC_CHUNK spreads a chunk, denser ones take fewer, so a chunk's draw
# stays near 26 MB whatever the edge count.
_MC_DRAWS = 64 * _MC_CHUNK
# Masks labelled per enumeration step; larger chunks buy little speed for
# megabytes of peak memory.
_ENUM_CHUNK = 2048
# (S, T) pairs summed per recursion step; bounds the gathered counts at
# _PAIR_CHUNK rows of at most 67 int64 values (66 edges).
_PAIR_CHUNK = 1 << 15
# Rows of complete-graph recursion weights built at once: a few array ops
# per block instead of per row, with memory linear in n.
_ROW_BLOCK = 256


@dataclass(frozen=True)
class Params:
    """Game cost coefficients.

    alpha scales the defenders' quadratic cost, omega the attacker's; both
    must be >= 1, which the equilibrium boundary arguments rely on.  The
    network and p reach the game only through a Dissemination.
    """

    alpha: float = 1.0
    omega: float = 1.0

    def __post_init__(self):
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
# Exact reach: edge subsets that join each pair, counted by size
# ---------------------------------------------------------------------------

def _exact_counter(n: int, m: int):
    """The cheaper exact counting route for n agents and m edges.

    The recursion over vertex subsets takes about 3**n steps and enumeration
    2**m.  A graph with more than MAX_EXACT_AGENTS agents and more than
    MAX_EXACT_EDGES edges fits neither: ValueError.
    """
    if n > MAX_EXACT_AGENTS and m > MAX_EXACT_EDGES:
        raise ValueError(
            f"exact dissemination supports at most {MAX_EXACT_AGENTS} agents or at "
            f"most {MAX_EXACT_EDGES} edges, got {n} agents and {m} edges; "
            "use the closed form or Monte Carlo"
        )
    return _vertex_subset_counts if 3**n <= 2**m else _edge_subset_counts


@lru_cache(maxsize=32)
def _subset_counts(count, edges: tuple[tuple[int, int], ...], n: int) -> np.ndarray:
    """Read-only pair_counts from the route `count`, cached by graph.

    pair_counts[i, j, k] is the number of k-edge subsets in which i and j
    are connected, zero on the diagonal, in int64.  The counts are
    independent of p, so one count serves every p value.
    """
    pair_counts = count(edges, n)
    pair_counts.flags.writeable = False
    return pair_counts


def _edge_subset_counts(edges, n: int) -> np.ndarray:
    """pair_counts by labelling all 2**m edge subsets, _ENUM_CHUNK at a time."""
    m = len(edges)
    iu, ju = np.triu_indices(n, 1)
    npairs = iu.size
    pair_bins = np.zeros((m + 1) * npairs, dtype=np.int64)
    bits = np.arange(m)
    for start in range(0, 1 << m, _ENUM_CHUNK):
        masks = np.arange(start, min(start + _ENUM_CHUNK, 1 << m))
        present = ((masks[:, None] >> bits) & 1).astype(bool)
        k = present.sum(axis=1)
        labels = _component_labels(present, edges, n)
        joined = labels[:, iu] == labels[:, ju]
        slot = k[:, None] * npairs + np.arange(npairs)
        pair_bins += np.bincount(slot[joined], minlength=pair_bins.size)
    pair_counts = np.zeros((n, n, m + 1), dtype=np.int64)
    pair_counts[iu, ju] = pair_bins.reshape(m + 1, npairs).T
    pair_counts += np.transpose(pair_counts, (1, 0, 2))
    return pair_counts


def _vertex_subset_counts(edges, n: int) -> np.ndarray:
    """pair_counts by a recursion over vertex subsets, in exact int64.

    A row of counts by subset size is a polynomial in x.  For a vertex set
    S with e(S) edges inside it, C_S counts the edge subsets of the graph
    induced on S that connect all of S.  Sorting the (1+x)**e(S) edge
    subsets of S by the component T of S's lowest agent gives
    C_S = (1+x)**e(S) - sum over T, a proper subset of S holding that
    agent, of C_T (1+x)**e(S - T) (Gilbert, Ann. Math. Statist. 1959).  The
    subsets of the whole graph in which S is a component number
    C_S (1+x)**e(V - S), and pair (i, j) sums them over every S holding
    both.  Every term is nonnegative and part of a count no larger than
    C(m, k), so nothing overflows.  Sets are bitmasks; S is handled by
    size, about 3**n / 2 pairs (S, T) in all.
    """
    m = len(edges)
    sets = np.arange(1 << n)
    member = (sets[:, None] >> np.arange(n)) & 1
    size = member.sum(axis=1)
    edge_sets = np.array([(1 << u) | (1 << v) for u, v in edges])
    inner = ((sets[:, None] & edge_sets) == edge_sets).sum(axis=1)  # e(S)
    binomial = np.zeros((m + 1, m + 1), dtype=np.int64)  # row d: (1+x)**d
    binomial[0, 0] = 1
    for d in range(m):
        binomial[d + 1] = _times_one_plus_x(binomial[d])
    conn = np.zeros((1 << n, m + 1), dtype=np.int64)
    conn[1 << np.arange(n), 0] = 1
    for s in range(2, n + 1):
        layer = sets[size == s]
        # Each S's agents above its lowest, and the 2**(s-1) - 1 nonempty
        # picks among them of the part S - T left out of T.
        above = np.nonzero(member[layer])[1].reshape(layer.size, s)[:, 1:]
        picks = (np.arange(1, 1 << (s - 1))[:, None] >> np.arange(s - 1)) & 1
        width = inner[layer].max() + 1  # no count in this layer has higher degree
        rows = max(1, _PAIR_CHUNK // len(picks))
        for lo in range(0, layer.size, rows):
            whole = layer[lo : lo + rows]
            left_out = (1 << above[lo : lo + rows]) @ picks.T
            split = _sum_times_binomial(
                conn[:, :width], whole[:, None] ^ left_out, inner[left_out]
            )
            conn[whole, :width] = binomial[inner[whole], :width] - split
    outside = inner[sets[-1] ^ sets]
    spread = conn.copy()
    for d in range(outside.max()):
        grow = outside > d
        spread[grow] = _times_one_plus_x(spread[grow])
    pair_counts = np.zeros((n, n, m + 1), dtype=np.int64)
    for i in range(n):
        holds = member[:, i] == 1
        pair_counts[i] = member[holds].T @ spread[holds]
        pair_counts[i, i] = 0
    return pair_counts


def _times_one_plus_x(poly: np.ndarray) -> np.ndarray:
    """Each row times (1 + x); the top coefficient must be zero."""
    out = poly.copy()
    out[..., 1:] += poly[..., :-1]
    return out


def _sum_times_binomial(polys: np.ndarray, index: np.ndarray, power: np.ndarray) -> np.ndarray:
    """Row r: the sum over c of polys[index[r, c]] * (1+x)**power[r, c].

    Terms sharing a row and a power are added first; Horner's rule in
    (1 + x) then takes one shifted add per power.  Powers must stay below
    the polynomial width, and the products must fit in it.
    """
    rows, width = index.shape[0], polys.shape[1]
    key = (np.arange(rows)[:, None] * width + power).ravel()
    order = np.argsort(key)
    key = key[order]
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    by_power = np.zeros((rows * width, width), dtype=np.int64)
    by_power[key[first]] = np.add.reduceat(polys[index.ravel()[order]], first)
    by_power = by_power.reshape(rows, width, width)
    total = by_power[:, -1]
    for d in range(width - 2, -1, -1):
        total = _times_one_plus_x(total) + by_power[:, d]
    return total


def _subset_weights(m: int, p: float) -> np.ndarray:
    ks = np.arange(m + 1)
    return p**ks * (1.0 - p) ** (m - ks)


def reach_exact(g: Graph, p: float) -> Dissemination:
    """Exact reach matrix from the edge subsets that join each pair.

    Each subset of size k carries weight p**k (1-p)**(m-k); an ordered
    pair accumulates the weight of every subset connecting it.  The
    subsets are counted by a recursion over vertex subsets or by
    enumerating all 2**m of them, whichever is cheaper; a graph needs at
    most MAX_EXACT_AGENTS agents or at most MAX_EXACT_EDGES edges.  This is
    the ground-truth oracle the other methods are checked against.
    """
    _check_p(p)
    count = _exact_counter(g.n, g.edge_count)  # before listing a large graph's edges
    pair_counts = _subset_counts(count, g.edges, g.n)
    reach = pair_counts @ _subset_weights(g.edge_count, p)
    np.fill_diagonal(reach, 1.0)
    return Dissemination(reach, reach.sum(axis=0), METHOD_EXACT)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def _complete_tables(k: int, p: float) -> tuple[np.ndarray, np.ndarray | None]:
    """(q, pair_weights) for reach on a complete graph of k agents.

    q[s], s = 1..k, is the probability that one document reaches all of
    K_s.  Removing an agent from a connected K_s leaves blocks that each
    touch it and share no edge; the block of size j holding the lowest other
    agent gives Q_s = sum_j C(s-2, j-1) (1-p)^(j(s-1-j)) Q_j (1 - (1-p)^j)
    Q_(s-j), Q_(s-j) covering the other blocks with the removed agent.  No
    term is subtracted, so small p loses no digits to cancellation.

    pair_weights[b] = C(k-2, b) (1-p)^((b+2)(k-2-b)) weighs q[b+2] in the
    reach between two agents (None for k = 1).  It shares row k's
    binomials, so it is built as one more row after it.  The weights come
    from log-factorials, so large k cannot overflow, _ROW_BLOCK rows at a
    time; each row of the recursion then costs a slice and a dot product.
    """
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(k + 1)])
    q = np.zeros(k + 1)
    q[1] = 1.0
    if k >= 2:
        q[2] = p  # single edge must survive
    # q reversed, so that q[s-1], ..., q[1] is a forward slice: a reversed
    # view would take numpy's own dot loop instead of BLAS, and round otherwise.
    backward = q[::-1].copy()
    one_minus = 1.0 - p
    hit = 1.0 - one_minus ** np.arange(k + 1)
    for first in range(3, k + 2, _ROW_BLOCK):
        last = min(first + _ROW_BLOCK, k + 2) - 1  # row k + 1 holds the pair weights
        a = np.arange(first - 2, last - 1)[:, None]  # s - 2
        if last > k:
            a[-1] = k - 2  # the pair weights share row k's binomials
        b = np.arange(a[-1, 0] + 1)  # j - 1
        rest = np.maximum(a - b, 0)  # s-1-j, clipped past the row's end, which no slice reads
        exponent = (b + 1) * rest
        if last > k:
            exponent[-1] += rest[-1]
        log_comb = log_fact[a] - log_fact[b] - log_fact[rest]
        if one_minus == 0.0:
            weights = np.where(exponent == 0, np.exp(log_comb), 0.0)
        else:
            weights = np.exp(log_comb + exponent * math.log(one_minus))
        for s, row in zip(range(first, min(last, k) + 1), weights):
            terms = row[: s - 1] * q[1:s] * hit[1:s]
            q[s] = backward[k - s] = terms.dot(backward[k - s + 1 : k])
    return q, (weights[-1] if k >= 2 else None)


def complete_connected_probability(k: int, p: float) -> float:
    """Probability a document reaches every agent of a complete graph on k nodes.

    Equals the probability that the Bernoulli-thinned K_k stays connected;
    see `_complete_tables` for the all-positive recursion.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_p(p)
    return float(_complete_tables(k, p)[0][k])


def complete_pair_reach(n: int, p: float) -> float:
    """Reach probability between two distinct agents of a complete graph."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    _check_p(p)
    if n == 2:
        return p
    if n == 3:
        return p + p**2 - p**3
    q, pair_weights = _complete_tables(n, p)
    return min(1.0, float(pair_weights.dot(q[2:])))


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
    _check_p(p)
    if dist == 0:
        return 1.0
    return p**dist + p ** (n - dist) - p**n


def ring_docs(n: int, p: float) -> float:
    """Expected documents per agent on a ring, in polynomial form.

    The rational form has a removable singularity at p=1; the polynomial
    1 + 2*sum(p**l) - (n-1)*p**n does not.
    """
    _check_p(p)
    return 1.0 + 2.0 * sum(p**ell for ell in range(1, n)) - (n - 1) * p**n


def star_docs(n: int, p: float) -> tuple[float, float]:
    """(hub, leaf) expected documents on a star."""
    _check_p(p)
    return 1.0 + (n - 1) * p, 1.0 + p + (n - 2) * p**2


def complete_docs(n: int, p: float) -> float:
    """Expected documents per agent on a complete graph."""
    return 1.0 + (n - 1) * complete_pair_reach(n, p)


def topology_docs(topology: str, n: int, p: float) -> np.ndarray:
    """Per-agent expected documents for a named topology family."""
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

    Each spread draws every edge once; every source reads its row from the
    same labels, so each entry averages 2 * `samples` spreads.  Sharing the
    spreads across sources is sound because every output is a pairwise
    marginal, the probability that i and j are joined; it also makes the
    estimate exactly symmetric.  An entry depends on a spread only through
    its set of surviving edges, so when the 2**m possible sets are no more
    than the spreads in a chunk, the chunk's repeated sets are counted and
    each distinct one is labelled once; larger graphs label every spread.
    Either way the integer counts are the same.  A chunk draws at most
    _MC_DRAWS uniforms, so dense graphs take fewer spreads a chunk.  One RNG
    stream, read in order, keeps estimates reproducible and independent of
    the chunk size.
    std_err holds the binomial standard error of each entry.
    """
    _check_p(p)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    n, edges = g.n, g.edges
    m = len(edges)
    bits = np.arange(m)
    spreads = 2 * samples
    rng = np.random.default_rng(seed & (2**64 - 1))
    counts = np.zeros((n, n))
    chunk = max(1, min(_MC_CHUNK, _MC_DRAWS // max(m, 1)))
    for start in range(0, spreads, chunk):
        present = rng.random((min(chunk, spreads - start), m)) < p
        weight = None
        if 1 << m <= len(present):
            mult = np.bincount(present @ (1 << bits), minlength=1 << m)
            masks = np.flatnonzero(mult)
            present = ((masks[:, None] >> bits) & 1).astype(bool)
            weight = mult[masks].astype(float)
        labels = _component_labels(present, edges, n)
        for src in range(n):
            same = labels == labels[:, src : src + 1]
            counts[src] += same.sum(axis=0) if weight is None else weight @ same
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

def _p_for_mean_docs(topology: str, n: int, target: float, tolerance: float) -> float:
    """Bisect the closed-form mean documents, strictly increasing in p, for `target`.

    Returns 0 when p = 0 already reaches the target within `tolerance`.
    """
    if not tolerance > 0:  # NaN fails too
        raise ValueError("tolerance must be positive")

    def mean_docs(p):
        return float(topology_docs(topology, n, p).mean())

    if mean_docs(0.0) >= target - tolerance:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = mean_docs(mid)
        if abs(val - target) <= tolerance:
            return mid
        if val < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def p_for_half_coverage(g: Graph, tolerance: float = 1e-9) -> float:
    """Transmission probability at which mean expected documents hit n/2.

    Inverts the closed-form mean with `_p_for_mean_docs`, the same
    bisection that places the lower end of the crossover condition
    interval.  On the (non-homogeneous) star this targets the mean over
    agents; per-class thresholds differ and are not what this reports.
    At n = 2 one document is already half of n, so this returns 0.
    """
    if g.topology not in TOPOLOGIES:
        raise ValueError(f"closed-form topologies only, got {g.topology!r}")
    return _p_for_mean_docs(g.topology, g.n, g.n / 2.0, tolerance)


def _check_p(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"transmission probability must be in [0, 1], got {p}")


def _check_cost(name: str, value: float) -> None:
    """Cost coefficients must be finite and >= 1; NaN fails every comparison."""
    if not 1.0 <= value < math.inf:
        raise ValueError(f"{name} must be a finite number >= 1, got {value}")

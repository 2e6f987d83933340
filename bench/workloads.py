"""The benchmark's workloads: the commands each runs and the checks on their output.

Every workload is a list of `netsec` command lines built from the seed.
The checks do not reuse the code being timed, and they accept what later
changes may legitimately alter: last-digit changes from a reordered sum
and new Monte Carlo streams for a given seed.  Why each workload exists is
stated in BENCHMARK.json.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

STAR_SWEEP_N = 5
STAR_SWEEP_GRID = "0:1:21"
STAR_WIDE_N = 20
STAR_WIDE_P = 0.9
EXACT_N = 8
EXACT_M = 17  # 2**17 masks; the cost is set by n and m, the seed's graph moves it by a few %
MC_N = 6
MC_P = 0.5
MC_SAMPLES = 1_000_000

EDGES_FILE = "graph.txt"
SWEEP_CSV = "sweep.csv"
SWEEP_SVG = "sweep.svg"
STDOUT = "stdout"

# Equilibrium and optimum come from iterative solvers stopped at 1e-8.
SOLVER_NOISE = 1e-6
# CSV numbers carry 12 significant digits.
CSV_TOL = 1e-10
MC_SIGMAS = 5.0


@dataclass
class Command:
    argv: list[str]
    files: tuple[str, ...] = ()  # files it writes, relative to the work directory


@dataclass
class Workload:
    """Commands of one pass, the input files they read, and the output check.

    `check` takes each command's outputs ({"stdout": bytes, file: bytes})
    and returns {command index: problem} for the commands that failed it.
    `reference` names the kind of reference work (reference.py) whose speed
    tracks the commands' own.
    `nonzero_counts` are per-layer counts the traced run must see above 0.
    """

    commands: list[Command]
    check: object
    reference: str
    inputs: dict[str, str] = field(default_factory=dict)
    nonzero_counts: tuple[str, ...] = ()


class CheckError(ValueError):
    pass


def _require(condition, message):
    if not condition:
        raise CheckError(message)


def _numbers(fields, line):
    try:
        values = [float(x) for x in fields]
    except ValueError:
        raise CheckError(f"non-numeric field in {line!r}") from None
    _require(all(math.isfinite(v) for v in values), f"non-finite value in {line!r}")
    return values


def _sections(text: str) -> dict[str, list[list[float]]]:
    """Rows under each header line of a sectioned `netsec` CSV."""
    sections: dict[str, list[list[float]]] = {}
    rows = None
    for line in text.strip().splitlines():
        fields = line.split(",")
        try:
            float(fields[0])
        except ValueError:  # header fields are names
            rows = sections.setdefault(line, [])
            continue
        _require(rows is not None, f"data before any header: {line!r}")
        rows.append(_numbers(fields, line))
    return sections


def _check_each(check_one):
    """Apply a per-command check and collect its failures."""

    def check(outputs):
        problems = {}
        for idx, out in enumerate(outputs):
            try:
                check_one(out)
            except CheckError as exc:
                problems[idx] = str(exc)
        return problems

    return check


def _sign_changes(values, noise):
    signs = [v > 0 for v in values if abs(v) > noise]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


# ---------------------------------------------------------------------------
# star-sweep
# ---------------------------------------------------------------------------

def _check_star_sweep(out):
    lines = out[SWEEP_CSV].decode().strip().splitlines()
    header = lines[0].split(",")
    n = STAR_SWEEP_N
    expected = ["p"] + [f"{tag}_{i}" for tag in ("q_NR", "q_OR", "q_NS", "q_OS") for i in range(n)]
    _require(header == expected, f"unexpected header {lines[0]!r}")
    rows = np.array([_numbers(line.split(","), line) for line in lines[1:]])
    lo, hi, steps = STAR_SWEEP_GRID.split(":")
    _require(rows.shape == (int(steps), len(header)), f"expected {steps} rows of {len(header)}")
    _require(np.allclose(rows[:, 0], np.linspace(float(lo), float(hi), int(steps)), atol=CSV_TOL),
             "p column is not the requested grid")
    q = rows[:, 1:]
    _require(((q >= 0.0) & (q <= 1.0)).all(), "an investment lies outside [0, 1]")
    col = {name: idx for idx, name in enumerate(header)}
    # The hub is agent 0; every other agent is a leaf.
    for agent in range(n):
        q_nr, q_ns, q_os = (rows[:, col[f"{tag}_{agent}"]] for tag in ("q_NR", "q_NS", "q_OS"))
        _require((q_ns >= q_nr - SOLVER_NOISE).all(), f"agent {agent}: q_NS < q_NR")
        changes = _sign_changes(q_ns - q_os, SOLVER_NOISE)
        _require(changes == 1, f"agent {agent}: q_NS - q_OS changes sign {changes} times, not once")
    svg = out[SWEEP_SVG].strip()
    _require(svg.startswith(b"<svg") and svg.endswith(b"</svg>"), "SVG chart is malformed")


def star_sweep(seed: int) -> Workload:
    del seed  # deterministic: the optimum's random starts use a fixed seed
    argv = ["sweep-investments", "--topology", "star", "--n", str(STAR_SWEEP_N),
            "--p-grid", STAR_SWEEP_GRID, "--alpha", "1", "--omega", "1",
            "--out", SWEEP_CSV, "--svg", SWEEP_SVG]
    return Workload(
        [Command(argv, (SWEEP_CSV, SWEEP_SVG))],
        _check_each(_check_star_sweep),
        "projection",
        nonzero_counts=("attack.solve.calls", "game.brd.calls", "game.opt.calls"),
    )


# ---------------------------------------------------------------------------
# star-wide
# ---------------------------------------------------------------------------

def _equilibrium(out, n):
    sections = _sections(out[STDOUT].decode())
    agents = sections.get("i,q_i,a_i,reward_i", [])
    summary = sections.get("S,lambda,n_star", [])
    _require(len(agents) == n and len(summary) == 1, "unexpected equilibrium CSV layout")
    q = np.array([row[1] for row in agents])
    a = np.array([row[2] for row in agents])
    _require(((q >= 0.0) & (q <= 1.0)).all(), "an investment lies outside [0, 1]")
    _require(((a >= 0.0) & (a <= 1.0)).all() and abs(a.sum() - 1.0) <= 1e-9,
             "the attack is not a probability vector")
    return summary[0][0]


def _check_star_wide(outputs):
    problems = {}
    welfare = []
    for idx, out in enumerate(outputs):
        try:
            welfare.append(_equilibrium(out, STAR_WIDE_N))
        except CheckError as exc:
            problems[idx] = str(exc)
    if not problems and welfare[1] < welfare[0] - 1e-9:
        problems[1] = f"optimum welfare {welfare[1]} is below the Nash welfare {welfare[0]}"
    return problems


def star_wide(seed: int) -> Workload:
    del seed  # deterministic
    base = ["--topology", "star", "--n", str(STAR_WIDE_N), "--p", str(STAR_WIDE_P),
            "--alpha", "1", "--omega", "1"]
    return Workload(
        [Command(["equilibrium", "--regime", regime, *base])
         for regime in ("nash-strategic", "opt-strategic")],
        _check_star_wide,
        "projection",
        nonzero_counts=("attack.solve.calls", "game.brd.calls", "game.opt.calls"),
    )


# ---------------------------------------------------------------------------
# Dissemination workloads
# ---------------------------------------------------------------------------

def _reach_output(out, n):
    """(reach matrix, expected documents) from `disseminate` CSV, with the
    invariants every route must meet."""
    sections = _sections(out[STDOUT].decode())
    pairs = sections.get("i,j,P_ij", [])
    docs_rows = sections.get("i,D_i", [])
    _require(len(pairs) == n * n and len(docs_rows) == n, "unexpected dissemination CSV layout")
    reach = np.zeros((n, n))
    for i, j, value in pairs:
        reach[int(i), int(j)] = value
    docs = np.array([row[1] for row in docs_rows])
    _require(((reach >= 0.0) & (reach <= 1.0)).all(), "a reach probability lies outside [0, 1]")
    _require((np.diag(reach) == 1.0).all(), "the reach diagonal is not 1")
    _require(np.abs(reach - reach.T).max() <= CSV_TOL, "the reach matrix is not symmetric")
    _require(np.abs(docs - reach.sum(axis=0)).max() <= n * CSV_TOL,
             "expected documents differ from the reach column sums")
    return reach, docs


def random_connected_edges(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """m distinct edges on agents 0..n-1 that contain a random spanning tree."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for k in range(1, n):
        u, v = order[k], order[rng.randrange(k)]
        edges.add((min(u, v), max(u, v)))
    spare = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    edges.update(rng.sample(spare, m - len(edges)))
    edges = sorted(edges)
    rng.shuffle(edges)
    return edges


def reference_reach(n: int, edges, p: float, chunk: int = 4096) -> np.ndarray:
    """Exact reach by Boolean transitive closure of every edge subset at once.

    An oracle independent of the program's per-subset union-find: the
    adjacency of each subset, with self-loops, is squared until paths of
    length n - 1 are covered, and the closures are summed with weights
    p**k (1 - p)**(m - k).
    """
    m = len(edges)
    bits = np.arange(m)
    reach = np.zeros((n, n))
    for lo in range(0, 1 << m, chunk):
        masks = np.arange(lo, min(lo + chunk, 1 << m))
        present = ((masks[:, None] >> bits) & 1).astype(float)
        k = present.sum(axis=1)
        weight = p**k * (1.0 - p) ** (m - k)
        adj = np.broadcast_to(np.eye(n), (masks.size, n, n)).copy()
        for e, (u, v) in enumerate(edges):
            adj[:, u, v] = adj[:, v, u] = present[:, e]
        for _ in range((n - 1).bit_length()):
            adj = np.minimum(adj @ adj, 1.0)
        reach += np.tensordot(weight, adj, axes=1)
    return reach


def exact_custom(seed: int) -> Workload:
    rng = random.Random(f"exact-custom:{seed}")
    edges = random_connected_edges(rng, EXACT_N, EXACT_M)
    p = round(rng.uniform(0.1, 0.9), 4)
    expected = reference_reach(EXACT_N, edges, p)

    def check_one(out):
        reach, _ = _reach_output(out, EXACT_N)
        worst = np.abs(reach - expected).max()
        _require(worst <= CSV_TOL, f"reach differs from the enumeration oracle by {worst:.3g}")

    return Workload(
        [Command(["disseminate", "--edges", EDGES_FILE, "--p", str(p)])],
        _check_each(check_one),
        "union_find",
        inputs={EDGES_FILE: "".join(f"{u} {v}\n" for u, v in edges)},
    )


def ring_reach(n: int, p: float) -> np.ndarray:
    """Ring closed form p**d + p**(n - d) - p**n at ring distance d."""
    idx = np.arange(n)
    d = np.abs(idx[:, None] - idx[None, :])
    reach = p**d + p ** (n - d) - p**n
    np.fill_diagonal(reach, 1.0)
    return reach


def mc_ring(seed: int) -> Workload:
    expected = ring_reach(MC_N, MC_P)
    # Each entry averages two independent binomial estimates of `samples` draws.
    sigma = np.sqrt(expected * (1.0 - expected) / (2.0 * MC_SAMPLES))

    def check_one(out):
        reach, _ = _reach_output(out, MC_N)
        excess = np.abs(reach - expected) - MC_SIGMAS * sigma
        _require((excess <= CSV_TOL).all(),
                 f"a Monte Carlo entry lies more than {MC_SIGMAS} sigma from the closed form")

    argv = ["disseminate", "--topology", "ring", "--n", str(MC_N), "--p", str(MC_P),
            "--method", "mc", "--samples", str(MC_SAMPLES), "--seed", str(seed)]
    return Workload([Command(argv)], _check_each(check_one), "labelling")


WORKLOADS = {
    "star-sweep": star_sweep,
    "star-wide": star_wide,
    "exact-custom": exact_custom,
    "mc-ring": mc_ring,
}

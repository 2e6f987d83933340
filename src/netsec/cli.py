"""Command-line front end: dissemination tables, attack solves, equilibria,
parameter sweeps, and crossover reports, all as CSV (optionally with an SVG
line chart).

Exit codes: 0 success, 2 invalid arguments or input, 3 solver
non-convergence.  Identical invocations with identical seeds produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import game
from ._svg import render_line_chart
from .attack import attacker_payoff, optimal_attack
from .dissemination import (
    METHOD_CLOSED,
    METHOD_EXACT,
    Params,
    disseminate,
    p_for_half_coverage,
    topology_docs,
)
from .game import NonConvergenceError
from .graph import COMPLETE, CUSTOM, RING, STAR, Graph, build_topology, load_edge_list

_VT_TOPOLOGIES = (RING, COMPLETE)

# Named topologies hold n x n float matrices; 1000 agents keep each at 8 MB.
MAX_AGENTS = 1000

# A p grid finer than steps of 1e-4 over [0, 1] is refused before allocating.
MAX_GRID_STEPS = 10_001

# Stacked reach matrices of the sweep points solved together: all 101
# points of a small graph, but only two 8 MB matrices at 1000 agents.
_SWEEP_BLOCK_BYTES = 1 << 24


def _fmt(x: float) -> str:
    """12 significant digits, the fixed CSV number format."""
    return f"{float(x):.12g}"


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo_s, hi_s, steps_s = text.split(":")
        lo, hi, steps = float(lo_s), float(hi_s), int(steps_s)
    except ValueError:
        raise ValueError(f"expected --p-grid as a:b:steps, got {text!r}") from None
    if not 2 <= steps <= MAX_GRID_STEPS:
        raise ValueError(f"p-grid needs 2 to {MAX_GRID_STEPS} steps, got {steps}")
    if not (0.0 <= lo < hi <= 1.0):
        raise ValueError("p-grid bounds must satisfy 0 <= a < b <= 1")
    return np.linspace(lo, hi, steps)


def _int_value(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _agent_count(text: str) -> int:
    n = _int_value(text)
    if n > MAX_AGENTS:
        raise argparse.ArgumentTypeError(f"at most {MAX_AGENTS} agents, got {n}")
    return n


def _sample_count(text: str) -> int:
    samples = _int_value(text)
    if samples < 1:
        raise argparse.ArgumentTypeError(f"needs at least 1 sample, got {samples}")
    return samples


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",") if tok != ""])
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {text!r}") from None


def _resolve_graph(args) -> Graph:
    if getattr(args, "edges", None):
        if args.topology or args.n is not None:
            raise ValueError("--edges gives the whole graph; drop --topology and --n")
        with open(args.edges, encoding="utf-8") as handle:
            return load_edge_list(handle.read())
    if args.topology:
        if args.n is None:
            raise ValueError("--n is required with --topology")
        return build_topology(args.topology, args.n)
    raise ValueError("specify a graph with --topology/--n or --edges FILE")


def _resolve_dissemination(g: Graph, p: float, args):
    method = getattr(args, "method", None)
    if method is None:
        method = METHOD_CLOSED if g.topology != CUSTOM else METHOD_EXACT
    return disseminate(
        g, p, method, samples=getattr(args, "samples", 100_000),
        seed=getattr(args, "seed", 0),
    )


def _vt_closed_forms(g: Graph, args) -> bool:
    """Whether closed forms serve (ring, complete); refuse, not ignore, another --method."""
    if g.topology not in _VT_TOPOLOGIES:
        return False
    if args.method not in (None, METHOD_CLOSED):
        raise ValueError(
            f"--method {args.method} is not used on {g.topology} graphs, whose closed "
            "forms are exact; give the graph with --edges to use it"
        )
    return True


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_svg(args, xs, series: dict, title: str) -> None:
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(render_line_chart(xs, series, title=title))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_disseminate(args) -> str:
    g = _resolve_graph(args)
    diss = _resolve_dissemination(g, args.p, args)
    lines = ["i,j,P_ij"]
    for i in range(g.n):
        for j in range(g.n):
            lines.append(f"{i},{j},{_fmt(diss.reach[i, j])}")
    lines.append("i,D_i")
    for i in range(g.n):
        lines.append(f"{i},{_fmt(diss.expected_docs[i])}")
    return "\n".join(lines) + "\n"


def _cmd_attack(args) -> str:
    g = _resolve_graph(args)
    q = _parse_vector(args.q)
    if q.size != g.n:
        raise ValueError(f"--q needs {g.n} entries, got {q.size}")
    diss = _resolve_dissemination(g, args.p, args)
    sol = optimal_attack(q, diss.expected_docs, args.omega)
    payoff = attacker_payoff(sol.a, q, diss.expected_docs, args.omega)
    lines = ["i,a_i"]
    lines.extend(f"{i},{_fmt(sol.a[i])}" for i in range(g.n))
    lines.append("lambda,n_star,active_set,payoff")
    active = ";".join(str(i) for i in sol.active)
    lines.append(f"{_fmt(sol.lam)},{sol.n_star},{active},{_fmt(payoff)}")
    return "\n".join(lines) + "\n"


def _equilibrium_q(g: Graph, diss, params: Params, regime: str, numeric: bool):
    docs = diss.expected_docs
    n = g.n
    if regime == game.NASH_RANDOM:
        return game.nash_random(n, params.alpha)
    if regime == game.OPT_RANDOM:
        return game.social_optimum_random(docs, params.alpha)
    # Monte Carlo docs on a ring or complete graph are never exactly equal.
    closed_ok = g.topology in _VT_TOPOLOGIES and not numeric and game._is_homogeneous(docs)
    if regime == game.NASH_STRATEGIC:
        if closed_ok:
            return game.nash_strategic_vt(docs, n, params.alpha, params.omega)
        return game.best_response_dynamics(diss, params).q
    if closed_ok:
        return game.social_optimum_strategic_vt(docs, n, params.alpha)
    return game.social_optimum_numeric(diss, params).q


def _cmd_equilibrium(args) -> str:
    g = _resolve_graph(args)
    params = Params(args.alpha, args.omega)
    diss = _resolve_dissemination(g, args.p, args)
    q = _equilibrium_q(g, diss, params, args.regime, args.numeric)
    outcome = game.evaluate_outcome(diss, params, q, args.regime)
    lines = ["i,q_i,a_i,reward_i"]
    for i in range(g.n):
        lines.append(
            f"{i},{_fmt(outcome.q[i])},{_fmt(outcome.attack_vector[i])},"
            f"{_fmt(outcome.rewards[i])}"
        )
    lines.append("S,lambda,n_star")
    if outcome.attack is not None:
        lam, n_star = outcome.attack.lam, outcome.attack.n_star
    else:
        lam, n_star = math.nan, g.n
    lines.append(f"{_fmt(outcome.welfare)},{_fmt(lam)},{n_star}")
    return "\n".join(lines) + "\n"


def _regime_profiles(g: Graph, grid, args):
    """Investments under each of game.REGIMES, in order, at every grid point
    of a star or custom graph.

    One Params holds the command's costs for every point.  Points are
    solved in grid order, in blocks whose stacked reach matrices fit in
    _SWEEP_BLOCK_BYTES; each block's strategic equilibria come from one
    stacked best-response call and its social optima from one stacked
    call.  A solver failure names its p, and it is the failure a
    point-by-point sweep would have met first.
    """
    params = Params(args.alpha, args.omega)
    block = max(1, _SWEEP_BLOCK_BYTES // (8 * g.n * g.n))
    profiles = []
    for first in range(0, len(grid), block):
        points = grid[first : first + block]
        disses = [_resolve_dissemination(g, p, args) for p in points]
        try:
            nash, failed = game.best_response_dynamics(disses, params), None
        except NonConvergenceError as exc:
            nash, failed = None, exc
        # Point by point, the optima below a failed equilibrium come first.
        solved = len(points) if failed is None else failed.index
        try:
            optima = solved and game.social_optimum_numeric(disses[:solved], params)
        except NonConvergenceError as exc:
            failed = exc
        if failed is not None:
            raise NonConvergenceError(f"at p = {_fmt(points[failed.index])}: {failed}") from failed
        for diss, q_ns, q_os in zip(disses, nash, optima):
            q_or = game.social_optimum_random(diss.expected_docs, args.alpha)
            profiles.append([game.nash_random(g.n, args.alpha), q_or, q_ns.q, q_os.q])
    return profiles


def _cmd_sweep_investments(args) -> str:
    g = _resolve_graph(args)
    Params(args.alpha, args.omega)  # checks the costs before any grid point
    grid = _parse_grid(args.p_grid)
    n = g.n
    if _vt_closed_forms(g, args):
        header = ["p", "q_NR", "q_OR", "q_NS", "q_OS"]

        def row(p):
            d = topology_docs(g.topology, n, p)[0]
            q_nr = 1.0 / (args.alpha * n)
            q_or = d / (args.alpha * n)
            q_ns = game.nash_strategic_vt(d, n, args.alpha, args.omega)[0]
            return [p, q_nr, q_or, q_ns, q_or]

        rows = [row(p) for p in grid]
    else:
        header = ["p"]
        for tag in ("q_NR", "q_OR", "q_NS", "q_OS"):
            header.extend(f"{tag}_{i}" for i in range(n))
        profiles = _regime_profiles(g, grid, args)
        rows = [[p, *np.concatenate(profile)] for p, profile in zip(grid, profiles)]
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in vals) for vals in rows)
    series = {
        name: [vals[idx] for vals in rows] for idx, name in enumerate(header) if idx
    }
    _emit_svg(args, list(grid), series, f"investments on {g.topology} n={n}")
    return "\n".join(lines) + "\n"


def _cmd_sweep_documents(args) -> str:
    topologies = [t.strip() for t in args.topology.split(",")] if args.topology else [RING, COMPLETE]
    grid = _parse_grid(args.p_grid)
    n = args.n
    if n is None:
        raise ValueError("--n is required")
    header = ["topology", "n", "p"] + [f"D_{i}" for i in range(n)]
    lines = [",".join(header)]
    series = {}
    for topology in topologies:
        docs_rows = [topology_docs(topology, n, p) for p in grid]
        for p, docs in zip(grid, docs_rows):
            lines.append(
                f"{topology},{n},{_fmt(p)}," + ",".join(_fmt(v) for v in docs)
            )
        series[topology] = [float(np.mean(docs)) for docs in docs_rows]
    _emit_svg(args, list(grid), series, f"expected documents, n={n}")
    return "\n".join(lines) + "\n"


def _cmd_crossover(args) -> str:
    g = _resolve_graph(args)
    n = g.n
    lines = ["agent_class,p_star"]
    metrics = []
    if _vt_closed_forms(g, args):
        p_star, info = game.find_crossover_p(
            g.topology, n, args.alpha, args.omega, details=True
        )
        lines.append(f"all,{_fmt(p_star)}")
        lo, hi = info["condition_interval"]
        metrics = [("strengthen_from", lo), ("strengthen_to", hi)]
    elif g.topology == STAR:
        grid = _parse_grid(args.p_grid)
        profiles = _regime_profiles(g, grid, args)
        for label, idx in (("center", 0), ("leaf", 1)):
            gaps = np.array([q_ns[idx] - q_os[idx] for _, _, q_ns, q_os in profiles])
            found = False
            for k in np.nonzero(np.sign(gaps[:-1]) * np.sign(gaps[1:]) < 0)[0]:
                frac = gaps[k] / (gaps[k] - gaps[k + 1])
                lines.append(f"{label},{_fmt(grid[k] + frac * (grid[k + 1] - grid[k]))}")
                found = True
            if not found:
                lines.append(f"{label},nan")
    else:
        raise ValueError("crossover needs a ring, complete, or star topology")
    metrics.append(("p_half_coverage", p_for_half_coverage(g)))
    lines.append("metric,value")
    lines.extend(f"{name},{_fmt(value)}" for name, value in metrics)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_graph_options(sub, need_p=True):
    sub.add_argument("--topology", choices=[RING, STAR, COMPLETE], help="named topology family")
    sub.add_argument("--n", type=_agent_count, help="number of agents")
    sub.add_argument("--edges", help="edge-list file, one 'u v' pair per line")
    if need_p:
        sub.add_argument("--p", type=float, required=True, help="transmission probability")


def _add_method_options(sub):
    sub.add_argument(
        "--method", choices=["exact", "closed", "mc"], default=None,
        help="dissemination route (default: closed for named topologies, exact otherwise)",
    )
    sub.add_argument("--samples", type=_sample_count, default=100_000, help="Monte Carlo samples")
    sub.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netsec",
        description="Two-stage network security game: dissemination, attacks, equilibria.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("disseminate", help="reach probabilities and expected documents")
    _add_graph_options(sub)
    _add_method_options(sub)
    sub.set_defaults(func=_cmd_disseminate)

    sub = subs.add_parser("attack", help="optimal attack against given investments")
    _add_graph_options(sub)
    _add_method_options(sub)
    sub.add_argument("--q", required=True, help="comma-separated investments")
    sub.add_argument("--omega", type=float, default=1.0, help="attacker cost coefficient")
    sub.set_defaults(func=_cmd_attack)

    sub = subs.add_parser("equilibrium", help="equilibrium or socially optimal investments")
    _add_graph_options(sub)
    _add_method_options(sub)
    sub.add_argument(
        "--regime", required=True,
        choices=[game.NASH_RANDOM, game.OPT_RANDOM, game.NASH_STRATEGIC, game.OPT_STRATEGIC],
    )
    sub.add_argument("--alpha", type=float, default=1.0, help="defender cost coefficient")
    sub.add_argument("--omega", type=float, default=1.0, help="attacker cost coefficient")
    sub.add_argument(
        "--numeric", action="store_true",
        help="force the iterative solvers even when a closed form applies",
    )
    sub.set_defaults(func=_cmd_equilibrium)

    sub = subs.add_parser("sweep-investments", help="all four investment profiles over a p grid")
    _add_graph_options(sub, need_p=False)
    _add_method_options(sub)
    sub.add_argument("--p-grid", default="0:1:101", help="grid as a:b:steps")
    sub.add_argument("--alpha", type=float, default=1.0)
    sub.add_argument("--omega", type=float, default=1.0)
    sub.add_argument("--svg", help="also render an SVG line chart to this path")
    sub.set_defaults(func=_cmd_sweep_investments)

    sub = subs.add_parser("sweep-documents", help="expected documents over a p grid")
    sub.add_argument("--topology", help="comma-separated topologies (default ring,complete)")
    sub.add_argument("--n", type=_agent_count, help="number of agents")
    sub.add_argument("--p-grid", default="0:1:101", help="grid as a:b:steps")
    sub.add_argument("--svg", help="also render an SVG line chart to this path")
    sub.set_defaults(func=_cmd_sweep_documents)

    sub = subs.add_parser("crossover", help="over- to under-investment crossover report")
    _add_graph_options(sub, need_p=False)
    _add_method_options(sub)
    sub.add_argument("--p-grid", default="0:1:101", help="grid for the star sweep")
    sub.add_argument("--alpha", type=float, default=1.0)
    sub.add_argument("--omega", type=float, default=1.0)
    sub.set_defaults(func=_cmd_crossover)

    for sub in subs.choices.values():
        sub.add_argument("--out", help="write CSV here instead of stdout")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.func(args)
    except NonConvergenceError as exc:
        print(f"netsec: solver did not converge: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"netsec: {exc}", file=sys.stderr)
        return 2
    _emit(args, text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

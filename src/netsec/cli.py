"""Command-line front end: dissemination tables, attack solves, equilibria,
parameter sweeps, and crossover reports, all as CSV (optionally with an SVG
line chart).  A command line that names a command and gives only plain
options (`--name=value`, `--name value`, or a bare flag) is read straight
from that command's option table, and builds no parser; anything else,
help and errors included, goes through the full argparse tree, with its
messages and exit codes.

Exit codes: 0 success, 2 invalid arguments or input, 3 solver
non-convergence.  Identical invocations with identical seeds produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import game
from ._svg import render_line_chart
from .attack import attacker_payoff, optimal_attack
from .dissemination import (
    METHOD_CLOSED,
    METHOD_EXACT,
    METHOD_MC,
    Params,
    disseminate,
    p_for_half_coverage,
    topology_docs,
)
from .game import VT_TOPOLOGIES, NonConvergenceError
from .graph import CUSTOM, STAR, TOPOLOGIES, Graph, build_topology, load_edge_list

# Named topologies hold n x n float matrices; 1000 agents keep each at 8 MB.
MAX_AGENTS = 1000

# A p grid finer than steps of 1e-4 over [0, 1] is refused before allocating.
MAX_GRID_STEPS = 10_001

# Stacked reach matrices of the sweep points solved together: all 101
# points of a small graph, but only two 8 MB matrices at 1000 agents.
_SWEEP_BLOCK_BYTES = 1 << 24

_NUMBER = "%.12g"  # 12 significant digits, the fixed CSV number format


def _fmt(x: float) -> str:
    return _NUMBER % float(x)


def _csv_rows(values: np.ndarray) -> list[str]:
    """Each row of a 2-D array as CSV numbers, formatted by one template."""
    template = ",".join([_NUMBER] * values.shape[1])
    return [template % tuple(row) for row in values.tolist()]


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
    if samples >= 2**62:  # Monte Carlo draws 2 * samples spreads as an int64
        raise argparse.ArgumentTypeError(f"at most 2**62 - 1 samples, got {samples}")
    return samples


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",")])  # an empty field fails
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {text!r}") from None


def _resolve_graph(args) -> Graph:
    if args.edges:
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
    method = args.method or (METHOD_CLOSED if g.topology != CUSTOM else METHOD_EXACT)
    return disseminate(g, p, method, samples=args.samples, seed=args.seed)


def _closed_route(g: Graph, args) -> bool:
    """The one route rule of equilibrium, sweep-investments and crossover:
    closed forms serve a ring or complete graph unless its documents are
    Monte Carlo (the method resolves to closed when not given) or
    --numeric, which only equilibrium has, asks for the solvers."""
    return g.topology in VT_TOPOLOGIES and args.method != METHOD_MC and not getattr(args, "numeric", False)


def _closed_profiles(g: Graph, p: float, params: Params) -> np.ndarray:
    """The four regimes' investments on a ring or complete graph at p, (4,
    agents) in game.REGIMES order, from the closed-form documents
    `topology_docs`, the D(p) that `find_crossover_p` bisects: the
    equilibrium at their one count, and the strategic optimum as the
    random one."""
    docs = topology_docs(g.topology, g.n, p)
    optimum = game.social_optimum_random(docs, params.alpha)
    strategic = game.nash_strategic_vt(docs[0], g.n, params.alpha, params.omega)
    return np.array([game.nash_random(g.n, params.alpha), optimum, strategic, optimum])


def _chart(args, xs, series: dict, title: str) -> str | None:
    """The SVG line chart when --svg asks for one."""
    return render_line_chart(xs, series, title=title) if args.svg else None


def _write_files(files) -> None:
    """Write each (path, text) beside its path under a temporary name, and
    rename each over its path once all are written, so a file that cannot
    be written leaves every path as it was and no temporary file.  A rename
    would replace a device or pipe, so those are written in place."""
    staged = []  # (temporary file, or the device itself; the file it replaces)
    try:
        for path, text in files:
            in_place = os.path.exists(path) and not os.path.isfile(path)  # a device or pipe
            target = path if in_place else os.path.realpath(path)  # a link's file, not the link
            temp = target if in_place else f"{target}.{os.getpid()}-{len(staged)}.tmp"
            with open(temp, "w", encoding="utf-8") as handle:
                staged.append((temp, target))
                handle.write(text)
        for temp, target in staged:
            if temp != target:
                os.replace(temp, target)
    except OSError as exc:  # name the path asked for, not a temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        for temp, target in staged:
            if temp != target and os.path.exists(temp):  # not renamed, as a later file failed
                os.remove(temp)


# ---------------------------------------------------------------------------
# Subcommands: each returns its CSV text and its SVG chart, or None
# ---------------------------------------------------------------------------

def _cmd_disseminate(args) -> tuple[str, str | None]:
    g = _resolve_graph(args)
    diss = _resolve_dissemination(g, args.p, args)
    lines = ["i,j,P_ij"]
    for i, row in enumerate(diss.reach):  # Python floats format faster than numpy's
        lines.extend(f"{i},{j},{_fmt(x)}" for j, x in enumerate(row.tolist()))
    lines.append("i,D_i")
    lines.extend(f"{i},{_fmt(x)}" for i, x in enumerate(diss.expected_docs.tolist()))
    return "\n".join(lines) + "\n", None


def _cmd_attack(args) -> tuple[str, str | None]:
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
    return "\n".join(lines) + "\n", None


def _equilibrium_q(g: Graph, p: float, params: Params, args):
    """The GameOutcome of args.regime at p on the command's dissemination:
    its `_closed_profiles` row on the closed route, else the iterative
    solver's own outcome or a random regime's closed form."""
    diss = _resolve_dissemination(g, p, args)
    regime = args.regime
    if _closed_route(g, args):
        q = _closed_profiles(g, p, params)[game.REGIMES.index(regime)]
    elif regime == game.NASH_STRATEGIC:
        return game.best_response_dynamics(diss, params)
    elif regime == game.OPT_STRATEGIC:
        return game.social_optimum_numeric(diss, params)
    elif regime == game.NASH_RANDOM:
        q = game.nash_random(g.n, params.alpha)
    else:
        q = game.social_optimum_random(diss.expected_docs, params.alpha)
    return game.evaluate_outcome(diss, params, q, regime)


def _cmd_equilibrium(args) -> tuple[str, str | None]:
    g = _resolve_graph(args)
    outcome = _equilibrium_q(g, args.p, Params(args.alpha, args.omega), args)
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
    return "\n".join(lines) + "\n", None


def _regime_profiles(g: Graph, grid, params: Params, args) -> np.ndarray:
    """Investments under the command's costs `params`, shape (points, 4,
    agents), regimes in game.REGIMES order.

    On the closed route (`_closed_route`) each point is its
    `_closed_profiles`.  Otherwise the points are solved in grid order, in
    blocks whose stacked reach matrices fit in _SWEEP_BLOCK_BYTES, with one
    stacked call per block for each regime but the first.  A failure names
    its p: the lowest failing point's, the equilibrium's first at a tie, as
    a point-by-point sweep meets it.
    """
    if _closed_route(g, args):
        return np.array([_closed_profiles(g, p, params) for p in grid])
    n = g.n
    profiles = np.empty((len(grid), len(game.REGIMES), n))
    profiles[:, 0] = game.nash_random(n, params.alpha)
    block = max(1, _SWEEP_BLOCK_BYTES // (8 * n * n))
    for first in range(0, len(grid), block):
        points = grid[first : first + block]
        disses = [_resolve_dissemination(g, p, args) for p in points]
        docs = np.array([diss.expected_docs for diss in disses])
        profiles[first : first + block, 1] = game.social_optimum_random(docs, params.alpha)
        solved, failures = [], []
        for solve in (game.best_response_dynamics, game.social_optimum_numeric):
            try:
                solved.append(solve(disses, params))
            except NonConvergenceError as exc:
                failures.append(exc)
        if failures:
            failed = min(failures, key=lambda exc: exc.index)  # the equilibrium's on ties
            raise NonConvergenceError(f"at p = {_fmt(points[failed.index])}: {failed}") from failed
        profiles[first : first + block, 2:] = [[eq.q, opt.q] for eq, opt in zip(*solved)]
    return profiles


def _cmd_sweep_investments(args) -> tuple[str, str | None]:
    g = _resolve_graph(args)
    params = Params(args.alpha, args.omega)  # checks the costs before any grid point
    grid = _parse_grid(args.p_grid)
    profiles = _regime_profiles(g, grid, params, args)
    tags = ["q_NR", "q_OR", "q_NS", "q_OS"]
    if _closed_route(g, args):  # every agent invests alike
        columns = profiles[:, :, 0]
    else:
        tags = [f"{tag}_{i}" for tag in tags for i in range(g.n)]
        columns = profiles.reshape(len(grid), -1)
    lines = [",".join(["p", *tags]), *_csv_rows(np.column_stack([grid, columns]))]
    series = dict(zip(tags, columns.T.tolist()))
    return "\n".join(lines) + "\n", _chart(args, grid.tolist(), series, f"investments on {g.topology} n={g.n}")


def _cmd_sweep_documents(args) -> tuple[str, str | None]:
    topologies = [t.strip() for t in args.topology.split(",")] if args.topology else VT_TOPOLOGIES
    grid = _parse_grid(args.p_grid)
    n = args.n
    if n is None:
        raise ValueError("--n is required")
    header = ["topology", "n", "p"] + [f"D_{i}" for i in range(n)]
    lines = [",".join(header)]
    series = {}
    for topology in topologies:
        docs_rows = [topology_docs(topology, n, p) for p in grid]
        lines.extend(f"{topology},{n},{row}" for row in _csv_rows(np.column_stack([grid, docs_rows])))
        series[topology] = [float(np.mean(docs)) for docs in docs_rows]
    return "\n".join(lines) + "\n", _chart(args, list(grid), series, f"expected documents, n={n}")


def _cmd_crossover(args) -> tuple[str, str | None]:
    g = _resolve_graph(args)
    grid = _parse_grid(args.p_grid)  # on every route, so a bad grid never passes
    lines = ["agent_class,p_star"]
    metrics = []
    if _closed_route(g, args):
        p_star, p_from = game.find_crossover_p(g.topology, g.n, args.alpha, args.omega)
        lines.append(f"all,{_fmt(p_star)}")
        metrics = [("strengthen_from", p_from), ("strengthen_to", 1.0)]
    elif g.topology == STAR:
        profiles = _regime_profiles(g, grid, Params(args.alpha, args.omega), args)
        for label, idx in (("center", 0), ("leaf", 1)):
            gaps = profiles[:, 2, idx] - profiles[:, 3, idx]
            found = False
            for k in np.nonzero(np.sign(gaps[:-1]) * np.sign(gaps[1:]) < 0)[0]:
                frac = gaps[k] / (gaps[k] - gaps[k + 1])
                lines.append(f"{label},{_fmt(grid[k] + frac * (grid[k + 1] - grid[k]))}")
                found = True
            if not found:
                lines.append(f"{label},nan")
    else:
        raise ValueError("crossover needs a star, or a ring or complete graph without --method mc")
    metrics.append(("p_half_coverage", p_for_half_coverage(g)))
    lines.append("metric,value")
    lines.extend(f"{name},{_fmt(value)}" for name, value in metrics)
    return "\n".join(lines) + "\n", None


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_N = ("--n", {"type": _agent_count, "help": "number of agents"})
_GRAPH = (
    ("--topology", {"choices": TOPOLOGIES, "help": "named topology family"}),
    _N,
    ("--edges", {"help": "edge-list file, one 'u v' pair per line"}),
)
_P = ("--p", {"type": float, "required": True, "help": "transmission probability"})
_ROUTE = (
    ("--method", {
        "choices": [METHOD_EXACT, METHOD_CLOSED, METHOD_MC], "default": None,
        "help": "dissemination route (default: closed for named topologies, exact otherwise)",
    }),
    ("--samples", {"type": _sample_count, "default": 100_000, "help": "Monte Carlo samples"}),
    ("--seed", {"type": int, "default": 0, "help": "Monte Carlo seed"}),
)
_OMEGA = ("--omega", {"type": float, "default": 1.0, "help": "attacker cost coefficient"})
_COSTS = (("--alpha", {"type": float, "default": 1.0}), ("--omega", {"type": float, "default": 1.0}))
_GRID = ("--p-grid", {"default": "0:1:101", "help": "grid as a:b:steps"})
_SVG = ("--svg", {"help": "also render an SVG line chart to this path"})
_OUT = ("--out", {"help": "write CSV here instead of stdout"})

# name: (help, options, handler), in the order `netsec --help` lists them;
# each option is (flag, add_argument keywords), in the order its help lists them.
_COMMANDS = {
    "disseminate": ("reach probabilities and expected documents", (*_GRAPH, _P, *_ROUTE, _OUT),
                    _cmd_disseminate),
    "attack": ("optimal attack against given investments", (
        *_GRAPH, _P, *_ROUTE, ("--q", {"required": True, "help": "comma-separated investments"}),
        _OMEGA, _OUT,
    ), _cmd_attack),
    "equilibrium": ("equilibrium or socially optimal investments", (
        *_GRAPH, _P, *_ROUTE, ("--regime", {"required": True, "choices": game.REGIMES}),
        ("--alpha", {"type": float, "default": 1.0, "help": "defender cost coefficient"}), _OMEGA,
        ("--numeric", {"action": "store_true",
                       "help": "force the iterative solvers even when a closed form applies"}),
        _OUT,
    ), _cmd_equilibrium),
    "sweep-investments": ("all four investment profiles over a p grid", (
        *_GRAPH, *_ROUTE, _GRID, *_COSTS, _SVG, _OUT,
    ), _cmd_sweep_investments),
    "sweep-documents": ("expected documents over a p grid", (
        ("--topology", {"help": "comma-separated topologies (default ring,complete)"}), _N,
        _GRID, _SVG, _OUT,
    ), _cmd_sweep_documents),
    "crossover": ("over- to under-investment crossover report", (
        *_GRAPH, *_ROUTE, ("--p-grid", {"default": "0:1:101", "help": "grid for the star sweep"}),
        *_COSTS, _OUT,
    ), _cmd_crossover),
}


def build_parser() -> argparse.ArgumentParser:
    """The full tree: the top-level parser and one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="netsec",
        description="Two-stage network security game: dissemination, attacks, equilibria.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options, handler) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        for flag, kwargs in options:
            sub.add_argument(flag, **kwargs)
        sub.set_defaults(func=handler, command=name)
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`, read straight from the named
    command's option table when every later token is a plain option:
    `--name=value`, `--name value` with a value not starting with "-", or a
    bare flag, each name in full and each value of its type and choices.

    Anything else (help, `--`, an abbreviation, an unknown option or
    argument, a value argparse would read or refuse otherwise, a missing
    required option, or no command) goes to the tree, which parses it or
    exits with its own message and code.
    """
    if argv and argv[0] in _COMMANDS:
        _, options, handler = _COMMANDS[argv[0]]
        table, values, tokens = dict(options), {}, iter(argv[1:])
        for token in tokens:
            flag, eq, text = token.partition("=")
            kwargs = table.get(flag)
            if kwargs is None:
                break
            if "action" in kwargs:  # a store_true flag takes no value
                if eq:
                    break
                values[flag] = True
                continue
            if not eq:
                text = next(tokens, "-")  # no value left hands off as a dash does
                if text.startswith("-"):
                    break
            try:
                value = kwargs.get("type", str)(text)
            except (ValueError, TypeError, argparse.ArgumentTypeError):
                break
            if value not in kwargs.get("choices", [value]):
                break
            values[flag] = value
        else:
            if all(flag in values for flag, kwargs in options if kwargs.get("required")):
                return argparse.Namespace(func=handler, command=argv[0], **{
                    flag[2:].replace("-", "_"):
                        values.get(flag, False if "action" in kwargs else kwargs.get("default"))
                    for flag, kwargs in options
                })
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        svg = getattr(args, "svg", None)  # a file beside --out, never the same one
        if svg and args.out and os.path.realpath(svg) == os.path.realpath(args.out):
            raise ValueError(f"--out and --svg name the same file: {args.out}")
        text, chart = args.func(args)
        # Files first, stdout last: a path that cannot be written leaves no
        # file and nothing on stdout.
        files = [(args.out, text)] if args.out else []
        if chart is not None:
            files.append((args.svg, chart))
        _write_files(files)
        if not args.out:
            sys.stdout.write(text)
    except NonConvergenceError as exc:
        print(f"netsec: solver did not converge: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"netsec: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

import argparse
import os
import subprocess
import sys

import numpy as np
import pytest

from netsec import cli, game
from netsec.dissemination import (
    METHOD_CLOSED,
    METHOD_EXACT,
    METHOD_MC,
    Params,
    complete_docs,
    disseminate,
    topology_docs,
)
from netsec.game import NonConvergenceError
from netsec.graph import TOPOLOGIES, ring_graph, star_graph
from reed_frost import complete_reach_oracle


def run_cli(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects an argument
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv_block(text):
    lines = [line for line in text.strip().splitlines() if line]
    return lines


def test_disseminate_format_and_values(capsys):
    code, out, _ = run_cli(
        capsys, "disseminate", "--topology", "ring", "--n", "4", "--p", "0.5",
        "--method", "exact",
    )
    assert code == 0
    lines = parse_csv_block(out)
    assert lines[0] == "i,j,P_ij"
    assert "i,D_i" in lines
    cells = lines[2].split(",")  # row for (0, 1)
    assert cells[:2] == ["0", "1"]
    assert float(cells[2]) == pytest.approx(0.5625, abs=1e-12)


def test_disseminate_complete_sparse_matches_oracle(capsys):
    code, out, _ = run_cli(
        capsys, "disseminate", "--topology", "complete", "--n", "40", "--p", "0.01",
    )
    assert code == 0
    pair, _ = complete_reach_oracle(40, 0.01)
    lines = parse_csv_block(out)
    split = lines.index("i,D_i")
    for line in lines[1:split]:
        i, j, value = line.split(",")
        expected = 1.0 if i == j else pair
        assert float(value) == pytest.approx(expected, rel=1e-9)
    for line in lines[split + 1 :]:
        assert float(line.split(",")[1]) == pytest.approx(1.0 + 39 * pair, rel=1e-9)


def test_disseminate_deterministic_mc(capsys):
    args = (
        "disseminate", "--topology", "ring", "--n", "5", "--p", "0.4",
        "--method", "mc", "--samples", "2000", "--seed", "11",
    )
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_attack_output_matches_solver(capsys):
    code, out, _ = run_cli(
        capsys, "attack", "--topology", "ring", "--n", "4", "--p", "0.5",
        "--q", "0.1,0.5,0.2,0.3", "--omega", "1",
    )
    assert code == 0
    lines = parse_csv_block(out)
    assert lines[0] == "i,a_i"
    assert lines[5] == "lambda,n_star,active_set,payoff"
    a = [float(line.split(",")[1]) for line in lines[1:5]]
    assert sum(a) == pytest.approx(1.0, abs=1e-9)


def test_attack_wrong_q_length_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "attack", "--topology", "ring", "--n", "4", "--p", "0.5",
        "--q", "0.1,0.5",
    )
    assert code == 2
    assert "needs 4 entries" in err


_RING4_ATTACK = ("attack", "--topology", "ring", "--n", "4", "--p", "0.5")
_RING3_ATTACK = ("attack", "--topology", "ring", "--n", "3", "--p", "0.5")
_EQUILIBRIUM = ("equilibrium", "--regime", "nash-strategic", "--p", "0.5", "--n", "4")


@pytest.mark.parametrize("argv", [
    (*_RING4_ATTACK, "--q", "0.1,0.2,nan,0.3"),
    (*_RING4_ATTACK, "--q", "0.1,0.2,0.2,0.3", "--omega", "inf"),
    (*_RING4_ATTACK, "--q", "0.1,0.2,0.2,0.3", "--omega", "nan"),
    (*_EQUILIBRIUM, "--topology", "star", "--alpha", "nan"),
    (*_EQUILIBRIUM, "--topology", "ring", "--alpha", "nan"),
    (*_EQUILIBRIUM, "--topology", "ring", "--omega", "inf"),
    # Three numbers with an empty field: refused, not read as a 3-vector.
    (*_RING3_ATTACK, "--q", "0.1,,0.2,0.3"),
    (*_RING3_ATTACK, "--q", "0.1,0.2,0.3,"),
])
def test_non_finite_numbers_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_equilibrium_closed_form_endpoints(capsys):
    code, out, _ = run_cli(
        capsys, "equilibrium", "--regime", "nash-strategic", "--topology",
        "complete", "--n", "5", "--p", "1", "--alpha", "1", "--omega", "1",
    )
    assert code == 0
    lines = parse_csv_block(out)
    assert lines[0] == "i,q_i,a_i,reward_i"
    q_vals = [float(line.split(",")[1]) for line in lines[1:6]]
    assert q_vals == [0.2] * 5
    assert lines[6] == "S,lambda,n_star"


def test_equilibrium_numeric_agrees_with_closed(capsys):
    base = (
        "equilibrium", "--regime", "opt-strategic", "--topology", "ring",
        "--n", "5", "--p", "0.5", "--alpha", "1", "--omega", "1",
    )
    _, closed, _ = run_cli(capsys, *base)
    _, numeric, _ = run_cli(capsys, *base, "--numeric")
    q_closed = [float(line.split(",")[1]) for line in parse_csv_block(closed)[1:6]]
    q_numeric = [float(line.split(",")[1]) for line in parse_csv_block(numeric)[1:6]]
    assert np.abs(np.array(q_closed) - q_numeric).max() < 1e-5


def test_equilibrium_star_strategic_uses_numeric(capsys):
    code, out, _ = run_cli(
        capsys, "equilibrium", "--regime", "nash-strategic", "--topology",
        "star", "--n", "5", "--p", "0.5",
    )
    assert code == 0
    lines = parse_csv_block(out)
    q_center = float(lines[1].split(",")[1])
    q_leaf = float(lines[2].split(",")[1])
    assert q_center > q_leaf  # the hub carries more risk below p=1


@pytest.mark.parametrize("regime, solver", [
    ("nash-strategic", game.best_response_dynamics),
    ("opt-strategic", game.social_optimum_numeric),
])
def test_equilibrium_prints_the_solvers_own_outcome(capsys, monkeypatch, regime, solver):
    # The iterative solver's outcome is printed as it comes back, so the
    # command evaluates it (one checked attack solve) once, not twice.
    argv = ("equilibrium", "--topology", "star", "--n", "5", "--p", "0.5", "--regime", regime)
    calls = []
    real = game.evaluate_outcome

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(game, "evaluate_outcome", counting)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err, len(calls)) == (0, "", 1)
    diss = disseminate(star_graph(5), 0.5, "closed")
    outcome = real(diss, Params(), solver(diss, Params()).q, regime)
    lines = parse_csv_block(out)
    assert lines[1:6] == [
        f"{i},{cli._fmt(outcome.q[i])},{cli._fmt(outcome.attack_vector[i])},"
        f"{cli._fmt(outcome.rewards[i])}"
        for i in range(5)
    ]
    lam, n_star = outcome.attack.lam, outcome.attack.n_star
    assert lines[7] == f"{cli._fmt(outcome.welfare)},{cli._fmt(lam)},{n_star}"


def test_equilibrium_random_regime_summary_lambda_nan(capsys):
    _, out, _ = run_cli(
        capsys, "equilibrium", "--regime", "nash-random", "--topology", "ring",
        "--n", "4", "--p", "0.3",
    )
    summary = parse_csv_block(out)[-1].split(",")
    assert summary[1] == "nan"
    assert summary[2] == "4"


def test_sweep_investments_complete_columns(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    svg_path = tmp_path / "sweep.svg"
    code, _, _ = run_cli(
        capsys, "sweep-investments", "--topology", "complete", "--n", "5",
        "--p-grid", "0:1:11", "--alpha", "1", "--omega", "1",
        "--out", str(out_path), "--svg", str(svg_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "p,q_NR,q_OR,q_NS,q_OS"
    assert len(lines) == 12
    first = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))
    last = dict(zip(lines[0].split(","), map(float, lines[-1].split(","))))
    assert first["p"] == 0.0 and last["p"] == 1.0
    assert first["q_NS"] > first["q_NR"] == 0.2
    assert last["q_NS"] == last["q_NR"] == 0.2
    assert last["q_OS"] == 1.0
    svg = svg_path.read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_sweep_investments_star_per_agent_columns(capsys, tmp_path):
    out_path = tmp_path / "star.csv"
    code, _, _ = run_cli(
        capsys, "sweep-investments", "--topology", "star", "--n", "4",
        "--p-grid", "0.2:0.8:3", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "p"
    assert len(header) == 1 + 4 * 4
    assert "q_NS_0" in header and "q_OS_3" in header


def test_sweep_documents_dominance(capsys):
    code, out, _ = run_cli(
        capsys, "sweep-documents", "--n", "6", "--p-grid", "0:1:21",
    )
    assert code == 0
    lines = parse_csv_block(out)
    rows = [line.split(",") for line in lines[1:]]
    ring = {float(r[2]): float(r[3]) for r in rows if r[0] == "ring"}
    complete = {float(r[2]): float(r[3]) for r in rows if r[0] == "complete"}
    assert ring[0.0] == 1.0 and complete[1.0] == 6.0
    for p in ring:
        assert ring[p] <= complete[p] + 1e-12
    values = [ring[p] for p in sorted(ring)]
    assert values == sorted(values)


def test_crossover_complete_report(capsys):
    code, out, _ = run_cli(capsys, "crossover", "--topology", "complete", "--n", "5")
    assert code == 0
    lines = parse_csv_block(out)
    assert lines[0] == "agent_class,p_star"
    label, p_star = lines[1].split(",")
    assert label == "all"
    assert 0.0 < float(p_star) < 1.0
    assert any(line.startswith("p_half_coverage") for line in lines)


def test_crossover_star_reports_both_classes(capsys):
    code, out, _ = run_cli(
        capsys, "crossover", "--topology", "star", "--n", "4",
        "--p-grid", "0:1:21",
    )
    assert code == 0
    lines = parse_csv_block(out)
    labels = [line.split(",")[0] for line in lines]
    assert "center" in labels and "leaf" in labels
    for line in lines:
        name, value = line.split(",")
        if name in ("center", "leaf"):
            assert 0.0 < float(value) < 1.0


def test_crossover_matches_library(capsys):
    _, out, _ = run_cli(capsys, "crossover", "--topology", "ring", "--n", "5")
    p_star_cli = float(parse_csv_block(out)[1].split(",")[1])
    assert p_star_cli == pytest.approx(
        game.find_crossover_p("ring", 5, 1.0, 1.0), abs=1e-9
    )


def test_option_choices_are_the_library_names():
    expected = {
        "topology": TOPOLOGIES,
        "regime": game.REGIMES,
        "method": (METHOD_EXACT, METHOD_CLOSED, METHOD_MC),
    }
    (subs,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    seen = []
    for command, sub in subs.choices.items():
        for action in sub._actions:
            if action.dest in expected and action.choices is not None:
                assert tuple(action.choices) == expected[action.dest], (command, action.dest)
                seen.append((command, action.dest))
    # sweep-documents takes a comma-separated topology list, not one choice.
    graph_commands = ("disseminate", "attack", "equilibrium", "sweep-investments", "crossover")
    assert sorted(seen) == sorted(
        [(c, "topology") for c in graph_commands]
        + [(c, "method") for c in graph_commands]
        + [("equilibrium", "regime")]
    )


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_named_command_help_is_the_tree_subparsers(capsys, command):
    (subs,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert run_cli(capsys, command, "--help") == (0, subs.choices[command].format_help(), "")


def _count_parsers(monkeypatch):
    """A list that grows by one for every ArgumentParser built from now on."""
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


TREE = ["netsec", *(f"netsec {name}" for name in cli._COMMANDS)]
VALID = ("--topology", "ring", "--n", "4", "--p", "0.5")


@pytest.mark.parametrize("argv, code, parsers", [
    (("equilibrium", "--regime", "nash-random", *VALID), 0, []),
    # Help and errors go to the tree, whose parsers print and exit.
    (("--help",), 0, TREE),
    (("no-such-command",), 2, TREE),
    (("disseminate", *VALID, "--bogus", "1"), 2, TREE),
    (("disseminate", "--topology", "ring", "--n", "abc", "--p", "0.5"), 2, TREE),
])
def test_a_plain_named_command_builds_no_parser(capsys, monkeypatch, argv, code, parsers):
    built = _count_parsers(monkeypatch)
    assert run_cli(capsys, *argv)[0] == code
    assert built == parsers


def test_monte_carlo_defaults_are_100000_samples_and_seed_0(capsys):
    argv = ("disseminate", "--topology", "ring", "--n", "6", "--p", "0.5", "--method", "mc")
    default = run_cli(capsys, *argv)
    assert default[0] == 0
    assert run_cli(capsys, *argv, "--samples", "100000", "--seed", "0") == default


def test_edges_file_input(capsys, tmp_path):
    edge_file = tmp_path / "g.txt"
    edge_file.write_text("0 1\n1 2\n2 0\n")
    code, out, _ = run_cli(
        capsys, "disseminate", "--edges", str(edge_file), "--p", "0.3",
    )
    assert code == 0
    p01 = float(parse_csv_block(out)[2].split(",")[2])
    assert p01 == pytest.approx(0.3 + 0.09 - 0.027, abs=1e-12)


def test_exact_past_both_bounds_exits_2(capsys, tmp_path):
    # 13 agents and 23 edges: too many agents for the vertex-subset
    # recursion and too many edges to enumerate.
    edges = [(i, (i + 1) % 13) for i in range(13)] + [(i, i + 2) for i in range(10)]
    edge_file = tmp_path / "g.txt"
    edge_file.write_text("".join(f"{u} {v}\n" for u, v in edges))
    code, out, err = run_cli(capsys, "disseminate", "--edges", str(edge_file), "--p", "0.5")
    assert code == 2
    assert out == ""
    assert err.startswith("netsec: ") and err.count("\n") == 1
    assert "at most 12 agents or at most 22 edges, got 13 agents and 23 edges" in err


def test_invalid_grid_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "sweep-documents", "--n", "5", "--p-grid", "0:2:11",
    )
    assert code == 2
    assert "p-grid" in err


def test_missing_graph_exits_2(capsys):
    code, _, err = run_cli(capsys, "disseminate", "--p", "0.5")
    assert code == 2
    assert "topology" in err


@pytest.mark.parametrize("named", [
    ["--topology", "ring"], ["--n", "5"], ["--topology", "ring", "--n", "5"],
])
@pytest.mark.parametrize("argv", [
    ["disseminate", "--p", "0.5"],
    ["attack", "--p", "0.5", "--q", "0,0,0"],
    ["equilibrium", "--p", "0.5", "--regime", "nash-random"],
    ["sweep-investments"],
    ["crossover"],
])
def test_edges_with_named_graph_exits_2(capsys, tmp_path, argv, named):
    edge_file = tmp_path / "g.txt"
    edge_file.write_text("0 1\n1 2\n")
    code, out, err = run_cli(capsys, *argv, "--edges", str(edge_file), *named)
    assert code == 2
    assert out == ""
    assert err == "netsec: --edges gives the whole graph; drop --topology and --n\n"


@pytest.mark.parametrize("method", ["closed", "exact", "mc"])
def test_equilibrium_refuses_p_out_of_range(capsys, method):
    # Params holds no p; each dissemination route checks it.
    code, out, err = run_cli(
        capsys, "equilibrium", "--regime", "nash-strategic", "--topology", "ring",
        "--n", "5", "--p", "1.5", "--method", method,
    )
    assert (code, out, err) == (2, "", "netsec: transmission probability must be in [0, 1], got 1.5\n")


def test_nonconvergence_maps_to_exit_3(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise NonConvergenceError("forced")

    monkeypatch.setattr(game, "best_response_dynamics", explode)
    code, _, err = run_cli(
        capsys, "equilibrium", "--regime", "nash-strategic", "--topology",
        "star", "--n", "4", "--p", "0.5",
    )
    assert code == 3
    assert "converge" in err


@pytest.mark.parametrize("argv", [
    ("sweep-documents", "--topology", "star", "--n", "0", "--p-grid", "0:1:3"),
    ("disseminate", "--topology", "ring", "--n", str(cli.MAX_AGENTS + 1), "--p", "0.5"),
    ("disseminate", "--topology", "ring", "--n", str(10**12), "--p", "0.5"),
])
def test_agent_count_out_of_range_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize("method", ["exact", "closed", "mc"])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_samples_below_one_exits_2_for_every_method(capsys, method, samples):
    code, out, err = run_cli(
        capsys, "disseminate", "--topology", "ring", "--n", "5", "--p", "0.5",
        "--method", method, "--samples", samples,
    )
    assert code == 2
    assert out == ""
    assert "at least 1 sample" in err and "Traceback" not in err


@pytest.mark.parametrize("method", ["exact", "closed", "mc"])
def test_samples_past_the_int64_spread_count_exit_2_for_every_method(capsys, method):
    # Monte Carlo draws 2 * samples spreads as an int64 count.
    code, out, err = run_cli(
        capsys, "disseminate", "--topology", "ring", "--n", "6", "--p", "0.5",
        "--method", method, "--samples", str(2**62),
    )
    assert code == 2
    assert out == ""
    assert "at most 2**62 - 1 samples" in err and "Traceback" not in err


# Graphs without a certified pure strategic equilibrium at these p.  The
# 5-node graph 0 1/1 2/1 3/1 4/2 3/2 4 at p = 0.6413, once listed here, has
# one; test_game.py::test_brd_refuses_non_equilibrium checks it on a grid.
@pytest.mark.parametrize("edges, p", [
    ("0 1\n1 2\n2 3\n3 4\n1 4\n0 5\n", 0.825),
    ("0 1\n1 2\n2 3\n3 4\n1 4\n0 5\n", 0.85),
    ("0 1\n1 2\n1 4\n1 5\n2 3\n2 5\n3 4\n", 0.8356),
])
def test_strategic_non_equilibria_exit_3(capsys, tmp_path, edges, p):
    path = tmp_path / "graph.txt"
    path.write_text(edges, encoding="utf-8")
    code, out, err = run_cli(
        capsys, "equilibrium", "--edges", str(path), "--p", str(p),
        "--regime", "nash-strategic",
    )
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and "gains" in err


@pytest.mark.parametrize("argv", [
    ("sweep-documents", "--n", "3", "--p-grid", f"0:1:{cli.MAX_GRID_STEPS + 1}"),
    ("sweep-documents", "--n", "3", "--p-grid", f"0:1:{10**12}"),
    ("sweep-investments", "--topology", "star", "--n", "4", "--p-grid", f"0:1:{10**12}"),
    ("crossover", "--topology", "star", "--n", "4", "--p-grid", f"0:1:{10**12}"),
])
def test_grid_step_count_out_of_range_exits_2(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("the step count must be checked before allocating the grid")

    monkeypatch.setattr(np, "linspace", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "p-grid" in err


@pytest.mark.parametrize("regime, solver", [
    ("nash-strategic", game.best_response_dynamics),
    ("opt-strategic", game.social_optimum_numeric),
])
def test_strategic_equilibrium_on_monte_carlo_ring_uses_iterative_solver(capsys, regime, solver):
    # Monte Carlo docs on a ring are not exactly equal, so the
    # vertex-transitive closed forms do not apply.
    code, out, err = run_cli(
        capsys, "equilibrium", "--topology", "ring", "--n", "5", "--p", "0.5",
        "--regime", regime, "--method", "mc", "--samples", "1000",
    )
    assert code == 0, err
    g = ring_graph(5)
    diss = disseminate(g, 0.5, "mc", samples=1000, seed=0)
    expected = solver(diss, Params()).q
    rows = [line.split(",") for line in parse_csv_block(out)[1:6]]
    assert [row[1] for row in rows] == [cli._fmt(x) for x in expected]


CLOSED_FORM_COMMANDS = [
    ("sweep-investments", "--topology", "ring", "--n", "5", "--p-grid", "0:1:3"),
    ("sweep-investments", "--topology", "complete", "--n", "4", "--p-grid", "0:1:3"),
    ("crossover", "--topology", "ring", "--n", "5"),
    ("crossover", "--topology", "complete", "--n", "4"),
]


@pytest.mark.parametrize("method", ["mc", "exact"])
@pytest.mark.parametrize("argv", CLOSED_FORM_COMMANDS)
def test_closed_form_commands_refuse_other_methods(capsys, argv, method):
    # Ring and complete rows come from exact closed forms, so any other
    # --method is an error.
    code, out, err = run_cli(capsys, *argv, "--method", method, "--samples", "100")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and f"--method {method}" in err


@pytest.mark.parametrize("argv", CLOSED_FORM_COMMANDS)
def test_closed_form_commands_accept_method_closed(capsys, argv):
    default = run_cli(capsys, *argv)
    assert default[0] == 0
    assert run_cli(capsys, *argv, "--method", "closed") == default


def test_star_sweep_builds_one_dissemination_per_point(capsys, monkeypatch):
    calls = []

    def counting_disseminate(*args, **kwargs):
        calls.append(args[1])
        return disseminate(*args, **kwargs)

    monkeypatch.setattr(cli, "disseminate", counting_disseminate)
    code, _, _ = run_cli(
        capsys, "sweep-investments", "--topology", "star", "--n", "4", "--p-grid", "0:1:5",
    )
    assert code == 0
    assert calls == list(np.linspace(0.0, 1.0, 5))


def test_star_sweep_in_blocks_matches_one_block(capsys, monkeypatch, tmp_path):
    argv = ["sweep-investments", "--topology", "star", "--n", "5", "--p-grid", "0:1:21"]
    one_block = run_cli(capsys, *argv, "--svg", str(tmp_path / "one.svg"))
    stacks = {"best_response_dynamics": [], "social_optimum_numeric": []}

    def counting(name):
        real = getattr(game, name)

        def solve(disses, params, **kwargs):
            stacks[name].append(len(disses))
            return real(disses, params, **kwargs)

        return solve

    for name in stacks:
        monkeypatch.setattr(game, name, counting(name))
    monkeypatch.setattr(cli, "_SWEEP_BLOCK_BYTES", 8 * 8 * 5 * 5)  # 8 points of 5 agents
    blocks = run_cli(capsys, *argv, "--svg", str(tmp_path / "blocks.svg"))
    assert stacks == {"best_response_dynamics": [8, 8, 5], "social_optimum_numeric": [8, 8, 5]}
    assert one_block[0] == 0 and blocks == one_block
    assert (tmp_path / "blocks.svg").read_bytes() == (tmp_path / "one.svg").read_bytes()


def _profiles(argv, p_grid):
    """The command's graph and its profile array over `p_grid` at alpha 1.3, omega 2."""
    args = cli._parse_args(argv)
    g = cli._resolve_graph(args)
    grid = cli._parse_grid(p_grid)
    return g, grid, cli._regime_profiles(g, grid, Params(1.3, 2.0), args)


@pytest.mark.parametrize("topology, n", [("ring", 6), ("complete", 5)])
def test_closed_form_profiles_hold_each_regime_in_order(topology, n):
    _, grid, profiles = _profiles(
        ["sweep-investments", "--topology", topology, "--n", str(n)], "0:1:21"
    )
    assert profiles.shape == (21, len(game.REGIMES), n)
    for profile, p in zip(profiles, grid):
        docs = topology_docs(topology, n, p)
        d = docs[0]
        expected = {
            game.NASH_RANDOM: game.nash_random(n, 1.3),
            game.OPT_RANDOM: game.social_optimum_random(docs, 1.3),
            game.NASH_STRATEGIC: game.nash_strategic_vt(d, n, 1.3, 2.0),
            game.OPT_STRATEGIC: game.social_optimum_strategic_vt(d, n, 1.3),
        }
        assert profile.tobytes() == np.array([expected[r] for r in game.REGIMES]).tobytes()


@pytest.mark.parametrize("graph, n, method", [
    (("--topology", "star", "--n", "5"), 5, METHOD_CLOSED),
    (("--edges", "EDGES"), 4, METHOD_EXACT),
])
def test_solved_profiles_match_point_by_point_solves_across_blocks(monkeypatch, tmp_path, graph, n, method):
    path = tmp_path / "graph.txt"
    path.write_text("0 1\n0 2\n1 2\n2 3\n", encoding="utf-8")
    argv = ["sweep-investments", *(str(path) if arg == "EDGES" else arg for arg in graph)]
    monkeypatch.setattr(cli, "_SWEEP_BLOCK_BYTES", 8 * 3 * n * n)  # 3 points a block
    g, grid, profiles = _profiles(argv, "0.05:0.95:7")
    assert profiles.shape == (7, len(game.REGIMES), n)
    params = Params(1.3, 2.0)
    for profile, p in zip(profiles, grid):
        diss = disseminate(g, p, method)
        expected = {
            game.NASH_RANDOM: game.nash_random(n, 1.3),
            game.OPT_RANDOM: game.social_optimum_random(diss.expected_docs, 1.3),
            game.NASH_STRATEGIC: game.best_response_dynamics(diss, params).q,
            game.OPT_STRATEGIC: game.social_optimum_numeric(diss, params).q,
        }
        assert profile.tobytes() == np.array([expected[r] for r in game.REGIMES]).tobytes()


def test_ring_sweep_refuses_monte_carlo(capsys):
    assert run_cli(capsys, "sweep-investments", "--topology", "ring", "--n", "6", "--method", "mc") == (
        2,
        "",
        "netsec: --method mc is not used on ring graphs, whose closed forms are exact; "
        "give the graph with --edges to use it\n",
    )


def test_star_sweep_evaluates_each_stacked_solve_once(capsys, monkeypatch):
    # Each stacked solve's outcomes come from one evaluate_outcome call and
    # so one checked attack solve over the whole block, not one per point.
    argv = ("sweep-investments", "--topology", "star", "--n", "5", "--p-grid", "0:1:21")
    expected = run_cli(capsys, *argv)
    calls = {"evaluate_outcome": [], "optimal_attack": []}

    def counting(name):
        real = getattr(game, name)

        def call(*args):
            calls[name].append(np.shape(args[2] if name == "evaluate_outcome" else args[0]))
            return real(*args)

        return call

    for name in calls:
        monkeypatch.setattr(game, name, counting(name))
    assert run_cli(capsys, *argv) == expected and expected[0] == 0
    assert calls == {"evaluate_outcome": [(21, 5)] * 2, "optimal_attack": [(21, 5)] * 2}


def test_sweep_names_the_failing_point(capsys, tmp_path):
    # No equilibrium is certified at p = 0.7, 0.8 or 0.9 on this graph; the
    # lowest of them is reported, as a point-by-point sweep would.
    path = tmp_path / "graph.txt"
    path.write_text("0 1\n1 2\n2 3\n3 4\n1 4\n0 5\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "sweep-investments", "--edges", str(path), "--p-grid", "0:1:11",
    )
    assert code == 3
    assert out == ""
    assert err.startswith("netsec: solver did not converge: at p = 0.7: ")
    assert err.count("\n") == 1 and "gains" in err


def test_sweep_reports_an_optimum_failure_below_the_equilibrium_failure(capsys, monkeypatch, tmp_path):
    # With alpha = 1.5 and omega = 2 no equilibrium is certified at p = 0.3
    # on this graph, and at max_iter=1 the optimum does not converge at
    # p = 0.2 to 0.8.  A point-by-point sweep meets the optimum at 0.2
    # first, and so must the stacked one.
    path = tmp_path / "graph.txt"
    path.write_text("0 1\n0 4\n0 5\n1 2\n1 3\n1 4\n2 3\n3 4\n3 6\n4 6\n", encoding="utf-8")
    argv = ["sweep-investments", "--edges", str(path), "--p-grid", "0:1:11", "--alpha", "1.5", "--omega", "2"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("netsec: solver did not converge: at p = 0.3: best-response dynamics stopped: ")
    real = game.social_optimum_numeric
    raised = []

    def one_iteration(*args, **options):
        try:
            return real(*args, max_iter=1, **options)
        except NonConvergenceError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(game, "social_optimum_numeric", one_iteration)
    stacked = run_cli(capsys, *argv)
    assert stacked == (
        3,
        "",
        "netsec: solver did not converge: at p = 0.2: projected Newton ascent "
        "did not converge within 1 iterations (stationarity residual 1.495e-03)\n",
    )
    assert raised[0].index == 2 and raised[0].iterations == 1 and raised[0].last_q.shape == (7,)
    assert f"{raised[0].residual:.3e}" == "1.495e-03"
    monkeypatch.setattr(cli, "_SWEEP_BLOCK_BYTES", 8 * 7 * 7)  # one point a block
    assert run_cli(capsys, *argv) == stacked


def _six_node_sweep(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("0 1\n1 2\n2 3\n3 4\n1 4\n0 5\n", encoding="utf-8")
    return ["sweep-investments", "--edges", str(path), "--p-grid", "0:1:11"]


@pytest.mark.parametrize("index", [7, 8, 10])
def test_sweep_reports_the_equilibrium_failure_at_or_below_an_optimum_failure(
    capsys, monkeypatch, tmp_path, index
):
    # The equilibrium fails at p = 0.7, grid index 7.  An optimum failure at
    # the same point or above it leaves that report unchanged, and the
    # optimum still solves the whole block.
    argv = _six_node_sweep(tmp_path)
    real = run_cli(capsys, *argv)
    assert real[0] == 3 and real[2].startswith("netsec: solver did not converge: at p = 0.7: best-response")
    blocks = []

    def failing_optimum(disses, params, **options):
        blocks.append(len(disses))
        raise NonConvergenceError("forced optimum failure", index=index)

    monkeypatch.setattr(game, "social_optimum_numeric", failing_optimum)
    assert run_cli(capsys, *argv) == real
    assert blocks == [11]


def test_sweep_reports_an_optimum_failure_below_the_equilibrium_failure_first(
    capsys, monkeypatch, tmp_path
):
    def failing_optimum(disses, params, **options):
        raise NonConvergenceError("forced optimum failure", index=6)

    monkeypatch.setattr(game, "social_optimum_numeric", failing_optimum)
    assert run_cli(capsys, *_six_node_sweep(tmp_path)) == (
        3, "", "netsec: solver did not converge: at p = 0.6: forced optimum failure\n"
    )


def _python_prints(code):
    """What a fresh interpreter with this test run's import path prints."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return done.stdout


def test_solving_optima_leaves_numpy_random_unloaded():
    # numpy imports numpy.random lazily, at 12 to 18 ms in a fresh process,
    # and the optimum draws no random numbers, so it must not pay for it.
    if _python_prints("import sys, numpy; print('numpy.random' in sys.modules)") == "True\n":
        pytest.skip("this numpy loads numpy.random on import")
    code = (
        "import contextlib, io, sys\n"
        "from netsec import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [\n"
        "        cli.main(['equilibrium', '--regime', 'opt-strategic', '--topology', 'star',\n"
        "                  '--n', '5', '--p', '0.5']),\n"
        "        cli.main(['sweep-investments', '--topology', 'star', '--n', '5', '--p-grid', '0:1:5']),\n"
        "    ]\n"
        "print(codes, 'numpy.random' in sys.modules)\n"
    )
    assert _python_prints(code) == "[0, 0] False\n"


@pytest.mark.parametrize("argv", [
    ("disseminate", "--topology", "ring", "--n", "4", "--p", "0.5", "--out"),
    ("sweep-investments", "--topology", "ring", "--n", "4", "--p-grid", "0:1:3", "--svg"),
])
def test_unwritable_output_path_exits_2_with_one_line(tmp_path, argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-m", "netsec.cli", *argv, str(tmp_path / "no-dir" / "x")],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 2
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("netsec: ")
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("argv", [
    ("sweep-investments", "--topology", "ring", "--n", "4", "--p-grid", "0:1:3"),
    ("sweep-documents", "--n", "4", "--p-grid", "0:1:3"),
])
def test_unwritable_out_leaves_no_svg(capsys, tmp_path, argv):
    svg = tmp_path / "left.svg"
    code, out, err = run_cli(capsys, *argv, "--svg", str(svg), "--out", str(tmp_path / "no-dir" / "x.csv"))
    assert (code, out) == (2, "")
    assert err.startswith("netsec: ") and len(err.splitlines()) == 1
    assert not svg.exists()


def test_number_formatting_12_digits(capsys):
    _, out, _ = run_cli(
        capsys, "disseminate", "--topology", "complete", "--n", "3", "--p", "0.123456789",
    )
    value = parse_csv_block(out)[2].split(",")[2]
    assert len(value.replace("0.", "").replace(".", "").lstrip("0")) <= 12

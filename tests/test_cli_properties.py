"""Property test over CLI argument vectors: every run ends with exit code 0,
2 or 3 and never with a traceback, and a --samples below 1 or above
2**62 - 1 exits 2 whatever the method.

Most drawn values are valid, so the commands run to the end; the rest are
NaN, infinities, out-of-range numbers, junk text or missing options.  Each
option is drawn as --name=value or as two tokens, --name value.
Strategic equilibria, investment sweeps and crossovers are drawn only on
rings and complete graphs, where closed forms apply, and Monte Carlo runs
use at most 1000 samples, so each example finishes in milliseconds.
"""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from netsec import cli, game  # noqa: E402

VT = ("ring", "complete")

INVALID = st.floats(allow_nan=True, allow_infinity=True).map(repr) | st.sampled_from(
    ["nan", "inf", "-inf", "-1", "1.5", "0.5", "1e308", "", "abc"]
)


def _mostly(valid):
    """Numbers from `valid` about nine times in ten, otherwise anything."""
    return st.integers(0, 9).flatmap(lambda k: INVALID if k == 9 else valid.map(repr))


PROBS = _mostly(st.floats(0.0, 1.0))
COSTS = _mostly(st.floats(1.0, 10.0))
AGENTS = st.one_of(st.integers(3, 8), st.integers(3, 8), st.integers(-2, 12), st.just(10**12))

GRIDS = st.one_of(
    st.tuples(st.floats(0.0, 0.5), st.floats(0.5, 1.0), st.integers(2, 6)),
    st.tuples(PROBS, PROBS, st.integers(-1, 6) | st.just("x")),
).map(lambda parts: ":".join(map(str, parts)))


@st.composite
def edge_lists(draw):
    """(text, agent count) of a path plus extra edges, or of malformed lines."""
    k = draw(st.integers(2, 5))
    pairs = [(i, i + 1) for i in range(k - 1)]
    pairs += draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=3))
    pairs += draw(st.sampled_from([[], [], [], [(0, -1)], [(0, "x")], [(0, k + 1)]]))
    return "".join(f"{u} {v}\n" for u, v in pairs), k


@st.composite
def graphs(draw, topologies=("ring", "star", "complete"), edges=True):
    """(argv, edge-list text or None, agent count) for a graph, or for none."""
    kinds = ["named"] * 6 + ["none"] + (["edges"] * 3 if edges else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "named":
        n = draw(AGENTS)
        return _options(draw, topology=draw(st.sampled_from(topologies)), n=n), None, n
    if kind == "edges":
        text, n = draw(edge_lists())
        return ["--edges", "EDGES"], text, n
    return [], None, 0


def _options(draw, **draws):
    """Each option drawn as --name=value or as --name value, leaving out the
    absent ones."""
    argv = []
    for name, value in draws.items():
        if value is not None:
            argv += [f"--{name}", str(value)] if draw(st.booleans()) else [f"--{name}={value}"]
    return argv


def _maybe(strategy):
    return st.none() | strategy


@st.composite
def method_options(draw):
    return _options(
        draw,
        method=draw(_maybe(st.sampled_from(["exact", "closed", "mc"]))),
        samples=draw(_maybe(st.integers(1, 1000) | st.integers(-2, 0))),
        seed=draw(_maybe(st.integers(0, 99) | st.integers(-2, 2**70))),
    )


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(
        ["disseminate", "attack", "equilibrium", "sweep-investments",
         "sweep-documents", "crossover"]
    ))
    costs = _options(draw, alpha=draw(_maybe(COSTS)), omega=draw(_maybe(COSTS)))
    edges = None
    if command in ("disseminate", "attack"):
        graph, edges, n = draw(graphs())
        argv = [*graph, *draw(method_options()), *_options(draw, p=draw(PROBS))]
        if command == "attack":
            sizes = st.just(n) if 0 <= n <= 12 else st.integers(0, 13)
            q = draw(sizes.flatmap(lambda size: st.lists(PROBS, min_size=size, max_size=size)))
            argv += _options(draw, q=",".join(q), omega=draw(_maybe(COSTS)))
    elif command == "equilibrium":
        regime = draw(st.sampled_from(game.REGIMES))
        strategic = regime in (game.NASH_STRATEGIC, game.OPT_STRATEGIC)
        graph, edges, _ = draw(graphs(VT, edges=False) if strategic else graphs())
        argv = [*graph, *draw(method_options()), *_options(draw, p=draw(PROBS), regime=regime),
                *costs]
    elif command == "sweep-documents":
        topology = draw(st.sampled_from(["ring", "star", "complete", "ring,star", "cube"]))
        argv = _options(draw, topology=topology, n=draw(_maybe(AGENTS)),
                        **{"p-grid": draw(_maybe(GRIDS))})
    else:
        graph, _, _ = draw(graphs(VT, edges=False))
        argv = [*graph, *draw(method_options()), *costs,
                *_options(draw, **{"p-grid": draw(_maybe(GRIDS))})]
    return [command, *argv], edges


@pytest.fixture(scope="module")
def edges_path(tmp_path_factory):
    return tmp_path_factory.mktemp("edges") / "graph.txt"


@settings(max_examples=200, derandomize=True, deadline=None)
@given(case=argvs())
@example(case=(["sweep-documents", "--topology=star", "--n=0", "--p-grid=0:1:3"], None))
@example(case=(["disseminate", "--topology=ring", f"--n={10**12}", "--p=0.5"], None))
@example(case=(["disseminate", "--topology=ring", "--n=5", "--p=0.5", "--method=exact",
                 "--samples=-3"], None))
@example(case=(["disseminate", "--topology=ring", "--n=6", "--p=0.5", "--method=mc",
                 f"--samples={2**62}"], None))
def test_cli_exits_0_2_or_3_without_traceback(edges_path, case):
    argv, edges = case
    if edges is not None:
        edges_path.write_text(edges, encoding="utf-8")
        argv = [str(edges_path) if arg == "EDGES" else arg for arg in argv]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argument
            code = exc.code
    err = stderr.getvalue()
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err
    samples = [int(arg.split("=", 1)[1]) for arg in argv if arg.startswith("--samples=")]
    samples += [int(value) for arg, value in zip(argv, argv[1:]) if arg == "--samples"]
    if samples and not 1 <= samples[0] < 2**62:  # refused whichever method would run
        assert code == 2, (argv, err)


def _parse_outcome(parse, argv):
    """(namespace, "", "") of a parse, or (exit code, stdout, stderr) of its exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv)), "", ""
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(case=argvs())
@example(case=([], None))
@example(case=(["-h"], None))
@example(case=(["--help"], None))
@example(case=(["--"], None))
@example(case=(["--", "equilibrium"], None))
@example(case=(["equilibrium", "--", "--p=0.5"], None))
@example(case=(["no-such-command", "--p=0.5"], None))
@example(case=(["equilibrium", "--regime=nash-random", "--topology=ring", "--n=4", "--p=0.5", "--"],
               None))
# Shapes the option table hands to the tree, and a repeated option, whose last value wins.
@example(case=(["disseminate", "--topology", "ring", "--n", "4", "--p", "-0.5"], None))
@example(case=(["disseminate", "--topology", "ring", "--n", "4", "--p", "0.5", "--seed", "-1"], None))
@example(case=(["disseminate", "--topology", "ring", "--n", "4", "--p", "-inf"], None))
@example(case=(["disseminate", "--topology=cube", "--n=4", "--p=0.5"], None))
@example(case=(["attack", "--topology=ring", "--n=4", "--p=0.5"], None))
@example(case=(["equilibrium", "--regime=nash-random", "--topology=ring", "--n=4", "--p=0.5",
                "--numeric=1"], None))
@example(case=(["equilibrium", "--reg", "nash-random", "--topology", "ring", "--n", "4", "--p", "0.5"],
               None))
@example(case=(["disseminate", "--topology=ring", "--n=4", "--n=5", "--p=0.5", "--p", "0.25"], None))
@example(case=(["disseminate", "--topology=ring", "--n=4", "--p"], None))
@example(case=(["disseminate", "--edges=", "--p=0.5"], None))
@example(case=(["disseminate", "--topology=ring", "--n=4", "--p=0.5", "-h"], None))
def test_named_command_parses_as_the_whole_tree(case):
    """Parsing as `cli.main` does, from the command's option table or through
    the tree, gives the tree's namespace, or its exit code and bytes; so does
    the same argv with unknown arguments after it."""
    argv, _ = case
    for args in (argv, [*argv, "--bogus", "1"]):
        assert _parse_outcome(cli._parse_args, args) == _parse_outcome(
            cli.build_parser().parse_args, args
        ), args

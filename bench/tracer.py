"""In-memory span tracer that times netsec's public functions from outside.

`Tracer.install()` wraps each function in `TRACED` and rebinds every
module-level name in the `netsec` package that refers to it, found by
identity.  Patching only the defining module would miss callers that
imported the function by name (`game` and `cli` import `optimal_attack`,
`expected_stolen` and `disseminate` that way).  Spans nest along the call
stack, so a span's self time is its duration minus that of its traced
children.  Nothing under `src/` is changed.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time


def _masks(bound):
    return 2 ** bound.arguments["g"].edge_count


def _source_samples(bound):
    return bound.arguments["g"].n * bound.arguments["samples"]


# (span name, defining module, function, work units of one call or None)
TRACED = (
    ("cli.main", "netsec.cli", "main", None),
    ("graph.build", "netsec.graph", "build_topology", None),
    ("graph.build", "netsec.graph", "load_edge_list", None),
    ("dissemination.exact", "netsec.dissemination", "reach_exact", _masks),
    ("dissemination.mc", "netsec.dissemination", "reach_monte_carlo", _source_samples),
    ("dissemination.closed", "netsec.dissemination", "reach_closed_form", None),
    ("attack.solve", "netsec.attack", "optimal_attack", None),
    ("attack.stolen", "netsec.attack", "expected_stolen", None),
    ("game.brd", "netsec.game", "best_response_dynamics", None),
    ("game.opt", "netsec.game", "social_optimum_numeric", None),
)

SOLVE_SPAN = "attack.solve"
# Spans whose per-call durations are kept, for the median and maximum call.
KEEP_DURATIONS = ("game.brd", "game.opt")


class SpanStats:
    """Totals of one span name within a process."""

    def __init__(self, keep_durations):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.work = 0
        self.solves = 0
        self.nonconverged = 0
        self.durations = [] if keep_durations else None

    def as_dict(self):
        return {
            "calls": self.calls,
            "s": self.total,
            "self_s": self.self_time,
            "work": self.work,
            "solves": self.solves,
            "nonconverged": self.nonconverged,
            "durations": self.durations,
        }


class Tracer:
    def __init__(self):
        self.stats = {name: SpanStats(name in KEEP_DURATIONS) for name, *_ in TRACED}
        self._stack = []  # per open span: time covered by its traced children

    def install(self):
        """Wrap every traced function at every binding inside `netsec`."""
        from netsec.game import NonConvergenceError

        modules = [mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "netsec" or name.startswith("netsec."))]
        for span, module_name, attr, work in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(span, original, work, NonConvergenceError)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, span, fn, work, nonconvergence):
        stats = self.stats[span]
        solves = self.stats[SOLVE_SPAN]
        stack = self._stack
        signature = inspect.signature(fn) if work else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if work:
                stats.work += work(signature.bind(*args, **kwargs))
            solves_before = solves.calls
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except nonconvergence as exc:
                # Count each error once, at the innermost traced span it leaves.
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    stats.nonconverged += 1
                raise
            finally:
                duration = clock() - start
                covered = stack.pop()
                if stack:
                    stack[-1] += duration
                stats.calls += 1
                stats.total += duration
                stats.self_time += duration - covered
                stats.solves += solves.calls - solves_before
                if stats.durations is not None:
                    stats.durations.append(duration)

        return wrapper

    def report(self):
        return {name: stats.as_dict() for name, stats in self.stats.items()}

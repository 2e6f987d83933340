"""Two-stage network security game: dissemination, attacks, and investments."""

from .attack import (
    AttackSolution,
    attacker_payoff,
    expected_stolen,
    optimal_attack,
)
from .dissemination import (
    Dissemination,
    Params,
    complete_docs,
    complete_pair_reach,
    disseminate,
    p_for_half_coverage,
    reach_closed_form,
    reach_exact,
    reach_monte_carlo,
    ring_docs,
    ring_pair_reach,
    star_docs,
    topology_docs,
)
from .game import (
    GameOutcome,
    NonConvergenceError,
    best_response_dynamics,
    evaluate_outcome,
    find_crossover_p,
    nash_random,
    nash_strategic_vt,
    social_optimum_numeric,
    social_optimum_random,
)
from .graph import (
    Graph,
    build_topology,
    complete_graph,
    load_edge_list,
    ring_graph,
    star_graph,
)

__version__ = "0.1.0"

__all__ = [
    "AttackSolution",
    "Dissemination",
    "GameOutcome",
    "Graph",
    "NonConvergenceError",
    "Params",
    "attacker_payoff",
    "best_response_dynamics",
    "build_topology",
    "complete_docs",
    "complete_graph",
    "complete_pair_reach",
    "disseminate",
    "evaluate_outcome",
    "expected_stolen",
    "find_crossover_p",
    "load_edge_list",
    "nash_random",
    "nash_strategic_vt",
    "optimal_attack",
    "p_for_half_coverage",
    "reach_closed_form",
    "reach_exact",
    "reach_monte_carlo",
    "ring_docs",
    "ring_graph",
    "ring_pair_reach",
    "social_optimum_numeric",
    "social_optimum_random",
    "star_docs",
    "star_graph",
    "topology_docs",
]

"""Exact solving, constructive adversaries, and certified bounds for hat
guessing games on graphs.

Layout: graphs (structure and decompositions), game (strategies and
transforms), solver (exact game values), construct (adversary oracles),
bounds (certified arithmetic), cli (command-line front end).
"""

from .bounds import (
    BigBound,
    circ_bound,
    lll_degree_bound,
    n_h_t_closed,
    n_h_t_recursive,
    sylvester,
    theta_estimate,
    two_guess_seq,
)
from .construct import (
    AdversaryOracle,
    oracle_closure,
    oracle_exhaustive,
    oracle_lemma_blocks,
    oracle_lemma_is,
    oracle_lemma_rus,
    oracle_lemma_two_at_v,
    oracle_theorem_circ,
    oracle_theorem_tary,
)
from .errors import (
    DisconnectedGraphError,
    GraphParseError,
    GuardExceededError,
    HatcheckError,
    IndeterminateComparisonError,
    InternalError,
    PremiseViolationError,
    VerificationFailureError,
)
from .game import (
    ColorBudget,
    Strategy,
    enumerate_strategies,
    is_defeating,
    random_strategy,
    strategy_space_size,
)
from .graphs import (
    Graph,
    RootedTree,
    block_decomposition,
    circumference,
    closure,
    dfs_treedepth_certificate,
    graph_to_text,
    parse_graph,
    tree_from_graph,
)
from .guards import DEFAULT_GUARDS, Guards, guards_from_env
from .rng import SplitMix64
from .solver import (
    SolveOutcome,
    find_defeating_assignment,
    hg2_exact,
    hg_exact,
    players_win,
)

__all__ = [
    "AdversaryOracle",
    "BigBound",
    "ColorBudget",
    "DEFAULT_GUARDS",
    "DisconnectedGraphError",
    "Graph",
    "GraphParseError",
    "GuardExceededError",
    "Guards",
    "HatcheckError",
    "IndeterminateComparisonError",
    "InternalError",
    "PremiseViolationError",
    "RootedTree",
    "SolveOutcome",
    "SplitMix64",
    "Strategy",
    "VerificationFailureError",
    "block_decomposition",
    "circ_bound",
    "circumference",
    "closure",
    "dfs_treedepth_certificate",
    "enumerate_strategies",
    "find_defeating_assignment",
    "graph_to_text",
    "guards_from_env",
    "hg2_exact",
    "hg_exact",
    "is_defeating",
    "lll_degree_bound",
    "n_h_t_closed",
    "n_h_t_recursive",
    "oracle_closure",
    "oracle_exhaustive",
    "oracle_lemma_blocks",
    "oracle_lemma_is",
    "oracle_lemma_rus",
    "oracle_lemma_two_at_v",
    "oracle_theorem_circ",
    "oracle_theorem_tary",
    "parse_graph",
    "players_win",
    "random_strategy",
    "strategy_space_size",
    "sylvester",
    "theta_estimate",
    "tree_from_graph",
    "two_guess_seq",
]

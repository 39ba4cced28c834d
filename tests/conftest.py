"""Shared builders and a deterministic hypothesis profile."""

import re
from itertools import combinations

from hypothesis import HealthCheck, settings

from hatcheck.game import ColorBudget, Strategy
from hatcheck.graphs import Graph, connected_graphs  # noqa: F401  (re-exported to the tests)

settings.register_profile(
    "repro",
    derandomize=True,
    deadline=None,
    suppress_health_check=list(HealthCheck),
)
settings.load_profile("repro")


def documented_exit_codes(text: str) -> set:
    """The codes of text's "Exit codes: 0 ..., 2 ..." paragraph, up to
    the next blank line."""
    para = text[text.index("Exit codes:"):].split("\n\n")[0]
    return {int(code) for code in re.findall(r"(?:codes:|,)\s+(\d+)\s", para)}


def graph(n: int, *edges) -> Graph:
    return Graph(n, frozenset((min(u, v), max(u, v)) for u, v in edges))


def complete(n: int) -> Graph:
    return Graph(n, frozenset(combinations(range(n), 2)))


def path(n: int) -> Graph:
    return graph(n, *((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    return graph(n, *((i, (i + 1) % n) for i in range(n)))


def star(leaves: int) -> Graph:
    return graph(leaves + 1, *((0, i) for i in range(1, leaves + 1)))


def bowtie() -> Graph:
    return graph(5, (0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4))


def paw() -> Graph:
    return graph(4, (0, 1), (0, 2), (1, 2), (2, 3))


def diamond() -> Graph:
    return graph(4, (0, 1), (0, 2), (1, 2), (0, 3), (1, 3))


def cactus() -> Graph:
    # triangle with a pendant path, circumference 3
    return graph(5, (0, 1), (0, 2), (1, 2), (2, 3), (3, 4))


def winkler_strategy() -> Strategy:
    """The classic K2 strategy at two colors: one player matches what she
    sees, the other guesses the opposite; exactly one is always right."""
    g = complete(2)
    budget = ColorBudget.uniform(2, 2)
    match = ((0,), (1,))
    oppose = ((1,), (0,))
    return Strategy(g, budget, 1, (match, oppose))

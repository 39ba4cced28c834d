"""Exact game solving: players_win, hg_exact, hg2_exact, refutation."""

import hashlib

import pytest

from conftest import complete, cycle, diamond, graph, path, paw, star, winkler_strategy
from hatcheck.errors import GuardExceededError
from hatcheck.game import (
    ColorBudget,
    Strategy,
    enumerate_assignments,
    is_defeating,
    table_size,
)
from hatcheck.graphs import Graph
from hatcheck.guards import Guards
from hatcheck.solver import (
    ADVERSARY,
    PLAYERS,
    SolveOutcome,
    find_defeating_assignment,
    hg2_exact,
    hg_exact,
    outcome_to_text,
    players_win,
)
from naive_oracle import naive_players_win


def _certificate_is_winning(outcome: SolveOutcome) -> bool:
    return find_defeating_assignment(outcome.graph, outcome.certificate) is None


# ---------------------------------------------------------------------------
# players_win examples
# ---------------------------------------------------------------------------

def test_k2_two_colors_players():
    out = players_win(complete(2), ColorBudget.uniform(2, 2), 1)
    assert out.winner == PLAYERS
    assert _certificate_is_winning(out)
    # the Winkler strategy is itself a valid certificate
    assert find_defeating_assignment(complete(2), winkler_strategy()) is None


def test_k2_three_colors_adversary():
    out = players_win(complete(2), ColorBudget.uniform(2, 3), 1)
    assert out.winner == ADVERSARY


def test_k1_two_guesses_players():
    out = players_win(Graph(1, frozenset()), ColorBudget((2,)), 2)
    assert out.winner == PLAYERS
    assert _certificate_is_winning(out)


def test_outcome_deterministic():
    g = path(3)
    b = ColorBudget.uniform(3, 3)
    assert players_win(g, b, 1) == players_win(g, b, 1)


def test_outcome_to_text():
    out = players_win(complete(2), ColorBudget.uniform(2, 2), 1)
    text = outcome_to_text(out)
    assert text.startswith("winner players\n")
    out = players_win(complete(2), ColorBudget.uniform(2, 3), 1)
    text = outcome_to_text(out)
    assert text.startswith("winner adversary\n")
    assert "defeated-by" in text


# ---------------------------------------------------------------------------
# one-guess game values
# ---------------------------------------------------------------------------

def test_hg_complete_graphs():
    assert hg_exact(Graph(1, frozenset())) == 1
    assert hg_exact(complete(2)) == 2
    assert hg_exact(complete(3)) == 3


def test_hg_k4_by_counting():
    # upper bound oracle: with q = n+1 colors, each of the n players
    # covers q^(n-1) assignments, and n * q^(n-1) < q^n; so HG <= n for
    # every n-vertex graph, which is tight on cliques
    n = 4
    q = n + 1
    assert n * q ** (n - 1) < q ** n
    out = players_win(complete(4), ColorBudget.uniform(4, 4), 1)
    assert out.winner == PLAYERS and _certificate_is_winning(out)
    assert hg_exact(complete(4)) == 4


def test_hg_p4_against_naive():
    # independent table search confirms the adversary side at q = 3
    won, _ = naive_players_win(path(4), ColorBudget.uniform(4, 3), 1)
    assert not won
    out = players_win(path(4), ColorBudget.uniform(4, 2), 1)
    assert out.winner == PLAYERS and _certificate_is_winning(out)
    assert hg_exact(path(4)) == 2


def test_hg_small_graph_values():
    # regression values; lower sides certified, upper sides from the
    # search (cross-validated against the naive oracle on <= 3 vertices)
    assert hg_exact(path(3)) == 2
    assert hg_exact(star(3)) == 2
    assert hg_exact(paw()) == 3
    assert hg_exact(cycle(4)) == 3
    assert hg_exact(diamond()) == 3
    for g, v in [(path(3), 2), (star(3), 2), (paw(), 3), (cycle(4), 3)]:
        out = players_win(g, ColorBudget.uniform(g.vertex_count, v), 1)
        assert out.winner == PLAYERS and _certificate_is_winning(out)


# ---------------------------------------------------------------------------
# two-guess game values, with counting oracles for the upper sides
# ---------------------------------------------------------------------------

def _two_guess_coverage_bound(n: int, q: int) -> bool:
    """True when 2-guess players on any n-clique-like board lose at q:
    each player covers at most 2q^(n-1) assignments."""
    return n * 2 * q ** (n - 1) < q ** n


def test_hg2_k1():
    assert hg2_exact(Graph(1, frozenset())) == 2
    # two guesses cover two colors; the third dodges (a_1 = 3)
    out = players_win(Graph(1, frozenset()), ColorBudget((3,)), 2)
    assert out.winner == ADVERSARY


def test_hg2_k2():
    # counting: at q = 5, the two players cover <= 4q < q^2 assignments
    assert _two_guess_coverage_bound(2, 5)
    out = players_win(complete(2), ColorBudget.uniform(2, 4), 2)
    assert out.winner == PLAYERS and _certificate_is_winning(out)
    assert hg2_exact(complete(2)) == 4


def test_hg2_k3():
    # counting: at q = 7, 6q^2 < q^3
    assert _two_guess_coverage_bound(3, 7)
    out = players_win(complete(3), ColorBudget.uniform(3, 6), 2)
    assert out.winner == PLAYERS and _certificate_is_winning(out)
    assert hg2_exact(complete(3)) == 6


def test_hg2_p3():
    # refined counting for the path: fix the middle color m; each end
    # dodges its two guesses in q-2 ways, giving q(q-2)^2 triples that
    # only the middle can cover, at most 2 per (end, end) view; at q = 6,
    # 6*16 = 96 > 72 = 2q^2, so the adversary wins
    q = 6
    assert q * (q - 2) ** 2 > 2 * q * q
    out = players_win(path(3), ColorBudget.uniform(3, 5), 2)
    assert out.winner == PLAYERS and _certificate_is_winning(out)
    assert hg2_exact(path(3)) == 5


def test_hg2_dominates_hg():
    for g in (Graph(1, frozenset()), complete(2), path(3), complete(3)):
        assert hg2_exact(g) >= hg_exact(g)


# ---------------------------------------------------------------------------
# find_defeating_assignment
# ---------------------------------------------------------------------------

def test_find_winkler_none():
    assert find_defeating_assignment(complete(2), winkler_strategy()) is None


def test_find_constant_guess():
    g = Graph(1, frozenset())
    s = Strategy(g, ColorBudget((2,)), 1, (((0,),),))
    assert find_defeating_assignment(g, s) == (1,)


def test_find_winkler_extended_to_three_colors():
    g = complete(2)
    b = ColorBudget.uniform(2, 3)
    # keep the two-color entries, guess 2 on the new view
    match = ((0,), (1,), (2,))
    oppose = ((1,), (0,), (2,))
    s = Strategy(g, b, 1, (match, oppose))
    a = find_defeating_assignment(g, s)
    assert a is not None and is_defeating(s, a)


def test_find_returns_lex_first():
    g = path(3)
    b = ColorBudget.uniform(3, 3)
    from hatcheck.game import random_strategy
    from hatcheck.rng import SplitMix64

    rng = SplitMix64(17)
    for _ in range(30):
        s = random_strategy(g, b, 1, rng)
        got = find_defeating_assignment(g, s)
        all_defeating = [a for a in enumerate_assignments(b) if is_defeating(s, a)]
        assert got == (all_defeating[0] if all_defeating else None)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_adversary_monotone_in_budget():
    g = complete(2)
    assert players_win(g, ColorBudget((3, 3)), 1).winner == ADVERSARY
    for sizes in ((3, 4), (4, 3), (4, 4), (5, 5)):
        assert players_win(g, ColorBudget(sizes), 1).winner == ADVERSARY
    g = path(3)
    assert players_win(g, ColorBudget.uniform(3, 3), 1).winner == ADVERSARY
    assert players_win(g, ColorBudget((4, 3, 3)), 1).winner == ADVERSARY


def test_guards():
    g = complete(2)
    with pytest.raises(GuardExceededError):
        players_win(g, ColorBudget((2000, 2000)), 1, Guards(assignment=10**6))
    with pytest.raises(GuardExceededError):
        players_win(g, ColorBudget((400, 400)), 1, Guards(table=100))


def test_table_size_accounting():
    g = star(2)
    b = ColorBudget((3, 2, 2))
    assert table_size(g, b, 0) == 4  # sees both leaves
    assert table_size(g, b, 1) == 3  # sees the center


# ---------------------------------------------------------------------------
# pinned search: kernel changes must keep the branch order, forced moves and
# conflicts, so winners, certificates and full transcripts stay identical
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "g, q, guesses, winner, refuted, digest",
    [
        (graph(4, (0, 1), (1, 2), (2, 3)), 3, 1, ADVERSARY, 8977,
         "0ad3a712a8659afe507c1517dbb47aef6b1834382f3c28e2128ced365e196001"),
        (graph(4, (0, 2), (0, 3), (1, 2)), 3, 1, ADVERSARY, 15053,
         "c70a87d65d65a014a410f7aab3cd2c59312f538662d9d2e71d8fc77a0666e239"),
        (graph(4, (0, 1), (0, 2), (0, 3)), 3, 1, ADVERSARY, 7045,
         "c04d4819a55abd9bea8bd0873b15ef18582cbab0295abb18f4815817988389df"),
        (graph(3, (0, 1), (0, 2)), 5, 2, PLAYERS, 0,
         "b7f0310a9e06b46004babe3c8c092c8f4556c290bce3f40d8e80a7ff0907ecbb"),
        (complete(4), 9, 2, ADVERSARY, 1,
         "7638dc6b9af68b343e32bc5f61719400163245698ed4b65ea427c5d581988d93"),
    ],
    ids=["p4", "p4-relabelled", "star", "p3-two-guess", "k4-two-guess"],
)
def test_pinned_search(g, q, guesses, winner, refuted, digest):
    out = players_win(g, ColorBudget.uniform(g.vertex_count, q), guesses, max_transcript=10**9)
    assert out.winner == winner
    assert len(out.transcript) == refuted
    assert hashlib.sha256(outcome_to_text(out).encode()).hexdigest() == digest
    if g == complete(4):
        # no saturating matching exists (2916 cells x 2 slots < 6561
        # assignments), and the search refutes at the root
        assert out.transcript == ((0, (0, 0, 0, 0)),)

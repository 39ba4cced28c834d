"""Acceptance gate: ten checks covering values, bounds, and constructions.

Each test prints one PASS line with its wall time; every numeric claim
is asserted at the stated tolerance and each check carries its own
runtime ceiling.
"""

import math
import time
from fractions import Fraction
from pathlib import Path

from conftest import bowtie, cactus, complete, connected_graphs, path, star
from naive_oracle import naive_players_win
from hatcheck.bounds import (
    BigBound,
    circ_bound,
    lll_degree_bound,
    n_h_t_closed,
    n_h_t_recursive,
    sylvester,
    theta_estimate,
    two_guess_seq,
)
from hatcheck.cli import entry
from hatcheck.construct import (
    oracle_closure,
    oracle_exhaustive,
    oracle_lemma_blocks,
    oracle_lemma_is,
    oracle_lemma_rus,
    oracle_lemma_two_at_v,
)
from hatcheck.game import (
    ColorBudget,
    enumerate_strategies,
    is_defeating,
    random_strategy,
    strategy_space_size,
)
from hatcheck.graphs import Graph, RootedTree, circumference, contains_tary_tree
from hatcheck.rng import SplitMix64
from hatcheck.solver import PLAYERS, hg_exact, hg2_exact, players_win


def _report(tag: str, started: float, limit: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < limit, f"{tag} took {elapsed:.1f}s, limit {limit}s"
    print(f"{tag} PASS ({elapsed:.1f}s)")


def _defeat_suite(defeat, g, budget, guess_count, seed, random_trials=1000):
    """Exhaust the strategy space when small, else sample; return count."""
    space = strategy_space_size(g, budget, guess_count)
    if space <= 10**5:
        pool = enumerate_strategies(g, budget, guess_count)
        expected = space
    else:
        rng = SplitMix64(seed)
        pool = (
            random_strategy(g, budget, guess_count, rng)
            for _ in range(random_trials)
        )
        expected = random_trials
    count = 0
    for strategy in pool:
        assignment = defeat(strategy)
        assert budget.contains(assignment), "assignment outside budget"
        assert is_defeating(strategy, assignment), "claimed defeat fails"
        count += 1
    assert count == expected
    return count


def test_criterion_01_classical_clique_values():
    started = time.monotonic()
    assert hg_exact(complete(1)) == 1
    assert hg_exact(complete(2)) == 2
    assert hg_exact(complete(3)) == 3
    _report("criterion 01 clique values", started, 60)


def test_criterion_02_solver_matches_naive_enumeration():
    started = time.monotonic()
    checked = 0
    for n in (1, 2, 3):
        for g in connected_graphs(n):
            for q in (1, 2, 3):
                for guesses in (1, 2):
                    budget = ColorBudget.uniform(n, q)
                    fast = players_win(g, budget, guesses).winner == PLAYERS
                    naive, _ = naive_players_win(g, budget, guesses)
                    assert fast == naive, (g.edges, q, guesses)
                    checked += 1
    assert checked == 36
    _report(f"criterion 02 cross-oracle agreement on {checked} cases", started, 600)


def test_criterion_03_sequence_values():
    started = time.monotonic()
    assert [sylvester(n).exact for n in range(6)] == [1, 2, 3, 7, 43, 1807]
    assert [two_guess_seq(n).exact for n in range(5)] == [1, 3, 7, 43, 1807]
    assert two_guess_seq(1).exact == 3
    _report("criterion 03 sequence fidelity", started, 1)


def test_criterion_04_theta_enclosure_and_growth():
    started = time.monotonic()
    lo, hi = theta_estimate(128)
    assert lo <= Fraction(25533, 10000) + Fraction(5, 100000)
    assert hi >= Fraction(25533, 10000) - Fraction(5, 100000)
    assert hi <= Fraction(256, 100)
    # a_n <= theta_hi^(2^(n-1)) + 1/2 for n <= 20, entirely in exact
    # arithmetic: maintain a round-down chain r_k <= theta_hi^(2^k)
    # (each step squares and floors at 2^-240), so r <= rhs always
    scale = 2**240
    r = Fraction(hi.numerator * scale // hi.denominator, scale)
    for n in range(1, 21):
        a_n = two_guess_seq(n).exact
        assert Fraction(2 * a_n - 1, 2) <= r, f"Eq.(2) fails at n={n}"
        sq = r * r
        r = Fraction(sq.numerator * scale // sq.denominator, scale)
    _report("criterion 04 theta enclosure and Eq.(2) n<=20", started, 5)


def test_criterion_05_circumference_three_bound():
    started = time.monotonic()
    value = circ_bound(3)
    assert value.is_exact
    assert value.exact == Fraction(64, 25) ** 8 + Fraction(1, 2)
    assert value.exact >= 1807
    _report("criterion 05 circ_bound(3) arithmetic", started, 1)


def test_criterion_06_lemma_defeat_suites():
    started = time.monotonic()
    total = 0

    # independent-set peel: star K_{1,2} and P3 instances
    sub_k1_2 = oracle_exhaustive(Graph(1, frozenset()), ColorBudget.uniform(1, 2), 1)
    orc = oracle_lemma_is(star(2), (1, 2), 1, 2, sub_k1_2)
    total += _defeat_suite(orc.defeat, orc.graph, orc.budget, 1, seed=101)
    sub_k1_3 = oracle_exhaustive(Graph(1, frozenset()), ColorBudget.uniform(1, 3), 1)
    orc = oracle_lemma_is(path(3), (0, 2), 1, 3, sub_k1_3)
    total += _defeat_suite(orc.defeat, orc.graph, orc.budget, 1, seed=102)

    # two colors at v: K2 exhaustively, P3 endpoint by sampling
    sub2_k1 = oracle_exhaustive(Graph(1, frozenset()), ColorBudget.uniform(1, 3), 2)
    defeat = oracle_lemma_two_at_v(complete(2), 0, (0, 1), 2, sub2_k1).defeat
    total += _defeat_suite(defeat, complete(2), ColorBudget((2, 3)), 1, seed=103)
    ell = hg2_exact(complete(2))
    sub2_k2 = oracle_exhaustive(
        Graph.from_edges(2, [(0, 1)]), ColorBudget.uniform(2, ell + 1), 2
    )
    defeat = oracle_lemma_two_at_v(path(3), 0, (0, 1), ell, sub2_k2).defeat
    total += _defeat_suite(
        defeat, path(3), ColorBudget((2, ell + 1, ell + 1)), 1, seed=104
    )

    # cut-vertex split: bowtie at derived ell, P3 middle, degenerate K2
    ell_bow = max(hg_exact(complete(3)), hg2_exact(complete(3)))
    orc = oracle_lemma_rus(bowtie(), 2, (0, 1, 2), (2, 3, 4), ell_bow)
    total += _defeat_suite(orc.defeat, orc.graph, orc.budget, 1, seed=105)
    orc = oracle_lemma_rus(path(3), 1, (0, 1), (1, 2), max(2, hg2_exact(complete(2))))
    total += _defeat_suite(orc.defeat, orc.graph, orc.budget, 1, seed=106)
    orc = oracle_lemma_rus(complete(2), 0, (0, 1), (0,), 2)
    total += _defeat_suite(orc.defeat, orc.graph, orc.budget, 1, seed=107)

    # block composition: single block, path of bridges, cactus
    orc = oracle_lemma_blocks(complete(3), hg2_exact(complete(3)))
    total += _defeat_suite(orc.defeat, orc.graph, orc.budget, 1, seed=108)
    orc = oracle_lemma_blocks(path(4), hg2_exact(complete(2)))
    total += _defeat_suite(orc.defeat, orc.graph, orc.budget, 1, seed=109)
    orc = oracle_lemma_blocks(cactus(), 6)
    total += _defeat_suite(orc.defeat, orc.graph, orc.budget, 1, seed=110)

    # tree closure: root alone, path tree (3,7), star tree (3,7,7)
    orc = oracle_closure(RootedTree((None,), 0))
    total += _defeat_suite(orc.defeat, orc.graph, orc.budget, 2, seed=111)
    orc = oracle_closure(RootedTree((None, 0), 0))
    total += _defeat_suite(
        orc.defeat, orc.graph, orc.budget, 2, seed=112, random_trials=10**4
    )
    orc = oracle_closure(RootedTree((None, 0, 0), 0))
    total += _defeat_suite(orc.defeat, orc.graph, orc.budget, 2, seed=113)
    _report(f"criterion 06 lemma suites, {total} strategies defeated", started, 1800)


def test_criterion_07_closure_all_small_trees():
    started = time.monotonic()
    trees = (
        RootedTree((None,), 0),
        RootedTree((None, 0), 0),
        RootedTree((None, 0, 1), 0),  # chain of height 2
        RootedTree((None, 0, 0), 0),  # two children
    )
    total = 0
    for i, tree in enumerate(trees):
        orc = oracle_closure(tree)
        expected = tuple(
            int(two_guess_seq(tree.height_of(v) + 1).exact)
            for v in range(tree.vertex_count)
        )
        assert orc.budget == ColorBudget(expected)
        total += _defeat_suite(orc.defeat, orc.graph, orc.budget, 2, seed=120 + i)
    _report(f"criterion 07 closure trees, {total} strategies defeated", started, 600)


def test_criterion_08_bound_consistency_sweep():
    started = time.monotonic()
    tary_pairs = ((1, 2), (1, 3), (2, 2), (2, 3))
    graphs = [g for n in (1, 2, 3, 4) for g in connected_graphs(n)]
    assert len(graphs) == 44
    comparisons = 0
    for g in graphs:
        value = BigBound.from_exact(hg_exact(g))
        c = circumference(g)
        if c >= 3:
            assert value <= circ_bound(c), (g.edges, c)
            comparisons += 1
        for h, t in tary_pairs:
            if contains_tary_tree(g, t, h) is None:
                assert value <= n_h_t_recursive(h, t), (g.edges, h, t)
                assert value <= n_h_t_closed(h, t), (g.edges, h, t)
                comparisons += 2
        max_deg = max(g.degree(v) for v in g.vertices())
        t = max_deg + 1
        assert value <= BigBound.from_exact(math.ceil(lll_degree_bound(t)))
        comparisons += 1
    _report(
        f"criterion 08 bound sweep, {comparisons} comparisons on 44 graphs",
        started,
        1800,
    )


def test_criterion_09_recursive_below_closed():
    started = time.monotonic()
    assert n_h_t_recursive(2, 2) <= n_h_t_closed(2, 2)
    _report("criterion 09 N(2,2) recursive <= closed", started, 1)


def test_criterion_10_verify_reports_deterministic(capsys):
    started = time.monotonic()
    graph_file = str(
        Path(__file__).resolve().parent.parent / "scripts" / "graphs" / "bowtie.graph"
    )
    argv = ["verify", graph_file, "--lemma", "blocks", "--trials", "100", "--seed", "7"]
    reports = set()
    for _ in range(3):
        assert entry(list(argv)) == 0
        out = capsys.readouterr().out
        stripped = "\n".join(
            line for line in out.splitlines() if not line.startswith("wall_time_s:")
        )
        reports.add(stripped)
    assert len(reports) == 1
    _report("criterion 10 deterministic verify reports", started, 600)

"""Constructive adversary builders: every argument defeats what it claims."""

import time
import tracemalloc
from dataclasses import replace
from functools import partial
from itertools import product

import pytest

import hatcheck.construct as construct
from hatcheck.bounds import two_guess_seq
from hatcheck.construct import (
    circ_block_depth,
    oracle_closure,
    oracle_exhaustive,
    oracle_lemma_blocks,
    oracle_lemma_is,
    oracle_lemma_rus,
    oracle_lemma_two_at_v,
    oracle_theorem_circ,
    oracle_theorem_tary,
)
from hatcheck.errors import GuardExceededError, PremiseViolationError
from hatcheck.game import (
    ColorBudget,
    Strategy,
    enumerate_strategies,
    is_defeating,
    random_strategy,
    strategy_space_size,
)
from hatcheck.graphs import Graph, RootedTree, closure, connected_graphs, contains_tary_tree
from hatcheck.guards import Guards
from hatcheck.rng import SplitMix64
from hatcheck.solver import find_defeating_assignment

from conftest import bowtie, cactus, complete, cycle, graph, path, star, winkler_strategy
from naive_oracle import naive_closure_defeat, naive_cut_split_defeat


def _assert_defeats_all(oracle, trials=200, seed=2026):
    """Every sampled strategy loses within the oracle's budget."""
    g, budget, k = oracle.graph, oracle.budget, oracle.guess_count
    space = strategy_space_size(g, budget, k)
    if space <= 10_000:
        pool = enumerate_strategies(g, budget, k)
    else:
        rng = SplitMix64(seed)
        pool = (random_strategy(g, budget, k, rng) for _ in range(trials))
    count = 0
    for strategy in pool:
        assignment = oracle.defeat(strategy)
        assert budget.contains(assignment)
        assert is_defeating(strategy, assignment)
        count += 1
    assert count > 0
    return count


# ---------------------------------------------------------------------------
# exhaustive
# ---------------------------------------------------------------------------

def test_exhaustive_k2_defeats_everything():
    orc = oracle_exhaustive(complete(2), ColorBudget.uniform(2, 3), 1)
    assert _assert_defeats_all(orc) == 729


def test_exhaustive_lex_first():
    orc = oracle_exhaustive(Graph.from_edges(1, []), ColorBudget.uniform(1, 3), 1)
    constant_zero = next(enumerate_strategies(orc.graph, orc.budget, 1))
    # the scan returns the first defeating assignment in lex order
    assert orc.defeat(constant_zero) == (1,)


def test_exhaustive_premise_violation_carries_winner():
    g = complete(2)
    budget = ColorBudget.uniform(2, 2)
    with pytest.raises(PremiseViolationError) as info:
        oracle_exhaustive(g, budget, 1).defeat(winkler_strategy())
    witness = info.value.witness
    assert find_defeating_assignment(g, witness) is None


# ---------------------------------------------------------------------------
# independent-set peel
# ---------------------------------------------------------------------------

def _is_oracle_star():
    g = star(2)  # center 0, leaves 1 and 2
    rest_graph = Graph.from_edges(1, [])
    sub = oracle_exhaustive(rest_graph, ColorBudget.uniform(1, 2), 1)
    return oracle_lemma_is(g, (1, 2), 1, 2, sub)


def test_lemma_is_star_budget_and_defeats():
    orc = _is_oracle_star()
    assert orc.budget == ColorBudget.uniform(3, 3)  # ell^r + 1 = 3
    _assert_defeats_all(orc, trials=200)


def test_lemma_is_p4_higher_degree_peel():
    g = path(4)
    rest_graph = Graph.from_edges(2, [])  # vertices 1 and 3, no edge
    sub = oracle_exhaustive(rest_graph, ColorBudget.uniform(2, 2), 1)
    orc = oracle_lemma_is(g, (0, 2), 2, 2, sub)
    assert orc.budget == ColorBudget.uniform(4, 5)  # 2^2 + 1
    _assert_defeats_all(orc, trials=200)


def test_lemma_is_rest_stays_below_ell():
    orc = _is_oracle_star()
    rng = SplitMix64(7)
    for _ in range(100):
        s = random_strategy(orc.graph, orc.budget, 1, rng)
        assignment = orc.defeat(s)
        assert assignment[0] < 2  # the delegated part never sees colors >= ell


def test_lemma_is_validation():
    g = star(2)
    sub = oracle_exhaustive(Graph.from_edges(1, []), ColorBudget.uniform(1, 2), 1)
    with pytest.raises(ValueError):
        oracle_lemma_is(g, (0, 1), 1, 2, sub)  # not independent
    with pytest.raises(ValueError):
        oracle_lemma_is(g, (1, 2), 1, 2, oracle_exhaustive(
            Graph.from_edges(1, []), ColorBudget.uniform(1, 3), 1
        ))  # sub budget is not uniform ell


def _dodge_by_colorings(strategy, g, u, ell):
    """The peel's dodge at u by the loop over u's neighborhood colorings
    below ell: (smallest unguessed color, guesses seen)."""
    qs, guessed = strategy.budget.sizes, set()
    for sigma in product(range(ell), repeat=g.degree(u)):
        idx = 0
        for w, c in zip(g.neighbors(u), sigma):
            idx = idx * qs[w] + c
        guessed.update(strategy.tables[u][idx])
    return min(set(range(len(guessed) + 1)) - guessed), len(guessed)


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("ell", [2, 3, 4])
def test_lemma_is_dodges_match_the_coloring_loop(degree, ell):
    # the center of a star, last so that its leaves come first, and an
    # isolated vertex, whose one index is 0
    n = degree + 2
    g = graph(n, *((i, degree) for i in range(degree)))
    sub = oracle_exhaustive(Graph.from_edges(degree, []), ColorBudget.uniform(degree, ell), 1)
    orc = oracle_lemma_is(g, (degree, n - 1), degree, ell, sub)
    rng = SplitMix64(10 * ell + degree)
    for _ in range(30):
        s = random_strategy(g, orc.budget, 1, rng)
        assignment, log = orc.defeat_traced(s)
        expect = []
        for u in (degree, n - 1):
            color, seen = _dodge_by_colorings(s, g, u, ell)
            assert assignment[u] == color
            expect.append(f"dodge u={u} color={color} (saw {seen} guesses)")
        assert list(log[:2]) == expect
        assert is_defeating(s, assignment)


def test_lemma_is_build_lists_no_colorings():
    # the center of a 23-leaf star enumerates 2^23 colorings, near the
    # guard; the build holds one index range per neighbor, not the list
    sub = oracle_exhaustive(Graph.from_edges(23, []), ColorBudget.uniform(23, 2), 1)
    tracemalloc.start()
    t0 = time.perf_counter()
    orc = oracle_lemma_is(star(23), (0,), 23, 2, sub)
    elapsed = time.perf_counter() - t0
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert orc.enumeration == 2**23 <= Guards().enumeration
    assert elapsed < 1.0
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# two colors at a vertex
# ---------------------------------------------------------------------------

def test_two_at_v_k2_exhaustive():
    g = complete(2)
    sub2 = oracle_exhaustive(Graph.from_edges(1, []), ColorBudget.uniform(1, 3), 2)
    defeat = oracle_lemma_two_at_v(g, 0, (0, 1), 2, sub2).defeat
    budget = ColorBudget((2, 3))
    count = 0
    for s in enumerate_strategies(g, budget, 1):
        assignment = defeat(s)
        assert assignment[0] in (0, 1)
        assert budget.contains(assignment)
        assert is_defeating(s, assignment)
        count += 1
    assert count == 72


def test_two_at_v_p3_endpoint():
    g = path(3)
    rest, _ = g, None
    sub_graph = Graph.from_edges(2, [(0, 1)])  # vertices 1, 2 relabelled
    sub2 = oracle_exhaustive(sub_graph, ColorBudget.uniform(2, 5), 2)
    defeat = oracle_lemma_two_at_v(g, 0, (0, 1), 4, sub2).defeat
    budget = ColorBudget((2, 5, 5))
    rng = SplitMix64(11)
    for _ in range(200):
        s = random_strategy(g, budget, 1, rng)
        assignment = defeat(s)
        assert assignment[0] in (0, 1)
        assert is_defeating(s, assignment)


def test_two_at_v_rejects_identical_colors():
    sub2 = oracle_exhaustive(Graph.from_edges(1, []), ColorBudget.uniform(1, 3), 2)
    with pytest.raises(ValueError):
        oracle_lemma_two_at_v(complete(2), 0, (1, 1), 2, sub2)


def test_two_at_v_rejects_misshaped_sub_oracle():
    one_guess = oracle_exhaustive(Graph.from_edges(1, []), ColorBudget.uniform(1, 3), 1)
    with pytest.raises(ValueError, match="two-color sub-oracle must play the 2-guess game"):
        oracle_lemma_two_at_v(complete(2), 0, (0, 1), 2, one_guess)


def test_builders_accept_a_hosting_sub_oracle():
    # a sub-oracle may play a supergraph of its sub-game with fewer colors:
    # the peel's on K1 at 2 < ell = 3 colors, the two-color step's on K2,
    # a supergraph of P3 minus its centre, at 5 = ell + 1 colors
    peel = oracle_lemma_is(star(2), (1, 2), 1, 3, _sub(1, 2, 1))
    assert peel.budget == ColorBudget.uniform(3, 4)
    host = oracle_exhaustive(complete(2), ColorBudget.uniform(2, 5), 2)
    two = oracle_lemma_two_at_v(path(3), 1, (0, 1), 4, host)
    assert two.budget == ColorBudget((5, 2, 5))
    for orc in (peel, two):
        assert _assert_defeats_all(orc, trials=200) == 200


# ---------------------------------------------------------------------------
# cut-vertex split
# ---------------------------------------------------------------------------

def test_rus_p3_middle():
    g = path(3)
    orc = oracle_lemma_rus(g, 1, (0, 1), (1, 2), 2)
    assert orc.budget == ColorBudget.uniform(3, 3)
    _assert_defeats_all(orc, trials=250)


def test_rus_bowtie_cut():
    g = bowtie()
    orc = oracle_lemma_rus(g, 2, (0, 1, 2), (2, 3, 4), 6)
    assert orc.budget == ColorBudget.uniform(5, 7)
    _assert_defeats_all(orc, trials=120)


def test_rus_degenerate_second_part():
    # part 2 = {v} alone: the split reduces to the one-guess premise
    g = complete(2)
    orc = oracle_lemma_rus(g, 0, (0, 1), (0,), 2)
    assert _assert_defeats_all(orc) == 729


def test_rus_premise_violation_witness_checks():
    # ell = 1 makes part 1 a two-color one-guess game the players win
    g = path(3)
    orc = oracle_lemma_rus(g, 1, (0, 1), (1, 2), 1)
    rng = SplitMix64(3)
    with pytest.raises(PremiseViolationError) as info:
        for _ in range(50):
            orc.defeat(random_strategy(g, orc.budget, 1, rng))
    witness = info.value.witness
    assert find_defeating_assignment(witness.graph, witness) is None


def test_rus_part1_premise_when_no_part1_coloring_survives():
    # triangle 0-1-2 plus the edge 2-3, cut at 2, two colors: 0 guesses
    # 1's color and 1 the opposite of 0's (Winkler's K2 strategy, whatever
    # 2 wears), so one of them is right on every part-1 coloring
    g = graph(4, (0, 1), (0, 2), (1, 2), (2, 3))
    orc = oracle_lemma_rus(g, 2, (0, 1, 2), (2, 3), 1)
    match = tuple((c1,) for c1 in (0, 1) for _ in (0, 1))
    oppose = tuple((1 - c0,) for c0 in (0, 1) for _ in (0, 1))
    strategy = Strategy(g, orc.budget, 1, (match, oppose, ((0,),) * 8, ((0,),) * 2))
    with pytest.raises(PremiseViolationError, match="one-guess game on part 1 at 2 colors$") as info:
        orc.defeat(strategy)
    witness = info.value.witness
    assert witness.budget == ColorBudget.uniform(3, 2)
    assert find_defeating_assignment(witness.graph, witness) is None


def test_rus_part2_premise_violation_witness_checks():
    # P3 cut at 1, two colors: 0 always guesses 0, so part-1 colorings
    # with 0 wearing 1 survive and give 1 both colors; 2 guesses 1's
    # color, so it wins the two-guess game on {2} that is left
    g = path(3)
    orc = oracle_lemma_rus(g, 1, (0, 1), (1, 2), 1)
    strategy = Strategy(g, orc.budget, 1, (((0,), (0,)), ((0,),) * 4, ((0,), (1,))))
    with pytest.raises(PremiseViolationError, match="two-guess game on part 2 minus the cut vertex at 2 colors$") as info:
        orc.defeat(strategy)
    witness = info.value.witness
    assert witness.graph.vertex_count == 1 and witness.guess_count == 2
    assert find_defeating_assignment(witness.graph, witness) is None


def _outcome(defeat_traced, strategy):
    """(assignment, log), or the premise violation's message and witness."""
    try:
        return defeat_traced(strategy)
    except PremiseViolationError as exc:
        w = exc.witness
        return str(exc), w.graph, w.budget, w.guess_count, tuple(tuple(t) for t in w.tables)


_SPLITS = {
    "bowtie": (bowtie(), 2, (0, 1, 2), (2, 3, 4)),
    "p3-middle": (path(3), 1, (0, 1), (1, 2)),
    "degenerate-part2": (complete(2), 0, (0, 1), (0,)),
    # v's label in part 2 (1) is neither its label in g (2) nor 0
    "interleaved": (Graph.from_edges(5, [(0, 2), (2, 4), (0, 4), (1, 2), (2, 3), (1, 3)]), 2, (1, 2, 3), (0, 2, 4)),
}


@pytest.mark.parametrize(
    "name, ell, trials",
    [
        ("bowtie", 2, 60),
        ("bowtie", 3, 40),
        ("bowtie", 6, 20),
        ("bowtie", 19, 3),
        ("p3-middle", 1, 60),
        ("p3-middle", 2, 60),
        ("degenerate-part2", 1, 60),
        ("degenerate-part2", 2, 60),
        ("interleaved", 1, 60),
        ("interleaved", 2, 60),
        ("interleaved", 3, 20),
        ("interleaved", 6, 20),
    ],
)
def test_rus_matches_naive_cut_split(name, ell, trials):
    # the masks pick the same part-1 pair as the plain loop over part-1
    # colorings, so assignment, log and any witness agree byte for byte
    g, v, part1, part2 = _SPLITS[name]
    orc = oracle_lemma_rus(g, v, part1, part2, ell)
    naive = partial(naive_cut_split_defeat, g, v, part1, part2, ell)
    rng = SplitMix64(1000 + ell)
    for _ in range(trials):
        strategy = random_strategy(g, orc.budget, 1, rng)
        assert _outcome(orc.defeat_traced, strategy) == _outcome(naive, strategy)


@pytest.mark.parametrize("make, ell, trials", [(cactus, 2, 60), (cactus, 6, 20), (bowtie, 2, 30)])
def test_blocks_matches_naive_cut_split(make, ell, trials):
    # cactus() is also the block workload's triangle-plus-path graph; both
    # graphs are one component whose block (0, 1, 2) is peeled at cut 2,
    # so a defeat is that split's, with its log nested by two spaces
    g = make()
    orc = oracle_lemma_blocks(g, ell)
    assert orc.construction[2] == f"    cut-split v=2 part1=(2, 3, 4) part2=(0, 1, 2) ell={ell}"

    def naive(strategy):
        out, log = naive_cut_split_defeat(g, 2, (2, 3, 4), (0, 1, 2), ell, strategy)
        return out, tuple("  " + ln for ln in log)

    rng = SplitMix64(2000 + ell)
    for _ in range(trials):
        strategy = random_strategy(g, orc.budget, 1, rng)
        assert _outcome(orc.defeat_traced, strategy) == _outcome(naive, strategy)


def test_rus_premise_witnesses_match_naive_cut_split():
    # the instances of the two part-1 premise tests above: no part-1
    # coloring survives (the paw), and survivors but no view with two
    # colors at v (P3 at two colors, among seeded strategies)
    g = graph(4, (0, 1), (0, 2), (1, 2), (2, 3))
    orc = oracle_lemma_rus(g, 2, (0, 1, 2), (2, 3), 1)
    naive = partial(naive_cut_split_defeat, g, 2, (0, 1, 2), (2, 3), 1)
    match = tuple((c1,) for c1 in (0, 1) for _ in (0, 1))
    oppose = tuple((1 - c0,) for c0 in (0, 1) for _ in (0, 1))
    strategy = Strategy(g, orc.budget, 1, (match, oppose, ((0,),) * 8, ((0,),) * 2))
    got = _outcome(orc.defeat_traced, strategy)
    assert got[0].endswith("one-guess game on part 1 at 2 colors")
    assert got == _outcome(naive, strategy)
    # the same pair plays Winkler's strategy only while 2 wears 0 and
    # guesses 0 otherwise: (1, 1, 1) is the one survivor, so the views
    # of 2 other than (1, 1) have none, and 2 guesses 0 there
    match = ((0,), (0,), (1,), (0,))
    oppose = ((1,), (0,), (0,), (0,))
    strategy = Strategy(g, orc.budget, 1, (match, oppose, ((0,),) * 8, ((0,),) * 2))
    got = _outcome(orc.defeat_traced, strategy)
    assert got[0].endswith("one-guess game on part 1 at 2 colors")
    assert got[-1][2] == ((0,), (0,), (0,), (1,))
    assert got == _outcome(naive, strategy)

    g = path(3)
    orc = oracle_lemma_rus(g, 1, (0, 1), (1, 2), 1)
    naive = partial(naive_cut_split_defeat, g, 1, (0, 1), (1, 2), 1)
    rng = SplitMix64(3)
    messages = set()
    for _ in range(50):
        strategy = random_strategy(g, orc.budget, 1, rng)
        got = _outcome(orc.defeat_traced, strategy)
        assert got == _outcome(naive, strategy)
        if isinstance(got[0], str):
            messages.add(got[0])
    assert any(m.endswith("one-guess game on part 1 at 2 colors") for m in messages)


def test_rus_guard_refuses_at_defeat_and_builds_no_masks(monkeypatch):
    # building stays cheap; a part 1 over the enumeration guard is refused
    # when a defeat needs it, before any mask exists
    built = []
    real = construct.lex_masks

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(construct, "lex_masks", counting)
    refused = oracle_lemma_rus(bowtie(), 2, (0, 1, 2), (2, 3, 4), 6)
    rng = SplitMix64(5)
    with pytest.raises(GuardExceededError):
        refused.defeat(random_strategy(refused.graph, refused.budget, 1, rng), Guards(enumeration=342))
    assert built == []
    # at the default guards the masks are built once, by the first defeat
    orc = oracle_lemma_rus(bowtie(), 2, (0, 1, 2), (2, 3, 4), 6)
    assert built == []
    for _ in range(3):
        orc.defeat(random_strategy(orc.graph, orc.budget, 1, rng))
    assert len(built) == 1


def test_rus_split_validation():
    g = path(3)
    with pytest.raises(ValueError):
        oracle_lemma_rus(g, 1, (0, 1), (2,), 2)  # v missing from part 2
    with pytest.raises(ValueError):
        oracle_lemma_rus(g, 0, (0, 1), (0, 2), 2)  # edge (1,2) crosses


# ---------------------------------------------------------------------------
# block composition
# ---------------------------------------------------------------------------

def test_blocks_single_block_triangle():
    orc = oracle_lemma_blocks(complete(3), 6)
    assert orc.budget == ColorBudget.uniform(3, 7)
    _assert_defeats_all(orc, trials=150)


def test_blocks_path_of_edges():
    orc = oracle_lemma_blocks(path(4), 4)
    assert orc.budget == ColorBudget.uniform(4, 5)
    _assert_defeats_all(orc, trials=150)


def test_blocks_cactus():
    orc = oracle_lemma_blocks(cactus(), 6)
    assert orc.budget == ColorBudget.uniform(5, 7)
    _assert_defeats_all(orc, trials=100)


def test_blocks_rejects_misshaped_block_premise():
    def one_guess_premise(sub_g):
        return oracle_exhaustive(sub_g, ColorBudget.uniform(sub_g.vertex_count, 7), 1)

    with pytest.raises(ValueError, match="block premise oracle must play the 2-guess game"):
        oracle_lemma_blocks(complete(3), 6, premise2=one_guess_premise)


def test_blocks_construction_names_blocks():
    orc = oracle_lemma_blocks(bowtie(), 6)
    text = "\n".join(orc.construction)
    assert "block-composition" in text
    _assert_defeats_all(orc, trials=100)


def test_blocks_construction_nests_each_component():
    # each component's line, then its oracle's lines; an isolated vertex's
    # component is the scan of its colors and shows its own line only
    assert oracle_lemma_blocks(Graph(3, frozenset({(0, 1)})), 4).construction == (
        "block-composition n=3 ell=4",
        "  component (0, 1): single block",
        "    exhaustive n=2 guesses=2 budget=(5,5)",
        "  component (2,): isolated vertex",
    )


# ---------------------------------------------------------------------------
# tree closure
# ---------------------------------------------------------------------------

def test_closure_single_vertex():
    tree = RootedTree((None,), 0)
    orc = oracle_closure(tree)
    assert orc.budget == ColorBudget((3,))
    assert _assert_defeats_all(orc) == 6  # all two-guess tables on 3 colors


def test_closure_path_two():
    tree = RootedTree((None, 0), 0)
    orc = oracle_closure(tree)
    assert orc.budget == ColorBudget((3, 7))
    assert orc.graph == closure(tree)
    _assert_defeats_all(orc, trials=250)


def test_closure_star_two():
    tree = RootedTree((None, 0, 0), 0)
    orc = oracle_closure(tree)
    assert orc.budget == ColorBudget((3, 7, 7))
    _assert_defeats_all(orc, trials=150)


def test_closure_leaf_color_ignores_ancestor_tables():
    # the first-peeled leaf's color comes from its own table alone: two
    # strategies differing only at the root are defeated with the same
    # color at the leaf
    tree = RootedTree((None, 0), 0)
    orc = oracle_closure(tree)
    rng = SplitMix64(17)
    for _ in range(40):
        s1 = random_strategy(orc.graph, orc.budget, 2, rng)
        s2 = random_strategy(orc.graph, orc.budget, 2, rng)
        hybrid = replace(s2, tables=(s2.tables[0], s1.tables[1]))
        a1 = orc.defeat(s1)
        a2 = orc.defeat(hybrid)
        assert a1[1] == a2[1]


def _rooted_trees(n):
    """Every rooted tree on vertices 0..n-1."""
    for parent in product(*[[None, *(u for u in range(n) if u != v)] for v in range(n)]):
        if parent.count(None) == 1:
            try:
                yield RootedTree(parent, parent.index(None))
            except ValueError:  # a cycle off the root
                pass


def test_closure_defeats_match_the_referee():
    # the same colors, not just some defeat, as the leaf-by-leaf referee
    # picks, on every rooted tree on at most 4 vertices and the 5-star
    trees = [tree for n in range(1, 5) for tree in _rooted_trees(n)]
    assert len(trees) == 1 + 2 + 9 + 64
    rng = SplitMix64(23)
    for tree in trees + [RootedTree((None, 0, 0, 0, 0), 0)]:
        orc = oracle_closure(tree)
        for _ in range(3):
            s = random_strategy(orc.graph, orc.budget, 2, rng)
            assert orc.defeat(s) == naive_closure_defeat(tree, s)


# ---------------------------------------------------------------------------
# bounded circumference
# ---------------------------------------------------------------------------

def test_circ_acyclic_small_budget():
    orc, bound = oracle_theorem_circ(path(4))
    assert bound.exact == 7
    assert orc is not None
    assert orc.budget == ColorBudget.uniform(4, 7)
    _assert_defeats_all(orc, trials=150)


def test_circ_triangle_full_scale_bound():
    orc, bound = oracle_theorem_circ(cactus())
    assert bound.exact == 1807  # c = 3 so depth 4
    assert orc is not None and orc.budget == ColorBudget.uniform(5, 1807)


def test_circ_triangle_desk_scale():
    # override the budget so sampling is feasible: depth-3 certificates
    # need 43 colors and ell = 42 provides exactly that
    orc, bound = oracle_theorem_circ(complete(3), ell=42)
    assert bound.exact == 1807
    assert orc.budget == ColorBudget.uniform(3, 43)
    _assert_defeats_all(orc, trials=40)


def test_circ_bound_in_log_form_builds_no_oracle():
    # c = 7 caps the certificate depth at 24, and a(24) is past the
    # exact-integer guard
    orc, bound = oracle_theorem_circ(cycle(7))
    assert orc is None and not bound.is_exact


def test_circ_ell_too_small():
    with pytest.raises(ValueError):
        oracle_theorem_circ(complete(3), ell=6)  # a(3) = 43 > 7


def test_circ_block_depth_is_the_closure_premise():
    # ell + 1 colors reach a(depth) exactly when the construction accepts
    # them
    graphs = [g for n in range(1, 5) for g in connected_graphs(n)]
    graphs += [bowtie(), cactus(), Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])]
    for g in graphs:
        for ell in (2, 6, 42):
            try:
                oracle_theorem_circ(g, ell=ell)
                accepted = True
            except ValueError as err:
                assert "cannot host" in str(err)
                accepted = False
            hosts = two_guess_seq(circ_block_depth(g)).exact <= ell + 1
            assert hosts == accepted, (sorted(g.edges), ell)


# ---------------------------------------------------------------------------
# forbidden t-ary subtree
# ---------------------------------------------------------------------------

def test_tary_c4_no_ternary_star():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert contains_tary_tree(g, 3, 1) is None
    orc, bound = oracle_theorem_tary(g, 3, 1)
    assert bound.exact == 9
    assert orc.budget == ColorBudget.uniform(4, 9)
    _assert_defeats_all(orc, trials=150)


def test_tary_deep_instance_budget_and_bound():
    # height 2 with branching 2 needs a 7-vertex subtree, impossible in
    # P4; two peel stages give the chain budget (6^7 + 1)^7 + 1 while
    # the theorem bound stays astronomically larger
    orc, bound = oracle_theorem_tary(path(4), 2, 2)
    assert bound.to_text().startswith("2^43368474.2")
    assert orc is not None
    assert orc.budget == ColorBudget.uniform(4, (6**7 + 1) ** 7 + 1)
    assert "forbidden-2-ary-height-2" in orc.construction[0]


def test_tary_single_vertex_defeat():
    orc, bound = oracle_theorem_tary(Graph.from_edges(1, []), 2, 2)
    rng = SplitMix64(5)
    for _ in range(50):
        s = random_strategy(orc.graph, orc.budget, 1, rng)
        assignment = orc.defeat(s)
        assert orc.budget.contains(assignment)
        assert is_defeating(s, assignment)


def test_tary_embedded_tree_is_refused():
    with pytest.raises(PremiseViolationError) as info:
        oracle_theorem_tary(star(2), 2, 1)
    root, a, b = info.value.witness
    g = star(2)
    assert g.has_edge(root, a) and g.has_edge(root, b)


def test_tary_chain_past_guard_bits_builds_no_oracle():
    # K5 has no ternary subtree of height 2 (13 vertices), and peeling its
    # five singleton classes pushes the threshold past GUARD_BITS
    orc, bound = oracle_theorem_tary(complete(5), 3, 2)
    assert orc is None
    assert bound.to_text() == "2^1.2472516267483419e+23"


def test_tary_build_checks_premises_when_the_search_is_skipped():
    # a tree_size guard below the subtree size skips the up-front search
    with pytest.raises(PremiseViolationError, match="maximum degree at most 1 in the base case") as info:
        oracle_theorem_tary(star(2), 2, 1, Guards(tree_size=2))
    assert info.value.witness == (0, 1, 2)
    with pytest.raises(PremiseViolationError, match="minimum degree 8 forces a 2-ary subtree of height 2") as info:
        oracle_theorem_tary(complete(9), 2, 2, Guards(tree_size=6))
    assert info.value.witness is None


def test_tary_free_graphs_have_a_small_degree_vertex():
    # the peel step never stalls: a nonempty graph without the subtree
    # always offers a vertex of degree below 2 * t^h
    cases = [
        (Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), 3, 1),
        (path(4), 2, 2),
        (complete(3), 3, 1),
        (star(2), 4, 1),
    ]
    for g, t, h in cases:
        assert contains_tary_tree(g, t, h) is None
        assert min(g.degree(v) for v in g.vertices()) < 2 * t**h


# ---------------------------------------------------------------------------
# enumeration needs: fixed at build time, checked once per defeat
# ---------------------------------------------------------------------------

def test_enumeration_needs_are_sound_and_tight():
    # the verify benchmark's reference instances, and block compositions
    # whose isolated vertices each scan ell + 1 = 5 colors: at the limit
    # every defeat runs; one below it, every defeat is refused with the
    # oracle's need, before its engine starts
    oracles = {
        "is": oracle_lemma_is(star(2), (1, 2), 1, 2, _sub(1, 2, 1)),
        "two": oracle_lemma_two_at_v(
            path(3), 0, (0, 1), 4, oracle_exhaustive(complete(2), ColorBudget.uniform(2, 5), 2)
        ),
        "rus": oracle_lemma_rus(bowtie(), 2, (0, 1, 2), (2, 3, 4), 6),
        "blocks": oracle_lemma_blocks(cactus(), 6),
        "closure": oracle_closure(RootedTree((None, 0, 1), 0)),
        "circ": oracle_theorem_circ(complete(3), ell=42)[0],
        "tary": oracle_theorem_tary(cycle(4), 3, 1)[0],
        "blocks-edge-and-vertex": oracle_lemma_blocks(Graph(3, frozenset({(0, 1)})), 4),
        "blocks-edgeless": oracle_lemma_blocks(Graph(2, frozenset()), 4),
    }
    assert {lemma: orc.enumeration for lemma, orc in oracles.items()} == {
        "is": 2, "two": 25, "rus": 343, "blocks": 343, "closure": 21, "circ": 21, "tary": 6561,
        "blocks-edge-and-vertex": 25, "blocks-edgeless": 5,
    }
    rng = SplitMix64(83)
    for lemma, orc in oracles.items():
        for _ in range(5):
            strategy = random_strategy(orc.graph, orc.budget, orc.guess_count, rng)
            at_limit = Guards(enumeration=orc.enumeration)
            assert is_defeating(strategy, orc.defeat(strategy, at_limit))
            assert is_defeating(strategy, orc.defeat_traced(strategy, at_limit)[0])
            below = Guards(enumeration=orc.enumeration - 1)
            for defeat in (orc.defeat, orc.defeat_traced):
                with pytest.raises(GuardExceededError) as info:
                    defeat(strategy, below)
                assert info.value.needed == orc.enumeration, lemma


# ---------------------------------------------------------------------------
# per-defeat traces
# ---------------------------------------------------------------------------

def test_defeat_traced_is_deterministic():
    orc = oracle_lemma_rus(path(3), 1, (0, 1), (1, 2), 2)
    rng = SplitMix64(41)
    s = random_strategy(orc.graph, orc.budget, 1, rng)
    first = orc.defeat_traced(s)
    second = orc.defeat_traced(s)
    assert first == second
    assignment, trace = first
    assert orc.defeat(s) == assignment
    # the cut split's view, its sub-oracle's line nested by two spaces,
    # then the two-colour step at the cut vertex
    assert trace == (
        "cut-split view (0,) at 1 extends to colors (1, 2)",
        "  exhaustive hit (0,)",
        "two-color vertex 0: determined guess 2, assign 1",
    )


def _sub(n: int, q: int, k: int):
    return oracle_exhaustive(Graph.from_edges(n, []), ColorBudget.uniform(n, q), k)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: oracle_lemma_is(star(2), (1, 2), 0, 2, _sub(1, 2, 1)), "degree cap r must be >= 1"),
        (lambda: oracle_lemma_is(star(2), (1, 2), 1, 1, _sub(1, 1, 1)), "need ell >= 2"),
        (lambda: oracle_lemma_is(star(2), (1, 3), 1, 2, _sub(1, 2, 1)), "peel vertex 3 out of range"),
        (lambda: oracle_lemma_is(star(2), (0,), 1, 2, _sub(2, 2, 1)), "peel vertex 0 has degree 2 > 1"),
        (lambda: oracle_lemma_is(star(2), (0, 1), 2, 2, _sub(1, 2, 1)), r"peel set is not independent: edge \(0, 1\)"),
        (lambda: oracle_lemma_is(star(2), (1, 2), 1, 2, _sub(2, 2, 1)), "peel sub-oracle has 2 vertices, its sub-game 1"),
        (lambda: oracle_lemma_is(star(2), (1, 2), 1, 2, _sub(1, 3, 1)), "peel sub-oracle budget must be at most 2 at each"),
        (lambda: oracle_exhaustive(path(2), ColorBudget.uniform(3, 2), 1), "budget length must match the vertex count"),
        (lambda: oracle_lemma_two_at_v(complete(2), 2, (0, 1), 2, _sub(1, 3, 2)), "v out of range"),
        (lambda: oracle_lemma_two_at_v(complete(2), 0, (0, 1), 0, _sub(1, 1, 2)), "need ell >= 1"),
        (lambda: oracle_lemma_two_at_v(complete(2), 0, (-1, 0), 2, _sub(1, 3, 2)), "colors at v must be non-negative"),
        (lambda: oracle_lemma_two_at_v(path(3), 0, (0, 1), 2, _sub(2, 3, 2)),
         r"two-color sub-oracle lacks edge \(0, 1\) of its sub-game"),
        (lambda: oracle_lemma_rus(path(3), 1, (0, 1, 2), (1, 2), 2), "parts must intersect exactly in v"),
        (lambda: oracle_lemma_rus(path(3), 1, (0, 1), (1,), 2), "parts must cover the graph"),
        (lambda: oracle_lemma_rus(path(3), 1, (1,), (0, 1, 2), 2), "part 1 needs a vertex besides v"),
        (lambda: oracle_lemma_rus(path(3), 1, (0, 1), (1, 2), 0), "need ell >= 1"),
        (lambda: oracle_lemma_rus(path(3), 1, (0, 1), (1, 2), 2, _sub(1, 4, 2)),
         "two-color sub-oracle budget must be at most 3 at each"),
        (lambda: oracle_lemma_blocks(path(3), 0), "need ell >= 1"),
        (lambda: oracle_theorem_tary(path(3), 1, 2), "need t >= 2 and h >= 1"),
        (lambda: oracle_theorem_tary(path(3), 2, 0), "need t >= 2 and h >= 1"),
    ],
    ids=[
        "is-degree-cap", "is-ell", "is-vertex-range", "is-degree", "is-independent", "is-sub-vertex-count",
        "is-sub-color-cap", "exhaustive-budget-length", "two-vertex-range", "two-ell", "two-negative-color",
        "two-sub-missing-edge", "rus-intersection", "rus-cover", "rus-part1-size", "rus-ell", "rus-sub-color-cap",
        "blocks-ell", "tary-arity",
        "tary-height",
    ],
)
def test_builders_reject_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()

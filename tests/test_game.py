"""Budgets, assignments, strategies, and the strategy transforms."""

import hashlib
import itertools

import pytest
from hypothesis import given, strategies as st

from conftest import bowtie, complete, cycle, graph, path, star, winkler_strategy
from hatcheck.construct import oracle_exhaustive, oracle_lemma_is
from hatcheck.errors import GuardExceededError
from hatcheck.game import (
    ColorBudget,
    LazyTable,
    SampledTable,
    Strategy,
    entry_places,
    enumerate_assignments,
    enumerate_strategies,
    guess_set_count,
    guesses_at,
    is_defeating,
    lex_masks,
    merge_two_guess,
    nth_guess_set,
    random_strategy,
    reindex,
    strategy_from_text,
    strategy_space_size,
    strategy_to_text,
    table_size,
    total_table_size,
    view,
    view_plan,
)
from hatcheck.graphs import Graph, induced_subgraph
from hatcheck.guards import Guards
from hatcheck.rng import GAMMA, MASK, SplitMix64, mix
from hatcheck.solver import find_defeating_assignment
from naive_oracle import eager_merge_two_guess, eager_reindex


# ---------------------------------------------------------------------------
# budgets and assignments
# ---------------------------------------------------------------------------

def test_budget_validation():
    with pytest.raises(ValueError):
        ColorBudget((2, 0))
    b = ColorBudget((3, 2))
    assert b.product() == 6
    assert b.contains((2, 1)) and not b.contains((3, 0))
    assert ColorBudget.uniform(3, 4).sizes == (4, 4, 4)


def test_enumerate_assignments_counts_and_order():
    assert len(list(enumerate_assignments(ColorBudget((2, 2))))) == 4
    assert list(enumerate_assignments(ColorBudget((1, 1, 1)))) == [(0, 0, 0)]
    seq = list(enumerate_assignments(ColorBudget((3, 2))))
    assert len(seq) == 6 and seq == sorted(seq)


def test_enumerate_assignments_guard():
    # the generator is lazy and checks no guard; the enumeration guard is
    # checked where a caller hands in the game: the solver's entry points
    # and an oracle's defeat
    budget = ColorBudget((100, 100, 100, 100))
    assert next(enumerate_assignments(budget)) == (0, 0, 0, 0)
    g = Graph(4, frozenset())
    s = random_strategy(g, budget, 1, SplitMix64(1))
    with pytest.raises(GuardExceededError, match="enumeration"):
        find_defeating_assignment(g, s, Guards(assignment=10**9))
    with pytest.raises(GuardExceededError, match="enumeration"):
        oracle_exhaustive(g, budget, 1).defeat(s)


# ---------------------------------------------------------------------------
# guesses and defeat
# ---------------------------------------------------------------------------

def test_winkler_guesses():
    s = winkler_strategy()
    # Alice guesses what she sees on Bob; Bob guesses the opposite
    assert guesses_at(s, 0, (0, 1)) == (1,)
    assert guesses_at(s, 1, (0, 1)) == (1,)


def test_isolated_vertex_constant_table():
    g = Graph(1, frozenset())
    s = Strategy(g, ColorBudget((2,)), 1, (((0,),),))
    assert guesses_at(s, 0, (0,)) == (0,)
    assert guesses_at(s, 0, (1,)) == (0,)
    assert not is_defeating(s, (0,))
    assert is_defeating(s, (1,))


def test_budget_one_never_defeated():
    g = Graph(1, frozenset())
    s = Strategy(g, ColorBudget((1,)), 1, (((0,),),))
    assert not is_defeating(s, (0,))


def test_winkler_never_defeated():
    s = winkler_strategy()
    assert not any(is_defeating(s, a) for a in itertools.product(range(2), repeat=2))


def test_entry_index_mixed_radix():
    # middle of P3 sees vertices 0 and 2 in ascending order, last fastest
    g = path(3)
    b = ColorBudget((2, 3, 4))
    tables = (
        tuple((0,) for _ in range(3)),
        tuple((i % 3,) for i in range(8)),
        tuple((0,) for _ in range(3)),
    )
    s = Strategy(g, b, 1, tables)
    assert guesses_at(s, 1, (1, 0, 3)) == ((1 * 4 + 3) % 3,)


def test_defeat_monotone_under_budget_extension():
    # a defeating assignment survives arbitrary extension of the tables
    g = complete(2)
    small = ColorBudget((2, 2))
    rng = SplitMix64(5)
    for _ in range(30):
        s = random_strategy(g, small, 1, rng)
        defeats = [
            a for a in enumerate_assignments(small) if is_defeating(s, a)
        ]
        big = ColorBudget((4, 3))
        ext = random_strategy(g, big, 1, rng)
        tables = []
        for v in range(2):
            rows = list(ext.tables[v])
            for idx in range(table_size(g, small, v)):
                rows[idx] = s.tables[v][idx]  # small-budget views keep old guesses
            tables.append(tuple(rows))
        lifted = Strategy(g, big, 1, tuple(tables))
        for a in defeats:
            assert is_defeating(lifted, a)


# ---------------------------------------------------------------------------
# assignment masks
# ---------------------------------------------------------------------------

@st.composite
def _small_games(draw, min_vertices=0, min_colors=1, max_vertices=4):
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    sizes = draw(st.lists(st.integers(min_colors, 3), min_size=n, max_size=n))
    return Graph.from_edges(n, edges), ColorBudget(tuple(sizes))


@given(_small_games())
def test_lex_masks_match_enumerated_ranks(game):
    # every (entry, color) mask is the set of ranks, in enumerate_assignments
    # order, of the assignments that read that entry and wear that color
    g, budget = game
    lex = lex_masks(g, budget)
    reader = Strategy(g, budget, 1, tuple(((0,),) * table_size(g, budget, v) for v in range(g.vertex_count)))
    members = {}
    for rank, a in enumerate(enumerate_assignments(budget)):
        assert rank == sum(c * s for c, s in zip(a, lex.stride))
        for v in range(g.vertex_count):
            key = (v, reader.entry_index(v, a), a[v])
            members[key] = members.get(key, 0) | 1 << rank
    for v in range(g.vertex_count):
        assert len(lex.lowest[v]) == table_size(g, budget, v)
        for i, low in enumerate(lex.lowest[v]):
            cell = 0
            for col in range(budget[v]):
                mask = lex.color_pattern[v] << (low + col * lex.stride[v])
                assert mask == members[v, i, col]
                cell |= mask
            assert lex.cell_pattern[v] << low == cell


@given(_small_games(max_vertices=6), st.data())
def test_entry_places_define_the_entry_index(game, data):
    # entry_places is the one definition of a table's layout: the place
    # value of each neighbor, ascending, weighs its color in the entry index
    g, budget = game
    a = tuple(data.draw(st.integers(0, q - 1)) for q in budget.sizes)
    reader = Strategy(g, budget, 1, tuple(((0,),) * table_size(g, budget, v) for v in range(g.vertex_count)))
    for v in range(g.vertex_count):
        places = entry_places(g, budget, v)
        assert sum(a[u] * p for u, p in zip(g.neighbors(v), places, strict=True)) == reader.entry_index(v, a)


def test_lex_masks_of_an_isolated_vertex_and_a_neighbor():
    # vertex 2 sees nothing, so its one entry holds every assignment
    g = graph(3, (0, 1))
    lex = lex_masks(g, ColorBudget((2, 3, 2)))
    assert lex.stride == (6, 2, 1)
    assert lex.lowest == ((0, 2, 4), (0, 6), (0,))
    assert lex.color_pattern[2] == sum(1 << r for r in range(0, 12, 2))
    assert lex.cell_pattern[2] == (1 << 12) - 1
    assert lex.color_pattern[0] == 0b11


# ---------------------------------------------------------------------------
# re-indexing
# ---------------------------------------------------------------------------

def fix(strategy, fixed):
    """Pin the fixed vertices and keep the rest: (view, kept)."""
    g = strategy.graph
    sub, kept = induced_subgraph(g, [v for v in g.vertices() if v not in fixed])
    return reindex(strategy, sub, strategy.budget.restrict(kept), kept, fixed), kept


def test_induce_fixing_k2():
    s = winkler_strategy()
    induced, kept = fix(s, {1: 1})
    assert kept == (0,)
    assert induced.tables == (((1,),),)


def test_induce_fixing_empty_is_identity():
    s = winkler_strategy()
    induced, kept = fix(s, {})
    assert kept == (0, 1) and induced.tables == s.tables


def test_induce_fixing_locality():
    g = path(3)
    b = ColorBudget.uniform(3, 2)
    s = random_strategy(g, b, 1, SplitMix64(1))
    induced, kept = fix(s, {2: 1})
    assert kept == (0, 1)
    assert induced.tables[0] == s.tables[0]


def test_induce_commutes_with_guesses():
    # exhaustive on graphs up to 4 vertices: evaluating the induced
    # strategy equals evaluating the original with the fixed part pinned
    rng = SplitMix64(9)
    for g in (path(3), complete(3), star(3), path(4)):
        n = g.vertex_count
        b = ColorBudget(tuple(2 + (v % 2) for v in range(n)))
        for _ in range(5):
            s = random_strategy(g, b, 1, rng)
            for k in range(1, n):
                for fixed_set in itertools.combinations(range(n), k):
                    fixed = {v: b.sizes[v] - 1 for v in fixed_set}
                    induced, kept = fix(s, fixed)
                    for psi in enumerate_assignments(induced.budget):
                        full = [0] * n
                        for i, v in enumerate(kept):
                            full[v] = psi[i]
                        for v, c in fixed.items():
                            full[v] = c
                        for i, v in enumerate(kept):
                            assert guesses_at(induced, i, psi) == guesses_at(
                                s, v, tuple(full)
                            )


def test_merge_two_guess():
    g = Graph(1, frozenset())
    b = ColorBudget((2,))
    a = Strategy(g, b, 1, (((0,),),))
    c = Strategy(g, b, 1, (((1,),),))
    assert merge_two_guess(a, a).tables == (((0,),),)
    assert merge_two_guess(a, c).tables == (((0, 1),),)


def test_merge_winkler_pair_covers_both_colors():
    g = complete(2)
    b = ColorBudget.uniform(2, 2)
    match = Strategy(g, b, 1, (((0,), (1,)), ((0,), (1,))))
    oppose = Strategy(g, b, 1, (((1,), (0,)), ((1,), (0,))))
    merged = merge_two_guess(match, oppose)
    assert merged.guess_count == 2
    for v in range(2):
        for entry in merged.tables[v]:
            assert set(entry) == {0, 1}


def test_restrict_to_budget_soundness():
    # defeating the restricted strategy defeats the original
    g = path(3)
    big = ColorBudget.uniform(3, 4)
    small = ColorBudget((2, 3, 2))
    rng = SplitMix64(3)
    for _ in range(40):
        s = random_strategy(g, big, 1, rng)
        shrunk = reindex(s, g, small, g.vertices())
        assert shrunk.budget == small
        for a in enumerate_assignments(small):
            if is_defeating(shrunk, a):
                assert is_defeating(s, a)


def test_restrict_to_vertices():
    g = path(3)
    b = ColorBudget.uniform(3, 2)
    s = random_strategy(g, b, 1, SplitMix64(4))
    # {0} sees only vertex 1, which is dropped: rejected
    with pytest.raises(ValueError):
        reindex(s, Graph(1, frozenset()), b.restrict((0,)), (0,))
    kept = (0, 1, 2)
    sub = reindex(s, g, b, kept)
    assert kept == (0, 1, 2) and sub.tables == s.tables


def test_lift_to_supergraph():
    # lifted tables ignore the new neighbors
    sub = path(3)
    sup = complete(3)
    b = ColorBudget.uniform(3, 2)
    rng = SplitMix64(8)
    for _ in range(20):
        s = random_strategy(sub, b, 1, rng)
        lifted = reindex(s, sup, b, sup.vertices())
        for a in enumerate_assignments(b):
            for v in range(3):
                assert guesses_at(lifted, v, a) == guesses_at(s, v, a)


def test_reindex_identity_view_is_the_strategy():
    g = path(3)
    b = ColorBudget((2, 3, 2))
    s = random_strategy(g, b, 1, SplitMix64(9))
    assert reindex(s, s.graph, s.budget, range(3)) is s
    assert reindex(s, Graph(3, frozenset(g.edges)), ColorBudget((2, 3, 2)), (0, 1, 2), {}) is s
    assert view(s, view_plan(g, b, g, b, range(3))) is s
    # the same layout read as two guesses shares the tables
    wide = view(s, view_plan(g, b, g, b, range(3), (), 2))
    assert wide.guess_count == 2 and wide.tables is s.tables
    # any other view is a new strategy
    assert reindex(s, g, ColorBudget((2, 2, 2)), range(3)) is not s
    assert reindex(s, g, b, (0, 1, 2)[::-1]) is not s


def test_reindex_rejects_dropped_neighbor_that_is_not_fixed():
    # vertex 1 of P3 sees vertex 2, which is neither kept nor fixed
    g = path(3)
    b = ColorBudget.uniform(3, 2)
    s = random_strategy(g, b, 1, SplitMix64(5))
    sub, kept = induced_subgraph(g, (0, 1))
    with pytest.raises(ValueError, match="neither fixed nor a kept neighbor"):
        reindex(s, sub, b.restrict(kept), kept)
    # the plan refuses it before any strategy is seen
    with pytest.raises(ValueError, match="neither fixed nor a kept neighbor"):
        view_plan(g, b, sub, b.restrict(kept), kept)


@st.composite
def _views(draw, g, budget):
    """reindex arguments (graph, budget, kept, fixed) of a valid view of a
    game: some vertices pinned, the rest kept in any order, every kept
    edge kept, new edges added at random and budgets lowered."""
    n = g.vertex_count
    pinned = draw(st.sets(st.sampled_from(range(n)), max_size=n - 1)) if n > 1 else set()
    fixed = {u: draw(st.integers(0, budget[u] - 1)) for u in sorted(pinned)}
    kept = tuple(draw(st.permutations([v for v in range(n) if v not in fixed])))
    pos = {old: new for new, old in enumerate(kept)}
    m = len(kept)
    seen = {(pos[u], pos[w]) for u, w in g.edges if u in pos and w in pos}
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    added = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    # budgets shrink towards the old ones, so that most views see several colors
    view_budget = ColorBudget(tuple(budget[old] + 1 - draw(st.integers(1, budget[old])) for old in kept))
    return Graph.from_edges(m, seen | added), view_budget, kept, fixed


def assert_same_entries(view, referee):
    """Same game, and the same entry at every index, read last to first."""
    assert (view.graph, view.budget, view.guess_count) == (referee.graph, referee.budget, referee.guess_count)
    for table, expect in zip(view.tables, referee.tables, strict=True):
        assert len(table) == len(expect)
        assert [table[i] for i in reversed(range(len(table)))] == list(reversed(expect))


@given(_small_games(min_vertices=1, min_colors=2), st.integers(1, 2), st.integers(0, 2 ** 64 - 1), st.data())
def test_views_match_the_eager_referee(game, guess_count, seed, data):
    # views over a fresh SampledTable (nothing drawn yet), over plain
    # tuples, a view of a view (as a nested delegation builds), one plan
    # applied to two colorings of its pins, a plan that reads one guess
    # as two, and the merge of two views that pin different colors (as
    # the two-color lemma does)
    g, budget = game
    sampled = random_strategy(g, budget, guess_count, SplitMix64(seed))
    twin = random_strategy(g, budget, guess_count, SplitMix64(seed))
    plain = Strategy(g, budget, guess_count, tuple(tuple(t) for t in twin.tables))
    args = data.draw(_views(g, budget))
    graph_, budget_, kept, fixed = args
    viewed, referee = reindex(sampled, *args), eager_reindex(plain, *args)
    assert_same_entries(viewed, referee)
    assert_same_entries(reindex(plain, *args), referee)
    inner = data.draw(_views(viewed.graph, viewed.budget))
    nested = reindex(reindex(random_strategy(g, budget, guess_count, SplitMix64(seed)), *args), *inner)
    assert_same_entries(nested, eager_reindex(referee, *inner))
    plan = view_plan(g, budget, graph_, budget_, kept, fixed)
    other = {u: data.draw(st.integers(0, budget[u] - 1)) for u in fixed}
    fresh = random_strategy(g, budget, guess_count, SplitMix64(seed))
    assert_same_entries(view(fresh, plan, fixed), referee)
    assert_same_entries(view(fresh, plan, other), eager_reindex(plain, graph_, budget_, kept, other))
    assert_same_entries(view(plain, plan, fixed), referee)
    if guess_count == 1:
        wide = view(fresh, view_plan(g, budget, graph_, budget_, kept, fixed, 2), fixed)
        assert_same_entries(wide, Strategy(graph_, budget_, 2, referee.tables))
    if guess_count == 1 and fixed:
        fresh = random_strategy(g, budget, 1, SplitMix64(seed))
        merged = merge_two_guess(reindex(fresh, *args), reindex(fresh, graph_, budget_, kept, other))
        expect = eager_merge_two_guess(referee, eager_reindex(plain, graph_, budget_, kept, other))
        assert_same_entries(merged, expect)


def test_a_peel_defeat_draws_only_what_it_reads():
    # P4 at 5 colors has 60 table entries; peeling {0, 2} reads 2 + 4 of
    # them, and the view of vertices 1 and 3 one entry each
    g = path(4)
    sub = oracle_exhaustive(Graph.from_edges(2, []), ColorBudget.uniform(2, 2), 1)
    orc = oracle_lemma_is(g, (0, 2), 2, 2, sub)
    total = total_table_size(g, orc.budget)
    assert total == 60
    rng = SplitMix64(11)
    for _ in range(20):
        s = random_strategy(g, orc.budget, 1, rng)
        view = reindex(s, Graph.from_edges(2, []), ColorBudget.uniform(2, 2), (1, 3), {0: 0, 2: 0})
        assert sum(dict.__len__(t) for t in s.tables) == 0  # building a view draws nothing
        assert sum(dict.__len__(t) for t in view.tables) == 0
        assignment = orc.defeat(s)
        drawn = sum(dict.__len__(t) for t in s.tables)
        assert 0 < drawn <= 8 < total
        assert is_defeating(s, assignment)


# ---------------------------------------------------------------------------
# Strategy validation
# ---------------------------------------------------------------------------

K2 = complete(2)
B22 = ColorBudget.uniform(2, 2)
GOOD = (((0,), (1,)), ((1,), (0,)))


@pytest.mark.parametrize(
    "graph_, budget, guess_count, tables, message",
    [
        (K2, ColorBudget((2,)), 1, GOOD, "budget length"),
        (K2, B22, 3, GOOD, "guess_count"),
        (K2, B22, 1, GOOD[:1], "one table per vertex"),
        (K2, B22, 1, (((0,),), GOOD[1]), "entries, expected"),
        (K2, B22, 1, (((0, 1), (1,)), GOOD[1]), "guess set size"),
        (K2, B22, 2, (((1, 0), (1,)), GOOD[1]), "sorted and duplicate-free"),
        (K2, B22, 2, (((1, 1), (1,)), GOOD[1]), "sorted and duplicate-free"),
        (K2, B22, 1, (((2,), (1,)), GOOD[1]), "out of budget"),
    ],
    ids=["budget-length", "guess-count", "table-count", "table-length",
         "guess-set-size", "unsorted", "duplicate", "color-out-of-budget"],
)
def test_strategy_rejects(graph_, budget, guess_count, tables, message):
    assert Strategy(K2, B22, 1, GOOD).tables == GOOD
    with pytest.raises(ValueError, match=message):
        Strategy(graph_, budget, guess_count, tables)


# ---------------------------------------------------------------------------
# enumeration, sampling, serialization
# ---------------------------------------------------------------------------

def test_guess_sets_singletons_then_pairs():
    assert guess_set_count(3, 1) == 3
    assert guess_set_count(3, 2) == 6
    sets = [nth_guess_set(3, 2, i) for i in range(6)]
    assert sets == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]


def test_strategy_space_enumeration():
    g = complete(2)
    b = ColorBudget((2, 3))
    count = strategy_space_size(g, b, 1)
    assert count == (2 ** 3) * (3 ** 2)
    seen = list(enumerate_strategies(g, b, 1))
    assert len(seen) == count == len(set(seen))
    for s in seen[:50]:
        for v in range(2):
            assert all(x < b.sizes[v] for e in s.tables[v] for x in e)


def test_random_strategy_deterministic():
    g = star(2)
    b = ColorBudget.uniform(3, 3)
    a = [random_strategy(g, b, 2, SplitMix64(11)) for _ in range(5)]
    b2 = [random_strategy(g, b, 2, SplitMix64(11)) for _ in range(5)]
    assert a == b2


# the game `hatcheck verify --lemma <name>` samples on its reference graph
# (tests/test_cli.py REFERENCE_GRAPHS): graph, budget, guess count
VERIFY_GAMES = {
    "is": (path(4), (5, 5, 5, 5), 1),
    "two": (path(3), (2, 5, 5), 1),
    "rus": (path(3), (3, 3, 3), 1),
    "blocks": (bowtie(), (7, 7, 7, 7, 7), 1),
    "closure": (path(2), (3, 7), 2),
    "circ": (complete(3), (43, 43, 43), 1),
    "tary": (cycle(4), (9, 9, 9, 9), 1),
}


@pytest.mark.parametrize(
    "name, digest, state",
    [
        ("is", "c77aebe6d00baae1117d0514c2b21116bf6841db126db890552e864e21e423c2", 11820424569060435444),
        ("two", "23b6d4edd26e69ee7205d029f10875ecc30b9c1b1879b4fe6ca7420ab4e4c620", 3940141523020145749),
        ("rus", "7fd8cecdc9ac36d4dfa370f779167662350bcb03e787a4e07b0a8ee358fca6a0", 7566792160692497442),
        ("blocks", "7b16073c68323a1422fb99471f46e3143950d29eba8c229d609db489a04dc019", 12642949570322438203),
        ("closure", "1372680f65a48e1bff69240d228b4ce48f865abe43934da77449a4bca7383e5e", 11193442798364849136),
        ("circ", "60fa310842b83b6ebbd7297e950d986100eff012d20d68d545113bd21de6b106", 12741385893942927381),
        ("tary", "92d2fe3916af215913573d296e34185591ef3d4f90b416e940608e83b5f6f5b6", 15868758081281513242),
    ],
)
def test_sampled_stream_pinned(name, digest, state):
    # the first 20 strategies of each verify game and the generator state
    # after them: a sampler change that moves one draw shows here
    g, sizes, k = VERIFY_GAMES[name]
    rng = SplitMix64(900 + list(VERIFY_GAMES).index(name))
    h = hashlib.sha256()
    for _ in range(20):
        h.update(strategy_to_text(random_strategy(g, ColorBudget(sizes), k, rng)).encode())
    assert h.hexdigest() == digest
    assert rng.state == state


def eager_tables(g, budget, guess_count, rng):
    """The sequential sampler that sampled tables stand for."""
    return tuple(
        tuple(
            nth_guess_set(budget[v], guess_count, rng.below(guess_set_count(budget[v], guess_count)))
            for _ in range(table_size(g, budget, v))
        )
        for v in range(g.vertex_count)
    )


def assert_lazy_matches_eager(g, budget, guess_count, seed, strategies=2):
    lazy, eager = SplitMix64(seed), SplitMix64(seed)
    for _ in range(strategies):
        s = random_strategy(g, budget, guess_count, lazy)
        # read in reverse, so that no entry is drawn in stream order
        for table in s.tables:
            for i in range(-1, -len(table) - 1, -1):
                table[i]
        assert s.tables == eager_tables(g, budget, guess_count, eager)
        assert lazy.state == eager.state


# the state whose splitmix64 output is 2^64 - 1, the top of every
# bounded draw's range
TOP_STATE = 0xCF9A04AFFA6BADC0


def seed_topping_at(draw: int) -> int:
    """A seed whose draw `draw` (from 0) is 2^64 - 1."""
    return (TOP_STATE - (draw + 1) * GAMMA) & MASK


MIXED_GAMES = [
    (path(3), ColorBudget((2, 5, 3)), 1),
    (path(3), ColorBudget((3, 4, 7)), 2),
    (star(3), ColorBudget((3, 2, 5, 3)), 1),
    (complete(3), ColorBudget((5, 3, 4)), 2),
    (graph(4, (0, 1), (2, 3)), ColorBudget((6, 7, 1, 3)), 1),
]


def test_lazy_tables_match_eager_sampler():
    for seed in range(250):
        g, budget, k = MIXED_GAMES[seed % len(MIXED_GAMES)]
        assert_lazy_matches_eager(g, budget, k, seed * 0x9E3779B97F4A7C1 + 17)


@pytest.mark.parametrize(
    "draw",
    [0, 7, 2, 3, 14, 15, 31],
    ids=["first-cell", "interior", "last-of-vertex", "first-of-next-vertex",
         "last-of-strategy", "first-of-next-strategy", "third-strategy"],
)
def test_top_output_draws_match_eager_sampler(draw):
    # P3 at budget 3: tables of 3, 9 and 3 cells, 15 draws per strategy;
    # counts 3 (one guess) and 6 (two) do not divide 2^64, so the top
    # output is one a rejection sampler would redraw: below maps it to
    # (2^64 - 1) % count and takes no extra draw
    g, budget = path(3), ColorBudget.uniform(3, 3)
    seed = seed_topping_at(draw)
    rng = SplitMix64(seed)
    for _ in range(draw):
        rng.next_u64()
    assert rng.next_u64() == MASK
    for k in (1, 2):
        assert_lazy_matches_eager(g, budget, k, seed, strategies=3)
        rng = SplitMix64(seed)
        for n in range(1, 4):
            random_strategy(g, budget, k, rng)
            assert rng.state == (seed + 15 * n * GAMMA) & MASK


def test_count_100000_draws_match_eager_sampler():
    # count 100000 has 2^64 mod 100000 = 51616 outputs past its top
    # multiple, the top output among them
    g, budget = Graph(2, frozenset()), ColorBudget((100000, 3))
    for draw in (0, 1, 2):
        assert_lazy_matches_eager(g, budget, 1, seed_topping_at(draw), strategies=2)
    for seed in range(20):
        assert_lazy_matches_eager(g, budget, 1, seed)


@given(st.integers(0, 2 ** 64 - 1), st.integers(1, 2 ** 70))
def test_next_u64_is_mix_of_next_state(seed, n):
    state = (seed + GAMMA) & MASK
    assert SplitMix64(seed).next_u64() == mix(state)
    # a bounded draw is that one output mod n
    rng = SplitMix64(seed)
    assert rng.below(n) == mix(state) % n and rng.state == state
    for bad in (0, -1):
        with pytest.raises(ValueError):
            rng.below(bad)


def assert_reads_as_a_tuple(table):
    """The tuple protocol of a LazyTable of at least two entries."""
    plain = tuple(table)
    size = len(plain)
    assert isinstance(table, LazyTable)
    assert len(table) == size >= 2
    assert table[-1] == plain[size - 1] and table[-size] == plain[0]
    assert list(reversed(table)) == list(reversed(plain))
    assert table == plain and plain == table and not table != plain
    assert table != plain[:-1] and table != list(plain)
    assert plain[1] in table and (9,) not in table
    with pytest.raises(IndexError):
        table[size]
    with pytest.raises(IndexError):
        table[-size - 1]
    with pytest.raises(TypeError):
        hash(table)


def test_sampled_table_reads_as_a_tuple():
    rng = SplitMix64(4)
    s = random_strategy(path(2), ColorBudget((3, 4)), 2, rng)
    table = s.tables[1]
    assert isinstance(table, SampledTable) and len(table) == 3
    assert_reads_as_a_tuple(table)
    twin = random_strategy(path(2), ColorBudget((3, 4)), 2, SplitMix64(4)).tables[1]
    assert twin == table and twin is not table and table != s.tables[0]
    assert s == Strategy(s.graph, s.budget, 2, tuple(tuple(t) for t in s.tables))


def test_view_tables_read_as_tuples():
    # vertex 0 of the view sees new vertex 1 (3 entries); vertex 1 also
    # sees the pinned vertex 2, whose color the two views differ in
    s = random_strategy(path(3), ColorBudget((3, 4, 3)), 1, SplitMix64(4))
    views = [reindex(s, path(2), ColorBudget((2, 3)), (0, 1), {2: c}) for c in (0, 1)]
    assert len(views[0].tables[0]) == 3
    assert_reads_as_a_tuple(views[0].tables[0])
    merged = merge_two_guess(*views)
    assert len(merged.tables[0]) == 3
    assert_reads_as_a_tuple(merged.tables[0])
    assert merged.tables[1] == tuple(
        tuple(sorted({*a, *b})) for a, b in zip(views[0].tables[1], views[1].tables[1])
    )


def test_strategy_text_roundtrip():
    g = path(3)
    b = ColorBudget((2, 3, 2))
    rng = SplitMix64(6)
    for gc in (1, 2):
        for _ in range(10):
            s = random_strategy(g, b, gc, rng)
            assert strategy_from_text(strategy_to_text(s), g, b) == s


_WINKLER_TEXT = strategy_to_text(winkler_strategy())


@pytest.mark.parametrize(
    "text, message",
    [
        (_WINKLER_TEXT + "-1 1 0\n", "names no table entry"),
        (_WINKLER_TEXT + "2 0 0\n", "names no table entry"),
        (_WINKLER_TEXT + "0 1 1\n", "repeats an entry"),
        (_WINKLER_TEXT + "0\n", "needs a vertex and an entry index"),
        (_WINKLER_TEXT.split("\n", 1)[1], "missing 'guesses g' header"),
        (_WINKLER_TEXT.rsplit("\n", 2)[0], "incomplete strategy text"),
    ],
    ids=["negative-vertex", "vertex-out-of-range", "repeated-entry", "short-line", "no-header", "missing-entry"],
)
def test_strategy_text_rejects_bad_lines(text, message):
    with pytest.raises(ValueError, match=message):
        strategy_from_text(text, complete(2), ColorBudget.uniform(2, 2))


@given(st.integers(0, 2 ** 64 - 1))
def test_splitmix_range(seed):
    rng = SplitMix64(seed)
    for bound in (1, 2, 7, 100):
        x = rng.below(bound)
        assert 0 <= x < bound

"""Exact game solving: players_win, hg_exact, hg2_exact, refutation."""

import hashlib
import subprocess
import sys
from dataclasses import replace
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import complete, connected_graphs, cycle, diamond, graph, path, paw, star, winkler_strategy
from hatcheck import solver
from hatcheck.cli import entry
from hatcheck.errors import GuardExceededError
from hatcheck.game import (
    ColorBudget,
    Strategy,
    enumerate_assignments,
    is_defeating,
    reindex,
    strategy_from_text,
    table_size,
)
from hatcheck.graphs import Graph
from hatcheck.guards import Guards, guards_from_env
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
from naive_oracle import naive_layout, naive_players_win, naive_star_players_win


def _certificate_is_winning(outcome: SolveOutcome) -> bool:
    return find_defeating_assignment(outcome.graph, outcome.certificate) is None


def _canonical(g: Graph, budget: ColorBudget) -> tuple:
    """perm[v]: the label players_win solves vertex v under, recomputed
    from its definition: the first permutation whose relabelled (sorted
    edge list, budget tuple) is lexicographically greatest."""
    n = g.vertex_count

    def key(perm):
        sizes = [0] * n
        for v in range(n):
            sizes[perm[v]] = budget[v]
        return sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges), tuple(sizes)

    return max(permutations(range(n)), key=key)


def _in_canonical_labels(outcome: SolveOutcome) -> SolveOutcome:
    """The outcome moved to canonical labels: its game, its certificate
    and each transcript witness."""
    perm = _canonical(outcome.graph, outcome.budget)
    n = len(perm)
    kept = [0] * n  # canonical vertex i is vertex kept[i]
    for v, i in enumerate(perm):
        kept[i] = v
    g = graph(n, *((perm[u], perm[v]) for u, v in outcome.graph.edges))
    budget = ColorBudget(tuple(outcome.budget[v] for v in kept))
    certificate = outcome.certificate
    if certificate is not None:
        certificate = reindex(certificate, g, budget, kept)
    transcript = []
    for branch_id, assignment in outcome.transcript:
        canon = [0] * n
        for v, c in zip(perm, assignment):
            canon[v] = c
        transcript.append((branch_id, tuple(canon)))
    return replace(outcome, graph=g, budget=budget, certificate=certificate, transcript=tuple(transcript))


def _labellings(tree: Graph) -> list:
    """Every labelled copy of a graph, in order of first appearance."""
    n = tree.vertex_count
    copies = {}
    for perm in permutations(range(n)):
        g = graph(n, *((perm[u], perm[v]) for u, v in tree.edges))
        copies.setdefault(g.edges, g)
    return list(copies.values())


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
    first = players_win(g, b, 1)
    assert first.winner == ADVERSARY
    assert outcome_to_text(first) == outcome_to_text(players_win(g, b, 1))
    # a players win comes from the seeded local search
    b = ColorBudget.uniform(3, 5)
    first = players_win(g, b, 2)
    assert first.winner == PLAYERS
    assert outcome_to_text(first) == outcome_to_text(players_win(g, b, 2))


_SMALL_CONNECTED = [g for n in range(1, 5) for g in connected_graphs(n)]


@settings(max_examples=40)
@given(st.sampled_from(_SMALL_CONNECTED), st.data())
def test_outcome_independent_of_labels(g, data):
    n = g.vertex_count
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    perm = data.draw(st.permutations(range(n)))
    # vertex v of g is vertex perm[v] of h
    h = graph(n, *((perm[u], perm[v]) for u, v in g.edges))
    h_sizes = [0] * n
    for v in range(n):
        h_sizes[perm[v]] = sizes[v]
    guesses = data.draw(st.sampled_from((1, 2)))
    first = players_win(g, ColorBudget(tuple(sizes)), guesses, max_transcript=10**9)
    second = players_win(h, ColorBudget(tuple(h_sizes)), guesses, max_transcript=10**9)
    assert first.winner == second.winner
    assert first.refuted == second.refuted
    assert (first.graph, second.graph) == (g, h)
    if first.winner == PLAYERS:
        assert _certificate_is_winning(first) and _certificate_is_winning(second)
    # in canonical labels the two are one outcome: the same certificate,
    # or the same transcript
    assert _in_canonical_labels(first) == _in_canonical_labels(second)


def test_one_call_through_the_public_name(monkeypatch):
    # the canonical form is searched by a private function, so a tracer
    # wrapping solver.players_win sees one span per call
    calls = []
    public = solver.players_win

    def spy(*args, **kwargs):
        calls.append(args)
        return public(*args, **kwargs)

    monkeypatch.setattr(solver, "players_win", spy)
    assert solver.players_win(path(3), ColorBudget.uniform(3, 3), 1).winner == ADVERSARY
    assert len(calls) == 1
    assert solver.players_win(path(3), ColorBudget.uniform(3, 5), 2).winner == PLAYERS
    assert len(calls) == 2


@pytest.mark.parametrize(
    "g, q, guesses, winner, layouts",
    [
        (path(3), 5, 2, PLAYERS, 1),  # the local search wins
        (graph(4, (0, 1), (0, 2), (0, 3), (2, 3)), 3, 1, PLAYERS, 1),  # the exact search wins
        (path(3), 3, 1, ADVERSARY, 1),
        (complete(4), 9, 2, ADVERSARY, 0),  # counting refutes before any layout
    ],
    ids=["local-search-win", "exact-search-win", "adversary", "counting-refuted"],
)
def test_one_layout_per_call(monkeypatch, g, q, guesses, winner, layouts):
    # every method runs on the one layout of the canonical form
    built = []
    layout = solver._Layout

    def spy(*args):
        built.append(args[0])
        return layout(*args)

    monkeypatch.setattr(solver, "_Layout", spy)
    out = players_win(g, ColorBudget.uniform(g.vertex_count, q), guesses)
    assert out.winner == winner
    assert built == [_in_canonical_labels(out).graph] * layouts


def test_games_past_six_vertices():
    # past six vertices the relabelling is the identity, so these games
    # are solved in their own labels
    out = players_win(path(7), ColorBudget.uniform(7, 2), 1)
    assert out.winner == PLAYERS and _certificate_is_winning(out)
    edgeless = Graph(7, frozenset())
    out = players_win(edgeless, ColorBudget.uniform(7, 2), 1, max_transcript=10**9)
    assert out.winner == ADVERSARY
    assert out.refuted == len(out.transcript) == 64
    assert (out.graph, out.budget) == (edgeless, ColorBudget.uniform(7, 2))


def test_certificate_in_other_labels_is_plain_data():
    # the canonical form of P3 puts its centre last, so a certificate for
    # a P3 that puts it first is mapped back through reindex
    g = star(2)
    assert _canonical(g, ColorBudget.uniform(3, 2)) != (0, 1, 2)
    out = players_win(g, ColorBudget.uniform(3, 2), 1)
    assert out.winner == PLAYERS and _certificate_is_winning(out)
    assert all(type(table) is tuple for table in out.certificate.tables)
    assert hash(out.certificate) == hash(replace(out.certificate)) and hash(out) == hash(replace(out))


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


@pytest.mark.parametrize(
    "g",
    [
        cycle(4),
        graph(4, (0, 1), (1, 3), (3, 2), (2, 0)),
        graph(4, (0, 2), (2, 1), (1, 3), (3, 0)),
        # HG(C_n) = 3 exactly when n = 4 or 3 divides n (Szczechla, EJC 2017)
        cycle(6),
    ],
    ids=["c4", "c4-relabelled", "c4-relabelled-again", "c6"],
)
def test_cycles_won_at_three_colors(g):
    out = players_win(g, ColorBudget.uniform(g.vertex_count, 3), 1)
    assert out.winner == PLAYERS and _certificate_is_winning(out)


def test_hg_p4_against_naive():
    # independent table search confirms the adversary side at q = 3
    won, _ = naive_players_win(path(4), ColorBudget.uniform(4, 3), 1)
    assert not won
    out = players_win(path(4), ColorBudget.uniform(4, 2), 1)
    assert out.winner == PLAYERS and _certificate_is_winning(out)
    assert hg_exact(path(4)) == 2


def test_small_graph_script_runs_as_the_readme_shows():
    # README: python3 scripts/hg_small_graphs.py ..., here with PYTHONPATH=src
    # set as well
    root = Path(__file__).resolve().parent.parent
    env = {"PYTHONPATH": str(root / "src"), "PATH": ""}
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "hg_small_graphs.py"), "--max-n", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "-- n=1: hg=1:1" in done.stdout and "-- n=2: hg=2:1" in done.stdout


def test_small_graph_script_runs_from_a_plain_checkout(tmp_path):
    # no PYTHONPATH, and another working directory: the script puts the
    # checkout's src on its import path itself
    script = Path(__file__).resolve().parent.parent / "scripts" / "hg_small_graphs.py"
    done = subprocess.run(
        [sys.executable, str(script), "--max-n", "2"],
        capture_output=True, text=True, env={"PATH": ""}, cwd=tmp_path, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "-- n=1: hg=1:1" in done.stdout and "-- n=2: hg=2:1" in done.stdout


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


@st.composite
def _games(draw):
    """A graph on up to five vertices, isolated ones allowed, and a
    budget of 1 to 4 colors per vertex."""
    n = draw(st.integers(1, 5))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    sizes = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    return graph(n, *edges), ColorBudget(tuple(sizes))


@settings(max_examples=150)
@given(_games(), st.sampled_from((1, 2)))
@example((graph(4, (1, 3)), ColorBudget((3, 1, 4, 2))), 2)  # two isolated vertices
@example((star(3), ColorBudget((2, 1, 3, 1))), 1)  # budget-1 leaves
def test_layout_matches_the_per_assignment_build(game, guesses):
    g, budget = game
    layout = solver._Layout(g, budget, guesses)
    naive = naive_layout(g, budget, guesses)
    assert [list(row) for row in layout.cells_of] == naive["cells_of"]
    for name in ("offsets", "cell_owner", "capacity", "weight", "lowest"):
        assert list(getattr(layout, name)) == naive[name], name


def test_table_size_accounting():
    g = star(2)
    b = ColorBudget((3, 2, 2))
    assert table_size(g, b, 0) == 4  # sees both leaves
    assert table_size(g, b, 1) == 3  # sees the center


# ---------------------------------------------------------------------------
# pinned search: kernel changes must keep the branch order, forced moves and
# conflicts, so winners, certificates and full transcripts stay identical.
# Every labelling of a game is solved on its canonical form, so all
# labellings of a tree pin one count and, in canonical labels, one
# transcript, and certificates are pinned in canonical labels too
# ---------------------------------------------------------------------------

_TREE_PINS = [
    ("p4", path(4), 198, "f3c70992a9a37bd9ab6969730a6d4dc9c318945345496f6ea9c9b75e198e0aaf"),
    ("star", star(3), 255, "0137db2370d211d7d595166077fb4fb3f7f4969ed5f850c079f45d07b311e50b"),
]
# the ids these labellings were first pinned under
_EARLIER_IDS = {path(4): "p4", graph(4, (0, 2), (0, 3), (1, 2)): "p4-relabelled", star(3): "star"}

_PINNED = [
    pytest.param(
        g, 3, 1, ADVERSARY, refuted, digest,
        id=_EARLIER_IDS.get(g, f"{name}-" + "-".join(f"{u}{v}" for u, v in sorted(g.edges))),
    )
    for name, tree, refuted, digest in _TREE_PINS
    for g in _labellings(tree)
] + [
    # the local search's certificate, the one every labelling of P3 gets
    pytest.param(graph(3, (0, 1), (0, 2)), 5, 2, PLAYERS, 0,
                 "166b221724c9564aecb96f42810b3d1ada46afdff70698752824df610ccf4a3b", id="p3-two-guess"),
    pytest.param(complete(4), 9, 2, ADVERSARY, 1,
                 "7638dc6b9af68b343e32bc5f61719400163245698ed4b65ea427c5d581988d93", id="k4-two-guess"),
]


@pytest.mark.parametrize("g, q, guesses, winner, refuted, digest", _PINNED)
def test_pinned_search(g, q, guesses, winner, refuted, digest):
    out = players_win(g, ColorBudget.uniform(g.vertex_count, q), guesses, max_transcript=10**9)
    assert out.winner == winner
    assert out.refuted == len(out.transcript) == refuted
    text = outcome_to_text(_in_canonical_labels(out))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    if winner == PLAYERS:
        assert _certificate_is_winning(out)
    if g == complete(4):
        # the root counting bound refutes: 2916 cells x 2 slots cover at
        # most 5832 < 6561 assignments
        assert out.transcript == ((0, (0, 0, 0, 0)),)


def test_pinned_small_graph_sweep():
    # every game the one-guess hg_exact sweep plays on the 44 labelled
    # connected graphs with at most four vertices, under one digest of
    # the full outcome texts: winners, certificates and transcripts; the
    # adversary outcomes, which the exact search alone decides, also have
    # a digest of their own, and every certificate must win
    digest = hashlib.sha256()
    adversary = hashlib.sha256()
    calls = 0
    for n in range(1, 5):
        for g in connected_graphs(n):
            q = 2
            while True:
                out = players_win(g, ColorBudget.uniform(n, q), 1, max_transcript=10**9)
                text = outcome_to_text(out).encode()
                digest.update(text)
                calls += 1
                if out.winner == ADVERSARY:
                    adversary.update(text)
                    break
                assert _certificate_is_winning(out), (g.edges, q)
                q += 1
    assert calls == 111
    assert digest.hexdigest() == "99b137048e47f9b9dc6dba38209819369aed70f8f35fe8099e06d8d0815ee75b"
    assert adversary.hexdigest() == "9b4dafc7f1bf365767fd89fe9093d7d65e8db19e53a6b2628b085cc2ed6f4d42"


def test_tree_verdicts_match_exhaustive_oracles():
    # the table search of naive_players_win does not finish K1,3 at 3
    # colors, so the star is decided over its leaf tables, an oracle checked
    # here against the table search where that finishes;
    # test_hg_p4_against_naive covers P4 at 3 colors
    for leaves, q, guesses in [(1, 2, 1), (1, 3, 1), (2, 2, 1), (2, 3, 1), (3, 2, 1), (1, 4, 2), (1, 5, 2), (2, 3, 2)]:
        won, _ = naive_players_win(star(leaves), ColorBudget.uniform(leaves + 1, q), guesses)
        assert naive_star_players_win(leaves, q, guesses) == won
    assert not naive_star_players_win(3, 3, 1)


def _never_wins(layout):
    """A local search whose first run fails after 1 << 62 flips, so the
    exact search runs to its end in that run's slice."""
    while True:
        yield 1 << 62


def _losing_tables(*failed_runs):
    """A local search whose runs of these flip counts fail, and which then
    returns entries that all guess colors 0 and 1, which (2, 2, 2) defeats."""

    def search(layout):
        yield from failed_runs
        return [list(range(k)) for k in layout.capacity]

    return search


@pytest.mark.parametrize(
    "found",
    [_never_wins, _losing_tables(), _losing_tables(100, 100)],
    ids=["never-wins", "losing-tables", "losing-tables-late"],
)
def test_exact_search_when_local_search_fails(monkeypatch, found):
    # the fallback is the exact search as it was: the same certificate,
    # also when a rejected strategy arrives after the exact search took
    # its first 200 steps (of the 23,539 it needs here)
    monkeypatch.setattr(solver, "_local_search", found)
    out = players_win(graph(3, (0, 1), (0, 2)), ColorBudget.uniform(3, 5), 2)
    assert out.winner == PLAYERS
    assert hashlib.sha256(outcome_to_text(out).encode()).hexdigest() == (
        "b7f0310a9e06b46004babe3c8c092c8f4556c290bce3f40d8e80a7ff0907ecbb"
    )


def test_exact_search_alone_matches_oracles(monkeypatch):
    # with the local search never winning, players verdicts come from the exact
    # search too, so both of its sides meet an independent check
    monkeypatch.setattr(solver, "_local_search", _never_wins)
    for n in (1, 2, 3):
        for g in connected_graphs(n):
            for q in (1, 2, 3, 4):
                for guesses in (1, 2):
                    budget = ColorBudget.uniform(n, q)
                    out = players_win(g, budget, guesses)
                    if out.winner == PLAYERS:
                        # a winning certificate is what naive_players_win
                        # finds; the table search takes over 10 s for K3@3
                        # and for two-guess P3@4
                        assert _certificate_is_winning(out), (g.edges, q, guesses)
                    elif n * guesses * q ** (n - 1) >= q ** n:
                        # counting does not decide it
                        assert not naive_players_win(g, budget, guesses)[0], (g.edges, q, guesses)
    # the known one-guess values on four vertices; the exact search takes
    # about 1.5 s to win C4@3, so one of its three labellings stands in
    for g in connected_graphs(4):
        if all(g.degree(v) == 2 for v in range(4)) and g != cycle(4):
            continue
        for q in (2, 3):
            out = players_win(g, ColorBudget.uniform(4, q), 1)
            tree = len(g.edges) == 3
            assert out.winner == (ADVERSARY if tree and q == 3 else PLAYERS), (g.edges, q)
            if out.winner == PLAYERS:
                assert _certificate_is_winning(out), (g.edges, q)


def _highs_players_win(g: Graph, budget: ColorBudget, guesses: int) -> bool:
    """Feasibility of the 0/1 covering model under HiGHS: one binary per
    (table entry, color), each assignment covered by some vertex's entry
    holding its color, each entry holding at most min(guesses, q) colors."""
    optimize = pytest.importorskip("scipy.optimize")
    np = pytest.importorskip("numpy")
    n = g.vertex_count
    var = {}  # (v, view, color) -> column
    rows = []
    for a in enumerate_assignments(budget):
        row = []
        for v in range(n):
            key = (v, tuple(a[u] for u in g.neighbors(v)), a[v])
            row.append(var.setdefault(key, len(var)))
        rows.append(row)
    entries = {}
    for (v, view, _), col in var.items():
        entries.setdefault((v, view), []).append(col)
    cover = np.zeros((len(rows), len(var)))
    for i, row in enumerate(rows):
        cover[i, row] = 1
    slots = np.zeros((len(entries), len(var)))
    caps = []
    for i, ((v, _), cols) in enumerate(entries.items()):
        slots[i, cols] = 1
        caps.append(min(guesses, budget[v]))
    result = optimize.milp(
        np.zeros(len(var)),
        integrality=np.ones(len(var)),
        bounds=optimize.Bounds(0, 1),
        constraints=[
            optimize.LinearConstraint(cover, lb=1),
            optimize.LinearConstraint(slots, ub=np.array(caps)),
        ],
    )
    assert result.status in (0, 2), result.message  # solved or infeasible
    return result.status == 0


@pytest.mark.parametrize(
    "g, q, guesses",
    [(path(4), 3, 1), (star(3), 3, 1), (cycle(4), 3, 1), (path(3), 6, 2)],
    ids=["p4", "star", "c4", "p3-two-guess"],
)
def test_verdict_matches_highs(g, q, guesses):
    budget = ColorBudget.uniform(g.vertex_count, q)
    out = players_win(g, budget, guesses)
    assert _highs_players_win(g, budget, guesses) == (out.winner == PLAYERS)


def test_two_guess_star_won_at_six_colors():
    # the exact search wins here, after 30 failed runs of the local search
    out = players_win(star(3), ColorBudget.uniform(4, 6), 2)
    assert out.winner == PLAYERS and _certificate_is_winning(out)


def test_two_guess_c4_won_at_six_colors(capsys):
    # the local search wins here after 30 failed runs, 64 flips per
    # assignment; the exact search alone does not finish it in minutes
    c4 = Path(__file__).resolve().parent.parent / "scripts" / "graphs" / "c4.graph"
    assert entry(["solve", str(c4), "--budget", "6", "--guesses", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "winner: players" in lines
    table = lines[lines.index("certificate:") + 1:]
    g, budget = cycle(4), ColorBudget.uniform(4, 6)
    certificate = strategy_from_text("\n".join(line for line in table if line.startswith("  ")), g, budget)
    assert find_defeating_assignment(g, certificate) is None
    assert _highs_players_win(g, budget, 2)


def test_bowtie_won_at_four_colors_in_canonical_labels():
    # the bowtie's canonical form, which every labelling of it is solved
    # on: the local search wins after 14 failed runs, and the exact search
    # alone does not finish
    g = graph(5, (0, 3), (0, 4), (1, 2), (1, 4), (2, 4), (3, 4))
    out = players_win(g, ColorBudget.uniform(5, 4), 1)
    assert out.winner == PLAYERS and _certificate_is_winning(out)


def _resumptions(search, log):
    """search, logging what each resumption of it yields, and None for the
    one that finishes it."""
    while True:
        try:
            value = next(search)
        except StopIteration as stop:
            log.append(None)
            return stop.value
        log.append(value)
        yield value


def test_hg_p5(monkeypatch):
    # the adversary side is the exact search's refutation of P5@3.  The
    # local search runs beside it for as long as it runs, so its flips come
    # to at most the exact search's own steps plus one run
    local_search, exact_search = solver._local_search, solver._exact_search
    runs, steps = [], []  # of the latest players_win call

    def exact_spy(*args):
        runs.clear()
        steps.clear()
        return _resumptions(exact_search(*args), steps)

    monkeypatch.setattr(solver, "_exact_search", exact_spy)
    monkeypatch.setattr(solver, "_local_search", lambda layout: _resumptions(local_search(layout), runs))
    assert hg_exact(path(5)) == 2
    assert sum(runs[:-1]) < len(steps) <= sum(runs)


def test_no_local_search_when_counting_refutes(monkeypatch):
    # K4 at 9 colors, two guesses: 2916 cells x 2 slots < 6561 assignments
    # the stub fails at the call, before its search could be started
    def fail(*args):
        raise AssertionError("local search ran")

    monkeypatch.setattr(solver, "_local_search", fail)
    assert players_win(complete(4), ColorBudget.uniform(4, 9), 2).winner == ADVERSARY


# games whose entries, counted at the root, cover fewer assignments than
# there are: sum of min(guesses, q_v) / q_v below 1
_COUNTING_REFUTED = [
    (complete(4), (9, 9, 9, 9), 2),
    (complete(3), (3, 4, 5), 1),
    (graph(3, (0, 1)), (4, 4, 3), 1),  # an isolated vertex
    (path(3), (7, 7, 7), 2),
    (graph(2), (3, 3), 1),  # no edges
]


@pytest.mark.parametrize("max_transcript", (0, 1000))
@pytest.mark.parametrize(
    "g, sizes, guesses", _COUNTING_REFUTED, ids=["k4-two-guess", "k3", "isolated", "p3-two-guess", "empty"],
)
def test_counting_before_the_layout_is_the_exact_search_at_its_root(g, sizes, guesses, max_transcript):
    # the exact search on the game's layout refutes at its first step
    # (its first resumption only yields), with the outcome players_win
    # returns without a layout
    budget = ColorBudget(sizes)
    exact = solver._exact_search(solver._Layout(g, budget, guesses), max_transcript)
    root = solver._advance(exact, 2)
    assert root is not None and root.winner == ADVERSARY
    assert players_win(g, budget, guesses, max_transcript=max_transcript) == root


def test_enumeration_guard_holds_without_a_layout(monkeypatch):
    # the layout enumerates every assignment; a game counting refutes
    # builds none and is still refused past the enumeration guard
    monkeypatch.setenv("HATCHECK_GUARDS", ",,4095")
    guards = guards_from_env()
    for q in (8, 9):  # K4 at 8 colors builds a layout, at 9 counting refutes
        with pytest.raises(GuardExceededError) as refused:
            players_win(complete(4), ColorBudget.uniform(4, q), 2, guards)
        assert (refused.value.guard, refused.value.needed, refused.value.limit) == ("enumeration", q**4, 4095)
    assert players_win(complete(4), ColorBudget.uniform(4, 9), 2, Guards(enumeration=9**4)).winner == ADVERSARY


_QUICK_REFUTATIONS = [(paw(), 4, 1), (diamond(), 4, 1)] + [(g, 6, 2) for g in _labellings(path(3))]


@pytest.mark.parametrize(
    "g, q, guesses",
    _QUICK_REFUTATIONS,
    ids=["paw", "diamond"] + ["p3-two-guess-" + "-".join(f"{u}{v}" for u, v in sorted(g.edges))
                              for g, _, _ in _QUICK_REFUTATIONS[2:]],
)
def test_adversary_verdict_stops_the_local_search(monkeypatch, g, q, guesses):
    # the exact search refutes these within a few dozen steps, so the local
    # search spends at most two of its runs on them
    local_search = solver._local_search
    resumed = []

    def spy(layout):
        for flips in local_search(layout):  # no covering exists: it never returns
            yield flips
            resumed.append(flips)

    monkeypatch.setattr(solver, "_local_search", spy)
    budget = ColorBudget.uniform(g.vertex_count, q)
    out = players_win(g, budget, guesses, max_transcript=10**9)
    assert out.winner == ADVERSARY
    assert len(resumed) <= 1
    monkeypatch.setattr(solver, "_local_search", _never_wins)
    assert outcome_to_text(out) == outcome_to_text(players_win(g, budget, guesses, max_transcript=10**9))


def test_exact_search_won_first_is_deterministic(monkeypatch):
    # the exact search wins this paw at 3 colors before the local search's
    # first run of 81 flips fails, so the certificate is the exact search's
    g = graph(4, (0, 1), (0, 2), (0, 3), (2, 3))
    budget = ColorBudget.uniform(4, 3)
    first, second = (players_win(g, budget, 1) for _ in range(2))
    assert first.winner == PLAYERS and _certificate_is_winning(first)
    assert outcome_to_text(first) == outcome_to_text(second)
    monkeypatch.setattr(solver, "_local_search", _never_wins)
    assert outcome_to_text(first) == outcome_to_text(players_win(g, budget, 1))


_CLIQUE_WINS = [((g * n,) * n, g) for n in range(1, 5) for g in (1, 2)] + [
    # the sum of guesses / colors is 1 at the uniform budgets and the
    # one-guess ones, 4/3 and 5/4 at the two-guess ones
    ((2, 3, 6), 1),
    ((2, 4, 6, 12), 1),
    ((2, 3, 8, 24), 1),
    ((3, 6, 6), 2),
    ((4, 4, 8), 2),
]


@pytest.mark.parametrize(
    "sizes, guesses",
    _CLIQUE_WINS,
    ids=[f"k{len(s)}-{'-'.join(map(str, s))}-g{g}" for s, g in _CLIQUE_WINS],
)
def test_local_search_wins_cliques(monkeypatch, sizes, guesses):
    # each win must come from the local search: the exact search alone
    # does not finish K4@4 or two-guess K4@8, so a local-search change
    # that loses a clique fails here.  The search runs on the canonical
    # form, which sorts a clique's budget in descending order
    local_search = solver._local_search
    found = []

    def spy(layout):
        entries = yield from local_search(layout)
        found.append(entries)
        return entries

    monkeypatch.setattr(solver, "_local_search", spy)
    out = players_win(complete(len(sizes)), ColorBudget(sizes), guesses)
    assert len(found) == 1
    assert out.winner == PLAYERS and _certificate_is_winning(out)
    rows = [row for table in _in_canonical_labels(out).certificate.tables for row in table]
    assert rows == [tuple(sorted(entry)) for entry in found[0]]


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("guesses", (1, 2))
def test_cliques_lost_one_color_past_the_limit(n, guesses):
    out = players_win(complete(n), ColorBudget.uniform(n, guesses * n + 1), guesses)
    assert out.winner == ADVERSARY


@st.composite
def _blocked_masks(draw):
    n = draw(st.integers(1, 6))
    bits = draw(st.integers(1, 200))
    mask = st.one_of(st.just(0), st.just((1 << bits) - 1), st.integers(0, (1 << bits) - 1))
    return bits, draw(mask), [draw(mask) for _ in range(n)]


@settings(max_examples=200)
@given(_blocked_masks())
def test_free_cover_counts_match_a_direct_count(masks):
    bits, unc, blocked = masks
    free = {
        a: sum(not b >> a & 1 for b in blocked)
        for a in range(bits) if unc >> a & 1
    }
    levels = solver.by_free_count(unc, blocked)
    assert len(levels) == len(blocked) + 1
    for k, level in enumerate(levels):
        assert level == sum(1 << a for a, f in free.items() if f == k)
    none, one = solver.at_most_one_free(unc, blocked)
    assert none == levels[0]
    assert one == levels[0] | levels[1]


def test_nth_set_bit():
    from hatcheck.rng import SplitMix64

    rng = SplitMix64(5)
    xs = [1, 2, 0b1011, (1 << 64) - 1, 1 << 80, (1 << 81) | 1]
    xs += [rng.next_u64() << rng.below(200) | 1 << rng.below(300) for _ in range(20)]
    for x in xs:
        bits = [i for i in range(x.bit_length()) if x >> i & 1]
        assert [solver._nth_set_bit(x, r) for r in range(len(bits))] == bits


def test_nth_set_bit_with_levels_built_once():
    # the local search builds the levels once for its widest mask; they
    # serve every narrower int too
    from hatcheck.rng import SplitMix64

    rng = SplitMix64(7)
    levels = solver._bisection_levels(400)
    xs = [0b11111, (1 << 64) - 1, (1 << 81) | 0b1111]
    xs += [rng.next_u64() << rng.below(300) | 1 << rng.below(399) for _ in range(20)]
    for x in xs:
        bits = [i for i in range(x.bit_length()) if x >> i & 1]
        assert [solver._nth_set_bit(x, r, levels) for r in range(len(bits))] == bits


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: players_win(Graph(0, frozenset()), ColorBudget(()), 1), "requires at least one vertex"),
        (lambda: players_win(path(2), ColorBudget.uniform(3, 2), 1), "budget length must match vertex count"),
        (lambda: players_win(path(2), ColorBudget.uniform(2, 2), 3), "guess_count must be 1 or 2"),
        (lambda: find_defeating_assignment(path(3), winkler_strategy()), "strategy is for a different graph"),
        (lambda: hg_exact(Graph(0, frozenset())), "need at least one vertex"),
    ],
    ids=["no-vertices", "budget-length", "guess-count", "other-graph", "hg-empty-graph"],
)
def test_solver_rejects_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()

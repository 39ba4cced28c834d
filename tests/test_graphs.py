"""Graph structure: parsing, blocks, certificates, cycles, colorings."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from conftest import bowtie, complete, connected_graphs, cycle, graph, path, star
from naive_oracle import naive_circumference
from hatcheck.errors import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    GuardExceededError,
    MalformedLineError,
    SelfLoopError,
    VertexRangeError,
)
from hatcheck.graphs import (
    Graph,
    RootedTree,
    block_decomposition,
    circumference,
    closure,
    connected_components,
    contains_tary_tree,
    dfs_treedepth_certificate,
    graph_to_text,
    greedy_proper_coloring,
    induced_subgraph,
    is_connected,
    parse_graph,
    tary_tree_size,
    tree_from_graph,
)
from hatcheck.guards import Guards


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_k2():
    g = parse_graph("2 1\n0 1")
    assert g.vertex_count == 2 and g.edges == frozenset({(0, 1)})


def test_parse_k3():
    g = parse_graph("3 3\n0 1\n1 2\n0 2")
    assert g == complete(3)


def test_parse_single_vertex():
    g = parse_graph("1 0")
    assert g.vertex_count == 1 and not g.edges


def test_parse_errors_are_distinct():
    with pytest.raises(MalformedLineError, match="empty input"):
        parse_graph(" \n\n")
    with pytest.raises(MalformedLineError):
        parse_graph("nope")
    with pytest.raises(MalformedLineError, match="header must be two integers"):
        parse_graph("2 x\n")
    with pytest.raises(MalformedLineError, match="must be non-negative"):
        parse_graph("-1 0\n")
    with pytest.raises(MalformedLineError, match="edge line must be 'u v'"):
        parse_graph("3 1\n0 1 2")
    with pytest.raises(MalformedLineError, match="edge line must be two integers"):
        parse_graph("2 1\n0 y")
    with pytest.raises(MalformedLineError):
        parse_graph("2 2\n0 1")
    with pytest.raises(VertexRangeError):
        parse_graph("2 1\n0 5")
    with pytest.raises(SelfLoopError):
        parse_graph("2 1\n1 1")
    with pytest.raises(DuplicateEdgeError):
        parse_graph("2 2\n0 1\n1 0")


@given(st.integers(1, 6), st.data())
def test_parse_serialize_roundtrip(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    chosen = data.draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    g = Graph(n, frozenset(chosen))
    assert parse_graph(graph_to_text(g)) == g


def test_neighbors_sorted():
    g = graph(4, (2, 0), (0, 3), (0, 1))
    assert g.neighbors(0) == (1, 2, 3)
    assert g.neighbors(2) == (0,)


# ---------------------------------------------------------------------------
# blocks and cut vertices
# ---------------------------------------------------------------------------

def test_blocks_k3():
    bd = block_decomposition(complete(3))
    assert bd.blocks == ((0, 1, 2),) and not bd.cut_vertices


def test_blocks_bowtie():
    bd = block_decomposition(bowtie())
    assert bd.blocks == ((0, 1, 2), (2, 3, 4))
    assert bd.cut_vertices == frozenset({2})


def test_blocks_p3():
    bd = block_decomposition(path(3))
    assert bd.blocks == ((0, 1), (1, 2))
    assert bd.cut_vertices == frozenset({1})


def _component_of(g, v):
    for comp in connected_components(g):
        if v in comp:
            return comp
    raise AssertionError


def test_blocks_invariants_small_sweep():
    for n in range(1, 6):
        for g in connected_graphs(n):
            bd = block_decomposition(g)
            # blocks partition the edge set
            seen = []
            for blk in bd.blocks:
                s = set(blk)
                seen.extend(e for e in g.edges if e[0] in s and e[1] in s)
            assert sorted(seen) == sorted(g.edges)
            # two blocks meet in at most one vertex, a cut vertex
            for a, b in itertools.combinations(bd.blocks, 2):
                inter = set(a) & set(b)
                assert len(inter) <= 1
                assert inter <= bd.cut_vertices
            # cut vertices disconnect, non-cut vertices do not
            for v in g.vertices():
                if g.vertex_count == 1:
                    continue
                rest = [u for u in g.vertices() if u != v]
                sub, _ = induced_subgraph(g, rest)
                comp_count = len(connected_components(sub))
                if v in bd.cut_vertices:
                    assert comp_count > 1
                else:
                    assert comp_count == 1 or sub.vertex_count == 0


# ---------------------------------------------------------------------------
# DFS treedepth certificates
# ---------------------------------------------------------------------------

def _is_ancestor(tree, a, b):
    u = b
    while u is not None:
        if u == a:
            return True
        u = tree.parent[u]
    return False


def _edges_ancestor_descendant(g, tree):
    return all(
        _is_ancestor(tree, u, v) or _is_ancestor(tree, v, u) for u, v in g.edges
    )


def test_cert_k2():
    assert dfs_treedepth_certificate(complete(2)).depth == 2


def test_cert_c4_is_path():
    cert = dfs_treedepth_certificate(cycle(4))
    assert cert.depth == 4
    assert cert.tree.parent == (None, 0, 1, 2)


def test_cert_k3():
    assert dfs_treedepth_certificate(complete(3)).depth == 3


def test_cert_requires_connected():
    with pytest.raises(DisconnectedGraphError):
        dfs_treedepth_certificate(Graph(2, frozenset()))


def test_cert_edges_ancestor_descendant_sweep():
    for n in range(1, 6):
        for g in connected_graphs(n):
            for root in g.vertices():
                cert = dfs_treedepth_certificate(g, root)
                assert cert.tree.root == root
                assert cert.depth == 1 + cert.tree.height
                assert _edges_ancestor_descendant(g, cert.tree)


def _longest_path_edges(g):
    best = 0

    def extend(v, visited, length):
        nonlocal best
        best = max(best, length)
        for u in g.neighbors(v):
            if u not in visited:
                visited.add(u)
                extend(u, visited, length + 1)
                visited.remove(u)

    for v in g.vertices():
        extend(v, {v}, 0)
    return best


def _is_block(g):
    return is_connected(g) and len(block_decomposition(g).blocks) == 1


def _two_connected_pool():
    pool = [g for n in range(3, 6) for g in connected_graphs(n) if _is_block(g)]
    rng = random.Random(2026)
    for n in (6, 7):
        pairs = list(itertools.combinations(range(n), 2))
        found = 0
        while found < 120:
            edges = frozenset(p for p in pairs if rng.random() < 0.5)
            g = Graph(n, edges)
            if _is_block(g):
                pool.append(g)
                found += 1
    return pool


def test_two_connected_depth_and_cycle_bounds():
    # exhaustive to 5 vertices plus seeded samples at 6 and 7
    for g in _two_connected_pool():
        c = circumference(g)
        cap = (c * c) // 2
        for root in g.vertices():
            assert dfs_treedepth_certificate(g, root).depth <= cap
        ell = _longest_path_edges(g)
        assert c * c > 2 * ell


# ---------------------------------------------------------------------------
# circumference
# ---------------------------------------------------------------------------

def test_circumference_examples():
    assert circumference(path(4)) == 0
    assert circumference(cycle(5)) == 5
    assert circumference(bowtie()) == 3
    assert circumference(complete(4)) == 4


def test_circumference_guard():
    with pytest.raises(GuardExceededError):
        circumference(path(21), Guards(circumference=20))


def _relabel(g: Graph, rng: random.Random) -> Graph:
    perm = rng.sample(range(g.vertex_count), g.vertex_count)
    return Graph.from_edges(g.vertex_count, ((perm[u], perm[v]) for u, v in g.edges))


def _bipartite_plus_odd(rng: random.Random, n: int) -> Graph:
    # a bipartite component on 0..k-1 (a path plus chords joining the two
    # sides) beside one on k..n-1 holding a triangle, labels interleaved
    k = rng.choice((3, 4)) if n == 7 else 3
    edges = {(i, i + 1) for i in range(k - 1)}
    edges |= {(i, j) for i in range(k) for j in range(i + 3, k, 2) if rng.random() < 0.5}
    edges |= {(k, k + 1), (k + 1, k + 2), (k, k + 2)}
    edges |= {(i, i + 1) for i in range(k + 2, n - 1)}
    edges |= {(i, j) for i in range(k, n) for j in range(i + 2, n) if rng.random() < 0.3}
    return _relabel(graph(n, *edges), rng)


def test_circumference_matches_naive_connected():
    for n in range(1, 6):
        for g in connected_graphs(n):
            assert circumference(g) == naive_circumference(g), g


def test_circumference_matches_naive_random():
    rng = random.Random(2024)
    for _ in range(150):
        n = rng.choice((6, 7))
        p = rng.random()
        g = Graph(n, frozenset(e for e in itertools.combinations(range(n), 2) if rng.random() < p))
        assert circumference(g) == naive_circumference(g), g
    for _ in range(60):
        g = _bipartite_plus_odd(rng, rng.choice((6, 7)))
        assert len(connected_components(g)) == 2
        assert circumference(g) == naive_circumference(g), g


def test_circumference_known_families():
    rng = random.Random(7)
    for a in range(2, 7):
        for b in range(2, 7):
            kab = graph(a + b, *((i, a + j) for i in range(a) for j in range(b)))
            for _ in range(2):
                assert circumference(_relabel(kab, rng)) == 2 * min(a, b)
    # non-bipartite and non-Hamiltonian
    petersen = graph(
        10,
        *((i, (i + 1) % 5) for i in range(5)),
        *((i, i + 5) for i in range(5)),
        *((5 + i, 5 + (i + 2) % 5) for i in range(5)),
    )
    assert circumference(petersen) == 9
    assert circumference(_relabel(petersen, rng)) == 9
    for n in (3, 5, 7, 9, 11):
        assert circumference(_relabel(cycle(n), rng)) == n
    for n in range(1, 16):
        tree = graph(n, *((v, rng.randrange(v)) for v in range(1, n)))
        assert circumference(_relabel(tree, rng)) == 0


# ---------------------------------------------------------------------------
# greedy coloring
# ---------------------------------------------------------------------------

def test_coloring_examples():
    assert len(greedy_proper_coloring(complete(3))) == 3
    assert len(greedy_proper_coloring(cycle(4))) == 2
    assert greedy_proper_coloring(Graph(3, frozenset())) == ((0, 1, 2),)


def test_coloring_proper_and_bounded_sweep():
    for n in range(1, 6):
        for g in connected_graphs(n):
            classes = greedy_proper_coloring(g)
            assert sorted(v for cls in classes for v in cls) == list(g.vertices())
            for cls in classes:
                s = set(cls)
                assert not any(u in s and v in s for u, v in g.edges)
            max_deg = max(len(g.neighbors(v)) for v in g.vertices())
            assert len(classes) <= max_deg + 1


# ---------------------------------------------------------------------------
# t-ary subtree detection
# ---------------------------------------------------------------------------

def _check_embedding(g, t, h, emb):
    # heap layout: emb[0] is the root, children of slot i at i*t+1..i*t+t
    assert len(emb) == tary_tree_size(t, h)
    assert len(set(emb)) == len(emb)
    internal = (tary_tree_size(t, h) - 1) // t
    for i in range(internal):
        for j in range(1, t + 1):
            child = i * t + j
            assert emb[child] in g.neighbors(emb[i])


def test_tary_examples():
    assert contains_tary_tree(complete(2), 2, 1) is None
    emb = contains_tary_tree(complete(4), 2, 1)
    assert emb is not None
    _check_embedding(complete(4), 2, 1, emb)
    emb = contains_tary_tree(cycle(4), 2, 1)
    assert emb == (0, 1, 3)
    _check_embedding(cycle(4), 2, 1, emb)


def test_tary_backtracks_past_a_failed_child():
    # the first children tried for root 0 are 1 and 2, and 1 is a leaf
    # of the graph: the search must undo them and take 2 and 3
    edges = [(0, 1), (0, 2), (0, 3), (2, 4), (2, 5), (3, 6), (3, 7)]
    assert contains_tary_tree(graph(8, *edges), 2, 2) == (0, 2, 3, 4, 5, 6, 7)
    assert contains_tary_tree(graph(8, *edges[:-1]), 2, 2) is None


def test_tary_guard():
    with pytest.raises(GuardExceededError):
        contains_tary_tree(complete(6), 2, 4, Guards(tree_size=20))


def test_tary_size():
    assert tary_tree_size(2, 1) == 3
    assert tary_tree_size(2, 2) == 7
    assert tary_tree_size(3, 2) == 13
    # the closed form agrees with the term-by-term sum
    for t in range(2, 6):
        for h in range(31):
            assert tary_tree_size(t, h) == sum(t**i for i in range(h + 1))


# ---------------------------------------------------------------------------
# rooted trees and closure
# ---------------------------------------------------------------------------

def test_tree_heights():
    tree = RootedTree((None, 0, 1), 0)
    assert tree.heights == (0, 1, 2)
    assert tree.height == 2


def test_tree_from_graph_rejects_non_trees():
    with pytest.raises(ValueError):
        tree_from_graph(complete(3), 0)
    with pytest.raises((ValueError, DisconnectedGraphError)):
        tree_from_graph(Graph(2, frozenset()), 0)


def test_closure_examples():
    assert closure(RootedTree((None, 0), 0)) == complete(2)
    assert closure(RootedTree((None, 0, 1), 0)) == complete(3)
    st_tree = RootedTree((None, 0, 0), 0)
    assert closure(st_tree) == star(2)


def test_closure_certified_by_its_tree():
    for parent in [(None, 0, 1), (None, 0, 0), (None, 0, 1, 1, 0)]:
        tree = RootedTree(parent, 0)
        cl = closure(tree)
        assert _edges_ancestor_descendant(cl, tree)
        cert = dfs_treedepth_certificate(cl, tree.root)
        assert cert.depth <= tree.height + 1


def test_induced_subgraph_relabeling():
    g = bowtie()
    sub, kept = induced_subgraph(g, (2, 3, 4))
    assert kept == (2, 3, 4)
    assert sub == complete(3)


def test_connectivity_helpers():
    assert is_connected(path(4))
    assert not is_connected(Graph(3, frozenset({(0, 1)})))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Graph(-1, frozenset()), "vertex_count must be non-negative"),
        (lambda: Graph(2, frozenset({(1, 0)})), r"bad edge \(1, 0\) for n=2"),
        (lambda: Graph(2, frozenset({(0, 2)})), r"bad edge \(0, 2\) for n=2"),
        (lambda: RootedTree((None,), 1), "root out of range"),
        (lambda: RootedTree((1, None), 0), "root must have parent None"),
        (lambda: RootedTree((None, None), 0), "exactly one vertex may lack a parent"),
        (lambda: RootedTree((None, 2, 1), 0), "vertex 1 does not reach the root"),
        (lambda: dfs_treedepth_certificate(Graph(0, frozenset())), "empty graph has no certificate"),
        (lambda: dfs_treedepth_certificate(path(2), root=2), "root out of range"),
        (lambda: contains_tary_tree(path(3), 1, 1), "need t >= 2 and h >= 1"),
    ],
    ids=[
        "negative-count", "unordered-edge", "edge-out-of-range", "tree-root-range",
        "tree-root-parent", "tree-two-roots", "tree-cycle",
        "certificate-empty", "certificate-root-range", "tary-tree-arity",
    ],
)
def test_structures_reject_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()

"""Finite simple graphs and the structure theory the game engine needs.

Vertices are dense integers 0..n-1 throughout.  All iteration orders are
sorted, so every operation here is deterministic: same input, same
output, no hidden hash-order dependence.

Contents: edge-list parsing, induced subgraphs and connectivity, block
(biconnected component) decomposition, DFS treedepth certificates, exact
circumference by backtracking, greedy proper coloring, complete t-ary
subtree embedding, rooted trees and their ancestor closures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, Optional

from .errors import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    MalformedLineError,
    SelfLoopError,
    VertexRangeError,
)
from .guards import DEFAULT_GUARDS, Guards


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..vertex_count-1.

    Edges are stored as (u, v) pairs with u < v.  No self-loops, no
    parallel edges.
    """

    vertex_count: int
    edges: frozenset

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        for u, v in self.edges:
            if not (0 <= u < v < self.vertex_count):
                raise ValueError(f"bad edge ({u}, {v}) for n={self.vertex_count}")

    @staticmethod
    def from_edges(vertex_count: int, edges: Iterable) -> "Graph":
        canon = set()
        for u, v in edges:
            if u == v:
                raise SelfLoopError(f"self-loop at {u}")
            canon.add((min(u, v), max(u, v)))
        return Graph(vertex_count, frozenset(canon))

    @cached_property
    def adjacency(self) -> tuple:
        adj = [[] for _ in range(self.vertex_count)]
        for u, v in sorted(self.edges):
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(nbrs)) for nbrs in adj)

    def neighbors(self, v: int) -> tuple:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def vertices(self) -> range:
        return range(self.vertex_count)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges


@dataclass(frozen=True)
class RootedTree:
    """Rooted tree given by a parent array; parent[root] is None.

    Height of a vertex is its distance from the root; the root has
    height 0.
    """

    parent: tuple
    root: int

    def __post_init__(self) -> None:
        n = len(self.parent)
        if not (0 <= self.root < n):
            raise ValueError("root out of range")
        if self.parent[self.root] is not None:
            raise ValueError("root must have parent None")
        seen_none = sum(1 for p in self.parent if p is None)
        if seen_none != 1:
            raise ValueError("exactly one vertex may lack a parent")
        # every vertex must reach the root without cycles
        for v in range(n):
            hops = 0
            u = v
            while u != self.root:
                u = self.parent[u]
                hops += 1
                if u is None or hops > n:
                    raise ValueError(f"vertex {v} does not reach the root")

    @property
    def vertex_count(self) -> int:
        return len(self.parent)

    @cached_property
    def heights(self) -> tuple:
        h = [0] * self.vertex_count
        for v in range(self.vertex_count):
            d = 0
            u = v
            while u != self.root:
                u = self.parent[u]
                d += 1
            h[v] = d
        return tuple(h)

    def height_of(self, v: int) -> int:
        return self.heights[v]

    @property
    def height(self) -> int:
        return max(self.heights)

    @cached_property
    def children(self) -> tuple:
        kids = [[] for _ in range(self.vertex_count)]
        for v, p in enumerate(self.parent):
            if p is not None:
                kids[p].append(v)
        return tuple(tuple(sorted(k)) for k in kids)

    def ancestors(self, v: int) -> tuple:
        """Proper ancestors of v, listed root first."""
        chain = []
        u = self.parent[v]
        while u is not None:
            chain.append(u)
            u = self.parent[u]
        return tuple(reversed(chain))


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (maximal 2-connected subgraphs and bridges) of a graph.

    blocks: vertex tuples sorted by (min vertex, tuple); every edge of the
    graph lies in exactly one block.  Isolated vertices belong to no
    block.  block_tree lists (block index, cut vertex) incidences.
    """

    blocks: tuple
    cut_vertices: frozenset
    block_tree: tuple


@dataclass(frozen=True)
class TreedepthCertificate:
    """A rooted spanning tree whose closure contains the graph.

    Every edge of the certified graph joins an ancestor-descendant pair
    of the tree; depth = 1 + max height.
    """

    tree: RootedTree
    depth: int


# ---------------------------------------------------------------------------
# parsing and serialization
# ---------------------------------------------------------------------------

def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: first line "n m", then m lines "u v".

    Raises a distinct error per failure mode: malformed line, vertex out
    of range, self-loop, duplicate edge.
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise MalformedLineError("empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise MalformedLineError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise MalformedLineError(f"header must be two integers, got {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise MalformedLineError("n and m must be non-negative")
    if len(lines) - 1 != m:
        raise MalformedLineError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise MalformedLineError(f"edge line must be 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedLineError(f"edge line must be two integers, got {ln!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise VertexRangeError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise SelfLoopError(f"self-loop at {u}")
        e = (min(u, v), max(u, v))
        if e in edges:
            raise DuplicateEdgeError(f"duplicate edge ({u}, {v})")
        edges.add(e)
    return Graph(n, frozenset(edges))


def graph_to_text(g: Graph) -> str:
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def format_blocks(bd: BlockDecomposition) -> list:
    """Line-oriented rendering: one vertex list per block, then cuts."""
    lines = [f"block {i}: {' '.join(map(str, blk))}" for i, blk in enumerate(bd.blocks)]
    cuts = " ".join(map(str, sorted(bd.cut_vertices))) if bd.cut_vertices else "-"
    lines.append(f"cut-vertices: {cuts}")
    return lines


def format_tree(tree: RootedTree) -> str:
    """Parent array rendering; the root prints as '-'."""
    return " ".join("-" if p is None else str(p) for p in tree.parent)


# ---------------------------------------------------------------------------
# subgraphs and connectivity
# ---------------------------------------------------------------------------

def induced_subgraph(g: Graph, vertices: Iterable):
    """Induced subgraph on the given vertices, relabeled in sorted order.

    Returns (subgraph, kept) where kept[i] is the original label of the
    new vertex i.
    """
    kept = tuple(sorted(set(vertices)))
    relabel = {old: new for new, old in enumerate(kept)}
    edges = frozenset(
        (relabel[u], relabel[v])
        for u, v in g.edges
        if u in relabel and v in relabel
    )
    return Graph(len(kept), edges), kept


def connected_components(g: Graph) -> tuple:
    """Vertex sets of the connected components, sorted by minimum vertex."""
    seen = [False] * g.vertex_count
    comps = []
    for s in range(g.vertex_count):
        if seen[s]:
            continue
        stack = [s]
        seen[s] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in g.neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def is_connected(g: Graph) -> bool:
    return g.vertex_count <= 1 or len(connected_components(g)) == 1


def connected_graphs(n: int) -> Iterator[Graph]:
    """All labeled connected graphs on n vertices, by ascending edge mask
    over combinations(range(n), 2)."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        g = Graph(n, frozenset(p for i, p in enumerate(pairs) if mask >> i & 1))
        if is_connected(g):
            yield g


# ---------------------------------------------------------------------------
# block decomposition (iterative lowpoint algorithm)
# ---------------------------------------------------------------------------

def block_decomposition(g: Graph) -> BlockDecomposition:
    """Partition the edges into blocks and identify cut vertices.

    Bridges appear as two-vertex blocks.  Deterministic: DFS roots and
    neighbor scans ascend, and the final block list is sorted by
    (min vertex, vertex tuple).
    """
    n = g.vertex_count
    disc = [0] * n          # 0 = unvisited, else discovery index + 1
    low = [0] * n
    cuts = set()
    blocks = []
    edge_stack = []
    counter = 1

    for root in range(n):
        if disc[root]:
            continue
        # iterative DFS; frame = (v, parent, iterator over neighbors)
        disc[root] = low[root] = counter
        counter += 1
        stack = [(root, -1, iter(g.neighbors(root)))]
        root_children = 0
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if not disc[w]:
                    edge_stack.append((v, w))
                    disc[w] = low[w] = counter
                    counter += 1
                    stack.append((w, v, iter(g.neighbors(w))))
                    advanced = True
                    break
                elif w != parent and disc[w] < disc[v]:
                    edge_stack.append((v, w))
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            stack.pop()
            if not stack:
                continue
            u = stack[-1][0]
            low[u] = min(low[u], low[v])
            if low[v] >= disc[u]:
                # u separates v's subtree: pop one block
                blk_edges = []
                while edge_stack and edge_stack[-1] != (u, v):
                    blk_edges.append(edge_stack.pop())
                if edge_stack:
                    blk_edges.append(edge_stack.pop())
                verts = set()
                for a, b in blk_edges:
                    verts.add(a)
                    verts.add(b)
                if verts:
                    blocks.append(tuple(sorted(verts)))
                if u == root:
                    root_children += 1
                else:
                    cuts.add(u)
        if root_children >= 2:
            cuts.add(root)

    blocks.sort(key=lambda blk: (blk[0], blk))
    block_tree = tuple(
        (i, v) for i, blk in enumerate(blocks) for v in blk if v in cuts
    )
    return BlockDecomposition(tuple(blocks), frozenset(cuts), block_tree)


# ---------------------------------------------------------------------------
# treedepth certificate via DFS
# ---------------------------------------------------------------------------

def dfs_treedepth_certificate(g: Graph, root: int = 0) -> TreedepthCertificate:
    """DFS spanning tree from root, neighbors visited in ascending order.

    In an undirected graph every non-tree edge joins an ancestor and a
    descendant of the DFS tree, so the tree certifies treedepth
    <= 1 + height.  Requires a connected graph.
    """
    n = g.vertex_count
    if n == 0:
        raise ValueError("empty graph has no certificate")
    if not (0 <= root < n):
        raise ValueError("root out of range")
    parent = [None] * n
    visited = [False] * n
    visited[root] = True
    order = 1
    stack = [(root, iter(g.neighbors(root)))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if not visited[w]:
                visited[w] = True
                parent[w] = v
                order += 1
                stack.append((w, iter(g.neighbors(w))))
                break
        else:
            stack.pop()
    if order != n:
        raise DisconnectedGraphError("DFS certificate requires a connected graph")
    tree = RootedTree(tuple(parent), root)
    return TreedepthCertificate(tree, tree.height + 1)


# ---------------------------------------------------------------------------
# exact circumference
# ---------------------------------------------------------------------------

def circumference(g: Graph, guards: Guards = DEFAULT_GUARDS) -> int:
    """Length of a longest cycle; 0 if the graph is acyclic.

    Exact backtracking over simple paths.  Each cycle is counted from its
    smallest vertex, and the search never descends below that vertex,
    which removes rotational and starting-point duplicates.

    A cycle from start uses only vertices >= start of start's component,
    and in a bipartite component it alternates sides, so it has at most
    2 * min(side counts) of them.  A start whose cap cannot beat the best
    cycle so far is skipped, and the search from a start stops as soon as
    it finds a cycle that meets the cap.
    """
    n = g.vertex_count
    guards.check("circumference", n)
    # component and 2-colouring side of each vertex; per component, the
    # count of vertices >= start on each side (kept as start advances) and
    # whether the colouring is proper
    comp = [-1] * n
    side = [0] * n
    left = []
    bipartite = []
    for root in range(n):
        if comp[root] >= 0:
            continue
        i = len(left)
        comp[root] = i
        counts = [0, 0]
        proper = True
        stack = [root]
        while stack:
            v = stack.pop()
            counts[side[v]] += 1
            for w in g.neighbors(v):
                if comp[w] < 0:
                    comp[w] = i
                    side[w] = 1 - side[v]
                    stack.append(w)
                elif side[w] == side[v]:
                    proper = False
        left.append(counts)
        bipartite.append(proper)
    best = 0
    on_path = [False] * n

    def extend(start: int, v: int, length: int, cap: int) -> bool:
        """Search paths from v; True once a cycle of length cap is found."""
        nonlocal best
        for w in g.neighbors(v):
            if w == start and length >= 2:
                if length + 1 > best:
                    best = length + 1
                    if best >= cap:
                        return True
            elif w > start and not on_path[w]:
                on_path[w] = True
                done = extend(start, w, length + 1, cap)
                on_path[w] = False
                if done:
                    return True
        return False

    for start in range(n):
        counts = left[comp[start]]
        cap = 2 * min(counts) if bipartite[comp[start]] else sum(counts)
        counts[side[start]] -= 1
        if g.degree(start) < 2 or cap <= best:
            continue
        on_path[start] = True
        extend(start, start, 0, cap)
        on_path[start] = False
    return best


# ---------------------------------------------------------------------------
# greedy proper coloring
# ---------------------------------------------------------------------------

def greedy_proper_coloring(g: Graph) -> tuple:
    """Color classes of the first-fit coloring in ascending vertex order.

    Returns a tuple of vertex tuples; class count never exceeds
    max degree + 1.
    """
    color = [-1] * g.vertex_count
    for v in range(g.vertex_count):
        taken = {color[w] for w in g.neighbors(v) if color[w] >= 0}
        c = 0
        while c in taken:
            c += 1
        color[v] = c
    classes = []
    for c in range(max(color, default=-1) + 1):
        classes.append(tuple(v for v in range(g.vertex_count) if color[v] == c))
    return tuple(classes)


# ---------------------------------------------------------------------------
# complete t-ary subtree embedding
# ---------------------------------------------------------------------------

def tary_tree_size(t: int, h: int) -> int:
    """Vertices of the complete t-ary tree of height h (t >= 2):
    1 + t + ... + t^h, in closed form."""
    return (t ** (h + 1) - 1) // (t - 1)


def contains_tary_tree(
    g: Graph, t: int, h: int, guards: Guards = DEFAULT_GUARDS
) -> Optional[tuple]:
    """Search for a complete t-ary tree of height h as a subgraph.

    Tree nodes are indexed heap-style in breadth-first order (children of
    node i are t*i+1 .. t*i+t).  Returns the embedding as a tuple mapping
    node index to graph vertex, or None.  Children of one node are
    interchangeable, so only ascending child images are tried.
    """
    if t < 2 or h < 1:
        raise ValueError("need t >= 2 and h >= 1")
    size = tary_tree_size(t, h)
    guards.check("tree_size", size)
    if size > g.vertex_count:
        return None

    internal = tary_tree_size(t, h - 1)  # nodes that need t children
    image = [-1] * size
    used = [False] * g.vertex_count

    def place(node: int) -> bool:
        if node == internal:
            return True
        v = image[node]
        candidates = [w for w in g.neighbors(v) if not used[w]]
        first = t * node + 1
        for combo in combinations(candidates, t):
            for j, w in enumerate(combo):
                image[first + j] = w
                used[w] = True
            if place(node + 1):
                return True
            for w in combo:
                used[w] = False
        return False

    for r in range(g.vertex_count):
        image[0] = r
        used[r] = True
        if place(0):
            return tuple(image)
        used[r] = False
    return None


# ---------------------------------------------------------------------------
# rooted trees: construction and closure
# ---------------------------------------------------------------------------

def tree_from_graph(g: Graph, root: int = 0) -> RootedTree:
    """Interpret a connected acyclic graph as a tree rooted at root."""
    if g.edge_count != g.vertex_count - 1:
        raise ValueError("not a tree: wrong edge count")
    cert = dfs_treedepth_certificate(g, root)
    return cert.tree


def closure(tree: RootedTree) -> Graph:
    """Graph on the tree's vertices joining every ancestor-descendant pair."""
    edges = set()
    for v in range(tree.vertex_count):
        for a in tree.ancestors(v):
            edges.add((min(a, v), max(a, v)))
    return Graph(tree.vertex_count, frozenset(edges))

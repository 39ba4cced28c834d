"""Hat assignments, color budgets, and deterministic guess strategies.

The game: each vertex of a graph is a player who sees exactly the hat
colors of its neighbors and must submit a fixed guess table in advance.
The adversary knows all tables and picks the assignment.  The players
win an assignment if at least one of them guesses its own color.

Representation choices, used everywhere downstream:

* assignments are plain tuples of ints, one color per vertex;
* a strategy stores one dense table per vertex, indexed by the
  mixed-radix encoding of the neighborhood coloring with neighbors in
  ascending vertex order and the last neighbor varying fastest (so table
  order = lexicographic order of neighborhood colorings);
* table entries are sorted tuples of at most guess_count colors.  A
  2-guess strategy may have singleton entries.

entry_places gives that encoding as place values, one per neighbor.
An adversary argument that dodges at a vertex reads the vertex's own
table at those places; one that delegates pins some hat colors and
plays the rest as a smaller or re-wired game, laid out by the graph
alone.  view_plan fixes that layout once, in O(degree) per vertex:
new vertex i plays old vertex kept[i], pinned neighbors are read from
the fixed colors, unseen new neighbors ignored and out-of-budget
guesses mapped to color 0.  view applies a plan to a strategy and the
pinned colors at one base offset per vertex; reindex does both.
Views read through: their tables, like sampled ones and
merge_two_guess's, are LazyTables, which compute an entry on its first
read, so a defeat pays only for the entries it reads.

Strategy(...) checks every table; that is the trust boundary, and
strategy_from_text goes through it.  Producers whose tables are valid
by construction (view, merge_two_guess, enumeration, sampling) build
through the unchecked Strategy._unchecked instead, and views trust
their callers' arguments, which construct's oracles fix when built.

A SampledTable holds, entry for entry, what nth_guess_set(q, g,
rng.below(count)) over every cell in turn would draw.  below takes one
output per draw, and draw k from splitmix64 state s is mix(s +
(k+1)*GAMMA) (see rng), so cell i of a table that starts at s is draw i
however late it is read; rng then moves on by the strategy's cells.

Low-level helpers here accept the empty graph (all checks are then
vacuous); the solver layer imposes its own >= 1 vertex preconditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, product
from math import prod
from operator import index
from typing import Iterator, NamedTuple, Optional

from .graphs import Graph
from .rng import GAMMA, MASK, MUL1, MUL2, SplitMix64


@dataclass(frozen=True)
class ColorBudget:
    """Per-vertex hat color counts; vertex v may wear colors 0..sizes[v]-1."""

    sizes: tuple

    def __post_init__(self) -> None:
        if any(q < 1 for q in self.sizes):
            raise ValueError("every budget must be >= 1")

    @staticmethod
    def uniform(vertex_count: int, q: int) -> "ColorBudget":
        return ColorBudget((q,) * vertex_count)

    def product(self) -> int:
        return prod(self.sizes)

    def __len__(self) -> int:
        return len(self.sizes)

    def __getitem__(self, v: int) -> int:
        return self.sizes[v]

    def contains(self, assignment) -> bool:
        return len(assignment) == len(self.sizes) and all(0 <= c < q for c, q in zip(assignment, self.sizes))

    def restrict(self, vertices) -> "ColorBudget":
        return ColorBudget(tuple(self.sizes[v] for v in vertices))


def enumerate_assignments(budget: ColorBudget) -> Iterator:
    """All assignments within budget, in lexicographic order, generated
    lazily; the enumeration guard is the caller's."""
    return product(*[range(q) for q in budget.sizes])


@dataclass(frozen=True)
class Strategy:
    """Deterministic guess tables for every vertex of a graph.

    tables[v][i] is the guess set (sorted tuple) vertex v submits when
    its neighborhood coloring encodes to index i.
    """

    graph: Graph
    budget: ColorBudget
    guess_count: int
    tables: tuple

    def __post_init__(self) -> None:
        g, b = self.graph, self.budget
        if len(b.sizes) != g.vertex_count:
            raise ValueError("budget length must match vertex count")
        if self.guess_count not in (1, 2):
            raise ValueError("guess_count must be 1 or 2")
        if len(self.tables) != g.vertex_count:
            raise ValueError("one table per vertex required")
        for v in range(g.vertex_count):
            expect = table_size(g, b, v)
            if len(self.tables[v]) != expect:
                raise ValueError(f"table of vertex {v} has {len(self.tables[v])} entries, expected {expect}")
            for entry in self.tables[v]:
                if not 1 <= len(entry) <= self.guess_count:
                    raise ValueError(f"guess set size out of range at vertex {v}")
                if list(entry) != sorted(set(entry)):
                    raise ValueError(f"guess sets must be sorted and duplicate-free at vertex {v}")
                if any(not 0 <= c < b[v] for c in entry):
                    raise ValueError(f"guess color out of budget at vertex {v}")

    @classmethod
    def _unchecked(cls, graph: Graph, budget: ColorBudget, guess_count: int, tables: tuple) -> "Strategy":
        """No checks: for producers whose tables are valid by construction."""
        strategy = object.__new__(cls)
        # one attribute at a time, as __init__ does: touching __dict__
        # would give every instance a full dict instead of inline values
        object.__setattr__(strategy, "graph", graph)
        object.__setattr__(strategy, "budget", budget)
        object.__setattr__(strategy, "guess_count", guess_count)
        object.__setattr__(strategy, "tables", tables)
        return strategy

    def entry_index(self, v: int, assignment) -> int:
        """Mixed-radix index of the neighborhood coloring seen by v."""
        qs, idx = self.budget.sizes, 0
        for u in self.graph.neighbors(v):
            idx = idx * qs[u] + assignment[u]
        return idx


def table_size(g: Graph, budget: ColorBudget, v: int) -> int:
    return prod(map(budget.sizes.__getitem__, g.neighbors(v)))


def entry_places(g: Graph, budget: ColorBudget, v: int) -> tuple:
    """The place value of each neighbor of v, ascending, in v's entry
    index: the product of the budgets of the neighbors after it."""
    places, place = [], 1
    for u in reversed(g.neighbors(v)):
        places.append(place)
        place *= budget.sizes[u]
    return tuple(reversed(places))


def total_table_size(g: Graph, budget: ColorBudget) -> int:
    return sum(table_size(g, budget, v) for v in range(g.vertex_count))


def guesses_at(strategy: Strategy, v: int, assignment) -> tuple:
    """Guess set of v given the full assignment (only neighbors matter)."""
    return strategy.tables[v][strategy.entry_index(v, assignment)]


def is_defeating(strategy: Strategy, assignment) -> bool:
    """True if every vertex misses its own color."""
    for v in range(strategy.graph.vertex_count):
        if assignment[v] in strategy.tables[v][strategy.entry_index(v, assignment)]:
            return False
    return True


# ---------------------------------------------------------------------------
# assignment masks
# ---------------------------------------------------------------------------

class LexMasks(NamedTuple):
    """Table entries as sets of assignments, in lexicographic order.

    Bit r of a mask is the r-th assignment of enumerate_assignments, so
    vertex v's color adds stride[v] to the rank.  The members of entry i
    of v with own color col are color_pattern[v] << (lowest[v][i] + col
    * stride[v]), and all members of that entry are cell_pattern[v] <<
    lowest[v][i].
    """

    stride: tuple
    cell_pattern: tuple  # the members of v's entry 0
    color_pattern: tuple  # those of them where v wears color 0
    lowest: tuple  # lowest[v][i]: rank of the first member of entry i


def _repunit(q: int, s: int) -> int:
    """Bits 0, s, 2s, ..., (q-1)s."""
    return ((1 << q * s) - 1) // ((1 << s) - 1)


def lex_masks(g: Graph, budget: ColorBudget) -> LexMasks:
    """The assignment-mask layout of a game, built without enumerating it.

    Entry 0 of v with own color 0 holds the assignments that wear 0 on
    v's closed neighborhood and anything elsewhere: the product of the
    repunits of the other vertices (their bit sets are disjoint, so the
    product is their sums of shifts).  Entry i differs only in its
    neighbors' colors, which shift every member by the same amount.
    """
    n = g.vertex_count
    qs = budget.sizes
    stride = [0] * n
    step = 1
    for v in reversed(range(n)):
        stride[v] = step
        step *= qs[v]
    cell_pattern, color_pattern, lowest = [], [], []
    for v in range(n):
        nbrs = g.neighbors(v)
        pattern = 1
        for w in range(n):
            if w != v and w not in nbrs:
                pattern *= _repunit(qs[w], stride[w])
        color_pattern.append(pattern)
        cell_pattern.append(pattern * _repunit(qs[v], stride[v]))
        # entry order is the mixed radix of the neighbors, last fastest
        ranks = [0]
        for u in nbrs:
            ranks = [r + c * stride[u] for r in ranks for c in range(qs[u])]
        lowest.append(tuple(ranks))
    return LexMasks(tuple(stride), tuple(cell_pattern), tuple(color_pattern), tuple(lowest))


# ---------------------------------------------------------------------------
# lazy tables and re-indexing
# ---------------------------------------------------------------------------

class LazyTable(dict):
    """A guess table that computes entry i as _entry(i) on its first read.

    SampledTable draws it, a view clips a parent entry, a merge
    view unites two.  Reads as the tuple of all entries: len, indexing
    (negative too), iteration, reversed, `in` and == against tuples and
    tables.  A dict, so that re-reading an entry costs one lookup and a
    view reads through to its parent's kept entries.  Not hashable.
    """

    __slots__ = ("_size",)

    def __missing__(self, i):
        if not 0 <= i < self._size:
            i = index(i)
            if not -self._size <= i < self._size:
                raise IndexError("table index out of range")
            return self[i % self._size]
        entry = self[i] = self._entry(i)
        return entry

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        return map(self.__getitem__, range(self._size))

    def __reversed__(self):
        return map(self.__getitem__, range(self._size - 1, -1, -1))

    def __contains__(self, entry) -> bool:
        return any(e == entry for e in self)

    def __eq__(self, other):
        if not isinstance(other, (tuple, LazyTable)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __repr__(self) -> str:
        return f"{type(self).__name__}({tuple(self)!r})"


class _View(LazyTable):
    """A view's table: entry i is the parent entry rows[base + sum
    of digit * stride] over the (radix, stride) digits of i, last neighbor
    first, seen under budget q (colors >= q become color 0)."""

    __slots__ = ("_rows", "_base", "_digits", "_q")

    def __init__(self, rows, base: int, digits: tuple, q: int, size: int) -> None:
        self._rows, self._base, self._digits, self._q, self._size = rows, base, digits, q, size

    def _entry(self, i):
        x = self._base
        for radix, stride in self._digits:
            x += i % radix * stride
            i //= radix
        entry, q = self._rows[x], self._q
        return entry if entry[-1] < q else tuple(sorted({c if c < q else 0 for c in entry}))


class _Union(LazyTable):
    """A merge view's table: entry i is the sorted union of entry i of a and b."""

    __slots__ = ("_a", "_b")

    def __init__(self, a, b) -> None:
        self._a, self._b, self._size = a, b, len(a)

    def _entry(self, i):
        return tuple(sorted({*self._a[i], *self._b[i]}))


class ViewPlan(NamedTuple):
    """A view's layout (see view_plan).  vertices: per new vertex, (old
    vertex, (pinned vertex, place) pairs, (radix, stride) digits, budget,
    table size); None where the layout is the old one."""

    graph: Graph
    budget: ColorBudget
    kept: tuple
    guess_count: Optional[int]
    vertices: Optional[tuple]


def view_plan(graph: Graph, budget: ColorBudget, new_graph: Graph, new_budget: ColorBudget, kept, pinned=(),
              guess_count=None) -> ViewPlan:
    """Plan views of strategies on (graph, budget) as ones on (new_graph,
    new_budget), in O(degree) per vertex.  New vertex i plays old vertex
    kept[i] (distinct); each old neighbor of kept[i] is pinned or kept as
    a new neighbor of i, and new neighbors it never saw are ignored.
    new_budget is pointwise <= the kept vertices' old budget, and a guess
    outside it becomes color 0.  So a defeat of the view, extended by the
    pinned colors, defeats the strategy.  guess_count (default: the
    strategy's) may read one guess as two.  Preconditions are the
    caller's; the ValueError is for an old neighbor neither pinned nor kept."""
    kept, pinned = tuple(kept), frozenset(pinned)
    if not pinned and new_graph == graph and new_budget == budget and kept == tuple(range(graph.vertex_count)):
        return ViewPlan(new_graph, new_budget, kept, guess_count, None)
    pos = {old: new for new, old in enumerate(kept)}
    qs = new_budget.sizes
    vertices = []
    for i, old in enumerate(kept):
        # old entry index = sum over pins of place * color(u) + over new neighbors of stride[j] * color(j)
        stride = dict.fromkeys(new_graph.neighbors(i), 0)
        pins = []
        for u, place in zip(graph.neighbors(old), entry_places(graph, budget, old)):
            if u in pinned:
                pins.append((u, place))
            elif pos.get(u) in stride:
                stride[pos[u]] = place
            else:
                raise ValueError(f"vertex {old} sees vertex {u}, which is neither fixed nor a kept neighbor")
        digits = tuple((qs[j], stride[j]) for j in reversed(stride))
        vertices.append((old, tuple(pins), digits, qs[i], prod(qs[j] for j in stride)))
    return ViewPlan(new_graph, new_budget, kept, guess_count, tuple(vertices))


def view(strategy: Strategy, plan: ViewPlan, fixed=None) -> Strategy:
    """The strategy on plan's game, pinned vertex u wearing fixed[u] (a
    mapping or sequence by old vertex), at one base offset per vertex.
    A plan that keeps the layout and guess count returns the strategy."""
    guess_count = plan.guess_count or strategy.guess_count
    if plan.vertices is None:
        if guess_count == strategy.guess_count:
            return strategy
        return Strategy._unchecked(plan.graph, plan.budget, guess_count, strategy.tables)
    parent, tables = strategy.tables, []
    for old, pins, digits, q, size in plan.vertices:
        base = 0
        for u, place in pins:
            base += fixed[u] * place
        tables.append(_View(parent[old], base, digits, q, size))
    return Strategy._unchecked(plan.graph, plan.budget, guess_count, tuple(tables))


def reindex(strategy: Strategy, graph: Graph, budget: ColorBudget, kept, fixed=None) -> Strategy:
    """A one-off view: its plan, O(degree) per vertex (see view_plan),
    then the view, one base offset per vertex; fixed pins its keys."""
    return view(strategy, view_plan(strategy.graph, strategy.budget, graph, budget, kept, fixed or ()), fixed)


def merge_two_guess(a: Strategy, b: Strategy) -> Strategy:
    """Entrywise union of two 1-guess strategies on one graph and budget,
    read through; the preconditions are the caller's."""
    tables = tuple(_Union(ta, tb) for ta, tb in zip(a.tables, b.tables))
    return Strategy._unchecked(a.graph, a.budget, 2, tables)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def strategy_to_text(strategy: Strategy) -> str:
    """Header "guesses g", then one line "v <entry index> <guess list>"."""
    lines = [f"guesses {strategy.guess_count}"]
    for v in range(strategy.graph.vertex_count):
        for idx, entry in enumerate(strategy.tables[v]):
            lines.append(f"{v} {idx} {' '.join(map(str, entry))}")
    return "\n".join(lines) + "\n"


def strategy_from_text(text: str, graph: Graph, budget: ColorBudget) -> Strategy:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines or not lines[0].startswith("guesses "):
        raise ValueError("missing 'guesses g' header")
    guess_count = int(lines[0].split()[1])
    tables = [[None] * table_size(graph, budget, v) for v in range(graph.vertex_count)]
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) < 2:
            raise ValueError(f"strategy line {ln!r} needs a vertex and an entry index")
        v, idx = int(parts[0]), int(parts[1])
        if not 0 <= v < graph.vertex_count or not 0 <= idx < len(tables[v]):
            raise ValueError(f"strategy line {ln!r} names no table entry")
        if tables[v][idx] is not None:
            raise ValueError(f"strategy line {ln!r} repeats an entry")
        tables[v][idx] = tuple(int(c) for c in parts[2:])
    if any(e is None for rows in tables for e in rows):
        raise ValueError("incomplete strategy text")
    return Strategy(graph, budget, guess_count, tuple(tuple(rows) for rows in tables))


# ---------------------------------------------------------------------------
# strategy space enumeration and sampling
# ---------------------------------------------------------------------------

def guess_set_count(q: int, guess_count: int) -> int:
    """Number of admissible guess sets: singletons plus pairs if allowed."""
    return q + (q * (q - 1) // 2 if guess_count == 2 else 0)


def nth_guess_set(q: int, guess_count: int, i: int) -> tuple:
    """The i-th guess set: singletons first, then pairs (c1 < c2), both lex.

    Pure arithmetic so budgets in the billions stay cheap to sample.
    """
    if i < q:
        return (i,)
    if guess_count != 2:
        raise IndexError("guess set index out of range")
    k = i - q
    c1 = 0
    while k >= q - 1 - c1:
        k -= q - 1 - c1
        c1 += 1
    return (c1, c1 + 1 + k)


def guess_set_choices(q: int, guess_count: int) -> tuple:
    """All admissible guess sets, materialized; only for small budgets."""
    return tuple(nth_guess_set(q, guess_count, i) for i in range(guess_set_count(q, guess_count)))


def strategy_space_size(g: Graph, budget: ColorBudget, guess_count: int) -> int:
    qs = budget.sizes
    return prod(guess_set_count(qs[v], guess_count) ** table_size(g, budget, v) for v in g.vertices())


def enumerate_strategies(g: Graph, budget: ColorBudget, guess_count: int) -> Iterator[Strategy]:
    """Every strategy of the game, in lexicographic table order."""
    shape = [table_size(g, budget, v) for v in range(g.vertex_count)]
    cells = [c for v, size in enumerate(shape) for c in [guess_set_choices(budget[v], guess_count)] * size]
    starts = [0, *accumulate(shape)]
    for flat in product(*cells):
        tables = tuple(flat[starts[v] : starts[v + 1]] for v in range(len(shape)))
        yield Strategy._unchecked(g, budget, guess_count, tables)


class SampledTable(LazyTable):
    """A sampled table: entry i is nth_guess_set(q, guess_count, x %
    count) for the i-th draw x from state (see rng)."""

    __slots__ = ("_state", "_q", "_guess_count", "_count")

    def __init__(self, state: int, q: int, guess_count: int, count: int, size: int) -> None:
        self._state, self._q, self._guess_count, self._count, self._size = state, q, guess_count, count, size

    def _entry(self, i):
        # mix(state + (i+1)*GAMMA), inlined: this is the sampler's inner loop
        z = (self._state + (i + 1) * GAMMA) & MASK
        z = ((z ^ (z >> 30)) * MUL1) & MASK
        z = ((z ^ (z >> 27)) * MUL2) & MASK
        c = (z ^ (z >> 31)) % self._count
        return (c,) if c < self._q else nth_guess_set(self._q, self._guess_count, c)


def random_strategy(g: Graph, budget: ColorBudget, guess_count: int, rng: SplitMix64) -> Strategy:
    """One draw per table cell over all admissible guess sets (uniform up
    to below's bias, see rng), as SampledTables: an entry is drawn when
    it is first read, and rng moves on by exactly the strategy's cells.
    """
    tables = []
    for v in range(g.vertex_count):
        q, size = budget[v], table_size(g, budget, v)
        tables.append(SampledTable(rng.state, q, guess_count, guess_set_count(q, guess_count), size))
        rng.state = (rng.state + size * GAMMA) & MASK
    return Strategy._unchecked(g, budget, guess_count, tuple(tables))

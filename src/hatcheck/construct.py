"""Constructive adversary engines, one per bounding argument.

Each builder packages one argument as an AdversaryOracle: given any
player strategy in scope, its engine produces an assignment,
within the oracle's stated color budget, on which every player guesses
wrong.  Oracles compose the way the arguments do: peeling an
independent set delegates to an oracle for the remainder, the cut-vertex
split delegates to a two-guess oracle for one side, the block
composition delegates to the split, and the two pipeline builders
(bounded circumference, forbidden t-ary subtree) assemble everything.
An oracle is a node of that tree: its step line, its parts (the
sub-oracles its engine delegates to) and own, what its step enumerates;
its construction lines and enumeration are read off the tree.  A block
component, a closure embedded for a block and a pipeline header only
label an oracle (_under).

Premises of the form "the players cannot win game X" are the caller's
responsibility; when one is false the defeat run does not misbehave but
raises PremiseViolationError carrying a machine-checkable witness (a
winning strategy for X, or a subgraph embedding).

Every dodge step picks the smallest available color, every enumeration
runs in lexicographic order, and terminal blocks and leaves are chosen
by smallest index, so all defeats are deterministic.  The cut-vertex
split does not enumerate part 1: it reads part 1's colorings as bits of
game.lex_masks, built once per oracle, so a defeat costs one set bit per
table entry and one multiplication per vertex rather than one table
lookup per coloring and vertex.
Oracles are immutable after construction and their engines are pure
(the split's masks are a cache filled by its first defeat).

Scope (graph, guess count, budget) and the enumeration guard are
checked once, where a strategy enters through defeat or defeat_traced,
and no engine checks a guard.  Only oracle_closure, oracle_theorem_circ
and oracle_theorem_tary take guards, for what they check while building.

A composing builder accepts a sub-oracle that hosts its sub-game
(_hosts): as many vertices, every edge of the sub-game, at most the
lemma's colors at each vertex (ell for the is peel, whose dodges assume
neighbors below ell; ell + 1 elsewhere) and its guess count.  It plans
the view onto the sub-oracle's own game when it is built (game.view_plan
ignores a neighbor the host adds and reads a guess at or past its budget
as color 0, so a defeat of the view, extended by the pinned colors,
defeats the strategy); its engine applies the plans (game.view), and no
internal hop checks again.  So the closure adversary of a block's DFS
tree, a supergraph at a(depth) <= ell + 1 colors, plays the block as it
is.  The closure makes no view: each leaf reads its own table at its
descendants' colors and every coloring of its ancestors, and the color
it takes stays below its budget (the InternalError check).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, combinations, product
from math import prod
from typing import Callable, Optional

from .bounds import GUARD_BITS, ceil_e_times, circ_bound, n_h_t_recursive, two_guess_seq
from .errors import GuardExceededError, InternalError, PremiseViolationError, int_brief
from .game import (
    ColorBudget,
    Strategy,
    entry_places,
    enumerate_assignments,
    guesses_at,
    is_defeating,
    lex_masks,
    merge_two_guess,
    view,
    view_plan,
)
from .graphs import (
    Graph,
    RootedTree,
    block_decomposition,
    circumference,
    closure,
    connected_components,
    contains_tary_tree,
    dfs_treedepth_certificate,
    greedy_proper_coloring,
    induced_subgraph,
    tary_tree_size,
)
from .guards import DEFAULT_GUARDS, Guards


@dataclass(frozen=True)
class AdversaryOracle:
    """A constructive win for the adversary at a fixed budget, a node of
    the argument tree it was assembled from.

    engine(strategy, log) maps a strategy in scope (same graph, same
    guess count, budget equal to the oracle's) to a defeating assignment
    within budget; when log is a list it also appends one line per color
    choice.  It trusts its input: defeat and defeat_traced, the two ways
    to call it from outside, raise ValueError for a strategy out of
    scope first, and GuardExceededError when enumeration is over the
    guards' limit.  step is the node's construction line, parts the
    sub-oracles its engine delegates to, and own the largest number of
    items its own step enumerates (0 for a step that enumerates
    nothing).
    """

    graph: Graph
    budget: ColorBudget
    guess_count: int
    step: str
    engine: Callable
    parts: tuple = ()
    own: int = 0

    @property
    def construction(self) -> tuple:
        """step, then every part's lines indented two spaces."""
        return (self.step,) + tuple("  " + ln for part in self.parts for ln in part.construction)

    @cached_property
    def enumeration(self) -> int:
        """The most items any defeat enumerates, parts included."""
        return max((self.own, *(part.enumeration for part in self.parts)))

    def defeat(self, strategy: Strategy, guards: Guards = DEFAULT_GUARDS) -> tuple:
        _expect(strategy, self)
        guards.check("enumeration", self.enumeration)
        return self.engine(strategy, None)

    def defeat_traced(self, strategy: Strategy, guards: Guards = DEFAULT_GUARDS):
        """The defeat plus the log of per-step color choices."""
        _expect(strategy, self)
        guards.check("enumeration", self.enumeration)
        log = []
        out = self.engine(strategy, log)
        return out, tuple(log)


def _note(log, fmt: str, *args) -> None:
    """Append fmt.format(*args) to a defeat's trace; untraced defeats
    (log None) skip the formatting."""
    if log is not None:
        log.append(fmt.format(*args))


def _delegate(oracle: AdversaryOracle, played: Strategy, kept, out: list, log) -> None:
    """Run a sub-oracle's engine on played, a strategy on its graph, and
    write its colors into out at kept (played's vertex i plays kept[i]),
    nesting its per-defeat trace."""
    if log is None:
        colors = oracle.engine(played, None)
    else:
        lines = []
        colors = oracle.engine(played, lines)
        log.extend("  " + ln for ln in lines)
    for u, c in zip(kept, colors):
        out[u] = c


def _under(step: str, oracle: AdversaryOracle) -> AdversaryOracle:
    """oracle, its game and engine, under a construction line of its own."""
    return AdversaryOracle(oracle.graph, oracle.budget, oracle.guess_count, step, oracle.engine, (oracle,))


def _expect(strategy: Strategy, oracle: AdversaryOracle) -> None:
    """Raise ValueError unless strategy is in oracle's scope."""
    if strategy.graph != oracle.graph:
        raise ValueError("strategy is for a different graph than expected")
    if strategy.guess_count != oracle.guess_count:
        raise ValueError(f"strategy must play the {oracle.guess_count}-guess game")
    if strategy.budget != oracle.budget:
        raise ValueError(f"strategy budget must be {_budget_brief(oracle.budget)}")


def _hosts(sub: AdversaryOracle, g: Graph, kept, cap: int, guess_count: int, what: str) -> None:
    """Raise ValueError unless sub hosts the sub-game g induces on kept:
    as many vertices, every edge of it (sub's vertex i plays kept[i]),
    at most cap colors at each vertex, and guess_count guesses."""
    game, _ = induced_subgraph(g, kept)
    if sub.graph.vertex_count != game.vertex_count:
        raise ValueError(f"{what} has {sub.graph.vertex_count} vertices, its sub-game {game.vertex_count}")
    missing = sorted(game.edges - sub.graph.edges)
    if missing:
        raise ValueError(f"{what} lacks edge {missing[0]} of its sub-game")
    if sub.guess_count != guess_count:
        raise ValueError(f"{what} must play the {guess_count}-guess game")
    if max(sub.budget.sizes, default=1) > cap:
        raise ValueError(f"{what} budget must be at most {int_brief(cap)} at each vertex")


def _smallest_missing(taken) -> int:
    c = 0
    while c in taken:
        c += 1
    return c


def _budget_brief(budget: ColorBudget) -> str:
    return "(" + ",".join(int_brief(q) for q in budget.sizes) + ")"


# ---------------------------------------------------------------------------
# base case: enumerate assignments
# ---------------------------------------------------------------------------

def oracle_exhaustive(g: Graph, budget: ColorBudget, guess_count: int) -> AdversaryOracle:
    """Defeat by scanning the assignment space in lexicographic order.

    Raises PremiseViolationError if no defeating assignment exists; the
    witness is then the winning strategy itself.
    """
    if len(budget) != g.vertex_count:
        raise ValueError("budget length must match the vertex count")
    step = f"exhaustive n={g.vertex_count} guesses={guess_count} budget={_budget_brief(budget)}"

    def engine(strategy, log):
        for assignment in enumerate_assignments(budget):
            if is_defeating(strategy, assignment):
                _note(log, "exhaustive hit {}", assignment)
                return assignment
        raise PremiseViolationError(
            "some assignment within budget defeats the strategy",
            witness=strategy,
        )

    return AdversaryOracle(g, budget, guess_count, step, engine, own=budget.product())


# ---------------------------------------------------------------------------
# independent-set peel
# ---------------------------------------------------------------------------

def oracle_lemma_is(
    g: Graph,
    u_set,
    r: int,
    ell: int,
    sub: AdversaryOracle,
) -> AdversaryOracle:
    """Peel an independent set U of degrees <= r off the game.

    Each u in U sees at most ell^r neighborhood colorings once the rest
    of the graph is committed to colors < ell, so with ell^r + 1 colors
    u gets a hat it never guesses.  The rest is delegated to sub, a
    one-guess adversary hosting g minus U with at most ell colors at each
    vertex, so its output stays below ell.
    """
    u_tuple = tuple(sorted(set(u_set)))
    if r < 1:
        raise ValueError("degree cap r must be >= 1")
    if ell < 2:
        raise ValueError("need ell >= 2")
    for u in u_tuple:
        if not 0 <= u < g.vertex_count:
            raise ValueError(f"peel vertex {u} out of range")
        if g.degree(u) > r:
            raise ValueError(f"peel vertex {u} has degree {g.degree(u)} > {r}")
    for u, w in combinations(u_tuple, 2):
        if g.has_edge(u, w):
            raise ValueError(f"peel set is not independent: edge ({u}, {w})")
    rest = tuple(sorted(set(g.vertices()).difference(u_tuple)))
    _hosts(sub, g, rest, ell, 1, "peel sub-oracle")

    cap = ell**r + 1
    budget = ColorBudget.uniform(g.vertex_count, cap)
    plan = view_plan(g, budget, sub.graph, sub.budget, rest, u_tuple)
    # u's entries where every neighbor wears a color < ell: one digit range per neighbor
    dodges = [(u, [range(0, ell * p, p) for p in entry_places(g, budget, u)]) for u in u_tuple]
    step = f"peel-independent-set U={u_tuple} r={r} ell={int_brief(ell)} budget={int_brief(cap)}"

    def engine(strategy, log):
        out = [0] * g.vertex_count
        for u, digits in dodges:
            entries = map(strategy.tables[u].__getitem__, map(sum, product(*digits)))
            guessed = set(chain.from_iterable(entries))
            out[u] = _smallest_missing(guessed)
            _note(log, "dodge u={} color={} (saw {} guesses)", u, out[u], len(guessed))
        _delegate(sub, view(strategy, plan, out), rest, out, log)
        return tuple(out)

    # each u enumerates the ell^deg(u) colorings of its neighbors
    peel = ell ** max(map(g.degree, u_tuple)) if u_tuple else 0
    return AdversaryOracle(g, budget, 1, step, engine, (sub,), peel)


# ---------------------------------------------------------------------------
# two colors at one vertex
# ---------------------------------------------------------------------------

def _two_colors(strategy, v, pair, plan, sub2, out: list, log, name) -> None:
    """The two-color argument at v: write the colors of v and of rest,
    plan's kept vertices, into out.

    The one-guess strategy may color v from pair; plan pins only v, and
    out holds the colors of v's neighbors outside rest.  With v committed
    to pair, each vertex of rest guesses from a two-element set, which
    sub2, a two-guess adversary on plan's game, dodges at once; v's guess
    is then determined and v takes the other member of pair, traced as
    vertex name.
    """
    views = [view(strategy, plan, {v: c}) for c in pair]
    _delegate(sub2, merge_two_guess(*views), plan.kept, out, log)
    out[v] = pair[0]
    # v's entry depends only on its neighbors, all of which are set
    vguess = guesses_at(strategy, v, out)[0]
    out[v] = pair[1] if vguess == pair[0] else pair[0]
    _note(log, "two-color vertex {}: determined guess {}, assign {}", name, vguess, out[v])


def oracle_lemma_two_at_v(
    g: Graph,
    v: int,
    two_colors,
    ell: int,
    sub2: AdversaryOracle,
) -> AdversaryOracle:
    """One-guess adversary on g that colors v from a two-color set.

    The oracle's budget is max(two_colors) + 1 at v and ell + 1
    elsewhere, and the output always colors v within two_colors.  sub2
    is a two-guess adversary hosting g minus v at ell + 1 colors.
    """
    if not 0 <= v < g.vertex_count:
        raise ValueError("v out of range")
    pair = tuple(sorted(set(two_colors)))
    if len(pair) != 2:
        raise ValueError("need two distinct colors at v")
    if pair[0] < 0:
        raise ValueError("colors at v must be non-negative")
    if ell < 1:
        raise ValueError("need ell >= 1")
    rest = tuple(u for u in g.vertices() if u != v)
    _hosts(sub2, g, rest, ell + 1, 2, "two-color sub-oracle")
    budget = ColorBudget(tuple(pair[1] + 1 if u == v else ell + 1 for u in g.vertices()))
    plan = view_plan(g, budget, sub2.graph, sub2.budget, rest, (v,))

    def engine(strategy, log):
        out = [0] * g.vertex_count
        _two_colors(strategy, v, pair, plan, sub2, out, log, v)
        return tuple(out)

    return AdversaryOracle(g, budget, 1, f"two-colors v={v} colors={pair} ell={ell}", engine, (sub2,))


# ---------------------------------------------------------------------------
# cut-vertex split
# ---------------------------------------------------------------------------

def _exhaustive_premise(ell: int):
    return lambda sub_g: oracle_exhaustive(sub_g, ColorBudget.uniform(sub_g.vertex_count, ell + 1), 2)


def oracle_lemma_rus(
    g: Graph,
    v: int,
    g1_vertices,
    g2_vertices,
    ell: int,
    sub2: Optional[AdversaryOracle] = None,
) -> AdversaryOracle:
    """Split the game at a cut vertex v into parts that only share v.

    Premises (caller-asserted): the adversary wins the one-guess game on
    part 1 at budget ell + 1, and the two-guess game on part 2 at budget
    ell + 1.  The defeat finds two part-1 colorings that agree around
    v, miss every part-1 player, and differ at v, the lexicographically
    first such pair at the smallest view of v; the two-color argument
    then finishes part 2.  Part-1 colorings are bits of the part-1
    game's lex masks, built on the first defeat: the players other than
    v cover the union of their entries' guessed-color masks, and each
    of v's entries, one per view, is intersected with what survives.
    Either premise failing surfaces as PremiseViolationError whose
    witness is a winning player strategy for the corresponding part.

    sub2, a two-guess adversary hosting part 2 minus v at ell + 1 colors,
    plays that premise; by default it is the exhaustive one.
    """
    part1 = tuple(sorted(set(g1_vertices)))
    part2 = tuple(sorted(set(g2_vertices)))
    s1, s2 = set(part1), set(part2)
    if v not in s1 or v not in s2:
        raise ValueError("v must belong to both parts")
    if s1 & s2 != {v}:
        raise ValueError("parts must intersect exactly in v")
    if s1 | s2 != set(g.vertices()):
        raise ValueError("parts must cover the graph")
    if len(part1) < 2:
        raise ValueError("part 1 needs a vertex besides v")
    # part 2 may degenerate to {v} alone; the premise then reduces to the
    # one-guess game on part 1 and the two-color step finishes trivially
    for a, b in g.edges:
        if not ((a in s1 and b in s1) or (a in s2 and b in s2)):
            raise ValueError(f"edge ({a}, {b}) crosses the split")
    if ell < 1:
        raise ValueError("need ell >= 1")

    g1_graph, _ = induced_subgraph(g, part1)
    rest2 = tuple(u for u in part2 if u != v)
    sub2 = sub2 or _exhaustive_premise(ell)(induced_subgraph(g, rest2)[0])
    _hosts(sub2, g, rest2, ell + 1, 2, "two-color sub-oracle")

    nv1 = tuple(u for u in g.neighbors(v) if u in s1)
    pos1 = {u: i for i, u in enumerate(part1)}
    vpos, v2 = pos1[v], part2.index(v)
    budget = ColorBudget.uniform(g.vertex_count, ell + 1)
    budget1 = budget.restrict(part1)
    plan2 = view_plan(g, budget, sub2.graph, sub2.budget, rest2, (v,))

    def part1_witness(strategy, v_guesses):
        """Players-win certificate on part 1 implied by a failed search.

        Part-1 players keep their tables (their views lie inside part 1);
        v guesses v_guesses[i] at its entry i.  Used as the premise
        violation witness; it defeats the contradiction argument, so no
        assignment beats it.
        """
        tables = [
            tuple((c,) for c in v_guesses) if old_u == v else strategy.tables[old_u]
            for old_u in part1
        ]
        return Strategy(g1_graph, budget1, 1, tuple(tables))

    masks = []  # part 1's lex masks, built by the first defeat

    def engine(strategy, log):
        if not masks:
            masks.append(lex_masks(g1_graph, budget1))
        lex = masks[0]
        stride, pattern, lowest = lex.stride, lex.color_pattern, lex.lowest
        # part-1 colorings some part-1 player other than v guesses right
        # (they see only part-1 colors, so their g1 entries are their g
        # ones); a player's entries cover disjoint sets, so its union is
        # its pattern times the sum of one bit per entry
        width = budget1.product()
        covered = 0
        for i, u in enumerate(part1):
            if u != v:
                s = stride[i]
                bits = bytearray((width + 7) >> 3)
                for low, (c,) in zip(lowest[i], strategy.tables[u]):
                    r = low + c * s
                    bits[r >> 3] |= 1 << (r & 7)
                covered |= pattern[i] * int.from_bytes(bits, "little")
        survivors = ((1 << width) - 1) ^ covered
        # v's entries are its views alpha in sorted order; the first one
        # that extends to two colors at v is the star; if none does (no
        # survivors included), the else refuses
        p, s = pattern[vpos], stride[vpos]
        unique = []
        for low in lowest[vpos]:
            firsts = {}
            for c in range(ell + 1):
                m = survivors & (p << (low + c * s))
                if m:
                    firsts[c] = (m & -m).bit_length() - 1
                    if len(firsts) == 2:
                        break
            if len(firsts) == 2:
                break
            unique.append(next(iter(firsts), 0))
        else:
            raise PremiseViolationError(
                f"adversary wins the one-guess game on part 1 at {ell + 1} colors",
                witness=part1_witness(strategy, unique),
            )
        gammas = sorted(firsts)
        phis = [tuple(r // stride[i] % (ell + 1) for i in range(len(part1))) for r in firsts.values()]
        star = tuple(phis[0][pos1[u]] for u in nv1)
        _note(log, "cut-split view {} at {} extends to colors {}", star, v, tuple(gammas))
        # v's part-1 neighbors see the star under either coloring
        out = [0] * g.vertex_count
        for u, c in zip(nv1, star):
            out[u] = c
        try:
            # the trace names v by its label in part 2
            _two_colors(strategy, v, gammas, plan2, sub2, out, log, v2)
        except PremiseViolationError as exc:
            raise PremiseViolationError(
                f"adversary wins the two-guess game on part 2 minus the cut vertex at {ell + 1} colors",
                witness=exc.witness,
            ) from exc
        # part 1's coloring must agree with the color the step gave v
        phi = phis[gammas.index(out[v])]
        if phi[vpos] != out[v]:
            raise InternalError(f"cut-split colored cut vertex {v} {out[v]}, part 1 {phi[vpos]}")
        for u, c in zip(part1, phi):
            out[u] = c
        return tuple(out)

    step = f"cut-split v={v} part1={part1} part2={part2} ell={ell}"
    # a defeat reads every part-1 coloring, as bits of the lex masks
    return AdversaryOracle(g, budget, 1, step, engine, (sub2,), budget1.product())


# ---------------------------------------------------------------------------
# block composition
# ---------------------------------------------------------------------------

def _terminal_block(comp_graph: Graph):
    """(block, cut vertex) of the terminal block with the smallest index
    that oracle_lemma_blocks peels off a connected graph; None when the
    graph is at most one block."""
    bd = block_decomposition(comp_graph)
    if len(bd.blocks) <= 1:
        return None
    incident = {}
    for b_idx, cut in bd.block_tree:
        incident.setdefault(b_idx, []).append(cut)
    terminal = min(b_idx for b_idx, cuts in incident.items() if len(cuts) == 1)
    return bd.blocks[terminal], incident[terminal][0]


def _block_plan(g: Graph):
    """(comp, its graph, its peel, its premise graph) for each component
    oracle_lemma_blocks(g, ...) composes.  The two-guess premise is built
    on the premise graph: a one-block component itself, else the peeled
    block minus the cut vertex (oracle_lemma_rus part 2 without v), and
    None for an isolated vertex."""
    for comp in connected_components(g):
        comp_graph, _ = induced_subgraph(g, comp)
        peel = _terminal_block(comp_graph)
        premise = comp_graph if len(comp) > 1 else None
        if peel is not None:
            block, cut = peel
            premise = induced_subgraph(comp_graph, tuple(u for u in sorted(block) if u != cut))[0]
        yield comp, comp_graph, peel, premise


def oracle_lemma_blocks(
    g: Graph,
    ell: int,
    premise2=None,
) -> AdversaryOracle:
    """Compose block-level two-guess adversaries into one for the graph.

    Premise (caller-asserted): the adversary wins the two-guess game at
    budget ell + 1 on every block.  A component that is a single block
    uses its premise oracle directly (one-guess tables are re-read as
    two-guess tables with singleton entries); otherwise the terminal
    block with the smallest vertex tuple is peeled via the cut-vertex
    split, whose search over all part-1 colorings absorbs the recursion.
    """
    if ell < 1:
        raise ValueError("need ell >= 1")
    budget = ColorBudget.uniform(g.vertex_count, ell + 1)
    premise_factory = premise2 or _exhaustive_premise(ell)
    parts, plans = [], []
    for comp, comp_graph, peel, premise in _block_plan(g):
        if premise is None:
            # the scan of an isolated vertex's colors, under the component's line
            scan = oracle_exhaustive(comp_graph, ColorBudget.uniform(1, ell + 1), 1)
            part = replace(scan, step=f"component {comp}: isolated vertex")
        elif peel is None:
            inner = premise_factory(premise)
            _hosts(inner, g, comp, ell + 1, 2, "block premise oracle")
            part = _under(f"component {comp}: single block", inner)
        else:
            block, cut = peel
            rest = tuple(u for u in comp_graph.vertices() if u not in block or u == cut)
            inner = oracle_lemma_rus(comp_graph, cut, rest, block, ell, premise_factory(premise))
            part = _under(f"component {comp}: peel block {block} at cut {cut}", inner)
        parts.append(part)
        plans.append(view_plan(g, budget, part.graph, part.budget, comp, (), part.guess_count))

    def engine(strategy, log):
        out = [0] * g.vertex_count
        for plan, part in zip(plans, parts):
            _delegate(part, view(strategy, plan), plan.kept, out, log)
        return tuple(out)

    return AdversaryOracle(g, budget, 1, f"block-composition n={g.vertex_count} ell={ell}", engine, tuple(parts))


# ---------------------------------------------------------------------------
# tree closures, two guesses
# ---------------------------------------------------------------------------

def oracle_closure(tree: RootedTree, guards: Guards = DEFAULT_GUARDS) -> AdversaryOracle:
    """Two-guess adversary on the ancestor closure of a rooted tree.

    A vertex at height k gets a(k+1) colors where a(0)=1 and
    a(k+1) = 1 + 2*prod(a(0)..a(k)): a leaf sees only its k ancestors,
    whose colorings number P = a(1)*...*a(k), so its two guesses per view
    cover at most 2P = a(k+1) - 1 colors and the smallest unguessed color
    dodges regardless of what the ancestors later receive.  Peeling
    leaves (smallest index first) reduces to a single root with three
    colors against two guesses.
    """
    try:
        top = two_guess_seq(tree.height + 1)
    except ValueError:  # past the sequence cap, so past any guard
        raise GuardExceededError("assignment", f"a({tree.height + 1})", guards.assignment) from None
    if not top.is_exact:
        raise GuardExceededError("assignment", top.to_text(), guards.assignment)
    budget = ColorBudget(tuple(int(two_guess_seq(k + 1).exact) for k in tree.heights))
    # a leaf's table lists one entry per coloring of its ancestors, one at
    # each smaller height, so a deepest vertex reads the most (the root,
    # peeled last, reads one entry); checked before any digit range
    deepest = tree.heights.index(tree.height)
    need = prod(budget[u] for u in tree.ancestors(deepest)) if tree.height else 0
    guards.check("enumeration", need)
    cl_graph = closure(tree)
    # the peel order does not depend on the strategy: fix it once.  A
    # leaf's neighbors are its descendants, peeled before it and pinned at
    # their colors, and its ancestors, one digit range each
    steps, peeled = [], set()
    while len(peeled) < tree.vertex_count:
        leaf = min(v for v in range(tree.vertex_count) if v not in peeled and peeled.issuperset(tree.children[v]))
        peeled.add(leaf)
        places = dict(zip(cl_graph.neighbors(leaf), entry_places(cl_graph, budget, leaf)))
        ancestors = tree.ancestors(leaf)
        pins = [(u, p) for u, p in places.items() if u not in ancestors]
        steps.append((leaf, pins, [range(0, budget[u] * places[u], places[u]) for u in ancestors]))
    # the root, peeled last, sees every other vertex pinned
    *steps, (root, root_pins, _) = steps

    def engine(strategy, log):
        out = [0] * tree.vertex_count
        for leaf, pins, digits in steps:
            base = sum(out[u] * p for u, p in pins)
            entries = map(strategy.tables[leaf].__getitem__, map(sum, product((base,), *digits)))
            gamma = _smallest_missing(set(chain.from_iterable(entries)))
            if gamma >= budget[leaf]:
                # the budget a(k+1) = 1 + 2P always leaves a color
                raise InternalError(f"closure leaf {leaf}: no color left under budget {budget[leaf]}")
            out[leaf] = gamma
            _note(log, "closure leaf {} height={}: assign {}", leaf, tree.heights[leaf], gamma)
        gamma = _smallest_missing(strategy.tables[root][sum(out[u] * p for u, p in root_pins)])
        out[root] = gamma
        _note(log, "closure root {}: assign {}", root, gamma)
        return tuple(out)

    step = f"tree-closure n={tree.vertex_count} heights={tree.heights} budget={_budget_brief(budget)}"
    return AdversaryOracle(cl_graph, budget, 2, step, engine, own=need)


# ---------------------------------------------------------------------------
# pipeline: bounded circumference
# ---------------------------------------------------------------------------

def circ_block_depth(g: Graph) -> int:
    """The depth of the deepest block certificate of oracle_theorem_circ(g),
    1 when it has none: ell + 1 colors host the closure adversary on
    every block, the premise it otherwise refuses with ValueError,
    exactly when they reach a(depth)."""
    depths = (dfs_treedepth_certificate(sub).depth for *_, sub in _block_plan(g) if sub is not None)
    return max(depths, default=1)


def oracle_theorem_circ(
    g: Graph, guards: Guards = DEFAULT_GUARDS, ell: Optional[int] = None
):
    """Adversary for a graph of bounded circumference, plus its bound.

    With circumference c, every block has a DFS certificate of depth at
    most d = floor(c*c/2) (d = 2 when acyclic: blocks are single edges),
    so the closure adversary beats the two-guess game on each block at
    a(d) colors and the block composition finishes at uniform budget
    a(d).  Returns (oracle, bound) with bound = a(d); the oracle is None
    if the budget is too large to materialize or a guard refuses the
    construction.  Past the sequence cap (d > 64, so c >= 12) the
    oracle is None and the bound is circ_bound(c), the closed form
    (64/25)^(2^(d-1)) + 1/2 >= a(d).  Passing ell overrides the budget
    (ell + 1 colors) so the same composition can be exercised at small
    scale; ell + 1 must still cover a(depth) for every block certificate.
    """
    c = circumference(g, guards)
    d = (c * c) // 2 if c >= 3 else 2
    try:
        bound = two_guess_seq(d)
    except ValueError:
        # d is past the sequence cap (c >= 12), and a(d) past any guard
        return None, circ_bound(c)
    if ell is None and not bound.is_exact:
        return None, bound
    ell_val = int(bound.exact) - 1 if ell is None else ell

    def closure_premise(sub_g: Graph) -> AdversaryOracle:
        cert = dfs_treedepth_certificate(sub_g)
        need = two_guess_seq(cert.depth)
        if not (need.is_exact and need.exact <= ell_val + 1):
            raise ValueError(
                f"budget {ell_val + 1} cannot host a depth-{cert.depth} certificate (needs {need.to_text()})"
            )
        return _under(f"embed block into closure: certificate depth {cert.depth}", oracle_closure(cert.tree, guards))

    try:
        core = oracle_lemma_blocks(g, ell_val, premise2=closure_premise)
    except GuardExceededError:
        return None, bound
    return _under(f"bounded-circumference pipeline: c={c} depth-cap={d} budget={int_brief(ell_val + 1)}", core), bound


# ---------------------------------------------------------------------------
# pipeline: forbidden t-ary subtree
# ---------------------------------------------------------------------------

def _tary_build(g_cur: Graph, t: int, h_cur: int, guards: Guards):
    """Recursive assembly; returns (oracle, exact budget threshold)."""
    base = ceil_e_times(t)
    if h_cur == 1 or g_cur.vertex_count == 0:
        for v in g_cur.vertices():
            if g_cur.degree(v) >= t:
                raise PremiseViolationError(
                    f"maximum degree at most {t - 1} in the base case",
                    witness=(v,) + g_cur.neighbors(v)[:t],
                )
        return oracle_exhaustive(g_cur, ColorBudget.uniform(g_cur.vertex_count, base), 1), base
    k = 2 * t**h_cur
    low = [v for v in g_cur.vertices() if g_cur.degree(v) < k]
    if not low:
        witness = None
        if tary_tree_size(t, h_cur) <= guards.tree_size:
            witness = contains_tary_tree(g_cur, t, h_cur, guards)
        raise PremiseViolationError(
            f"minimum degree {k} forces a {t}-ary subtree of height {h_cur}",
            witness=witness,
        )
    low_set = set(low)
    rest = [v for v in g_cur.vertices() if v not in low_set]
    g_low, kept_low = induced_subgraph(g_cur, low)
    classes = [
        tuple(kept_low[i] for i in cls) for cls in greedy_proper_coloring(g_low)
    ]
    sub_g, _ = induced_subgraph(g_cur, rest)
    oracle, threshold = _tary_build(sub_g, t, h_cur - 1, guards)
    keep = list(rest)
    for cls in reversed(classes):
        keep = sorted(keep + list(cls))
        g_step, kept_step = induced_subgraph(g_cur, keep)
        relabel = {old: i for i, old in enumerate(kept_step)}
        u_local = tuple(relabel[u] for u in cls)
        if threshold.bit_length() * (k - 1) > GUARD_BITS:
            raise GuardExceededError(
                "enumeration", threshold.bit_length() * (k - 1), GUARD_BITS
            )
        oracle = oracle_lemma_is(g_step, u_local, k - 1, threshold, oracle)
        threshold = threshold ** (k - 1) + 1
    return oracle, threshold


def oracle_theorem_tary(g: Graph, t: int, h: int, guards: Guards = DEFAULT_GUARDS):
    """Adversary for a graph with no complete t-ary subtree of height h.

    Splits off the vertices of degree below k = 2*t^h, partitioned into
    greedy color classes, and peels each class with the independent-set
    argument; the remainder has no t-ary subtree of height h-1 and
    recurses, down to the max-degree base case solved exhaustively.
    Returns (oracle, bound); the oracle is None when the budget chain
    leaves exact-integer range, and the precondition is checked up front
    whenever the subtree search is within guard.
    """
    if t < 2 or h < 1:
        raise ValueError("need t >= 2 and h >= 1")
    if tary_tree_size(t, h) <= guards.tree_size:
        embedding = contains_tary_tree(g, t, h, guards)
        if embedding is not None:
            raise PremiseViolationError(
                f"graph contains no {t}-ary subtree of height {h}",
                witness=embedding,
            )
    bound = n_h_t_recursive(h, t)
    try:
        oracle, threshold = _tary_build(g, t, h, guards)
    except GuardExceededError:
        return None, bound
    return _under(f"forbidden-{t}-ary-height-{h} pipeline: budget={int_brief(threshold)}", oracle), bound

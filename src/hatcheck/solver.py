"""Decision procedure for the hat guessing game.

players_win answers "can the players force a correct guess on every
assignment" by looking for a covering family of table entries: each
assignment must be covered by at least one vertex whose table entry (at
the neighborhood coloring that assignment induces) contains the vertex's
own color.  Entries hold at most guess_count colors.

The two searches below (steps 2 and 3) run on one canonical
relabelling of the game: of all the permutations of the vertices, the
one whose relabelled (sorted edge list, budget tuple) is
lexicographically greatest, the first such in itertools order.  Brute
force finds it, which is cheap up to six vertices; past six the
relabelling is the identity.  So
isomorphic games run the same search, and the outcome, its cost and its
refuted count belong to the isomorphism class (a canonical form in the
sense of McKay and Piperno, JSC 2014, without their pruning).  The
outcome is mapped back once, at the end: a certificate through
game.reindex and each transcript witness vertex by vertex, so outcomes
are in the caller's labels.

Three methods run; steps 2 and 3 in alternating slices:

1. Counting at the root, before any layout is built.  A color at an
   entry covers at most the entry's weight of assignments (its members
   with that own color), so when capacity times weight, summed over the
   entries, is less than the assignment count A the players lose.  The
   sum is that of min(guess_count, q_v) * A / q_v over the vertices, so
   the call returns at once, in any labels, the refutation the search
   of step 3 would make at its root: one refuted branch, witnessed by
   assignment 0 (all zeros).
2. Local search for a players win: seeded min-conflicts (Minton et
   al., AIJ 1992; WalkSAT, Selman, Kautz and Cohen, 1994) over full
   entries, restarted after Luby-sequence run lengths for as long as
   the exact search runs; see _local_search.  A strategy it finds is
   returned only after find_defeating_assignment sweeps every
   assignment, so a players verdict never rests on the search.
3. The exact search.  After each failed run of the local search it
   takes one step (one pass of its propagation loop) per flip of that
   run; whichever search finishes first decides, so a players
   certificate comes from either one.  Running the two side by side
   bounds what the slower one costs (Luby, Sinclair and Zuckerman, IPL
   1993): the local search spends at most the exact search's own steps
   plus one run, and an adversary verdict the exact search reaches in a
   few dozen steps waits for no more than that.  The exact search
   itself is unchanged by step 2, so adversary verdicts, their
   transcripts and refuted counts are those of an exhaustive search.
   The exact search backtracks over covering choices:

   * each uncovered assignment contributes one candidate (cell, color)
     per vertex, namely "put my color at v into v's entry for what v
     sees";
   * entries saturate at guess_count colors;
   * an assignment's options are its free covers: a cover is blocked
     when its entry is saturated, its pair is excluded or, in a tight
     state, it lies below its entry's contributing residuals (the last
     two are described below);
   * zero-option assignments force a backtrack, single-option ones are
     propagated, otherwise we branch on a least-option assignment (ties
     broken toward the fewest free slots over the assignment's cells,
     then by assignment order; options by descending residual then
     vertex index).  Fewest free slots is most engagement with
     already-used entries: an entry's capacity depends only on its
     vertex and an assignment has one entry per vertex, so the
     capacities over its cells sum to the same for every assignment;
   * a residual count prunes branches where the unsaturated entries
     cannot possibly cover the remaining assignments: a color at an
     entry covers at most its residual (the number of its
     still-uncovered assignments), an entry contributes its cap_left
     largest color residuals, and the total over entries must reach the
     uncovered count;
   * when that count is exactly tight (as it is from the start whenever
     q = n uniformly), a choice below its entry's contributing residuals
     loses more potential than it covers, so for that step it is
     blocked, in the same way as an excluded pair, which turns the
     count into per-choice propagation;
   * once an option of a decision is refuted, its (cell, color) pair is
     excluded from the subtrees of the decision's later options, until
     the decision is exhausted and its exclusions are lifted (the
     negated decision of DPLL; disjoint branching in set-cover branch
     and bound).  This is sound because the refuted subtree searched
     every completion that holds the pair, so without the rule a
     covering state would be refuted once per order in which its
     choices were made.  An excluded pair is no option: the forced
     moves, the option counts and the viable options skip it, and the
     residual count ignores its color, so an entry contributes its
     cap_left largest residuals over the colors not excluded there, and
     nothing when none is left.

   The first explored branch covers the all-zero assignment at the
   least vertex, so on this path the first table entry ever fixed
   guesses color 0; with uniform budgets this is also the canonical
   representative under global color permutations.

Assignments are bits of Python ints.  In lexicographic order the
assignments of one entry (and of one entry and own color) are a
per-vertex bit pattern shifted by the entry's lowest member, so a choice
covers ``uncovered & (pattern << shift)``; game.lex_masks is the one
definition of that layout.  The local search keeps its
cover counts as bit-sliced planes over the same masks.  The exact
search keeps its state incremental, so a step costs what it changes
rather than the size of the game:

* the uncovered set, and per vertex the assignments whose entry there
  is saturated, are masks, and undo restores them; so are, per vertex,
  the assignments whose cover there is excluded, with the excluded
  colors of each entry as a bitmask;
* the residual bound is a running sum of cached per-entry contributions;
  a choice or undo marks the entries whose residuals or free slots
  changed, and only those are recomputed;
* in every state the assignments with k options are counted bitwise
  from per-vertex masks of blocked covers: the saturated and excluded
  sets, and in a tight state the members of each below-threshold
  (entry, color) pair, recomputed only for the entries that changed
  since the last tight state; the scan visits only the fewest-option
  ones.
  The scan order, and with it every branch, forced move, conflict and
  certificate, is that of a plain ascending scan of the assignments.

Everything is deterministic and runs in one thread: the local search
draws from a SplitMix64 seeded with a module constant, and the slices
are measured in flips and steps, not in time, so outcomes depend only on
the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import permutations
from typing import Optional

from .game import (
    ColorBudget,
    Strategy,
    entry_places,
    enumerate_assignments,
    is_defeating,
    lex_masks,
    reindex,
    strategy_to_text,
    table_size,
    total_table_size,
)
from .graphs import Graph
from .guards import DEFAULT_GUARDS, Guards
from .rng import SplitMix64

PLAYERS = "players"
ADVERSARY = "adversary"


@dataclass(frozen=True)
class SolveOutcome:
    """Result of players_win with its checkable evidence.

    Players: certificate is a winning strategy.  Adversary: transcript
    holds (branch id, assignment) pairs, one per refuted search branch;
    the assignment is the uncovered witness that killed the branch (for
    capacity prunes, the first assignment still uncovered there).  The
    transcript keeps at most max_transcript entries; refuted counts
    every refuted branch.  Certificates and witnesses are in the
    caller's labels.  On at most six vertices the outcome in canonical
    labels is a property of the isomorphism class of (graph, budget):
    every labelling gets the same certificate, or refutes as many
    branches with the same witnesses.
    """

    graph: Graph
    budget: ColorBudget
    guess_count: int
    winner: str
    certificate: Optional[Strategy] = None
    transcript: tuple = ()
    refuted: int = 0

    @property
    def transcript_truncated(self) -> bool:
        return self.refuted > len(self.transcript)


def outcome_to_text(outcome: SolveOutcome) -> str:
    lines = [f"winner {outcome.winner}"]
    if outcome.winner == PLAYERS:
        lines.append(strategy_to_text(outcome.certificate).rstrip("\n"))
    else:
        for branch_id, assignment in outcome.transcript:
            colors = " ".join(map(str, assignment))
            lines.append(f"branch {branch_id} defeated-by {colors}")
        if outcome.transcript_truncated:
            lines.append("transcript truncated")
    return "\n".join(lines) + "\n"


# local search constants; outcomes depend on them, so they are fixed
_SEARCH_SEED = 0x6861_7463_6865_636B
_NOISE_PER_256 = 16  # chance of a random swap
_NOVELTY_PER_256 = 200  # chance of the second-best swap, see below

# games on at most this many vertices are solved on their canonical form,
# found by brute force over the n! relabellings
_CANON_MAX_VERTICES = 6


def _nth_set_bit(x: int, r: int, levels=None) -> int:
    """Index of set bit number r (from 0, lowest first) of x.

    The bisection halves from the largest power of two below x's bit
    length.  levels: _bisection_levels of at least that bit length, so
    that a caller that asks many times builds the masks once.
    """
    if r < 4:  # a few lowest-bit clears beat the bisection
        for _ in range(r):
            x &= x - 1
        return (x & -x).bit_length() - 1
    base = 0
    bits = x.bit_length()
    for half, mask in (levels or _bisection_levels(bits))[(bits - 1).bit_length()]:
        low = x & mask
        k = low.bit_count()
        if r < k:
            x = low
        else:
            r -= k
            x >>= half
            base += half
    return base


def _bisection_levels(bits: int) -> list:
    """levels[m]: the (half, (1 << half) - 1) pairs for half = 2^(m-1),
    ..., 2, 1, the bisection of an int of bit length b with
    (b - 1).bit_length() == m, for every b up to bits."""
    pairs = [(1 << j, (1 << (1 << j)) - 1) for j in reversed(range((bits - 1).bit_length()))]
    return [pairs[len(pairs) - n:] for n in range(len(pairs) + 1)]


def _local_search(layout: _Layout):
    """Seeded min-conflicts search for a covering, as a generator.

    It yields the flip count of each run that fails and returns the picks
    per cell of the covering it finds; it has no end of its own.

    Every entry holds capacity distinct colors.  A step picks a uniformly
    random uncovered assignment and swaps, in one of its cells, one
    color for the color that covers it.  The swap is a random one with
    probability _NOISE_PER_256 / 256; otherwise the swaps are ranked by
    newly covered minus newly uncovered assignments, then by how long
    ago their cell last changed, and the best is taken, unless no cell of
    the assignment changed later than the best's, when the second best
    is taken with probability _NOVELTY_PER_256 / 256 (Novelty, McAllester,
    Selman and Kautz, AAAI 1997).  Runs restart from fresh random entries
    after Luby-sequence lengths (unit: the assignment count).

    Cover counts are bit-sliced: planes[i] holds bit i of every
    assignment's count, so the uncovered and the covered-once
    assignments are masks and a swap's score is two popcounts of a mask
    shifted down to a pattern.  The members of (cell c, color col) are
    pattern[c] << lowest[c] + col * step[c], as in the exact search.
    """
    assigns, cells_of, cell_owner = layout.assigns, layout.cells_of, layout.cell_owner
    capacity, lowest, qs = layout.capacity, layout.lowest, layout.budget.sizes
    a_count = len(assigns)
    full = (1 << a_count) - 1
    levels = _bisection_levels(a_count)
    rng = SplitMix64(_SEARCH_SEED)
    below, next_u64 = rng.below, rng.next_u64
    pattern = [layout.color_pattern[v] for v in cell_owner]
    step = [layout.stride[v] for v in cell_owner]
    order = 1 << 40  # above every flip index: a swap's score outranks its age

    flip = 0
    u = run = 1  # Luby's sequence by reluctant doubling (Knuth)
    while True:
        length = run * a_count
        u, run = (u + 1, 1) if u & -u == run else (u, 2 * run)
        entries = []
        planes = [0] * len(qs).bit_length()
        for c, cap in enumerate(capacity):
            pool = list(range(qs[cell_owner[c]]))
            for i in range(cap):
                j = i + below(len(pool) - i)
                pool[i], pool[j] = pool[j], pool[i]
                up = pattern[c] << lowest[c] + pool[i] * step[c]
                for b, p in enumerate(planes):  # add 1 where up is set
                    planes[b] = p ^ up
                    up &= p
            entries.append(pool[:cap])
        changed = [-1] * len(capacity)  # flip at which each cell last changed
        for left in range(length, -1, -1):  # flips left in this run
            higher = 0
            for p in planes[1:]:
                higher |= p
            unc = full ^ (planes[0] | higher)
            if not unc:
                return entries
            if not left:
                break
            a = _nth_set_bit(unc, below(unc.bit_count()), levels)
            row = cells_of[a]
            colors = assigns[a]
            if (next_u64() & 255) < _NOISE_PER_256:
                c = row[below(len(row))]
                k = below(capacity[c])
            else:
                once = planes[0] & ~higher
                # the best and second-best swap (c, k) by (score, age) key,
                # the earlier one winning ties
                best = second = -1 << 99  # below every key
                c = k = None
                newest = -1
                for c1, col in zip(row, colors):
                    age = changed[c1]
                    if age > newest:
                        newest = age
                    pat = pattern[c1]
                    base = lowest[c1]
                    st = step[c1]
                    make = (unc >> base + col * st & pat).bit_count() * order - age
                    for k1, old in enumerate(entries[c1]):
                        key = make - (once >> base + old * st & pat).bit_count() * order
                        if key > best:
                            best, c, k, second, c2, k2 = key, c1, k1, best, c, k
                        elif key > second:
                            second, c2, k2 = key, c1, k1
                if changed[c] == newest and (next_u64() & 255) < _NOVELTY_PER_256:
                    c, k = c2, k2
            col = colors[cell_owner[c]]
            pat, base, st = pattern[c], lowest[c], step[c]
            down = pat << base + entries[c][k] * st
            up = pat << base + col * st
            entries[c][k] = col
            changed[c] = flip
            flip += 1
            for b, p in enumerate(planes):  # take 1 where down is set, add 1 where up is
                p_down = p ^ down
                down &= ~p
                planes[b] = p_down ^ up
                up &= p_down
        yield length


def at_most_one_free(unc: int, blocked) -> tuple:
    """(the assignments of unc with no free cover, those with at most one).

    blocked[v]: the assignments whose cover at vertex v is not free.
    """
    suffix = [unc]
    for b in reversed(blocked):
        suffix.append(suffix[-1] & b)
    suffix.reverse()
    prefix = unc
    one = 0
    for v, b in enumerate(blocked):
        one |= prefix & suffix[v + 1]
        prefix &= b
    return prefix, one


def by_free_count(unc: int, blocked) -> list:
    """levels[k]: the assignments of unc with k free covers.

    blocked[v]: the assignments whose cover at vertex v is not free.
    """
    levels = [unc]
    for b in blocked:
        if not b:
            levels.insert(0, 0)
            continue
        free = ~b
        levels = (
            [levels[0] & b]
            + [hi & b | lo & free for lo, hi in zip(levels, levels[1:])]
            + [levels[-1] & free]
        )
    return levels


def _relabelled(g: Graph, budget: ColorBudget, perm) -> tuple:
    """(sorted edge list, budget tuple) of the game with v renamed perm[v]."""
    edges = sorted((perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u]) for u, v in g.edges)
    sizes = [0] * len(perm)
    for v, q in zip(perm, budget.sizes):
        sizes[v] = q
    return edges, tuple(sizes)


def players_win(
    g: Graph,
    budget: ColorBudget,
    guess_count: int,
    guards: Guards = DEFAULT_GUARDS,
    max_transcript: int = 1000,
) -> SolveOutcome:
    """Decide the game exactly; see module docstring for the method."""
    n = g.vertex_count
    if n < 1:
        raise ValueError("players_win requires at least one vertex")
    if len(budget) != n:
        raise ValueError("budget length must match vertex count")
    if guess_count not in (1, 2):
        raise ValueError("guess_count must be 1 or 2")
    a_count = budget.product()
    guards.check("assignment", a_count)
    guards.check("table", total_table_size(g, budget))
    guards.check("enumeration", a_count)  # the layout enumerates them all
    # counting at the root: entries that cover fewer assignments than
    # there are lose, as the exact search would find at its first step
    if sum(min(guess_count, q) * (a_count // q) for q in budget.sizes) < a_count:
        root = ((0, (0,) * n),) if max_transcript > 0 else ()
        return SolveOutcome(g, budget, guess_count, ADVERSARY, transcript=root, refuted=1)

    # vertex v is canonical vertex perm[v]; max keeps the first greatest
    # permutation
    perm = tuple(range(n))
    if n <= _CANON_MAX_VERTICES:
        perm = max(permutations(perm), key=lambda p: _relabelled(g, budget, p))
    edges, sizes = _relabelled(g, budget, perm)
    layout = _Layout(Graph(n, frozenset(edges)), ColorBudget(sizes), guess_count)
    exact = _exact_search(layout, max_transcript)
    local = _local_search(layout)
    while True:
        try:
            flips = next(local)
        except StopIteration as stop:
            outcome = _in_labels(layout.outcome(stop.value), g, budget, perm)
            if find_defeating_assignment(g, outcome.certificate, guards=guards) is None:
                return outcome
            break
        # one exact step per flip of the failed run
        outcome = _advance(exact, flips)
        if outcome is not None:
            return _in_labels(outcome, g, budget, perm)
    return _in_labels(_advance(exact, -1), g, budget, perm)


def _in_labels(outcome: SolveOutcome, g: Graph, budget: ColorBudget, perm) -> SolveOutcome:
    """A canonical outcome in the labels of (g, budget), whose vertex v is
    canonical vertex perm[v].  The certificate's view keeps no pins and
    clips nothing: perm is a permutation, and (g, budget) is the
    canonical game relabelled."""
    certificate = outcome.certificate
    if certificate is not None:
        # reindex reads through; a certificate stays plain, hashable tuples
        view = reindex(certificate, g, budget, perm)
        certificate = Strategy._unchecked(g, budget, view.guess_count, tuple(tuple(t) for t in view.tables))
    transcript = tuple((i, tuple(canon[p] for p in perm)) for i, canon in outcome.transcript)
    return replace(outcome, graph=g, budget=budget, certificate=certificate, transcript=transcript)


def _advance(search, steps: int) -> Optional[SolveOutcome]:
    """Resume a search for steps steps, or to its end when steps < 0.

    Returns its outcome if it finished, else None.
    """
    try:
        while steps:
            next(search)
            steps -= 1
    except StopIteration as stop:
        return stop.value
    return None


class _Layout:
    """A game's covering instance, in the labels it is given.

    Cells are the per-vertex dense tables flattened into one id space, and
    cells_of[a] is assignment a's covering cell at each vertex.  It is
    built by columns: v's column starts as [offsets[v]] and is expanded
    over the vertices in lexicographic order, each of its entries followed
    by its copies plus digit * radix for each color digit of the vertex,
    the radix being the vertex's place value in v's entry index (0 off
    v's neighborhood).  The members of cell c with own color col are
    color_pattern[v] shifted by lowest[c] + col * stride[v], v the owner:
    game.lex_masks, with lowest flattened to cell ids.
    """

    def __init__(self, g: Graph, budget: ColorBudget, guess_count: int) -> None:
        n = g.vertex_count
        qs = budget.sizes
        a_count = budget.product()
        assigns = list(enumerate_assignments(budget))

        offsets, cell_owner, capacity, weight, columns = [], [], [], [], []
        for v in range(n):
            size = table_size(g, budget, v)
            offsets.append(len(cell_owner))
            cell_owner += [v] * size
            capacity += [min(guess_count, qs[v])] * size
            weight += [a_count // (qs[v] * size)] * size
            radix = dict(zip(g.neighbors(v), entry_places(g, budget, v)))
            column = [offsets[v]]
            for w in range(n):
                digits = [d * radix.get(w, 0) for d in range(qs[w])]
                column = [x + d for x in column for d in digits]
            columns.append(column)
        cells_of = list(zip(*columns))

        lex = lex_masks(g, budget)
        lowest = [rank for ranks in lex.lowest for rank in ranks]

        self.g, self.budget, self.guess_count = g, budget, guess_count
        self.assigns, self.cells_of, self.offsets = assigns, cells_of, offsets
        self.cell_owner, self.capacity, self.weight = cell_owner, capacity, weight
        self.stride, self.cell_pattern, self.color_pattern, self.lowest = lex.stride, lex.cell_pattern, lex.color_pattern, lowest

    def outcome(self, picks_by_cell) -> SolveOutcome:
        """The players' outcome whose entries hold these picks (none: color 0)."""
        g, budget = self.g, self.budget
        tables = []
        for v in range(g.vertex_count):
            rows = []
            for i in range(table_size(g, budget, v)):
                picks = picks_by_cell[self.offsets[v] + i]
                rows.append(tuple(sorted(picks)) if picks else (0,))
            tables.append(tuple(rows))
        certificate = Strategy(g, budget, self.guess_count, tuple(tables))
        return SolveOutcome(g, budget, self.guess_count, PLAYERS, certificate=certificate)


def _exact_search(layout: _Layout, max_transcript: int):
    """The exhaustive search of the module docstring, in the layout's labels.

    A generator: it yields once per step of propagate and returns the
    SolveOutcome.
    """
    g, budget, guess_count = layout.g, layout.budget, layout.guess_count
    n = g.vertex_count
    qs = budget.sizes
    assigns, cells_of, cell_owner = layout.assigns, layout.cells_of, layout.cell_owner
    capacity, weight, stride = layout.capacity, layout.weight, layout.stride
    cell_pattern, color_pattern, lowest = layout.cell_pattern, layout.color_pattern, layout.lowest
    a_count, ncells = len(assigns), len(cell_owner)

    cap_left = capacity[:]
    unc = (1 << a_count) - 1  # uncovered assignments
    # saturated[v]: assignments whose cell at v has no slot left
    saturated = [0] * n
    # res[c][col] = uncovered assignments that (c, col) would newly cover
    res = [[weight[c]] * qs[cell_owner[c]] for c in range(ncells)]
    # trail entries: (cell, color, the assignments the choice covered)
    trail = []
    # excluded[c]: colors barred from cell c by refuted sibling branches;
    # excluded_at[v]: assignments whose cover at v is such a pair
    excluded = [0] * ncells
    excluded_at = [0] * n
    # below[c]: the members of cell c's colors whose residual is below
    # thr[c], as of the last tight state (none when c is saturated);
    # below_at[v] is their union over v's cells, kept by xor since cells
    # are disjoint; stale holds the cells marked dirty since then
    below = [0] * ncells
    below_at = [0] * n
    stale = set(range(ncells))

    # The bound is a running sum of cached per-entry contributions: an
    # entry contributes its cap_left largest residuals over the colors
    # not excluded there, and thr is the smallest contributing residual,
    # below which a tight state blocks a cover.  apply/undo_to mark the
    # entries whose residuals or cap_left changed and only those are
    # recomputed.  At the start every color residual of an entry equals
    # its weight.
    contrib = [capacity[c] * weight[c] for c in range(ncells)]
    thr = weight[:]
    bound = sum(contrib)
    dirty = set()

    def apply(cell: int, color: int) -> None:
        nonlocal unc
        v = cell_owner[cell]
        cap_left[cell] -= 1
        dirty.add(cell)
        if cap_left[cell] == 0:
            saturated[v] |= cell_pattern[v] << lowest[cell]
        covered = unc & (color_pattern[v] << (lowest[cell] + color * stride[v]))
        unc ^= covered
        trail.append((cell, color, covered))
        while covered:
            low = covered & -covered
            covered ^= low
            a = low.bit_length() - 1
            row = cells_of[a]
            for c, col in zip(row, assigns[a]):
                res[c][col] -= 1
            dirty.update(row)

    def undo_to(mark: int) -> None:
        nonlocal unc
        while len(trail) > mark:
            cell, color, covered = trail.pop()
            unc |= covered
            while covered:
                low = covered & -covered
                covered ^= low
                a = low.bit_length() - 1
                row = cells_of[a]
                for c, col in zip(row, assigns[a]):
                    res[c][col] += 1
                dirty.update(row)
            if cap_left[cell] == 0:
                v = cell_owner[cell]
                saturated[v] ^= cell_pattern[v] << lowest[cell]
            cap_left[cell] += 1
            dirty.add(cell)

    def toggle_exclusion(cell: int, color: int) -> None:
        """Exclude (cell, color), or lift its exclusion."""
        v = cell_owner[cell]
        excluded[cell] ^= 1 << color
        excluded_at[v] ^= color_pattern[v] << (lowest[cell] + color * stride[v])
        dirty.add(cell)

    def residual_bound():
        """Upper bound on how many uncovered assignments remain coverable."""
        nonlocal bound
        for c in dirty:
            cl = cap_left[c]
            r = res[c]
            ex = excluded[c]
            if ex:
                r = [x for col, x in enumerate(r) if not ex >> col & 1]
            if cl == 0 or not r:
                part = 0
            elif cl == 1:
                part = thr[c] = max(r)
            else:
                top = sorted(r)[-2:]
                thr[c] = top[0]
                part = sum(top)
            bound += part - contrib[c]
            contrib[c] = part
        stale.update(dirty)
        dirty.clear()
        return bound

    def viable_options(a, blocked):
        """Assignment a's free covers, in vertex order."""
        return [(c, col) for v, (c, col) in enumerate(zip(cells_of[a], assigns[a])) if not blocked[v] >> a & 1]

    def propagate():
        """Apply forced covers until a fixpoint, yielding once per step.

        Returns (conflict, branch assignment, branch options).  A
        conflict is an uncovered assignment with no free cover, or the
        residual count falling short (reported through the first
        uncovered assignment).  A cover is blocked when its entry is
        saturated or its pair excluded, and in a tight state also when
        it lies below its entry's contributing residuals, for that step
        only.  Uncovered assignments are scanned in ascending order: the
        first with no free cover is a conflict, the first with one is
        forced.  Otherwise the branch assignment has the fewest free
        covers, then the fewest free slots over its cells, so related
        choices cluster, then the least index.  Capacity depends only on
        a cell's owner and an assignment has one cell per vertex, so
        fewest free slots is most engagement with already-used entries.
        """
        while True:
            yield
            if not unc:
                return None, None, None
            uncovered = unc.bit_count()
            bound = residual_bound()
            if bound < uncovered:
                return (unc & -unc).bit_length() - 1, None, None
            blocked = [sat | ex for sat, ex in zip(saturated, excluded_at)]
            if bound == uncovered:
                # tight: a cover below its entry's contributing residuals
                # loses more bound than it covers
                for c in stale:
                    v = cell_owner[c]
                    m = 0
                    if cap_left[c]:
                        t = thr[c]
                        for col, x in enumerate(res[c]):
                            if x < t:
                                m |= color_pattern[v] << (lowest[c] + col * stride[v])
                    below_at[v] ^= below[c] ^ m
                    below[c] = m
                stale.clear()
                blocked = [b | m for b, m in zip(blocked, below_at)]
            none, low = at_most_one_free(unc, blocked)
            if low:
                a = (low & -low).bit_length() - 1
                if none >> a & 1:
                    return a, None, None
                apply(*viable_options(a, blocked)[0])
                continue
            levels = by_free_count(unc, blocked)
            k = 2
            while not levels[k]:
                k += 1
            candidates = []
            level = levels[k]
            while level:
                low = level & -level
                level ^= low
                candidates.append(low.bit_length() - 1)
            a = min(candidates, key=lambda a: sum(map(cap_left.__getitem__, cells_of[a])))
            return None, a, viable_options(a, blocked)

    transcript = []
    branch_counter = 0
    # decision stack: (options, next option index, trail length before)
    decisions = []

    def record_conflict(a: int) -> None:
        nonlocal branch_counter
        if len(transcript) < max_transcript:
            transcript.append((branch_counter, assigns[a]))
        branch_counter += 1

    while True:
        conflict, branch_a, branch_opts = yield from propagate()
        if conflict is None and branch_a is None:
            picks = [[] for _ in range(ncells)]
            for cell, color, _ in trail:
                picks[cell].append(color)
            return layout.outcome(picks)
        if conflict is None:
            # try the freshest-covering option first; the sort is stable
            # so equal residuals keep vertex order
            branch_opts.sort(key=lambda oc: -res[oc[0]][oc[1]])
            decisions.append((branch_opts, 1, len(trail)))
            apply(*branch_opts[0])
            continue
        record_conflict(conflict)
        while decisions:
            options, nxt, mark = decisions.pop()
            undo_to(mark)
            if nxt < len(options):
                # the subtree of the option just refuted searched every
                # completion holding it, so its siblings leave it out
                toggle_exclusion(*options[nxt - 1])
                decisions.append((options, nxt + 1, mark))
                apply(*options[nxt])
                break
            # exhausted: its options are free again above it
            for option in options[:-1]:
                toggle_exclusion(*option)
        else:
            return SolveOutcome(
                g,
                budget,
                guess_count,
                ADVERSARY,
                transcript=tuple(transcript),
                refuted=branch_counter,
            )


def find_defeating_assignment(g: Graph, strategy: Strategy, guards: Guards = DEFAULT_GUARDS):
    """First assignment (lex order) every vertex gets wrong, or None."""
    # A plain scan on purpose: it confirms the wins the local search finds
    # on game.lex_masks, so it must not read those masks itself.
    if strategy.graph != g:
        raise ValueError("strategy is for a different graph")
    guards.check("assignment", strategy.budget.product())
    guards.check("enumeration", strategy.budget.product())
    for assignment in enumerate_assignments(strategy.budget):
        if is_defeating(strategy, assignment):
            return assignment
    return None


def _hg_sweep(g: Graph, guess_count: int, guards: Guards) -> int:
    if g.vertex_count < 1:
        raise ValueError("hat guessing numbers need at least one vertex")
    q = 1
    while True:
        outcome = players_win(g, ColorBudget.uniform(g.vertex_count, q + 1), guess_count, guards)
        if outcome.winner == ADVERSARY:
            return q
        q += 1


def hg_exact(g: Graph, guards: Guards = DEFAULT_GUARDS) -> int:
    """Largest uniform budget the players win with one guess each."""
    return _hg_sweep(g, 1, guards)


def hg2_exact(g: Graph, guards: Guards = DEFAULT_GUARDS) -> int:
    """Largest uniform budget the players win with two guesses each."""
    return _hg_sweep(g, 2, guards)

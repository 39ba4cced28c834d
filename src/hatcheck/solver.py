"""Exact decision procedure for the hat guessing game.

players_win answers "can the players force a correct guess on every
assignment" by searching for a covering family of table entries: each
assignment must be covered by at least one vertex whose table entry (at
the neighborhood coloring that assignment induces) contains the vertex's
own color.  The search backtracks over such covering choices:

* each uncovered assignment contributes one candidate (cell, color) per
  vertex, namely "put my color at v into v's entry for what v sees";
* entries saturate at guess_count colors;
* zero-candidate assignments force a backtrack, single-candidate ones
  are propagated, otherwise we branch on a least-candidate assignment
  (ties broken toward assignments most engaged with already-used
  entries, then by assignment order; candidates by descending residual
  then vertex index);
* a residual count prunes branches where the unsaturated entries cannot
  possibly cover the remaining assignments: a color at an entry covers
  at most its residual (the number of its still-uncovered assignments),
  an entry contributes its cap_left largest color residuals, and the
  total over entries must reach the uncovered count;
* when that count is exactly tight (as it is from the start whenever
  q = n uniformly), a choice below its entry's contributing residuals
  loses more potential than it covers and is excluded from viability,
  which turns the count into per-choice propagation.

Before searching at all, one solved special case is dispatched exactly:
if every vertex sees all others (each choice covers exactly one
assignment), covering is a bipartite matching between assignments and
table slots, and a deterministic augmenting-path matching settles the
players side outright.  The matching is tried only when the table slots
are at least as many as the assignments (Hall's condition for the whole
assignment side); with fewer slots none exists.  Matching failure falls
through to the search, which then produces the refutation transcript.

The search state is kept incremental, so a step costs what it changes
rather than the size of the game:

* assignments are bits of Python ints: the uncovered set, and per vertex
  the assignments whose entry there is saturated.  In lexicographic
  order the assignments of one entry (and of one entry and own color)
  are a per-vertex bit pattern shifted by the entry's lowest member, so
  a choice covers ``uncovered & (pattern << shift)`` and undo restores
  that int;
* the residual bound is a running sum of cached per-entry contributions;
  a choice or undo marks the entries whose residuals or free slots
  changed, and only those are recomputed;
* outside tight states an assignment's options are its unsaturated
  entries, so the assignments with k options are counted bitwise from
  the saturated sets and the scan visits only the fewest-option ones.
  The scan order, and with it every branch, forced move, conflict and
  certificate, is that of a plain ascending scan of the assignments.

The first explored branch covers the all-zero assignment at the least
vertex, so the first table entry ever fixed guesses color 0; with
uniform budgets this is also the canonical representative under global
color permutations.

Everything is deterministic and sequential; outcomes depend only on the
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .game import (
    ColorBudget,
    Strategy,
    enumerate_assignments,
    is_defeating,
    strategy_to_text,
    table_size,
    total_table_size,
)
from .graphs import Graph
from .guards import DEFAULT_GUARDS, Guards

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
    every refuted branch.
    """

    graph: Graph
    budget: ColorBudget
    guess_count: int
    winner: str
    certificate: Optional[Strategy] = None
    transcript: tuple = ()
    transcript_truncated: bool = False
    refuted: int = 0


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


def _augment(a0, n, cells_of, capacity, occupants):
    """Grow the matching by one assignment via an augmenting path.

    Iterative so path length is not bounded by the recursion limit.
    Frames are [assignment, cell index, occupant index]; occupant index
    -1 means the cell at the current index has not been examined yet.
    """
    visited = set()
    stack = [[a0, 0, -1]]
    success = False
    while stack:
        frame = stack[-1]
        a, ci, oi = frame
        row = cells_of[a]
        if oi >= 0:
            cell = row[ci]
            if success:
                occupants[cell][oi] = a
                stack.pop()
                continue
            oi += 1
            if oi < len(occupants[cell]):
                frame[2] = oi
                stack.append([occupants[cell][oi], 0, -1])
                continue
            frame[1] = ci + 1
            frame[2] = -1
            continue
        if ci >= n:
            stack.pop()
            success = False
            continue
        cell = row[ci]
        if cell in visited:
            frame[1] = ci + 1
            continue
        visited.add(cell)
        if len(occupants[cell]) < capacity[cell]:
            occupants[cell].append(a)
            stack.pop()
            success = True
            continue
        frame[2] = 0
        stack.append([occupants[cell][0], 0, -1])
    return success


def _saturating_matching(a_count, n, cells_of, capacity, ncells):
    """Match every assignment to a distinct table slot, or return None.

    Only valid when every (cell, color) choice covers exactly one
    assignment; covering is then a bipartite matching where each cell
    accepts up to its capacity of assignments, one per chosen color.
    Kuhn-style augmentation, assignments in lexicographic order, cells
    in vertex order, so the result is deterministic.
    """
    occupants = [[] for _ in range(ncells)]
    for a0 in range(a_count):
        if not _augment(a0, n, cells_of, capacity, occupants):
            return None
    return occupants


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
    total_assignments = budget.product()
    guards.check("assignment", total_assignments)
    guards.check("table", total_table_size(g, budget))

    qs = budget.sizes
    assigns = list(enumerate_assignments(budget, guards))
    a_count = len(assigns)

    # cell layout: per-vertex dense tables flattened into one id space
    offsets = []
    ncells = 0
    for v in range(n):
        offsets.append(ncells)
        ncells += table_size(g, budget, v)
    cell_owner = [0] * ncells
    for v in range(n):
        for i in range(table_size(g, budget, v)):
            cell_owner[offsets[v] + i] = v

    capacity = [min(guess_count, qs[cell_owner[c]]) for c in range(ncells)]
    weight = [0] * ncells
    for c in range(ncells):
        v = cell_owner[c]
        weight[c] = total_assignments // (qs[v] * table_size(g, budget, v))

    # per assignment: its covering cell at each vertex
    cells_of = []
    for colors in assigns:
        row = []
        for v in range(n):
            idx = 0
            for u in g.neighbors(v):
                idx = idx * qs[u] + colors[u]
            row.append(offsets[v] + idx)
        cells_of.append(row)

    def finish_with_tables(picks_by_cell):
        tables = []
        for v in range(n):
            rows = []
            for i in range(table_size(g, budget, v)):
                picks = picks_by_cell[offsets[v] + i]
                rows.append(tuple(sorted(picks)) if picks else (0,))
            tables.append(tuple(rows))
        certificate = Strategy(g, budget, guess_count, tuple(tables))
        return SolveOutcome(g, budget, guess_count, PLAYERS, certificate=certificate)

    # Hall pre-check: with fewer table slots than assignments no
    # saturating matching exists, so skip straight to the search
    if all(w == 1 for w in weight) and sum(capacity) >= a_count:
        occupants = _saturating_matching(a_count, n, cells_of, capacity, ncells)
        if occupants is not None:
            picks = [
                [assigns[b][cell_owner[c]] for b in occupants[c]] for c in range(ncells)
            ]
            return finish_with_tables(picks)
        # no matching means adversary; fall through for the transcript

    # search state.  Assignment a is bit a of the masks.  In
    # lexicographic order the members of a cell are its lowest member
    # plus the assignments with all of the owner's neighbors at color 0,
    # so each cover set is a per-vertex pattern shifted by one index.
    stride = [0] * n
    step = 1
    for v in reversed(range(n)):
        stride[v] = step
        step *= qs[v]
    cell_pattern = [0] * n  # members of the vertex's first cell
    color_pattern = [0] * n  # those of them with own color 0
    lowest = [-1] * ncells  # lowest member of each cell
    for a in range(a_count):
        row = cells_of[a]
        for v in range(n):
            c = row[v]
            if lowest[c] < 0:
                lowest[c] = a
            if c == offsets[v]:
                cell_pattern[v] |= 1 << a
                if assigns[a][v] == 0:
                    color_pattern[v] |= 1 << a

    cap_left = capacity[:]
    used = [0] * ncells  # capacity - cap_left, the entry's engagement
    unc = (1 << a_count) - 1  # uncovered assignments
    # saturated[v]: assignments whose cell at v has no slot left
    saturated = [0] * n
    # res[c][col] = uncovered assignments that (c, col) would newly cover
    res = [[weight[c]] * qs[cell_owner[c]] for c in range(ncells)]
    # trail entries: (cell, color, the assignments the choice covered)
    trail = []

    # The bound is a running sum of cached per-entry contributions: an
    # entry contributes its cap_left largest color residuals, and thr is
    # the smallest contributing residual, the viability cut in tight
    # states.  apply/undo_to mark the entries whose residuals or cap_left
    # changed and only those are recomputed.  At the start every color
    # residual of an entry equals its weight.
    contrib = [capacity[c] * weight[c] for c in range(ncells)]
    thr = weight[:]
    bound = sum(contrib)
    dirty = set()

    def apply(cell: int, color: int) -> None:
        nonlocal unc
        v = cell_owner[cell]
        cap_left[cell] -= 1
        used[cell] += 1
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
            used[cell] -= 1
            dirty.add(cell)

    def residual_bound():
        """Upper bound on how many uncovered assignments remain coverable."""
        nonlocal bound
        for c in dirty:
            cl = cap_left[c]
            if cl == 0:
                part = 0
            elif cl == 1:
                part = thr[c] = max(res[c])
            else:
                top = sorted(res[c])
                thr[c] = top[-2]
                part = top[-1] + top[-2]
            bound += part - contrib[c]
            contrib[c] = part
        dirty.clear()
        return bound

    def viable_options(a, tight):
        """Usable (cell, color) covers for assignment a.

        In a tight state a choice below its entry's contributing
        residuals loses more bound than it covers, so it is dropped.
        """
        row = cells_of[a]
        colors = assigns[a]
        opts = []
        for v in range(n):
            cell = row[v]
            if cap_left[cell] == 0:
                continue
            col = colors[v]
            if tight and res[cell][col] < thr[cell]:
                continue
            opts.append((cell, col))
        return opts

    def at_most_one_free():
        """(uncovered with no unsaturated cell, with at most one)."""
        suffix = [unc]
        for sat in reversed(saturated):
            suffix.append(suffix[-1] & sat)
        suffix.reverse()
        prefix = unc
        one = 0
        for v, sat in enumerate(saturated):
            one |= prefix & suffix[v + 1]
            prefix &= sat
        return prefix, one

    def by_free_count():
        """levels[k]: uncovered assignments with k unsaturated cells."""
        levels = [unc]
        for sat in saturated:
            if not sat:
                levels.insert(0, 0)
                continue
            free = ~sat
            levels = (
                [levels[0] & sat]
                + [hi & sat | lo & free for lo, hi in zip(levels, levels[1:])]
                + [levels[-1] & free]
            )
        return levels

    def propagate():
        """Apply forced covers until a fixpoint.

        Returns (conflict, branch assignment, branch options).  A
        conflict is an uncovered assignment with no usable choice, or
        the residual count falling short (reported through the first
        uncovered assignment).  Uncovered assignments are scanned in
        ascending order: the first with no option is a conflict, the
        first with one is forced.  Otherwise the branch assignment has
        the fewest options, then the most engagement with already-used
        entries, so related choices cluster, then the least index.
        """
        while True:
            if not unc:
                return None, None, None
            uncovered = unc.bit_count()
            bound = residual_bound()
            if bound < uncovered:
                return (unc & -unc).bit_length() - 1, None, None
            if bound > uncovered:
                # the options are the unsaturated cells
                none, low = at_most_one_free()
                if low:
                    a = (low & -low).bit_length() - 1
                    if none >> a & 1:
                        return a, None, None
                    apply(*viable_options(a, False)[0])
                    continue
                levels = by_free_count()
                k = 2
                while not levels[k]:
                    k += 1
                candidates = levels[k]
                tight = False
            else:
                candidates = unc
                tight = True
            forced = None
            best_a = -1
            best_len = n + 1
            best_eng = None
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                a = low.bit_length() - 1
                if tight:
                    # options at or above their entry's threshold
                    count = 0
                    for c, col in zip(cells_of[a], assigns[a]):
                        if cap_left[c] and res[c][col] >= thr[c]:
                            count += 1
                    if count == 0:
                        return a, None, None
                    if count == 1:
                        forced = a
                        break
                else:
                    count = k
                if count < best_len:
                    best_a, best_len, best_eng = a, count, None
                    continue
                if count > best_len:
                    continue
                if best_eng is None:
                    best_eng = sum(map(used.__getitem__, cells_of[best_a]))
                eng = sum(map(used.__getitem__, cells_of[a]))
                if eng > best_eng:
                    best_a, best_eng = a, eng
            if forced is not None:
                apply(*viable_options(forced, True)[0])
                continue
            return None, best_a, viable_options(best_a, tight)

    transcript = []
    truncated = False
    branch_counter = 0
    # decision stack: (options, next option index, trail length before)
    decisions = []

    def record_conflict(a: int) -> None:
        nonlocal branch_counter, truncated
        if len(transcript) < max_transcript:
            transcript.append((branch_counter, assigns[a]))
        else:
            truncated = True
        branch_counter += 1

    while True:
        conflict, branch_a, branch_opts = propagate()
        if conflict is None and branch_a is None:
            picks = [[] for _ in range(ncells)]
            for cell, color, _ in trail:
                picks[cell].append(color)
            return finish_with_tables(picks)
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
                decisions.append((options, nxt + 1, mark))
                apply(*options[nxt])
                break
        else:
            return SolveOutcome(
                g,
                budget,
                guess_count,
                ADVERSARY,
                transcript=tuple(transcript),
                transcript_truncated=truncated,
                refuted=branch_counter,
            )


def find_defeating_assignment(
    g: Graph,
    strategy: Strategy,
    budget: ColorBudget | None = None,
    guards: Guards = DEFAULT_GUARDS,
):
    """First assignment (lex order) every vertex gets wrong, or None.

    An explicit budget pointwise below the strategy's limits the sweep.
    """
    if strategy.graph != g:
        raise ValueError("strategy is for a different graph")
    sweep = budget or strategy.budget
    if any(sweep[v] > strategy.budget[v] for v in range(g.vertex_count)):
        raise ValueError("sweep budget exceeds the strategy's budget")
    guards.check("assignment", sweep.product())
    for assignment in enumerate_assignments(sweep, guards):
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

"""Independent brute-force oracles for the guessing game and for cycles.

Used by tests to cross-check the production solver.  Decides the game
by enumerating guess tables directly: depth-first over table cells in a
fixed interleaved order, trying every maximal guess set for each cell.
Restricting to maximal guess sets (exactly min(guess_count, q) colors)
is sound because enlarging a guess set never removes a correct guess;
any winning strategy stays winning after padding to maximal sets.

A branch dies as soon as some fully determined assignment defeats it:
once every cell an assignment reads is filled and none of them guesses
the assignment's color, no completion can save it.  That check is the
only pruning; nothing else is shared with the production search.

On stars a second oracle enumerates the leaves' tables only and derives
what the center must cover, which finishes where the table search does
not.

The longest-cycle oracle tries every cyclic ordering of every vertex
subset, so it shares nothing with the backtracking circumference search.

The cut-split reference plays the cut-vertex split of
construct.oracle_lemma_rus (with its default exhaustive part-2 premise)
by looping over every part-1 coloring in lexicographic order and reading
each player's guess from its table, and builds part 2's two-guess game
with the eager view referees below, so it shares neither the assignment
masks nor the read-through views the production engine uses.

The closure referee plays construct.oracle_closure: it peels leaves,
smallest first, and reads each leaf's guesses with game.guesses_at over
every coloring of its ancestors, so it shares neither the digit ranges
nor game.entry_places with the production engine.

The layout referee builds the solver's covering layout one assignment,
vertex and neighbor at a time, and finds each cell's lowest member by
scanning the assignments, so it shares neither the column build of
solver._Layout nor game.lex_masks.

The view referees are the eager copies game.reindex and
game.merge_two_guess made before they read through: every entry of the
new game is computed, and every parent entry it covers read, when the
view is built.
"""

from functools import reduce
from itertools import combinations, permutations, product
from operator import and_

from hatcheck.errors import PremiseViolationError
from hatcheck.game import ColorBudget, Strategy, enumerate_assignments, guesses_at, table_size
from hatcheck.graphs import Graph, induced_subgraph
from hatcheck.guards import DEFAULT_GUARDS, Guards


def naive_players_win(
    g: Graph,
    budget: ColorBudget,
    guess_count: int,
    guards: Guards = DEFAULT_GUARDS,
):
    """Return (True, winning Strategy) or (False, None) by table search."""
    n = g.vertex_count
    qs = budget.sizes
    guards.check("assignment", budget.product())
    guards.check("enumeration", budget.product())

    assigns = list(enumerate_assignments(budget))

    # flatten cells and fix the fill order: entry index, then vertex
    cells = []
    for v in range(n):
        for i in range(table_size(g, budget, v)):
            cells.append((i, v))
    cells.sort()
    order = [(v, i) for i, v in cells]
    pos_of = {vi: p for p, vi in enumerate(order)}

    # candidate guess sets per cell: all maximal ones, lexicographic
    candidates = []
    for v, _ in order:
        size = min(guess_count, qs[v])
        candidates.append(tuple(combinations(range(qs[v]), size)))

    # entry index each assignment reads at each vertex
    def entry_index(v, colors):
        idx = 0
        for u in g.neighbors(v):
            idx = idx * qs[u] + colors[u]
        return idx

    reads = []
    for colors in assigns:
        reads.append(tuple(pos_of[(v, entry_index(v, colors))] for v in range(n)))

    # assignments become fully determined when their last cell fills
    determined_at = [[] for _ in order]
    for a, row in enumerate(reads):
        determined_at[max(row)].append(a)

    filled = [None] * len(order)

    def defeated(a):
        colors = assigns[a]
        row = reads[a]
        for v in range(n):
            if colors[v] in filled[row[v]]:
                return False
        return True

    def extend(p):
        if p == len(order):
            return True
        for guess_set in candidates[p]:
            filled[p] = guess_set
            if not any(defeated(a) for a in determined_at[p]):
                if extend(p + 1):
                    return True
        filled[p] = None
        return False

    if extend(0):
        tables = [[None] * table_size(g, budget, v) for v in range(n)]
        for p, (v, i) in enumerate(order):
            tables[v][i] = filled[p]
        strategy = Strategy(
            g, budget, guess_count, tuple(tuple(t) for t in tables)
        )
        return True, strategy
    return False, None


def naive_hg(g: Graph, guess_count: int, guards: Guards = DEFAULT_GUARDS) -> int:
    """Largest uniform budget the players win, by pure table search."""
    q = 1
    while True:
        won, _ = naive_players_win(
            g, ColorBudget.uniform(g.vertex_count, q + 1), guess_count, guards
        )
        if not won:
            return q
        q += 1


def naive_star_players_win(leaves: int, q: int, guess_count: int) -> bool:
    """Decide the game on the star K1,leaves (center 0) at q colors each by
    enumerating the leaves' tables alone.

    A leaf sees only the center, so its table maps the center's color to a
    guess set.  Given the leaf tables, let S_c be the leaf colorings that no
    leaf guesses while the center wears c.  The center sees the leaf
    coloring, so it covers each one for at most guess_count centre colors,
    and the players win iff some leaf tables put no leaf coloring in more
    than guess_count of the sets S_c.  Leaves take maximal guess sets only,
    as in naive_players_win.  This finishes K1,3 at 3 colors, which the
    table search does not.
    """
    sets = list(combinations(range(q), min(guess_count, q)))
    colorings = list(product(range(q), repeat=leaves))
    everything = (1 << len(colorings)) - 1
    # missed[i][s]: the leaf colorings in which leaf i's color is outside set s
    missed = [
        [sum(1 << k for k, x in enumerate(colorings) if x[i] not in s) for s in sets]
        for i in range(leaves)
    ]
    for tables in product(product(range(len(sets)), repeat=q), repeat=leaves):
        unguessed = []  # S_c as a mask over colorings
        for c in range(q):
            mask = everything
            for i in range(leaves):
                mask &= missed[i][tables[i][c]]
            unguessed.append(mask)
        if not any(reduce(and_, group) for group in combinations(unguessed, guess_count + 1)):
            return True
    return False


def naive_circumference(g: Graph) -> int:
    """Longest cycle length (0 if acyclic) over every vertex subset of size
    >= 3 and every ordering of it that fixes its smallest vertex first."""
    n = g.vertex_count
    if n > 7:
        raise ValueError("naive_circumference is meant for n <= 7")
    for size in range(n, 2, -1):
        for subset in combinations(range(n), size):
            for rest in permutations(subset[1:]):
                ring = (subset[0],) + rest
                if all(g.has_edge(ring[i - 1], ring[i]) for i in range(size)):
                    return size
    return 0


def naive_cut_split_defeat(g: Graph, v: int, part1, part2, ell: int, strategy: Strategy):
    """(assignment, log) of the cut-vertex split at v against a one-guess
    strategy at uniform ell + 1, or PremiseViolationError as the oracle
    raises it (same message, same witness tables)."""
    q = ell + 1
    part1, part2 = tuple(sorted(part1)), tuple(sorted(part2))
    nv1 = tuple(u for u in g.neighbors(v) if u in part1)

    def guess(u, colors):
        idx = 0
        for w in g.neighbors(u):
            idx = idx * q + colors[w]
        return strategy.tables[u][idx][0]

    def part1_violation(guess_of_alpha):
        g1, kept1 = induced_subgraph(g, part1)
        tables = tuple(
            tuple((guess_of_alpha(alpha),) for alpha in product(range(q), repeat=len(nv1)))
            if u == v else strategy.tables[u]
            for u in kept1
        )
        witness = Strategy(g1, ColorBudget.uniform(len(part1), q), 1, tables)
        return PremiseViolationError(f"adversary wins the one-guess game on part 1 at {q} colors", witness=witness)

    # first surviving part-1 coloring per (view of v, color of v)
    groups = {}
    colors = [0] * g.vertex_count
    for phi in product(range(q), repeat=len(part1)):
        for u, c in zip(part1, phi):
            colors[u] = c
        if all(guess(u, colors) != colors[u] for u in part1 if u != v):
            alpha = tuple(colors[u] for u in nv1)
            groups.setdefault(alpha, {}).setdefault(colors[v], dict(zip(part1, phi)))
    if not groups:
        raise part1_violation(lambda alpha: 0)
    stars = [alpha for alpha in sorted(groups) if len(groups[alpha]) >= 2]
    if not stars:
        raise part1_violation(lambda alpha: min(groups.get(alpha, {0: None})))
    gammas = sorted(groups[stars[0]])[:2]
    phis = [groups[stars[0]][c] for c in gammas]
    log = [f"cut-split view {stars[0]} at {v} extends to colors {tuple(gammas)}"]

    # part 2: every other vertex guesses from v's two colors at once, the
    # exhaustive two-guess scan dodges them all, and v dodges its own guess
    fixed = {u: c for u, c in phis[0].items() if u != v}
    g2, kept2 = induced_subgraph(g, part2)
    v2 = kept2.index(v)
    on_part2 = eager_reindex(strategy, g2, ColorBudget.uniform(len(part2), q), kept2, fixed)
    rest = tuple(i for i in range(len(part2)) if i != v2)
    h2, _ = induced_subgraph(g2, rest)
    h2_budget = ColorBudget.uniform(len(rest), q)
    merged = eager_merge_two_guess(*(eager_reindex(on_part2, h2, h2_budget, rest, {v2: c}) for c in gammas))
    for tail in product(range(q), repeat=len(rest)):
        if all(tail[i] not in merged.tables[i][merged.entry_index(i, tail)] for i in range(len(rest))):
            break
    else:
        raise PremiseViolationError(
            f"adversary wins the two-guess game on part 2 minus the cut vertex at {q} colors",
            witness=merged,
        )
    log.append(f"  exhaustive hit {tail}")
    out = [0] * g.vertex_count
    for u, c in phis[0].items():
        out[u] = c
    for i, u in enumerate(rest):
        out[kept2[u]] = tail[i]
    vguess = guess(v, out)
    pick = 1 if vguess == gammas[0] else 0
    log.append(f"two-color vertex {v2}: determined guess {vguess}, assign {gammas[pick]}")
    for u, c in phis[pick].items():
        out[u] = c
    return tuple(out), tuple(log)


def eager_reindex(strategy: Strategy, graph: Graph, budget: ColorBudget, kept, fixed=None) -> Strategy:
    """game.reindex as a full copy, for views that meet its preconditions."""
    g, b = strategy.graph, strategy.budget
    fixed = fixed or {}
    pos = {old: new for new, old in enumerate(kept)}
    tables = []
    for i, old in enumerate(kept):
        # old entry index = base + sum over new neighbors j of stride[j] * color(j)
        stride = dict.fromkeys(graph.neighbors(i), 0)
        base, place = 0, 1
        for u in reversed(g.neighbors(old)):
            if u in fixed:
                base += fixed[u] * place
            else:
                stride[pos[u]] = place
            place *= b[u]
        idxs = [base]
        for j, w in stride.items():
            idxs = [x + c * w for x in idxs for c in range(budget[j])]
        rows, q = strategy.tables[old], budget[i]
        # a guess outside the new budget becomes color 0
        tables.append(tuple(tuple(sorted({c if c < q else 0 for c in rows[x]})) for x in idxs))
    return Strategy(graph, budget, strategy.guess_count, tuple(tables))


def eager_merge_two_guess(a: Strategy, b: Strategy) -> Strategy:
    """game.merge_two_guess as a full copy: the entrywise sorted union."""
    tables = tuple(
        tuple(tuple(sorted(set(ea) | set(eb))) for ea, eb in zip(ta, tb))
        for ta, tb in zip(a.tables, b.tables)
    )
    return Strategy(a.graph, a.budget, 2, tables)


def naive_layout(g: Graph, budget: ColorBudget, guess_count: int) -> dict:
    """solver._Layout's cells_of, offsets, cell_owner, capacity, weight
    and lowest, by the per-assignment loop."""
    n = g.vertex_count
    qs = budget.sizes
    total_assignments = budget.product()
    assigns = list(enumerate_assignments(budget))

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

    cells_of = []
    for colors in assigns:
        row = []
        for v in range(n):
            idx = 0
            for u in g.neighbors(v):
                idx = idx * qs[u] + colors[u]
            row.append(offsets[v] + idx)
        cells_of.append(row)

    lowest = [None] * ncells
    for a, row in enumerate(cells_of):
        for c in row:
            if lowest[c] is None:
                lowest[c] = a
    return {
        "cells_of": cells_of, "offsets": offsets, "cell_owner": cell_owner,
        "capacity": capacity, "weight": weight, "lowest": lowest,
    }


def naive_closure_defeat(tree, strategy: Strategy) -> tuple:
    """construct.oracle_closure's defeat of strategy, a two-guess strategy
    on the closure of tree: each leaf in turn, smallest first, takes the
    smallest color none of its guesses names over every coloring of its
    ancestors, its descendants wearing the colors they already took."""
    n = tree.vertex_count
    out, peeled = [0] * n, set()
    while len(peeled) < n:
        leaf = min(v for v in range(n) if v not in peeled and peeled.issuperset(tree.children[v]))
        ancestors = tree.ancestors(leaf)
        guessed = set()
        for colors in product(*[range(strategy.budget[u]) for u in ancestors]):
            assignment = list(out)
            for u, c in zip(ancestors, colors):
                assignment[u] = c
            guessed.update(guesses_at(strategy, leaf, assignment))
        out[leaf] = min(c for c in range(len(guessed) + 1) if c not in guessed)
        peeled.add(leaf)
    return tuple(out)

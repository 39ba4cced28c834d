"""Command-line front end: analyze, solve, bound, verify.

Reports are line oriented ("key: value") and deterministic for a fixed
input file, flags, and seed; the wall-time line always comes last so
callers can drop it when comparing runs.  Exit codes: 0 success, 2
parse/usage error, 3 guard refusal, 4 a claimed defeat failed to check,
5 premise violation.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time

import mpmath

from .bounds import (
    BigBound,
    circ_bound,
    lll_degree_bound,
    n_h_t_closed,
    n_h_t_recursive,
    sylvester,
    two_guess_seq,
)
from .construct import (
    oracle_closure,
    oracle_exhaustive,
    oracle_lemma_blocks,
    oracle_lemma_is,
    oracle_lemma_rus,
    oracle_lemma_two_at_v,
    oracle_theorem_circ,
    oracle_theorem_tary,
)
from .errors import (
    DisconnectedGraphError,
    GraphParseError,
    GuardExceededError,
    PremiseViolationError,
    VerificationFailureError,
)
from .game import (
    ColorBudget,
    Strategy,
    enumerate_strategies,
    is_defeating,
    random_strategy,
    strategy_space_size,
    strategy_to_text,
)
from .graphs import (
    Graph,
    block_decomposition,
    circumference,
    connected_components,
    dfs_treedepth_certificate,
    format_blocks,
    format_tree,
    greedy_proper_coloring,
    induced_subgraph,
    parse_graph,
    tree_from_graph,
)
from .guards import Guards, guards_from_env
from .rng import SplitMix64
from .solver import PLAYERS, hg2_exact, hg_exact, players_win

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GUARD = 3
EXIT_VERIFY = 4
EXIT_PREMISE = 5

_APPROX_PREC = 80  # mpmath working precision for display-only arithmetic

LEMMAS = ("is", "two", "rus", "blocks", "closure", "circ", "tary")


# ---------------------------------------------------------------------------
# shared rendering
# ---------------------------------------------------------------------------

def _load_graph(path: str):
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    return parse_graph(raw.decode("utf-8")), digest


def _ints(xs) -> str:
    return " ".join(map(str, xs))


def _budget_line(budget: ColorBudget) -> str:
    return _ints(budget.sizes)


def _indented(text: str) -> list:
    return ["  " + ln for ln in text.rstrip("\n").split("\n")]


def _bound_lines(label: str, bound: BigBound) -> list:
    """Exact integers in decimal, log2 forms as 2^<float>, plus a short
    decimal approximation for exact rationals and the interval for
    enclosed values."""
    out = [f"{label}: {bound.to_text()}"]
    with mpmath.workprec(_APPROX_PREC):
        if bound.is_exact and not isinstance(bound.exact, int):
            lo, hi = bound.log2_interval()
            mid = (lo + hi) / 2
            out.append(f"{label}_approx: {mpmath.nstr(mpmath.mpf(2) ** mid, 12)}")
        elif not bound.is_exact:
            lo, hi = bound.log2_interval()
            out.append(
                f"{label}_log2_interval: [{mpmath.nstr(lo, 17)}, {mpmath.nstr(hi, 17)}]"
            )
    return out


def _parse_budget_arg(text: str, n: int) -> ColorBudget:
    parts = [p for p in text.replace(",", " ").split() if p]
    try:
        sizes = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"budget must be integers, got {text!r}") from None
    if len(sizes) == 1:
        return ColorBudget.uniform(n, sizes[0])
    if len(sizes) != n:
        raise ValueError(f"budget needs 1 or {n} entries, got {len(sizes)}")
    return ColorBudget(sizes)


def _parse_trials(text: str):
    if text == "exhaustive":
        return text
    try:
        k = int(text)
    except ValueError:
        raise ValueError(f"--trials must be an integer or 'exhaustive', got {text!r}") from None
    if k < 1:
        raise ValueError("--trials must be positive")
    return k


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args, lines: list, guards: Guards) -> int:
    g, digest = _load_graph(args.graph)
    lines.append(f"input_sha256: {digest}")
    lines.append(f"vertices: {g.vertex_count}")
    lines.append(f"edges: {g.edge_count}")
    bd = block_decomposition(g)
    lines.extend(format_blocks(bd))
    try:
        lines.append(f"circumference: {circumference(g, guards)}")
    except GuardExceededError:
        lines.append("circumference: beyond-guard")
    for i, blk in enumerate(bd.blocks):
        sub, kept = induced_subgraph(g, blk)
        cert = dfs_treedepth_certificate(sub)
        parents = " ".join(
            "-" if p is None else str(kept[p]) for p in cert.tree.parent
        )
        lines.append(f"block {i} treedepth_certificate: depth={cert.depth} parents={parents}")
    for j, cls in enumerate(greedy_proper_coloring(g)):
        lines.append(f"color_class {j}: {_ints(cls)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(args, lines: list, guards: Guards) -> int:
    g, digest = _load_graph(args.graph)
    lines.append(f"input_sha256: {digest}")
    lines.append(f"guesses: {args.guesses}")
    if args.sweep:
        solve = hg_exact if args.guesses == 1 else hg2_exact
        lines.append(f"{'hg' if args.guesses == 1 else 'hg2'}: {solve(g, guards)}")
        return EXIT_OK
    if args.budget is None:
        raise ValueError("--budget is required without --sweep")
    budget = _parse_budget_arg(args.budget, g.vertex_count)
    lines.append(f"budget: {_budget_line(budget)}")
    outcome = players_win(g, budget, args.guesses, guards)
    lines.append(f"winner: {outcome.winner}")
    if outcome.winner == PLAYERS:
        lines.append("certificate:")
        lines.extend(_indented(strategy_to_text(outcome.certificate)))
    elif args.dump:
        lines.append(f"refuted_branches: {outcome.refuted}")
        for branch_id, assignment in outcome.transcript:
            lines.append(f"  branch {branch_id} defeated-by {_ints(assignment)}")
        if outcome.transcript_truncated:
            lines.append("  transcript truncated")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def cmd_bound(args, lines: list, guards: Guards) -> int:
    chosen = [
        name
        for name, val in (
            ("seq", args.seq),
            ("circ", args.circ),
            ("tary", args.tary),
            ("lll", args.lll),
        )
        if val is not None
    ]
    if len(chosen) != 1:
        raise ValueError("pick exactly one of --seq, --circ, --tary, --lll")
    kind = chosen[0]
    if kind == "seq":
        if args.n is None:
            raise ValueError("--seq needs --n")
        lines.append(f"seq: {args.seq}")
        lines.append(f"n: {args.n}")
        fn = sylvester if args.seq == "sylvester" else two_guess_seq
        lines.extend(_bound_lines("value", fn(args.n)))
    elif kind == "circ":
        lines.append(f"circ: {args.circ}")
        lines.extend(_bound_lines("value", circ_bound(args.circ)))
    elif kind == "tary":
        h, t = args.tary
        lines.append(f"height: {h}")
        lines.append(f"branching: {t}")
        lines.extend(_bound_lines("recursive", n_h_t_recursive(h, t)))
        lines.extend(_bound_lines("closed", n_h_t_closed(h, t)))
    else:
        lines.append(f"t: {args.lll}")
        lines.append(f"value: {lll_degree_bound(args.lll):.6f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _greedy_independent_set(g: Graph) -> tuple:
    chosen = []
    taken = set()
    for v in g.vertices():
        if not any(u in taken for u in g.neighbors(v)):
            chosen.append(v)
            taken.add(v)
    return tuple(chosen)


def _derive_is(g: Graph, args, guards: Guards, lines: list):
    u_set = _greedy_independent_set(g)
    rest = tuple(v for v in g.vertices() if v not in set(u_set))
    r = max(1, max((len(g.neighbors(u)) for u in u_set), default=1))
    if args.ell is not None:
        ell = args.ell
    elif rest:
        rest_graph, _ = induced_subgraph(g, rest)
        ell = max(2, hg_exact(rest_graph, guards) + 1)
    else:
        ell = 2
    lines.append(f"u_set: {_ints(u_set)}")
    lines.append(f"r: {r}")
    lines.append(f"ell: {ell}")
    rest_graph, _ = induced_subgraph(g, rest)
    sub = oracle_exhaustive(rest_graph, ColorBudget.uniform(len(rest), ell), 1, guards)
    orc = oracle_lemma_is(g, u_set, r, ell, sub, guards)
    return orc.defeat, orc.budget, 1, orc, ()


def _derive_two(g: Graph, args, guards: Guards, lines: list):
    v = args.vertex if args.vertex is not None else 0
    if not 0 <= v < g.vertex_count:
        raise ValueError(f"--vertex {v} out of range")
    rest = tuple(u for u in g.vertices() if u != v)
    h_graph, _ = induced_subgraph(g, rest)
    if args.ell is not None:
        ell = args.ell
    else:
        ell = hg2_exact(h_graph, guards) if rest else 1
    pair = (0, 1)
    lines.append(f"v: {v}")
    lines.append(f"two_colors: {_ints(pair)}")
    lines.append(f"ell: {ell}")
    sub2 = oracle_exhaustive(h_graph, ColorBudget.uniform(len(rest), ell + 1), 2, guards)
    defeat = oracle_lemma_two_at_v(g, v, pair, ell, sub2, guards)
    budget = ColorBudget(tuple(2 if u == v else ell + 1 for u in g.vertices()))
    return defeat, budget, 1, None, ()


def _derive_rus(g: Graph, args, guards: Guards, lines: list):
    bd = block_decomposition(g)
    if bd.cut_vertices:
        v = min(bd.cut_vertices)
        comps = connected_components(induced_subgraph(g, [u for u in g.vertices() if u != v])[0])
        kept = [u for u in g.vertices() if u != v]
        comps_orig = sorted(tuple(sorted(kept[i] for i in comp)) for comp in comps)
        part2 = tuple(sorted((v,) + comps_orig[0]))
        part1 = tuple(sorted(set(g.vertices()) - set(comps_orig[0])))
    else:
        v = 0
        part1 = tuple(g.vertices())
        part2 = (v,)
    if args.ell is not None:
        ell = args.ell
    else:
        g1_graph, _ = induced_subgraph(g, part1)
        h2 = tuple(u for u in part2 if u != v)
        need = hg_exact(g1_graph, guards)
        if h2:
            h2_graph, _ = induced_subgraph(g, h2)
            need = max(need, hg2_exact(h2_graph, guards))
        ell = max(1, need)
    lines.append(f"v: {v}")
    lines.append(f"part1: {_ints(part1)}")
    lines.append(f"part2: {_ints(part2)}")
    lines.append(f"ell: {ell}")
    orc = oracle_lemma_rus(g, v, part1, part2, ell, guards)
    return orc.defeat, orc.budget, 1, orc, ()


def _derive_blocks(g: Graph, args, guards: Guards, lines: list):
    if args.ell is not None:
        ell = args.ell
    else:
        bd = block_decomposition(g)
        ell = 1
        for blk in bd.blocks:
            blk_graph, _ = induced_subgraph(g, blk)
            ell = max(ell, hg2_exact(blk_graph, guards))
    lines.append(f"ell: {ell}")
    orc = oracle_lemma_blocks(g, ell, guards)
    return orc.defeat, orc.budget, 1, orc, ()


def _derive_closure(g: Graph, args, guards: Guards, lines: list):
    tree = tree_from_graph(g, root=0)
    lines.append(f"tree_parents: {format_tree(tree)}")
    orc = oracle_closure(tree, 2, guards)
    lines.append(f"heights: {_ints(tree.heights)}")
    return orc.defeat, orc.budget, 2, orc, ()


def _derive_circ(g: Graph, args, guards: Guards, lines: list):
    if args.ell is not None:
        orc, bound = oracle_theorem_circ(g, guards, ell=args.ell)
        ell = args.ell
    else:
        orc, ell = None, None
        last_err = None
        for depth in range(1, 21):
            seq_val = two_guess_seq(depth)
            if not seq_val.is_exact:
                break
            cand = int(seq_val.exact) - 1
            try:
                orc, bound = oracle_theorem_circ(g, guards, ell=cand)
                ell = cand
                break
            except ValueError as err:
                last_err = err
        if orc is None:
            raise last_err or ValueError("no workable budget found")
    lines.append(f"ell: {ell}")
    bound_lines = _bound_lines("bound", bound)
    if orc is None:
        lines.extend(bound_lines)
        raise GuardExceededError("assignment", "circumference-pipeline budget", guards.assignment)
    return orc.defeat, orc.budget, 1, orc, tuple(bound_lines)


def _derive_tary(g: Graph, args, guards: Guards, lines: list):
    max_deg = max((len(g.neighbors(v)) for v in g.vertices()), default=0)
    t = args.branching if args.branching is not None else max(2, max_deg + 1)
    h = args.height if args.height is not None else 1
    lines.append(f"branching: {t}")
    lines.append(f"height: {h}")
    orc, bound = oracle_theorem_tary(g, t, h, guards)
    bound_lines = _bound_lines("bound", bound)
    if orc is None:
        lines.extend(bound_lines)
        raise GuardExceededError("assignment", "subtree-pipeline budget", guards.assignment)
    return orc.defeat, orc.budget, 1, orc, tuple(bound_lines)


_DERIVERS = {
    "is": _derive_is,
    "two": _derive_two,
    "rus": _derive_rus,
    "blocks": _derive_blocks,
    "closure": _derive_closure,
    "circ": _derive_circ,
    "tary": _derive_tary,
}


def cmd_verify(args, lines: list, guards: Guards) -> int:
    g, digest = _load_graph(args.graph)
    trials = _parse_trials(args.trials)
    lines.append(f"input_sha256: {digest}")
    lines.append(f"lemma: {args.lemma}")
    lines.append(f"seed: {args.seed}")
    lines.append(f"trials: {trials}")
    defeat, budget, guess_count, oracle, bound_lines = _DERIVERS[args.lemma](
        g, args, guards, lines
    )
    # strategies live on the oracle's graph (the closure adversary plays
    # on cl(T), not on the input tree itself)
    space = oracle.graph if oracle is not None else g
    lines.append(f"budget: {_budget_line(budget)}")
    lines.extend(bound_lines)
    if args.dump and oracle is not None:
        lines.append("construction:")
        lines.extend("  " + ln for ln in oracle.construction)

    if trials == "exhaustive":
        total = strategy_space_size(space, budget, guess_count)
        guards.check("enumeration", total)
        strategies = enumerate_strategies(space, budget, guess_count)
    else:
        total = trials
        rng = SplitMix64(args.seed)
        strategies = (
            random_strategy(space, budget, guess_count, rng) for _ in range(trials)
        )
    count = 0
    first_trace = None
    for strategy in strategies:
        if args.dump and first_trace is None and oracle is not None:
            assignment, trace = oracle.defeat_traced(strategy)
            first_trace = trace
        else:
            assignment = defeat(strategy)
        if not budget.contains(assignment) or not is_defeating(strategy, assignment):
            raise VerificationFailureError(
                "claimed defeat does not check out",
                strategy=strategy,
                assignment=assignment,
            )
        count += 1
    if args.dump and first_trace is not None:
        lines.append("first_defeat_trace:")
        lines.extend("  " + ln for ln in first_trace)
    lines.append(f"defeated: {count}/{total}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hatcheck",
        description="exact solving, certified bounds, and adversary verification "
        "for hat guessing games on graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="block structure, circumference, certificates")
    pa.add_argument("graph", help="edge-list file: 'n m' header then 'u v' lines")
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("solve", help="exact game solving")
    ps.add_argument("graph")
    ps.add_argument("--guesses", type=int, choices=(1, 2), default=1)
    ps.add_argument("--budget", help="uniform size or comma-separated per-vertex sizes")
    ps.add_argument("--sweep", action="store_true", help="find the exact game value")
    ps.add_argument("--dump", action="store_true", help="include the refutation transcript")
    ps.set_defaults(func=cmd_solve)

    pb = sub.add_parser("bound", help="certified bound calculator")
    pb.add_argument("--seq", choices=("sylvester", "a"))
    pb.add_argument("--n", type=int)
    pb.add_argument("--circ", type=int)
    pb.add_argument("--tary", nargs=2, type=int, metavar=("HEIGHT", "BRANCHING"))
    pb.add_argument("--lll", type=int)
    pb.set_defaults(func=cmd_bound)

    pv = sub.add_parser("verify", help="run an adversary construction against strategies")
    pv.add_argument("graph")
    pv.add_argument("--lemma", required=True, choices=LEMMAS)
    pv.add_argument("--trials", default="1000", help="positive integer or 'exhaustive'")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--ell", type=int, help="override the derived budget parameter")
    pv.add_argument("--vertex", type=int, help="override the distinguished vertex (two)")
    pv.add_argument("--branching", type=int, help="override t (tary)")
    pv.add_argument("--height", type=int, help="override h (tary)")
    pv.add_argument("--dump", action="store_true", help="include construction and trace")
    pv.set_defaults(func=cmd_verify)
    return parser


def _witness_lines(witness) -> list:
    if isinstance(witness, Strategy):
        out = [f"witness_budget: {_budget_line(witness.budget)}"]
        out.append("witness_strategy:")
        out.extend(_indented(strategy_to_text(witness)))
        return out
    if witness is None:
        return []
    try:
        return [f"witness_embedding: {_ints(witness)}"]
    except TypeError:
        return [f"witness: {witness!r}"]


def entry(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    lines = [f"command: {args.command}"]
    try:
        code = args.func(args, lines, guards_from_env())
    except (GraphParseError, DisconnectedGraphError, ValueError, OSError) as exc:
        lines.append(f"error: {exc}")
        code = EXIT_PARSE
    except GuardExceededError as exc:
        lines.append(f"error: {exc}")
        code = EXIT_GUARD
    except VerificationFailureError as exc:
        lines.append(f"verification_failure: {exc}")
        if exc.strategy is not None:
            lines.append("counterexample_strategy:")
            lines.extend(_indented(strategy_to_text(exc.strategy)))
        if exc.assignment is not None:
            lines.append(f"claimed_assignment: {_ints(exc.assignment)}")
        code = EXIT_VERIFY
    except PremiseViolationError as exc:
        lines.append(f"premise_violation: {exc.claim}")
        lines.extend(_witness_lines(exc.witness))
        code = EXIT_PREMISE
    lines.append(f"wall_time_s: {time.perf_counter() - started:.3f}")
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(entry())

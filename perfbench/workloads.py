"""The three workloads: sweep, verify and certify.

Constructing a workload object is the set-up of one pass (the caller
also times the import before it): it generates the inputs and builds
the program's objects.  Inputs derive from the workload seed alone, so
every pass of a run does the same work.  run() then executes the pass, a
fixed list of operations run as a closed loop, one call after the
previous one returns, and returns the wall time of each query family
with the problems found by the independent checks, which run outside
the timed operations.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import time
import traceback

import reference as ref

LEMMAS = ("is", "two", "rus", "blocks", "closure", "circ", "tary")


class PassResult:
    def __init__(self, families) -> None:
        self.times = dict.fromkeys(families, 0.0)    # wall seconds
        self.timed_ops = dict.fromkeys(families, 0)
        self.ops = 0
        self.failed = 0
        self.problems = []

    def add(self, family: str, seconds: float, ops: int = 1) -> None:
        self.times[family] += seconds
        self.timed_ops[family] += ops

    @property
    def pass_s(self) -> float:
        return sum(self.times.values())

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)


def _call(tracer, kind, fn, *args):
    """One operation: returns (result or exception, seconds)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = fn(*args)
        else:
            tracer.op += 1
            out = tracer.call(f"op.{kind}", fn, args, {})
    except Exception as exc:  # a failed operation is counted, the run goes on
        traceback.print_exc()
        out = exc
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# sweep: exact game values
# ---------------------------------------------------------------------------

GRAPHS = (
    ("K1", 1, ()),
    ("K2", 2, ((0, 1),)),
    ("P3", 3, ((0, 1), (1, 2))),
    ("K3", 3, ((0, 1), (0, 2), (1, 2))),
    ("P4", 4, ((0, 1), (1, 2), (2, 3))),
    ("K1,3", 4, ((0, 1), (0, 2), (0, 3))),
    ("paw", 4, ((0, 1), (0, 2), (1, 2), (2, 3))),
    ("diamond", 4, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3))),
    ("K4", 4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
)
HG2_GRAPHS = ("K1", "K2", "P3", "K3", "K4")
# C4 is left out: its one players_win call at q = 3 takes 13-24 s (by
# labelling and machine load), so a run could hold only one sample and
# its run-to-run spread was a quarter of the median.  Add it back once a
# solver change brings it near a second and several passes fit in a run.


def labelled_forms(n, edges, rng) -> list:
    """Every labelled form of a graph on at most three vertices, in seeded
    order, and one seeded labelling of a larger graph.

    Solver cost depends on the labelling: two-guess P3 takes 2.1-3.6 s by
    its three forms, so drawing one form by seed made pass time a lottery
    across seeds.  The 4-vertex trees vary far less (0.66-1.01 s at q = 3
    over their forms) and have up to twelve forms, so they get one each.
    """
    if n <= 3:
        forms = sorted({tuple(ref.relabel(edges, p)) for p in itertools.permutations(range(n))})
        rng.shuffle(forms)
        return forms
    return [tuple(ref.relabel(edges, rng.sample(range(n), n)))]


class Sweep:
    families = ("hg_s", "hg2_s")

    def __init__(self, api, seed: int) -> None:
        rng = random.Random(f"sweep:{seed}")
        self.jobs = []
        for family, solve, names, table in (
            ("hg_s", api.hg_exact, [g[0] for g in GRAPHS], ref.HG),
            ("hg2_s", api.hg2_exact, HG2_GRAPHS, ref.HG2),
        ):
            for name, n, edges in GRAPHS:
                if name not in names:
                    continue
                for labelled in labelled_forms(n, edges, rng):
                    want, _ = table[ref.iso_key(n, labelled)]
                    self.jobs.append((family, name, solve, api.Graph.from_edges(n, labelled), want))

    def run(self, tracer) -> PassResult:
        res = PassResult(self.families)
        for family, name, solve, graph, want in self.jobs:
            got, dt = _call(tracer, family[:-2], solve, graph)
            res.add(family, dt)
            res.ops += 1
            if got != want:
                res.fail(f"{family[:-2]}({name} {sorted(graph.edges)}) = {got!r}, reference {want}")
        return res


# ---------------------------------------------------------------------------
# verify: adversary constructions against seeded random strategies
# ---------------------------------------------------------------------------

# trials per lemma and pass: about 0.35 s each at the seed commit
TRIALS = {"is": 3000, "two": 1200, "rus": 50, "blocks": 120, "closure": 200, "circ": 8, "tary": 320}


def _defeat_fn(made):
    """The defeat callable of an oracle, or the builder's bare function."""
    return made.defeat if hasattr(made, "defeat") else made


def build_instances(api, tracer=None) -> dict:
    """Reference instances of each lemma: (graph, budget, guesses, defeat)."""
    g = api.Graph.from_edges

    def k(n):
        return g(n, [(a, b) for a in range(n) for b in range(a + 1, n)])

    def path(n):
        return g(n, [(i, i + 1) for i in range(n - 1)])

    def is_():
        sub = api.oracle_exhaustive(api.Graph(1, frozenset()), api.ColorBudget.uniform(1, 2), 1)
        orc = api.oracle_lemma_is(g(3, [(0, 1), (0, 2)]), (1, 2), 1, 2, sub)
        return orc.graph, orc.budget, 1, orc

    def two():
        sub2 = api.oracle_exhaustive(k(2), api.ColorBudget.uniform(2, 5), 2)
        made = api.oracle_lemma_two_at_v(path(3), 0, (0, 1), 4, sub2)
        return path(3), api.ColorBudget((2, 5, 5)), 1, made

    def rus():
        bowtie = g(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        orc = api.oracle_lemma_rus(bowtie, 2, (0, 1, 2), (2, 3, 4), 6)
        return orc.graph, orc.budget, 1, orc

    def blocks():
        orc = api.oracle_lemma_blocks(g(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]), 6)
        return orc.graph, orc.budget, 1, orc

    def closure():
        orc = api.oracle_closure(api.RootedTree((None, 0, 1), 0))
        return orc.graph, orc.budget, 2, orc

    def circ():
        orc, _ = api.oracle_theorem_circ(k(3), ell=42)
        return orc.graph, orc.budget, 1, orc

    def tary():
        orc, _ = api.oracle_theorem_tary(g(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), 3, 1)
        return orc.graph, orc.budget, 1, orc

    builders = {"is": is_, "two": two, "rus": rus, "blocks": blocks,
                "closure": closure, "circ": circ, "tary": tary}
    out = {}
    for lemma in LEMMAS:
        if tracer is not None:
            tracer.ctx = lemma
        graph, budget, guesses, made = builders[lemma]()
        out[lemma] = (graph, budget, guesses, _defeat_fn(made))
    if tracer is not None:
        tracer.ctx = None
    return out


class Verify:
    families = tuple(f"defeats_per_s.{lemma}" for lemma in LEMMAS)

    def __init__(self, api, seed: int, tracer=None) -> None:
        self.api = api
        self.instances = build_instances(api, tracer)
        self.streams = {
            lemma: api.SplitMix64(random.Random(f"verify:{seed}:{lemma}").getrandbits(64))
            for lemma in LEMMAS
        }

    def trial(self, graph, budget, guesses, defeat, rng):
        """The trial loop body of `hatcheck verify`."""
        strategy = self.api.random_strategy(graph, budget, guesses, rng)
        assignment = defeat(strategy)
        ok = budget.contains(assignment) and self.api.is_defeating(strategy, assignment)
        return strategy, assignment, ok

    def run(self, tracer) -> PassResult:
        res = PassResult(self.families)
        for lemma in LEMMAS:
            graph, budget, guesses, defeat = self.instances[lemma]
            if tracer is not None:
                tracer.ctx = lemma
                plain = defeat
                defeat = lambda s, plain=plain: tracer.call("construct.defeat", plain, (s,), {})
            rng = self.streams[lemma]
            outcomes = []
            for _ in range(TRIALS[lemma]):
                out, dt = _call(tracer, "trial", self.trial, graph, budget, guesses, defeat, rng)
                outcomes.append((out, dt))
            if tracer is not None:
                tracer.ctx = None
            res.add(f"defeats_per_s.{lemma}", sum(dt for _, dt in outcomes), TRIALS[lemma])
            edges = sorted(graph.edges)
            for out, _ in outcomes:
                res.ops += 1
                if isinstance(out, Exception):
                    res.fail(f"{lemma}: {out!r}")
                    continue
                strategy, assignment, ok = out
                if not ok or not ref.defeats(graph.vertex_count, edges, budget.sizes,
                                             strategy.tables, assignment):
                    res.fail(f"{lemma}: {assignment} does not defeat the strategy")
        return res


# ---------------------------------------------------------------------------
# certify: bound and analyze queries through the CLI entry point
# ---------------------------------------------------------------------------

# exact-form terms: 0.2 s to 3.4 s, the largest printing 427k digits;
# the ladder is fixed because each step quadruples the cost
EXACT_SEQ = (("a", 19), ("a", 21), ("sylvester", 20), ("sylvester", 21))
# two labellings of each per pass.  K6,8 is left out: its circumference
# takes 2.7-6.3 s depending on the labelling, which alone moved a pass
# by a fifth from seed to seed; K6,7 runs the same search in about 1 s.
BIPARTITE = ((5, 7), (5, 8), (6, 7)) * 2


class Certify:
    families = ("bound_s", "analyze_s")

    def __init__(self, api, seed: int, workdir: str) -> None:
        self.entry = api.entry
        os.makedirs(workdir, exist_ok=True)
        rng = random.Random(f"certify:{seed}")
        self.jobs = jobs = []
        for seq, n in EXACT_SEQ:
            jobs.append(("bound_s", ["bound", "--seq", seq, "--n", str(n)], None))
        # log form: the switch is at n = 23 (a) and n = 24 (sylvester)
        jobs.append(("bound_s", ["bound", "--seq", "a", "--n", str(rng.randint(23, 64))], None))
        jobs.append(("bound_s", ["bound", "--seq", "sylvester", "--n", str(rng.randint(24, 64))], None))
        for c in range(3, 9):
            jobs.append(("bound_s", ["bound", "--circ", str(c)], None))
        for h, t in rng.sample([(h, t) for h in (1, 2, 3) for t in (2, 3, 4)], 3):
            jobs.append(("bound_s", ["bound", "--tary", str(h), str(t)], None))
        jobs.append(("bound_s", ["bound", "--lll", str(rng.randint(2, 12))], None))
        specs = [ref.complete_bipartite(a, b, rng.sample(range(a + b), a + b)) for a, b in BIPARTITE]
        specs += [ref.cactus_chain(rng) for _ in range(3)]
        for i, spec in enumerate(specs):
            path = os.path.join(workdir, f"certify-{i}.graph")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"{spec['n']} {len(spec['edges'])}\n")
                fh.writelines(f"{u} {v}\n" for u, v in spec["edges"])
            jobs.append(("analyze_s", ["analyze", path], spec))

    def query(self, argv, tracer):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                code = self.entry(argv)
            else:
                code = tracer.call("cli.entry", self.entry, (argv,), {})
        return code, buf.getvalue()

    def run(self, tracer) -> PassResult:
        res = PassResult(self.families)
        for family, argv, spec in self.jobs:
            out, dt = _call(tracer, family[:-2], self.query, argv, tracer)
            res.add(family, dt)
            res.ops += 1
            if isinstance(out, Exception) or out[0] != 0:
                res.fail(f"{' '.join(argv)}: {out!r}"[:300])
                continue
            found = ref.check_analyze(spec, out[1]) if spec else ref.check_bound(argv, out[1])
            if found:
                res.fail(f"{' '.join(argv)}: {', '.join(found)}")
        for _, argv, spec in self.jobs:
            if spec:
                os.remove(argv[1])
        return res

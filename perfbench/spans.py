"""In-memory spans around the calls into each hatcheck layer.

Only the traced run installs these wrappers; the untraced run executes
hatcheck unmodified.  Wrap points are found by introspecting the module
namespaces, so renamed or added functions are picked up without editing
the benchmark:

* solver: ``players_win`` (every call, split by guess count);
* game: public functions of ``hatcheck.game`` whose first parameter is a
  Strategy and whose result is not a plain value count as strategy
  transforms; ``random_strategy`` is sampling and ``is_defeating`` is
  checking; every ``Strategy`` construction is counted and timed in
  place, without a span, so its cost stays inside the caller's span;
* construct: every public builder in ``hatcheck.construct``; defeat calls
  are spanned by the benchmark itself;
* graphs, bounds: every public function of the module, plus
  ``BigBound.to_text`` as bounds formatting;
* cli: the benchmark spans its own calls to ``entry``.

A span records its id, its parent's id, the id of the benchmark
operation it belongs to, its name, a context label (lemma or guess
count), start, end and self time.  Self time is the span's duration
minus the time covered by its child spans (their bookkeeping included).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PLAIN_RESULTS = ("bool", "int", "str", "tuple", "float")


class Tracer:
    def __init__(self) -> None:
        self.spans = []     # (id, parent, op, name, ctx, start, end, self_s, info)
        self.stack = []     # open spans: [id, child time]
        self.next_id = 0
        self.op = 0
        self.ctx = None
        self.counts = {}    # (name, ctx) -> count, for un-spanned events
        self.timers = {}    # (name, ctx) -> seconds

    def call(self, name, fn, args, kwargs, ctx=None, info=None):
        """Run fn inside a span; info(result) may attach data to the span."""
        t_in = time.perf_counter()
        parent = self.stack[-1] if self.stack else None
        frame = [self.next_id, 0.0]
        self.next_id += 1
        self.stack.append(frame)
        result = None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            extra = info(args, kwargs, result) if info is not None else None
            self.spans.append((
                frame[0], parent[0] if parent else None, self.op, name,
                self.ctx if ctx is None else ctx, t0, t1, (t1 - t0) - frame[1], extra,
            ))
            t_out = time.perf_counter()
            if parent is not None:
                parent[1] += t_out - t_in

    def timed_count(self, name, fn, args, kwargs):
        """Count and time fn without opening a span."""
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            key = (name, self.ctx)
            self.counts[key] = self.counts.get(key, 0) + 1
            self.timers[key] = self.timers.get(key, 0.0) + (t1 - t0)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\top\tname\tctx\tstart\tend\tself_s\n")
            for sid, parent, op, name, ctx, t0, t1, self_s, _ in self.spans:
                fh.write(f"{sid}\t{'' if parent is None else parent}\t{op}\t{name}\t"
                         f"{ctx or ''}\t{t0:.9f}\t{t1:.9f}\t{self_s:.9f}\n")


# ---------------------------------------------------------------------------
# wrap points
# ---------------------------------------------------------------------------

def _hatcheck_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "hatcheck" or n.startswith("hatcheck.")]


def _public_functions(module):
    for name, value in sorted(vars(module).items()):
        if not name.startswith("_") and inspect.isfunction(value) and value.__module__ == module.__name__:
            yield name, value


def _annotation_name(annotation) -> str:
    return annotation if isinstance(annotation, str) else getattr(annotation, "__name__", "")


def _is_transform(fn) -> bool:
    params = list(inspect.signature(fn).parameters.values())
    if not params or "Strategy" not in _annotation_name(params[0].annotation):
        return False
    ret = inspect.signature(fn).return_annotation
    return ret is inspect.Signature.empty or _annotation_name(ret) not in PLAIN_RESULTS


def _solver_info(fn):
    """Span data for a players_win call: guess count, assignments, verdict."""
    sig = inspect.signature(fn)

    def info(args, kwargs, outcome):
        bound = sig.bind(*args, **kwargs)
        transcript = getattr(outcome, "transcript", None) or ()
        return {
            "assignments": bound.arguments["budget"].product(),
            "winner": getattr(outcome, "winner", None),
            "refuted": len(transcript),
        }

    return sig, info


def _wrapper(tracer, name, fn, ctx=None, info=None, defaults=None):
    """defaults: {parameter: (position, value)} applied when the caller omits it."""

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        for key, (pos, value) in (defaults or {}).items():
            if len(args) <= pos:
                kwargs.setdefault(key, value)
        return tracer.call(name, fn, args, kwargs, ctx=ctx(args, kwargs) if ctx else None, info=info)

    return wrapped


def install(tracer: Tracer) -> None:
    """Replace every reference to a wrap point in the hatcheck modules."""
    mods = {m.__name__: m for m in _hatcheck_modules()}
    replace = {}

    solver = mods.get("hatcheck.solver")
    if solver is not None and hasattr(solver, "players_win"):
        fn = solver.players_win
        sig, info = _solver_info(fn)
        # the full refutation count needs an untruncated transcript
        defaults = None
        if "max_transcript" in sig.parameters:
            defaults = {"max_transcript": (list(sig.parameters).index("max_transcript"), 10**9)}

        def guesses(args, kwargs, sig=sig):
            return f"g{sig.bind(*args, **kwargs).arguments['guess_count']}"

        replace[fn] = _wrapper(tracer, "solver.players_win", fn, ctx=guesses, info=info, defaults=defaults)

    game = mods.get("hatcheck.game")
    if game is not None:
        for name, fn in _public_functions(game):
            if name == "random_strategy":
                replace[fn] = _wrapper(tracer, "game.sample", fn)
            elif name == "is_defeating":
                replace[fn] = _wrapper(tracer, "game.check", fn)
            elif _is_transform(fn):
                replace[fn] = _wrapper(tracer, f"game.transform.{name}", fn)
        strategy = getattr(game, "Strategy", None)
        if strategy is not None:
            init = strategy.__init__

            @functools.wraps(init)
            def counted_init(*args, **kwargs):
                return tracer.timed_count("game.strategy", init, args, kwargs)

            strategy.__init__ = counted_init

    for layer in ("construct", "graphs", "bounds"):
        module = mods.get(f"hatcheck.{layer}")
        if module is None:
            continue
        for name, fn in _public_functions(module):
            span = "construct.build" if layer == "construct" else f"{layer}.{name}"
            replace[fn] = _wrapper(tracer, span, fn)

    bounds = mods.get("hatcheck.bounds")
    big = getattr(bounds, "BigBound", None)
    if big is not None and hasattr(big, "to_text"):
        big.to_text = _wrapper(tracer, "bounds.format", big.to_text)

    for module in mods.values():
        for name, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replace:
                setattr(module, name, replace[value])


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

SOLVER_METRICS = ("calls", "assignments", "refuted_branches", "win_s", "refute_s", "max_call_s")
LEMMA_METRICS = (
    "game.strategies_built", "game.transform_calls", "game.transform_s", "game.validate_s",
    "game.sample_s", "game.check_s", "construct.defeat_self_s", "construct.build_s",
)
GLOBAL_METRICS = ("graphs.calls", "graphs.s", "bounds.calls", "bounds.s", "bounds.format_s",
                  "cli.self_s", "trace.spans")
# self time of these spans, per lemma
PER_LEMMA_SELF = {
    "game.sample": "game.sample_s",
    "game.check": "game.check_s",
    "construct.defeat": "construct.defeat_self_s",
}


def metric_names(lemmas) -> list:
    """Every per-layer metric, in report order; names ending in s are seconds."""
    return (
        [f"solver.{key}.{g}" for g in ("g1", "g2") for key in SOLVER_METRICS]
        + [f"{key}.{lemma}" for lemma in lemmas for key in LEMMA_METRICS]
        + list(GLOBAL_METRICS)
    )


def is_seconds(name: str) -> bool:
    return name.endswith("_s") or name.endswith(".s") or "_s." in name


def layer_metrics(tracer: Tracer, lemmas) -> dict:
    """Aggregate spans and counters into the per-layer metrics."""
    m = {name: 0.0 if is_seconds(name) else 0 for name in metric_names(lemmas)}
    names = {span[0]: span[3] for span in tracer.spans}
    for sid, parent, op, name, ctx, t0, t1, self_s, info in tracer.spans:
        dur = t1 - t0
        if name == "solver.players_win":
            m[f"solver.calls.{ctx}"] += 1
            m[f"solver.assignments.{ctx}"] += info["assignments"]
            if info["winner"] == "players":
                m[f"solver.win_s.{ctx}"] += dur
            else:
                m[f"solver.refute_s.{ctx}"] += dur
                m[f"solver.refuted_branches.{ctx}"] += info["refuted"]
            m[f"solver.max_call_s.{ctx}"] = max(m[f"solver.max_call_s.{ctx}"], dur)
        elif name.startswith("game.transform.") and ctx in lemmas:
            m[f"game.transform_calls.{ctx}"] += 1
            m[f"game.transform_s.{ctx}"] += self_s
        elif name in PER_LEMMA_SELF and ctx in lemmas:
            m[f"{PER_LEMMA_SELF[name]}.{ctx}"] += self_s
        elif name == "construct.build" and ctx in lemmas and names.get(parent) != name:
            m[f"construct.build_s.{ctx}"] += dur
        elif name == "bounds.format":
            m["bounds.format_s"] += self_s
        elif name.startswith(("graphs.", "bounds.")):
            layer = name.split(".")[0]
            m[f"{layer}.calls"] += 1
            m[f"{layer}.s"] += self_s
        elif name == "cli.entry":
            m["cli.self_s"] += self_s
    for (name, ctx), count in tracer.counts.items():
        if name == "game.strategy" and ctx in lemmas:
            m[f"game.strategies_built.{ctx}"] += count
            m[f"game.validate_s.{ctx}"] += tracer.timers[(name, ctx)]
    m["trace.spans"] = len(tracer.spans)
    return m

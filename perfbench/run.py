#!/usr/bin/env python3
"""Benchmark of hatcheck: exact sweep, adversary throughput, certified bounds.

    python3 perfbench/run.py --workload {sweep,verify,certify} --seed N \
        --seconds S --trace {0,1}

Runs in one process and one thread from the root of a source checkout,
importing hatcheck from ./src (nothing is installed).  Each workload is
a closed loop over a fixed list of queries (a pass); inputs derive from
--seed alone.

--trace 0 runs passes until the next one, if as slow as the slowest
yet, would overrun --seconds, and reports as end-to-end metrics:

  setup_s      median over all set-ups; each pass is set up afresh,
               import of hatcheck included, five times, so the set-ups
               spread over the run instead of one stretch of it;
  pass_norm_s  median over passes, which all do the same work, of a
               pass's wall time divided by the host's slowness during
               it (see HostSpeed): the time of a fixed calibration
               sample run every 50 ms, over 1 ms;
  peak_rss_mb  peak resident memory of the process;
  ok_ratio     operations that succeeded and checked out / attempted.

--trace 1 runs one pass twice: once untraced, then set up afresh with
spans around every call into a layer, so that every count repeats.  It
writes the spans to perfbench/out/ and reports the per-layer metrics
(see spans.py), the traced pass's wall time, and as tracing overhead
the traced pass_norm_s minus the untraced one.

Human-readable lines come first; the last line is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS_PER_PASS = 5
CAL_EVERY_S = 0.05
CAL_REF_S = 0.001
CAL_INT = 3**40000    # 63k bits: squaring it takes about as long as the dict loop

sys.path.insert(0, HERE)

import spans  # noqa: E402  (benchmark modules, found through HERE)
import workloads  # noqa: E402


class ProgramMissing(Exception):
    pass


def load_api():
    """Import hatcheck (and its CLI) afresh from the checkout's src/."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hatcheck", "__init__.py")):
        raise ProgramMissing(f"no hatcheck sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "hatcheck" or n.startswith("hatcheck.")]:
        del sys.modules[name]
    hatcheck = importlib.import_module("hatcheck")
    cli = importlib.import_module("hatcheck.cli")
    if not os.path.abspath(hatcheck.__file__).startswith(src + os.sep):
        raise ProgramMissing(f"hatcheck imported from {hatcheck.__file__}, not {src}")
    return hatcheck, cli


def public_api(hatcheck, cli):
    api = argparse.Namespace(**{name: getattr(hatcheck, name) for name in hatcheck.__all__})
    api.entry = cli.entry
    return api


def set_up(args, tracer=None):
    """Import hatcheck and prepare a pass; returns (workload, seconds).

    The previous set-up's modules and objects are collected first, outside
    the timing: they hold reference cycles, and left to the collector's own
    schedule they raised peak memory with every pass a run made.
    """
    gc.collect()
    t0 = time.perf_counter()
    hatcheck, cli = load_api()
    if tracer is not None:
        spans.install(tracer)
    api = public_api(hatcheck, cli)
    if args.workload == "sweep":
        workload = workloads.Sweep(api, args.seed)
    elif args.workload == "verify":
        workload = workloads.Verify(api, args.seed, tracer)
    else:
        workload = workloads.Certify(api, args.seed, os.path.join(HERE, "work"))
    return workload, time.perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class HostSpeed:
    """How slow the host ran during a block of code, against fixed work.

    On a shared machine the same pass runs a third faster or slower from
    one minute to the next, as other tenants load the host, and no run
    length averages that out.  A timer signal runs a fixed calibration
    sample every CAL_EVERY_S, in this one thread, while the block runs;
    factor() is the sample's mean time over CAL_REF_S.  The sample is
    interpreted dict work, which the solver and the game layer are made
    of, and one big-integer product, which the bounds are made of:
    timed against both, host speed tracked sweep, verify and certify
    alike.  Dividing a pass's wall time by the factor cut the spread of
    single passes from 14-22% of their median to 3-6%.
    """

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        if not self.samples:
            self._sample()

    def _sample(self, *_):
        t0 = time.perf_counter()
        counts = {}
        for i in range(4000):
            key = i & 255
            counts[key] = counts.get(key, 0) + i * 3 % 7
        _ = CAL_INT * CAL_INT
        self.samples.append(time.perf_counter() - t0)

    def factor(self) -> float:
        return statistics.mean(self.samples) / CAL_REF_S


def timed_pass(workload, tracer=None) -> tuple:
    """Run one pass; returns (PassResult, its wall time over the host factor)."""
    with HostSpeed() as host:
        result = workload.run(tracer)
    return result, result.pass_s / host.factor()


def report(workload, passes, traced="") -> tuple:
    """Print the human-readable lines; returns (attempted, failed)."""
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    print("pass_s each: " + " ".join(f"{p.pass_s:.4f}" for p in passes))
    for family in workload.families:
        if family.startswith("defeats_per_s"):
            rate = statistics.median(p.timed_ops[family] / p.times[family] for p in passes)
            print(f"{traced}{family}: {rate:.6g} 1/s")
        else:
            print(f"{traced}{family}: {statistics.median(p.times[family] for p in passes):.6g} s")
    print(f"fail_ratio: {failed / attempted:.6g} ({failed} of {attempted})")
    for msg in [msg for p in passes for msg in p.problems][:20]:
        print(f"problem: {msg}")
    print(f"{traced}pass_s: {statistics.median(p.pass_s for p in passes):.6g} s")
    return attempted, failed


def run(args) -> tuple:
    """Untraced passes until the next one, if as slow as the slowest yet,
    would overrun --seconds; returns (attempted, failed, end-to-end metrics)."""
    setup_times = []
    passes = []
    norm = []
    started = time.perf_counter()
    while True:
        for _ in range(SETUPS_PER_PASS):
            workload, seconds = set_up(args)
            setup_times.append(seconds)
        result, pass_norm_s = timed_pass(workload)
        passes.append(result)
        norm.append(pass_norm_s)
        elapsed = time.perf_counter() - started
        if elapsed + max(p.pass_s for p in passes) > args.seconds:
            break
    print(f"passes: {len(passes)} in {elapsed:.3f} s")
    attempted, failed = report(workload, passes)
    print("pass_norm_s each: " + " ".join(f"{s:.4f}" for s in norm))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "pass_norm_s": (statistics.median(norm), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
    }
    return attempted, failed, metrics


def run_traced(args) -> tuple:
    """One untraced and one traced pass of the same work; returns (attempted,
    failed, per-layer metrics), tracing overhead as the difference of the
    two passes' normalised times."""
    workload, _ = set_up(args)
    untraced, untraced_norm_s = timed_pass(workload)
    tracer = spans.Tracer()
    workload, _ = set_up(args, tracer)
    traced, traced_norm_s = timed_pass(workload, tracer)
    print(f"untraced pass_s: {untraced.pass_s:.6g} s")
    attempted, failed = report(workload, [traced], "traced ")
    print(f"pass_norm_s untraced, traced: {untraced_norm_s:.6g} {traced_norm_s:.6g}")
    metrics = {
        key: (value, "count" if isinstance(value, int) else "s")
        for key, value in spans.layer_metrics(tracer, workloads.LEMMAS).items()
    }
    metrics["traced.pass_s"] = (traced.pass_s, "s")
    metrics["trace.overhead_s"] = (traced_norm_s - untraced_norm_s, "s")
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"spans-{args.workload}-{args.seed}.tsv")
    tracer.write(path)
    print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    return attempted + untraced.ops, failed + untraced.failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "verify", "certify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.environ.pop("HATCHECK_GUARDS", None)
    print(f"workload: {args.workload}")
    print(f"seed: {args.seed}")
    try:
        attempted, failed, metrics = (run_traced if args.trace else run)(args)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

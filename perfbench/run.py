#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 perfbench/run.py --workload pages_extract --seed 1 --seconds 8 \
        --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (see ``perfbench/metrics.py`` and ``perfbench/NOTES.md``). Run it
from the repository root; it exits non-zero without a result line if the
library cannot be imported.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys
import threading
import time

T_START = time.monotonic()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

# the run must end within 180 s: stop starting repetitions after REPS_UNTIL,
# give a stuck repetition until REP_DEADLINE, and leave the rest for teardown
REPS_UNTIL = 100.0
REP_DEADLINE = 120.0
SETUP_SAMPLES = 5
# the traced run alternates untraced and traced repetitions, at least this
# many in all, so the tracing overhead compares like with like
TRACE_MIN_REPS = 2


def _log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def import_library(modules) -> float:
    """Import Ray and the library modules a workload calls; returns the
    seconds it took (the import half of ``setup_s``)."""
    t0 = time.perf_counter()
    import ray  # noqa: F401
    import ray.data  # noqa: F401

    for m in modules:
        importlib.import_module(m)
    return time.perf_counter() - t0


def watched(fn, timeout_s: float):
    """``fn()`` in a daemon thread; returns ``(result, None)``, or
    ``(None, reason)`` when it raised or outlived ``timeout_s``."""
    box = {}

    def target():
        try:
            box["result"] = fn()
        except Exception as exc:  # noqa: BLE001 — reported as failures
            import traceback

            traceback.print_exc()
            box["error"] = f"{type(exc).__name__}: {exc}"

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(max(0.0, timeout_s))
    if t.is_alive():
        return None, f"watchdog: repetition still running after {timeout_s:.0f} s"
    if "error" in box:
        return None, box["error"]
    return box["result"], None


def measure(wl, ctx, seconds: float, trace: bool):
    """An untimed warm-up repetition if the workload wants one, then
    repetitions until ``seconds`` have passed; in trace mode at least
    ``TRACE_MIN_REPS``, alternately untraced and traced. Returns (reps,
    traced flags, warm-up repetition or None, tracer, failure reason or
    None)."""
    from perfbench import session
    from perfbench.spans import Tracer
    from perfbench.workloads import Rep

    off, on = Tracer(False), Tracer(True)
    reps, traced = [], []

    def one(tracer):
        def run():
            with WriteObserver(tracer.enabled) as writes:
                r = wl.rep(ctx, tracer)
            r.stats.extend(writes.summaries)
            if writes.writes:
                r.layer["resume.cpus_held_after_write"] = writes.cpus_held
            return r
        rep, err = watched(run, REP_DEADLINE - (time.monotonic() - T_START))
        if rep is None:
            return None, err
        session.settle()
        return rep, None

    n_ops = len(ctx["oracle"])  # documents, or queries
    warm = None
    if wl.warmup:
        warm, err = one(off)
        if warm is None:
            return [Rep(0.0, n_ops, n_ops, [err])], [False], None, on, err
    t0 = time.monotonic()
    while True:
        use = on if trace and len(reps) % 2 == 1 else off
        rep, err = one(use)
        if rep is None:
            reps.append(Rep(0.0, n_ops, n_ops, [err]))
            traced.append(False)
            return reps, traced, warm, on, err
        reps.append(rep)
        traced.append(use.enabled)
        elapsed = time.monotonic() - t0
        longest = max(r.wall for r in reps)
        if trace and len(reps) < TRACE_MIN_REPS and (
                time.monotonic() - T_START + 1.5 * longest < REPS_UNTIL):
            continue
        if elapsed >= seconds:
            break
        if time.monotonic() - T_START + 1.5 * longest > REPS_UNTIL:
            break
    return reps, traced, warm, on, None


class WriteObserver:
    """In a traced repetition, wraps ``Dataset.write_parquet``, the last
    call of each of ``run_resumable``'s shard executions, to keep the
    write's Dataset statistics and to read how many logical CPUs the
    finished execution's actors still hold. It only observes: the write
    itself and what follows it run as shipped (see NOTES.md, "Known
    defects"). Untraced repetitions run without it."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.summaries: list = []
        self.writes = 0
        self.cpus_held = 0.0

    def __enter__(self) -> "WriteObserver":
        if not self.enabled:
            return self
        import ray
        import ray.data

        from perfbench.session import LOGICAL_CPUS

        self.orig = orig = ray.data.Dataset.write_parquet

        def write_parquet(ds, *a, **kw):
            out = orig(ds, *a, **kw)
            self.writes += 1
            self.cpus_held += (LOGICAL_CPUS
                               - ray.available_resources().get("CPU", 0))
            if ds._write_ds is not None:
                self.summaries.append(ds._write_ds._get_stats_summary())
            return out

        ray.data.Dataset.write_parquet = write_parquet
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            import ray.data

            ray.data.Dataset.write_parquet = self.orig


def med(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def host_factor(reps, setup_cal: list) -> float:
    """The run's mean calibration sample over the reference one: how much
    slower than the reference guest at rest this host ran (see
    ``session.CAL_REF_S``)."""
    from perfbench.session import CAL_REF_S

    cal = setup_cal + [c for r in reps for c in r.cal]
    return statistics.fmean(cal) / CAL_REF_S if cal else 1.0


def end_to_end(reps, setup_s: list, factor: float, attempted: int,
               failed: int) -> dict:
    return {
        "ref_cpu_s": med(r.cpu for r in reps) / factor,
        "docs_per_ref_cpu_s": med(r.items / r.cpu for r in reps
                                  if r.cpu > 0) * factor,
        "setup_s": med(setup_s) / factor,
        "peak_pss_mb": med(r.peak_mem for r in reps) / 1e6,
        "ok_share": 1 - failed / attempted,
    }


def per_layer(wl, ctx, reps, traced, warm, tracer) -> dict:
    from perfbench.workloads import operator_metrics

    ok = [r for r, t in zip(reps, traced) if t]
    plain = [r for r, t in zip(reps, traced) if not t]
    out: dict = {}
    for key in {k for r in reps for k in r.layer}:
        out[key] = med(r.layer[key] for r in reps if key in r.layer)
    # operator statistics of the traced repetitions, per repetition
    ops = [operator_metrics(r.stats) for r in ok]
    for key in {k for o in ops for k in o}:
        out[key] = med(o.get(key, 0) for o in ops)
    if warm is not None:
        out["pool.warmup_s"] = warm.wall
    out.update(wl.layers(ctx, out))
    for layer, share in tracer.shares(tracer.roots("rep")).items():
        out[f"trace.share.{layer}"] = share
    out["run.wall_s"] = med(r.wall for r in plain)
    out["run.docs_per_s"] = med(r.items / r.wall for r in plain if r.wall > 0)
    out["trace.wall_s"] = med(r.wall for r in ok)
    if out["run.wall_s"]:
        out["trace.overhead_share"] = out["trace.wall_s"] / out["run.wall_s"] - 1
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    from perfbench import metrics, oracle, session
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        _log(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
        return 2
    try:
        import_s = import_library(wl.modules)
    except ImportError as exc:
        _log(f"cannot import the library from {ROOT}: {exc}")
        return 2
    session.preflight()

    ctx = wl.prepare(args.seed)  # untimed: inputs and oracle
    problems = []
    if "corpus" in ctx:
        bad = oracle.pinned_mismatch(args.seed, len(ctx["oracle"]),
                                     ctx["oracle"])
        if bad:
            problems.append(bad)

    setup_s, setup_cal = [], []
    try:
        for i in range(SETUP_SAMPLES):
            if i:
                session.stop()
            meter = session.Meter()
            with meter.timed():
                took = session.start()
            setup_s.append(import_s + took)
            setup_cal += meter.cal
        reps, traced, warm, tracer, err = measure(wl, ctx, args.seconds,
                                                  bool(args.trace))
    finally:
        session.stop()
    # the in-process probes run after the session is gone, on a quiet CPU
    values = (per_layer(wl, ctx, reps, traced, warm, tracer)
              if args.trace else None)
    if err:
        problems.append(err)

    factor = host_factor(reps, setup_cal)
    checked = reps + ([warm] if warm else [])
    attempted = sum(r.attempted for r in checked)
    failed = sum(r.failed for r in checked)
    problems += [e for r in checked for e in r.examples]
    if not args.trace:
        values = end_to_end(reps, setup_s, factor, attempted, failed)
    else:
        tracer.dump(os.path.join(
            ROOT, ".perfbench_cache",
            f"spans-{args.workload}-s{args.seed}.json"))

    import pyarrow
    import ray

    info = {
        "workload": args.workload, "seed": args.seed,
        **session.host_cpus(), "logical_cpus": session.LOGICAL_CPUS,
        "ray": ray.__version__, "pyarrow": pyarrow.__version__,
        "reps": len(reps), "rep_walls_s": [r.wall for r in reps],
        "rep_cpu_s": [r.cpu for r in reps],
        "warmup_s": warm.wall if warm else None,
        "setup_samples_s": setup_s, "host_factor": factor,
        "cal_samples": len(setup_cal) + sum(len(r.cal) for r in reps),
        "problems": problems[:10],
    }
    if "corpus" in ctx:
        info["oracle_digest"] = oracle.digest(ctx["oracle"])
        info["oracle_dead_letters"] = oracle.dead_letters(ctx["oracle"])
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics.render(values, bool(args.trace)),
    }), flush=True)
    return 0


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    # leave without joining a repetition thread a watchdog gave up on
    os._exit(code)

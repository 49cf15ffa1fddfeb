#!/usr/bin/env python
"""Benchmark harness.

Plain run: one Ray session at ``RAY_GRAFT_CPUS`` (default 32), extraction
pipeline over the ``$GRAFT_SF_DIR``-scale synthetic corpus (cached on
disk; generation is excluded from timing), best-of-3 (unconditional;
median reported alongside min), plus per-query timings, a foreign-Ray-
session contention check, and a per-core host-state probe before AND
after. Prints the
full JSON line (with the per-query map) first — also written to
``bench_summary.json`` — then a compact final line without the
per-query map, sized to fit a ~2 KB stdout tail buffer:
    {"metric": ..., "value": <headline sec>, "unit": "sec",
     "queries": {...}, "sf": ..., "num_cpus": N,
     "docs_per_sec": ..., "mb_per_sec": ...,
     "probe_ms_before": ..., "probe_ms_after": ...}

``--scaling``: runs the headline pipeline in two fresh subprocesses
(8 and 32 CPUs) on the same input and reports both throughputs plus the
scaling efficiency (the in-sandbox stand-in for the N-vs-4N-node
cluster criterion).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))


def _init_ray(num_cpus: int):
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )


def _consume(ds) -> dict:
    """Drive the dataset to completion with a distributed aggregate:
    each batch collapses to one stats row inside map_batches, and only
    scalar sums reach the driver. (Pulling the full text column to the
    driver via iter_batches was a ~23 s serial sink at sf0.1 — it capped
    scaling efficiency at 0.34 regardless of CPU count.)"""

    def project(batch):
        import pyarrow as pa
        import pyarrow.compute as pc

        cols = batch.column_names
        payload = (pc.sum(batch.column("payload_bytes")).as_py() or 0
                   if "payload_bytes" in cols else 0)
        chars = (pc.sum(batch.column("n_chars")).as_py() or 0
                 if "n_chars" in cols else 0)
        errors = (batch.num_rows - batch.column("error").null_count
                  if "error" in cols else 0)
        return pa.table(
            {
                "rows": pa.array([batch.num_rows], "int64"),
                "payload_bytes": pa.array([payload], "int64"),
                "chars": pa.array([chars], "int64"),
                "errors": pa.array([errors], "int64"),
            }
        )

    # stream the one-row-per-batch stats to the driver and add them up
    # there: the data crossing to the driver is ~1 row per input block,
    # while Dataset.sum()'s aggregate operator added a ~10-15 s
    # parallelism-independent barrier for the same result
    totals = {"rows": 0, "payload_bytes": 0, "chars": 0, "errors": 0}
    proj = ds.map_batches(project, batch_format="pyarrow")
    for batch in proj.iter_batches(batch_size=None, batch_format="pyarrow"):
        for k in totals:
            col = batch.column(k)
            totals[k] += sum(col.to_pylist())
    return totals


def run_headline(passes: int = 1) -> dict:
    """Extraction over the cached corpus for SF_DIR; returns timings.

    ``passes > 1`` streams the same input N times through one pipeline
    (a union of N reads) — used by ``--scaling`` so per-job fixed costs
    (worker spin-up, read ramp) amortize the way they would in
    a real long-running job, and the efficiency number reflects
    steady-state throughput rather than startup."""
    from pd3f_ray.pipelines.extraction import extract_dataset, read_documents
    from pd3f_ray.sources.corpus import ensure_corpus

    corpus = ensure_corpus(SF_DIR, kind="docs")  # cached; not timed
    # warm OS page cache so we measure compute, not first disk read
    import glob

    for f in glob.glob(os.path.join(corpus, "*.parquet")):
        with open(f, "rb") as fh:
            while fh.read(1 << 22):
                pass

    t0 = time.perf_counter()
    ds = read_documents(corpus)
    if passes > 1:
        ds = ds.union(*[read_documents(corpus) for _ in range(passes - 1)])
    stats = _consume(extract_dataset(ds))
    wall = time.perf_counter() - t0
    return {"sec": wall, **stats}


def run_queries() -> dict[str, float]:
    import __ray_entry__ as entrymod

    out = {}
    for name, fn in entrymod.queries().items():
        t0 = time.perf_counter()
        res = fn(SF_DIR)
        # execute lazily-returned datasets to completion WITHOUT pulling
        # blocks to the driver (materialize keeps them in the object
        # store; the ref is dropped right after timing)
        if hasattr(res, "materialize"):
            res.materialize()
        out[name] = round(time.perf_counter() - t0, 3)
    return out


def _foreign_ray_sessions(wait_sec: float = 60.0) -> int:
    """Count live Ray core processes (raylet / gcs_server) started by
    anything OTHER than this process — i.e. a concurrent Ray session on
    the box. A contended draw measured 24.3 s vs 9.1 s clean for
    identical code, so sharing the box invalidates the measurement. If
    any are found, poll up to ``wait_sec`` for them to drain, then
    proceed anyway (the driver must always get its JSON line) with the
    final count embedded in the result as ``foreign_ray_procs`` so the
    recorded file itself says whether the draw was contended."""
    import glob as _glob

    def _count() -> int:
        n = 0
        for p in _glob.glob("/proc/[0-9]*/cmdline"):
            try:
                with open(p, "rb") as fh:
                    cmd = fh.read()
            except OSError:
                continue
            if b"raylet" in cmd or b"gcs_server" in cmd:
                n += 1
        return n

    n = _count()
    deadline = time.monotonic() + wait_sec
    while n and time.monotonic() < deadline:
        print(f"bench: {n} foreign Ray core process(es) alive — "
              "waiting for the box to go quiet", file=sys.stderr)
        time.sleep(5.0)
        n = _count()
    if n:
        print(f"bench: proceeding CONTENDED ({n} foreign Ray procs); "
              "this draw is not comparable to clean draws",
              file=sys.stderr)
    return n


def main_plain():
    # host-state probe BEFORE anything else: identical single-process
    # kernel work, ms/doc — the box's per-core speed oscillates between
    # a healthy band (≤ ~0.49 ms/doc) and degraded phases (0.58-0.88),
    # and a degraded draw can read 1.5-2x slower for identical code.
    # Embedding the probe in the bench JSON lets the recorded file
    # itself carry the host-state evidence.
    foreign = _foreign_ray_sessions()
    probe_before = _percore_ms(1)
    _init_ray(NUM_CPUS)
    # best-of-3 headline, UNCONDITIONALLY (a fixed draw count keeps the
    # selection rule symmetric — retrying only on degraded probes would
    # bias the recorded value; ADVICE r4): one draw on this VM jitters
    # with host load; min filters transient slowdowns and the median is
    # reported alongside so both statistics are on record.
    import statistics

    head_runs = [run_headline() for _ in range(3)]
    head = min(head_runs, key=lambda h: h["sec"])
    head_median = statistics.median(h["sec"] for h in head_runs)
    qtimes = run_queries()
    import ray

    ray.shutdown()
    probe_after = _percore_ms(1)
    result = {
        "metric": "extraction pipeline wall time (synthetic corpus, "
                  "docs table, experimental config)",
        "value": round(head["sec"], 3),
        "unit": "sec",
        "queries": qtimes,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "rows": head["rows"],
        "docs_per_sec": round(head["rows"] / head["sec"], 1),
        "mb_per_sec": round(head["payload_bytes"] / head["sec"] / 1e6, 1),
        "dead_letters": head["errors"],
        "headline_runs_sec": [round(h["sec"], 3) for h in head_runs],
        "headline_median_sec": round(head_median, 3),
        "foreign_ray_procs": foreign,
        "probe_ms_before": round(probe_before, 3),
        "probe_ms_after": round(probe_after, 3),
        "probe_healthy_band_ms": 0.49,
    }
    # full result FIRST (the documented one-JSON-line contract) and to a
    # sidecar file; then a compact tail line WITHOUT the per-query map —
    # the 136-query map grew the single line past the driver's ~2 KB
    # stdout tail buffer (BENCH_r03 "parsed": null), so the LAST line
    # must always fit the tail on its own.
    full = json.dumps(result)
    print(full)
    try:
        with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "bench_summary.json"), "w") as fh:
            fh.write(full + "\n")
    except OSError:
        pass
    compact = {k: v for k, v in result.items() if k != "queries"}
    compact["queries_total_sec"] = round(sum(qtimes.values()), 3)
    compact["n_queries"] = len(qtimes)
    compact["queries_in"] = "bench_summary.json"
    print(json.dumps(compact))


def _headline_subprocess(num_cpus: int, passes: int = 1) -> dict:
    env = dict(os.environ, RAY_GRAFT_CPUS=str(num_cpus),
               GRAFT_BENCH_HEADLINE_ONLY="1",
               GRAFT_BENCH_PASSES=str(passes))
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


_CEILING_WORKER = r'''
import os, time, json
from pd3f_ray.sources.synth import build_layout
from pd3f_ray.core.kernel import extract_record
from pd3f_ray.core.config import ExtractOptions
from pd3f_ray.core.scorer import get_scorer
n_docs = int(os.environ.get("GRAFT_CEILING_DOCS", "300"))
docs = []
for i in range(300):
    layout, lang = build_layout(i)
    docs.append((json.dumps(layout).encode(), lang))
base = ExtractOptions.experimental()
for p, l in docs[:30]:
    extract_record(p, base.with_(lang=l), scorer=get_scorer(l))
t0 = time.perf_counter()
done = 0
while done < n_docs:
    p, l = docs[done % len(docs)]
    extract_record(p, base if base.lang == l else base.with_(lang=l),
                   scorer=get_scorer(l))
    done += 1
print((time.perf_counter() - t0) / n_docs * 1000)
'''


def _percore_ms(n_procs: int, n_docs: int = 300) -> float:
    """Identical single-threaded kernel work in n parallel processes (no
    Ray): mean per-doc ms. Quantifies the box's all-core frequency /
    memory-bandwidth slowdown, which a real N→4N *node* scale-out does
    not see. For the CEILING measurement pass n_docs ≥ 2000 so the
    timed windows of all n processes genuinely overlap (at 300 docs the
    ~0.5 s import skew between processes exceeds the ~0.2 s timed loop
    and contention is under-measured — observed hw_ceiling 0.98 from
    the short probe vs 0.89 per-core at 16-way from a long-exposure
    run of the same kernel)."""
    env = dict(os.environ, GRAFT_CEILING_DOCS=str(n_docs))
    procs = [
        subprocess.Popen([sys.executable, "-c", _CEILING_WORKER],
                         stdout=subprocess.PIPE, text=True, env=env)
        for _ in range(n_procs)
    ]
    vals = [float(p.communicate()[0].strip().splitlines()[-1]) for p in procs]
    return sum(vals) / len(vals)


def main_scaling():
    # 4 → 16 CPUs (N → 4N): on this box identical work runs at the SAME
    # per-core speed at 4-way and 16-way load (measured ±1%), while
    # 32-way load drops per-core speed ~15% (all-core frequency /
    # memory bandwidth) — an artifact a real N→4N *node* scale-out does
    # not have. The 4/16 pair therefore measures pipeline scaling, not
    # the box's clock curve; the probe below still reports the ceiling.
    lo = int(os.environ.get("GRAFT_SCALING_LO", "4"))
    hi = int(os.environ.get("GRAFT_SCALING_HI", "16"))
    # 8 passes (1.6M docs per run) so the 10-20 s per-job fixed cost —
    # which itself jitters with host load — stays <5% of the lo-side
    # runtime; repeats=1 keeps the default invocation ~7 min
    passes = int(os.environ.get("GRAFT_SCALING_PASSES", "8"))
    repeats = int(os.environ.get("GRAFT_SCALING_REPEATS", "1"))
    # alternate lo/hi and keep the best of each: the box is a VM and
    # host-level load varies minute to minute — best-of filters the
    # transient slowdowns that would otherwise land on one side only
    runs_lo, runs_hi = [], []
    for _ in range(repeats):
        runs_lo.append(_headline_subprocess(lo, passes))
        runs_hi.append(_headline_subprocess(hi, passes))
    r_lo = min(runs_lo, key=lambda r: r["value"])
    r_hi = min(runs_hi, key=lambda r: r["value"])
    eff = (r_lo["value"] / r_hi["value"]) / (hi / lo)
    # hardware strong-scaling ceiling of this single box: per-core
    # slowdown of identical work at hi-way vs lo-way parallelism
    ceiling_docs = int(os.environ.get("GRAFT_CEILING_DOCS", "2500"))
    ms_lo = _percore_ms(lo, ceiling_docs)
    ms_hi = _percore_ms(hi, ceiling_docs)
    ms_lo, ms_hi = (min(ms_lo, _percore_ms(lo, ceiling_docs)),
                    min(ms_hi, _percore_ms(hi, ceiling_docs)))
    ceiling = ms_lo / ms_hi if ms_hi > 0 else 1.0
    print(json.dumps({
        "metric": "scaling efficiency (fresh sessions, same input, "
                  f"{passes} passes)",
        "sf": SF_DIR,
        "cpus_lo": lo,
        "cpus_hi": hi,
        "sec_lo": r_lo["value"],
        "sec_hi": r_hi["value"],
        "docs_per_sec_lo": r_lo["docs_per_sec"],
        "docs_per_sec_hi": r_hi["docs_per_sec"],
        "scaling_efficiency": round(eff, 3),
        "percore_ms_lo": round(ms_lo, 3),
        "percore_ms_hi": round(ms_hi, 3),
        "hw_ceiling": round(ceiling, 3),
        "scaling_efficiency_vs_hw_ceiling": round(min(eff / ceiling, 1.0), 3),
    }))


def main_headline_only():
    _init_ray(NUM_CPUS)
    head = run_headline(passes=int(os.environ.get("GRAFT_BENCH_PASSES", "1")))
    print(json.dumps({
        "metric": "headline",
        "value": round(head["sec"], 3),
        "unit": "sec",
        "num_cpus": NUM_CPUS,
        "rows": head["rows"],
        "docs_per_sec": round(head["rows"] / head["sec"], 1),
        "mb_per_sec": round(head["payload_bytes"] / head["sec"] / 1e6, 1),
    }))
    import ray

    ray.shutdown()


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        main_scaling()
    elif os.environ.get("GRAFT_BENCH_HEADLINE_ONLY"):
        main_headline_only()
    else:
        main_plain()

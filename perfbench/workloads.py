"""The workloads: seeded inputs, one timed repetition, and its check.

Each workload has ``prepare(seed)`` (untimed: inputs and oracle),
``rep(ctx, tracer)``, which times one run from input to complete result and
then checks every output row against the oracle outside the timed region,
and ``layers(ctx, out)``, its in-process per-layer probes for the traced run.
``modules`` names the library modules it calls, ``warmup`` whether a run
starts with an untimed repetition. Library entry points are called with
their default arguments.
"""

from __future__ import annotations

import glob
import os
import shutil
import time
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.parquet as pq

from perfbench import inputs, oracle
from perfbench.session import Meter
from perfbench.spans import Tracer

# documents per repetition of an extraction workload. Ray Data splits each of
# the page table's 8 files into k read blocks, k stepping with the table's
# size: at 2000 documents some seeds gave 32 blocks and others 40, and the
# 40-block plan cost 17% more. At 1750 all seeds tried give 32, with about
# 12% of size to spare on either side of the step.
N_DOCS = 1750


@dataclass
class Rep:
    wall: float
    attempted: int
    failed: int
    examples: list = field(default_factory=list)
    cpu: float = 0.0  # CPU seconds of the process tree in the timed region
    items: int = 0  # documents (or input rows) processed
    layer: dict = field(default_factory=dict)  # raw per-layer numbers
    stats: list = field(default_factory=list)  # DatasetStatsSummary objects
    peak_mem: int = 0  # peak summed PSS of the process tree, bytes
    cal: list = field(default_factory=list)  # calibration samples, seconds


def digest_rows(batch: pa.Table) -> pa.Table:
    """Project step of the drain, run in the Ray workers: one
    ``(url, sha256(text), error class)`` row per document, so the text
    column never travels to the main process."""
    texts = batch.column("text").to_pylist()
    errors = batch.column("error").to_pylist()
    return pa.table({
        "url": batch.column("url"),
        "sha": pa.array([oracle.text_sha(t) for t in texts], pa.string()),
        "err": pa.array([oracle.error_class(e) for e in errors], pa.string()),
    })


def drain(ds, tracer: Tracer) -> tuple[list, list, list, float, object]:
    """Execute ``ds`` and ship its digest rows to the main process; returns the
    three columns, seconds to the first batch, and the executed Dataset."""
    proj = ds.map_batches(digest_rows, batch_format="pyarrow")
    urls, shas, errs = [], [], []
    t0 = time.perf_counter()
    first = None
    with tracer.span("ray.execute"):
        for b in proj.iter_batches(batch_size=None, batch_format="pyarrow"):
            if first is None:
                first = time.perf_counter() - t0
            with tracer.span("collect"):
                urls += b.column("url").to_pylist()
                shas += b.column("sha").to_pylist()
                errs += b.column("err").to_pylist()
    return urls, shas, errs, first or 0.0, proj


def _check_docs(ctx: dict, rep: Rep, urls, shas, errs) -> Rep:
    res = oracle.check_docs(ctx["oracle"], urls, shas, errs)
    rep.failed = res["failed"]
    rep.examples = res["examples"]
    rep.layer["out.dead_letter_rows"] = sum(1 for e in errs if e is not None)
    return rep


class _Extraction:
    """Shared by the extraction workloads: the document corpus, its oracle,
    and the in-process kernel, scorer and stage probes."""

    warmup = True
    modules = ("pd3f_ray.pipelines.extraction",)

    def prepare(self, seed: int) -> dict:
        return {"corpus": inputs.docs_corpus(seed, N_DOCS),
                "oracle": oracle.doc_oracle(seed, N_DOCS)}

    def layers(self, ctx: dict, out: dict) -> dict:
        from perfbench import probes

        return {"out.oracle_dead_letter_rows": oracle.dead_letters(
                    ctx["oracle"]),
                **probes.extraction_layers(ctx["corpus"])}


# --------------------------------------------------------------------------
# pages_extract: page table → one bucketed sort shuffle → kernel in reducers
# --------------------------------------------------------------------------


class PagesExtract(_Extraction):
    name = "pages_extract"

    def prepare(self, seed: int) -> dict:
        return {**super().prepare(seed),
                "pages": inputs.pages_corpus(seed, N_DOCS)}

    def rep(self, ctx: dict, tracer: Tracer) -> Rep:
        from pd3f_ray.pipelines.extraction import extract_from_pages_parquet

        meter = Meter()
        with meter.timed(), tracer.span("rep"):
            with tracer.span("plan"):
                ds = extract_from_pages_parquet(ctx["pages"])
            urls, shas, errs, first, proj = drain(ds, tracer)
        rep = Rep(meter.wall, len(ctx["oracle"]), 0, cpu=meter.cpu,
                  items=len(ctx["oracle"]), peak_mem=meter.peak_mem,
                  cal=meter.cal,
                  layer={"pool.first_batch_s": first},
                  stats=[proj._get_stats_summary()])
        return _check_docs(ctx, rep, urls, shas, errs)

    def layers(self, ctx: dict, out: dict) -> dict:
        from perfbench import probes

        return {**super().layers(ctx, out),
                "pages.bucket_rows_max_over_mean":
                    probes.bucket_skew(ctx["pages"])}


# --------------------------------------------------------------------------
# docs_resume_write: run_resumable with the CLI defaults, then a resume
# --------------------------------------------------------------------------


class DocsResumeWrite(_Extraction):
    name = "docs_resume_write"
    # no warm-up: each of its 8 shard executions starts a new actor pool,
    # so a repetition's cold start is the cost every run pays
    warmup = False

    def rep(self, ctx: dict, tracer: Tracer) -> Rep:
        from pd3f_ray.core.config import ExtractOptions
        from pd3f_ray.pipelines.extraction import run_resumable

        out = os.path.join(inputs.CACHE, f"out-{os.getpid()}")
        shutil.rmtree(out, ignore_errors=True)
        opts = ExtractOptions.experimental()
        meter = Meter()
        try:
            with meter.timed(), tracer.span("rep"), tracer.span(
                    "resume.first_run"):
                first = run_resumable(ctx["corpus"], out, opts)
            t0 = time.perf_counter()
            with tracer.span("resume.rerun"):
                again = run_resumable(ctx["corpus"], out, opts)
            rerun_s = time.perf_counter() - t0
            return self._check(ctx, out, first, again, meter, rerun_s)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, ctx, out, first, again, meter, rerun_s) -> Rep:
        files = sorted(glob.glob(os.path.join(out, "shard=*", "bucket=*",
                                              "*.parquet")))
        urls, shas, errs = [], [], []
        for f in files:
            t = pq.read_table(f, columns=["url", "text", "error"])
            urls += t.column("url").to_pylist()
            shas += [oracle.text_sha(x) for x in t.column("text").to_pylist()]
            errs += [oracle.error_class(x)
                     for x in t.column("error").to_pylist()]
        n = len(ctx["oracle"])
        rep = Rep(meter.wall, n, 0, cpu=meter.cpu, items=n,
                  peak_mem=meter.peak_mem, cal=meter.cal, layer={
            "resume.first_run_s": meter.wall,
            "resume.rerun_s": rerun_s,
            "resume.shards_done": first["shards_done"],
            "resume.shards_skipped": again["shards_skipped"],
            "resume.files_written": len(files),
            "resume.bytes_written": sum(os.path.getsize(f) for f in files),
        })
        _check_docs(ctx, rep, urls, shas, errs)
        done = first["shards_done"]
        if again["shards_done"] != 0 or again["shards_skipped"] != done:
            rep.failed = n
            rep.examples.insert(0, f"resume did not skip: {first} / {again}")
        return rep

    def layers(self, ctx: dict, out: dict) -> dict:
        layers = super().layers(ctx, out)
        kernel_s = layers["kernel.ms_per_doc"] * len(ctx["oracle"]) / 1000
        if out.get("resume.first_run_s"):  # absent if every repetition failed
            layers["resume.non_kernel_share"] = (
                1 - kernel_s / out["resume.first_run_s"])
        return layers


# --------------------------------------------------------------------------
# ops_exchange: six registry queries over seeded relational tables
# --------------------------------------------------------------------------


# Run in a child process: prints module, name and SQL of each query named in
# argv, as the registry pairs them.
_READ_REGISTRY = """
import json, sys
from __ray_entry__ import oracle_sql, queries
fns, sql = queries(), oracle_sql()
print(json.dumps({q: [fns[q].__module__, fns[q].__qualname__, sql[q]]
                  for q in sys.argv[1:]}))
"""


def registry_queries() -> dict:
    """name → (pipeline function, oracle SQL), as the repository's query
    registry (``queries()`` and ``oracle_sql()`` in ``__ray_entry__``) pairs
    them. The registry is read in a child process and the functions are
    imported here by name: importing the registry registers the whole
    package for pickling by value, which its own driver needs but a caller
    of the library does not. In a trial it raised a repetition's wall from
    3.8–4.3 s to 5.1–8.5 s."""
    import importlib
    import json
    import subprocess
    import sys

    from perfbench.metrics import QUERIES

    res = subprocess.run([sys.executable, "-c", _READ_REGISTRY, *QUERIES],
                         cwd=inputs.ROOT, capture_output=True, text=True,
                         check=True, timeout=120)
    reg = json.loads(res.stdout.strip().splitlines()[-1])
    return {q: (getattr(importlib.import_module(mod), name), sql)
            for q, (mod, name, sql) in reg.items()}


def _exchange_s(summary) -> float:
    """Seconds the exchange sub-operators (sort, shuffle, aggregate phases)
    of an executed Dataset were active."""
    return sum(op.time_total_s for op in flatten_stats(summary)
               if op.is_sub_operator)


class OpsExchange:
    name = "ops_exchange"
    warmup = True
    modules = tuple(f"pd3f_ray.pipelines.{m}"
                    for m in ("dedup", "joins", "relational", "windows"))

    def prepare(self, seed: int) -> dict:
        d = inputs.ops_dir(seed)
        queries = registry_queries()
        return {"input": d, "queries": queries,
                "oracle": oracle.ops_oracle(d, queries),
                "rows_in": sum(inputs.OPS_ROWS.values())}

    def rep(self, ctx: dict, tracer: Tracer) -> Rep:
        import ray

        rep = Rep(0.0, len(ctx["queries"]), 0, items=ctx["rows_in"])
        for q, (fn, _) in ctx["queries"].items():
            meter = Meter()
            with meter.timed(), tracer.span("rep"):
                with tracer.span("plan"):
                    ds = fn(ctx["input"])
                with tracer.span("ray.execute"):
                    res = ds.materialize()
            rep.wall += meter.wall
            rep.cpu += meter.cpu
            rep.peak_mem = max(rep.peak_mem, meter.peak_mem)
            rep.cal += meter.cal
            # untimed: pull the result to the main process and compare
            rows = [r for b in ray.get(res.to_arrow_refs())
                    for r in b.to_pylist()]
            bad = oracle.check_op(ctx["oracle"][q], rows)
            if bad:
                rep.failed += 1
                rep.examples.append(f"{q}: {bad}")
            rep.layer.update({f"ops.{q}.wall_s": meter.wall,
                              f"ops.{q}.rows_out": len(rows),
                              f"ops.{q}.exchange_s":
                                  _exchange_s(res._get_stats_summary())})
            del ds, res
        return rep

    def layers(self, ctx: dict, out: dict) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (PagesExtract(), DocsResumeWrite(),
                                 OpsExchange())}


# --------------------------------------------------------------------------
# Ray Data operator statistics
# --------------------------------------------------------------------------

# operator-name fragment → benchmark operator name, first match wins
_OP_RULES = [("Write", "write"), ("MapBatches(add)", "write"),
             ("ExtractDocs", "extract"), ("assemble_extract", "shuffle_reduce"),
             ("add_bucket_compress", "shuffle_map"),
             ("digest_rows", "project"), ("ReadParquet", "read")]
_SORT_OPS = {"SortMap": "pages.sort_map_s", "SortMerge": "pages.sort_merge_s",
             "SortReduce": "pages.sort_reduce_s"}


def flatten_stats(summary) -> list:
    out = []
    for parent in summary.parents or []:
        out.extend(flatten_stats(parent))
    out.extend(summary.operators_stats)
    return out


def _sum(d) -> float:
    return (d or {}).get("sum", 0) or 0


def operator_metrics(summaries: list) -> dict:
    """Per-operator wall, UDF time, rows and bytes summed over the executed
    Datasets, under the fixed names of ``metrics.RAY_OPS``."""
    out: dict[str, float] = {}

    def add(key: str, v: float) -> None:
        out[key] = out.get(key, 0) + v

    for summary in summaries:
        for op in flatten_stats(summary):
            name = op.operator_name
            if name in _SORT_OPS:
                add(_SORT_OPS[name], op.time_total_s)
                if name == "SortMap":
                    add("pages.exchange_bytes", _sum(op.output_size_bytes))
                continue
            for frag, key in _OP_RULES:
                if frag in name:
                    add(f"ray.{key}.wall_s", op.time_total_s)
                    add(f"ray.{key}.udf_s", _sum(op.udf_time))
                    add(f"ray.{key}.rows_out", _sum(op.output_num_rows))
                    add(f"ray.{key}.bytes_out", _sum(op.output_size_bytes))
                    break
    return out

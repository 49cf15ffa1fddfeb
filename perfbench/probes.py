"""In-process per-layer probes for the traced run.

They time the public calls of ``core.kernel``, ``core.scorer`` and
``stages.extract`` on a fixed sample of a workload's documents (the first
``SAMPLE`` by url), without Ray. Each timing is the median of ``PASSES``
passes over the sample.
"""

from __future__ import annotations

import glob
import os
import statistics
import time
from collections import Counter

import pyarrow as pa
import pyarrow.parquet as pq

SAMPLE = 200
PASSES = 5
STAGE_BATCH = 64  # extract_dataset's default batch_size


def sample_table(corpus_dir: str) -> pa.Table:
    files = sorted(glob.glob(os.path.join(corpus_dir, "*.parquet")))
    t = pa.concat_tables(pq.read_table(f) for f in files)
    return t.sort_by("url").slice(0, SAMPLE)


def _ms_per_item(fn, items) -> float:
    """Median over passes of the per-item milliseconds of ``fn(item)``;
    ``items`` is a callable returning a fresh item list for each pass."""
    runs = []
    for _ in range(PASSES):
        batch = items()
        t0 = time.perf_counter()
        for it in batch:
            fn(it)
        runs.append((time.perf_counter() - t0) * 1000 / max(1, len(batch)))
    return statistics.median(runs)


def kernel_probe(sample: pa.Table) -> dict:
    import orjson

    from pd3f_ray.core.config import ExtractOptions
    from pd3f_ray.core.kernel import (
        DocStats,
        DocumentKernel,
        extract_parsed,
        extract_record,
    )
    from pd3f_ray.core.scorer import get_scorer

    base = ExtractOptions.experimental()
    docs = []
    for html, lang in zip(sample.column("html").to_pylist(),
                          sample.column("lang").to_pylist()):
        opts = base if base.lang == lang else base.with_(lang=lang)
        docs.append((html, opts, get_scorer(lang)))

    def parsed():  # the kernel mutates its layout: parse anew per pass
        return [(orjson.loads(h), o, s) for h, o, s in docs]

    def built():
        out = []
        for layout, o, s in parsed():
            try:
                out.append(DocumentKernel(layout, o, s))
            except Exception:  # noqa: BLE001 — a dead-letter document
                pass
        return out

    def kernel(it):
        try:
            DocumentKernel(*it)
        except Exception:  # noqa: BLE001 — a dead-letter document
            pass

    def stats(it):
        try:
            DocStats.compute(it[0])
        except Exception:  # noqa: BLE001 — a dead-letter document
            pass

    record = _ms_per_item(lambda d: extract_record(d[0], d[1], scorer=d[2]),
                         lambda: docs)
    from_parsed = _ms_per_item(lambda d: extract_parsed(*d), parsed)
    stats_ms = _ms_per_item(stats, parsed)
    ctor_ms = _ms_per_item(kernel, parsed)
    kernels = built()
    render_ms = (_ms_per_item(lambda k: k.text(), lambda: kernels)
                 * len(kernels) / len(docs))
    classes = Counter()
    for h, o, s in docs:
        err = extract_record(h, o, scorer=s)["error"]
        if err is not None:
            cls = err.split(":", 1)[0]
            classes[cls if cls == "DocumentError" else "other"] += 1
    return {
        "kernel.ms_per_doc": record,
        "kernel.parse_ms_per_doc": record - from_parsed,
        "kernel.stats_ms_per_doc": stats_ms,
        "kernel.assemble_ms_per_doc": ctor_ms - stats_ms,
        "kernel.render_ms_per_doc": render_ms,
        "kernel.dead_letters.DocumentError": classes["DocumentError"],
        "kernel.dead_letters.other": classes["other"],
    }


_COUNTED = ("newline_or_not", "dehyphen_paragraph", "is_split_paragraph",
            "single_score")


def counting_scorer(lang: str):
    """A ``DeterministicScorer`` that counts calls of the four decision
    methods, times them (outermost call only), and records every text it
    scores."""
    from pd3f_ray.core.scorer import DeterministicScorer

    class CountingScorer(DeterministicScorer):
        def __init__(self, lang):
            super().__init__(lang)
            self.calls = Counter()
            self.busy_s = 0.0
            self.texts: list[str] = []
            self._depth = 0

        def score(self, texts):
            self.texts.extend(texts)
            return super().score(texts)

    def counted(method):
        orig = getattr(DeterministicScorer, method)

        def wrapper(self, *a, **kw):
            self.calls[method] += 1
            self._depth += 1
            t0 = time.perf_counter()
            try:
                return orig(self, *a, **kw)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self.busy_s += time.perf_counter() - t0
        return wrapper

    for m in _COUNTED:
        setattr(CountingScorer, m, counted(m))
    return CountingScorer(lang)


def scorer_probe(sample: pa.Table) -> dict:
    from pd3f_ray.core.config import ExtractOptions
    from pd3f_ray.core.kernel import extract_record

    base = ExtractOptions.experimental()
    scorers: dict = {}
    for html, lang in zip(sample.column("html").to_pylist(),
                          sample.column("lang").to_pylist()):
        s = scorers.setdefault(lang, counting_scorer(lang))
        opts = base if base.lang == lang else base.with_(lang=lang)
        extract_record(html, opts, scorer=s)
    calls = sum((s.calls for s in scorers.values()), Counter())
    texts = [t for s in scorers.values() for t in s.texts]
    out = {f"scorer.calls.{m}": calls[m] for m in _COUNTED}
    out["scorer.ms_per_doc"] = (sum(s.busy_s for s in scorers.values())
                                * 1000 / sample.num_rows)
    out["scorer.distinct_text_ratio"] = (len(set(texts)) / len(texts)
                                         if texts else 0)
    return out


def stage_probe(sample: pa.Table, kernel_ms: float) -> dict:
    from pd3f_ray.stages.extract import ExtractDocs

    batches = [sample.slice(i, STAGE_BATCH)
               for i in range(0, sample.num_rows, STAGE_BATCH)]
    ms = (_ms_per_item(ExtractDocs(), lambda: batches) * len(batches)
          / sample.num_rows)
    return {"extract_stage.ms_per_doc": ms,
            "extract_stage.arrow_ms_per_doc": ms - kernel_ms}


def bucket_skew(pages_dir: str) -> float:
    """Largest over mean page-row count of the fused plan's url buckets."""
    from pd3f_ray.stages.pages import DEFAULT_NUM_BUCKETS, url_bucket

    counts = Counter()
    for f in sorted(glob.glob(os.path.join(pages_dir, "*.parquet"))):
        for u in pq.read_table(f, columns=["url"]).column("url").to_pylist():
            counts[url_bucket(u)] += 1
    mean = sum(counts.values()) / DEFAULT_NUM_BUCKETS
    return max(counts.values()) / mean if mean else 0.0


def extraction_layers(corpus_dir: str) -> dict:
    sample = sample_table(corpus_dir)
    out = kernel_probe(sample)
    out.update(scorer_probe(sample))
    out.update(stage_probe(sample, out["kernel.ms_per_doc"]))
    return out

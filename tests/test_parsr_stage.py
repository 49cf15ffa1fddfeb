"""Parsr ingestion connector: config-builder parity with the
reference's setup_config rules, and the full stage plumbing via an
injected in-process transport (no network in this sandbox — the HTTP
transport refuses to construct here, which is itself pinned)."""

from __future__ import annotations

import json

import pyarrow as pa
import pytest

from pd3f_ray.stages.parsr import (
    DEFAULT_PARSR_CONFIG,
    HttpParsrTransport,
    ParsrIngest,
    build_parsr_config,
    ingest_pdfs,
)

# the fake transport class below ships to Ray workers; pytest test
# modules are not importable from worker processes, so it must pickle
# by VALUE (the same mechanism __ray_entry__ uses for the package) —
# without this the stage fails to unpickle in its tasks
import sys as _sys

from ray import cloudpickle as _cloudpickle

_cloudpickle.register_pickle_by_value(_sys.modules[__name__])

# ---------------------------------------------------------------------------
# config builder (reference parsr_wrapper.py:17-49 semantics)
# ---------------------------------------------------------------------------


def _cleaner_names(cfg):
    return [c if isinstance(c, str) else c[0] for c in cfg["cleaner"]]


def test_config_default_drops_table_detection():
    cfg = build_parsr_config()
    assert "table-detection" not in _cleaner_names(cfg)
    # base is untouched (deep-merge + list copy, no aliasing)
    assert "table-detection" in _cleaner_names(DEFAULT_PARSR_CONFIG)


def test_config_check_tables_keeps_table_detection():
    cfg = build_parsr_config(check_tables=True)
    assert "table-detection" in _cleaner_names(cfg)


def test_config_fast_drops_drawing_and_image_detection():
    cfg = build_parsr_config(fast=True)
    names = _cleaner_names(cfg)
    assert "drawing-detection" not in names
    assert "image-detection" not in names
    # string-form cleaners other than drawing-detection survive
    assert "out-of-page-removal" in names


def test_config_adjust_cleaner_patches_named_entry_only():
    cfg = build_parsr_config(
        adjust_cleaner_config=[
            ["header-footer-detection", {"maxMarginPercentage": 25}],
        ]
    )
    entry = next(c for c in cfg["cleaner"]
                 if isinstance(c, list) and c[0] == "header-footer-detection")
    assert entry[1]["maxMarginPercentage"] == 25
    assert entry[1]["ignorePages"] == []  # existing options kept
    base_entry = next(
        c for c in DEFAULT_PARSR_CONFIG["cleaner"]
        if isinstance(c, list) and c[0] == "header-footer-detection")
    assert base_entry[1]["maxMarginPercentage"] == 15  # base untouched


def test_config_deep_merge_overrides():
    cfg = build_parsr_config(config={"extractor": {"pdf": "pdfjs"}})
    assert cfg["extractor"]["pdf"] == "pdfjs"
    assert cfg["extractor"]["ocr"] == "tesseract"  # sibling keys kept


def test_http_transport_refuses_without_network(monkeypatch):
    monkeypatch.delenv("PD3F_RAY_ALLOW_NETWORK", raising=False)
    with pytest.raises(RuntimeError, match="no network"):
        HttpParsrTransport("localhost:3001")


# ---------------------------------------------------------------------------
# stage plumbing via an injected transport
# ---------------------------------------------------------------------------


class FakeParsrTransport:
    """Deterministic in-process Parsr: the submitted pdf payload is
    b"pdf:<doc_idx>"; the result is the synth generator's layout JSON
    for that index. Jobs need exactly two polls to finish (exercising
    the poll loop), and doc_idx 13 poisons (exercising dead-letter)."""

    def __init__(self):
        self.jobs: dict[str, int] = {}
        self.polls: dict[str, int] = {}
        self.submitted_configs: list[dict] = []

    def submit(self, pdf: bytes, filename: str, config: dict) -> str:
        idx = int(pdf.decode().split(":")[1])
        job = f"job-{idx}"
        self.jobs[job] = idx
        self.polls[job] = 0
        self.submitted_configs.append(config)
        return job

    def finished(self, job_id: str) -> bool:
        self.polls[job_id] += 1
        return self.polls[job_id] >= 2

    def result_json(self, job_id: str) -> bytes:
        idx = self.jobs[job_id]
        if idx == 13:
            raise RuntimeError("parsr worker crashed on this document")
        from pd3f_ray.sources.synth import build_layout

        layout, _lang = build_layout(idx)
        return json.dumps(layout).encode()


def _pdf_dataset(n: int):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "url": pa.array([f"s3://crawl/doc{i}.pdf" for i in range(n)],
                        pa.string()),
        "pdf": pa.array([f"pdf:{i}".encode() for i in range(n)],
                        pa.binary()),
    })).repartition(4)


def test_ingest_pdfs_plumbing_and_deadletter(ray_session):
    ds = ingest_pdfs(_pdf_dataset(20), batch_size=4, poll_interval=0.0,
                     transport_factory=FakeParsrTransport)
    rows = {r["url"]: r for r in ds.take_all()}  # 20 rows: tiny test table
    assert len(rows) == 20
    bad = rows["s3://crawl/doc13.pdf"]
    assert bad["html"] is None
    assert "parsr worker crashed" in bad["error"]
    good = [r for u, r in rows.items() if u != "s3://crawl/doc13.pdf"]
    assert all(r["error"] is None for r in good)
    assert all(r["html"] is not None for r in good)
    # payloads are the layout JSON the kernel parses
    layout = json.loads(rows["s3://crawl/doc0.pdf"]["html"])
    assert "pages" in layout and "fonts" in layout


def test_ingest_output_extracts_byte_identical_to_kernel(ray_session):
    """ingested layout payloads pushed through the REAL ExtractDocs
    stage come out byte-identical to the single-process kernel on
    the same layouts — the connector composes with the extraction
    pipeline."""
    from pd3f_ray.core.config import ExtractOptions
    from pd3f_ray.core.kernel import extract_record
    from pd3f_ray.core.scorer import get_scorer
    from pd3f_ray.pipelines.extraction import extract_dataset
    from pd3f_ray.sources.synth import build_layout

    ingested = ingest_pdfs(_pdf_dataset(8), batch_size=4, poll_interval=0.0,
                           transport_factory=FakeParsrTransport)

    def add_doc_columns(batch: pa.Table) -> pa.Table:
        # drop dead-letter rows Arrow-side, then attach the doc columns
        # the extraction stage expects; lang comes from upstream
        # metadata in a real crawl — the synth lang for doc i is
        # deterministic
        import pyarrow.compute as pc

        batch = batch.filter(pc.is_null(batch.column("error")))
        langs = [build_layout(int(u.rsplit("doc", 1)[1][:-4]))[1]
                 for u in batch.column("url").to_pylist()]
        return batch.append_column(
            "warc_ts", pa.array([0] * batch.num_rows, pa.int64())
        ).append_column("lang", pa.array(langs, pa.string()))

    out = extract_dataset(
        ingested.map_batches(add_doc_columns, batch_format="pyarrow"))
    got = {r["url"]: r["text"] for r in out.take_all()}  # 8 docs: tiny

    opts = ExtractOptions.experimental()
    for i in range(8):
        layout, lang = build_layout(i)
        o = opts if opts.lang == lang else opts.with_(lang=lang)
        rec = extract_record(json.dumps(layout).encode(), o,
                             scorer=get_scorer(lang))
        assert rec["error"] is None
        assert got[f"s3://crawl/doc{i}.pdf"] == rec["text"]


def test_ingest_passes_metadata_columns_through(ray_session):
    """lang / warc_ts / any other metadata column survives the stage
    (only the consumed pdf payload is dropped) — so the output feeds
    the extraction stage without a join back to the input."""
    import ray.data as rd

    ds = rd.from_arrow(pa.table({
        "url": pa.array(["a/doc3.pdf", "a/doc4.pdf"], pa.string()),
        "pdf": pa.array([b"pdf:3", b"pdf:4"], pa.binary()),
        "lang": pa.array(["de", "en"], pa.string()),
        "crawl_id": pa.array([7, 8], pa.int64()),
    }))
    out = ingest_pdfs(ds, batch_size=2, poll_interval=0.0,
                      transport_factory=FakeParsrTransport)
    rows = sorted(out.take_all(), key=lambda r: r["url"])
    assert [r["lang"] for r in rows] == ["de", "en"]
    assert [r["crawl_id"] for r in rows] == [7, 8]
    assert all("pdf" not in r for r in rows)
    assert all(r["html"] is not None and r["error"] is None for r in rows)


def test_parsr_ingest_roundtrip_matches_oracle(ray_session):
    """the registered connector roundtrip is byte-per-url exact against
    its SQL oracle at sf0.001 (the same check the driver runs)."""
    import duckdb

    from pd3f_ray.stages.parsr import (
        PARSR_INGEST_ROUNDTRIP_SQL,
        parsr_ingest_roundtrip,
    )

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    got = parsr_ingest_roundtrip(sf).to_pandas()
    got = got.sort_values("url").reset_index(drop=True)
    want = con.execute(PARSR_INGEST_ROUNDTRIP_SQL).df()
    want = want.sort_values("url").reset_index(drop=True)
    assert got.equals(want)


def test_ingest_stage_config_reaches_transport(ray_session):
    """fast/check_tables knobs flow into the stage's config that every
    submit ships (the reference sends the config with each document)."""
    t = FakeParsrTransport()
    stage = ParsrIngest(transport_factory=lambda: t, fast=True,
                        poll_interval=0.0)
    batch = pa.table({
        "url": pa.array(["a/doc1.pdf"], pa.string()),
        "pdf": pa.array([b"pdf:1"], pa.binary()),
    })
    out = stage(batch)
    assert out.column("error").to_pylist() == [None]
    names = [c if isinstance(c, str) else c[0]
             for c in t.submitted_configs[0]["cleaner"]]
    assert "image-detection" not in names
    assert "table-detection" not in names

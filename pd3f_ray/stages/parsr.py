"""Parsr ingestion connector: real-PDF → layout-JSON rows, as a Ray
actor-pool stage.

The reference consumes actual PDFs by POSTing them to a Parsr HTTP
service and polling for the layout JSON
(/root/reference/pd3f/parsr_wrapper.py:53-114; config assembly
:17-49). This repo's primary ingest is the parquet ``html`` payload
parse (SURVEY S1 — the right call at 10^12-document scale, where the
layout JSON is produced upstream once and stored columnar), but a user
with a directory of PDFs and a Parsr pool needs the same connector the
reference has. This module provides it Ray-native:

- ``build_parsr_config`` — the reference's config builder semantics
  (parsr_wrapper.py:17-49): merge user overrides into a base config,
  patch individual cleaner-pipeline entries, drop table-detection
  unless requested, drop drawing/image detection in fast mode.
- ``ParsrIngest`` — a callable CLASS for ``map_batches``: ONE
  transport (HTTP session / connection state) per actor built in
  ``__init__``, per-row submit→poll→fetch in ``__call__`` with
  dead-letter semantics (a failed document becomes an ``error`` row;
  it never poisons the batch — same convention as the extraction
  stage).
- ``ingest_pdfs`` — wires a Dataset of ``(url, pdf)`` rows through the
  actor pool; the output ``(url, html, error)`` rows feed directly
  into ``pipelines.extraction.extract_dataset`` (the ``html`` column
  carries the layout JSON bytes the kernel parses).

NETWORK GATE: this sandbox has no network, so the default transport
refuses to construct unless ``PD3F_RAY_ALLOW_NETWORK=1`` — the HTTP
code paths are real (stdlib urllib, multipart upload, poll loop) but
can only be exercised against a live Parsr elsewhere. Tests inject a
deterministic in-process transport and verify the full plumbing:
batching, per-actor transport reuse, polling, dead-lettering, and that
the emitted payloads extract byte-correctly through the real kernel.
"""

from __future__ import annotations

import io
import json
import time
import uuid
from typing import Any, Callable

import pyarrow as pa

# the reference ships a pd3fConfig.json base; we carry the semantically
# load-bearing subset (cleaner pipeline shape) so the builder's merge /
# patch / drop rules are testable without the Parsr package
DEFAULT_PARSR_CONFIG: dict[str, Any] = {
    "version": 0.9,
    "extractor": {"pdf": "pdfminer", "ocr": "tesseract",
                  "language": ["eng", "deu"]},
    "cleaner": [
        "out-of-page-removal",
        ["whitespace-removal", {"minWidth": 0}],
        ["redundancy-detection", {"minOverlap": 0.5}],
        ["table-detection", {"runConfig": [{"pages": [], "flavor": "lattice"}]}],
        ["header-footer-detection", {"ignorePages": [], "maxMarginPercentage": 15}],
        ["reading-order-detection", {"minVerticalGapWidth": 5}],
        "link-detection",
        ["image-detection", {"ocrImages": False}],
        "drawing-detection",
        ["heading-detection", {}],
        "list-detection",
        ["page-number-detection", {"maxMarginPercentage": 8}],
        "hierarchy-detection",
    ],
    "output": {"granularity": "word", "includeMarginals": False,
               "formats": {"json": True, "text": False, "csv": False,
                           "markdown": False}},
}


def _deep_merge(base: dict, override: dict) -> dict:
    """Recursive dict merge, override wins (reference ``update_dict``,
    utils.py — reimplemented; nested dicts merge, everything else
    replaces)."""
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = v
    return out


def build_parsr_config(config: dict | None = None,
                       adjust_cleaner_config: list | None = None,
                       check_tables: bool = False,
                       fast: bool = False,
                       base: dict | None = None) -> dict:
    """Reference ``setup_config`` semantics (parsr_wrapper.py:17-49):

    - deep-merge ``config`` over the base config;
    - for each ``(name, patch)`` in ``adjust_cleaner_config``, find the
      LIST-form cleaner entry with that name and merge the patch into
      its options (string-form entries are never patched);
    - unless ``check_tables``, drop every list-form cleaner whose name
      contains ``table-detection``;
    - in ``fast`` mode, drop ``drawing-detection`` (string form) and
      ``image-detection`` (list form).
    """
    jdata = _deep_merge(base or DEFAULT_PARSR_CONFIG, config or {})
    # deep-merge copies the top dict but the cleaner list is shared —
    # copy it before editing entries in place
    cleaner = [list(c) if isinstance(c, list) else c
               for c in jdata["cleaner"]]
    for name, patch in (adjust_cleaner_config or []):
        for idx, cl in enumerate(cleaner):
            if not isinstance(cl, list) or cl[0] != name:
                continue
            cleaner[idx] = [cl[0], {**cl[1], **patch}]
    if not check_tables:
        cleaner = [c for c in cleaner
                   if isinstance(c, str) or "table-detection" not in c[0]]
    if fast:
        cleaner = [
            c for c in cleaner
            if (isinstance(c, str) and c != "drawing-detection")
            or (isinstance(c, list) and c[0] != "image-detection")
        ]
    jdata["cleaner"] = cleaner
    return jdata


class HttpParsrTransport:
    """Stdlib-urllib Parsr client: multipart POST the PDF + config to
    ``/api/v1/document``, poll ``/api/v1/queue/{id}`` until the job
    leaves the queue, GET ``/api/v1/json/{id}``. One instance per
    actor (construction is the place for connection state); NO network
    exists in this sandbox, so construction refuses unless
    ``PD3F_RAY_ALLOW_NETWORK=1``."""

    def __init__(self, server: str = "localhost:3001"):
        import os

        if os.environ.get("PD3F_RAY_ALLOW_NETWORK") != "1":
            raise RuntimeError(
                "HttpParsrTransport needs a live Parsr service; this "
                "environment has no network. Set PD3F_RAY_ALLOW_NETWORK=1 "
                "where one exists, or inject a transport_factory.")
        self.base = server if "://" in server else f"http://{server}"

    def submit(self, pdf: bytes, filename: str, config: dict) -> str:
        import urllib.request

        boundary = uuid.uuid4().hex
        body = io.BytesIO()
        for name, fname, ctype, payload in (
            ("file", filename, "application/pdf", pdf),
            ("config", "config.json", "application/json",
             json.dumps(config).encode()),
        ):
            body.write(f"--{boundary}\r\n".encode())
            body.write(
                f'Content-Disposition: form-data; name="{name}"; '
                f'filename="{fname}"\r\n'
                f"Content-Type: {ctype}\r\n\r\n".encode())
            body.write(payload)
            body.write(b"\r\n")
        body.write(f"--{boundary}--\r\n".encode())
        req = urllib.request.Request(
            f"{self.base}/api/v1/document", data=body.getvalue(),
            headers={"Content-Type":
                     f"multipart/form-data; boundary={boundary}"})
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.read().decode().strip()

    def finished(self, job_id: str) -> bool:
        import urllib.error
        import urllib.request

        try:
            with urllib.request.urlopen(
                    f"{self.base}/api/v1/queue/{job_id}", timeout=60) as r:
                payload = json.loads(r.read().decode() or "{}")
            # Parsr reports progress while queued; a terminal payload
            # carries the result id
            return bool(payload.get("id")) and "progress" not in payload
        except urllib.error.HTTPError as e:
            if e.code == 404:  # left the queue = done
                return True
            raise

    def result_json(self, job_id: str) -> bytes:
        import urllib.request

        with urllib.request.urlopen(
                f"{self.base}/api/v1/json/{job_id}", timeout=300) as r:
            return r.read()


class ParsrIngest:
    """Actor-pool stage: ``(url, pdf)`` rows → ``(url, html, error)``.

    ``transport_factory`` is the seam: called ONCE in ``__init__``
    (per actor) and must return an object with the
    ``submit / finished / result_json`` protocol above. The default
    builds :class:`HttpParsrTransport` against ``server``.

    Per row: submit → poll (``poll_interval`` seconds between polls, at
    most ``max_polls``) → fetch layout JSON. Any exception for a row
    dead-letters THAT row (``html`` null, ``error`` set) and the rest
    of the batch proceeds — identical semantics to the extraction
    stage's poison handling, so a flaky Parsr worker degrades into
    error rows, not a failed job.
    """

    def __init__(self, server: str = "localhost:3001",
                 config: dict | None = None,
                 adjust_cleaner_config: list | None = None,
                 check_tables: bool = False, fast: bool = False,
                 poll_interval: float = 0.25, max_polls: int = 2400,
                 transport_factory: Callable[[], Any] | None = None):
        self.transport = (transport_factory() if transport_factory
                          else HttpParsrTransport(server))
        self.config = build_parsr_config(config, adjust_cleaner_config,
                                         check_tables, fast)
        self.poll_interval = poll_interval
        self.max_polls = max_polls

    def _one(self, url: str, pdf: bytes) -> bytes:
        job = self.transport.submit(pdf, url.rsplit("/", 1)[-1] or "doc.pdf",
                                    self.config)
        for _ in range(self.max_polls):
            if self.transport.finished(job):
                return self.transport.result_json(job)
            time.sleep(self.poll_interval)
        raise TimeoutError(f"parsr job {job} still queued after "
                           f"{self.max_polls} polls")

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        pdfs = batch.column("pdf").to_pylist()
        htmls: list[bytes | None] = []
        errors: list[str | None] = []
        for url, pdf in zip(urls, pdfs):
            try:
                if pdf is None:
                    raise ValueError("null pdf payload")
                htmls.append(self._one(url, pdf))
                errors.append(None)
            except Exception as exc:  # noqa: BLE001 — dead-letter, don't poison
                htmls.append(None)
                errors.append(f"{type(exc).__name__}: {exc}")
        # metadata columns (lang, warc_ts, crawl ids, ...) pass through;
        # only the consumed pdf payload is dropped — so the output feeds
        # the extraction stage without a join back to the input
        out = batch.drop_columns(["pdf"])
        out = out.append_column("html", pa.array(htmls, pa.binary()))
        return out.append_column("error", pa.array(errors, pa.string()))


def ingest_pdfs(ds, *, server: str = "localhost:3001",
                concurrency: int = 4, batch_size: int = 16,
                num_cpus: float = 0.25, **stage_kwargs):
    """Wire a Dataset of ``(url, pdf binary)`` rows through a
    :class:`ParsrIngest` actor pool. ``num_cpus`` defaults LOW because
    the stage is network-bound (the Parsr pool does the compute) — at
    0.25 a 32-CPU node keeps 128 in-flight documents against the
    service while real CPU stages run beside it. Small ``batch_size``
    bounds per-actor latency skew (one slow 500-page PDF should not
    hold 256 fast ones hostage in the same batch).

    Output rows feed ``pipelines.extraction.extract_dataset`` directly:
    ``html`` carries the layout JSON, failed documents arrive as
    dead-letter rows the downstream stage passes through.
    """
    return ds.map_batches(
        ParsrIngest,
        fn_constructor_kwargs={"server": server, **stage_kwargs},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=num_cpus,
    )


class IdentityLayoutTransport:
    """No-network stand-in for a Parsr service used by
    ``parsr_ingest_roundtrip``: the submitted "PDF" payload is the
    document's utf-8 text, and the "parse" result is the kernel-identity
    layout for that text (``sources.synth.identity_layout`` — the same
    wrap behind ``extract_roundtrip``'s oracle). Jobs take one poll to
    finish so the poll loop is exercised. Everything the oracle checks
    therefore flows through the REAL connector plumbing: multipart-free
    submit, poll, fetch, per-row dead-letter, metadata passthrough."""

    def __init__(self):
        self._jobs: dict[str, bytes] = {}
        self._polled: set[str] = set()

    def submit(self, pdf: bytes, filename: str, config: dict) -> str:
        job = f"job-{len(self._jobs)}"
        self._jobs[job] = pdf
        return job

    def finished(self, job_id: str) -> bool:
        if job_id in self._polled:
            return True
        self._polled.add(job_id)
        return False

    def result_json(self, job_id: str) -> bytes:
        from pd3f_ray.sources.synth import identity_layout

        return json.dumps(
            identity_layout(self._jobs[job_id].decode("utf-8")),
            ensure_ascii=False).encode()


def parsr_ingest_roundtrip(sf_dir: str):
    """Oracle-checkable end-to-end exercise of the PDF-ingestion
    connector: every ``documents`` row becomes a fake "PDF" (its text
    bytes), pushed through the REAL ``ParsrIngest`` actor pool (submit →
    poll → fetch → passthrough) against the deterministic
    :class:`IdentityLayoutTransport`, then through the REAL
    ``ExtractDocs`` actor pool — the full reference ingestion lifecycle
    (parsr_wrapper.py:53-114 → export) as one streaming Ray pipeline.
    Emitted as (url, text); the oracle is byte-per-url identical to
    ``extract_roundtrip``'s (text + the renderer's paragraph ``\\n\\n``).

    Pool sizing: two chained actor pools must CO-schedule — the ingest
    pool takes cpus//4 actors at 0.25 CPU (the stage is service-bound in
    real deployments), extraction cpus//2 at 0.75, which fits from the
    4-CPU test session up (same convention as web_corpus_pipeline).
    """
    from pd3f_ray.core.cluster import cluster_cpus, read_table
    from pd3f_ray.pipelines.extraction import extract_dataset

    cpus = cluster_cpus()
    ingest_pool = max(1, cpus // 4)
    extract_pool = max(1, cpus // 2)

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def to_pdfs(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        return pa.table({
            "url": pa.array([f"doc://{i}" for i in ids], pa.string()),
            "pdf": pa.array([t.encode("utf-8") for t in texts],
                            pa.binary()),
            "lang": batch.column("lang"),
            "warc_ts": pa.array([0] * batch.num_rows, pa.timestamp("us")),
        })

    ingested = ingest_pdfs(
        docs.map_batches(to_pdfs, batch_format="pyarrow"),
        concurrency=ingest_pool, batch_size=64, num_cpus=0.25,
        poll_interval=0.0, transport_factory=IdentityLayoutTransport)

    extracted = extract_dataset(ingested, concurrency=extract_pool)

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({
            "url": batch.column("url"),
            "text": batch.column("text").cast(pa.string()),
        })

    return extracted.map_batches(project, batch_format="pyarrow")


PARSR_INGEST_ROUNDTRIP_SQL = """
SELECT 'doc://' || CAST(doc_id AS VARCHAR) AS url,
       text || chr(10) || chr(10) AS text
FROM documents
"""

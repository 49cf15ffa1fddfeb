"""End-to-end extraction pipelines.

Ray-native lifecycle (SURVEY.md §3): ``read_parquet`` (column-pruned) →
``map_batches(ExtractDocs(opts), batch_size=None)``, one task per read
block fused into the read → consume (write_parquet / aggregate).
Page-table inputs go through one ``bucket_exchange`` first. The
resumable runner shards the input files and commits one output
directory + manifest record per shard.
"""

from __future__ import annotations

import glob
import os

import orjson
import ray.data as rd

from pd3f_ray.core.cluster import read_parquet, read_table
from pd3f_ray.core.config import ExtractOptions
from pd3f_ray.sources.synth import (
    _IdGen,
    fixture_layout,
    fixture_table,
    gap_dummy,
    identity_layout,
    identity_paragraph,
)
from pd3f_ray.stages.extract import ExtractDocs
from pd3f_ray.stages.pages import assemble_pages_dataset
from pd3f_ray.state import manifest as mf

# columns the extraction stage needs — never read the rest off storage
DOC_COLUMNS = ["url", "warc_ts", "html", "lang"]
PAGE_COLUMNS = ["url", "warc_ts", "page_idx", "page_json", "lang"]


def extract_dataset(
    ds: "rd.Dataset",
    opts: ExtractOptions | None = None,
    markdown: bool = False,
) -> "rd.Dataset":
    """Document-table Dataset → extracted Dataset (EXTRACT_SCHEMA). A
    task stage, one call per input block: it fuses with the map or
    unsplit read before it."""
    return ds.map_batches(
        ExtractDocs(opts, markdown),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,
    )


def read_documents(path: str | list[str]) -> "rd.Dataset":
    return read_parquet(path, columns=DOC_COLUMNS)


def extract_from_parquet(
    path: str | list[str],
    opts: ExtractOptions | None = None,
    markdown: bool = False,
) -> "rd.Dataset":
    return extract_dataset(read_documents(path), opts, markdown)


def extract_from_pages_parquet(
    path: str | list[str],
    opts: ExtractOptions | None = None,
) -> "rd.Dataset":
    """Page-table variant: one url-hash-bucketed shuffle restores page
    order, then extraction — the fused plan (compressed exchange,
    extraction inside the shuffle-reduce tasks — see
    ``extract_pages_fused``). ``pages_staged_roundtrip`` exercises the
    staged assemble → extract plan."""
    from pd3f_ray.stages.pages import extract_pages_fused

    return extract_pages_fused(read_parquet(path, columns=PAGE_COLUMNS),
                               opts)


def extract_markdown_from_parquet(
    path: str | list[str],
    opts: ExtractOptions | None = None,
) -> "rd.Dataset":
    """Markdown-render variant (reference: markdown=True at
    doc_output.py:107-125): headings prefixed with '#' * level."""
    return extract_dataset(read_documents(path), opts, markdown=True)


def extract_elements_from_parquet(
    path: str | list[str],
    opts: ExtractOptions | None = None,
) -> "rd.Dataset":
    """Element-level output: one row per output element in final
    document order (ELEMENTS_SCHEMA)."""
    from pd3f_ray.stages.extract import ExtractElements

    return read_documents(path).map_batches(
        ExtractElements(opts),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,
    )


def extract_roundtrip(sf_dir: str):
    """Oracle-checkable end-to-end exercise of the REAL extraction
    stage: every ``documents`` row is wrapped into a layout the kernel
    is identity on (one page; one paragraph holding the whole token
    stream as ONE line — no join-cascade decisions, no dedup/
    page-number/header-footer candidates; plus a punctuation-only
    two-line dummy paragraph that the alnum gate drops but that gives
    DocStats its required line-gap sample), pushed through the
    ``ExtractDocs`` stage under the flagship experimental config,
    and emitted as (url, text). The oracle appends the renderer's
    per-paragraph ``\\n\\n`` to ``documents.text`` — i.e. the driver
    hash-compares the EXTRACTED text byte-for-byte per url (the north
    rule's per-row invariant) through its own checker instead of a
    rows-only count."""
    import pyarrow as pa

    def wrap(batch: pa.Table) -> pa.Table:
        return fixture_table(
            batch.column("doc_id").to_pylist(),
            batch.column("lang").to_pylist(),
            [orjson.dumps(identity_layout(text))
             for text in batch.column("text").to_pylist()])

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    extracted = extract_dataset(docs.map_batches(wrap, batch_format="pyarrow"))

    return extracted.map_batches(_project_url_text, batch_format="pyarrow")


EXTRACT_ROUNDTRIP_SQL = """
SELECT 'doc://' || CAST(doc_id AS VARCHAR) AS url,
       text || chr(10) || chr(10) AS text
FROM documents
"""


def _pages_roundtrip_input(sf_dir: str):
    """Oracle-checkable end-to-end exercise of the PAGE-TABLE path —
    the engine's one real shuffle (``extract_pages_fused``,
    stages/pages.py): every ``documents`` row is split at the word
    midpoint into TWO pages, each holding one single-line paragraph in
    the kernel-identity shape of ``extract_roundtrip`` (page 0 also
    carries the punctuation-only dummy that feeds DocStats its line-gap
    sample). Page rows are emitted in REVERSED page order so the
    bucketed sort-shuffle's ``(url, page_idx)`` restore is load-bearing,
    then pushed through the fused plan (compressed exchange + extraction
    in the shuffle-reduce tasks) and projected to (url, text).

    Why the oracle is exact: a single-line paragraph always takes join-
    cascade rule 2 and sets ``ends_newline`` (kernel.py:522-541), which
    makes ``_merge_page_breaks`` skip the page boundary (doc_output.py
    semantics, kernel.py:701-710) — so the output is deterministically
    ``part1 || '\\n\\n' || part2 || '\\n\\n'``, reproduced in SQL by the
    same word-midpoint split. Docs with <2 words stay one page."""
    import pyarrow as pa

    from pd3f_ray.sources.synth import FONTS

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        langs = batch.column("lang").to_pylist()
        out_ids, idxs, blobs, out_langs = [], [], [], []
        for did, text, lang in zip(ids, texts, langs):
            words = text.split(" ")
            if len(words) < 2:
                halves = [words]
            else:
                h = (len(words) + 1) // 2
                halves = [words[:h], words[h:]]
            gen = _IdGen()
            fonts = [dict(f) for f in FONTS]
            payloads = []
            for pi, part in enumerate(halves):
                elements = [identity_paragraph(gen, part)]
                if pi == 0:
                    elements.append(gap_dummy(gen))
                payloads.append(orjson.dumps(
                    {"page": {"elements": elements}, "fonts": fonts}))
            for pi in reversed(range(len(payloads))):
                out_ids.append(did)
                idxs.append(pi)
                blobs.append(payloads[pi])
                out_langs.append(lang)
        return fixture_table(out_ids, out_langs, blobs, page_idx=idxs)

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    return docs.map_batches(explode, batch_format="pyarrow")


def _project_url_text(batch):
    import pyarrow as _pa

    return _pa.table({
        "url": batch.column("url"),
        "text": batch.column("text").cast(_pa.string()),
    })


def pages_roundtrip(sf_dir: str):
    """Fused-plan exercise of the page-table shuffle (see
    ``_pages_roundtrip_input`` for the fixture and why the oracle is
    exact): compressed exchange + extraction inside the shuffle-reduce
    tasks (``extract_pages_fused``)."""
    from pd3f_ray.stages.pages import extract_pages_fused

    extracted = extract_pages_fused(_pages_roundtrip_input(sf_dir))
    return extracted.map_batches(_project_url_text, batch_format="pyarrow")


def pages_staged_roundtrip(sf_dir: str):
    """STAGED-plan exercise of the page-table path over the same
    fixture and oracle as ``pages_roundtrip``: the un-fused
    ``assemble_pages_dataset`` exchange (url-bucket partitions → document
    reassembly rows) followed by the ``ExtractDocs`` stage —
    proving the two physical plans are byte-equivalent per url, not
    just the fused one the engine defaults to."""
    assembled = assemble_pages_dataset(_pages_roundtrip_input(sf_dir))
    extracted = extract_dataset(assembled)
    return extracted.map_batches(_project_url_text, batch_format="pyarrow")


PAGES_ROUNDTRIP_SQL = """
WITH w AS (
  SELECT doc_id, text, string_split(text, ' ') AS ws FROM documents
), s AS (
  SELECT doc_id, text, ws, len(ws) AS k, (len(ws) + 1) // 2 AS h FROM w
)
SELECT 'doc://' || CAST(doc_id AS VARCHAR) AS url,
       CASE WHEN k < 2 THEN text || chr(10) || chr(10)
            ELSE array_to_string(ws[1:h], ' ') || chr(10) || chr(10)
                 || array_to_string(ws[h+1:k], ' ') || chr(10) || chr(10)
       END AS text
FROM s
"""


def headers_roundtrip(sf_dir: str):
    """Oracle-checkable exercise of the HEADER/FOOTER machinery through
    the real ``ExtractDocs`` stage: every ``documents`` row becomes
    a TWO-page layout where each page carries (a) an isHeader element
    ``Src <source>`` repeated verbatim on both pages, (b) a body
    paragraph (page 0: the full token stream as one line — the
    ``extract_roundtrip`` identity shape, page 0 also holds the line-gap
    dummy; page 1: the single word ``end``), and (c) an isFooter element
    ``Page of <source>``. Header/footer lines sit at MARGIN_L+200 so the
    ``is_body_paragrah`` left-median test (kernel ``looks_like_body``,
    reference doc_info.py:305-321) can never reclassify them: the doc
    always has 4 body-left and 4 shifted lines, putting the median 100px
    from both. Config = experimental but ``remove_page_number=False``
    (the reference quirk faithfully reproduced in
    ``drop_page_number_groups`` empties header/footer output otherwise).

    What the oracle proves byte-per-url: near-dup header AND footer
    groups across pages are deduped to one survivor (D1 groups_similar +
    D3 sequential LM-tiebreak dedup, reference doc_info.py:102-152),
    header renders once at the top, footer once at the end — i.e.
    ``Src <source>\n\n<text>\n\nend\n\nPage of <source>\n\n``."""
    import pyarrow as pa

    from pd3f_ray.sources.synth import BODY_FONT, MARGIN_L, _line, _paragraph

    hf_left = MARGIN_L + 200.0

    def wrap(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        srcs = batch.column("source").to_pylist()
        htmls = []
        for text, source in zip(texts, srcs):
            gen = _IdGen()

            def flagged(words, top, header):
                ln = _line(gen, words, BODY_FONT, top, hf_left)
                p = _paragraph(gen, [ln])
                p["properties"] = {"isHeader": header, "isFooter": not header}
                return p

            pages = []
            for pi, body_words in enumerate([text.split(" "), ["end"]]):
                els = [flagged(["Src", source], 20.0, True),
                       identity_paragraph(gen, body_words)]
                if pi == 0:
                    els.append(gap_dummy(gen))
                els.append(flagged(["Page", "of", source], 700.0, False))
                pages.append({"elements": els})
            htmls.append(orjson.dumps(fixture_layout(pages)))
        return fixture_table(batch.column("doc_id").to_pylist(),
                             batch.column("lang").to_pylist(), htmls)

    docs = read_table(sf_dir, "documents",
                      columns=["doc_id", "text", "source", "lang"])
    opts = ExtractOptions.experimental().with_(remove_page_number=False)
    extracted = extract_dataset(
        docs.map_batches(wrap, batch_format="pyarrow"), opts=opts
    )

    return extracted.map_batches(_project_url_text, batch_format="pyarrow")


HEADERS_ROUNDTRIP_SQL = """
SELECT 'doc://' || CAST(doc_id AS VARCHAR) AS url,
       'Src ' || source || chr(10) || chr(10)
       || text || chr(10) || chr(10)
       || 'end' || chr(10) || chr(10)
       || 'Page of ' || source || chr(10) || chr(10) AS text
FROM documents
"""


def _add_key_bucket(key: str, num_buckets: int):
    """Map-side key-hash bucket column (crc32 of the stringified key —
    stable across processes) for hash-partitioned output: no extra
    shuffle, the partitioned write splits each block by the column
    value."""
    import zlib

    import pyarrow as pa

    def add(batch: pa.Table) -> pa.Table:
        b = pa.array(
            [zlib.crc32(str(u).encode()) % num_buckets
             for u in batch.column(key).to_pylist()],
            pa.int32(),
        )
        return batch.append_column("bucket", b)

    return add


def run_resumable(
    input_path: str,
    out_dir: str,
    opts: ExtractOptions | None = None,
    num_shards: int = 8,
    num_buckets: int = 16,
    transform=None,
    bucket_key: str = "url",
    markdown: bool = False,
) -> dict:
    """Sharded, resumable extraction run.

    ``transform`` generalizes the runner beyond extraction: any
    ``(shard_files: list[str]) -> Dataset`` callable (a curation pass, a
    chunk+encode pipeline, a stats projection) inherits the same
    shard-manifest resume, atomic commit, lineage-staleness check and
    bucketed output. ``bucket_key`` names the output column to
    hash-partition by (an EXPLICIT knob, not probed from ``ds.schema()``
    — the schema probe would execute the pipeline's first block twice);
    the error count is 0 unless the written schema carries an ``error``
    column. Default transform = the extraction pipeline (``markdown``
    selects its markdown render).

    Input parquet files are deterministically grouped into shards; the
    shards run one after another, each extracted as its own streaming
    Dataset execution and committed atomically (temp dir → rename →
    manifest append). A rerun skips shards already in the manifest, so
    a killed job loses at most one shard of work. Output inside each
    shard is hash-partitioned by url bucket (``bucket=NN/`` dirs,
    north_rule's "partitions by url hash") — map-side column +
    partitioned write, no shuffle. Returns summary metrics.
    """
    import pyarrow.dataset as pads

    os.makedirs(out_dir, exist_ok=True)
    files = sorted(glob.glob(os.path.join(input_path, "*.parquet")))
    if not files:
        raise FileNotFoundError(f"no parquet files under {input_path}")
    shards = mf.plan_shards(files, num_shards)
    done = mf.load_completed(out_dir)

    total = {"shards_done": 0, "shards_skipped": 0, "shards_stale": 0,
             "rows": 0, "errors": 0}
    todo: list[tuple[int, list[str]]] = []
    for shard_id, shard_files in enumerate(shards):
        if shard_id in done:
            # lineage check: a shard is only skippable if its recorded
            # input files match the current plan — adding/removing input
            # files between runs changes the plan, and silently keeping
            # the stale output would drop or duplicate documents
            if done[shard_id].get("input_files") == shard_files:
                total["shards_skipped"] += 1
                total["rows"] += done[shard_id].get("rows", 0)
                total["errors"] += done[shard_id].get("errors", 0)
                continue
            total["shards_stale"] += 1  # fall through: reprocess
        todo.append((shard_id, shard_files))

    def run_shard(shard_id: int, shard_files: list[str]) -> dict:
        tmp = mf.shard_dir(out_dir, shard_id) + ".__tmp"
        if os.path.exists(tmp):
            import shutil

            shutil.rmtree(tmp)
        ds = (transform(shard_files) if transform is not None
              else extract_from_parquet(shard_files, opts, markdown))
        if num_buckets:
            ds = ds.map_batches(_add_key_bucket(bucket_key, num_buckets),
                                batch_format="pyarrow")
            ds.write_parquet(tmp, partition_cols=["bucket"])
        else:
            ds.write_parquet(tmp)
        # metadata-only row count + error count over the written shard
        written = pads.dataset(tmp, format="parquet")
        rows = written.count_rows()
        errors = (written.count_rows(
            filter=~pads.field("error").is_null())
            if "error" in written.schema.names else 0)
        return mf.commit_shard(out_dir, shard_id, tmp, shard_files,
                               {"rows": rows, "errors": errors})

    for rec in (run_shard(sid, sf) for sid, sf in todo):
        total["shards_done"] += 1
        total["rows"] += rec["rows"]
        total["errors"] += rec["errors"]
    return total


def resumable_write_roundtrip(sf_dir: str, num_shards: int = 4):
    """Driver-checkable roundtrip of the resumable-sink machinery
    (S4/S5: sharded ``run_resumable`` + shard manifests + input-lineage
    check + key-hash bucketed partitioned write + resume skip): the
    documents table is re-sharded into a per-invocation scratch input
    (``num_shards`` parquet files — the repartition is FIXTURE PREP,
    not part of the measured plan), pushed through ``run_resumable``
    with a digest transform, then run a SECOND time against the same
    manifest — which must skip every shard (asserted in-op, so a
    driver/oracle pass certifies the resume semantics, not just the
    write). The bucket=NN partitioned output is read back per shard
    dir. Output (doc_id, digest); oracle = md5(text) per document
    straight off the source table — byte-equal means the sharded,
    bucketed, twice-run sink lost, duplicated and reordered nothing."""
    import tempfile

    import pyarrow as pa

    from pd3f_ray.functions.textfns import md5_hex

    scratch = tempfile.mkdtemp(prefix="pd3f_ray_resume_rt_")
    in_dir = os.path.join(scratch, "in")
    out_dir = os.path.join(scratch, "out")

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    docs.repartition(num_shards).write_parquet(in_dir)

    def transform(shard_files):
        ds = read_parquet(shard_files)

        def digest(batch: pa.Table) -> pa.Table:
            texts = batch.column("text").to_pylist()
            return pa.table({
                "doc_id": batch.column("doc_id"),
                "digest": pa.array([md5_hex(t) for t in texts],
                                   pa.string()),
            })

        return ds.map_batches(digest, batch_format="pyarrow")

    kw = dict(num_shards=num_shards, num_buckets=8,
              transform=transform, bucket_key="doc_id")
    first = run_resumable(in_dir, out_dir, **kw)
    second = run_resumable(in_dir, out_dir, **kw)  # resume: all skipped
    done = first["shards_done"] + first["shards_skipped"]
    if second["shards_done"] != 0 or second["shards_skipped"] != done:
        raise AssertionError(
            f"resume did not skip completed shards: first={first} "
            f"second={second}")

    files = sorted(glob.glob(
        os.path.join(out_dir, "shard=*", "bucket=*", "*.parquet")))
    if not files:
        raise AssertionError(f"no bucketed output under {out_dir}")
    out = read_parquet(files)
    return out.map_batches(lambda b: b.select(["doc_id", "digest"]),
                           batch_format="pyarrow")


RESUMABLE_ROUNDTRIP_SQL = """
SELECT doc_id, md5(text) AS digest FROM documents
"""


def compact_parquet(in_dir: str, out_dir: str,
                    target_mb: int = 128) -> dict:
    """Small-files compaction — the operational follow-up to a sharded
    resumable run: a K-way-parallel job over many shards leaves many
    small parquet files, and at 100 TB the file count itself becomes
    the bottleneck (metadata reads, task-per-file scheduling). Coalesce
    a parquet directory into ~``target_mb``-sized files: the target
    block count comes from parquet METADATA byte sizes (no data read on
    the driver), then one streaming read → ``repartition`` →
    ``write_parquet``. Returns {files_in, files_out, bytes, rows}.

    The repartition is an exchange by design — compaction IS a data
    movement job; run it once per output generation, not per query."""
    import glob as _glob

    import pyarrow.parquet as _pq

    files = sorted(_glob.glob(os.path.join(in_dir, "**", "*.parquet"),
                              recursive=True))
    if not files:
        raise FileNotFoundError(f"no parquet files under {in_dir}")
    total_bytes = 0
    rows = 0
    for f in files:
        md = _pq.read_metadata(f)
        rows += md.num_rows
        for rg in range(md.num_row_groups):
            total_bytes += md.row_group(rg).total_byte_size
    blocks = max(1, round(total_bytes / (target_mb * 1024 * 1024)))
    ds = read_parquet(files).repartition(blocks)
    os.makedirs(out_dir, exist_ok=True)
    ds.write_parquet(out_dir)
    files_out = len(_glob.glob(os.path.join(out_dir, "**", "*.parquet"),
                               recursive=True))
    return {"files_in": len(files), "files_out": files_out,
            "bytes": total_bytes, "rows": rows}


def _fixture_roundtrip(sf_dir: str, build_pages, opts: ExtractOptions | None = None):
    """Shared harness for the decision-path roundtrips below: wrap every
    ``documents`` row into ``build_pages(gen, text)``-built pages (page 0
    is expected to start with the identity-shape text paragraph), push
    through the REAL ``ExtractDocs`` stage, emit (url, text). The
    fixture paragraphs use only constant geometry (fixed tops/lefts/
    word sets), so every join-cascade / scorer decision inside them is
    byte-constant across documents and SQL-expressible as a literal."""
    import pyarrow as pa

    def wrap(batch: pa.Table) -> pa.Table:
        return fixture_table(
            batch.column("doc_id").to_pylist(),
            batch.column("lang").to_pylist(),
            [orjson.dumps(fixture_layout(build_pages(_IdGen(), text)))
             for text in batch.column("text").to_pylist()])

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    extracted = extract_dataset(
        docs.map_batches(wrap, batch_format="pyarrow"), opts=opts
    )

    return extracted.map_batches(_project_url_text, batch_format="pyarrow")


def dehyphen_roundtrip(sf_dir: str):
    """Oracle-checked DEHYPHENATION path (reference dehyphen_paragraph,
    dehyphen_wrapper.py:34-37): page 0 carries, besides the identity
    text paragraph, a fixed two-line paragraph whose first line ends
    ``recon-`` and whose second starts ``struction`` — the scorer's
    three-candidate choice (merge-plain / keep-hyphen / leave-split)
    deterministically merges to ``reconstruction`` (in-vocab), the line
    pair joins with a space (cascade rule 5: >5 words), and the output
    gains a byte-constant second paragraph the SQL oracle reproduces as
    a literal."""
    from pd3f_ray.sources.synth import BODY_FONT, LINE_GAP, LINE_H, MARGIN_L, \
        _line, _paragraph

    def pages(gen, text):
        l1 = _line(gen, ["the", "data", "and", "the", "table", "recon-"],
                   BODY_FONT, 200.0, MARGIN_L)
        l2 = _line(gen, ["struction", "of", "the", "continuation", "value."],
                   BODY_FONT, 200.0 + LINE_H + LINE_GAP, MARGIN_L)
        return [{"elements": [identity_paragraph(gen, text.split(" ")),
                              _paragraph(gen, [l1, l2]), gap_dummy(gen)]}]

    return _fixture_roundtrip(sf_dir, pages)


DEHYPHEN_ROUNDTRIP_SQL = """
SELECT 'doc://' || CAST(doc_id AS VARCHAR) AS url,
       text || chr(10) || chr(10)
       || 'the data and the table reconstruction of the continuation value.'
       || chr(10) || chr(10) AS text
FROM documents
"""


def pagebreak_roundtrip(sf_dir: str):
    """Oracle-checked CROSS-PAGE PARAGRAPH MERGE path (reference
    reverse_page_break, doc_output.py:59-95 + is_split_paragraph LM
    test): page 0 ends with a fixed two-line paragraph whose last line
    fills its hull (rule 2 → no trailing newline), page 1 opens with its
    continuation; the scorer's merged-candidate score beats both parts
    (in-vocab words, incompleteness penalties removed), so the two pages'
    paragraphs come back as ONE byte-constant flowing paragraph."""
    from pd3f_ray.sources.synth import BODY_FONT, LINE_GAP, LINE_H, MARGIN_L, \
        _line, _paragraph

    def pages(gen, text):
        m1 = _line(gen, ["the", "data", "and", "the", "table", "with"],
                   BODY_FONT, 200.0, MARGIN_L)
        m2 = _line(gen, ["the", "continuation", "of", "the", "data"],
                   BODY_FONT, 200.0 + LINE_H + LINE_GAP, MARGIN_L)
        n1 = _line(gen, ["was", "a", "reconstruction", "of", "the", "value."],
                   BODY_FONT, 90.0, MARGIN_L)
        return [
            {"elements": [identity_paragraph(gen, text.split(" ")),
                          gap_dummy(gen), _paragraph(gen, [m1, m2])]},
            {"elements": [_paragraph(gen, [n1])]},
        ]

    return _fixture_roundtrip(sf_dir, pages)


PAGEBREAK_ROUNDTRIP_SQL = """
SELECT 'doc://' || CAST(doc_id AS VARCHAR) AS url,
       text || chr(10) || chr(10)
       || 'the data and the table with the continuation of the data '
       || 'was a reconstruction of the value.' || chr(10) || chr(10) AS text
FROM documents
"""


def footnotes_roundtrip(sf_dir: str):
    """Oracle-checked FOOTNOTE path (reference is_footnotes_paragraph
    export.py:514-554, footnote join variant export.py:428-460, and
    reorder_footnotes doc_output.py:97-105): page 0 ends with a fixed
    two-line SMALL_FONT paragraph whose lines start with numerals — the
    classifier fires (non-body font, size below body, last on page,
    numeric lead) and the reorder moves it AFTER page 1's body text; a
    BODY_FONT filler paragraph pins the document's modal font so short
    documents can't flip ``body_font`` to the footnote font. Output =
    text, filler, page-1 body, then the footnote render (its own
    line-join quirks included) — all byte-constant."""
    from pd3f_ray.sources.synth import BODY_FONT, SMALL_FONT, LINE_GAP, \
        LINE_H, MARGIN_L, _line, _paragraph

    filler_words = ("the data and the table with the value of the batch "
                    "stream").split(" ")

    def pages(gen, text):
        filler = _paragraph(gen, [_line(gen, list(filler_words), BODY_FONT,
                                        200.0, MARGIN_L)])
        f1 = _line(gen, ["1", "see", "the", "value"], SMALL_FONT, 700.0,
                   MARGIN_L)
        f2 = _line(gen, ["2", "see", "the", "data"], SMALL_FONT,
                   700.0 + LINE_H + LINE_GAP, MARGIN_L)
        p2 = _paragraph(gen, [_line(gen, ["end."], BODY_FONT, 90.0, MARGIN_L)])
        return [
            {"elements": [identity_paragraph(gen, text.split(" ")), filler,
                          gap_dummy(gen), _paragraph(gen, [f1, f2])]},
            {"elements": [p2]},
        ]

    return _fixture_roundtrip(sf_dir, pages)


FOOTNOTES_ROUNDTRIP_SQL = """
SELECT 'doc://' || CAST(doc_id AS VARCHAR) AS url,
       text || chr(10) || chr(10)
       || 'the data and the table with the value of the batch stream'
       || chr(10) || chr(10) || 'end.' || chr(10) || chr(10)
       || '1 see the value  2 see the data' || chr(10) AS text
FROM documents
"""


def deadletter_roundtrip(sf_dir: str):
    """Oracle-checked ERROR SEMANTICS (SURVEY §7.4 hard part 5 — the
    reference raises on degenerate docs, doc_info.py:217-233; the engine
    must convert them to dead-letter rows WITHOUT stalling the stream):
    every ``documents`` row gets the identity wrap, but docs with
    ``doc_id % 7 == 0`` ship a TRUNCATED payload (unparseable JSON). The
    stage must dead-letter exactly those rows (text NULL, error set) and
    extract every other row byte-identically in the same execution —
    proving one poisoned row never fails its whole batch/block. Output
    (url, text?, failed)."""
    import pyarrow as pa

    def wrap(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        htmls = []
        for did, text in zip(ids, texts):
            blob = orjson.dumps(identity_layout(text))
            # mid-token truncation: unparseable
            htmls.append(blob[:25] if did % 7 == 0 else blob)
        return fixture_table(ids, batch.column("lang").to_pylist(), htmls)

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    extracted = extract_dataset(docs.map_batches(wrap, batch_format="pyarrow"))

    def project(batch):
        import pyarrow as _pa
        import pyarrow.compute as _pc

        return _pa.table({
            "url": batch.column("url"),
            "text": batch.column("text").cast(_pa.string()),
            "failed": _pc.is_valid(batch.column("error")),
        })

    return extracted.map_batches(project, batch_format="pyarrow")


DEADLETTER_ROUNDTRIP_SQL = """
SELECT 'doc://' || CAST(doc_id AS VARCHAR) AS url,
       CASE WHEN doc_id % 7 = 0 THEN NULL
            ELSE text || chr(10) || chr(10) END AS text,
       doc_id % 7 = 0 AS failed
FROM documents
"""


def skipline_roundtrip(sf_dir: str):
    """Oracle-checked LINE-SKIP path (reference alphanum line filter
    export.py:398-420 + the ``LinesWithNone`` skip-iteration semantics
    export.py:106-151 — SURVEY §7.4 hard part 1): the fixture paragraph
    holds [words, PUNCT-ONLY line, words]; the middle line must be
    dropped by the alnum gate and the join decision made between its
    NEIGHBORS (here: newline — the vertical gap across the dropped line
    clears cascade rule 4), yielding the only mid-paragraph ``\\n`` in
    the roundtrip suite. Byte-constant per document."""
    from pd3f_ray.sources.synth import BODY_FONT, LINE_GAP, LINE_H, MARGIN_L, \
        _line, _paragraph

    def pages(gen, text):
        a = _line(gen, ["the", "data", "and", "the", "table", "with"],
                  BODY_FONT, 200.0, MARGIN_L)
        junk = _line(gen, ["?!*", "---"], BODY_FONT,
                     200.0 + LINE_H + LINE_GAP, MARGIN_L)
        b = _line(gen, ["the", "value", "of", "the", "merge", "batch."],
                  BODY_FONT, 200.0 + 2 * (LINE_H + LINE_GAP), MARGIN_L)
        return [{"elements": [identity_paragraph(gen, text.split(" ")),
                              _paragraph(gen, [a, junk, b]), gap_dummy(gen)]}]

    return _fixture_roundtrip(sf_dir, pages)


SKIPLINE_ROUNDTRIP_SQL = """
SELECT 'doc://' || CAST(doc_id AS VARCHAR) AS url,
       text || chr(10) || chr(10)
       || 'the data and the table with' || chr(10)
       || 'the value of the merge batch.' || chr(10) || chr(10) AS text
FROM documents
"""

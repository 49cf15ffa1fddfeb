"""The extraction stage: a ``map_batches`` callable run as plain tasks.

The instance holds only the options; scorer state lives in the worker
process (``core.scorer.get_scorer`` caches one scorer per language per
process), so every task a worker runs reuses it. Batches arrive as
zero-copy Arrow tables; rows are independent documents, so the stage is
embarrassingly parallel and the batch loop only amortizes Python
dispatch. Replaces the reference's single-process, one-document-at-a-
time driver (/root/reference/pd3f/export.py:30-103) with a streaming,
horizontally scalable stage.
"""

from __future__ import annotations

import pyarrow as pa

from pd3f_ray.core.config import ExtractOptions
from pd3f_ray.core.kernel import extract_record
from pd3f_ray.core.scorer import get_scorer

# output schema of the extraction stage — large_string for text so very
# wide documents can't overflow 32-bit string offsets in a block
EXTRACT_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("lang", pa.string()),
        ("text", pa.large_string()),
        ("n_pages", pa.int32()),
        ("n_elements", pa.int32()),
        ("n_chars", pa.int64()),
        ("payload_bytes", pa.int64()),
        # table side-channel: CSVs joined with \x1d (group separator) so
        # the column stays a sortable scalar; "" = no tables. Never
        # merged into `text` (reference: export.py:46,86-93,103)
        ("tables_csv", pa.large_string()),
        ("n_tables", pa.int32()),
        ("error", pa.string()),
    ]
)

TABLE_SEP = "\x1d"


def lang_options(base: ExtractOptions, langs) -> dict:
    """``base`` for each distinct language in ``langs``: built once per
    batch instead of one ``dataclasses.replace`` per document."""
    return {lang: base if base.lang == lang else base.with_(lang=lang)
            for lang in set(langs)}


class ExtractDocs:
    """Per-batch callable for ``ds.map_batches(ExtractDocs(opts),
    batch_format="pyarrow", batch_size=None)``: a task stage that fuses
    with the read or map before it. Scorers come from the per-process
    ``get_scorer`` cache, built on first use per language."""

    def __init__(self, opts: ExtractOptions | None = None,
                 markdown: bool = False):
        self.opts = opts or ExtractOptions.experimental()
        self.markdown = markdown

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch.column("url")
        tss = batch.column("warc_ts")
        htmls = batch.column("html")
        langs = batch.column("lang")

        texts: list[str | None] = []
        errors: list[str | None] = []
        n_pages: list[int] = []
        n_elements: list[int] = []
        n_chars: list[int] = []
        payload: list[int] = []
        tables_csv: list[str] = []
        n_tables: list[int] = []

        lang_list = langs.to_pylist()
        opts_of = lang_options(self.opts, lang_list)
        for i, lang in enumerate(lang_list):
            html = htmls[i].as_py()
            rec = extract_record(html, opts_of[lang], scorer=get_scorer(lang),
                                 markdown=self.markdown)
            texts.append(rec["text"])
            errors.append(rec["error"])
            n_pages.append(rec["n_pages"])
            n_elements.append(rec["n_elements"])
            n_chars.append(len(rec["text"]) if rec["text"] is not None else 0)
            payload.append(len(html))
            tbls = rec.get("tables") or []
            tables_csv.append(TABLE_SEP.join(tbls))
            n_tables.append(len(tbls))

        return pa.table(
            {
                "url": urls,
                "warc_ts": tss,
                "lang": langs,
                "text": pa.array(texts, pa.large_string()),
                "n_pages": pa.array(n_pages, pa.int32()),
                "n_elements": pa.array(n_elements, pa.int32()),
                "n_chars": pa.array(n_chars, pa.int64()),
                "payload_bytes": pa.array(payload, pa.int64()),
                "tables_csv": pa.array(tables_csv, pa.large_string()),
                "n_tables": pa.array(n_tables, pa.int32()),
                "error": pa.array(errors, pa.string()),
            },
            schema=EXTRACT_SCHEMA,
        )


# output schema of the element-level stage: one row per output element,
# in final document order (after header/footer dedup, footnote
# reordering, and page-break merges) — the Ray-surface equivalent of the
# reference's DocumentOutput element list (doc_output.py:14-27)
ELEMENTS_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("section", pa.string()),       # header | body | footer
        ("kind", pa.string()),          # body | heading | footnotes
        ("elem_idx", pa.int32()),       # position within the section
        ("idx_page", pa.int32()),
        ("text", pa.large_string()),
        ("error", pa.string()),
    ]
)


class ExtractElements:
    """Element-level extraction: explodes each document into its output
    elements (flat_map shape: one input row → N output rows). Same
    dead-letter contract as ExtractDocs — a failed document yields one
    row with the error set."""

    def __init__(self, opts: ExtractOptions | None = None):
        self.opts = opts or ExtractOptions.experimental()

    def __call__(self, batch: pa.Table) -> pa.Table:
        from pd3f_ray.core.kernel import DocumentKernel, _json_loads

        urls = batch.column("url").to_pylist()
        htmls = batch.column("html").to_pylist()
        langs = batch.column("lang").to_pylist()

        cols = {k: [] for k in ("url", "section", "kind", "elem_idx",
                                "idx_page", "text", "error")}

        def emit(url, section, kind, idx, page, text, err=None):
            cols["url"].append(url)
            cols["section"].append(section)
            cols["kind"].append(kind)
            cols["elem_idx"].append(idx)
            cols["idx_page"].append(page)
            cols["text"].append(text)
            cols["error"].append(err)

        opts_of = lang_options(self.opts, langs)
        for url, html, lang in zip(urls, htmls, langs):
            try:
                kern = DocumentKernel(_json_loads(html), opts_of[lang],
                                      get_scorer(lang))
                for section, elems in (("header", kern.header),
                                       ("body", kern.body),
                                       ("footer", kern.footer)):
                    for i, e in enumerate(elems):
                        emit(url, section, e.kind, i,
                             -1 if e.idx_page is None else e.idx_page,
                             e.render(), None)
            except Exception as exc:  # noqa: BLE001 — dead-letter semantics
                emit(url, "error", "error", 0, -1, None,
                     f"{type(exc).__name__}: {exc}")

        return pa.table(
            {
                "url": pa.array(cols["url"], pa.string()),
                "section": pa.array(cols["section"], pa.string()),
                "kind": pa.array(cols["kind"], pa.string()),
                "elem_idx": pa.array(cols["elem_idx"], pa.int32()),
                "idx_page": pa.array(cols["idx_page"], pa.int32()),
                "text": pa.array(cols["text"], pa.large_string()),
                "error": pa.array(cols["error"], pa.string()),
            },
            schema=ELEMENTS_SCHEMA,
        )

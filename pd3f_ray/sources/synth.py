"""Deterministic synthetic corpus generator.

Produces Common-Crawl-style Parquet tables matching BASELINE.json's
``input_hint`` schema — ``(url:string, warc_ts:timestamp[us], html:binary,
text:string, lang:string)`` — where ``html`` carries a UTF-8-serialized
layout JSON in the reference's Parsr shape (SURVEY.md §1.1,
/root/reference/pd3f/export.py:221-234, 389-394, 404;
doc_info.py:263-266). The scenario matrix follows FIXTURES.md and targets
every operator branch of the kernel. Seeded and reproducible; no external
data, no network.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import pyarrow as pa

# geometry constants (px) — body text metrics
CHAR_W = 6.0
SPACE_W = 4.0
LINE_H = 10.0
LINE_GAP = 4.0
PAGE_W = 595.0
MARGIN_L = 56.0
BODY_W = 480.0
BODY_FONT = 0
SMALL_FONT = 1
HEADER_FONT = 2

FONTS = [
    {"id": BODY_FONT, "name": "Body", "size": 11.0, "sizeUnit": "px"},
    {"id": SMALL_FONT, "name": "Small", "size": 8.0, "sizeUnit": "px"},
    {"id": HEADER_FONT, "name": "Header", "size": 9.0, "sizeUnit": "px"},
]

# word pool: overlaps the scorer vocabulary (common words + testdata
# vocabulary) plus some out-of-vocabulary tokens for cost contrast
_COMMON = (
    "the a and of to in is on for with data table row line key value part "
    "order sort merge join filter group query batch stream window hash scan "
    "column vector customer agg small big fast slow government report "
    "section budget finance minister committee states member public annual "
    "total result page document text word european commission financial "
    "der die das und ist ein eine im mit von zu den für auf nicht"
).split()
_RARE = "qzx vblk wrtp zzyx kpfg mnrt".split()

_HYPHEN_PAIRS = [
    ("finan-", "ziellen"),   # merge without hyphen → "finanziellen"
    ("zusammen-", "arbeit"),  # unknown merge parts → scorer decides
    ("EU-", "Staaten"),       # keep hyphen (compound of known parts)
    ("continu-", "ation"),    # merge → "continuation"
]


@dataclass
class _IdGen:
    next_id: int = 1

    def __call__(self) -> int:
        i = self.next_id
        self.next_id += 1
        return i


def _word(text: str, font: int, t: float, l: float) -> dict:
    return {
        "type": "word",
        "content": text,
        "font": font,
        "box": {"t": t, "l": l, "w": len(text) * CHAR_W, "h": LINE_H},
    }


def _line(ids: _IdGen, words: list[str], font: int, t: float, l: float) -> dict:
    content = []
    x = l
    for w in words:
        content.append(_word(w, font, t, x))
        x += len(w) * CHAR_W + SPACE_W
    width = max(0.0, x - SPACE_W - l)
    return {
        "id": ids(),
        "type": "line",
        "box": {"t": t, "l": l, "w": width, "h": LINE_H},
        "content": content,
    }


def _paragraph(ids: _IdGen, lines: list[dict], is_header=False, is_footer=False) -> dict:
    props = {}
    if is_header:
        props["isHeader"] = True
    if is_footer:
        props["isFooter"] = True
    ts = [ln["box"]["t"] for ln in lines]
    ls = [ln["box"]["l"] for ln in lines]
    rs = [ln["box"]["l"] + ln["box"]["w"] for ln in lines]
    bs = [ln["box"]["t"] + ln["box"]["h"] for ln in lines]
    return {
        "id": ids(),
        "type": "paragraph",
        "properties": props,
        "box": {
            "t": min(ts),
            "l": min(ls),
            "w": max(rs) - min(ls),
            "h": max(bs) - min(ts),
        },
        "content": lines,
    }


def _flow_lines(
    ids: _IdGen,
    words: list[str],
    font: int,
    t0: float,
    l0: float,
    width: float,
    gap: float = LINE_GAP,
) -> list[dict]:
    """Greedy line fill: words stream into lines of at most ``width`` px."""
    lines, cur, x = [], [], l0
    t = t0
    for w in words:
        w_px = len(w) * CHAR_W
        if cur and x + w_px > l0 + width:
            lines.append(_line(ids, cur, font, t, l0))
            t += LINE_H + gap
            cur, x = [], l0
        cur.append(w)
        x += w_px + SPACE_W
    if cur:
        lines.append(_line(ids, cur, font, t, l0))
    return lines


def _sentence(rng: random.Random, n: int, rare_p: float = 0.05) -> list[str]:
    words = []
    for i in range(n):
        pool = _RARE if rng.random() < rare_p else _COMMON
        w = rng.choice(pool)
        if i == 0:
            w = w.capitalize()
        words.append(w)
    words[-1] += "."
    return words


# ---------------------------------------------------------------------------
# scenario builders — each returns the "pages" list for one document
# ---------------------------------------------------------------------------


def _body_page(ids: _IdGen, rng: random.Random, n_paras=2, t0=90.0) -> list[dict]:
    elems, t = [], t0
    for _ in range(n_paras):
        words = _sentence(rng, rng.randint(25, 60))
        lines = _flow_lines(ids, words, BODY_FONT, t, MARGIN_L, BODY_W)
        elems.append(_paragraph(ids, lines))
        t = lines[-1]["box"]["t"] + LINE_H + 3 * LINE_GAP
    return elems


def _scn_plain(ids, rng):
    return [{"elements": _body_page(ids, rng, rng.randint(1, 3))}
            for _ in range(rng.randint(1, 3))]


def _scn_short_lines(ids, rng):
    """Narrow-column paragraphs: short lines trigger the geometric
    newline rules and (for alnum-ending short lines) the LM tiebreak."""
    elems, t = [], 90.0
    for _ in range(rng.randint(2, 3)):
        lines = []
        for _ in range(rng.randint(2, 4)):
            n = rng.randint(2, 4)
            ws = [rng.choice(_COMMON) for _ in range(n)]
            lines.append(_line(ids, ws, BODY_FONT, t, MARGIN_L))
            t += LINE_H + LINE_GAP
        elems.append(_paragraph(ids, lines))
        t += 3 * LINE_GAP
    # plus one single-line paragraph (rule 2, num_lines==1)
    elems.append(_paragraph(ids, [_line(ids, _sentence(rng, 4), BODY_FONT, t, MARGIN_L)]))
    return [{"elements": _body_page(ids, rng, 1)}, {"elements": elems}]


def _scn_hyphen(ids, rng):
    pre, post = _HYPHEN_PAIRS[rng.randrange(len(_HYPHEN_PAIRS))]
    lead = _sentence(rng, rng.randint(8, 14))[:-1]  # no trailing period
    tail = _sentence(rng, rng.randint(6, 12))
    # hand-build two lines: first ends with the hyphenated fragment at
    # full width (so the cascade reaches rule 6 → space, then dehyphen)
    words1 = lead + [pre]
    pad_px = BODY_W - (sum(len(w) * CHAR_W + SPACE_W for w in words1) - SPACE_W)
    if pad_px > CHAR_W * 3 + SPACE_W:
        words1 = [("x" * int(pad_px // CHAR_W))[:20]] + words1
    t = 90.0
    l1 = _line(ids, words1, BODY_FONT, t, MARGIN_L)
    l2_words = [post] + tail
    lines = [l1] + _flow_lines(
        ids, l2_words, BODY_FONT, t + LINE_H + LINE_GAP, MARGIN_L, BODY_W
    )
    para = _paragraph(ids, lines)
    return [{"elements": _body_page(ids, rng, 1) + [para]}]


def _scn_vertical_gap(ids, rng):
    t = 90.0
    w1 = _sentence(rng, 14)
    l1 = _line(ids, w1, BODY_FONT, t, MARGIN_L)
    # gap far beyond 1.5x the median line space → rule 4 newline
    t2 = t + LINE_H + 6 * (LINE_H + LINE_GAP)
    l2 = _line(ids, _sentence(rng, 14), BODY_FONT, t2, MARGIN_L)
    para = _paragraph(ids, [l1, l2])
    return [{"elements": _body_page(ids, rng, 2) + [para]}]


def _scn_header_footer(ids, rng, mutate=False):
    pages = []
    n_pages = rng.randint(2, 4)
    title = ["Annual", "report", "of", "the", "commission"]
    for p in range(n_pages):
        head_words = list(title)
        if mutate and p % 2 == 1:
            head_words[-1] = head_words[-1] + "s"  # small per-page mutation
        header = _paragraph(
            ids, [_line(ids, head_words, HEADER_FONT, 30.0, MARGIN_L)], is_header=True
        )
        footer = _paragraph(
            ids,
            [_line(ids, ["Seite", str(p + 1), "von", str(n_pages)], HEADER_FONT, 780.0, MARGIN_L)],
            is_footer=True,
        )
        pages.append({"elements": [header] + _body_page(ids, rng, 2) + [footer]})
    return pages


def _scn_body_as_header(ids, rng):
    """A body-statistics-matching element mislabeled isHeader → the flag
    fix-up clears it and the text stays in the body."""
    pages = []
    for _ in range(2):
        elems = _body_page(ids, rng, 2)
        pages.append({"elements": elems})
    # clone body stats: full-width lines at the median left/height
    words = _sentence(rng, 40)
    lines = _flow_lines(ids, words, BODY_FONT, 90.0, MARGIN_L, BODY_W)
    # pad the widest line to the document's likely median width is not
    # needed: max-width within 5px holds because all lines flow at BODY_W
    mislabeled = _paragraph(ids, lines, is_header=True)
    pages[0]["elements"].insert(1, mislabeled)
    return pages


def _scn_footnotes(ids, rng):
    pages = []
    elems = _body_page(ids, rng, 2)
    last_body = elems[-1]
    t = last_body["content"][-1]["box"]["t"] + LINE_H + 4 * LINE_GAP
    note_words = ["1", "See", "the", "annual", "report", "for", "details."]
    note_lines = _flow_lines(ids, note_words, SMALL_FONT, t, MARGIN_L, BODY_W)
    footnote = _paragraph(ids, note_lines)
    pages.append({"elements": elems + [footnote]})
    pages.append({"elements": _body_page(ids, rng, 2)})
    return pages


def _scn_page_break_split(ids, rng):
    """A paragraph continuing across a page boundary: page 1 ends with a
    full-width line (no trailing newline), page 2 starts with its
    continuation."""
    words = _sentence(rng, 50)
    # split mid-paragraph: first part must end exactly at a full line
    lines = _flow_lines(ids, words, BODY_FONT, 90.0, MARGIN_L, BODY_W)
    if len(lines) < 2:
        lines = _flow_lines(ids, words * 2, BODY_FONT, 90.0, MARGIN_L, BODY_W)
    cut = max(1, len(lines) - 1)
    p1_lines, p2_lines = lines[:cut], lines[cut:]
    page1 = {"elements": _body_page(ids, rng, 1) + [_paragraph(ids, p1_lines)]}
    page2 = {"elements": [_paragraph(ids, p2_lines)] + _body_page(ids, rng, 1, t0=300.0)}
    return [page1, page2]


def _scn_punct_only(ids, rng):
    t = 90.0
    l1 = _line(ids, _sentence(rng, 12), BODY_FONT, t, MARGIN_L)
    l2 = _line(ids, ["*", "*", "*"], BODY_FONT, t + LINE_H + LINE_GAP, MARGIN_L)
    l3 = _line(
        ids, _sentence(rng, 12), BODY_FONT, t + 2 * (LINE_H + LINE_GAP), MARGIN_L
    )
    para = _paragraph(ids, [l1, l2, l3])
    return [{"elements": _body_page(ids, rng, 1) + [para]}]


def _scn_mojibake(ids, rng):
    words = _sentence(rng, 15)
    words[3] = "GeschÃ¤ft"     # broken utf-8 → "Geschäft"
    words[7] = "Ã¼berall"      # → "überall"
    lines = _flow_lines(ids, words, BODY_FONT, 90.0, MARGIN_L, BODY_W)
    return [{"elements": _body_page(ids, rng, 1) + [_paragraph(ids, lines)]}]


def _scn_degenerate(ids, rng):
    """No words at all → the kernel raises (dead-letter row), mirroring
    the reference's ValueError (doc_info.py:256-259)."""
    return [{"elements": []}]


_SCENARIOS = [
    ("plain", _scn_plain, 30),
    ("short_lines", _scn_short_lines, 12),
    ("hyphen", _scn_hyphen, 12),
    ("vertical_gap", _scn_vertical_gap, 8),
    ("header_footer", lambda i, r: _scn_header_footer(i, r, mutate=False), 10),
    ("header_footer_mut", lambda i, r: _scn_header_footer(i, r, mutate=True), 5),
    ("body_as_header", _scn_body_as_header, 5),
    ("footnotes", _scn_footnotes, 8),
    ("page_break_split", _scn_page_break_split, 8),
    ("punct_only", _scn_punct_only, 4),
    ("mojibake", _scn_mojibake, 4),
    ("degenerate", _scn_degenerate, 2),
]

_LANGS = ["multi", "de", "en"]

BASE_TS = 1_600_000_000_000_000  # µs epoch base for warc_ts


# bump when generated layout content changes — part of the corpus cache
# key so stale /tmp caches regenerate
GEN_VERSION = 2


def _doc_tables(doc_idx: int, rng: random.Random) -> list[str]:
    """~15% of docs carry 1-2 CSV tables, mirroring the reference's
    table side-channel (parsr_wrapper.py:91-94 — tables are returned
    next to the text, never merged into it)."""
    if rng.random() >= 0.15:
        return []
    tables = []
    for t in range(rng.randint(1, 2)):
        n_rows = rng.randint(2, 4)
        header = "item,qty,price"
        rows = [
            f"row{doc_idx % 100}-{t}-{r},{rng.randint(1, 9)},{rng.randint(10, 99)}.{rng.randint(0, 99):02d}"
            for r in range(n_rows)
        ]
        tables.append("\n".join([header, *rows]) + "\n")
    return tables


def identity_paragraph(gen: _IdGen, words: list[str]) -> dict:
    """One body paragraph holding ``words`` as a single line: a shape
    the extraction kernel renders verbatim (no join-cascade decisions,
    no dedup / page-number / header-footer candidates)."""
    return _paragraph(gen, [_line(gen, words, BODY_FONT, 90.0, MARGIN_L)])


def gap_dummy(gen: _IdGen) -> dict:
    """A punctuation-only two-line paragraph: the alnum gate drops it,
    but it gives DocStats its required line-gap sample."""
    d1 = _line(gen, ["..."], BODY_FONT, 500.0, MARGIN_L)
    d2 = _line(gen, ["..."], BODY_FONT, 500.0 + LINE_H + LINE_GAP, MARGIN_L)
    return _paragraph(gen, [d1, d2])


def fixture_layout(pages: list[dict]) -> dict:
    return {"pages": pages, "fonts": [dict(f) for f in FONTS]}


def identity_layout(text: str) -> dict:
    """Layout the extraction kernel is IDENTITY on for ``text``: one
    page holding ``text``'s ``identity_paragraph`` and the
    ``gap_dummy``. Extracted output is exactly ``text + "\\n\\n"`` —
    the wrap behind ``extract_roundtrip`` and
    ``parsr_ingest_roundtrip``'s byte-per-url oracles."""
    gen = _IdGen()
    return fixture_layout([{"elements": [
        identity_paragraph(gen, text.split(" ")), gap_dummy(gen)]}])


def fixture_table(doc_ids: list, langs: list, blobs: list,
                  page_idx: list | None = None) -> pa.Table:
    """The rows a roundtrip fixture feeds the extraction stages: url
    ``doc://<id>``, warc_ts 0 and ``lang`` per row, and ``blobs`` as the
    document table's ``html`` or, with ``page_idx``, as the page table's
    ``page_json``."""
    cols = {"url": pa.array([f"doc://{d}" for d in doc_ids], pa.string()),
            "warc_ts": pa.array([0] * len(doc_ids), pa.timestamp("us"))}
    if page_idx is None:
        cols["html"] = pa.array(blobs, pa.binary())
    else:
        cols["page_idx"] = pa.array(page_idx, pa.int32())
        cols["page_json"] = pa.array(blobs, pa.binary())
    cols["lang"] = pa.array(langs, pa.string())
    return pa.table(cols)


def build_layout(doc_idx: int, seed: int = 42, scenario: str | None = None) -> tuple[dict, str]:
    """Deterministic layout for document ``doc_idx``. Returns
    (layout_dict, scenario_name)."""
    rng = random.Random((seed << 20) ^ doc_idx)
    if scenario is None:
        names, fns, weights = zip(*_SCENARIOS)
        name = rng.choices(names, weights=weights, k=1)[0]
    else:
        name = scenario
    fn = dict((n, f) for n, f, _ in _SCENARIOS)[name]
    ids = _IdGen()
    pages = fn(ids, rng)
    layout = {"pages": pages, "fonts": [dict(f) for f in FONTS]}
    tables = _doc_tables(doc_idx, rng)
    if tables:
        layout["tables"] = tables
    return layout, name


def doc_url(doc_idx: int) -> str:
    return f"https://example.org/doc/{doc_idx:08d}"


def generate_corpus(n_docs: int, seed: int = 42) -> pa.Table:
    """The input table per BASELINE.json input_hint: one row per document."""
    return _corpus_slice(0, n_docs, seed)


def generate_pages_exploded(n_docs: int, seed: int = 42) -> pa.Table:
    """Page-table variant: one row per page, row order shuffled on disk so
    the pipeline must groupby(url) + sort(page_idx) to reassemble."""
    rows = []
    for i in range(n_docs):
        layout, _ = build_layout(i, seed)
        for p_idx, page in enumerate(layout["pages"]):
            payload = {"page": page, "fonts": layout["fonts"]}
            if p_idx == 0 and layout.get("tables"):
                payload["tables"] = layout["tables"]
            rows.append(
                (
                    doc_url(i),
                    BASE_TS + i * 1_000_000,
                    p_idx,
                    json.dumps(payload, ensure_ascii=False).encode(),
                    _LANGS[i % len(_LANGS)],
                )
            )
    random.Random(seed ^ 0xC0FFEE).shuffle(rows)
    urls, tss, idxs, blobs, langs = zip(*rows)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(tss, pa.timestamp("us")),
            "page_idx": pa.array(idxs, pa.int32()),
            "page_json": pa.array(blobs, pa.binary()),
            "lang": pa.array(langs, pa.string()),
        }
    )


def write_corpus(path: str, n_docs: int, seed: int = 42,
                 rows_per_file: int = 2000) -> list[str]:
    """Write the corpus as multiple parquet files (so Ray gets several
    input blocks); returns the file paths."""
    import os

    import pyarrow.parquet as pq

    os.makedirs(path, exist_ok=True)
    files = []
    for start in range(0, n_docs, rows_per_file):
        stop = min(start + rows_per_file, n_docs)
        tbl = _corpus_slice(start, stop, seed)
        fp = os.path.join(path, f"part-{start:08d}.parquet")
        pq.write_table(tbl, fp)
        files.append(fp)
    return files


def _corpus_slice(start: int, stop: int, seed: int) -> pa.Table:
    urls, tss, htmls, langs = [], [], [], []
    for i in range(start, stop):
        layout, _ = build_layout(i, seed)
        urls.append(doc_url(i))
        tss.append(BASE_TS + i * 1_000_000)
        htmls.append(json.dumps(layout, ensure_ascii=False).encode())
        langs.append(_LANGS[i % len(_LANGS)])
    n = stop - start
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(tss, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array([""] * n, pa.string()),
            "lang": pa.array(langs, pa.string()),
        }
    )

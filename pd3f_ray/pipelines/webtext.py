"""Web-page main-content pipelines (HTML boilerplate strip).

``html_roundtrip`` is the oracle-checked exercise of the
``HtmlMainExtractor`` stage: every ``documents`` row is wrapped into a
full HTML page with injected boilerplate (nav menu, link-dense sidebar,
footer) around the real text split into <p> blocks; the extractor must
drop every injected region and return the body text byte-identical —
the driver hash-compares per url against ``SELECT url, text FROM
documents``. The same stage runs unmodified over real HTML corpora.
"""

from __future__ import annotations

import html as _html

import pyarrow as pa

from pd3f_ray.core.arrowkit import sort_runs
from pd3f_ray.core.cluster import read_table
from pd3f_ray.stages.exchange import (
    bucket_exchange,
    hash_agg,
    input_partitions,
)
from pd3f_ray.stages.htmlmain import HtmlMainExtractor

CHUNK_TOKENS = 40
_MIN_TAIL_CHARS = 25  # keep the last <p> above the classifier threshold

_BOILER_HEAD = (
    "<html><head><title>doc</title></head><body>"
    '<nav><ul><li><a href="/">Home</a></li><li><a href="/about">About'
    "</a></li><li><a href=\"/contact\">Contact</a></li></ul></nav>"
    '<div id="main">'
)
_BOILER_TAIL = (
    "</div>"
    '<aside><p><a href="/r/1">Related article one</a> '
    '<a href="/r/2">Related article two</a> '
    '<a href="/r/3">More related links here</a></p></aside>'
    '<footer><p><a href="/privacy">Privacy</a> | <a href="/terms">Terms'
    "</a> | (c) 2026 Example Corp. All rights reserved.</p></footer>"
    "</body></html>"
)


def wrap_in_boilerplate(text: str) -> str:
    """Deterministic HTML page: the text split into <p> chunks of
    CHUNK_TOKENS tokens (short tail merged into the previous chunk so
    every block clears the classifier's length threshold), surrounded
    by nav/sidebar/footer boilerplate."""
    toks = text.split(" ")
    chunks = [" ".join(toks[i:i + CHUNK_TOKENS])
              for i in range(0, len(toks), CHUNK_TOKENS)]
    if len(chunks) > 1 and len(chunks[-1]) < _MIN_TAIL_CHARS:
        chunks[-2] = chunks[-2] + " " + chunks[-1]
        chunks.pop()
    body = "".join(f"<p>{_html.escape(c)}</p>" for c in chunks)
    return _BOILER_HEAD + body + _BOILER_TAIL


def html_roundtrip(sf_dir: str):
    """(url, text) through wrap → HtmlMainExtractor(joiner=' ') —
    byte-identical to the documents table per url (oracle-checked)."""

    def wrap(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "url": pa.array([f"doc://{d}" for d in ids], pa.string()),
                "html": pa.array(
                    [wrap_in_boilerplate(t).encode() for t in texts],
                    pa.binary()),
            }
        )

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    extracted = ds.map_batches(wrap, batch_format="pyarrow").map_batches(
        HtmlMainExtractor(joiner=" "), batch_format="pyarrow", batch_size=None)
    return extracted.map_batches(
        lambda b: pa.table({"url": b.column("url"),
                            "text": b.column("text").cast(pa.string())}),
        batch_format="pyarrow",
    )


HTML_ROUNDTRIP_SQL = """
SELECT 'doc://' || CAST(doc_id AS VARCHAR) AS url,
       text
FROM documents
"""


# ---------------------------------------------------------------------------
# outlink extraction roundtrip
# ---------------------------------------------------------------------------


def html_links(sf_dir: str):
    """Outlink-table extraction through the real ``LinkExtractor``
    stage: each document is wrapped in the boilerplate page plus one
    injected per-document content link (``/doc/<id>``); the stage must
    recover every anchor of every page with exact href, anchor text
    and document-order position. Output (url, pos, href, anchor);
    oracle = the statically known boilerplate links cross-joined with
    documents, plus the computed content link at position 3."""
    from pd3f_ray.stages.htmlmain import LinkExtractor

    def wrap(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        pages = []
        for d, t in zip(ids, texts):
            page = wrap_in_boilerplate(t)
            marker = '<div id="main">'
            link = f'<a href="/doc/{d}">ref {d}</a>'
            pages.append(page.replace(marker, marker + link, 1).encode())
        return pa.table({
            "url": pa.array([f"doc://{d}" for d in ids], pa.string()),
            "html": pa.array(pages, pa.binary()),
        })

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    links = ds.map_batches(wrap, batch_format="pyarrow").map_batches(
        LinkExtractor(), batch_format="pyarrow", batch_size=None)
    return links.map_batches(
        lambda b: pa.table({"url": b.column("url"),
                            "pos": b.column("rank"),
                            "href": b.column("href"),
                            "anchor": b.column("anchor")}),
        batch_format="pyarrow",
    )


HTML_LINKS_SQL = """
SELECT 'doc://' || CAST(doc_id AS VARCHAR) AS url,
       v.pos,
       CASE v.pos WHEN 3 THEN '/doc/' || CAST(doc_id AS VARCHAR)
            ELSE v.href END AS href,
       CASE v.pos WHEN 3 THEN 'ref ' || CAST(doc_id AS VARCHAR)
            ELSE v.anchor END AS anchor
FROM documents,
     (VALUES (CAST(0 AS BIGINT), '/', 'Home'),
             (1, '/about', 'About'),
             (2, '/contact', 'Contact'),
             (3, '', ''),
             (4, '/r/1', 'Related article one'),
             (5, '/r/2', 'Related article two'),
             (6, '/r/3', 'More related links here'),
             (7, '/privacy', 'Privacy'),
             (8, '/terms', 'Terms')) v(pos, href, anchor)
"""


# ---------------------------------------------------------------------------
# anchor-text corpus (link-graph aggregation over extracted outlinks)
# ---------------------------------------------------------------------------


def anchor_text_corpus(sf_dir: str):
    """The classic web-corpus "anchor text" rollup: aggregate the
    extracted outlink table per target href — how many links point at
    it, from how many distinct pages, and a representative anchor text
    (lexicographic min, deterministic). Output
    (href, n_links, n_pages, top_anchor).

    Plan: runs the REAL ``LinkExtractor`` stage (same wrapped corpus as
    ``html_links``), then a ``hash_agg`` per (href, url) — link count +
    min anchor, partial-aggregated per block, so its exchange moves one
    row per distinct (href, source page) and block, never one per link
    occurrence — makes each pair exactly one row (a page's links can
    split across blocks), so the second ``hash_agg``'s per-href row
    count is an EXACT distinct-page count (sum/count/min are all
    distributive)."""
    links = html_links(sf_dir)
    pairs = hash_agg(links, ["href", "url"], {"n": ("anchor", "count"),
                                              "a": ("anchor", "min")})
    agg = hash_agg(pairs, ["href"], {"n_links": ("n", "sum"),
                                     "n_pages": ([], "count_all"),
                                     "top_anchor": ("a", "min")})

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({
            "href": batch.column("href"),
            "n_links": batch.column("n_links").cast(pa.int64()),
            "n_pages": batch.column("n_pages").cast(pa.int64()),
            "top_anchor": batch.column("top_anchor"),
        })

    return agg.map_batches(finish, batch_format="pyarrow")


ANCHOR_TEXT_SQL = f"""
WITH links AS ({HTML_LINKS_SQL}),
pairs AS (
  SELECT href, url, count(*) AS n, min(anchor) AS a
  FROM links GROUP BY href, url
)
SELECT href,
       CAST(sum(n) AS BIGINT) AS n_links,
       CAST(count(*) AS BIGINT) AS n_pages,
       min(a) AS top_anchor
FROM pairs
GROUP BY href
"""


# ---------------------------------------------------------------------------
# URL canonicalization (crawl-key normalization)
# ---------------------------------------------------------------------------


def url_normalize(sf_dir: str):
    """Crawl-key canonicalization through the real, general-purpose
    ``functions.urls.normalize_url`` (RFC-3986 case folding, default
    ports, fragments, utm_* tracking params, doubled slashes — see the
    module docstring for what is deliberately NOT folded): each
    document gets a deterministically dirtied URL, the stage must
    produce the canonical form exactly. Pure map, no exchange. Output
    (doc_id, url, url_norm, host); oracle = the same construction and
    its closed-form normalization as SQL string concatenation."""
    from pd3f_ray.functions.urls import normalize_url, url_host

    def build(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        urls = [
            f"HTTP://Src{d % 20}.Example.COM:80/path//{d}/"
            f"?utm_source=x&q={d}#frag"
            for d in ids
        ]
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "url": pa.array(urls, pa.string()),
            "url_norm": pa.array([normalize_url(u) for u in urls],
                                 pa.string()),
            "host": pa.array([url_host(u) for u in urls], pa.string()),
        })

    ds = read_table(sf_dir, "documents", columns=["doc_id"])
    return ds.map_batches(build, batch_format="pyarrow")


URL_NORMALIZE_SQL = """
SELECT doc_id,
       'HTTP://Src' || CAST(doc_id % 20 AS VARCHAR) || '.Example.COM:80/path//'
           || CAST(doc_id AS VARCHAR) || '/?utm_source=x&q='
           || CAST(doc_id AS VARCHAR) || '#frag' AS url,
       'http://src' || CAST(doc_id % 20 AS VARCHAR) || '.example.com/path/'
           || CAST(doc_id AS VARCHAR) || '/?q='
           || CAST(doc_id AS VARCHAR) AS url_norm,
       'src' || CAST(doc_id % 20 AS VARCHAR) || '.example.com' AS host
FROM documents
"""


# ---------------------------------------------------------------------------
# crawl snapshot consolidation: keep-latest per canonical URL
# ---------------------------------------------------------------------------

_SNAP_BASE = 1_600_000_000  # fixture epoch base (sec)


def url_dedup_latest(sf_dir: str):
    """Crawl snapshot consolidation — the dedup every multi-crawl corpus
    needs: the same logical page is fetched repeatedly under noisy URL
    variants (tracking params, case, default ports, doubled slashes);
    keep ONE row per canonical URL, the latest fetch.

    Fixture: each document yields 3 deterministic dirty variants that
    all canonicalize (via the real ``functions.urls.normalize_url``) to
    the same key, each with a distinct fetch_time whose winner varies
    by doc. Plan: map-side explode + normalize, then ONE ``hash_agg``
    exchange on url_norm carrying (key, packed) — the winning
    (fetch_time, variant) travels as a single packed int64 so the
    argmax is a plain ``max`` (no map_groups, no per-group state).
    Output (url_norm, n_snapshots, latest_fetch_time, latest_variant);
    oracle = the same 3-variant snapshot table built in SQL +
    ``max``/``arg_max``."""
    import numpy as np

    from pd3f_ray.functions.urls import normalize_url

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        keys, packed = [], []
        for d in ids:
            d = int(d)
            raw = [
                f"http://snap{d % 50}.example.com/a/{d}?utm_source=feed",
                f"HTTP://Snap{d % 50}.Example.COM/a/{d}#top",
                f"http://snap{d % 50}.example.com:80/a//{d}",
            ]
            for v, u in enumerate(raw):
                ft = _SNAP_BASE + ((d + v) % 3) * 3600 + v
                keys.append(normalize_url(u))
                packed.append(ft * 4 + v)
        return pa.table({
            "url_norm": pa.array(keys, pa.string()),
            "packed": pa.array(np.asarray(packed, np.int64), pa.int64()),
        })

    ds = read_table(sf_dir, "documents", columns=["doc_id"])
    agg = hash_agg(ds.map_batches(explode, batch_format="pyarrow"),
                   ["url_norm"], {"packed": ("packed", "max"),
                                  "n_snapshots": ([], "count_all")})

    def decode(batch: pa.Table) -> pa.Table:
        p = batch.column("packed").to_numpy(zero_copy_only=False)
        return pa.table({
            "url_norm": batch.column("url_norm"),
            "n_snapshots": batch.column("n_snapshots"),
            "latest_fetch_time": pa.array(p // 4, pa.int64()),
            "latest_variant": pa.array(p % 4, pa.int64()),
        })

    return agg.map_batches(decode, batch_format="pyarrow")


URL_DEDUP_LATEST_SQL = f"""
WITH snaps AS (
  SELECT 'http://snap' || CAST(doc_id % 50 AS VARCHAR) || '.example.com/a/'
             || CAST(doc_id AS VARCHAR) AS url_norm,
         {_SNAP_BASE} + ((doc_id + v.v) % 3) * 3600 + v.v AS fetch_time,
         v.v AS variant
  FROM documents, (VALUES (0), (1), (2)) AS v(v)
)
SELECT url_norm,
       CAST(count(*) AS BIGINT) AS n_snapshots,
       CAST(max(fetch_time) AS BIGINT) AS latest_fetch_time,
       CAST(arg_max(variant, fetch_time) AS BIGINT) AS latest_variant
FROM snaps
GROUP BY url_norm
"""


# ---------------------------------------------------------------------------
# composed crawl-consolidation flagship:
# snapshots → canonicalize → keep-latest → boilerplate strip
# ---------------------------------------------------------------------------

def crawl_consolidation_pipeline(sf_dir: str):
    """The crawl-side composed flagship: a multi-crawl snapshot table
    (the same logical page fetched repeatedly under noisy URLs, each
    fetch a different page REVISION) is consolidated into one clean
    text row per canonical URL — in ONE streaming pipeline:

    1. canonicalize raw URLs with the real ``normalize_url``;
    2. keep-latest per canonical key with the two-level argmax of
       ``latest_event_per_user``: a map-side partial keeps one winner
       per (block, url) BEFORE the exchange, so loser payloads that
       co-occur in a block never ship; the bucketed reduce re-applies
       the same argmax (bucket = url hash % P, the exchange's
       partitions);
    3. the winning snapshots' HTML goes through the
       ``HtmlMainExtractor`` stage (boilerplate stripped).

    Fixture: 3 dirty URL variants per document, each wrapping
    ``text + ' rev {v}'`` in full boilerplate HTML, with fetch times
    rotating the winner by doc_id — so the end-to-end output is
    closed-form: byte-identical ``text || ' rev ' || (2 - doc_id % 3)``
    per canonical url (oracle-checked). Output (url_norm, text)."""
    import numpy as np

    from pd3f_ray.functions.textfns import hash_bytes
    from pd3f_ray.functions.urls import normalize_url

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        urls, packed, htmls = [], [], []
        for d, t in zip(ids, texts):
            d = int(d)
            raw = [
                f"http://snap{d % 50}.example.com/a/{d}?utm_source=feed",
                f"HTTP://Snap{d % 50}.Example.COM/a/{d}#top",
                f"http://snap{d % 50}.example.com:80/a//{d}",
            ]
            for v, u in enumerate(raw):
                ft = _SNAP_BASE + ((d + v) % 3) * 3600 + v
                urls.append(normalize_url(u))
                packed.append(ft * 4 + v)
                htmls.append(
                    wrap_in_boilerplate(f"{t} rev {v}").encode())
        return pa.table({
            "url_norm": pa.array(urls, pa.string()),
            "packed": pa.array(np.asarray(packed, np.int64), pa.int64()),
            "html": pa.array(htmls, pa.binary()),
        })

    def keep_latest(t: pa.Table) -> pa.Table:
        # argmax(packed) per url on the zero-copy Arrow slice — the
        # html BINARY payload never round-trips through a pandas block
        urls = t.column("url_norm").to_numpy(zero_copy_only=False)
        packed = t.column("packed").to_numpy(zero_copy_only=False)
        order, _, ends = sort_runs((packed, urls))
        return t.take(pa.array(np.sort(order[ends - 1])))

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    p = input_partitions(ds)

    def add_bucket(t: pa.Table) -> pa.Table:
        t = keep_latest(t)  # map-side partial: losers in-block never ship
        urls = t.column("url_norm").to_numpy(zero_copy_only=False)
        h = np.fromiter((hash_bytes(u.encode()) for u in urls),
                        dtype=np.uint64, count=len(urls))
        return t.append_column(
            "bucket", pa.array((h % p).astype(np.int64), pa.int64()))

    winners = bucket_exchange(
        ds.map_batches(explode, batch_format="pyarrow")
        .map_batches(add_bucket, batch_format="pyarrow"),
        "bucket",
        lambda g: keep_latest(g).select(["url_norm", "html"]))

    extracted = winners.map_batches(
        lambda b: pa.table({"url": b.column("url_norm"),
                            "html": b.column("html")}),
        batch_format="pyarrow",
    ).map_batches(
        HtmlMainExtractor(joiner=" "), batch_format="pyarrow", batch_size=None)
    return extracted.map_batches(
        lambda b: pa.table({"url_norm": b.column("url"),
                            "text": b.column("text").cast(pa.string())}),
        batch_format="pyarrow",
    )


CRAWL_CONSOLIDATION_SQL = """
SELECT 'http://snap' || CAST(doc_id % 50 AS VARCHAR) || '.example.com/a/'
           || CAST(doc_id AS VARCHAR) AS url_norm,
       text || ' rev ' || CAST(2 - (doc_id % 3) AS VARCHAR) AS text
FROM documents
"""


# ---------------------------------------------------------------------------
# robots-style URL blocklist filter (broadcast rules, map-side)
# ---------------------------------------------------------------------------

_BLOCKED_HOSTS = 10  # fixture: src0..src9 disallow /private
_BLOCK_PREFIX = "/private"


def robots_filter(sf_dir: str):
    """Crawl-politeness URL filtering — the per-host disallow-prefix
    rule of robots.txt, applied corpus-wide: the rule table (host →
    disallowed path prefixes) is ``ray.put`` ONCE (rules are KB–MB for
    real crawls, never corpus-scale) and every batch filters map-side;
    no exchange. Fixture: every document gets a deterministic URL,
    docs with ``doc_id % 7 == 0`` land under ``/private`` and hosts
    src0..src9 disallow that prefix — so the kept set is closed-form
    for the oracle. Output (doc_id, url) of the KEPT rows."""
    import numpy as np
    import ray

    from pd3f_ray.functions.urls import url_host

    rules = {f"src{h}.example.com": (_BLOCK_PREFIX,)
             for h in range(_BLOCKED_HOSTS)}
    rules_ref = ray.put(rules)

    def build_and_filter(batch: pa.Table) -> pa.Table:
        r = ray.get(rules_ref)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        urls, keep = [], []
        for d in ids:
            d = int(d)
            section = "private" if d % 7 == 0 else "pub"
            u = f"http://src{d % 20}.example.com/{section}/{d}"
            urls.append(u)
            host = url_host(u)
            path = u.split(".com", 1)[1]
            banned = any(path.startswith(p) for p in r.get(host, ()))
            keep.append(not banned)
        t = pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "url": pa.array(urls, pa.string()),
        })
        return t.filter(pa.array(np.asarray(keep, bool)))

    ds = read_table(sf_dir, "documents", columns=["doc_id"])
    return ds.map_batches(build_and_filter, batch_format="pyarrow")


ROBOTS_FILTER_SQL = f"""
WITH built AS (
  SELECT doc_id,
         'http://src' || CAST(doc_id % 20 AS VARCHAR) || '.example.com/'
             || CASE WHEN doc_id % 7 = 0 THEN 'private' ELSE 'pub' END
             || '/' || CAST(doc_id AS VARCHAR) AS url
  FROM documents
)
SELECT doc_id, url
FROM built
WHERE NOT (doc_id % 7 = 0 AND doc_id % 20 < {_BLOCKED_HOSTS})
"""

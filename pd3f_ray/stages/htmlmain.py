"""HTML boilerplate stripping / main-content extraction.

The north rule's web-page flavor: given raw HTML, keep the main text
and drop navigation / footer / sidebar boilerplate. Classic
text-to-link-density heuristics (boilerpipe / jusText family — Kohlschütter
et al. 2010, public method), implemented DOM-heuristically on stdlib
``html.parser`` (no bs4/lxml in this container):

- the document is segmented into BLOCKS at block-level tag boundaries
  (p, div, li, h1-6, td, article, section, ...);
- per block we track total text length and LINKED text length (chars
  inside <a>), plus whether the block sits inside a structurally
  boilerplate region (<nav>, <header>, <footer>, <aside>, <script>,
  <style>);
- a block is MAIN CONTENT iff it is not in a boilerplate region, its
  text is long enough, and its link density is below threshold.

Deterministic and dependency-free; used by the ``html_roundtrip``
oracle query (wrap ``documents.text`` into an HTML page with injected
nav/footer/sidebar boilerplate → strip → byte-identical text back) and
available as a standalone ``map_batches`` stage for real HTML corpora.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from html.parser import HTMLParser

import pyarrow as pa

BLOCK_TAGS = frozenset(
    "p div li h1 h2 h3 h4 h5 h6 td th article section blockquote pre "
    "dd dt figcaption summary".split()
)
DROP_TAGS = frozenset("nav header footer aside script style noscript "
                      "form button svg".split())
MIN_TEXT_CHARS = 25
MAX_LINK_DENSITY = 0.33


@dataclass
class _Block:
    text_parts: list[str] = field(default_factory=list)
    linked_chars: int = 0
    in_drop_region: bool = False

    def text(self) -> str:
        return "".join(self.text_parts).strip()


class _MainContentParser(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.blocks: list[_Block] = []
        self._cur = _Block()
        self._drop_depth = 0
        self._link_depth = 0

    def _flush(self):
        if self._cur.text():
            self.blocks.append(self._cur)
        self._cur = _Block(in_drop_region=self._drop_depth > 0)

    def handle_starttag(self, tag, attrs):
        if tag in DROP_TAGS:
            self._flush()
            self._drop_depth += 1
        elif tag in BLOCK_TAGS or tag == "br":
            self._flush()
        if tag == "a":
            self._link_depth += 1

    def handle_endtag(self, tag):
        if tag in DROP_TAGS:
            self._flush()
            self._drop_depth = max(0, self._drop_depth - 1)
        elif tag in BLOCK_TAGS:
            self._flush()
        if tag == "a":
            self._link_depth = max(0, self._link_depth - 1)

    def handle_data(self, data):
        if not data:
            return
        self._cur.text_parts.append(data)
        if self._drop_depth > 0:
            self._cur.in_drop_region = True
        if self._link_depth > 0:
            self._cur.linked_chars += len(data)

    def close(self):
        super().close()
        self._flush()


def html_blocks(html: str) -> list[dict]:
    """All text blocks with their classification features:
    (text, n_chars, link_density, in_drop_region, is_main)."""
    p = _MainContentParser()
    p.feed(html)
    p.close()
    out = []
    for b in p.blocks:
        t = b.text()
        density = b.linked_chars / len("".join(b.text_parts)) \
            if b.text_parts else 1.0
        is_main = (not b.in_drop_region
                   and len(t) >= MIN_TEXT_CHARS
                   and density <= MAX_LINK_DENSITY)
        out.append({
            "text": t,
            "n_chars": len(t),
            "link_density": round(density, 6),
            "in_drop_region": b.in_drop_region,
            "is_main": is_main,
        })
    return out


def main_text(html: str, joiner: str = "\n\n") -> str:
    """The main-content text: kept blocks joined."""
    return joiner.join(b["text"] for b in html_blocks(html) if b["is_main"])


class HtmlMainExtractor:
    """``map_batches`` callable, run as tasks: (url, html) → (url, text,
    n_blocks, n_main_blocks). The instance holds only the joiner; the
    parser tables and thresholds are module constants."""

    def __init__(self, joiner: str = "\n\n"):
        self.joiner = joiner

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch.column("url")
        htmls = batch.column("html").to_pylist()
        texts, n_blocks, n_main = [], [], []
        for h in htmls:
            if isinstance(h, bytes):
                h = h.decode("utf-8", "replace")
            blocks = html_blocks(h)
            kept = [b["text"] for b in blocks if b["is_main"]]
            texts.append(self.joiner.join(kept))
            n_blocks.append(len(blocks))
            n_main.append(len(kept))
        return pa.table(
            {
                "url": urls,
                "text": pa.array(texts, pa.large_string()),
                "n_blocks": pa.array(n_blocks, pa.int32()),
                "n_main_blocks": pa.array(n_main, pa.int32()),
            }
        )


# ---------------------------------------------------------------------------
# outlink extraction
# ---------------------------------------------------------------------------


class _LinkParser(HTMLParser):
    """Collect (href, anchor-text) pairs in document order."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.links: list[tuple[str, str]] = []
        self._href: str | None = None
        self._anchor: list[str] = []

    def handle_starttag(self, tag, attrs):
        if tag == "a":
            if self._href is not None:  # nested <a> — flush the outer
                self._flush_link()
            self._href = dict(attrs).get("href", "")
            self._anchor = []

    def handle_endtag(self, tag):
        if tag == "a" and self._href is not None:
            self._flush_link()

    def handle_data(self, data):
        if self._href is not None:
            self._anchor.append(data)

    def _flush_link(self):
        self.links.append((self._href, "".join(self._anchor).strip()))
        self._href, self._anchor = None, []

    def close(self):
        if self._href is not None:  # unclosed trailing <a>
            self._flush_link()
        super().close()


def extract_links(html: str) -> list[tuple[str, str]]:
    """All (href, anchor_text) pairs of a page, in document order."""
    p = _LinkParser()
    p.feed(html)
    p.close()
    return p.links


class LinkExtractor:
    """``map_batches`` callable, run as tasks: (url, html:binary) →
    exploded outlink table (url, rank, href, anchor) — the link-graph
    edge list a crawl pipeline feeds into PageRank / seed-expansion."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls, ranks, hrefs, anchors = [], [], [], []
        for url, raw in zip(batch.column("url").to_pylist(),
                            batch.column("html").to_pylist()):
            html = raw.decode("utf-8", errors="replace")
            for i, (href, anchor) in enumerate(extract_links(html)):
                urls.append(url)
                ranks.append(i)
                hrefs.append(href)
                anchors.append(anchor)
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "rank": pa.array(ranks, pa.int64()),
            "href": pa.array(hrefs, pa.string()),
            "anchor": pa.array(anchors, pa.string()),
        })

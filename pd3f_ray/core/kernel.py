"""Per-document extraction kernel: layout tree in → reconstructed text out.

This module reimplements, from a structural survey, the complete decision
pipeline of the reference (pd3f/pd3f-core at /root/reference): document
statistics (doc_info.py:184-321), header/footer re-classification and
near-dup removal (export.py:218-274, doc_info.py:102-152), the
line-joining decision cascade (export.py:328-385), footnote detection
(export.py:514-554), paragraph assembly with dehyphenation
(export.py:397-500), footnote reordering and cross-page paragraph merge
(doc_output.py:59-105), and the final text render (doc_output.py:110-125,
154-161). Per-branch citations are given inline.

It is pure Python over plain dicts (the parsed layout JSON), has no Ray
dependency, and is deterministic given the injected scorer — it serves
both as the single-process oracle for the test suite and as the per-row
kernel inside the Ray Data extraction stage.

Input layout shape (the reference's Parsr JSON, SURVEY.md §1.1):
    {"pages": [{"elements": [element...]}...], "fonts": [font...]}
    element: {"id", "type", "properties": {"isHeader","isFooter"},
              "box": {t,l,w,h}, "content": [line...], ("level")}
    line:    {"id", "box": {t,l,w,h}, "content": [word...]}
    word:    {"type": "word", "content": str, "font": id, "box": {...}}
    font:    {"id", "size", "sizeUnit": "px", ...}
"""

from __future__ import annotations

import re
import string
from collections import Counter
from dataclasses import dataclass, field
from statistics import median

import orjson

from pd3f_ray.core.config import ExtractOptions
from pd3f_ray.core.geom import bbox_similarity
from pd3f_ray.core.scorer import DeterministicScorer, get_scorer
from pd3f_ray.core.textnorm import (
    _SUSPECT_RE,
    char_bag_jaccard,
    clean_text,
    fix_text,
    has_alnum,
    has_ascii_alnum,
    strip_line_end_spaces,
)

# ``\n{3,}`` spelled with a literal prefix, which the regex engine scans for
_NL_COLLAPSE = re.compile(r"\n\n\n+")


class DocumentError(ValueError):
    """Raised for degenerate documents, mirroring the reference's
    ValueErrors (doc_info.py:217-233, 256-259)."""


# ---------------------------------------------------------------------------
# tree walking helpers (reference: doc_info.py:43-64, utils.py:31-51)
# ---------------------------------------------------------------------------


def walk_nodes(node, node_type: str, acc: list | None = None) -> list:
    """Collect all dict nodes of a given ``type`` from a nested
    element/line/word tree (depth-first through 'content')."""
    if acc is None:
        acc = []
    if isinstance(node, dict):
        if node.get("type") == node_type:
            acc.append(node)
        elif "content" in node:
            walk_nodes(node["content"], node_type, acc)
    elif isinstance(node, list):
        for child in node:
            walk_nodes(child, node_type, acc)
    return acc


def element_fonts(element) -> list:
    return [w["font"] for w in walk_nodes(element, "word")]


def roughly_same_font(f1: dict, f2: dict) -> bool:
    """Within-20%-of-the-larger font-size equivalence
    (doc_info.py:36-40). Size units are validated as px at DocStats
    build time (the reference asserts here instead)."""
    return abs(f1["size"] - f2["size"]) < max(f1["size"], f2["size"]) * 0.2


def _most_common(values: list):
    """``Counter(values).most_common(1)[0][0]`` for a non-empty list: the
    most frequent value, the first met among equals."""
    counts = Counter(values)
    return max(counts, key=counts.__getitem__)


def modal_font(element):
    """Most common font id; ties break to first-encountered, matching
    Counter.most_common (doc_info.py:63-64)."""
    return Counter(element_fonts(element)).most_common(1)[0][0]


def gathered_text(elements, stats: "DocStats | None" = None) -> str:
    """Space-joined, unicode-fixed text of all words under the given
    elements (doc_info.py:83-88). Non-dict inputs yield nothing, which
    reproduces the reference's behavior of returning '' for already-
    exported Element objects (see render notes below). With ``stats``, an
    element of recorded word lines gives its words from their records."""
    words = []
    for e in elements:
        if isinstance(e, dict):
            plain = stats.raw_words(e) if stats is not None else None
            if plain is not None:
                words += plain
            else:
                words.extend(w["content"].strip()
                             for w in walk_nodes(e, "word"))
        # non-dict (already-exported) inputs contribute no words — the
        # reference's traverse() returns None for them (doc_info.py:44-52)
    return fix_text(" ".join(words))


def corner_points(elements) -> list[tuple[float, float]]:
    """Four (t, l) corners per element box (doc_info.py:91-99)."""
    pts = []
    for e in elements:
        b = e["box"]
        pts.append((b["t"], b["l"]))
        pts.append((b["t"] + b["h"], b["l"]))
        pts.append((b["t"], b["l"] + b["w"]))
        pts.append((b["t"] + b["h"], b["l"] + b["w"]))
    return pts


def vertical_gap(l1, l2) -> float | None:
    """Gap between two line boxes; None when non-positive
    (doc_info.py:67-73)."""
    if l2["box"]["t"] < l1["box"]["t"]:
        l1, l2 = l2, l1
    gap = l2["box"]["t"] - l1["box"]["t"] - l1["box"]["h"]
    return gap if gap > 0 else None


def mean_word_gap(line) -> float:
    """Average horizontal gap between consecutive items on a line, first
    margin 0 (doc_info.py:18-33; originally ported from Parsr)."""
    content = line["content"]
    gaps = []
    prev = None
    for item in content:
        if prev is None:
            gaps.append(0)
        else:
            gaps.append(item["box"]["l"] - (prev["box"]["l"] + prev["box"]["w"]))
        prev = item
    return sum(gaps) / len(gaps)


# ---------------------------------------------------------------------------
# the one pass per element: lines, word fonts and per-line records
# ---------------------------------------------------------------------------


def _line_record(line):
    """The record of a line whose ``content`` is a non-empty list of word
    dicts, each with a ``str`` content, a font and a box, from one read of
    each word: ``(words, fonts, gap, alnum, raw)`` where

    - ``words`` are what ``words_of_line`` gives and ``fonts`` the words'
      fonts;
    - ``gap`` is ``mean_word_gap(line)``;
    - ``alnum`` is ``any(has_alnum(w) for w in words)`` when one search of
      the line settles it, else ``None``;
    - ``raw`` says that ``words`` are the stripped contents as they are
      (``fix_text`` had nothing to repair).

    ``None`` for any other line, whose readers then take the per-word
    helpers (and raise where those raise)."""
    items = line.get("content")
    if type(items) is not list or not items:
        return None
    try:
        contents, fonts, gaps = [], [], []
        prev = None
        for w in items:
            if w["type"] != "word":
                return None
            contents.append(w["content"])
            fonts.append(w["font"])
            box = w["box"]
            if prev is not None:
                gaps.append(box["l"] - (prev["l"] + prev["w"]))
            prev = box
        # mean_word_gap's sum: the same gaps, left to right, after its 0
        gap = sum(gaps) / len(items)
        # fix_text changes only text that has a suspect character, so one
        # search of the joined line stands for one per word (an ASCII line
        # has none); an ASCII letter or digit is has_alnum's in any word,
        # and an ASCII line has no other kind
        text = " ".join(contents)
        ascii_ = text.isascii()
        raw = ascii_ or _SUSPECT_RE.search(text) is None
        words = tuple(map(str.strip, contents) if raw
                      else [fix_text(c).strip() for c in contents])
        alnum = True if has_ascii_alnum(text) else (False if ascii_ else None)
    except Exception:  # noqa: BLE001 — not a plain word line
        return None
    return words, tuple(fonts), gap, alnum, raw


def _words_record(line):
    """The record of a line ``_line_record`` refuses, from the per-word
    helpers; its gap and alnum are left to the time of use."""
    words, fonts = words_of_line(line)
    return tuple(words), tuple(fonts), None, None, False


def flatten(element, records: dict) -> tuple[list | None, list]:
    """One pass over ``element``: ``(lines, fonts)`` where ``lines`` is
    ``walk_nodes(element, "line")`` and ``fonts`` the fonts of
    ``walk_nodes(element, "word")``; each line's record goes into
    ``records`` under ``id(line)``. When ``element["content"]`` is a list
    of line dicts, ``lines`` is that list itself. For any other shape the
    fonts come from the word walk and ``lines`` is ``None``: the line walk
    is left to the caller, where the reference walks lines."""
    content = element.get("content")
    if type(content) is list and element.get("type") not in ("line", "word"):
        fonts: list = []
        for ln in content:
            if type(ln) is not dict or ln.get("type") != "line":
                break
            rec = _line_record(ln)
            if rec is None:
                fonts += element_fonts(ln)
            else:
                records[id(ln)] = rec
                fonts += rec[1]
        else:
            return content, fonts
    return None, element_fonts(element)


def _is_flag(element, key: str) -> bool:
    props = element.get("properties", {})
    return key in props and bool(props[key])


# ---------------------------------------------------------------------------
# document statistics (reference: DocumentInfo, doc_info.py:184-321)
# ---------------------------------------------------------------------------


@dataclass
class DocStats:
    body_font: object = None
    font_info: dict = field(default_factory=dict)
    median_line_width: float = 0.0
    median_line_height: float = 0.0
    median_line_space: float = 0.0
    median_line_left: float = 0.0
    order_page: list[list] = field(default_factory=list)
    id_to_elem: dict = field(default_factory=dict)
    # id(element) -> walk_nodes(element, "line"); id(line) -> its record
    # (``_line_record``), for every element and word line of the layout
    lines: dict = field(default_factory=dict)
    records: dict = field(default_factory=dict)

    @classmethod
    def compute(cls, layout: dict) -> "DocStats":
        st = cls()
        # reading order + id index, excluding flagged header/footer
        # (doc_info.py:283-303). NOTE: computed BEFORE the header/footer
        # flag fix-up, like the reference (export.py:210-211).
        for idx_page, page in enumerate(layout["pages"]):
            per_page = []
            for e in page["elements"]:
                e["idx_page"] = idx_page
                st.id_to_elem[e["id"]] = e
                if e["type"] not in ("paragraph", "heading"):
                    continue
                if _is_flag(e, "isHeader") or _is_flag(e, "isFooter"):
                    continue
                per_page.append(e["id"])
            st.order_page.append(per_page)

        # font stats (doc_info.py:248-266), from the one pass per element
        # that also keeps its lines and their records
        fonts: list = []
        for page in layout["pages"]:
            for e in page["elements"]:
                try:
                    lines, e_fonts = flatten(e, st.records)
                except (KeyError, RecursionError):
                    # counted element by element, an unhashable font in an
                    # earlier element failed before this element's walk
                    Counter(fonts)
                    raise
                st.lines[id(e)] = lines
                fonts += e_fonts
        if not fonts:
            raise DocumentError("document has no words (broken text layer?)")
        st.body_font = _most_common(fonts)
        for f in layout["fonts"]:
            st.font_info[f["id"]] = f
            if f["sizeUnit"] != "px":
                raise DocumentError(f"font size unit {f['sizeUnit']!r} != px")

        # line geometry stats (doc_info.py:196-239); medians use exact
        # statistics.median semantics (mean of middle two for even n)
        widths: list[float] = []
        heights: list[float] = []
        lefts: list[float] = []
        gaps: list[float] = []
        for idx_page, page in enumerate(layout["pages"]):
            for e in page["elements"]:
                lines = st.lines[id(e)]
                if lines is None:
                    lines = st.lines[id(e)] = walk_nodes(e, "line")
                for ln in lines:
                    ln["idx_page"] = idx_page
                    st.id_to_elem[ln["id"]] = ln
                    box = ln["box"]
                    widths.append(box["w"])
                    heights.append(box["h"])
                    lefts.append(box["l"])
                for a, b in zip(lines, lines[1:]):
                    g = vertical_gap(a, b)
                    if g is not None:
                        gaps.append(g)
        if not widths or not gaps:
            raise DocumentError("document has no measurable lines")
        st.median_line_width = median(widths)
        st.median_line_height = median(heights)
        st.median_line_space = median(gaps)
        st.median_line_left = median(lefts)
        return st

    def lines_wide_apart(self, l1, l2, factor: float = 0.5) -> bool:
        """Vertical gap exceeds the document's median line space by more
        than ``factor`` (doc_info.py:268-273)."""
        gap = vertical_gap(l1, l2)
        if gap is None:
            return False
        return (gap - self.median_line_space) / self.median_line_space > factor

    def same_page(self, l1, l2) -> bool:
        return (
            self.id_to_elem[l1["id"]]["idx_page"]
            == self.id_to_elem[l2["id"]]["idx_page"]
        )

    def line_record(self, line) -> tuple:
        """``(words, fonts, gap, alnum, raw)`` of one line: its record from
        the statistics pass, else one made now by the per-word helpers.
        Tuples: a reader that edits the words copies them."""
        return self.records.get(id(line)) or _words_record(line)

    def raw_words(self, element) -> list | None:
        """The stripped texts of ``walk_nodes(element, "word")`` from the
        line records, when ``element["content"]`` is a list of recorded
        lines whose words are raw; else ``None``."""
        lines = self.lines.get(id(element))
        if lines is None or lines is not element.get("content"):
            return None
        words = []
        for ln in lines:
            rec = self.records.get(id(ln))
            if rec is None or not rec[4]:
                return None
            words += rec[0]
        return words

    def looks_like_body(self, element) -> bool:
        """Is the element statistically a body paragraph?
        (doc_info.py:305-321)"""
        lines = self.lines.get(id(element))
        if lines is None:
            lines = walk_nodes(element, "line")
        widths = [ln["box"]["w"] for ln in lines]
        heights = [ln["box"]["h"] for ln in lines]
        lefts = [ln["box"]["l"] for ln in lines]
        if abs(self.median_line_width - max(widths)) > 5:
            return False
        if abs(self.median_line_height - median(heights)) > 2:
            return False
        if abs(self.median_line_left - median(lefts)) > 5:
            return False
        return True


# ---------------------------------------------------------------------------
# header/footer near-dup removal (reference: doc_info.py:102-152)
# ---------------------------------------------------------------------------


def groups_similar(es1, es2, sim_text: float = 0.8, sim_box: float = 0.6,
                   text=gathered_text) -> bool:
    """Two per-page element groups are near-duplicates when both the
    character-bag Jaccard of their texts (``text(group)``) and the bbox
    overlap ratio clear their thresholds (doc_info.py:102-123)."""
    pts1, pts2 = corner_points(es1), corner_points(es2)
    if min(len(pts1), len(pts2)) < 4:
        return False
    if char_bag_jaccard(text(es1), text(es2)) <= sim_text:
        return False
    return bbox_similarity(pts1, pts2) > sim_box


def dedup_repeating_groups(page_groups: list[list], scorer: DeterministicScorer,
                           stats: DocStats | None = None):
    """Sequential near-dedup of per-page header/footer groups: the first
    page's group always survives; later near-duplicate groups keep
    whichever scores better under the LM, blanking the loser with [].
    Order-dependent by design (doc_info.py:126-152). Each group's text is
    gathered once, at its first use."""
    texts: dict = {}

    def text(group) -> str:
        if id(group) not in texts:
            texts[id(group)] = gathered_text(group, stats)
        return texts[id(group)]

    kept = [page_groups[0]]
    for group in page_groups[1:]:
        survives = True
        for prior in kept:
            if len(prior) == 0:
                continue
            if groups_similar(prior, group, text=text):
                if scorer.single_score(text(prior)) <= scorer.single_score(
                    text(group)
                ):
                    survives = False
                    break
                kept.remove(prior)
        kept.append(group if survives else [])
    return kept


def _page_number_text(item) -> str:
    """The text the page-number filter sees for one item. Raw layout dicts
    / groups of dicts yield their word text; already-exported OutElements
    yield '' — exactly like the reference, whose tree walker returns None
    for non-dict nodes (doc_info.py:44-52), so exported Elements have no
    extractable words."""
    if isinstance(item, dict):
        return gathered_text([item])
    if isinstance(item, (list, tuple)):
        return gathered_text(item)
    return ""


def drop_page_number_groups(items: list) -> list:
    """Remove items whose text is only page-number boilerplate
    ('Seite 3 von 12', bare numbers) after number/punct stripping
    (doc_info.py:155-171). NOTE: when called on already-exported output
    elements (as the reference does at export.py:312-314), every item's
    text is '' and everything is removed — faithfully reproduced."""
    results = []
    for item in items:
        txt = (
            clean_text(_page_number_text(item), replace_with_number="", no_punct=True)
            .replace("seite", "")
            .replace("von", "")
        )
        if txt.strip() != "":
            results.append(item)
    return results


# ---------------------------------------------------------------------------
# output representation (reference: doc_output.py:128-169)
# ---------------------------------------------------------------------------


@dataclass
class OutElement:
    kind: str  # body | heading | footnotes
    lines: list[list[str]]
    elem_id: object
    idx_page: int | None = None
    num_newlines: int = 0
    level: int | None = None
    ends_newline: bool | None = None

    def __post_init__(self):
        if self.kind not in ("body", "heading", "footnotes"):
            raise AssertionError(f"bad element kind {self.kind}")
        for line in self.lines:
            if len(line) == 0:
                raise AssertionError("empty line in output element")

    def render(self) -> str:
        if self.kind == "footnotes":
            # doc_output.py:156-159: spaces before newlines are scrubbed
            fixed = [strip_line_end_spaces(" ".join(line)) for line in self.lines]
            return "".join(fixed) + "\n"
        return "".join(map(" ".join, self.lines)) + "\n\n"


# ---------------------------------------------------------------------------
# paragraph assembly (reference: export.py:106-151, 328-500, 514-554)
# ---------------------------------------------------------------------------


def words_of_line(line) -> tuple[list[str], list]:
    """Unicode-fixed, stripped word texts + fonts of a line's 'word' items
    (export.py:387-395)."""
    words, fonts = [], []
    for item in line["content"]:
        if item["type"] == "word":
            words.append(fix_text(item["content"]).strip())
            fonts.append(item["font"])
    return words, fonts


class ParagraphBuilder:
    """Assembles one input paragraph element into an OutElement, driving
    the 7-rule line-join cascade with the LM as final tiebreak."""

    def __init__(self, stats: DocStats, opts: ExtractOptions,
                 scorer: DeterministicScorer):
        self.stats = stats
        self.opts = opts
        self.scorer = scorer

    # -- the decision cascade (export.py:328-385) ---------------------------

    def wants_newline(self, line, next_line, text_line, text_next_line,
                      paragraph, num_valid_lines, avg_space=None) -> bool:
        """Does ``line`` end with a newline rather than a space?
        ``avg_space`` is the line record's ``mean_word_gap(line)``, computed
        here when the record has none."""
        # rule 0 (default OFF, like the reference): materially different
        # modal fonts between adjacent lines force a break
        # (export.py:332-339, doc_info.py:36-40). Guarded on a valid next
        # line — the reference would crash computing most_used_font(None).
        if (self.opts.consider_font_size_linebreak and next_line
                and text_next_line is not None):
            f1 = self.stats.font_info.get(modal_font(line))
            f2 = self.stats.font_info.get(modal_font(next_line))
            if f1 is not None and f2 is not None \
                    and not roughly_same_font(f1, f2):
                return True

        if avg_space is None:
            avg_space = mean_word_gap(line)
        indent = line["box"]["l"] - paragraph["box"]["l"]
        available = (
            paragraph["box"]["w"] - line["box"]["w"] - avg_space - indent
        )

        # rule 2: no (valid) next line (export.py:348-361)
        if next_line is None or not next_line or text_next_line is None:
            if available > avg_space:
                return True
            return num_valid_lines == 1

        # rule 3: next line's first item would have fit here (export.py:363-367)
        if available >= next_line["content"][0]["box"]["w"]:
            return True

        # rule 4: big vertical gap on the same page (export.py:369-372)
        if self.stats.same_page(line, next_line):
            if self.stats.lines_wide_apart(line, next_line):
                return True

        # rule 5: long lines join with a space (export.py:376-377)
        if len(text_line) > 5:
            return False

        # rule 6: trailing punctuation joins with a space (export.py:380-381)
        if text_line[-1].strip()[-1] in string.punctuation:
            return False

        # rule 7: LM tiebreak (export.py:385)
        return self.scorer.newline_or_not(
            " ".join(text_line), " ".join(text_next_line)
        )

    # -- footnote classifier (export.py:514-554) ----------------------------

    def is_footnote_paragraph(self, paragraph, valid_recs, idx_page) -> bool:
        """``valid_recs``: the records of the paragraph's valid lines."""
        fonts: list = []
        for rec in valid_recs:
            fonts += rec[1]
        # all in the body font: the modal font is the body font
        if fonts.count(self.stats.body_font) == len(fonts):
            return False
        para_font = _most_common(fonts)
        if para_font == self.stats.body_font:
            return False
        if (
            self.stats.font_info[para_font]["size"]
            > self.stats.font_info[self.stats.body_font]["size"]
        ):
            return False
        page_order = self.stats.order_page[idx_page]
        if len(page_order) == 0:
            return False
        if page_order[-1] != paragraph["id"]:
            return False
        if len(page_order) > 1:
            prev = self.stats.id_to_elem[page_order[-2]]
            prev_words = self.stats.line_record(prev["content"][-1])[0]
            if prev_words[-1].endswith(":"):
                return False
        if not valid_recs[0][0][0].strip()[0].isnumeric():
            return False
        return True

    # -- paragraph assembly (export.py:397-500) -----------------------------

    def build(self, paragraph, idx_page, test_footnote=True) -> OutElement | None:
        raw_lines = paragraph["content"]
        recs = [self.stats.line_record(raw) for raw in raw_lines]
        # each valid line's words as a list of its own: the join markers
        # below edit it
        lines: list[list[str] | None] = []
        valid_idx: list[int] = []
        for i, (words, _, _, alnum, _) in enumerate(recs):
            if words and (not self.opts.remove_punct_paragraph or (
                alnum if alnum is not None
                else any(has_alnum(w) for w in words)
            )):
                lines.append(list(words))
                valid_idx.append(i)
            else:
                lines.append(None)  # no words, or punctuation only
        if not valid_idx:
            return None
        last_valid = valid_idx[-1]
        n_valid = len(valid_idx)

        if test_footnote and self.is_footnote_paragraph(
            paragraph, [recs[i] for i in valid_idx], idx_page
        ):
            # footnote variant (export.py:432-460): newline markers are
            # separate trailing words; numeric-start lines with differing
            # fonts split (footnote markers); no dehyphenation (ref TODO).
            for i in valid_idx[:-1]:
                if self.wants_newline(
                    raw_lines[i], raw_lines[i + 1], lines[i], lines[i + 1],
                    paragraph, n_valid, recs[i][2],
                ):
                    lines[i].append("\n")
                elif lines[i + 1] is None:
                    lines[i].append("\n")
                elif (
                    lines[i][0].isnumeric()
                    and lines[i + 1][0].isnumeric()
                    and raw_lines[i + 1]["content"][0]["font"]
                    != raw_lines[i]["content"][-1]["font"]
                ):
                    lines[i].append("\n")
                else:
                    lines[i].append(" ")
            kept = [lines[i] for i in valid_idx]
            return OutElement("footnotes", kept, paragraph["id"], idx_page=idx_page)

        # ordinary paragraph (export.py:462-500): join markers are appended
        # to the last word's text; the paragraph's last line only gets a
        # marker when it ends with a newline.
        num_newlines = 0
        ends_newline = False
        for i in valid_idx:
            at_end = i == last_valid
            nl = self.wants_newline(
                raw_lines[i],
                None if at_end else raw_lines[i + 1],
                lines[i],
                None if at_end else lines[i + 1],
                paragraph,
                n_valid,
                recs[i][2],
            )
            if nl:
                lines[i][-1] += "\n"
                num_newlines += 1
                if at_end:
                    ends_newline = True
            elif not at_end:
                lines[i][-1] += " "

        kept = [lines[i] for i in valid_idx]
        if self.opts.remove_hyphens:
            kept = self.scorer.dehyphen_paragraph(kept)

        return OutElement(
            "body",
            kept,
            paragraph["id"],
            idx_page=idx_page,
            num_newlines=num_newlines,
            ends_newline=ends_newline,
        )


# ---------------------------------------------------------------------------
# document-level orchestration (reference: export.py:214-326,
# doc_output.py:14-125)
# ---------------------------------------------------------------------------


def _build_heading(element, stats: DocStats) -> OutElement:
    """Heading export (export.py:503-509). The reference passes the heading
    level into the idx_page positional slot of Element — a quirk we
    reproduce (level stays None). Headings are effectively unused: Parsr
    heading detection is disabled (reference README.md:106-109)."""
    lines = [list(stats.line_record(raw)[0]) for raw in element["content"]]
    return OutElement("heading", lines, element["id"], idx_page=element["level"])


class DocumentKernel:
    """One document end-to-end. Construct with a parsed layout dict."""

    def __init__(self, layout: dict, opts: ExtractOptions,
                 scorer: DeterministicScorer | None = None):
        self.layout = layout
        self.opts = opts
        self.scorer = scorer or get_scorer(opts.lang)

        if opts.fast:
            # fast mode leaves unclassified None elements (export.py:203-208)
            for page in self.layout["pages"]:
                page["elements"] = [e for e in page["elements"] if e]

        self.stats = DocStats.compute(self.layout)
        self._fix_header_footer_flags()
        self.builder = ParagraphBuilder(self.stats, opts, self.scorer)

        self.body: list[OutElement] = []
        self.header: list[OutElement] = []
        self.footer: list[OutElement] = []
        self.merged_ids: dict = {}
        self._assemble()

    # -- flag fix-up (export.py:260-274) ------------------------------------

    def _fix_header_footer_flags(self):
        for page in self.layout["pages"]:
            for e in page["elements"]:
                for key in ("isHeader", "isFooter"):
                    if _is_flag(e, key) and self.stats.looks_like_body(e):
                        del e["properties"][key]

    # -- header/footer export (export.py:218-258) ---------------------------

    def _export_header_footer(self):
        headers, footers = [], []
        for page in self.layout["pages"]:
            h = [e for e in page["elements"] if _is_flag(e, "isHeader")]
            f = [e for e in page["elements"] if _is_flag(e, "isFooter")]
            headers.append(h)
            footers.append(f)

        if self.opts.remove_duplicate_header_footer:
            headers = dedup_repeating_groups(headers, self.scorer, self.stats)
            footers = dedup_repeating_groups(footers, self.scorer, self.stats)

        out_header, out_footer, out_footnotes = [], [], []
        for idx_page, (h_group, f_group) in enumerate(zip(headers, footers)):
            for e in h_group:
                built = self.builder.build(e, idx_page, test_footnote=False)
                if built:
                    out_header.append(built)
            for e in f_group:
                built = self.builder.build(e, idx_page)
                if built is not None:
                    if built.kind == "footnotes":
                        out_footnotes.append(built)
                    else:
                        out_footer.append(built)
        return out_header, out_footer, out_footnotes

    # -- main export loop (export.py:276-326) -------------------------------

    def _assemble(self):
        opts = self.opts
        header = footer = None
        new_footnotes = None
        if opts.separate_header_footer:
            header, footer, new_footnotes = self._export_header_footer()

        body: list[OutElement] = []
        for idx_page, page in enumerate(self.layout["pages"]):
            for e in page["elements"]:
                if (opts.separate_header_footer or opts.remove_header) and _is_flag(
                    e, "isHeader"
                ):
                    continue
                if (opts.separate_header_footer or opts.remove_footer) and _is_flag(
                    e, "isFooter"
                ):
                    continue
                if e["type"] == "heading":
                    body.append(_build_heading(e, self.stats))
                if e["type"] == "paragraph":
                    built = self.builder.build(e, idx_page)
                    if built:
                        body.append(built)
            if new_footnotes is not None:
                body.extend(x for x in new_footnotes if x.idx_page == idx_page)

        if opts.remove_page_number:
            header = drop_page_number_groups(header)
            footer = drop_page_number_groups(footer)

        self.body = body
        self.header = header or []
        self.footer = footer or []

        if opts.footnotes_last:
            self._footnotes_to_end()
            if opts.remove_hyphens:
                self._merge_page_breaks()

    # -- footnote reorder (doc_output.py:97-105) ----------------------------

    def _footnotes_to_end(self):
        notes = [e for e in self.body if e.kind == "footnotes"]
        rest = [e for e in self.body if e.kind != "footnotes"]
        self.body = rest + notes

    # -- cross-page paragraph merge (doc_output.py:29-95) -------------------

    def _find_by_id(self, elem_id) -> OutElement | None:
        elem_id = self.merged_ids.get(elem_id, elem_id)
        matches = [e for e in self.body if e.elem_id == elem_id]
        return matches[0] if len(matches) == 1 else None

    def _edge_element(self, idx_page: int, from_end: bool) -> OutElement | None:
        order = self.stats.order_page[idx_page]
        for eid in reversed(order) if from_end else order:
            e = self._find_by_id(eid)
            if e is not None and e.kind in ("body", "heading"):
                return e
        return None

    def _merge_page_breaks(self):
        for idx_page in range(len(self.stats.order_page) - 1):
            last = self._edge_element(idx_page, from_end=True)
            first = self._edge_element(idx_page + 1, from_end=False)
            if last is None or first is None:
                continue
            if last.kind == "heading" or first.kind == "heading":
                continue
            if last.ends_newline:
                continue
            merged_lines = self.scorer.is_split_paragraph(last.lines, first.lines)
            if merged_lines is None:
                continue
            merged = OutElement(
                "body",
                merged_lines,
                last.elem_id,
                idx_page=last.idx_page,
                num_newlines=last.num_newlines + first.num_newlines,
                ends_newline=first.ends_newline,
            )
            self.body[self.body.index(last)] = merged
            self.body.remove(first)
            self.merged_ids[first.elem_id] = last.elem_id

    # -- render (doc_output.py:107-125) -------------------------------------

    def text(self, markdown: bool = False) -> str:
        parts = ["\n\n".join(e.render() for e in self.header)]
        for e in self.body:
            if markdown and e.kind == "heading":
                parts.append("#" * e.level + " ")
            parts.append(e.render())
        parts.append("\n\n".join(e.render() for e in self.footer))
        text = "".join(parts)
        return _NL_COLLAPSE.sub("\n\n", text) if "\n\n\n" in text else text


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def extract_text(
    layout: dict,
    opts: ExtractOptions | None = None,
    scorer: DeterministicScorer | None = None,
    markdown: bool = False,
) -> str:
    """Extract the reconstructed continuous text from a parsed layout dict.

    Equivalent public surface to the reference's
    ``Export(input_json, ...).text()`` (export.py:154-212, 556-566).
    """
    opts = opts or ExtractOptions()
    return DocumentKernel(layout, opts, scorer).text(markdown=markdown)


def dead_letter(exc: Exception) -> dict:
    """The record of a document that failed: no text, the exception as
    ``"<class>: <message>"`` in ``error``."""
    return {
        "text": None,
        "error": f"{type(exc).__name__}: {exc}",
        "n_pages": 0,
        "n_elements": 0,
        "tables": [],
    }


def extract_record(
    html: bytes | str,
    opts: ExtractOptions | None = None,
    scorer: DeterministicScorer | None = None,
    markdown: bool = False,
) -> dict:
    """Dead-letter-safe extraction of one serialized layout payload.

    Returns {"text", "error", "n_pages", "n_elements"}; any kernel failure
    (degenerate document, malformed payload — cases where the reference
    raises, doc_info.py:217-233,256-259) becomes an error string instead
    of a job failure.
    """
    opts = opts or ExtractOptions()
    try:
        layout = orjson.loads(html)
    except Exception as exc:  # noqa: BLE001 — dead-letter semantics
        return dead_letter(exc)
    return extract_parsed(layout, opts, scorer, markdown=markdown)


def extract_parsed(
    layout,
    opts: ExtractOptions | None = None,
    scorer: DeterministicScorer | None = None,
    markdown: bool = False,
) -> dict:
    """``extract_record`` for an already-parsed layout dict (used by the
    page-table path, which assembles the dict itself and must not pay a
    serialize→reparse round trip). Same dead-letter contract."""
    opts = opts or ExtractOptions()
    try:
        n_pages = len(layout.get("pages", []))
        n_elements = sum(len(p.get("elements") or []) for p in layout["pages"])
        kern = DocumentKernel(layout, opts, scorer)
        return {
            "text": kern.text(markdown=markdown),
            "error": None,
            "n_pages": n_pages,
            "n_elements": n_elements,
            # side-channel: table CSVs ride NEXT TO the text, never merged
            # into it (reference: extract() returns (text, tables),
            # export.py:103; parsr_wrapper.py:91-94,112-114)
            "tables": [t for t in layout.get("tables") or []
                       if isinstance(t, str)],
        }
    except Exception as exc:  # noqa: BLE001 — dead-letter semantics
        return dead_letter(exc)

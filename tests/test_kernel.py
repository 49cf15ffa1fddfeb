"""Unit tests for the per-document kernel against hand-built layouts,
pinning the reference's decision-cascade branches (SURVEY.md §2.6-2.7)."""

import json

import pytest

from pd3f_ray.core.config import ExtractOptions
from pd3f_ray.core.kernel import (
    DocStats,
    DocumentKernel,
    dedup_repeating_groups,
    extract_parsed,
    extract_record,
    extract_text,
)
from pd3f_ray.core.scorer import get_scorer
from pd3f_ray.sources.synth import (
    BODY_FONT,
    FONTS,
    MARGIN_L,
    SMALL_FONT,
    _IdGen,
    _line,
    _paragraph,
    build_layout,
)


def _doc(pages):
    return {"pages": pages, "fonts": [dict(f) for f in FONTS]}


def _mkpara(ids, line_words, t0=90.0, gap=4.0, font=BODY_FONT, **flags):
    lines, t = [], t0
    for ws in line_words:
        lines.append(_line(ids, ws, font, t, MARGIN_L))
        t += 10.0 + gap
    return _paragraph(ids, lines, **flags)


def _base_doc(ids, extra_elems=(), n_filler=2):
    """A document with enough ordinary body text to establish stats."""
    elems = []
    t = 90.0
    for _ in range(n_filler):
        words = [["the", "data", "table", "is", "sorted", "and", "merged", "now."],
                 ["the", "annual", "report", "of", "the", "commission", "was", "public."]]
        elems.append(_mkpara(ids, words, t0=t))
        t += 60.0
    elems.extend(extra_elems)
    return _doc([{"elements": elems}])


def test_single_line_paragraph_gets_newline():
    # rule 2 with num_lines == 1 → newline (export.py:356-357)
    ids = _IdGen()
    para = _mkpara(ids, [["Short", "line"]], t0=400.0)
    doc = _base_doc(ids, [para])
    txt = extract_text(doc, ExtractOptions.plain())
    assert "Short line\n\n" in txt


def test_punct_only_line_dropped():
    ids = _IdGen()
    para = _mkpara(ids, [["Alpha", "beta", "gamma", "delta", "words", "here", "now"],
                         ["*", "*", "*"],
                         ["More", "alpha", "beta", "gamma", "words", "again", "end."]],
                   t0=400.0)
    doc = _base_doc(ids, [para])
    txt = extract_text(doc, ExtractOptions.plain())
    assert "* *" not in txt


def test_vertical_gap_forces_newline():
    ids = _IdGen()
    l1 = _line(ids, ["One", "two", "three", "four", "five", "six", "seven"], BODY_FONT, 400.0, MARGIN_L)
    l2 = _line(ids, ["Eight", "nine", "ten", "eleven", "twelve", "more", "words"], BODY_FONT, 500.0, MARGIN_L)
    para = _paragraph(ids, [l1, l2])
    doc = _base_doc(ids, [para])
    txt = extract_text(doc, ExtractOptions.plain())
    assert "seven\nEight" in txt


def test_long_line_space_join():
    # rule 5: > 5 words and no other rule fires → space (export.py:376-377)
    ids = _IdGen()
    para = _mkpara(
        ids,
        [["the", "data", "table", "is", "sorted", "and", "merged", "with"],
         ["the", "annual", "report", "of", "the", "commission", "now."]],
        t0=400.0,
    )
    doc = _base_doc(ids, [para])
    txt = extract_text(doc, ExtractOptions.plain())
    assert "with the annual" in txt


def test_footnote_detection_and_reorder():
    ids = _IdGen()
    note = _mkpara(ids, [["1", "See", "annual", "report", "for", "details."]],
                   t0=700.0, font=SMALL_FONT)
    doc = _base_doc(ids, [note])
    k = DocumentKernel(doc, ExtractOptions.experimental())
    kinds = [e.kind for e in k.body]
    assert kinds[-1] == "footnotes"
    # footnote paragraph renders with single trailing newline
    assert k.body[-1].render().endswith("details.\n")


def test_footnote_not_detected_with_body_font():
    ids = _IdGen()
    note = _mkpara(ids, [["1", "See", "annual", "report", "for", "details."]],
                   t0=700.0, font=BODY_FONT)
    doc = _base_doc(ids, [note])
    k = DocumentKernel(doc, ExtractOptions.experimental())
    assert all(e.kind != "footnotes" for e in k.body)


def test_footnote_not_detected_when_prev_ends_colon():
    ids = _IdGen()
    filler = _mkpara(ids, [["the", "data", "table", "is", "sorted", "and", "merged", "now."],
                           ["the", "annual", "report", "of", "the", "commission", "was", "public."]])
    lead = _mkpara(ids, [["the", "following", "items", "apply", "namely:"]], t0=300.0)
    note = _mkpara(ids, [["1", "See", "annual", "report", "for", "details."]],
                   t0=700.0, font=SMALL_FONT)
    doc = _doc([{"elements": [filler, lead, note]}])
    k = DocumentKernel(doc, ExtractOptions.experimental())
    assert all(e.kind != "footnotes" for e in k.body)


def test_header_footer_dedup_keeps_one():
    scorer = get_scorer("multi")
    ids = _IdGen()
    groups = []
    for p in range(4):
        h = _mkpara(ids, [["Annual", "report", "of", "the", "commission"]],
                    t0=30.0, font=BODY_FONT)
        groups.append([h])
    kept = dedup_repeating_groups(groups, scorer)
    non_empty = [g for g in kept if g]
    assert len(non_empty) == 1
    assert kept[0]  # first page survives


def test_header_flag_cleared_for_body_like_element():
    ids = _IdGen()
    mislabeled = _mkpara(
        ids,
        [["the", "data", "table", "is", "sorted", "and", "merged", "now."],
         ["the", "annual", "report", "of", "the", "commission", "was", "public."]],
        t0=300.0, is_header=True,
    )
    doc = _base_doc(ids, [mislabeled], n_filler=3)
    k = DocumentKernel(doc, ExtractOptions.experimental())
    # its text must appear in the body despite the isHeader flag
    joined = "".join(e.render() for e in k.body)
    assert "sorted and merged" in joined


def test_degenerate_doc_dead_letters():
    rec = extract_record(json.dumps({"pages": [{"elements": []}], "fonts": []}).encode())
    assert rec["error"] is not None and rec["text"] is None


def test_malformed_payload_dead_letters():
    rec = extract_record(b"this is not json")
    assert rec["error"] is not None


def test_invalid_option_combo_raises():
    with pytest.raises(ValueError):
        ExtractOptions(remove_page_number=True, separate_header_footer=False)


def test_experimental_drops_header_footer_text():
    """The reference's page-number filter sees '' for exported elements and
    removes them all (doc_info.py:44-52 + export.py:312-314) — pinned."""
    layout, _ = build_layout(3, scenario="header_footer")
    txt = extract_text(layout, ExtractOptions.experimental())
    assert "Seite" not in txt
    assert "Annual report" not in txt


def test_plain_mode_keeps_header_inline():
    layout, _ = build_layout(3, scenario="header_footer")
    txt = extract_text(layout, ExtractOptions.plain())
    assert "Annual report of the commission" in txt


def test_final_newline_collapse():
    ids = _IdGen()
    doc = _base_doc(ids)
    txt = extract_text(doc, ExtractOptions.plain())
    assert "\n\n\n" not in txt


def test_stats_exact_median_semantics():
    # even count → mean of middle two, exactly like statistics.median
    ids = _IdGen()
    doc = _base_doc(ids, n_filler=2)
    st = DocStats.compute(doc)
    assert st.median_line_height == 10.0
    assert st.body_font == BODY_FONT


def test_page_break_merge_fires():
    merged_any = False
    for i in range(40):
        layout, _ = build_layout(i, scenario="page_break_split")
        k = DocumentKernel(layout, ExtractOptions.experimental())
        if k.merged_ids:
            merged_any = True
            break
    assert merged_any


def test_extract_deterministic():
    layout1, _ = build_layout(7)
    layout2, _ = build_layout(7)
    a = extract_text(layout1, ExtractOptions.experimental())
    b = extract_text(layout2, ExtractOptions.experimental())
    assert a == b


def test_reference_shaped_api():
    """extract() / Export mirror the reference's public call shapes
    (reference export.py:30-103, 154-212): (text, tables) tuple, path or
    dict or bytes input, markdown render, save_text."""
    import json
    import tempfile

    from pd3f_ray import Export, extract
    from pd3f_ray.sources.synth import build_layout

    layout, _ = build_layout(3, 42, scenario="plain")
    layout["tables"] = ["a,b\n1,2\n"]
    payload = json.dumps(layout, ensure_ascii=False).encode()

    text, tbls = extract(payload, tables=True, experimental=True, lang="en")
    assert text and isinstance(text, str)
    assert tbls == ["a,b\n1,2\n"]
    text2, none_tbls = extract(dict(layout), experimental=True, lang="en")
    assert text2 == text and none_tbls is None

    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as f:
        f.write(payload)
        path = f.name
    e = Export(path, experimental=True, lang="en")
    assert e.text() == text
    assert isinstance(e.markdown(), str)
    out = path + ".txt"
    e.save_text(out)
    assert open(out, encoding="utf-8").read() == text

    # one-shot API surfaces errors (pipeline dead-letters instead)
    import pytest as _pytest

    with _pytest.raises(ValueError):
        extract(b"\x00notjson", experimental=True)


def test_rule3_short_line_forces_newline():
    # rule 3: the next line's first word would have fit in the remaining
    # space → newline (export.py:363-367). Line 1 is much shorter than
    # the paragraph's width, so "Tail" (line 2) would have fit after it.
    ids = _IdGen()
    l1 = _line(ids, ["Stub."], BODY_FONT, 400.0, MARGIN_L)
    l2 = _line(ids, ["Tail", "words", "of", "the", "paragraph", "continue",
                     "further", "along"], BODY_FONT, 414.0, MARGIN_L)
    para = _paragraph(ids, [l1, l2])
    doc = _base_doc(ids, [para])
    txt = extract_text(doc, ExtractOptions.plain())
    assert "Stub.\nTail" in txt


def test_rule6_punct_end_short_line_joins_with_space():
    # rule 6: ≤5-word line ending in punctuation, with rules 2-5 not
    # firing (full-width line, same-page small gap) → space
    # (export.py:380-381)
    ids = _IdGen()
    l1 = _line(ids, ["Reorganization", "notwithstanding", "responsibilities,"],
               BODY_FONT, 400.0, MARGIN_L)
    l2 = _line(ids, ["Considerations", "administrative", "determinations."],
               BODY_FONT, 414.0, MARGIN_L)
    para = _paragraph(ids, [l1, l2])
    doc = _base_doc(ids, [para])
    txt = extract_text(doc, ExtractOptions.plain())
    assert "responsibilities, Considerations" in txt


def test_rule0_font_change_forces_newline_when_enabled():
    # rule 0 (consider_font_size_linebreak, export.py:332-339): the two
    # lines would join with a space via rule 6 (short line, trailing
    # punctuation), but with the flag ON the font-size jump (11px body
    # vs 8px small > 20% of the larger) forces the newline.
    def build():
        ids = _IdGen()
        l1 = _line(ids, ["Reorganization", "notwithstanding",
                         "responsibilities,"], BODY_FONT, 400.0, MARGIN_L)
        l2 = _line(ids, ["Considerations", "administrative",
                         "determinations."], SMALL_FONT, 414.0, MARGIN_L)
        para = _paragraph(ids, [l1, l2])
        return _base_doc(ids, [para])

    off = extract_text(build(), ExtractOptions.plain())
    assert "responsibilities, Considerations" in off  # default: rule 6 wins

    on = extract_text(
        build(),
        ExtractOptions.plain().with_(consider_font_size_linebreak=True),
    )
    assert "responsibilities,\nConsiderations" in on


def test_roughly_same_font_threshold():
    from pd3f_ray.core.kernel import roughly_same_font

    assert roughly_same_font({"size": 11.0}, {"size": 10.0})
    assert roughly_same_font({"size": 11.0}, {"size": 9.0})   # 2 < 2.2
    assert not roughly_same_font({"size": 11.0}, {"size": 8.0})
    assert not roughly_same_font({"size": 8.0}, {"size": 11.0})


def test_reference_kwargs_accepted_with_warning():
    # reference call sites pass Parsr/OCR/GPU kwargs and the misspelled
    # `seperate_header_footer`; the reference-shaped API must accept
    # them (warn + ignore / alias) instead of raising TypeError
    import warnings

    from pd3f_ray import extract
    from pd3f_ray.sources.synth import build_layout

    layout, _ = build_layout(3, 42, scenario="plain")
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        text, _tbls = extract(
            dict(layout), experimental=True, lang="en",
            force_gpu=True, parsr_location="localhost:3001",
            parsr_config={"x": 1},
        )
    assert text
    assert sum("ignored" in str(w.message) for w in rec) == 3

    # the reference's misspelled kwarg maps onto the real option
    t2, _ = extract(dict(layout), lang="en", seperate_header_footer=True,
                    footnotes_last=True, remove_page_number=True)
    base, _ = extract(dict(layout), experimental=True, lang="en")
    assert t2 == base

    # unknown non-reference kwargs still raise
    import pytest as _pytest

    with _pytest.raises(TypeError):
        extract(dict(layout), lang="en", not_a_real_option=1)



def test_font_errors_surface_in_element_order():
    """A malformed font dead-letters with the error of the first element
    that has one: an unhashable font before a later element's missing
    font is a TypeError, the missing font alone a KeyError."""
    def doc(unhashable: bool):
        d = _base_doc(_IdGen())
        first, second = d["pages"][0]["elements"][:2]
        if unhashable:
            first["content"][0]["content"][0]["font"] = [BODY_FONT]
        del second["content"][1]["content"][2]["font"]
        return d

    opts = ExtractOptions.experimental()
    assert extract_parsed(doc(True), opts)["error"] == (
        "TypeError: unhashable type: 'list'")
    assert extract_parsed(doc(False), opts)["error"] == "KeyError: 'font'"


DEEP = 10_000


_DEEP_WORD = {"type": "word", "content": "deep", "font": BODY_FONT,
              "box": {"t": 600.0, "l": MARGIN_L, "w": 24.0, "h": 10.0}}
_DEEP_BOX = {"t": 600.0, "l": MARGIN_L, "w": 24.0, "h": 10.0}


def _deep_element(depth: int) -> dict:
    """A paragraph whose one word sits ``depth`` groups deep."""
    node = dict(_DEEP_WORD)
    for _ in range(depth):
        node = {"type": "group", "content": [node]}
    return {"id": 900000, "type": "paragraph", "properties": {},
            "box": dict(_DEEP_BOX), "content": [node]}


def _deep_element_json(depth: int) -> str:
    """``_deep_element(depth)`` as JSON text, spelled out because
    ``json.dumps`` itself recurses."""
    return ('{"id": 900000, "type": "paragraph", "properties": {}, "box": '
            + json.dumps(_DEEP_BOX) + ', "content": ['
            + '{"type": "group", "content": [' * depth
            + json.dumps(_DEEP_WORD) + "]}" * depth + "]}")


def test_deep_tree_dead_letters():
    """A layout nested 10,000 levels through ``content`` is one dead letter
    from the recursive tree walk's RecursionError; nothing escapes."""
    ids = _IdGen()
    doc = _base_doc(ids)
    doc["pages"][0]["elements"].append(_deep_element(DEEP))
    rec = extract_parsed(doc, ExtractOptions.experimental())
    assert rec["text"] is None
    assert rec["error"].split(":", 1)[0] == "RecursionError"


def _deep_page_table():
    """A page table of six seed-42 documents plus one two-page document
    whose second page nests one word ``DEEP`` groups deep: ``(pages,
    {url: extract_record of each normal document}, the deep url)``."""
    import pyarrow as pa

    from pd3f_ray.sources.synth import BASE_TS

    opts = ExtractOptions.experimental()
    rows, want = [], {}
    for i in range(6):
        lay, _ = build_layout(i, 42)
        url = f"https://example.org/doc/{i}"
        for p_idx, page in enumerate(lay["pages"]):
            rows.append((url, p_idx, json.dumps(
                {"page": page, "fonts": lay["fonts"]}).encode()))
        want[url] = extract_record(json.dumps(
            {"pages": lay["pages"], "fonts": lay["fonts"]}).encode(), opts)
    lay, _ = build_layout(0, 42, scenario="plain")
    deep = "https://example.org/doc/deep"
    rows.append((deep, 0, json.dumps(
        {"page": lay["pages"][0], "fonts": lay["fonts"]}).encode()))
    rows.append((deep, 1, ('{"page": {"elements": [' + _deep_element_json(DEEP)
                           + ']}, "fonts": ' + json.dumps(lay["fonts"])
                           + "}").encode()))
    urls, idxs, blobs = zip(*rows)
    pages = pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array([BASE_TS] * len(rows), pa.timestamp("us")),
        "page_idx": pa.array(idxs, pa.int32()),
        "page_json": pa.array(blobs, pa.binary()),
        "lang": pa.array(["multi"] * len(rows), pa.string()),
    })
    return pages, want, deep


def test_deep_tree_dead_letters_in_page_reducer():
    """Through the fused page plan's reducer, the deep document's url is a
    dead letter and every other url matches ``extract_record``."""
    from pd3f_ray.stages.pages import add_bucket_compress, assemble_extract

    pages, want, deep = _deep_page_table()
    out = assemble_extract(add_bucket_compress(pages, 512),
                           ExtractOptions.experimental()).to_pylist()
    got = {r["url"]: r for r in out}
    assert set(got) == set(want) | {deep}
    assert got[deep]["text"] is None
    assert got[deep]["error"].split(":", 1)[0] == "RecursionError"
    for url, rec in want.items():
        assert (got[url]["text"], got[url]["error"]) == (rec["text"], rec["error"])


def test_deep_tree_dead_letters_in_staged_page_plan(ray_session):
    """Through the staged page plan (``assemble_pages_dataset`` then
    ``ExtractDocs``), the deep document, whose layout the serializer
    refuses, is one dead letter instead of a failed job, and every other
    url matches ``extract_record``."""
    import ray.data as rd

    from pd3f_ray.pipelines.extraction import extract_dataset
    from pd3f_ray.stages.pages import assemble_pages_dataset

    pages, want, deep = _deep_page_table()
    out = extract_dataset(assemble_pages_dataset(rd.from_arrow(pages)))
    got = {r["url"]: r for r in out.take_all()}
    assert set(got) == set(want) | {deep}
    assert got[deep]["text"] is None
    assert got[deep]["error"].split(":", 1)[0] == "JSONDecodeError"
    for url, rec in want.items():
        assert (got[url]["text"], got[url]["error"]) == (rec["text"], rec["error"])

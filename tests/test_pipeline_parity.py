"""The per-row invariant from BASELINE.json input_hint: the Ray pipeline's
extracted text is byte-identical per url to the single-process oracle
(the kernel run directly). Also: page-table variant parity and
parallelism invariance."""

import json

import pytest

from pd3f_ray.core.config import ExtractOptions
from pd3f_ray.core.kernel import extract_record
from pd3f_ray.core.scorer import DeterministicScorer
from pd3f_ray.sources.synth import build_layout, doc_url, generate_pages_exploded

N_DOCS = 100


def _oracle_texts(n_docs=N_DOCS, seed=42):
    """Fresh scorer per call so no cross-test cache state is shared."""
    out = {}
    for i in range(n_docs):
        layout, _ = build_layout(i, seed)
        lang = ["multi", "de", "en"][i % 3]
        rec = extract_record(
            json.dumps(layout, ensure_ascii=False).encode(),
            ExtractOptions.experimental(lang=lang),
            scorer=DeterministicScorer(lang),
        )
        out[doc_url(i)] = (rec["text"], rec["error"])
    return out


@pytest.fixture(scope="module")
def oracle():
    return _oracle_texts()


def _collect(ds):
    tbl = ds.to_arrow_refs()
    import ray
    import pyarrow as pa

    parts = [t for t in ray.get(tbl) if t.num_rows]
    t = pa.concat_tables(parts, promote_options="default")
    return {
        r["url"]: (r["text"], r["error"]) for r in t.to_pylist()
    }


def test_doc_table_parity(ray_session, small_corpus_dir, oracle):
    from pd3f_ray.pipelines.extraction import extract_dataset, read_documents

    # ~7-document blocks: one ExtractDocs call per block
    got = _collect(extract_dataset(read_documents(small_corpus_dir)
                                   .repartition(15)))
    assert len(got) == N_DOCS
    for url, (text, error) in oracle.items():
        g_text, g_error = got[url]
        assert g_text == text, f"text mismatch for {url}"
        assert (g_error is None) == (error is None), f"error mismatch for {url}"


def test_one_cpu_drain_completes(small_corpus_dir):
    """With one logical CPU the extraction stage still drains: it runs
    as tasks fused into the read, so nothing holds the only CPU while
    the read waits for it. Own process, because this session's Ray has
    four CPUs."""
    import os
    import signal
    import subprocess
    import sys
    import textwrap

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = textwrap.dedent(f"""
        import ray
        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="ERROR")
        from pd3f_ray.pipelines.extraction import extract_dataset, read_documents
        print("rows", extract_dataset(read_documents({small_corpus_dir!r})).count())
        ray.shutdown()
    """)
    env = dict(os.environ, PYTHONPATH=repo)
    env.pop("RAY_ADDRESS", None)
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=repo, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("extraction made no progress in 120 s on 1 logical CPU")
    assert proc.returncode == 0, err[-2000:]
    assert "rows 100" in out.splitlines(), out


def test_page_table_parity(ray_session, tmp_path, oracle):
    import pyarrow.parquet as pq

    from pd3f_ray.pipelines.extraction import extract_from_pages_parquet

    tbl = generate_pages_exploded(N_DOCS, seed=42)
    pq.write_table(tbl, tmp_path / "pages.parquet")
    got = _collect(extract_from_pages_parquet(str(tmp_path / "pages.parquet")))
    assert len(got) == N_DOCS
    for url, (text, _) in oracle.items():
        assert got[url][0] == text, f"page-variant text mismatch for {url}"


def test_dead_letters_present_not_fatal(ray_session, small_corpus_dir):
    from pd3f_ray.pipelines.extraction import extract_from_parquet

    got = _collect(extract_from_parquet(small_corpus_dir))
    errors = [e for (_, e) in got.values() if e]
    # the corpus contains degenerate docs by construction
    assert errors, "expected dead-letter rows in the synthetic corpus"
    assert all(t is None for (t, e) in got.values() if e)


def test_batch_size_invariance(ray_session, small_corpus_dir, oracle):
    """Different block splits (~3-document blocks, or two blocks) must
    not change any byte."""
    from pd3f_ray.pipelines.extraction import extract_dataset, read_documents

    for blocks in (34, 2):
        got = _collect(extract_dataset(read_documents(small_corpus_dir)
                                       .repartition(blocks)))
        for url, (text, _) in oracle.items():
            assert got[url][0] == text


def test_markdown_variant(ray_session, small_corpus_dir):
    """Markdown render prefixes headings with '#'*level and otherwise
    matches the kernel's markdown output per url."""
    import json

    from pd3f_ray.pipelines.extraction import extract_markdown_from_parquet

    got = _collect(extract_markdown_from_parquet(small_corpus_dir))
    assert len(got) == N_DOCS
    for i in range(N_DOCS):
        layout, _ = build_layout(i, 42)
        lang = ["multi", "de", "en"][i % 3]
        rec = extract_record(
            json.dumps(layout, ensure_ascii=False).encode(),
            ExtractOptions.experimental(lang=lang),
            scorer=DeterministicScorer(lang),
            markdown=True,
        )
        assert got[doc_url(i)] == (rec["text"], rec["error"])


def test_elements_explode(ray_session, small_corpus_dir):
    """Element rows concatenate back to the document text (body section,
    in elem_idx order), and dead-letter docs yield error rows."""
    import pandas as pd

    from pd3f_ray.pipelines.extraction import (
        extract_elements_from_parquet,
        extract_from_parquet,
    )

    el = extract_elements_from_parquet(small_corpus_dir).to_pandas()
    docs = extract_from_parquet(small_corpus_dir).to_pandas()
    assert set(el["section"]) <= {"header", "body", "footer", "error"}
    ok_docs = docs[docs["error"].isnull()]
    for _, d in ok_docs.head(20).iterrows():
        mine = el[(el["url"] == d["url"]) & (el["section"] != "error")]
        assert (mine["error"].isnull()).all()
        # every element's rendered text must appear in the document text
        for t in mine["text"]:
            assert t.strip() == "" or t.strip("\n") in d["text"] or t in d["text"]
    err_docs = docs[docs["error"].notnull()]
    if len(err_docs):
        err_el = el[el["section"] == "error"]
        assert set(err_docs["url"]) == set(err_el["url"])


def test_tables_side_channel(ray_session, small_corpus_dir):
    """Table CSVs ride next to the text (reference: extract() returns
    (text, tables)) and are never merged into it."""
    from pd3f_ray.pipelines.extraction import extract_from_parquet

    df = extract_from_parquet(small_corpus_dir).to_pandas()
    with_tables = df[df["n_tables"] > 0]
    assert len(with_tables) > 0, "corpus should include docs with tables"
    for _, r in with_tables.iterrows():
        tables = r["tables_csv"].split("\x1d")
        assert len(tables) == r["n_tables"]
        for t in tables:
            assert t.startswith("item,qty,price")
            if r["text"]:
                assert t not in r["text"]
    without = df[(df["n_tables"] == 0) & df["error"].isnull()]
    assert (without["tables_csv"] == "").all()


def test_skewed_giant_doc_pages_path(ray_session, tmp_path):
    """Skew: one 300-page document among 1-page docs, shuffled page rows,
    through the fused page-table path — output byte-identical to the
    kernel run on the assembled layout."""
    import random

    import pyarrow as pa
    import pyarrow.parquet as pq

    from pd3f_ray.pipelines.extraction import extract_from_pages_parquet
    from pd3f_ray.sources.synth import BASE_TS, build_layout

    # giant doc: replicate a plain scenario page 300×, each page with
    # distinct element content ids don't matter for the kernel
    giant, _ = build_layout(0, 42, scenario="plain")
    giant_pages = [giant["pages"][0]] * 300
    giant_layout = {"pages": giant_pages, "fonts": giant["fonts"]}

    rows = []
    for p_idx, page in enumerate(giant_pages):
        payload = {"page": page, "fonts": giant["fonts"]}
        rows.append(("https://example.org/giant", BASE_TS, p_idx,
                     json.dumps(payload, ensure_ascii=False).encode(), "en"))
    for i in range(1, 40):
        lay, _ = build_layout(i, 42, scenario="plain")
        payload = {"page": lay["pages"][0], "fonts": lay["fonts"]}
        rows.append((f"https://example.org/small/{i}", BASE_TS + i, 0,
                     json.dumps(payload, ensure_ascii=False).encode(), "en"))
    random.Random(7).shuffle(rows)
    urls, tss, idxs, blobs, langs = zip(*rows)
    tbl = pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(tss, pa.timestamp("us")),
        "page_idx": pa.array(idxs, pa.int32()),
        "page_json": pa.array(blobs, pa.binary()),
        "lang": pa.array(langs, pa.string()),
    })
    path = tmp_path / "pages"
    path.mkdir()
    pq.write_table(tbl, path / "part0.parquet")

    got = _collect(extract_from_pages_parquet(str(path)))
    assert len(got) == 40

    oracle_rec = extract_record(
        json.dumps(giant_layout, ensure_ascii=False).encode(),
        ExtractOptions.experimental(lang="en"),
        scorer=DeterministicScorer("en"),
    )
    text, err = got["https://example.org/giant"]
    assert err is None
    assert text == oracle_rec["text"]


def test_corrupt_page_dead_letters_its_document(ray_session, tmp_path):
    """A page that does not parse, and a page without a ``"page"`` key,
    each make their url ONE dead-letter row in the fused page-table path
    (the docs path's error string); the job completes and every other
    url matches the kernel oracle. The staged plan (assemble, then
    ``ExtractDocs``) over four good documents and the unparseable one
    gives five rows: the fused plan's dead letter and its four texts."""
    import random

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray

    from pd3f_ray.core.cluster import read_parquet
    from pd3f_ray.pipelines.extraction import (
        PAGE_COLUMNS,
        extract_dataset,
        extract_from_pages_parquet,
    )
    from pd3f_ray.sources.synth import BASE_TS
    from pd3f_ray.stages.pages import assemble_pages_dataset

    rows, want = [], {}
    for i in range(20):
        lay, _ = build_layout(i, 42, scenario="plain")
        url = f"https://example.org/good/{i}"
        for p_idx, page in enumerate(lay["pages"]):
            payload = {"page": page, "fonts": lay["fonts"]}
            rows.append((url, BASE_TS + i, p_idx,
                         json.dumps(payload, ensure_ascii=False).encode()))
        want[url] = extract_record(
            json.dumps({"pages": lay["pages"], "fonts": lay["fonts"]},
                       ensure_ascii=False).encode(),
            ExtractOptions.experimental(lang="en"),
            scorer=DeterministicScorer("en"))["text"]
    lay, _ = build_layout(99, 42, scenario="plain")
    good_page = json.dumps({"page": lay["pages"][0], "fonts": lay["fonts"]},
                           ensure_ascii=False).encode()
    rows += [("https://example.org/bad-json", BASE_TS, 0, good_page),
             ("https://example.org/bad-json", BASE_TS, 1, b"{not json"),
             ("https://example.org/no-page", BASE_TS, 0, good_page),
             ("https://example.org/no-page", BASE_TS, 1,
              json.dumps({"fonts": lay["fonts"]}).encode())]
    random.Random(11).shuffle(rows)
    urls, tss, idxs, blobs = zip(*rows)
    table = pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(tss, pa.timestamp("us")),
        "page_idx": pa.array(idxs, pa.int32()),
        "page_json": pa.array(blobs, pa.binary()),
        "lang": pa.array(["en"] * len(rows), pa.string()),
    })
    pq.write_table(table, tmp_path / "pages.parquet")

    ds = extract_from_pages_parquet(str(tmp_path / "pages.parquet"))
    got = {r["url"]: r for ref in ds.to_arrow_refs()
           for r in ray.get(ref).to_pylist()}
    assert len(got) == 22
    dead = {"https://example.org/bad-json":
            extract_record(b"{not json")["error"],
            "https://example.org/no-page": "KeyError: 'page'"}
    for url, error in dead.items():
        r = got[url]
        assert (r["text"], r["n_pages"], r["n_elements"], r["error"]) == (
            None, 0, 0, error), r
    for url, text in want.items():
        assert got[url]["error"] is None
        assert got[url]["text"] == text, url

    staged_urls = list(want)[:4] + ["https://example.org/bad-json"]
    pq.write_table(table.filter(pc.is_in(table.column("url"),
                                         pa.array(staged_urls))),
                   tmp_path / "staged.parquet")
    staged = extract_dataset(assemble_pages_dataset(
        read_parquet(str(tmp_path / "staged.parquet"), columns=PAGE_COLUMNS)))
    rows = [r for ref in staged.to_arrow_refs()
            for r in ray.get(ref).to_pylist()]
    assert sorted(r["url"] for r in rows) == sorted(staged_urls)
    errors = [r["error"] for r in rows if r["error"] is not None]
    assert errors == [got["https://example.org/bad-json"]["error"]]
    assert errors[0].startswith("JSONDecodeError: ")
    for r in rows:
        if r["error"] is None:
            assert r["text"] == got[r["url"]]["text"], r["url"]


def test_page_codec_roundtrip_and_ratio(oracle):
    """The fused page exchange's map and reduce halves in process (no
    Ray): every page survives the LZ4 round trip, ``payload_bytes`` is
    the url's raw page bytes, texts match the kernel oracle, and the
    exchanged page column is at most a third of the raw bytes, so the
    compression cannot be dropped unnoticed (raw pages measured +15%
    peak memory)."""
    from collections import Counter

    import pyarrow as pa

    from pd3f_ray.stages.pages import (
        DEFAULT_NUM_BUCKETS,
        PAGE_CODEC,
        add_bucket_compress,
        assemble_extract,
    )

    pages = generate_pages_exploded(N_DOCS, seed=42)
    raw = pages.column("page_json").to_pylist()
    mapped = add_bucket_compress(pages, DEFAULT_NUM_BUCKETS)
    raw_lens = mapped.column("page_raw_len").to_pylist()
    assert raw_lens == [len(b) for b in raw]
    codec = pa.Codec(PAGE_CODEC)
    assert [codec.decompress(b, decompressed_size=n, asbytes=True)
            for b, n in zip(mapped.column("page_lz4").to_pylist(),
                            raw_lens)] == raw
    assert mapped.column("page_lz4").nbytes <= sum(raw_lens) / 3

    raw_per_url = Counter()
    for url, b in zip(pages.column("url").to_pylist(), raw):
        raw_per_url[url] += len(b)
    out = assemble_extract(mapped, ExtractOptions.experimental()).to_pylist()
    assert len(out) == N_DOCS
    for r in out:
        assert r["payload_bytes"] == raw_per_url[r["url"]]
        assert (r["text"], r["error"]) == oracle[r["url"]], r["url"]


def test_page_plan_functions_pickle_by_value():
    """``__ray_entry__`` ships the package to workers by value, so the
    fused page plan's map and reduce functions must pickle with their
    module's globals (a ``pa.Codec`` global does not)."""
    from functools import partial

    from ray import cloudpickle

    from pd3f_ray.stages import pages

    registered = pages.__name__ in cloudpickle.list_registry_pickle_by_value()
    cloudpickle.register_pickle_by_value(pages)
    try:
        for fn in (partial(pages.add_bucket_compress, p=8),
                   partial(pages.assemble_extract,
                           opts=ExtractOptions.experimental()),
                   pages.assemble_bucket):
            cloudpickle.loads(cloudpickle.dumps(fn))
    finally:
        if not registered:
            cloudpickle.unregister_pickle_by_value(pages)


def test_doc_and_page_plans_agree_on_every_column():
    """The doc plan's stage (``ExtractDocs``) and the fused page plan's
    two halves (``add_bucket_compress``, then ``assemble_extract``), in
    process over the same 120 documents, give equal rows per url on
    every ``EXTRACT_SCHEMA`` column but ``payload_bytes``: the doc plan
    counts the serialized document, the page plan its raw pages."""
    from pd3f_ray.sources.synth import generate_corpus
    from pd3f_ray.stages.extract import EXTRACT_SCHEMA, ExtractDocs
    from pd3f_ray.stages.pages import (
        DEFAULT_NUM_BUCKETS,
        add_bucket_compress,
        assemble_extract,
    )

    docs = ExtractDocs()(generate_corpus(120, 42))
    pages = assemble_extract(
        add_bucket_compress(generate_pages_exploded(120, 42),
                            DEFAULT_NUM_BUCKETS),
        ExtractOptions.experimental())
    assert docs.schema == pages.schema == EXTRACT_SCHEMA
    cols = [c for c in EXTRACT_SCHEMA.names if c != "payload_bytes"]

    def by_url(t):
        return {r["url"]: r for r in t.select(cols).to_pylist()}

    got = by_url(docs)
    assert len(got) == 120
    assert got == by_url(pages)
    # the columns compared are not trivially empty
    assert any(r["error"] for r in got.values())
    assert any(r["n_tables"] for r in got.values())


def _null_rows(table, col, urls, page_idx=None):
    """``table`` with ``col`` set null on the rows of ``urls`` (with
    ``page_idx``, only on that page of each)."""
    import pyarrow as pa

    idxs = (table.column("page_idx").to_pylist() if page_idx is not None
            else [None] * table.num_rows)
    vals = [None if u in urls and i == page_idx else v
            for u, i, v in zip(table.column("url").to_pylist(), idxs,
                               table.column(col).to_pylist())]
    return table.set_column(table.schema.get_field_index(col), col,
                            pa.array(vals, table.schema.field(col).type))


def _write(table, path):
    import pyarrow.parquet as pq

    pq.write_table(table, path)
    return str(path)


def test_null_inputs_dead_letter(ray_session, tmp_path):
    """A null ``html`` or ``lang`` in a doc table, and a null ``page_json``
    (one page of a url) or ``lang`` in a page table, make their url
    exactly one dead-letter row naming the null column, through
    ``extract_dataset``, ``extract_elements_from_parquet`` and
    ``extract_from_pages_parquet``. A null ``url`` (every page of one
    document in a page table) is one dead-letter row with a null url.
    Every other url matches ``extract_record``."""
    import ray.data as rd

    from pd3f_ray.pipelines.extraction import (
        extract_dataset,
        extract_elements_from_parquet,
        extract_from_pages_parquet,
    )
    from pd3f_ray.sources.synth import generate_corpus

    n = 30
    want = _oracle_texts(n)
    assert any(err for _, err in want.values())
    url = [doc_url(i) for i in range(n)]
    docs = _null_rows(_null_rows(generate_corpus(n, 42), "html", {url[1]}),
                      "lang", {url[2]})
    docs = _null_rows(docs, "url", {url[3]})
    pages = _null_rows(generate_pages_exploded(n, 42), "page_json",
                       {url[1]}, page_idx=0)
    pages = _null_rows(_null_rows(pages, "lang", {url[2]}), "url", {url[3]})
    dead = {url[1]: "ValueError: null html", url[2]: "ValueError: null lang",
            None: "ValueError: null url"}
    urls = set(want) - {url[3]} | {None}

    def check(rows, dead):
        got = {}
        for r in rows:
            got.setdefault(r["url"], []).append(r)
        assert set(got) == urls
        for u, error in dead.items():
            (r,) = got[u]
            assert (r["text"], r["n_pages"], r["n_elements"], r["n_chars"],
                    r["error"]) == (None, 0, 0, 0, error), r
        for u, (text, error) in want.items():
            if u not in dead and u in urls:
                (r,) = got[u]
                assert (r["text"], r["error"]) == (text, error), u
        return got

    got = check(extract_dataset(rd.from_arrow(docs)).take_all(), dead)
    assert got[url[1]][0]["payload_bytes"] == 0
    check(extract_from_pages_parquet(
        _write(pages, tmp_path / "pages.parquet")).take_all(),
        {**dead, url[1]: "ValueError: null page_json"})

    elems = {}
    for r in extract_elements_from_parquet(
            _write(docs, tmp_path / "docs.parquet")).take_all():
        elems.setdefault(r["url"], []).append(r)
    assert set(elems) == urls
    for u in urls:
        errors = [r["error"] for r in elems[u]]
        error = dead.get(u) or want[u][1]
        if error is not None:
            assert errors == [error], u
        else:
            assert elems[u] and not any(errors), u


def test_unbuildable_scorer_fails_the_task(monkeypatch):
    """A scorer backend that cannot be built is a configuration fault:
    both doc-row stages raise instead of dead-lettering every row."""
    from pd3f_ray.core import scorer
    from pd3f_ray.sources.synth import generate_corpus
    from pd3f_ray.stages.extract import ExtractDocs, ExtractElements

    monkeypatch.setenv("PD3F_RAY_SCORER", "flair")
    monkeypatch.setattr(scorer, "_SCORERS", {})
    batch = generate_corpus(3, 42)
    for stage in (ExtractDocs(), ExtractElements()):
        with pytest.raises(NotImplementedError):
            stage(batch)

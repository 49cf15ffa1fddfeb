"""Web-corpus curation ops: oracle checks for the SQL-expressible
passes (both line-dedup plans), unit tests for the PII scrubber stage,
and property tests for greedy sequence packing."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest
from conftest import force_exchange

SF = "/root/testdata/sf0.001"


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{os.path.join(SF, 'documents.parquet')}')"
    )
    return c


def _match(ray_ds, sql, con):
    got = _canon(ray_ds.to_pandas())
    want = _canon(con.execute(sql).df())
    want = want.astype(got.dtypes.to_dict(), errors="ignore")
    assert list(got.columns) == list(want.columns)
    pd.testing.assert_frame_equal(got, want)


def test_domain_stats_oracle(ray_session, con):
    from pd3f_ray.pipelines.webcurate import DOMAIN_STATS_SQL, domain_stats

    _match(domain_stats(SF), DOMAIN_STATS_SQL, con)


def test_gopher_quality_oracle(ray_session, con):
    from pd3f_ray.pipelines.webcurate import (
        GOPHER_QUALITY_SQL,
        gopher_quality,
    )

    _match(gopher_quality(SF), GOPHER_QUALITY_SQL, con)


def test_gopher_quality_splits_corpus(ray_session):
    """Thresholds must exercise BOTH verdicts on the fixture corpus —
    an all-keep (or all-drop) gate tests nothing."""
    from pd3f_ray.pipelines.webcurate import gopher_quality

    g = gopher_quality(SF).to_pandas()
    assert 0 < g["keep"].sum() < len(g)


def test_pii_roundtrip_oracle(ray_session, con):
    from pd3f_ray.pipelines.webcurate import PII_ROUNDTRIP_SQL, pii_roundtrip

    _match(pii_roundtrip(SF), PII_ROUNDTRIP_SQL, con)


def test_line_dedup_oracle_broadcast_plan(ray_session, con):
    from pd3f_ray.pipelines.webcurate import LINE_DEDUP_SQL, line_dedup_docs

    _match(line_dedup_docs(SF), LINE_DEDUP_SQL, con)


def test_line_dedup_oracle_antijoin_plan(ray_session, con, monkeypatch):
    """The scale path, taken when the dup table does not fit one block
    (bucketed anti-join + doc-bucket reassembly), must match the same
    oracle."""
    from pd3f_ray.pipelines.webcurate import LINE_DEDUP_SQL, line_dedup_docs

    force_exchange(monkeypatch)
    _match(line_dedup_docs(SF), LINE_DEDUP_SQL, con)


def test_line_dedup_actually_removes_lines(ray_session, con):
    """The fixture corpus must contain real per-source repeated lines,
    else the op is vacuously the identity."""
    from pd3f_ray.pipelines.webcurate import line_dedup_docs

    clean = line_dedup_docs(SF).to_pandas()
    docs = con.execute("SELECT doc_id, text FROM documents").df()
    m = docs.merge(clean, on="doc_id", how="left", suffixes=("", "_c"))
    dropped = int(m["text_c"].isna().sum())
    shortened = int((m["text_c"].notna() & (m["text_c"] != m["text"])).sum())
    assert dropped + shortened > 0


# ---------------------------------------------------------------------------
# PiiScrubber unit behavior
# ---------------------------------------------------------------------------


def test_pii_scrubber_patterns():
    import pyarrow as pa

    from pd3f_ray.stages.pii import PiiScrubber

    s = PiiScrubber()
    assert s.scrub("mail a.b+c@sub.example.org now") == "mail <EMAIL> now"
    assert s.scrub("call 555-0134 today") == "call <PHONE> today"
    assert s.scrub("host 192.168.10.1 up") == "host <IP> up"
    # IPv4 scrubbed before the phone pattern can half-match its digits
    assert s.scrub("10.0.0.1 and 555-0001") == "<IP> and <PHONE>"
    # non-PII digit runs survive
    assert s.scrub("version 1.2 of 2026") == "version 1.2 of 2026"
    # batch call preserves other columns
    out = s(pa.table({"doc_id": [1], "text": ["x@y.io"]}))
    assert out.column("doc_id").to_pylist() == [1]
    assert out.column("text").to_pylist() == ["<EMAIL>"]


# ---------------------------------------------------------------------------
# sequence packing properties
# ---------------------------------------------------------------------------


def _tok_counts(con):
    return con.execute(
        "SELECT doc_id, array_length(string_split(text,' ')) AS n "
        "FROM documents ORDER BY doc_id").df()


def test_pack_sequences_properties(ray_session, con):
    from pd3f_ray.pipelines.webcurate import (
        PACK_BUCKET_DOCS,
        PACK_BUDGET,
        pack_sequences,
    )

    packed = pack_sequences(SF).to_pandas().sort_values("seq_id")
    toks = _tok_counts(con)

    # every document is packed exactly once
    assert packed["n_docs"].sum() == len(toks)
    assert packed["n_tokens"].sum() == toks["n"].sum()
    # budget respected (fixture has no over-budget single doc)
    assert (toks["n"] <= PACK_BUDGET).all()
    assert (packed["n_tokens"] <= PACK_BUDGET).all()
    # seq ids unique
    assert packed["seq_id"].is_unique

    # greedy reference: replay packing per bucket on the driver
    toks["bucket"] = toks["doc_id"] // PACK_BUCKET_DOCS
    want = []
    for b, grp in toks.groupby("bucket", sort=True):
        cur_d = cur_t = 0
        seqs = []
        for n in grp.sort_values("doc_id")["n"]:
            if cur_d and cur_t + n > PACK_BUDGET:
                seqs.append((cur_d, cur_t))
                cur_d = cur_t = 0
            cur_d += 1
            cur_t += int(n)
        if cur_d:
            seqs.append((cur_d, cur_t))
        for i, (d, t) in enumerate(seqs):
            want.append((b * PACK_BUCKET_DOCS + i, d, t))
    want_df = pd.DataFrame(want, columns=["seq_id", "n_docs", "n_tokens"])
    pd.testing.assert_frame_equal(
        packed.reset_index(drop=True)[["seq_id", "n_docs", "n_tokens"]],
        want_df,
    )


def test_pack_sequences_oversize_doc_gets_own_sequence(ray_session,
                                                       tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pd3f_ray.pipelines.webcurate import pack_sequences

    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["w " * 9 + "w",        # 10 tokens
                          " ".join(["w"] * 40),  # over a 16 budget
                          "w w w"], pa.string()),
    })
    d = str(tmp_path / "big")
    os.makedirs(d, exist_ok=True)
    pq.write_table(tbl, os.path.join(d, "documents.parquet"))
    got = (pack_sequences(d, budget=16).to_pandas()
           .sort_values("seq_id").reset_index(drop=True))
    # doc1 -> seq0; doc2 (40 > 16) alone in seq1; doc3 -> seq2
    assert got["n_docs"].tolist() == [1, 1, 1]
    assert got["n_tokens"].tolist() == [10, 40, 3]


def test_pack_sequences_deterministic(ray_session):
    from pd3f_ray.pipelines.webcurate import pack_sequences

    a = pack_sequences(SF).to_pandas().sort_values("seq_id") \
        .reset_index(drop=True)
    b = pack_sequences(SF).to_pandas().sort_values("seq_id") \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


# ---------------------------------------------------------------------------
# line-split helper invariants
# ---------------------------------------------------------------------------


def test_split_lines_partitions_text():
    from pd3f_ray.pipelines.webcurate import LINE_TOKENS, _split_lines

    text = " ".join(f"t{i}" for i in range(37))
    lines = _split_lines(text)
    assert " ".join(lines) == text
    assert all(ln.count(" ") + 1 <= LINE_TOKENS for ln in lines)
    assert [ln.count(" ") + 1 for ln in lines[:-1]] == \
        [LINE_TOKENS] * (len(lines) - 1)


def test_web_corpus_pipeline_end_to_end_oracle(ray_session, con):
    # the composed flagship: strip -> scrub -> gate -> dedup in ONE
    # streaming pipeline, byte-per-url vs the chained SQL
    import pandas as pd

    from pd3f_ray.pipelines.webcurate import (
        WEB_CORPUS_PIPELINE_SQL,
        web_corpus_pipeline,
    )

    got = (web_corpus_pipeline(SF).to_pandas()
           .sort_values("url").reset_index(drop=True))
    want = (con.execute(WEB_CORPUS_PIPELINE_SQL).df()
            .sort_values("url").reset_index(drop=True))
    pd.testing.assert_frame_equal(got[sorted(got.columns)],
                                  want[sorted(want.columns)])
    # the gate and the dedup must both actually prune
    n_docs = con.execute("SELECT count(*) FROM documents").fetchone()[0]
    assert 0 < len(got) < n_docs


def test_strip_control_chars_oracle(ray_session):
    import duckdb
    import pandas as pd

    from pd3f_ray.pipelines.webcurate import (
        STRIP_CONTROL_SQL,
        strip_control_chars,
    )

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        "read_parquet('/root/testdata/sf0.001/documents.parquet')")
    got = strip_control_chars("/root/testdata/sf0.001").to_pandas()
    got = got[sorted(got.columns)].sort_values(
        list(sorted(got.columns))).reset_index(drop=True)
    want = con.execute(STRIP_CONTROL_SQL).df()
    want = want[sorted(want.columns)].sort_values(
        list(sorted(want.columns))).reset_index(drop=True)
    want = want.astype(got.dtypes.to_dict(), errors="ignore")
    pd.testing.assert_frame_equal(got, want)


def test_strip_control_chars_keeps_whitespace():
    from pd3f_ray.pipelines.webcurate import _CTRL_TABLE

    s = "a\tb\nc\rd\x00e\x07f\x1bg\x7fh"
    out = s.translate(_CTRL_TABLE)
    assert out == "a\tb\nc\rdefgh"

"""Training-data ops: DuckDB-oracle spot checks + quality checks for the
approximate (rows-only) paths. Full oracle sweep: scripts/check_oracle."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest
from conftest import force_exchange, lower_min_block
from hypothesis import example, given, settings
from hypothesis import strategies as st

SF = "/root/testdata/sf0.001"


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ("lineitem", "orders", "customer", "events", "documents",
              "embeddings", "nation", "supplier", "part", "region"):
        c.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{os.path.join(SF, t + '.parquet')}')"
        )
    return c


def _match(ray_ds, sql, con):
    got = _canon(ray_ds.to_pandas())
    want = _canon(con.execute(sql).df())
    want = want.astype(got.dtypes.to_dict(), errors="ignore")
    assert list(got.columns) == list(want.columns)
    pd.testing.assert_frame_equal(got, want)


def test_q1_pricing_oracle(ray_session, con):
    from pd3f_ray.pipelines.relational import Q1_SQL, q1_pricing

    _match(q1_pricing(SF), Q1_SQL, con)


def test_dedup_exact_oracle(ray_session, con):
    from pd3f_ray.pipelines.dedup import DEDUP_EXACT_SQL, dedup_exact

    _match(dedup_exact(SF), DEDUP_EXACT_SQL, con)


def test_token_stats_oracle(ray_session, con):
    from pd3f_ray.pipelines.textstats import TOKEN_STATS_SQL, token_stats

    _match(token_stats(SF), TOKEN_STATS_SQL, con)


def test_knn_bruteforce_oracle(ray_session, con):
    from pd3f_ray.pipelines.similarity import knn_bruteforce, knn_sql

    _match(knn_bruteforce(SF), knn_sql(), con)


def test_embdup_cosine_oracle(ray_session, con):
    from pd3f_ray.pipelines.dedup import EMBDUP_COSINE_SQL, embdup_cosine

    _match(embdup_cosine(SF), EMBDUP_COSINE_SQL, con)


def test_jaccard_pairs_oracle(ray_session, con):
    from pd3f_ray.pipelines.dedup import jaccard_pairs, jaccard_pairs_sql

    _match(jaccard_pairs(SF), jaccard_pairs_sql(), con)


def test_byteset_jaccard_matches_duckdb(con):
    """Pin my byte-set Jaccard to DuckDB's jaccard() on adversarial
    inputs: case, unicode multibyte, repeats, spaces."""
    from pd3f_ray.functions.textfns import byte_set_mask, popcount64

    # (DuckDB raises on empty strings — "argument too short" — so empty
    # inputs are out of the pinned domain)
    cases = [("ABC", "abc"), ("aab", "ab"), ("a b", "ab"), ("äx", "ax"),
             ("hello world", "world hello"), ("ß", "ss")]
    for a, b in cases:
        ma, mb = byte_set_mask(a), byte_set_mask(b)
        inter = int(popcount64(ma & mb).sum())
        union = int(popcount64(ma).sum() + popcount64(mb).sum()) - inter
        mine = inter / union if union else 0.0
        want = con.execute("select jaccard(?, ?)", [a, b]).fetchone()[0]
        assert mine == pytest.approx(want, abs=1e-12), (a, b)


def test_minhash_recall_vs_bruteforce(ray_session):
    """LSH candidates must find every true near-dup pair at the verify
    threshold (16 bands × 4 rows: detection prob at j=0.5 is ~0.67 per
    band → >0.9999 overall for j≥0.7; check recall ≥ 0.9 at j≥0.6)."""
    import pyarrow.parquet as pq

    from pd3f_ray.functions.textfns import word_shingles
    from pd3f_ray.pipelines.dedup import SHINGLE_K, minhash_pairs

    tbl = pq.read_table(os.path.join(SF, "documents.parquet"),
                        columns=["doc_id", "text"])
    ids = tbl.column("doc_id").to_pylist()
    texts = tbl.column("text").to_pylist()
    sh = {i: word_shingles(t, SHINGLE_K) for i, t in zip(ids, texts)}
    truth = set()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            a, b = sh[ids[i]], sh[ids[j]]
            u = len(a | b)
            if u and len(a & b) / u >= 0.6:
                truth.add((min(ids[i], ids[j]), max(ids[i], ids[j])))

    got = minhash_pairs(SF, threshold=0.6).to_pandas()
    found = set(zip(got["id_a"], got["id_b"]))
    if truth:
        recall = len(truth & found) / len(truth)
        assert recall >= 0.9, (recall, len(truth))
    # no false positives: every reported pair really clears the threshold
    for a, b in found:
        u = len(sh[a] | sh[b])
        assert u and len(sh[a] & sh[b]) / u >= 0.6


def test_knn_lsh_recall(ray_session):
    from pd3f_ray.pipelines.similarity import knn_bruteforce, knn_lsh

    exact = knn_bruteforce(SF).to_pandas()
    approx = knn_lsh(SF).to_pandas()
    e = set(zip(exact["query_id"], exact["neighbor_id"]))
    a = set(zip(approx["query_id"], approx["neighbor_id"]))
    recall = len(e & a) / len(e)
    # multi-probe over 8 planes on random vectors: modest recall is
    # expected; the point is the bucketing machinery, pinned here
    assert recall >= 0.2, recall


def test_simhash_deterministic_and_discriminative(ray_session):
    from pd3f_ray.pipelines.dedup import simhash_docs

    a = simhash_docs(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = simhash_docs(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    # different docs overwhelmingly get different fingerprints
    assert a["simhash"].nunique() > len(a) * 0.5


def test_lang_id_oracle(ray_session, con):
    from pd3f_ray.pipelines.textstats import LANG_ID_SQL, lang_id

    _match(lang_id(SF), LANG_ID_SQL, con)


def test_user_sessions_oracle(ray_session, con):
    from pd3f_ray.pipelines.windows import USER_SESSIONS_SQL, user_sessions

    _match(user_sessions(SF), USER_SESSIONS_SQL, con)


def test_user_sessions_empty_partition():
    """The session reducer on an empty events partition returns an empty
    table of its output schema (no Ray)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pd3f_ray.pipelines.windows import session_rows

    empty = pa.table({"event_id": pa.array([], pa.int64()),
                      "ts": pa.array([], pa.timestamp("us")),
                      "user_id": pa.array([], pa.int64()),
                      "value": pa.array([], pa.float64())})
    out = session_rows(empty)
    assert out.num_rows == 0
    assert out.schema == session_rows(pq.read_table(
        os.path.join(SF, "events.parquet"),
        columns=["event_id", "ts", "user_id", "value"])).schema


def test_purchase_attribution_oracle(ray_session, con):
    from pd3f_ray.pipelines.windows import (
        PURCHASE_ATTRIBUTION_SQL,
        purchase_attribution,
    )

    _match(purchase_attribution(SF), PURCHASE_ATTRIBUTION_SQL, con)


def test_nation_revenue_oracle(ray_session, con):
    from pd3f_ray.pipelines.joins import NATION_REVENUE_SQL, nation_revenue

    _match(nation_revenue(SF), NATION_REVENUE_SQL, con)


def test_supplier_join_oracle(ray_session, con):
    from pd3f_ray.pipelines.joins import SUPPLIER_PART_SQL, supplier_part_join

    _match(supplier_part_join(SF), SUPPLIER_PART_SQL, con)


def test_sample_docs_oracle(ray_session, con):
    from pd3f_ray.pipelines.textstats import SAMPLE_DOCS_SQL, sample_docs

    _match(sample_docs(SF), SAMPLE_DOCS_SQL, con)


def test_top_tokens_oracle(ray_session, con):
    from pd3f_ray.pipelines.textstats import top_tokens, top_tokens_sql

    _match(top_tokens(SF), top_tokens_sql(), con)


def test_knn_ivf_recall(ray_session):
    from pd3f_ray.pipelines.similarity import knn_bruteforce, knn_ivf

    exact = knn_bruteforce(SF).to_pandas()
    approx = knn_ivf(SF).to_pandas()
    e = set(zip(exact["query_id"], exact["neighbor_id"]))
    a = set(zip(approx["query_id"], approx["neighbor_id"]))
    recall = len(e & a) / len(e)
    # nprobe=4 of 16 clusters on near-uniform vectors: the probed
    # quarter of the space must contain well over its uniform share of
    # true neighbors (centroid locality), pinned here
    assert recall >= 0.3, recall
    # determinism
    b = knn_ivf(SF).to_pandas()
    assert a == set(zip(b["query_id"], b["neighbor_id"]))


def test_curate_docs_oracle(ray_session, con):
    from pd3f_ray.pipelines.curation import CURATE_DOCS_SQL, curate_docs

    got = curate_docs(SF).to_pandas()
    assert len(got) > 0
    _match(curate_docs(SF), CURATE_DOCS_SQL, con)


def test_event_value_quantiles_oracle(ray_session, con):
    from pd3f_ray.pipelines.relational import (
        EVENT_QUANTILES_SQL,
        event_value_quantiles,
    )

    _match(event_value_quantiles(SF), EVENT_QUANTILES_SQL, con)


def test_embdup_lsh_recall_and_exactness(ray_session, con):
    """The LSH-bucketed emb-dup scale path: every emitted pair must be a
    TRUE pair (in-bucket verification is exact cosine), and recall vs
    the all-pairs oracle must clear the analytic floor for the
    planes/tables configuration."""
    from pd3f_ray.pipelines.dedup import EMBDUP_COSINE_SQL, embdup_lsh

    got = embdup_lsh(SF).to_pandas()
    found = set(zip(got["id_a"], got["id_b"]))
    exact = con.execute(EMBDUP_COSINE_SQL).df()
    truth = set(zip(exact["id_a"], exact["id_b"]))
    assert found <= truth, found - truth          # zero false positives
    if truth:
        assert len(found & truth) / len(truth) >= 0.5, (len(found), len(truth))


def test_jaccard_band_edge_pairs(ray_session):
    """The banded shuffle must keep pairs whose lengths straddle a
    LENGTH_BAND_W boundary (ghost-row replication) and emit each pair
    exactly once."""
    import pyarrow as pa
    import ray.data as rd

    from pd3f_ray.pipelines import dedup
    from pd3f_ray.pipelines.dedup import LENGTH_BAND_W, jaccard_pairs

    w = LENGTH_BAND_W
    # two near-identical docs straddling a band edge: lengths w-1 and w
    base = "x" * (w - 2)
    rows = {
        "doc_id": [1, 2, 3, 4, 5, 6],
        "text": [base + "a", base + "ab",          # bands b-1 / b edge pair
                 "y" * (3 * w) + "q", "y" * (3 * w) + "qr",  # same-band pair
                 "z" * (5 * w), "unrelated words here"],
        "lang": ["en"] * 6,
        "n_chars": [w - 1, w, 3 * w + 1, 3 * w + 2, 5 * w, 20],
    }
    tmp = "/tmp/jaccard_band_edge"
    os.makedirs(tmp, exist_ok=True)
    pa_tbl = pa.table({k: pa.array(v) for k, v in rows.items()})
    import pyarrow.parquet as pq

    pq.write_table(pa_tbl, os.path.join(tmp, "documents.parquet"))
    got = jaccard_pairs(tmp, threshold=0.5).to_pandas()
    pairs = sorted(zip(got["id_a"], got["id_b"]))
    # each qualifying pair appears exactly once, including the edge pair
    assert pairs == [(1, 2), (3, 4)], pairs
    assert len(got) == len(got.drop_duplicates()), "duplicate pairs emitted"


def test_hash_join_salted_skew(ray_session, monkeypatch):
    """A deliberately skewed left side (one hot key with most rows)
    joined through hash_join must produce the exact inner-join result:
    the hot key's probe rows all land in one bucket's group."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from pd3f_ray.pipelines.joins import hash_join

    rng = np.random.RandomState(3)
    n = 20_000
    # 90% of rows share key 7 (hot), rest uniform over 100 keys
    keys = np.where(rng.rand(n) < 0.9, 7, rng.randint(0, 100, n)).astype(np.int64)
    left = pa.table({"k": keys, "v": np.arange(n, dtype=np.int64)})
    right = pa.table({"rk": np.arange(100, dtype=np.int64),
                      "name": [f"n{i}" for i in range(100)]})

    lds = rd.from_arrow(left).map_batches(lambda b: b, batch_size=1000,
                                          batch_format="pyarrow")
    rds = rd.from_arrow(right)
    lower_min_block(monkeypatch)  # P > 1: the exchange sorts
    out = hash_join(lds, rds, "k", "rk",
                    left_schema=left.schema).to_pandas()

    want = left.to_pandas().merge(right.to_pandas(), left_on="k",
                                  right_on="rk")
    got = out.sort_values(["k", "v"]).reset_index(drop=True)[want.columns.tolist()]
    want = want.sort_values(["k", "v"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)


def test_extract_roundtrip_byte_identical(ray_session, con):
    """The oracle-checked extraction invariant: documents wrapped in the
    identity-shape layout come back byte-identical (plus the renderer's
    paragraph terminator) through the real ExtractDocs actor pool."""
    from pd3f_ray.pipelines.extraction import (
        EXTRACT_ROUNDTRIP_SQL,
        extract_roundtrip,
    )

    _match(extract_roundtrip(SF), EXTRACT_ROUNDTRIP_SQL, con)


def test_pages_roundtrip_byte_identical(ray_session, con):
    """The page-table path's oracle invariant: two-page word-midpoint
    split, pushed through the REAL bucketed sort-shuffle + fused reduce
    (extract_pages_fused), comes back as part1\\n\\npart2\\n\\n — the
    shuffle's (url, page_idx) sort is load-bearing because page rows
    are emitted in reversed page order."""
    from pd3f_ray.pipelines.extraction import (
        PAGES_ROUNDTRIP_SQL,
        pages_roundtrip,
    )

    _match(pages_roundtrip(SF), PAGES_ROUNDTRIP_SQL, con)


def _executed_ops(summary) -> list:
    """Operator stats of an executed Dataset, upstream first."""
    ops = [op for p in summary.parents or [] for op in _executed_ops(p)]
    return ops + list(summary.operators_stats)


def _set_cpus(monkeypatch, cpus: int):
    """``cluster_cpus()`` reads ``cpus`` in the read and the exchange."""
    from pd3f_ray.core import cluster
    from pd3f_ray.stages import exchange

    monkeypatch.setattr(cluster, "cluster_cpus", lambda: cpus)
    monkeypatch.setattr(exchange, "cluster_cpus", lambda: cpus)


def _planned_partitions(out) -> int:
    """P of the ``bucket_exchange`` that made ``out``, read off the plan
    without running it: the sort's boundaries + 1, or 1 for the
    ``repartition(1)``."""
    from ray.data._internal.logical.operators.all_to_all_operator import (
        Repartition,
    )

    op = out._logical_plan.dag.input_dependencies[0]
    if isinstance(op, Repartition):
        return op._num_outputs
    return len(op._sort_key.boundaries) + 1


def _sized(nbytes):
    """A dataset read from a ``Datasource`` of no rows whose planned size
    is ``nbytes`` (None: no estimate)."""
    import ray.data as rd

    class Sized(rd.Datasource):
        def estimate_inmemory_data_size(self):
            return nbytes

        def get_read_tasks(self, parallelism):
            return []

    return rd.read_datasource(Sized())


@pytest.mark.parametrize("n_keys", [1, 7, 512])
def test_bucket_exchange_one_call_per_bucket(ray_session, monkeypatch,
                                             n_keys):
    """bucket_exchange's contract: rows tagged with the ``stable_bucket``
    of their key over P = ``input_partitions`` reach ``fn`` with every
    bucket, and so every key, in exactly one call, one key skewed far
    above the rest. The exchange makes exactly P partitions from 6 input
    blocks (a sampled sort would make one per input block): 1 for these
    few KB, and again with Ray's minimum block size lowered so that they
    are worth one partition per CPU and the exchange sorts."""
    import re
    import uuid

    import pyarrow as pa
    import ray.data as rd

    from pd3f_ray.stages.exchange import (
        bucket_exchange,
        input_partitions,
        stable_bucket,
    )

    rng = np.random.default_rng(n_keys)
    k = rng.integers(0, n_keys, 300)
    k = np.concatenate([np.full(400, n_keys // 2), k])  # spans blocks
    blocks = [pa.table({"key": pa.array(c, pa.int64()),
                        "v": pa.array(np.ones(len(c), np.int64))})
              for c in np.array_split(k, 6)]

    def fn(part: pa.Table) -> pa.Table:
        per = part.group_by(["key", "bucket"]).aggregate([("v", "sum")])
        return per.append_column(
            "call", pa.array([uuid.uuid4().hex] * per.num_rows))

    for lowered in (False, True):
        if lowered:
            lower_min_block(monkeypatch)
        src = rd.from_arrow(blocks)
        p = input_partitions(src)
        assert p == (4 if lowered else 1)  # 4 CPUs
        tagged = src.map_batches(
            lambda t: t.append_column("bucket", pa.array(
                stable_bucket(t.column("key"), p), pa.int32())),
            batch_format="pyarrow")
        ds = bucket_exchange(tagged, "bucket", fn).materialize()
        got = ds.to_pandas()
        want = pd.Series(k).value_counts()
        assert got["key"].is_unique  # no key split across two calls
        assert (got.groupby("bucket")["call"].nunique() == 1).all()
        assert dict(zip(got["key"], got["v_sum"])) == want.to_dict()
        assert got["bucket"].between(0, p - 1).all()
        assert got["call"].nunique() <= p
        exchange = [op for op in _executed_ops(ds._get_stats_summary())
                    if op.is_sub_operator]
        assert [op.operator_name for op in exchange] == (
            ["SortMap", "SortReduce"] if p > 1
            else ["RepartitionSplit", "RepartitionReduce"])
        produced = re.search(r"(\d+) blocks produced",
                             exchange[-1].block_execution_summary_str)
        assert int(produced.group(1)) == p


def test_input_partitions_follow_the_bytes(ray_session, monkeypatch):
    """``input_partitions`` is the read's task count (one per 1 MiB of
    planned bytes, at most one per CPU, at least 1) raised to one per
    128 MiB Ray block: it never falls as the bytes grow, whatever the
    CPU count, and a source with no size estimate keeps the CPU floor,
    alone or unioned with a sized one."""
    from pd3f_ray.core.cluster import min_block_partitions
    from pd3f_ray.stages.exchange import input_partitions

    mib = 1 << 20

    def ip(nbytes) -> int:
        return input_partitions(_sized(nbytes))

    for cpus in (1, 4, 64):
        _set_cpus(monkeypatch, cpus)
        sizes = [0, 1, mib - 1, mib, 2 * mib, 3 * mib + 5, cpus * mib,
                 128 * mib * cpus, 128 * mib * cpus + 1, 1 << 40]
        ps = [ip(n) for n in sorted(sizes)]
        assert ps == sorted(ps) and ps[0] == 1
        for n in sizes:
            want = max(1, min(cpus, n // mib), -(-n // (128 * mib)))
            assert ip(n) == want, (cpus, n)
            if n < 128 * mib * cpus:
                assert ip(n) == min_block_partitions(n)  # the read's k
        assert ip(None) == cpus
        assert input_partitions(_sized(0).union(_sized(None))) == cpus


@pytest.mark.parametrize("cpus", [1, 4, 64])
def test_exchange_partitions_match_the_cpu_floor_from_cpus_mib(
        ray_session, monkeypatch, cpus):
    """For a source of at least CPUs MiB, P is one partition per CPU,
    raised to one per 128 MiB Ray block: max(CPUs, ⌈bytes/128 MiB⌉). A
    source with no size estimate gives CPUs at any size."""
    from pd3f_ray.stages.exchange import bucket_exchange

    mib = 1 << 20
    _set_cpus(monkeypatch, cpus)
    for nbytes in (cpus * mib, cpus * mib + 1, 200 * mib, 40 << 30, None):
        p = _planned_partitions(bucket_exchange(_sized(nbytes), "k",
                                                lambda t: t))
        byte_floor = -(-(nbytes or 0) // (128 * mib))
        assert p == max(cpus, byte_floor), nbytes


def test_exchange_partitions_follow_the_input(ray_session, monkeypatch):
    """``group_map`` makes one partition per 1 MiB of its input's
    planned bytes, at most one per CPU, so six blocks of ~11 KB are one
    reduce task, as is a one-block table (Ray's sampled sort made one
    per block). With Ray's minimum block size lowered to 16 KB the same
    64 KB are 4 partitions. Every exchange makes at least one partition
    per Ray block (``target_max_block_size``) of its sources' estimated
    bytes, as Ray's sort made one per block."""
    import pyarrow as pa
    import ray.data as rd

    from pd3f_ray.stages import exchange

    _set_cpus(monkeypatch, 4)
    t = pa.table({"k": pa.array(np.arange(4000) % 7),
                  "v": pa.array(np.ones(4000, np.int64))})

    def per_key(g: pa.Table) -> pa.Table:
        return pa.table({"k": g.column("k").slice(0, 1),
                         "n": pa.array([g.num_rows], pa.int64())})

    def partitions(ds) -> int:
        out = exchange.group_map(ds, "k", per_key).materialize()
        got = out.to_pandas().sort_values("k")
        assert got["k"].tolist() == list(range(7))
        assert got["n"].tolist() == [572] * 3 + [571] * 4
        return out.num_blocks()

    one = rd.from_arrow([t])
    six = rd.from_arrow([t.slice(i * 700, 700) for i in range(6)])
    assert exchange.input_partitions(one) == 1
    assert partitions(one) == 1
    assert partitions(six) == 1
    lower_min_block(monkeypatch, 16 << 10)
    assert exchange.input_partitions(six) == 3
    assert partitions(six) == 3
    lower_min_block(monkeypatch, 1 << 20)
    ctx = rd.DataContext.get_current()
    monkeypatch.setattr(ctx, "target_max_block_size", -(-t.nbytes // 10))
    assert exchange.input_partitions(one) == 10
    assert partitions(one) == 10


def _exchanges(ds) -> list:
    """The executed all-to-all sub-operators of a materialized Dataset."""
    return [op.operator_name for op in _executed_ops(ds._get_stats_summary())
            if op.is_sub_operator]


PAIR = ["SortMap", "SortReduce"]  # an exchange of P > 1 partitions
ONE = ["RepartitionSplit", "RepartitionReduce"]  # P = 1, or a fold


def test_same_key_aggregates_fold_into_the_join_exchange(ray_session,
                                                         monkeypatch):
    """A plan that aggregates and joins on one key runs both in ONE
    ``cogroup`` exchange: click_purchase_matrix is one exchange with no
    Ray aggregate, customer_order_counts is that exchange plus its
    one-task finish on ``n_orders``, and q3_shipping_priority's orderkey
    totals ride its orderkey join (on both customer paths: the join,
    then the one-task ``top_k``; the exchange path adds its semi join).
    At ``SF`` every join exchange is one partition; with Ray's minimum
    block size lowered, every join exchange sorts."""
    from pd3f_ray.pipelines.joins import (
        click_purchase_matrix,
        q3_shipping_priority,
    )
    from pd3f_ray.pipelines.relational import customer_order_counts

    for join in (ONE, PAIR):
        if join == PAIR:
            lower_min_block(monkeypatch)
        assert _exchanges(click_purchase_matrix(SF).materialize()) == join
        assert _exchanges(customer_order_counts(SF).materialize()) == (
            join + ONE)
        # the customer side fits one block: broadcast
        ds = q3_shipping_priority(SF)
        assert _exchanges(ds.materialize()) == join + ONE
    force_exchange(monkeypatch)
    ds = q3_shipping_priority(SF)
    assert _exchanges(ds.materialize()) == PAIR * 2 + ONE


def test_small_final_aggregates_finish_in_one_task(ray_session, monkeypatch):
    """A plan that ends in an aggregate over a small key domain emits
    partials on that key from its last exchange's reducer (the next-key
    fold) and finishes them in ONE task behind ``repartition(1)``: no
    Ray sort aggregate follows the joins, whether the joins are one
    partition (``SF``) or sort (Ray's minimum block size lowered), and
    whether customer is broadcast or exchanged."""
    import re

    from pd3f_ray.pipelines.joins import nation_revenue, supplier_part_join
    from pd3f_ray.pipelines.relational import (
        customer_order_counts,
        segment_order_stats,
    )

    def check(ds, joins):
        ds = ds.materialize()
        assert _exchanges(ds) == joins + ONE
        last = _executed_ops(ds._get_stats_summary())[-1]
        assert last.operator_name == "MapBatches(finish)"
        tasks = re.search(r"(\d+) tasks executed",
                          last.block_execution_summary_str)
        assert int(tasks.group(1)) == 1

    for join in (ONE, PAIR):
        if join == PAIR:
            lower_min_block(monkeypatch)
        check(supplier_part_join(SF), join)
        check(customer_order_counts(SF), join)
        # customer fits one block: broadcast, no customer exchange
        check(segment_order_stats(SF), [])
        check(nation_revenue(SF), join)
    force_exchange(monkeypatch)
    check(segment_order_stats(SF), PAIR)
    check(nation_revenue(SF), PAIR * 2)


def test_join_side_behind_a_map_needs_a_declared_schema(ray_session):
    """A join side whose schema is unknown until it runs (here: behind a
    ``map_batches``) is refused at plan time, naming the argument that
    declares it, instead of being executed once to learn its schema."""
    import pyarrow as pa
    import ray.data as rd

    from pd3f_ray.pipelines.joins import hash_join

    left = rd.from_arrow(pa.table({"k": [1, 2], "v": [3, 4]})).map_batches(
        lambda b: b, batch_format="pyarrow")
    right = rd.from_arrow(pa.table({"rk": [1], "w": [5]}))
    with pytest.raises(TypeError, match="left_schema"):
        hash_join(left, right, "k", "rk")
    out = hash_join(left, right, "k", "rk",
                    left_schema=pa.schema([("k", pa.int64()),
                                           ("v", pa.int64())]))
    assert out.take_all() == [{"k": 1, "v": 3, "rk": 1, "w": 5}]


def test_relational_plans_build_without_executing(ray_session, monkeypatch):
    """Building a relational plan runs nothing: every join side's schema
    is a parquet read's own or declared, and the final aggregates need no
    schema probe. Any Dataset execution while the plans are built fails."""
    from ray.data._internal.plan import ExecutionPlan

    from pd3f_ray.pipelines.joins import (
        nation_revenue,
        nation_revenue_share,
        q4_order_priority,
        region_brand_revenue,
        supplier_part_join,
    )
    from pd3f_ray.pipelines.relational import (
        customer_order_counts,
        segment_order_stats,
    )

    def refuse(*args, **kwargs):
        raise AssertionError("a Dataset executed while its plan was built")

    monkeypatch.setattr(ExecutionPlan, "execute", refuse)
    monkeypatch.setattr(ExecutionPlan, "execute_to_iterator", refuse)
    supplier_part_join(SF)
    segment_order_stats(SF)
    nation_revenue(SF)
    with pytest.MonkeyPatch.context() as mp:
        force_exchange(mp)
        segment_order_stats(SF)
        nation_revenue(SF)
    nation_revenue_share(SF)
    region_brand_revenue(SF)
    q4_order_priority(SF)
    customer_order_counts(SF)


_FINAL_AGGS = {"s": ("v", "sum"), "c": ("v", "count"), "mn": ("v", "min"),
               "mx": ("v", "max"), "n": ([], "count_all")}


@settings(max_examples=12, deadline=None)
@given(st.lists(st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 4)),
                                   st.sampled_from("ab"),
                                   st.one_of(st.none(), st.integers(-50, 50))),
                         max_size=8),
                min_size=1, max_size=4))
@example([[]])  # empty input
@example([[(None, "a", 1), (2, "a", 3), (None, "b", -4), (2, "a", None)]])
def test_finish_agg_matches_ray_aggregate(ray_session, blocks):
    """Both finishes of the aggregate primitive (``finish_agg`` and
    ``hash_agg``) equal a plain-Python fold of the rows, and so does
    Ray's ``groupby().aggregate()`` on one-column keys, over raw
    multi-block rows: Sum, Count, Min and Max of a nullable column and a
    row count, so count and count_all finish as a sum of per-block
    partials. Int, string and two-column keys; null keys grouped as one
    key; an empty input gives no rows; one block. Ray's sort aggregate
    is no reference for the two-column key: it emits a group twice when
    the key's first column is null and the input has three blocks. The
    string key has no nulls: Ray's sort aggregate fails comparing a null
    with a string when it samples its boundaries."""
    import pyarrow as pa
    import ray.data as rd
    from ray.data.aggregate import Count, Max, Min, Sum

    from pd3f_ray.stages.exchange import finish_agg, hash_agg

    ds = rd.from_arrow([
        pa.table({"k": pa.array([k for k, _, _ in b], pa.int64()),
                  "g": pa.array([g for _, g, _ in b], pa.string()),
                  "v": pa.array([v for _, _, v in b], pa.int64())})
        for b in blocks])

    def rows(r, keys):
        return sorted(r, key=lambda x: [(x[k] is None, x[k] or 0)
                                        for k in keys])

    def fold(keys):
        groups = {}
        for r in (dict(zip("kgv", r)) for b in blocks for r in b):
            groups.setdefault(tuple(r[k] for k in keys), []).append(r["v"])
        out = []
        for key, vs in groups.items():
            nn = [v for v in vs if v is not None]
            out.append({**dict(zip(keys, key)), "s": sum(nn) if nn else None,
                        "c": len(nn), "mn": min(nn, default=None),
                        "mx": max(nn, default=None), "n": len(vs)})
        return rows(out, keys)

    for keys in (["k"], ["g"], ["k", "g"]):
        want = fold(keys)
        if len(keys) == 1:
            assert rows(ds.groupby(keys).aggregate(
                Sum("v", alias_name="s"),
                Count("v", ignore_nulls=True, alias_name="c"),
                Min("v", alias_name="mn"), Max("v", alias_name="mx"),
                Count(alias_name="n")).take_all(), keys) == want
        for got in (finish_agg(ds, keys, _FINAL_AGGS).take_all(),
                    hash_agg(ds, keys, _FINAL_AGGS).take_all()):
            assert rows(got, keys) == want


def test_aggregate_primitive_refuses_non_decomposable(ray_session):
    """A function with no per-block partial form raises at plan time."""
    import pyarrow as pa
    import ray.data as rd

    from pd3f_ray.stages.exchange import finish_agg, hash_agg

    ds = rd.from_arrow(pa.table({"k": [1], "v": [2]}))
    for finish in (finish_agg, hash_agg):
        with pytest.raises(ValueError, match="mean"):
            finish(ds, ["k"], {"m": ("v", "mean")})


@settings(max_examples=12, deadline=None)
@given(st.lists(st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 4)),
                                   st.one_of(st.none(), st.sampled_from("ab")),
                                   st.integers(-50, 50)),
                         max_size=8),
                min_size=1, max_size=4))
@example([[]])  # empty input
@example([[], [], [(None, "a", 1), (None, "a", 2), (None, "b", 3)]])
@example([[(1, "a", 1)], [(2, "b", 2), (1, "a", 3)], [(2, "b", 4)]])
def test_group_map_one_call_per_key(ray_session, blocks):
    """``group_map`` calls its reducer once per distinct key, with that
    key's rows and only them: a plain-Python grouping of the rows over
    several blocks (some empty), one-column and two-column keys, and
    string keys holding nulls, where a null key is one group. Ray's
    ``groupby().map_groups`` is the reference too where no key is null;
    its sort fails on a null string key, and it splits the two-column
    key ``(None, "a")`` over blocks ``[], [], [(None, "a"), (None, "a"),
    (None, "b")]`` into two groups."""
    import pyarrow as pa
    import ray.data as rd

    from pd3f_ray.stages.exchange import group_map

    ds = rd.from_arrow([
        pa.table({"k": pa.array([k for k, _, _ in b], pa.int64()),
                  "g": pa.array([g for _, g, _ in b], pa.string()),
                  "v": pa.array([v for _, _, v in b], pa.int64())})
        for b in blocks])

    def rows(r, keys):
        return sorted(r, key=lambda x: [(x[k] is None, x[k] or 0)
                                        for k in keys])

    for keys in (["g"], ["k", "g"]):
        groups = {}
        for r in (dict(zip("kgv", r)) for b in blocks for r in b):
            groups.setdefault(tuple(r[k] for k in keys), []).append(r["v"])
        want = rows([{**dict(zip(keys, key)), "n": len(vs),
                      "vs": ",".join(map(str, sorted(vs)))}
                     for key, vs in groups.items()], keys)

        def per_group(t, keys=keys):
            for k in keys:  # one key per call
                assert len(set(t.column(k).to_pylist())) == 1, t
            return pa.table({
                **{k: t.column(k).slice(0, 1) for k in keys},
                "n": pa.array([t.num_rows], pa.int64()),
                "vs": pa.array([",".join(map(str, sorted(
                    t.column("v").to_pylist())))], pa.string())})

        assert rows(group_map(ds, keys, per_group).take_all(), keys) == want
        if want and not any(None in key for key in groups):
            assert rows(ds.groupby(keys).map_groups(
                per_group, batch_format="pyarrow").take_all(), keys) == want


@settings(max_examples=12, deadline=None)
@given(st.lists(st.lists(st.tuples(st.integers(0, 3), st.one_of(
                             st.none(), st.sampled_from("abc"))),
                         max_size=8),
                min_size=1, max_size=4),
       st.integers(1, 12))
@example([[]], 3)  # empty input
@example([[], [(1, "b"), (1, "a"), (2, None)], []], 2)  # empty blocks
@example([[(3, "a")], [(3, "a"), (0, "c")]], 20)  # k ≥ rows
def test_top_k_is_sorted_prefix(ray_session, blocks, k):
    """``top_k`` over several blocks (some empty) gives exactly the
    first ``k`` rows of a Python ``sorted`` of all rows, in that order:
    a descending int key whose ties break on an ascending string key
    (nulls last), then on a unique row id; ``k`` may exceed the row
    count. The ``fold`` under it hands ``merge`` one partial per
    non-empty block."""
    import pyarrow as pa
    import ray.data as rd

    from pd3f_ray.stages.exchange import fold, top_k

    rows, tables = [], []
    for b in blocks:
        ids = range(len(rows), len(rows) + len(b))
        rows += [{"n": n, "s": s, "i": i} for (n, s), i in zip(b, ids)]
        tables.append(pa.table({"n": pa.array([n for n, _ in b], pa.int64()),
                                "s": pa.array([s for _, s in b], pa.string()),
                                "i": pa.array(ids, pa.int64())}))
    ds = rd.from_arrow(tables)
    want = sorted(rows, key=lambda r: (-r["n"], r["s"] is None, r["s"] or "",
                                       r["i"]))[:k]
    got = top_k(ds, [("n", "descending"), ("s", "ascending"),
                     ("i", "ascending")], k).take_all()
    assert got == want

    def count(t):
        return pa.table({"n": [t.num_rows]})

    def total(t):
        return pa.table({"n": [sum(t.column("n").to_pylist())],
                         "parts": [t.num_rows]})

    nonempty = sum(1 for b in blocks if b)
    assert fold(ds, count, total).take_all() == (
        [{"n": len(rows), "parts": nonempty}] if rows else [])


def test_null_event_type_is_one_group(ray_session, tmp_path):
    """Registry queries over an events table where a quarter of the
    ``event_type`` values are null complete, and the null type is one
    type. ``event_value_quantiles`` (``group_map``) and
    ``user_favorite_event`` (a null type ranks last in a tie, as DuckDB's
    ``ASC`` orders it) match their DuckDB oracles; both HLL queries give
    one null-type row each, with equal estimates. On Ray's sorted
    groupby, and on ``sorted()`` over ``Dataset.unique``, they raised
    ``TypeError`` comparing a null with a string."""
    import duckdb
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    import __ray_entry__

    events = pq.read_table(os.path.join(SF, "events.parquet"))
    null = pc.equal(pc.bit_wise_and(events.column("event_id"), 3), 0)
    et = pc.if_else(null, pa.scalar(None, pa.string()),
                    events.column("event_type"))
    events = events.set_column(events.schema.get_field_index("event_type"),
                               "event_type", et)
    pq.write_table(events, tmp_path / "events.parquet")
    con = duckdb.connect()
    con.execute("CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{tmp_path / 'events.parquet'}')")

    reg, sql = __ray_entry__.queries(), __ray_entry__.oracle_sql()
    got = reg["event_value_quantiles"](str(tmp_path))
    _match(got, sql["event_value_quantiles"], con)
    assert got.to_pandas()["event_type"].isna().sum() == 1
    got = reg["user_favorite_event"](str(tmp_path))
    _match(got, sql["user_favorite_event"], con)
    assert got.to_pandas()["favorite_event"].isna().any()

    hll = [reg[q](str(tmp_path)).to_pandas() for q in
           ("approx_distinct_users", "approx_distinct_users_agg")]
    for h in hll:
        assert h["event_type"].isna().sum() == 1
    assert (hll[0].fillna({"event_type": ""}).set_index("event_type")
            ["n_users_approx"].sort_index().equals(
                hll[1].fillna({"event_type": ""}).set_index("event_type")
                ["n_users_approx"].sort_index()))


def test_to_arrow_refs_only_on_computed_plans(ray_session, monkeypatch):
    """``Dataset.to_arrow_refs()`` on a plan with no computed output runs
    the plan twice in Ray 2.49 (it executes, then its schema lookup
    executes it again), so the library calls it on materialized
    datasets only. Every registry query of a module that calls it runs
    at ``SF`` with the call wrapped to refuse a plan that has not run,
    and each such module reaches the call at least once."""
    import collections
    import inspect
    import sys

    import ray.data as rd

    import __ray_entry__

    real = rd.Dataset.to_arrow_refs
    calls = collections.Counter()
    module = None

    def computed_only(self, *args, **kwargs):
        assert self._plan.has_computed_output(), module
        calls[module] += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(rd.Dataset, "to_arrow_refs", computed_only)
    modules = set()
    for name, fn in __ray_entry__.queries().items():
        module = fn.__module__
        if ".to_arrow_refs(" not in inspect.getsource(sys.modules[module]):
            continue
        modules.add(module)
        out = fn(SF)
        if isinstance(out, rd.Dataset):
            out.materialize()
    assert len(modules) >= 9 and set(calls) == modules, (modules, calls)


def test_supplier_part_join_fold_matches_join_then_aggregate(ray_session,
                                                             tmp_path):
    """The next-key fold (suppkey join and nationkey partials in one
    ``cogroup``, one-task finish) gives the rows of the plain plan: an
    inner ``hash_join`` of every lineitem onto its supplier, then Ray's
    ``groupby("s_nationkey")`` aggregate. Some lineitems have no
    supplier, one supplier has no lineitems, and quantities round half
    away from zero."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    from ray.data.aggregate import Count, Sum

    from pd3f_ray.core.cluster import read_table
    from pd3f_ray.pipelines.joins import hash_join, supplier_part_join

    rng = np.random.default_rng(5)
    pq.write_table(pa.table({
        "s_suppkey": pa.array(range(30), pa.int64()),
        "s_nationkey": pa.array(rng.integers(0, 5, 30), pa.int64())}),
        tmp_path / "supplier.parquet")
    pq.write_table(pa.table({
        "l_suppkey": pa.array(rng.integers(0, 29, 500) + (
            rng.random(500) < 0.05) * 40, pa.int64()),
        "l_quantity": pa.array(rng.integers(1, 100, 500) / 2, pa.float64())}),
        tmp_path / "lineitem.parquet")
    d = str(tmp_path)

    def qty(b: pa.Table) -> pa.Table:
        q = pc.round(b.column("l_quantity"),
                     round_mode="half_towards_infinity")
        return pa.table({"l_suppkey": b.column("l_suppkey"),
                         "qty": pc.cast(q, pa.int64())})

    plain = hash_join(
        read_table(d, "lineitem").map_batches(qty, batch_format="pyarrow"),
        read_table(d, "supplier"), "l_suppkey", "s_suppkey",
        left_schema=pa.schema([("l_suppkey", pa.int64()),
                               ("qty", pa.int64())]),
    ).groupby("s_nationkey").aggregate(Count(alias_name="n_lineitems"),
                                       Sum("qty", alias_name="sum_qty"))
    got = supplier_part_join(d).take_all()
    assert sorted(got, key=lambda r: r["s_nationkey"]) == sorted(
        plain.take_all(), key=lambda r: r["s_nationkey"])
    assert sum(r["n_lineitems"] for r in got) < 500  # unmatched rows dropped


def _write_files(table, d, n_files: int) -> str:
    """``table`` as a directory of ``n_files`` parquet files."""
    import pyarrow.parquet as pq

    d.mkdir()
    step = -(-table.num_rows // n_files)
    for i in range(n_files):
        pq.write_table(table.slice(i * step, step), d / f"part-{i}.parquet")
    return str(d)


def footer_read_tasks(path) -> int:
    """Read tasks of the footer rule: min(row groups, max(1, min(CPUs,
    footer bytes // Ray's ``target_min_block_size``)))."""
    import pyarrow.dataset as pads
    from ray.data import DataContext

    from pd3f_ray.core.cluster import cluster_cpus

    row_groups = [rg for f in pads.dataset(path, format="parquet")
                  .get_fragments() for rg in f.row_groups]
    nbytes = sum(rg.total_byte_size for rg in row_groups)
    floor = DataContext.get_current().target_min_block_size
    return min(len(row_groups), max(1, min(cluster_cpus(), nbytes // floor)))


def _assert_read_fused(ds, first_map: str, path):
    """The read of ``path`` ran the footer rule's task count, unsplit,
    fused with the first map (a split read runs as
    ``ReadParquet->SplitBlocks(k)`` and never fuses)."""
    import re

    ops = _executed_ops(ds._get_stats_summary())
    names = [op.operator_name for op in ops]
    assert names[0] == f"ReadParquet->MapBatches({first_map})", names
    assert not [n for n in names if "SplitBlocks" in n], names
    tasks = re.search(r"(\d+) tasks executed",
                      ops[0].block_execution_summary_str)
    assert int(tasks.group(1)) == footer_read_tasks(path)


def test_pages_exchange_has_no_sample_or_merge_stage(ray_session, tmp_path):
    """The page shuffle range-partitions on known bucket boundaries with
    the pull-based sort: no boundary-sampling pass, no push-based merge
    stage among the executed sub-operators. 60 documents are one
    partition (a ``repartition(1)``); with Ray's minimum block size
    lowered they are one per CPU, and the exchange sorts. A many-file
    table is read unsplit in the footer rule's task count, fused with
    the first map: the page table into the page shuffle, an events table
    into user_sessions' window exchange, and a document table into the
    extraction stage, which then is the whole plan."""
    import pyarrow.parquet as pq

    from pd3f_ray.pipelines.extraction import (
        extract_dataset,
        extract_from_pages_parquet,
        read_documents,
    )
    from pd3f_ray.pipelines.windows import user_sessions
    from pd3f_ray.sources.synth import generate_pages_exploded, write_corpus

    pages = _write_files(generate_pages_exploded(60, seed=3),
                         tmp_path / "pages.parquet", 8)
    for exchange in (ONE, PAIR):
        with pytest.MonkeyPatch.context() as mp:
            if exchange == PAIR:
                lower_min_block(mp)
            ds = extract_from_pages_parquet(pages).materialize()
            assert ds.count() == 60
            assert _exchanges(ds) == exchange
            _assert_read_fused(ds, "add_bucket_compress", pages)

    events = _write_files(pq.read_table(os.path.join(SF, "events.parquet")),
                          tmp_path / "events.parquet", 4)
    ds = user_sessions(str(tmp_path)).materialize()
    assert ds.count() > 0
    _assert_read_fused(ds, "add_bucket", events)

    write_corpus(str(tmp_path / "docs"), n_docs=80, seed=5, rows_per_file=10)
    ds = extract_dataset(read_documents(str(tmp_path / "docs"))).materialize()
    assert ds.count() == 80
    _assert_read_fused(ds, "ExtractDocs", str(tmp_path / "docs"))
    assert len(_executed_ops(ds._get_stats_summary())) == 1


def _int_table(path, n_rows: int, seed: int, row_group_size=None):
    """``n_rows`` of incompressible int64 pairs, 16 footer bytes a row."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(seed)
    pq.write_table(pa.table({"id": np.arange(n_rows, dtype=np.int64),
                             "v": rng.integers(0, 1 << 62, n_rows)}),
                   path, row_group_size=row_group_size, use_dictionary=False)


def _read_ops(path):
    """(operator names, tasks of the first operator) of the read of
    ``path`` followed by one map."""
    import re

    from pd3f_ray.core.cluster import read_parquet

    ds = read_parquet(str(path)).map_batches(
        lambda t: t, batch_format="pyarrow").materialize()
    ops = _executed_ops(ds._get_stats_summary())
    tasks = re.search(r"(\d+) tasks executed",
                      ops[0].block_execution_summary_str)
    return [op.operator_name for op in ops], int(tasks.group(1))


def test_read_tasks_follow_the_footer_rule(ray_session, tmp_path):
    """k = max(1, min(CPUs, footer bytes // 1 MiB)) blocks, from
    min(k, row groups) read tasks over contiguous row-group slices: a
    small table is one task, a table of at least CPUs MiB over at least
    CPUs row groups is one task per CPU (one file or many), and only a
    table with fewer row groups than k is split, by Ray, as before."""
    import pyarrow.parquet as pq

    from pd3f_ray.core.cluster import cluster_cpus
    from pd3f_ray.core.parquet import FooterParquet

    cpus = cluster_cpus()
    fused = "ReadParquet->MapBatches(<lambda>)"
    rows = (6 << 20) // 160  # 0.6 MiB per row group

    small = tmp_path / "small"
    small.mkdir()
    for i in range(4):
        _int_table(small / f"part-{i}.parquet", 1000, i)
    assert _read_ops(small) == ([fused], 1)

    many = tmp_path / "many"
    many.mkdir()
    for i in range(2 * cpus):
        _int_table(many / f"part-{i:02d}.parquet", rows, i)
    assert _read_ops(many) == ([fused], cpus)

    one = tmp_path / "one.parquet"
    _int_table(one, 2 * cpus * rows, 7, row_group_size=rows)
    assert pq.ParquetFile(one).metadata.num_row_groups == 2 * cpus
    assert _read_ops(one) == ([fused], cpus)
    tasks = FooterParquet(str(one)).get_read_tasks(cpus)
    assert [t.metadata.num_rows for t in tasks] == [2 * rows] * cpus
    assert all(t.metadata.input_files == [str(one)] for t in tasks)

    big = tmp_path / "big.parquet"
    _int_table(big, (5 << 20) // 32, 8)  # one 2.5 MiB row group
    assert _read_ops(big) == ([f"ReadParquet->SplitBlocks({min(cpus, 2)})",
                               "MapBatches(<lambda>)"], 1)


def test_dedup_clusters_oracle(ray_session, con):
    """Connected-component labels over the exact near-dup pair set must
    match the recursive-SQL reachability oracle (min reachable doc_id
    per node)."""
    from pd3f_ray.pipelines.dedup import dedup_clusters, dedup_clusters_sql

    _match(dedup_clusters(SF), dedup_clusters_sql(), con)


def test_dedup_clusters_distributed_path_oracle(ray_session, con,
                                                monkeypatch):
    """The distributed doubling loop (the plan for an edge table that
    does not fit one block) must match the same reachability oracle."""
    from pd3f_ray.pipelines.dedup import dedup_clusters, dedup_clusters_sql

    force_exchange(monkeypatch)
    _match(dedup_clusters(SF), dedup_clusters_sql(), con)


def test_label_fingerprint_ignores_the_block_split(ray_session):
    """dedup's convergence fingerprint folds each string label's own
    hash, so the same labels give the same fingerprint however they are
    split into blocks, labels that differ after a NUL included."""
    import pyarrow as pa
    import ray.data as rd

    from pd3f_ray.pipelines.dedup import _mat_label_sum

    def fingerprint(*blocks):
        return _mat_label_sum(rd.from_arrow(
            [pa.table({"label": b}) for b in blocks]).materialize())

    assert fingerprint(["\x00total", "\x00total x", "y z"]) == fingerprint(
        ["\x00total x", "\x00total"], ["y z"])


def test_dedup_clusters_chain_convergence(ray_session, tmp_path):
    """A chain cluster a-b-c-d-e (only adjacent pairs similar) needs
    diameter-many propagation rounds — every node must still collapse
    to the chain minimum."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pd3f_ray.pipelines.dedup import dedup_clusters

    # adjacent docs differ by one appended char => byte-set jaccard high
    # only for neighbors; n_chars ascending keeps the +/-2 window tight
    base = "abcdefghijklmnopqrstuvwxyz" * 4
    texts, chars = [], []
    for i in range(5):
        texts.append(base + "z" * i)
        chars.append(len(base) + i)
    tbl = pa.table({
        "doc_id": pa.array([10, 20, 30, 40, 50], pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * 5, pa.string()),
        "n_chars": pa.array(chars, pa.int64()),
    })
    d = str(tmp_path / "chain")
    os.makedirs(d, exist_ok=True)
    pq.write_table(tbl, os.path.join(d, "documents.parquet"))
    for local in (True, False):  # both plans
        with pytest.MonkeyPatch.context() as mp:
            if not local:
                force_exchange(mp)
            got = dedup_clusters(d, threshold=0.9).to_pandas()
        assert set(got["cluster_id"]) == {10}, (local, got)
        assert sorted(got["doc_id"]) == [10, 20, 30, 40, 50]


def test_distinct_users_oracle(ray_session, con):
    from pd3f_ray.pipelines.sketches import DISTINCT_USERS_SQL, distinct_users

    _match(distinct_users(SF), DISTINCT_USERS_SQL, con)


def test_approx_distinct_users_error_bound(ray_session, con):
    """HLL estimate (p=12, ~1.6% standard error) must land within 5% of
    the exact distinct count for every event_type."""
    from pd3f_ray.pipelines.sketches import approx_distinct_users

    got = approx_distinct_users(SF).to_pandas().set_index("event_type")
    want = con.execute(
        "SELECT event_type, count(DISTINCT user_id) AS n FROM events "
        "GROUP BY event_type").df().set_index("event_type")
    assert set(got.index) == set(want.index)
    for t in want.index:
        exact = int(want.loc[t, "n"])
        approx = int(got.loc[t, "n_users_approx"])
        assert abs(approx - exact) <= max(2, 0.05 * exact), (t, approx, exact)


def test_embed_docs_deterministic_unit_norm(ray_session):
    """Embedding stage: unit-norm float32 vectors, identical across two
    runs (and across block boundaries), near-dup documents land close in
    cosine space."""
    import numpy as np

    from pd3f_ray.core.cluster import read_table
    from pd3f_ray.pipelines.embed import DocEmbedder, embed_docs

    a = embed_docs(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    # the same stage over ~37-document blocks
    b = (read_table(SF, "documents", columns=["doc_id", "text"])
         .repartition(14)
         .map_batches(DocEmbedder(), batch_format="pyarrow", batch_size=None)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert len(a) == 500
    va = np.array(a["embedding"].tolist(), dtype=np.float32)
    vb = np.array(b["embedding"].tolist(), dtype=np.float32)
    assert np.array_equal(va, vb)  # deterministic, batch-size invariant
    norms = np.linalg.norm(va, axis=1)
    assert np.allclose(norms[norms > 0], 1.0, atol=1e-5)

    # exact duplicate texts must embed identically (cosine == 1)
    import duckdb

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{os.path.join(SF, 'documents.parquet')}')")
    dup = con.execute(
        "SELECT min(doc_id) a, max(doc_id) b FROM documents "
        "GROUP BY md5(text) HAVING count(*) > 1 LIMIT 1").df()
    if len(dup):
        ids = a.set_index("doc_id")
        x = np.array(ids.loc[int(dup.a[0]), "embedding"], dtype=np.float32)
        y = np.array(ids.loc[int(dup.b[0]), "embedding"], dtype=np.float32)
        assert float(x @ y) > 0.999999


def test_events_sliding_oracle(ray_session, con):
    """Sliding 1h/15min windows: map-side explode×4 + in-batch partial
    agg must match the generate_series-unnest oracle exactly."""
    from pd3f_ray.pipelines.windows import EVENTS_SLIDING_SQL, events_sliding

    _match(events_sliding(SF), EVENTS_SLIDING_SQL, con)


def test_ngram_jaccard_pairs_oracle(ray_session, con):
    from pd3f_ray.pipelines.dedup import ngram_jaccard_pairs, ngram_jaccard_sql

    _match(ngram_jaccard_pairs(SF), ngram_jaccard_sql(), con)


def test_token_count_regex_oracle(ray_session, con):
    """BPE-pre-tokenizer regex counts must match DuckDB's RE2 engine
    match-for-match (ASCII-restricted pattern keeps engines agreeing)."""
    from pd3f_ray.pipelines.textstats import (
        TOKEN_COUNT_REGEX_SQL,
        token_count_regex,
    )

    _match(token_count_regex(SF), TOKEN_COUNT_REGEX_SQL, con)


def test_anti_join_basic(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from pd3f_ray.pipelines.joins import anti_join

    left = rd.from_arrow(pa.table({"k": [1, 2, 3, 4], "v": ["a", "b", "c", "d"]}))
    right = rd.from_arrow(pa.table({"rk": [2, 4, 9]}))
    out = anti_join(left, right, "k", "rk").to_pandas().sort_values("k")
    assert out["k"].tolist() == [1, 3]
    assert out["v"].tolist() == ["a", "c"]


def test_join_side_without_arrow_schema_raises(ray_session):
    # a pandas-block side has no pyarrow schema to sample: the join
    # refuses at plan time and names the argument that fixes it
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from pd3f_ray.pipelines.joins import hash_join

    left = rd.from_pandas(pd.DataFrame({"k": [1, 2], "v": [3, 4]}))
    right = rd.from_arrow(pa.table({"rk": [1], "w": [5]}))
    with pytest.raises(TypeError, match="left_schema"):
        hash_join(left, right, "k", "rk")


def test_join_null_key_keeps_other_int_keys_exact(ray_session, monkeypatch):
    # a null in an int64 key column must not send the batch's other keys
    # through float64: 2**60 + 1 would round to 2**60, land in another
    # bucket than its right-side partner, and silently lose the match
    import pyarrow as pa
    import ray.data as rd

    from pd3f_ray.pipelines.joins import hash_join

    big = 2**60 + 1
    left = rd.from_arrow(pa.table({"k": pa.array([big, None], pa.int64()),
                                   "v": ["a", "b"]}))
    right = rd.from_arrow(pa.table({"rk": pa.array([big], pa.int64())}))
    lower_min_block(monkeypatch)  # P > 1: the exchange sorts
    out = hash_join(left, right, "k", "rk").to_pandas()
    assert out["v"].tolist() == ["a"]
    assert out["rk"].tolist() == [big]


def test_hash_join_keeps_both_key_columns(ray_session):
    # pandas-merge parity of the Acero reducer: distinct key names keep
    # BOTH key columns in the output, value-equal on every row
    import pyarrow as pa
    import ray.data as rd

    from pd3f_ray.pipelines.joins import hash_join

    left = rd.from_arrow(pa.table(
        {"k": pa.array([1, 2, 2, 5], pa.int64()),
         "v": ["a", "b", "c", "d"]}))
    right = rd.from_arrow(pa.table(
        {"rk": pa.array([2, 5, 9], pa.int64()),
         "w": pa.array([20, 50, 90], pa.int64())}))
    out = hash_join(left, right, "k", "rk").to_pandas().sort_values(
        ["k", "v"]).reset_index(drop=True)
    assert list(out.columns) == ["k", "v", "rk", "w"]
    assert out["k"].tolist() == [2, 2, 5]
    assert out["rk"].tolist() == [2, 2, 5]
    assert out["w"].tolist() == [20, 20, 50]


def test_agg_names_outputs_by_pyarrow_name():
    """``arrowkit.agg`` puts the keys first and each output under its own
    name, read from pyarrow's ``<column>_<function>``, never by position."""
    import pyarrow as pa

    from pd3f_ray.core.arrowkit import agg

    t = pa.table({"k": ["a", "b", "a"], "v": pa.array([1, 2, 3], pa.int64())})
    out = agg(t, ["k"], {"total": ("v", "sum"), "n": ([], "count_all"),
                         "n_k": ("k", "count")})
    assert out.column_names == ["k", "total", "n", "n_k"]
    assert sorted(out.to_pylist(), key=lambda r: r["k"]) == [
        {"k": "a", "total": 4, "n": 2, "n_k": 2},
        {"k": "b", "total": 2, "n": 1, "n_k": 1}]


def test_hash_join_union_has_one_schema(ray_session, monkeypatch):
    """``cogroup`` tags both sides onto one schema, so the union's blocks
    agree: joining two differently shaped sides logs no Ray "different
    schema" warning, and the join is still right. Every bucket has rows
    (an empty partition's block has an empty schema, which Ray also
    reports)."""
    import logging

    import pyarrow as pa
    import ray.data as rd

    from pd3f_ray.pipelines.joins import hash_join

    messages = []

    class Grab(logging.Handler):
        def emit(self, record):
            messages.append(record.getMessage())

    log = logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state")
    grab, level = Grab(logging.WARNING), log.level
    log.addHandler(grab)
    log.setLevel(logging.WARNING)
    try:
        left = rd.from_arrow(pa.table(
            {"k": pa.array(range(200), pa.int64()),
             "v": [str(i) for i in range(200)]}))
        right = rd.from_arrow(pa.table(
            {"rk": pa.array(range(0, 200, 2), pa.int64()),
             "w": pa.array([i / 2 for i in range(0, 200, 2)], pa.float64())}))
        lower_min_block(monkeypatch)  # P > 1: the exchange sorts
        rows = hash_join(left, right, "k", "rk").take_all()
    finally:
        log.removeHandler(grab)
        log.setLevel(level)
    assert sorted((r["k"], r["v"], r["w"]) for r in rows) == [
        (i, str(i), i / 2) for i in range(0, 200, 2)]
    assert not [m for m in messages if "different schema" in m]


def test_left_join_right_key_null_on_unmatched(ray_session):
    # the __rk carry: Acero coalesces the key pair, but pandas-merge
    # semantics keep the right key as a REAL column — null exactly on
    # the unmatched left rows, and right ints stay integral (nullable),
    # never float-promoted
    import pyarrow as pa
    import ray.data as rd

    from pd3f_ray.pipelines.joins import left_join

    left = rd.from_arrow(pa.table(
        {"k": pa.array([1, 2, 3], pa.int64())}))
    right = rd.from_arrow(pa.table(
        {"rk": pa.array([2], pa.int64()), "w": pa.array([20], pa.int64())}))
    ds = left_join(left, right, "k", "rk")
    tbl = pa.concat_tables(
        [b for b in ds.iter_batches(batch_format="pyarrow")])
    assert tbl.column("rk").type == pa.int64()
    assert tbl.column("w").type == pa.int64()
    out = tbl.to_pandas().sort_values("k").reset_index(drop=True)
    assert out["k"].tolist() == [1, 2, 3]
    assert out["rk"].isna().tolist() == [True, False, True]
    assert out["w"].isna().tolist() == [True, False, True]
    assert out.loc[1, "rk"] == 2 and out.loc[1, "w"] == 20


def test_curate_neardup_oracle(ray_session, con):
    from pd3f_ray.pipelines.curation import CURATE_NEARDUP_SQL, curate_neardup

    _match(curate_neardup(SF), CURATE_NEARDUP_SQL, con)


def test_customer_order_counts_oracle(ray_session, con, tmp_path):
    """TPC-H Q13 shape: the LEFT OUTER join must keep zero-order
    customers (an n_orders = 0 row). Neither testdata scale has one, so
    a small pair of tables adds five customers without orders and an
    order without a customer."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pd3f_ray.pipelines.relational import (
        CUSTOMER_ORDER_COUNTS_SQL,
        customer_order_counts,
    )

    _match(customer_order_counts(SF), CUSTOMER_ORDER_COUNTS_SQL, con)

    pq.write_table(pa.table({"c_custkey": pa.array(range(1, 9), pa.int64())}),
                   tmp_path / "customer.parquet")
    pq.write_table(pa.table({
        "o_orderkey": pa.array(range(7), pa.int64()),
        "o_custkey": pa.array([1, 1, 1, 2, 2, 5, None], pa.int64())}),
        tmp_path / "orders.parquet")
    small = duckdb.connect()
    for t in ("customer", "orders"):
        small.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                      f"read_parquet('{tmp_path / (t + '.parquet')}')")
    ds = customer_order_counts(str(tmp_path))
    got = ds.to_pandas()
    assert dict(zip(got["n_orders"], got["n_customers"])) == {
        0: 5, 1: 1, 2: 1, 3: 1}
    _match(ds, CUSTOMER_ORDER_COUNTS_SQL, small)


def test_stratified_sample_oracle(ray_session, con):
    from pd3f_ray.pipelines.textstats import (
        stratified_sample,
        stratified_sample_sql,
    )

    _match(stratified_sample(SF), stratified_sample_sql(), con)


def test_simhash_pairs_exact_vs_bruteforce(ray_session):
    """Hamming-band bucketing is pigeonhole-EXACT for distance <= 3:
    the pair set must equal the all-pairs brute force, with matching
    distances."""
    import numpy as np

    from pd3f_ray.pipelines.dedup import simhash_docs, simhash_pairs

    fps = simhash_docs(SF).to_pandas()
    ids = fps["doc_id"].to_numpy()
    fp = fps["simhash"].to_numpy().astype(np.uint64)
    x = fp[:, None] ^ fp[None, :]
    ham = np.zeros_like(x, dtype=np.int64)
    for s in range(64):
        ham += ((x >> np.uint64(s)) & np.uint64(1)).astype(np.int64)
    ii, jj = np.nonzero(np.triu(ham <= 3, k=1))
    truth = {(int(min(ids[i], ids[j])), int(max(ids[i], ids[j]))):
             int(ham[i, j]) for i, j in zip(ii, jj)}

    got = simhash_pairs(SF).to_pandas()
    found = {(int(a), int(b)): int(h)
             for a, b, h in zip(got["id_a"], got["id_b"], got["hamming"])}
    assert found == truth
    assert len(truth) > 0  # the corpus must actually exercise it


def test_decontaminate_docs_oracle(ray_session, con):
    from pd3f_ray.pipelines.curation import (
        DECONTAMINATE_SQL,
        decontaminate_docs,
    )

    got = decontaminate_docs(SF).to_pandas()
    _match(decontaminate_docs(SF), DECONTAMINATE_SQL, con)
    # benchmark docs remove themselves
    assert not set(range(5)) & set(got["doc_id"])


def test_top_tokens_per_lang_oracle(ray_session, con):
    from pd3f_ray.pipelines.textstats import (
        top_tokens_per_lang,
        top_tokens_per_lang_sql,
    )

    _match(top_tokens_per_lang(SF), top_tokens_per_lang_sql(), con)


def test_adaptive_join_paths_oracle(ray_session, con, monkeypatch):
    """Both the broadcast fast path and the co-partitioned shuffle path
    of the customer joins must be oracle-exact (``fits_broadcast`` picks
    between them by the customer read's planned bytes)."""
    from pd3f_ray.pipelines.joins import NATION_REVENUE_SQL, nation_revenue
    from pd3f_ray.pipelines.relational import (
        SEGMENT_ORDER_SQL,
        segment_order_stats,
    )

    for exchanged in (False, True):
        if exchanged:
            force_exchange(monkeypatch)
        _match(nation_revenue(SF), NATION_REVENUE_SQL, con)
        _match(segment_order_stats(SF), SEGMENT_ORDER_SQL, con)


def test_broadcast_planner_is_byte_based(ray_session, tmp_path, monkeypatch):
    """VERDICT r2: the broadcast rule must consider byte size, not row
    count — a few wide rows can blow a worker's heap. ``fits_broadcast``
    holds a side to one Ray block (``target_max_block_size``): the
    footers' planned bytes for a read that has not run, the blocks' own
    bytes for a materialized dataset, each tried on both sides of one
    block."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from pd3f_ray.core.cluster import read_parquet
    from pd3f_ray.core.parquet import FooterParquet
    from pd3f_ray.stages.exchange import fits_broadcast

    wide = pa.table({
        "k": pa.array(range(200), pa.int64()),
        # distinct blobs — a repeated constant dictionary-encodes to KBs
        # and total_byte_size (uncompressed-encoded) would stay tiny
        "blob": pa.array([("%05d" % i) * 2000 for i in range(200)],
                         pa.string()),
    })
    path = str(tmp_path / "wide.parquet")
    pq.write_table(wide, path)
    planned = FooterParquet(path).estimate_inmemory_data_size()
    assert planned > 1 << 20  # 200 rows, 2 MB

    ctx = rd.DataContext.get_current()
    for ds, nbytes in ((read_parquet(path), planned),
                       (rd.from_arrow(wide).materialize(), wide.nbytes)):
        monkeypatch.setattr(ctx, "target_max_block_size", nbytes)
        assert fits_broadcast(ds) is True
        monkeypatch.setattr(ctx, "target_max_block_size", nbytes - 1)
        assert fits_broadcast(ds) is False
    # with the default block the fixture's customer side fits
    monkeypatch.undo()
    assert fits_broadcast(read_parquet(os.path.join(SF, "customer.parquet")))


def test_dedup_clusters_warns_on_iter_exhaustion(ray_session, monkeypatch):
    """ADVICE r2: exhausting max_iters without the label-sum fixpoint
    must not exit silently."""
    from pd3f_ray.pipelines.dedup import dedup_clusters

    force_exchange(monkeypatch)
    with pytest.warns(RuntimeWarning, match="fixpoint"):
        dedup_clusters(SF, max_iters=0)


def test_hll_agg_matches_map_groups_form(ray_session):
    """``approx_distinct_users_agg`` reproduces ``approx_distinct_users``
    EXACTLY (same registers -> same estimate), with each type's event
    count from the same one-task merge."""
    from pd3f_ray.pipelines.sketches import (
        approx_distinct_users,
        approx_distinct_users_agg,
    )

    a = approx_distinct_users(SF).to_pandas().set_index("event_type")
    b = approx_distinct_users_agg(SF).to_pandas().set_index("event_type")
    assert set(a.index) == set(b.index)
    for et in a.index:
        assert a.loc[et, "n_users_approx"] == b.loc[et, "n_users_approx"], et
    import pyarrow.parquet as pq

    counts = pq.read_table(os.path.join(SF, "events.parquet"),
                           columns=["event_type"]).to_pandas()["event_type"]
    assert b["n_events"].to_dict() == counts.value_counts().to_dict()


def test_jsonl_roundtrip_oracle(ray_session, con):
    """JSONL sink+source interop: documents -> write_json shards ->
    read_json + post-parse pruning must be lossless for int64 + UTF-8
    string columns (oracle = the parquet table itself)."""
    from pd3f_ray.sources.jsonl import JSONL_ROUNDTRIP_SQL, jsonl_roundtrip

    _match(jsonl_roundtrip(SF), JSONL_ROUNDTRIP_SQL, con)


def test_latest_event_per_user_oracle(ray_session, con):
    from pd3f_ray.pipelines.windows import (
        LATEST_EVENT_SQL,
        latest_event_per_user,
    )

    _match(latest_event_per_user(SF), LATEST_EVENT_SQL, con)


def test_user_running_total_oracle(ray_session, con):
    from pd3f_ray.pipelines.windows import (
        RUNNING_TOTAL_SQL,
        user_running_total,
    )

    _match(user_running_total(SF), RUNNING_TOTAL_SQL, con)


def test_token_postings_oracle(ray_session, con):
    from pd3f_ray.pipelines.indexing import TOKEN_POSTINGS_SQL, token_postings

    _match(token_postings(SF), TOKEN_POSTINGS_SQL, con)


def test_token_postings_head_exact_across_block_sizes(ray_session, monkeypatch):
    """min-k distributivity: the posting head must be independent of
    how documents are batched into blocks (k smaller than any block's
    contribution forces real cross-block merging)."""
    from pd3f_ray.pipelines.indexing import token_postings

    a = token_postings(SF, k=3).to_pandas().set_index("token")
    lower_min_block(monkeypatch)  # P > 1: other blocks, other partitions
    b = token_postings(SF, k=3).to_pandas().set_index("token")
    assert set(a.index) == set(b.index)
    for t in a.index:
        assert a.loc[t, "postings"] == b.loc[t, "postings"], t
        assert a.loc[t, "df"] == b.loc[t, "df"], t


def test_tfidf_terms_oracle_both_paths(ray_session, con, monkeypatch):
    from pd3f_ray.pipelines.indexing import TFIDF_TERMS_SQL, tfidf_terms

    # broadcast path: the df table fits one block
    _match(tfidf_terms(SF), TFIDF_TERMS_SQL, con)
    # the hash-join scale path must produce the identical result
    force_exchange(monkeypatch)
    _match(tfidf_terms(SF), TFIDF_TERMS_SQL, con)


def test_balanced_mixture_oracle_and_rebalance(ray_session, con):
    from pd3f_ray.pipelines.webcurate import (
        BALANCED_MIXTURE_SQL,
        balanced_mixture,
    )

    ds = balanced_mixture(SF)
    _match(ds, BALANCED_MIXTURE_SQL, con)
    # the derived rates must actually rebalance: no language may keep
    # more than ~2x the uniform per-language budget
    kept = balanced_mixture(SF).to_pandas()["lang"].value_counts()
    total = con.execute("SELECT count(*) FROM documents").fetchone()[0]
    n_langs = con.execute(
        "SELECT count(DISTINCT lang) FROM documents").fetchone()[0]
    budget = total * 0.25 / n_langs
    assert (kept <= 2 * budget).all()


def test_dup_span_stats_oracle_both_paths(ray_session, con, monkeypatch):
    from pd3f_ray.pipelines.spandedup import (
        DUP_SPAN_STATS_SQL,
        dup_span_stats,
    )

    _match(dup_span_stats(SF), DUP_SPAN_STATS_SQL, con)
    force_exchange(monkeypatch)
    _match(dup_span_stats(SF), DUP_SPAN_STATS_SQL, con)


def test_strip_dup_spans_oracle_both_paths(ray_session, con, monkeypatch):
    from pd3f_ray.pipelines.spandedup import (
        STRIP_DUP_SPANS_SQL,
        strip_dup_spans,
    )

    _match(strip_dup_spans(SF), STRIP_DUP_SPANS_SQL, con)
    force_exchange(monkeypatch)
    _match(strip_dup_spans(SF), STRIP_DUP_SPANS_SQL, con)


def test_strip_dup_spans_removes_injected_duplicate(ray_session, tmp_path):
    """A span planted verbatim in two documents must vanish from both,
    while each document's unique remainder survives untouched."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    span = " ".join(f"dupword{i}" for i in range(8))
    uniq_a = " ".join(f"alpha{i}" for i in range(10))
    uniq_b = " ".join(f"beta{i}" for i in range(10))
    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([f"{uniq_a} {span}", f"{span} {uniq_b}",
                          "solo doc with no duplicated content at all"]),
    })
    d = tmp_path / "corpus"
    d.mkdir()
    pq.write_table(tbl, d / "documents.parquet")

    from pd3f_ray.pipelines.spandedup import strip_dup_spans

    out = {r["doc_id"]: r["text"]
           for r in strip_dup_spans(str(d)).to_pandas().to_dict("records")}
    assert "dupword0" not in out[1] and "dupword0" not in out[2]
    assert out[1] == uniq_a
    assert out[2] == uniq_b
    assert out[3] == "solo doc with no duplicated content at all"


def test_pagerank_oracle_both_paths(ray_session, con, monkeypatch):
    from pd3f_ray.pipelines.graph import PAGERANK_SQL, pagerank

    # broadcast rank routing: the rank table fits one block
    _match(pagerank(SF), PAGERANK_SQL, con)
    # the per-iteration hash_join scale path
    force_exchange(monkeypatch)
    _match(pagerank(SF), PAGERANK_SQL, con)


def test_pagerank_mass_and_kinds(ray_session, con):
    """Sanity: both partitions present; the damped update keeps every
    rank above the base floor; hub suppliers outrank leaf customers."""
    from pd3f_ray.pipelines.graph import PR_BASE, pagerank

    df = pagerank(SF).to_pandas()
    assert set(df["kind"]) == {"customer", "supplier"}
    assert (df["rank_micros"] >= PR_BASE).all()
    assert (df[df["kind"] == "supplier"]["rank_micros"].mean()
            > df[df["kind"] == "customer"]["rank_micros"].mean())


def test_event_value_histogram_oracle(ray_session, con):
    from pd3f_ray.pipelines.relational import (
        EVENT_VALUE_HISTOGRAM_SQL,
        event_value_histogram,
    )

    _match(event_value_histogram(SF), EVENT_VALUE_HISTOGRAM_SQL, con)


def test_shuffle_assignment_oracle_and_coverage(ray_session, con):
    from pd3f_ray.pipelines.webcurate import (
        SHUFFLE_ASSIGNMENT_SQL,
        shuffle_assignment,
    )

    _match(shuffle_assignment(SF), SHUFFLE_ASSIGNMENT_SQL, con)
    df = shuffle_assignment(SF).to_pandas()
    # every document exactly once; positions are 1..len(shard) dense
    assert df["doc_id"].is_unique
    for _, sub in df.groupby("shard"):
        assert sorted(sub["pos"]) == list(range(1, len(sub) + 1))


def test_shuffle_assignment_multi_digit_shards(ray_session, con):
    """num_shards=8 maps TWO first-hex-digits into each shard — the
    case where the two-pass plan's correctness rests on the band
    (digest PREFIX) being monotone in the in-shard sort key across the
    digit boundary. Oracle-exact, and a narrow band dial (1 hex char =
    16 bands) must not change the result either."""
    from pd3f_ray.pipelines.webcurate import (
        shuffle_assignment,
        shuffle_assignment_sql,
    )

    _match(shuffle_assignment(SF, num_shards=8),
           shuffle_assignment_sql(num_shards=8), con)
    _match(shuffle_assignment(SF, num_shards=8, band_chars=1),
           shuffle_assignment_sql(num_shards=8), con)


def test_dedup_incremental_oracle(ray_session, con):
    from pd3f_ray.pipelines.dedup import (
        DEDUP_INCREMENTAL_SQL,
        dedup_incremental,
    )

    _match(dedup_incremental(SF), DEDUP_INCREMENTAL_SQL, con)
    # survivors are odd-id docs whose content is absent from the state
    df = dedup_incremental(SF).to_pandas()
    assert (df["doc_id"] % 2 == 1).all()
    assert df["text_hash"].is_unique


def test_top_bigrams_oracle(ray_session, con):
    from pd3f_ray.pipelines.textstats import top_bigrams, top_bigrams_sql

    _match(top_bigrams(SF), top_bigrams_sql(), con)


def test_customer_rollup_oracle(ray_session, con):
    from pd3f_ray.pipelines.relational import (
        CUSTOMER_ROLLUP_SQL,
        customer_rollup,
    )

    _match(customer_rollup(SF), CUSTOMER_ROLLUP_SQL, con)
    # internal consistency: the ALL/ALL row equals the sum of the
    # per-nation ALL rows
    df = customer_rollup(SF).to_pandas()
    top = df[(df["nationkey"] == -1) & (df["segment"] == "ALL")]
    per_nation = df[(df["nationkey"] != -1) & (df["segment"] == "ALL")]
    assert int(top["n_customers"].iloc[0]) == int(
        per_nation["n_customers"].sum())


def test_approx_event_quantiles_error_bound(ray_session, con):
    """The streaming-histogram sketch's rank error vs the true value
    distribution must stay under 3% at every (type, q), and the sketch
    must be deterministic across runs."""
    import numpy as np

    from pd3f_ray.pipelines.sketches import approx_event_quantiles

    df = approx_event_quantiles(SF).to_pandas()
    assert len(df) > 0
    for _, r in df.iterrows():
        v = np.sort(np.asarray(con.execute(
            "SELECT value FROM events WHERE event_type = ?",
            [r["event_type"]]).fetchnumpy()["value"]))
        rank = np.searchsorted(v, r["value_approx"]) / len(v)
        assert abs(rank - r["q"]) < 0.03, (r["event_type"], r["q"], rank)
    again = approx_event_quantiles(SF).to_pandas()
    a = df.sort_values(["event_type", "q"]).reset_index(drop=True)
    b = again.sort_values(["event_type", "q"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_semi_join_oracle(ray_session, con):
    from pd3f_ray.pipelines.joins import (
        CUSTOMERS_WITH_ORDERS_SQL,
        customers_with_orders,
    )

    _match(customers_with_orders(SF), CUSTOMERS_WITH_ORDERS_SQL, con)


def test_semi_join_emits_left_rows_at_most_once(ray_session, con):
    # a customer with many orders must still appear exactly once
    from pd3f_ray.pipelines.joins import customers_with_orders

    got = customers_with_orders(SF).to_pandas()
    assert got["c_custkey"].is_unique
    multi = con.execute(
        "SELECT count(*) FROM (SELECT o_custkey FROM orders "
        "GROUP BY o_custkey HAVING count(*) > 1)").fetchone()[0]
    assert multi > 0  # the fixture actually exercises multiplicity


def test_late_events_oracle(ray_session, con):
    from pd3f_ray.pipelines.windows import LATE_EVENTS_SQL, late_events

    _match(late_events(SF), LATE_EVENTS_SQL, con)
    # the md5 arrival permutation must actually produce late rows
    assert late_events(SF).count() > 0


def test_source_cap_sample_oracle(ray_session, con):
    from pd3f_ray.pipelines.webcurate import SOURCE_CAP_SQL, source_cap_sample

    _match(source_cap_sample(SF), SOURCE_CAP_SQL, con)


def test_source_cap_respects_cap_and_determinism(ray_session):
    from pd3f_ray.pipelines.webcurate import source_cap_sample

    a = _canon(source_cap_sample(SF, cap=3).to_pandas())
    b = _canon(source_cap_sample(SF, cap=3).to_pandas())
    pd.testing.assert_frame_equal(a, b)
    assert (a.groupby("source").size() <= 3).all()


def test_nfc_normalize_oracle(ray_session, con):
    from pd3f_ray.pipelines.webcurate import NFC_NORMALIZE_SQL, nfc_normalize_docs

    _match(nfc_normalize_docs(SF), NFC_NORMALIZE_SQL, con)


def test_nfc_suffix_actually_normalizes(ray_session):
    import unicodedata

    from pd3f_ray.pipelines.webcurate import NFC_SUFFIX

    assert unicodedata.normalize("NFC", NFC_SUFFIX) != NFC_SUFFIX


def test_headers_roundtrip_byte_identical(ray_session, con):
    # drives the real ExtractDocs pool through the header/footer path:
    # repeated isHeader/isFooter groups deduped across pages (D1+D3),
    # header rendered once at top, footer once at the end
    from pd3f_ray.pipelines.extraction import (
        HEADERS_ROUNDTRIP_SQL,
        headers_roundtrip,
    )

    _match(headers_roundtrip(SF), HEADERS_ROUNDTRIP_SQL, con)


def test_decision_path_roundtrips_byte_identical(ray_session, con):
    # dehyphenation (L2), cross-page merge (L4+R4), footnote
    # classify+reorder (C3/C4/R3) — each through the real actor pool,
    # each byte-constant per document by fixed fixture geometry
    from pd3f_ray.pipelines.extraction import (
        DEHYPHEN_ROUNDTRIP_SQL,
        FOOTNOTES_ROUNDTRIP_SQL,
        PAGEBREAK_ROUNDTRIP_SQL,
        dehyphen_roundtrip,
        footnotes_roundtrip,
        pagebreak_roundtrip,
    )

    _match(dehyphen_roundtrip(SF), DEHYPHEN_ROUNDTRIP_SQL, con)
    _match(pagebreak_roundtrip(SF), PAGEBREAK_ROUNDTRIP_SQL, con)
    _match(footnotes_roundtrip(SF), FOOTNOTES_ROUNDTRIP_SQL, con)


def test_doc_length_rank_oracle(ray_session, con):
    from pd3f_ray.pipelines.relational import (
        DOC_LENGTH_RANK_SQL,
        doc_length_rank,
    )

    _match(doc_length_rank(SF), DOC_LENGTH_RANK_SQL, con)


def test_doc_length_rank_narrow_band(ray_session, con):
    # band=1: every distinct value its own group — offsets still exact
    from pd3f_ray.pipelines.relational import (
        DOC_LENGTH_RANK_SQL,
        doc_length_rank,
    )

    _match(doc_length_rank(SF, band=1), DOC_LENGTH_RANK_SQL, con)


def test_full_outer_join_oracle(ray_session, con):
    from pd3f_ray.pipelines.joins import (
        CLICK_PURCHASE_MATRIX_SQL,
        click_purchase_matrix,
    )

    _match(click_purchase_matrix(SF), CLICK_PURCHASE_MATRIX_SQL, con)


def test_full_outer_join_has_unmatched_both_sides(ray_session):
    from pd3f_ray.pipelines.joins import click_purchase_matrix

    df = click_purchase_matrix(SF).to_pandas()
    assert df["n_clicks"].isna().any(), "no right-only rows exercised"
    assert df["n_purchases"].isna().any(), "no left-only rows exercised"
    assert (df["n_clicks"].notna() & df["n_purchases"].notna()).any()


def test_region_brand_revenue_oracle(ray_session, con):
    # deepest join chain: lineitem ⋈ part ⋈ supplier ⋈ nation ⋈ region
    from pd3f_ray.pipelines.joins import (
        REGION_BRAND_REVENUE_SQL,
        region_brand_revenue,
    )

    _match(region_brand_revenue(SF), REGION_BRAND_REVENUE_SQL, con)


def test_deadletter_roundtrip_oracle(ray_session, con):
    # poisoned payloads dead-letter; survivors stay byte-identical in
    # the SAME execution (one bad row never fails its batch)
    from pd3f_ray.pipelines.extraction import (
        DEADLETTER_ROUNDTRIP_SQL,
        deadletter_roundtrip,
    )

    _match(deadletter_roundtrip(SF), DEADLETTER_ROUNDTRIP_SQL, con)


def test_kmeans_assign_deterministic_and_coherent(ray_session):
    from pd3f_ray.pipelines.similarity import kmeans_assign

    a = kmeans_assign(SF).to_pandas().sort_values("vec_id").reset_index(drop=True)
    b = kmeans_assign(SF).to_pandas().sort_values("vec_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    # every vector assigned, clusters used, assigned sim is the max sim
    assert a["cluster"].nunique() > 1
    assert (a["sim"] > -1.0001).all() and (a["sim"] < 1.0001).all()
    # coherence: mean within-cluster sim beats the global mean pairwise
    # sim proxy (random vectors ~0): centroids must attract
    assert a["sim"].mean() > 0.1


def test_skipline_roundtrip_byte_identical(ray_session, con):
    # alnum line gate + LinesWithNone skip-iteration (hard part 1):
    # punct-only middle line dropped, join decided between neighbors
    from pd3f_ray.pipelines.extraction import (
        SKIPLINE_ROUNDTRIP_SQL,
        skipline_roundtrip,
    )

    _match(skipline_roundtrip(SF), SKIPLINE_ROUNDTRIP_SQL, con)


def test_event_sequences_oracle(ray_session, con):
    from pd3f_ray.pipelines.windows import EVENT_SEQUENCES_SQL, event_sequences

    _match(event_sequences(SF), EVENT_SEQUENCES_SQL, con)


def test_interval_join_oracle(ray_session, con):
    from pd3f_ray.pipelines.windows import INTERVAL_JOIN_SQL, interval_join_events

    _match(interval_join_events(SF), INTERVAL_JOIN_SQL, con)


def test_interval_join_spans_bucket_boundary(ray_session, con):
    """Windows whose [ts, ts+30min) crosses an hour boundary must still
    count the next hour's events (the replication-offset bug class)."""
    import duckdb

    n = con.execute("""
        WITH w AS (SELECT event_id, ts FROM events WHERE event_id % 100 = 0)
        SELECT count(*) FROM w
        WHERE date_trunc('hour', ts)
              != date_trunc('hour', ts + INTERVAL 30 MINUTE)
    """).fetchone()[0]
    assert n > 0, "fixture has no boundary-crossing window; test is vacuous"


def test_chunk_docs_oracle(ray_session, con):
    from pd3f_ray.pipelines.chunking import chunk_docs, chunk_docs_sql

    _match(chunk_docs(SF), chunk_docs_sql(), con)


def test_chunk_docs_overlap_covers_text(ray_session):
    """Every character of every document appears in ≥1 chunk, and
    consecutive chunks overlap by exactly size - stride."""
    from pd3f_ray.pipelines.chunking import CHUNK_SIZE, CHUNK_STRIDE, chunk_docs

    df = chunk_docs(SF).to_pandas()
    one = df[df.doc_id == df.doc_id.iloc[0]].sort_values("chunk_idx")
    texts = one.chunk_text.tolist()
    for a, b in zip(texts, texts[1:]):
        if len(a) == CHUNK_SIZE:  # interior chunk
            assert a[CHUNK_STRIDE:] == b[: CHUNK_SIZE - CHUNK_STRIDE]
    rebuilt = texts[0] + "".join(t[CHUNK_SIZE - CHUNK_STRIDE:] for t in texts[1:])
    import duckdb
    # reconstruction from stride-suffixes equals the original text
    orig = duckdb.sql(
        f"SELECT text FROM '{SF}/documents.parquet' "
        f"WHERE doc_id = {int(one.doc_id.iloc[0])}").fetchone()[0]
    assert rebuilt == orig


def test_tokenize_docs_oracle(ray_session, con):
    from pd3f_ray.pipelines.chunking import tokenize_docs, tokenize_docs_sql

    _match(tokenize_docs(SF), tokenize_docs_sql(), con)


def test_anchor_text_corpus_oracle(ray_session, con):
    from pd3f_ray.pipelines.webtext import ANCHOR_TEXT_SQL, anchor_text_corpus

    _match(anchor_text_corpus(SF), ANCHOR_TEXT_SQL, con)


def test_snapshot_diff_oracle(ray_session, con):
    from pd3f_ray.pipelines.curation import SNAPSHOT_DIFF_SQL, snapshot_diff

    _match(snapshot_diff(SF), SNAPSHOT_DIFF_SQL, con)


def test_snapshot_diff_statuses_all_present(ray_session):
    from pd3f_ray.pipelines.curation import snapshot_diff

    df = snapshot_diff(SF).to_pandas()
    assert set(df.status.unique()) == {"added", "removed", "changed"}
    assert df.doc_id.is_unique


def test_doc_repetition_oracle(ray_session, con):
    from pd3f_ray.pipelines.webcurate import DOC_REPETITION_SQL, doc_repetition

    _match(doc_repetition(SF), DOC_REPETITION_SQL, con)


def test_doc_repetition_signal_nonvacuous(ray_session):
    from pd3f_ray.pipelines.webcurate import doc_repetition

    df = doc_repetition(SF).to_pandas()
    assert (df.dup_positions > 0).any(), "no doc has repeated n-grams"
    assert (df.dup_ppm <= 1_000_000).all()
    assert (df.dup_ppm * df.n_grams <= df.dup_positions * 1_000_000).all()


def test_profile_lineitem_oracle(ray_session, con):
    from pd3f_ray.pipelines.relational import (
        PROFILE_LINEITEM_SQL,
        profile_lineitem,
    )

    _match(profile_lineitem(SF), PROFILE_LINEITEM_SQL, con)


def test_bloom_membership_properties(ray_session):
    from pd3f_ray.pipelines.sketches import bloom_membership

    df = bloom_membership(SF).to_pandas()
    members = df[df.is_member_truth]
    negs = df[~df.is_member_truth]
    assert len(members) == 50 and len(negs) == 2000
    # a Bloom filter NEVER false-negatives
    assert members.maybe.all()
    # at 500 keys in 2^20 bits the theoretical FP rate is ~1e-18
    assert negs.maybe.mean() < 0.001


def test_bloom_fp_rate_tracks_theory_at_high_fill():
    """Insert enough keys that false positives are expected, and check
    the measured rate lands near the theoretical (1-e^{-kn/m})^k."""
    import math

    import numpy as np

    from pd3f_ray.pipelines.sketches import (
        BLOOM_K,
        BLOOM_M_BITS,
        _bloom_set,
        _bloom_test,
    )

    n = 120_000
    rng = np.random.RandomState(7)
    keys = rng.randint(0, 2**63, size=n).astype(np.uint64)
    bits = _bloom_set(np.zeros(BLOOM_M_BITS // 8, np.uint8), keys)
    assert _bloom_test(bits, keys).all()  # no false negatives
    probes = (rng.randint(0, 2**63, size=50_000).astype(np.uint64)
              | np.uint64(1) << np.uint64(63))  # disjoint key space
    fp = _bloom_test(bits, probes).mean()
    theory = (1 - math.exp(-BLOOM_K * n / BLOOM_M_BITS)) ** BLOOM_K
    assert theory / 3 < fp < theory * 3, (fp, theory)


def test_training_prep_pipeline_oracle(ray_session, con):
    from pd3f_ray.pipelines.chunking import (
        training_prep_pipeline,
        training_prep_sql,
    )

    _match(training_prep_pipeline(SF), training_prep_sql(), con)


def test_csv_roundtrip_oracle(ray_session, con):
    from pd3f_ray.sources.csvio import CSV_ROUNDTRIP_SQL, csv_roundtrip

    _match(csv_roundtrip(SF), CSV_ROUNDTRIP_SQL, con)


def test_csv_quoting_survives_roundtrip(ray_session, tmp_path):
    """Commas, RFC-4180 quotes, and newlines inside text columns must
    survive the CSV sink+source pair byte-identically."""
    import ray.data as rd

    from pd3f_ray.sources.csvio import read_docs_csv, write_docs_csv

    rows = [
        {"doc_id": 1, "text": 'plain'},
        {"doc_id": 2, "text": 'with, comma'},
        {"doc_id": 3, "text": 'he said "hi" twice "'},
        {"doc_id": 4, "text": 'line\nbreak and ,"both",'},
        {"doc_id": 5, "text": ''},
    ]
    out = str(tmp_path / "csv")
    write_docs_csv(rd.from_items(rows), out)
    back = read_docs_csv(out).to_pandas().sort_values("doc_id")
    want = {r["doc_id"]: r["text"] for r in rows}
    got = dict(zip(back.doc_id, back.text))
    # Arrow's CSV reader yields None for an empty unquoted field; both
    # sides of the interop pair must agree on the documented contract
    got = {k: (v if v is not None else "") for k, v in got.items()}
    assert got == want


def test_funnel_stages_oracle(ray_session, con):
    from pd3f_ray.pipelines.windows import FUNNEL_STAGES_SQL, funnel_stages

    _match(funnel_stages(SF), FUNNEL_STAGES_SQL, con)


def test_funnel_stages_not_degenerate(ray_session):
    """The deadline must actually bite: more than one distinct stage
    on the fixture, else the time-bound is vacuous."""
    from pd3f_ray.pipelines.windows import funnel_stages

    df = funnel_stages(SF).to_pandas()
    assert df.stage.nunique() >= 2
    assert set(df.stage.unique()) <= {1, 2, 3}


def test_chunking_ops_on_empty_corpus(ray_session, tmp_path):
    """Empty input must yield empty output, not crash (the
    empty-block/empty-schema trap class)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    schema = pa.schema([("doc_id", pa.int64()), ("text", pa.string()),
                        ("lang", pa.string()), ("source", pa.string()),
                        ("n_chars", pa.int64())])
    pq.write_table(schema.empty_table(), str(tmp_path / "documents.parquet"))

    from pd3f_ray.pipelines.chunking import chunk_docs, tokenize_docs

    assert chunk_docs(str(tmp_path)).count() == 0
    assert tokenize_docs(str(tmp_path)).count() == 0


def test_url_normalize_oracle(ray_session, con):
    from pd3f_ray.pipelines.webtext import URL_NORMALIZE_SQL, url_normalize

    _match(url_normalize(SF), URL_NORMALIZE_SQL, con)


def test_normalize_url_edge_cases():
    from pd3f_ray.functions.urls import normalize_url, url_host

    cases = {
        # default ports dropped per scheme; non-default kept
        "HTTP://Host.COM:80/a": "http://host.com/a",
        "https://host.com:443/a": "https://host.com/a",
        "http://host.com:8080/a": "http://host.com:8080/a",
        "https://host.com:80/a": "https://host.com:80/a",
        # fragment and utm params dropped; other params keep ORDER
        "http://h.com/p?b=2&utm_campaign=z&a=1#frag": "http://h.com/p?b=2&a=1",
        # blank values survive; empty path becomes /
        "http://h.com?k=": "http://h.com/?k=",
        "http://h.com": "http://h.com/",
        # slash runs collapse, trailing slash kept
        "http://h.com//a///b/": "http://h.com/a/b/",
        # idempotent on its own output
        "http://host.com:8080/a?x=1": "http://host.com:8080/a?x=1",
    }
    for raw, want in cases.items():
        got = normalize_url(raw)
        assert got == want, (raw, got, want)
        assert normalize_url(got) == got  # idempotent
    assert url_host("HTTPS://WWW.Ex.COM:444/x") == "www.ex.com"


def test_pages_staged_roundtrip_byte_identical(ray_session, con):
    from pd3f_ray.pipelines.extraction import (
        PAGES_ROUNDTRIP_SQL,
        pages_staged_roundtrip,
    )

    _match(pages_staged_roundtrip(SF), PAGES_ROUNDTRIP_SQL, con)


def test_event_gaps_oracle(ray_session, con):
    from pd3f_ray.pipelines.windows import EVENT_GAPS_SQL, event_gaps

    _match(event_gaps(SF), EVENT_GAPS_SQL, con)


def test_q3_shipping_priority_oracle_both_paths(ray_session, con,
                                                monkeypatch):
    from pd3f_ray.pipelines.joins import Q3_SHIPPING_SQL, q3_shipping_priority

    _match(q3_shipping_priority(SF), Q3_SHIPPING_SQL, con)
    force_exchange(monkeypatch)
    _match(q3_shipping_priority(SF), Q3_SHIPPING_SQL, con)


def test_url_dedup_latest_oracle(ray_session, con):
    from pd3f_ray.pipelines.webtext import (
        URL_DEDUP_LATEST_SQL,
        url_dedup_latest,
    )

    _match(url_dedup_latest(SF), URL_DEDUP_LATEST_SQL, con)


def test_url_dedup_latest_variants_collapse(ray_session):
    """Every canonical URL must have exactly 3 snapshots (the dirty
    variants all normalize to one key) and the winning variant must
    vary across documents (the fixture rotates it by doc_id % 3)."""
    from pd3f_ray.pipelines.webtext import url_dedup_latest

    df = url_dedup_latest(SF).to_pandas()
    assert (df["n_snapshots"] == 3).all()
    assert set(df["latest_variant"].unique()) == {0, 1, 2}


def test_dedup_keep_best_oracle(ray_session, con):
    from pd3f_ray.pipelines.dedup import DEDUP_KEEP_BEST_SQL, dedup_keep_best

    _match(dedup_keep_best(SF), DEDUP_KEEP_BEST_SQL, con)


def test_dedup_keep_best_pack_roundtrip():
    """The packed-int64 argmax encoding decodes (n_chars, doc_id)
    exactly at the field boundaries (doc_id 0, max doc_id, 1-char doc)."""
    import numpy as np

    from pd3f_ray.pipelines.dedup import _PACK_SHIFT

    for n_chars, doc_id in [(1, 0), (1, (1 << _PACK_SHIFT) - 1),
                            (1 << 29, 12345), (4096, 1)]:
        p = np.int64((n_chars << _PACK_SHIFT) - doc_id)
        best_chars = -((-p) >> np.int64(_PACK_SHIFT))
        best_id = (best_chars << np.int64(_PACK_SHIFT)) - p
        assert (int(best_chars), int(best_id)) == (n_chars, doc_id)


def test_bm25_scores_oracle(ray_session, con):
    from pd3f_ray.pipelines.indexing import BM25_SCORES_SQL, bm25_scores

    _match(bm25_scores(SF), BM25_SCORES_SQL, con)


def test_bm25_scores_ranking_sane(ray_session):
    """All query terms must match somewhere, scores are positive, and a
    higher-tf match of the same term scores higher for comparable
    document lengths (monotonicity in tf for the saturating term)."""
    from pd3f_ray.pipelines.indexing import BM25_QUERY, bm25_scores

    df = bm25_scores(SF).to_pandas()
    assert set(df["token"].unique()) == set(BM25_QUERY)
    assert (df["score_micros"] > 0).all()
    # saturation: for each term, max-tf row scores >= min-tf row
    for tok, sub in df.groupby("token"):
        hi = sub.loc[sub["tf"].idxmax()]
        lo = sub.loc[sub["tf"].idxmin()]
        if hi["tf"] > lo["tf"]:
            assert hi["score_micros"] > 0 and lo["score_micros"] > 0


def test_hourly_unique_users_oracle(ray_session, con):
    from pd3f_ray.pipelines.sketches import (
        HOURLY_UNIQUE_SQL,
        hourly_unique_users,
    )

    _match(hourly_unique_users(SF), HOURLY_UNIQUE_SQL, con)


def test_hourly_unique_users_distinct_below_total(ray_session):
    """n_users must be <= n_events everywhere and strictly below on at
    least one window (the fixture has repeat users within an hour)."""
    from pd3f_ray.pipelines.sketches import hourly_unique_users

    df = hourly_unique_users(SF).to_pandas()
    assert (df["n_users"] <= df["n_events"]).all()
    assert (df["n_users"] < df["n_events"]).any()


def test_user_favorite_event_oracle(ray_session, con):
    from pd3f_ray.pipelines.relational import (
        USER_FAVORITE_EVENT_SQL,
        user_favorite_event,
    )

    _match(user_favorite_event(SF), USER_FAVORITE_EVENT_SQL, con)


def test_compression_quality_properties(ray_session, con):
    """zlib entropy proxy: one row per doc, repetitive text compresses
    far below prose, ratios are deterministic across two executions."""
    from pd3f_ray.pipelines.webcurate import compression_quality

    df = compression_quality(SF).to_pandas().sort_values("doc_id")
    n_docs = con.execute("SELECT count(*) FROM documents").fetchone()[0]
    assert len(df) == n_docs
    assert (df["z_bytes"] > 0).all()
    assert (df["ratio_ppm"] > 0).all()
    # the synthetic corpus is low-entropy token soup: it must compress
    assert df["ratio_ppm"].median() < 900_000
    df2 = compression_quality(SF).to_pandas().sort_values("doc_id")
    pd.testing.assert_frame_equal(df.reset_index(drop=True),
                                  df2.reset_index(drop=True))


def test_compression_quality_orders_repetition():
    """A pure-repetition string must get a lower ratio than a
    high-entropy string of the same length (the signal the gate uses)."""
    import zlib

    rep = b"spam " * 200
    import hashlib

    noise = b"".join(hashlib.sha256(bytes([i])).digest()
                     for i in range(32))[:1000]
    r_rep = len(zlib.compress(rep, 6)) / len(rep)
    r_noise = len(zlib.compress(noise, 6)) / len(noise)
    assert r_rep < 0.1 < r_noise


def test_fuzzy_name_pairs_oracle(ray_session, con):
    from pd3f_ray.pipelines.dedup import FUZZY_NAME_PAIRS_SQL, fuzzy_name_pairs

    _match(fuzzy_name_pairs(SF), FUZZY_NAME_PAIRS_SQL, con)


def test_levenshtein_matches_duckdb(con):
    """The DP kernel must agree with DuckDB's levenshtein on a grid of
    adversarial cases (empty, prefix, transposition, full rewrite)."""
    from pd3f_ray.pipelines.dedup import _levenshtein

    cases = [("", ""), ("a", ""), ("", "abc"), ("kitten", "sitting"),
             ("flaw", "lawn"), ("red bolt", "old bolt"),
             ("abc", "acb"), ("same", "same"), ("ab", "ba")]
    for a, b in cases:
        want = con.execute("SELECT levenshtein(?, ?)", [a, b]).fetchone()[0]
        assert _levenshtein(a, b) == want, (a, b)


def test_weighted_sample_oracle(ray_session, con):
    from pd3f_ray.pipelines.textstats import (
        WEIGHTED_SAMPLE_SQL,
        weighted_sample,
    )

    _match(weighted_sample(SF), WEIGHTED_SAMPLE_SQL, con)


def test_weighted_sample_favors_heavy_docs(ray_session, con):
    """Weight-proportional sampling must pull the sample's mean length
    above the corpus mean (the A-ES property, deterministic here)."""
    from pd3f_ray.pipelines.textstats import weighted_sample

    df = weighted_sample(SF).to_pandas()
    corpus_mean = con.execute(
        "SELECT avg(n_chars) FROM documents").fetchone()[0]
    assert df["n_chars"].mean() > corpus_mean


def test_crawl_consolidation_pipeline_oracle(ray_session, con):
    from pd3f_ray.pipelines.webtext import (
        CRAWL_CONSOLIDATION_SQL,
        crawl_consolidation_pipeline,
    )

    _match(crawl_consolidation_pipeline(SF), CRAWL_CONSOLIDATION_SQL, con)


def test_crawl_consolidation_picks_rotating_winner(ray_session):
    """The kept revision must rotate across documents (rev 0, 1 and 2
    all appear) — a constant winner would mean the argmax is ignoring
    fetch_time."""
    from pd3f_ray.pipelines.webtext import crawl_consolidation_pipeline

    df = crawl_consolidation_pipeline(SF).to_pandas()
    revs = df["text"].str.extract(r" rev (\d)$")[0].astype(int)
    assert set(revs.unique()) == {0, 1, 2}


def test_event_value_mad_oracle(ray_session, con):
    from pd3f_ray.pipelines.relational import (
        EVENT_VALUE_MAD_SQL,
        event_value_mad,
    )

    _match(event_value_mad(SF), EVENT_VALUE_MAD_SQL, con)


def test_event_value_mad_flags_injected_outlier(ray_session, tmp_path):
    """A single injected extreme value must be counted as an outlier
    and must NOT move the median/MAD materially (the robustness the op
    exists for)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pd3f_ray.pipelines.relational import event_value_mad

    n = 400
    tbl = pa.table({
        "event_type": pa.array(["x"] * n + ["x"], pa.string()),
        "value": pa.array([float(10 + (i % 7)) for i in range(n)]
                          + [1e6], pa.float64()),
    })
    d = tmp_path / "madcase"
    d.mkdir()
    pq.write_table(tbl, str(d / "events.parquet"))
    df = event_value_mad(str(d)).to_pandas()
    assert len(df) == 1
    row = df.iloc[0]
    assert row["n_outliers"] >= 1
    assert 1000 <= row["median_cents"] <= 1600  # cents of the 10..16 band


def test_source_lang_matrix_oracle(ray_session, con):
    from pd3f_ray.pipelines.relational import (
        SOURCE_LANG_MATRIX_SQL,
        source_lang_matrix,
    )

    _match(source_lang_matrix(SF), SOURCE_LANG_MATRIX_SQL, con)


def test_source_lang_matrix_counts_cover_corpus(ray_session, con):
    from pd3f_ray.pipelines.relational import PIVOT_LANGS, source_lang_matrix

    df = source_lang_matrix(SF).to_pandas()
    total = sum(int(df[f"n_{lg}"].sum()) for lg in PIVOT_LANGS)
    n_docs = con.execute("SELECT count(*) FROM documents").fetchone()[0]
    assert total == n_docs


def test_next_event_label_oracle(ray_session, con):
    from pd3f_ray.pipelines.windows import (
        NEXT_EVENT_LABEL_SQL,
        next_event_label,
    )

    _match(next_event_label(SF), NEXT_EVENT_LABEL_SQL, con)


def test_schema_evolution_union_oracle(ray_session, con):
    from pd3f_ray.sources.evolve import (
        SCHEMA_EVOLUTION_SQL,
        schema_evolution_union,
    )

    _match(schema_evolution_union(SF), SCHEMA_EVOLUTION_SQL, con)


def test_align_to_schema_refuses_extra_columns():
    import pyarrow as pa

    from pd3f_ray.sources.evolve import align_to_schema

    target = pa.schema([("a", pa.int64())])
    fn = align_to_schema(target)
    batch = pa.table({"a": pa.array([1], pa.int64()),
                      "rogue": pa.array(["x"], pa.string())})
    with pytest.raises(ValueError, match="rogue"):
        fn(batch)
    # and missing columns become typed nulls
    out = align_to_schema(pa.schema(
        [("a", pa.int64()), ("b", pa.string())]))(
        pa.table({"a": pa.array([1, 2], pa.int64())}))
    assert out.column("b").null_count == 2
    assert out.schema.field("b").type == pa.string()


def test_props_k_stats_oracle(ray_session, con):
    from pd3f_ray.pipelines.relational import PROPS_K_STATS_SQL, props_k_stats

    _match(props_k_stats(SF), PROPS_K_STATS_SQL, con)


def test_props_k_stats_bad_json_counted_not_fatal(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pd3f_ray.pipelines.relational import props_k_stats

    tbl = pa.table({
        "event_type": pa.array(["a", "a", "a", "b"], pa.string()),
        "props": pa.array(['{"k": 5}', "not json", '{"x": 1}',
                           '{"k": 7}'], pa.string()),
    })
    d = tmp_path / "badjson"
    d.mkdir()
    pq.write_table(tbl, str(d / "events.parquet"))
    df = props_k_stats(str(d)).to_pandas().set_index("event_type")
    assert df.loc["a", "n"] == 1 and df.loc["a", "n_bad"] == 2
    assert df.loc["a", "sum_k"] == 5
    assert df.loc["b", "n"] == 1 and df.loc["b", "n_bad"] == 0


def test_cms_user_counts_overestimate_only(ray_session):
    from pd3f_ray.pipelines.sketches import cms_user_counts

    df = cms_user_counts(SF).to_pandas()
    assert len(df) > 0
    assert (df["est_n"] >= df["true_n"]).all()


def test_cms_primitive_bound_under_collisions():
    """Force heavy collisions (50k keys into 4×2048 counters): the
    estimate must stay >= truth for every key, and the Count-Min error
    bound e*N/W must hold for at least 95% of probes (Markov gives it
    per-row with prob 1/e; min over 4 rows makes violations rare)."""
    import numpy as np

    from pd3f_ray.pipelines.sketches import (
        CMS_W,
        _cms_estimate,
        _cms_partial,
    )

    keys = np.arange(50_000, dtype=np.int64)
    counts = (keys % 17 + 1).astype(np.int64)
    m = _cms_partial(keys, counts)
    total = int(counts.sum())
    bound = np.e * total / CMS_W
    bad = 0
    for k in range(0, 50_000, 500):
        est = _cms_estimate(m, int(k))
        true = int(counts[k])
        assert est >= true
        if est - true > bound:
            bad += 1
    assert bad <= 5  # of 100 probes


def test_cms_sketch_is_linear():
    """Merging two partial sketches by elementwise sum must equal the
    sketch of the concatenated stream (the property that makes the
    map-side fold + exchange-sum plan exact for the sketch itself)."""
    import numpy as np

    from pd3f_ray.pipelines.sketches import _cms_partial

    a_keys = np.arange(100, dtype=np.int64)
    b_keys = np.arange(50, 150, dtype=np.int64)
    ones = np.ones(100, np.int64)
    merged = _cms_partial(a_keys, ones) + _cms_partial(b_keys, ones)
    both = _cms_partial(np.concatenate([a_keys, b_keys]),
                        np.concatenate([ones, ones]))
    assert (merged == both).all()


def test_table_checksum_oracle(ray_session, con):
    from pd3f_ray.pipelines.curation import TABLE_CHECKSUM_SQL, table_checksum

    _match(table_checksum(SF), TABLE_CHECKSUM_SQL, con)


def test_table_checksum_detects_single_row_change(ray_session, tmp_path):
    """Changing ONE row's text must change the checksum; re-ordering
    rows must NOT (the anti-entropy property)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pd3f_ray.pipelines.curation import table_checksum

    texts = [f"doc number {i}" for i in range(50)]
    base = tmp_path / "ck_a"
    base.mkdir()
    pq.write_table(pa.table({"text": pa.array(texts, pa.string())}),
                   str(base / "documents.parquet"))
    a = table_checksum(str(base)).to_pandas().iloc[0]

    shuffled = tmp_path / "ck_b"
    shuffled.mkdir()
    pq.write_table(pa.table({"text": pa.array(texts[::-1], pa.string())}),
                   str(shuffled / "documents.parquet"))
    b = table_checksum(str(shuffled)).to_pandas().iloc[0]
    assert (a["checksum"], a["n_rows"]) == (b["checksum"], b["n_rows"])

    mutated = tmp_path / "ck_c"
    mutated.mkdir()
    texts2 = texts[:]
    texts2[17] = "doc number 17 CORRUPTED"
    pq.write_table(pa.table({"text": pa.array(texts2, pa.string())}),
                   str(mutated / "documents.parquet"))
    c = table_checksum(str(mutated)).to_pandas().iloc[0]
    assert c["checksum"] != a["checksum"]


def test_partitioned_write_roundtrip_oracle(ray_session, con):
    from pd3f_ray.sources.evolve import (
        PARTITIONED_ROUNDTRIP_SQL,
        partitioned_write_roundtrip,
    )

    _match(partitioned_write_roundtrip(SF), PARTITIONED_ROUNDTRIP_SQL, con)


def test_partitioned_write_creates_lang_dirs(ray_session):
    import os

    from pd3f_ray.sources.evolve import partitioned_write_roundtrip

    ds = partitioned_write_roundtrip(SF)
    # <scratch>/lang=en/<file>.parquet: the roundtrip's own fresh dir
    scratch = os.path.dirname(os.path.dirname(ds.input_files()[0]))
    dirs = sorted(d for d in os.listdir(scratch) if d.startswith("lang="))
    assert "lang=en" in dirs and len(dirs) >= 3


def test_doc_length_ntile_oracle(ray_session, con):
    from pd3f_ray.pipelines.relational import (
        DOC_LENGTH_NTILE_SQL,
        doc_length_ntile,
    )

    _match(doc_length_ntile(SF), DOC_LENGTH_NTILE_SQL, con)


def test_doc_length_ntile_tile_sizes(ray_session):
    """SQL NTILE semantics: tile sizes differ by at most one and the
    LARGER tiles come first."""
    from pd3f_ray.pipelines.relational import NTILE_K, doc_length_ntile

    df = doc_length_ntile(SF).to_pandas()
    sizes = df.groupby("tile").size()
    assert set(sizes.index) == set(range(1, NTILE_K + 1))
    assert sizes.max() - sizes.min() <= 1
    assert (sizes.sort_index().diff().dropna() <= 0).all()


def test_nation_revenue_share_oracle(ray_session, con):
    from pd3f_ray.pipelines.joins import (
        NATION_REVENUE_SHARE_SQL,
        nation_revenue_share,
    )

    _match(nation_revenue_share(SF), NATION_REVENUE_SHARE_SQL, con)


def test_nation_revenue_share_sums_to_total(ray_session):
    from pd3f_ray.pipelines.joins import nation_revenue_share

    df = nation_revenue_share(SF).to_pandas()
    # floor division loses < |rows| ppm in total
    assert 1_000_000 - len(df) <= df["share_ppm"].sum() <= 1_000_000


def test_name_entity_clusters_oracle(ray_session, con):
    from pd3f_ray.pipelines.dedup import (
        NAME_ENTITY_CLUSTERS_SQL,
        name_entity_clusters,
    )

    _match(name_entity_clusters(SF), NAME_ENTITY_CLUSTERS_SQL, con)


def test_name_entity_clusters_canonical_is_member_min(ray_session):
    """Every canonical must be a member of its own cluster and the
    minimum of the names mapped to it; clusters must be non-trivial
    (the part-name vocabulary has distance-≤2 neighbors)."""
    from pd3f_ray.pipelines.dedup import name_entity_clusters

    df = name_entity_clusters(SF).to_pandas()
    by = df.groupby("canonical")["name"].apply(list)
    assert all(c == min(members) for c, members in by.items())
    assert all(c in members for c, members in by.items())
    assert (by.str.len() > 1).any()


def test_name_entity_clusters_gate_flip(ray_session, con, monkeypatch):
    """The DISTRIBUTED string-key min-label-propagation plan (the one
    `name_entity_clusters` takes when the fuzzy edge list outgrows one
    block) must stay byte-equal to the oracle, as the default local
    union-find path is."""
    from pd3f_ray.pipelines.dedup import (
        NAME_ENTITY_CLUSTERS_SQL,
        name_entity_clusters,
    )

    force_exchange(monkeypatch)
    _match(name_entity_clusters(SF), NAME_ENTITY_CLUSTERS_SQL, con)


def test_events_cube_oracle(ray_session, con):
    from pd3f_ray.pipelines.relational import EVENTS_CUBE_SQL, events_cube

    _match(events_cube(SF), EVENTS_CUBE_SQL, con)


def test_events_cube_lattice_consistency(ray_session):
    """The grand total must equal the sum of each single-key slice."""
    from pd3f_ray.pipelines.relational import events_cube

    df = events_cube(SF).to_pandas()
    grand = df[(df["event_type"] == "ALL") & (df["hour"] == -1)]
    assert len(grand) == 1
    n_all = int(grand["n_events"].iloc[0])
    by_type = df[(df["event_type"] != "ALL") & (df["hour"] == -1)]
    by_hour = df[(df["event_type"] == "ALL") & (df["hour"] != -1)]
    assert int(by_type["n_events"].sum()) == n_all
    assert int(by_hour["n_events"].sum()) == n_all


def test_q4_order_priority_oracle(ray_session, con):
    from pd3f_ray.pipelines.joins import (
        Q4_ORDER_PRIORITY_SQL,
        q4_order_priority,
    )

    _match(q4_order_priority(SF), Q4_ORDER_PRIORITY_SQL, con)


def test_sliding_unique_users_oracle(ray_session, con):
    from pd3f_ray.pipelines.windows import (
        SLIDING_UNIQUE_SQL,
        sliding_unique_users,
    )

    _match(sliding_unique_users(SF), SLIDING_UNIQUE_SQL, con)


def test_robots_filter_oracle(ray_session, con):
    from pd3f_ray.pipelines.webtext import ROBOTS_FILTER_SQL, robots_filter

    _match(robots_filter(SF), ROBOTS_FILTER_SQL, con)


def test_robots_filter_blocks_only_ruled_hosts(ray_session):
    """Private pages on NON-blocked hosts must survive; private pages on
    blocked hosts must not."""
    from pd3f_ray.pipelines.webtext import _BLOCKED_HOSTS, robots_filter

    df = robots_filter(SF).to_pandas()
    private = df[df["url"].str.contains("/private/")]
    assert len(private) > 0  # non-blocked hosts keep their /private
    hosts = private["doc_id"] % 20
    assert (hosts >= _BLOCKED_HOSTS).all()


def test_media_dedup_oracle(ray_session, con):
    from pd3f_ray.pipelines.multimodal import MEDIA_DEDUP_SQL, media_dedup

    _match(media_dedup(SF), MEDIA_DEDUP_SQL, con)


def test_referential_integrity_oracle(ray_session, con):
    from pd3f_ray.pipelines.relational import (
        REFERENTIAL_INTEGRITY_SQL,
        referential_integrity,
    )

    _match(referential_integrity(SF), REFERENTIAL_INTEGRITY_SQL, con)


def test_referential_integrity_detects_injected_break(ray_session,
                                                      tmp_path):
    """Copy the tables, point some lineitems at a nonexistent orderkey —
    the audit must count exactly those orphan KEYS (distinct, not
    rows)."""
    import shutil

    import duckdb as _duck

    from pd3f_ray.pipelines.relational import referential_integrity

    d = tmp_path / "broken"
    d.mkdir()
    for t in ("lineitem", "orders", "customer"):
        shutil.copy(f"{SF}/{t}.parquet", d / f"{t}.parquet")
    con2 = _duck.connect()
    con2.execute(f"""
        COPY (SELECT * REPLACE (CASE WHEN l_linenumber = 1
                                      AND l_orderkey % 10 = 0
                                     THEN -l_orderkey - 1
                                     ELSE l_orderkey END AS l_orderkey)
              FROM read_parquet('{SF}/lineitem.parquet'))
        TO '{d / "lineitem.parquet"}' (FORMAT PARQUET)
    """)
    expected = con2.execute(f"""
        SELECT count(DISTINCT l_orderkey)
        FROM read_parquet('{d / "lineitem.parquet"}')
        WHERE l_orderkey NOT IN
              (SELECT o_orderkey FROM read_parquet('{d / "orders.parquet"}'))
    """).fetchone()[0]
    assert expected > 0
    row = referential_integrity(str(d)).to_pandas().iloc[0]
    assert int(row["lineitem_orphans"]) == expected
    assert int(row["order_orphans"]) == 0


def test_q6_forecast_revenue_oracle(ray_session, con):
    from pd3f_ray.pipelines.relational import (
        Q6_FORECAST_SQL,
        q6_forecast_revenue,
    )

    _match(q6_forecast_revenue(SF), Q6_FORECAST_SQL, con)


def test_weighted_sample_per_lang_oracle(ray_session, con):
    from pd3f_ray.pipelines.textstats import (
        WEIGHTED_SAMPLE_PER_LANG_SQL,
        weighted_sample_per_lang,
    )

    _match(weighted_sample_per_lang(SF), WEIGHTED_SAMPLE_PER_LANG_SQL, con)


def test_weighted_sample_per_lang_covers_all_langs(ray_session, con):
    from pd3f_ray.pipelines.textstats import (
        WSAMPLE_LANG_K,
        weighted_sample_per_lang,
    )

    df = weighted_sample_per_lang(SF).to_pandas()
    langs = con.execute(
        "SELECT DISTINCT lang FROM documents").df()["lang"]
    assert set(df["lang"].unique()) == set(langs)
    assert (df.groupby("lang").size() <= WSAMPLE_LANG_K).all()


def test_ontime_hourly_oracle(ray_session, con):
    from pd3f_ray.pipelines.windows import ONTIME_HOURLY_SQL, ontime_hourly

    _match(ontime_hourly(SF), ONTIME_HOURLY_SQL, con)


def test_ontime_hourly_excludes_exactly_the_late(ray_session, con):
    """on-time + late must partition the stream: total on-time events
    == total events − late events (per the same watermark rule)."""
    from pd3f_ray.pipelines.windows import late_events, ontime_hourly

    on = ontime_hourly(SF).to_pandas()
    n_late = len(late_events(SF).to_pandas())
    n_total = con.execute("SELECT count(*) FROM events").fetchone()[0]
    assert int(on["n_events"].sum()) == n_total - n_late
    assert n_late > 0  # the permutation must actually create late rows


def test_orders_monthly_oracle(ray_session, con):
    from pd3f_ray.pipelines.relational import (
        ORDERS_MONTHLY_SQL,
        orders_monthly,
    )

    _match(orders_monthly(SF), ORDERS_MONTHLY_SQL, con)


def test_crawl_budget_allocation_oracle(ray_session, con):
    from pd3f_ray.pipelines.webcurate import (
        CRAWL_BUDGET_SQL,
        crawl_budget_allocation,
    )

    _match(crawl_budget_allocation(SF), CRAWL_BUDGET_SQL, con)


def test_crawl_budget_sums_exactly_and_is_proportional(ray_session):
    from pd3f_ray.pipelines.webcurate import (
        CRAWL_BUDGET,
        crawl_budget_allocation,
    )

    df = crawl_budget_allocation(SF).to_pandas()
    assert int(df["budget"].sum()) == CRAWL_BUDGET
    # largest-remainder stays within 1 unit of the exact quota
    total = df["n_docs"].sum()
    quota = CRAWL_BUDGET * df["n_docs"] / total
    assert ((df["budget"] - quota).abs() < 1.0).all()


def test_fuzzy_name_pairs_across_band_edge(ray_session, tmp_path):
    """The part-name fixture's lengths (7–12) all land in one length
    band, so the ghost-replication path is never exercised by the
    oracle — pin it directly: names of length 15/16/17 (bands 1 and 2
    at NAME_BAND_W=8) within distance <= 2 must still pair exactly
    once, and a cross-band pair beyond the length bound must not."""
    import duckdb as _duck
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pd3f_ray.pipelines.dedup import fuzzy_name_pairs

    names = [
        "aaaaaaaaaaaaaaa",    # 15 chars — band 1, ghost into... no: top of band 1
        "aaaaaaaaaaaaaaaa",   # 16 — band 2, %8==0 → ghost into band 1
        "aaaaaaaaaaaaaaaab",  # 17 — band 2, %8==1 → ghost into band 1
        "zzzzzzzzzzzzzzzzzzz",  # 19 — band 2, no ghost, far from all
    ]
    d = tmp_path / "bandedge"
    d.mkdir()
    pq.write_table(pa.table({"p_name": pa.array(names, pa.string())}),
                   str(d / "part.parquet"))
    got = fuzzy_name_pairs(str(d)).to_pandas()
    got = got.sort_values(["name_a", "name_b"]).reset_index(drop=True)
    con = _duck.connect()
    want = con.execute(f"""
        WITH names AS (SELECT DISTINCT p_name
                       FROM read_parquet('{d / "part.parquet"}'))
        SELECT least(a.p_name, b.p_name) AS name_a,
               greatest(a.p_name, b.p_name) AS name_b,
               CAST(levenshtein(a.p_name, b.p_name) AS BIGINT) AS dist
        FROM names a JOIN names b ON a.p_name < b.p_name
        WHERE levenshtein(a.p_name, b.p_name) <= 2
        ORDER BY name_a, name_b
    """).df()
    # the 15↔16, 15↔17 pairs cross the band edge (found via ghosts);
    # 16↔17 is in-band; the 19-char name pairs with nothing
    assert len(want) == 3
    import pandas as pd

    want = want.astype(got.dtypes.to_dict(), errors="ignore")
    pd.testing.assert_frame_equal(got, want)
    # every pair emitted exactly once (no ghost double-counting)
    assert not got.duplicated(["name_a", "name_b"]).any()


def test_lang_confusion_matrix_oracle(ray_session, con):
    from pd3f_ray.pipelines.textstats import (
        LANG_CONFUSION_SQL,
        lang_confusion_matrix,
    )

    _match(lang_confusion_matrix(SF), LANG_CONFUSION_SQL, con)


def test_lang_confusion_matrix_covers_corpus(ray_session, con):
    from pd3f_ray.pipelines.textstats import lang_confusion_matrix

    df = lang_confusion_matrix(SF).to_pandas()
    n_docs = con.execute("SELECT count(*) FROM documents").fetchone()[0]
    assert int(df["n"].sum()) == n_docs
    # the synthetic corpus text is English-ish token soup whatever its
    # lang LABEL says — so the matrix exposes exactly that: every
    # labeled language row exists, and predictions concentrate on
    # {'en', 'none'} (the matrix's job is to reveal the mismatch)
    assert set(df["lang"].unique()) == {"de", "en", "es", "fr", "zh"}
    assert set(df["pred_lang"].unique()) <= {"en", "none"}
    en_mass = df[df["pred_lang"] == "en"]["n"].sum()
    assert en_mass > df["n"].sum() / 2


def test_top_events_per_user_oracle(ray_session, con):
    from pd3f_ray.pipelines.windows import (
        TOP_EVENTS_PER_USER_SQL,
        top_events_per_user,
    )

    _match(top_events_per_user(SF), TOP_EVENTS_PER_USER_SQL, con)


def test_top_events_per_user_shape(ray_session):
    """Per-user group size ≤ k, ranks are 1..n consecutive, and rank
    order follows (value_cents DESC, event_id ASC) within each user."""
    from pd3f_ray.pipelines.windows import top_events_per_user

    df = top_events_per_user(SF, k=2).to_pandas()
    by = df.sort_values(["user_id", "rnk"]).groupby("user_id")
    assert int(by.size().max()) <= 2
    for _, g in by:
        assert list(g["rnk"]) == list(range(1, len(g) + 1))
        keys = list(zip(-g["value_cents"], g["event_id"]))
        assert keys == sorted(keys)


def test_partition_manifest_oracle(ray_session, con):
    from pd3f_ray.pipelines.curation import (
        PARTITION_MANIFEST_SQL,
        partition_manifest,
    )

    _match(partition_manifest(SF), PARTITION_MANIFEST_SQL, con)


def test_partition_manifest_covers_corpus(ray_session):
    """Manifest row counts must sum to the corpus row count and the
    doc_id ranges must be internally consistent (min ≤ max)."""
    import pyarrow.parquet as pq

    from pd3f_ray.pipelines.curation import partition_manifest

    df = partition_manifest(SF).to_pandas()
    n_corpus = pq.read_metadata(f"{SF}/documents.parquet").num_rows
    assert int(df["n_docs"].sum()) == n_corpus
    assert (df["min_doc_id"] <= df["max_doc_id"]).all()


def test_resumable_write_roundtrip_oracle(ray_session, con):
    """The op itself asserts the second run skips every shard (resume
    semantics); the oracle match certifies the sharded bucketed sink
    lost, duplicated and reordered nothing."""
    from pd3f_ray.pipelines.extraction import (
        RESUMABLE_ROUNDTRIP_SQL,
        resumable_write_roundtrip,
    )

    _match(resumable_write_roundtrip(SF), RESUMABLE_ROUNDTRIP_SQL, con)


def test_kmeans_train_properties(ray_session):
    """Distributed Lloyd training: deterministic across runs, every
    corpus vector accounted for exactly once in the final assignment,
    non-empty centroids unit-norm (cosine geometry)."""
    import numpy as np
    import pyarrow.parquet as pq

    from pd3f_ray.pipelines.similarity import kmeans_train

    a = kmeans_train(SF).to_pandas().sort_values("cluster")
    b = kmeans_train(SF).to_pandas().sort_values("cluster")
    assert a.reset_index(drop=True).equals(b.reset_index(drop=True))

    n_corpus = pq.read_metadata(f"{SF}/embeddings.parquet").num_rows
    assert int(a["n_members"].sum()) == n_corpus
    for _, row in a.iterrows():
        if row["n_members"] > 0:
            assert abs(np.linalg.norm(np.asarray(row["centroid"])) - 1.0) < 1e-4


def test_kmeans_train_fit_monotone_in_iterations(ray_session):
    """Spherical k-means (renormalized-mean updates) cannot degrade its
    own objective: the corpus mean best-cosine under 4 Lloyd iterations
    must be ≥ the 1-iteration fit from the same deterministic seeds."""
    import numpy as np
    import pyarrow.parquet as pq

    from pd3f_ray.pipelines.similarity import kmeans_train

    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["embedding"])
    m = np.stack(t.column("embedding").to_pylist()).astype(np.float64)
    m /= np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)

    def fit(iters: int) -> float:
        df = kmeans_train(SF, iters=iters).to_pandas()
        c = np.stack(df["centroid"].to_numpy())
        c = c[np.linalg.norm(c, axis=1) > 0]
        return float((m @ c.T).max(axis=1).mean())

    assert fit(4) >= fit(1) - 1e-6


def test_bigram_pmi_oracle(ray_session, con):
    from pd3f_ray.pipelines.textstats import BIGRAM_PMI_SQL, bigram_pmi

    _match(bigram_pmi(SF), BIGRAM_PMI_SQL, con)


def test_bigram_pmi_members_match_top_bigrams(ray_session):
    """The PMI table must score exactly the top_bigrams set, and a
    bigram rarer than its parts' independence prediction must score
    negative (sanity of the sign convention)."""
    from pd3f_ray.pipelines.textstats import bigram_pmi, top_bigrams

    pmi = bigram_pmi(SF).to_pandas()
    top = top_bigrams(SF).to_pandas()
    assert sorted(pmi["bigram"]) == sorted(top["bigram"])
    assert (pmi["n"].to_numpy() > 0).all()


# ---------------------------------------------------------------------------
# round-5 hardening (ADVICE r4): sentinel collisions, wide shards,
# kmeans empty-cluster carry
# ---------------------------------------------------------------------------


def test_shuffle_assignment_wide_shards_oracle(ray_session, con):
    """num_shards=256 needs TWO digest hex chars for the shard — the
    single-digit derivation silently left shards 16+ empty. Oracle-exact
    at the wider width, and the population must actually reach past
    shard 15."""
    from pd3f_ray.pipelines.webcurate import (
        shuffle_assignment,
        shuffle_assignment_sql,
    )

    _match(shuffle_assignment(SF, num_shards=256),
           shuffle_assignment_sql(num_shards=256), con)
    df = shuffle_assignment(SF, num_shards=256).to_pandas()
    assert df["shard"].max() > 15
    assert df["shard"].nunique() > 16


def test_shuffle_assignment_num_shards_guard():
    """num_shards outside [1, 16^4] raises loudly instead of silently
    leaving shards empty (same convention as fuzzy_name_pairs)."""
    from pd3f_ray.pipelines.webcurate import _shard_chars

    assert _shard_chars(1) == 1
    assert _shard_chars(16) == 1
    assert _shard_chars(17) == 2
    assert _shard_chars(256) == 2
    assert _shard_chars(1024) == 3
    assert _shard_chars(65536) == 4
    with pytest.raises(ValueError):
        _shard_chars(0)
    with pytest.raises(ValueError):
        _shard_chars(65537)


def test_kmeans_train_iters_validation():
    from pd3f_ray.pipelines.similarity import kmeans_train

    with pytest.raises(ValueError):
        kmeans_train(SF, iters=0)


def test_kmeans_train_empty_clusters_carry_seed(ray_session):
    """With n_clusters > corpus size the pigeonhole principle forces
    empty clusters; those must emit their carried (previous) centroid
    — here the unit-norm seed — not a zero vector. Every centroid in
    the output is therefore unit-norm, empty or not."""
    from pd3f_ray.pipelines.similarity import (
        IVF_SAMPLE,
        _smallest_rows,
        kmeans_train,
    )

    n_clusters = 600  # > 500 corpus vectors → ≥100 empty clusters
    df = kmeans_train(SF, n_clusters=n_clusters, iters=1).to_pandas()
    assert len(df) == n_clusters
    c = np.stack(df.sort_values("cluster")["centroid"].to_numpy())
    norms = np.linalg.norm(c, axis=1)
    assert (np.abs(norms - 1.0) < 1e-4).all()

    empty = df[df["n_members"] == 0]
    assert len(empty) > 0, "fixture should force at least one empty cluster"
    # the carried centroid for an iters=1 empty cluster is its seed
    _, seed_v = _smallest_rows(SF, IVF_SAMPLE)
    seed_v = seed_v / np.maximum(
        np.linalg.norm(seed_v, axis=1, keepdims=True), 1e-300)
    seed_idx = np.linspace(0, len(seed_v) - 1, n_clusters).astype(int)
    for _, row in empty.iterrows():
        want = np.round(seed_v[seed_idx[int(row["cluster"])]], 6)
        assert np.allclose(np.asarray(row["centroid"]), want, atol=1e-9)


def test_bigram_pmi_sentinel_token_immune(ray_session, tmp_path):
    """A corpus token literally equal to the '\\x00total' sentinel must
    not merge with (or be overwritten by) the unigram-total row: the
    exchange prefixes real tokens with '\\x01'. 6/8 bigrams are
    '\\x00total x', so PMI = ln((6/8) / ((6/16) * (6/16)))."""
    import math

    import pyarrow as pa
    import pyarrow.parquet as pq

    from pd3f_ray.pipelines.textstats import bigram_pmi

    texts = ["\x00total x"] * 6 + ["y z"] * 2
    pq.write_table(
        pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }),
        str(tmp_path / "documents.parquet"),
    )
    df = bigram_pmi(str(tmp_path), k=1).to_pandas()
    assert list(df["bigram"]) == ["\x00total x"]
    assert list(df["n"]) == [6]
    want = math.floor(
        math.log((6 / 8) / ((6 / 16) * (6 / 16))) * 1_000_000)
    assert list(df["pmi_micros"]) == [want]

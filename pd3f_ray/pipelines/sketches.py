"""Cardinality sketches over the ``events`` table.

Two implementations of per-event-type distinct-user counting:

- **distinct_users** — exact, oracle-checked: per-batch pair dedup
  (map-side), one hash-aggregate exchange on (event_type, user_id),
  then a tiny per-type count. The exchange carries distinct pairs only.
- **approx_distinct_users** — HyperLogLog (Flajolet et al. 2007,
  p=12 → 4096 registers, ~1.6% standard error): each batch reduces to
  ONE 4 KB register row per event_type present, the only exchange
  groups a handful of register rows per type, and registers merge by
  elementwise max — the constant-size-sketch pattern that replaces the
  exact plan when the distinct set itself is too big to shuffle.
  Rows-only check; relative error pinned against the exact op in tests.

No reference counterpart (the reference is a single-document extractor);
this is part of the engine's large-scale training-data toolkit.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd
from ray.data.aggregate import Count

from pd3f_ray.core.cluster import read_table

HLL_P = 12  # 2^12 registers
HLL_M = 1 << HLL_P


def distinct_users(sf_dir: str):
    """Exact distinct user_id count per event_type. Output
    (event_type, n_users)."""
    ds = read_table(sf_dir, "events", ["event_type", "user_id"])

    def batch_dedup(batch: pa.Table) -> pa.Table:
        # map-side pre-dedup: the exchange then moves distinct pairs
        # per block, not raw events
        g = batch.group_by(["event_type", "user_id"]).aggregate([])
        return g

    pairs = (
        ds.map_batches(batch_dedup, batch_format="pyarrow")
        .groupby(["event_type", "user_id"])
        .aggregate(Count(alias_name="n"))
    )

    def strip(batch: pa.Table) -> pa.Table:
        return batch.select(["event_type"])

    return (
        pairs.map_batches(strip, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Count(alias_name="n_users"))
    )


DISTINCT_USERS_SQL = """
SELECT event_type,
       CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
FROM events
GROUP BY event_type
"""


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — the same stable integer mix used by the
    join bucketing (joins._stable_bucket), kept full-width here."""
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _hll_registers(user_ids: np.ndarray) -> np.ndarray:
    """4096 uint8 registers for one value set (vectorized)."""
    h = _mix64(user_ids)
    idx = (h >> np.uint64(64 - HLL_P)).astype(np.int64)
    rest = (h << np.uint64(HLL_P)) | np.uint64((1 << HLL_P) - 1)
    # rank = leading zeros of the remaining 64-P bits + 1
    lz = np.zeros(len(h), dtype=np.uint8)
    probe = np.uint64(1) << np.uint64(63)
    mask_undecided = np.ones(len(h), dtype=bool)
    for r in range(64 - HLL_P + 1):
        hit = mask_undecided & ((rest & probe) != 0)
        lz[hit] = r
        mask_undecided &= ~hit
        probe >>= np.uint64(1)
        if not mask_undecided.any():
            break
    rank = lz + 1
    regs = np.zeros(HLL_M, dtype=np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


def _hll_estimate(regs: np.ndarray) -> int:
    """Bias-corrected HLL estimate with the small-range linear-counting
    correction (Flajolet et al. 2007)."""
    m = float(HLL_M)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.power(2.0, -regs.astype(np.float64)))
    zeros = int(np.count_nonzero(regs == 0))
    if est <= 2.5 * m and zeros > 0:
        est = m * np.log(m / zeros)
    return int(round(est))


def approx_distinct_users(sf_dir: str):
    """HLL distinct user_id count per event_type. Each batch emits one
    4 KB register row per event_type present; the exchange groups a few
    register rows per type and merges by elementwise max. Output
    (event_type, n_users_approx). Rows-only (sketch estimate)."""
    ds = read_table(sf_dir, "events", ["event_type", "user_id"])

    def batch_sketch(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type").to_numpy(zero_copy_only=False)
        uid = batch.column("user_id").to_numpy(zero_copy_only=False)
        types, out_regs = [], []
        for t in pd.unique(et):
            types.append(t)
            out_regs.append(_hll_registers(uid[et == t]).tobytes())
        return pa.table(
            {
                "event_type": pa.array(types, pa.string()),
                "regs": pa.array(out_regs, pa.binary()),
            }
        )

    def merge(group: pa.Table) -> pa.Table:
        regs = np.maximum.reduce(
            [np.frombuffer(b, dtype=np.uint8)
             for b in group.column("regs").to_pylist()]
        )
        return pa.table({
            "event_type": group.column("event_type").slice(0, 1),
            "n_users_approx": pa.array([_hll_estimate(regs)], pa.int64()),
        })

    return (
        ds.map_batches(batch_sketch, batch_format="pyarrow")
        .groupby("event_type")
        .map_groups(merge, batch_format="pyarrow")
    )


def hll_agg(on: str = "user_id", alias_name: str = "n_users_approx"):
    """HyperLogLog as a first-class Ray Data ``AggregateFn``: the
    accumulator is the 4096-byte register array, accumulation is
    vectorized over each Arrow block, merge is elementwise max, finalize
    is the bias-corrected estimate. Unlike ``approx_distinct_users``'s
    map_groups plan, this form COMPOSES with other aggregates in the
    same ``groupby(...).aggregate(...)`` exchange — one shuffle yields
    the sketch alongside counts/sums."""
    from ray.data.aggregate import AggregateFn

    def _acc_block(regs: np.ndarray, block) -> np.ndarray:
        if hasattr(block, "column"):  # pyarrow.Table
            uids = block.column(on).to_numpy(zero_copy_only=False)
        else:  # pandas.DataFrame
            uids = block[on].to_numpy()
        return np.maximum(regs, _hll_registers(uids.astype(np.int64)))

    return AggregateFn(
        init=lambda k: np.zeros(HLL_M, dtype=np.uint8),
        merge=lambda a, b: np.maximum(a, b),
        accumulate_block=_acc_block,
        finalize=lambda regs: int(_hll_estimate(regs)),
        name=alias_name,
    )


def approx_distinct_users_agg(sf_dir: str):
    """``approx_distinct_users`` re-expressed through the ``hll_agg``
    aggregate — same registers, hence the SAME estimate, but composed
    with an event count in ONE groupby exchange. Output
    (event_type, n_users_approx, n_events). Rows-only (sketch
    estimate); tests pin estimate equality with the map_groups form."""
    ds = read_table(sf_dir, "events", ["event_type", "user_id"])
    return ds.groupby("event_type").aggregate(
        hll_agg("user_id", "n_users_approx"),
        Count(alias_name="n_events"),
    )


# ---------------------------------------------------------------------------
# mergeable streaming-histogram quantile sketch
# ---------------------------------------------------------------------------

QSKETCH_BINS = 64
QSKETCH_QUANTILES = (0.5, 0.9, 0.99)


def _build_hist(values: np.ndarray, nbins: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Equal-count histogram of a value array: ≤ nbins (centroid,
    count) pairs, centroids ascending. Deterministic (stable sort,
    fixed split points)."""
    v = np.sort(values)
    n = len(v)
    if n <= nbins:
        cents, counts = np.unique(v, return_counts=True)
        return cents.astype(np.float64), counts.astype(np.int64)
    edges = (np.arange(nbins + 1) * n) // nbins
    cents = np.empty(nbins, np.float64)
    counts = np.empty(nbins, np.int64)
    for i in range(nbins):
        chunk = v[edges[i]:edges[i + 1]]
        cents[i] = chunk.mean()
        counts[i] = len(chunk)
    return cents, counts


def _merge_hist(cents: np.ndarray, counts: np.ndarray, nbins: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Ben-Haim & Tom-Tov (2010) streaming-histogram merge: repeatedly
    fuse the closest centroid pair (weighted mean) until ≤ nbins bins.
    Deterministic: ties resolve to the first minimum gap."""
    order = np.argsort(cents, kind="mergesort")
    c, n = cents[order].copy(), counts[order].copy()
    while len(c) > nbins:
        i = int(np.argmin(np.diff(c)))
        tot = n[i] + n[i + 1]
        c[i] = (c[i] * n[i] + c[i + 1] * n[i + 1]) / tot
        n[i] = tot
        c = np.delete(c, i + 1)
        n = np.delete(n, i + 1)
    return c, n


def _hist_quantile(cents: np.ndarray, counts: np.ndarray, q: float
                   ) -> float:
    """Quantile estimate from the histogram: cumulative counts located
    at the centroids, linear interpolation between them."""
    cum = np.cumsum(counts) - counts / 2.0
    target = q * counts.sum()
    return float(np.interp(target, cum, cents))


def approx_event_quantiles(sf_dir: str, nbins: int = QSKETCH_BINS):
    """Approximate per-type value quantiles via a MERGEABLE streaming
    histogram — the scale-path counterpart to the exact
    ``event_value_quantiles``: each block contributes one constant-size
    (centroids, counts) summary row per type, so the exchange payload
    is blocks × nbins regardless of event count, and the sketch
    composes under merge exactly like the HLL registers above
    (Ben-Haim & Tom-Tov 2010, public method). Output (event_type, q,
    value_approx); rows-only — accuracy pinned by an error-bound test
    against the exact quantiles."""
    ds = read_table(sf_dir, "events", ["event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "event_type": batch.column("event_type").to_pylist(),
            "value": batch.column("value").to_numpy(zero_copy_only=False),
        })
        types, cents, counts = [], [], []
        for et, sub in df.groupby("event_type", sort=False):
            c, n = _build_hist(sub["value"].to_numpy(), nbins)
            types.append(et)
            cents.append(c.tolist())
            counts.append(n.tolist())
        return pa.table({
            "event_type": pa.array(types, pa.string()),
            "cents": pa.array(cents, pa.list_(pa.float64())),
            "counts": pa.array(counts, pa.list_(pa.int64())),
        })

    def resolve(group: pa.Table) -> pa.Table:
        all_c = np.concatenate([np.asarray(x) for x
                                in group.column("cents").to_pylist()])
        all_n = np.concatenate([np.asarray(x, dtype=np.int64) for x
                                in group.column("counts").to_pylist()])
        c, n = _merge_hist(all_c, all_n, nbins)
        et = group.column("event_type")[0].as_py()
        return pa.table({
            "event_type": pa.array([et] * len(QSKETCH_QUANTILES),
                                   pa.string()),
            "q": pa.array(list(QSKETCH_QUANTILES), pa.float64()),
            "value_approx": pa.array(
                [_hist_quantile(c, n, q) for q in QSKETCH_QUANTILES],
                pa.float64()),
        })

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .map_groups(resolve, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# Bloom-filter membership sketch
# ---------------------------------------------------------------------------

BLOOM_M_BITS = 1 << 20   # 1 Mbit → 128 KB filter
BLOOM_K = 7              # probes per key (near-optimal for n ≈ m/10)
_BLOOM_SALT = np.uint64(0x9E3779B97F4A7C15)


def _bloom_indices(h: np.ndarray) -> np.ndarray:
    """k bit positions per 64-bit key hash (double hashing, Kirsch &
    Mitzenmacher 2006: idx_i = h1 + i·h2 mod m). Shape (len(h), k)."""
    h1 = _mix64(h)
    h2 = _mix64(h ^ _BLOOM_SALT) | np.uint64(1)  # odd → full-period step
    i = np.arange(BLOOM_K, dtype=np.uint64)
    return ((h1[:, None] + i[None, :] * h2[:, None])
            % np.uint64(BLOOM_M_BITS)).astype(np.int64)


def _bloom_set(bits: np.ndarray, h: np.ndarray) -> np.ndarray:
    idx = _bloom_indices(h).ravel()
    np.bitwise_or.at(bits, idx >> 3,
                     (np.uint8(1) << (idx & 7).astype(np.uint8)))
    return bits


def _bloom_test(bits: np.ndarray, h: np.ndarray) -> np.ndarray:
    idx = _bloom_indices(h)
    probe = bits[idx >> 3] & (np.uint8(1) << (idx & 7).astype(np.uint8))
    return (probe != 0).all(axis=1)


def bloom_agg(on: str = "key_hash", alias_name: str = "bloom"):
    """Bloom filter as a composable Ray Data ``AggregateFn``: the
    accumulator is the m/8-byte bitmap, accumulation sets k bits per
    key vectorized over the block, merge is elementwise OR — the same
    distributive-register shape as ``hll_agg``, so ONE exchange of
    one bitmap row per block builds the corpus filter."""
    from ray.data.aggregate import AggregateFn

    def _acc_block(bits: np.ndarray, block) -> np.ndarray:
        if hasattr(block, "column"):
            h = block.column(on).to_numpy(zero_copy_only=False)
        else:
            h = block[on].to_numpy()
        return _bloom_set(bits.copy(), h.astype(np.uint64))

    return AggregateFn(
        init=lambda k: np.zeros(BLOOM_M_BITS // 8, dtype=np.uint8),
        merge=lambda a, b: np.bitwise_or(a, b),
        accumulate_block=_acc_block,
        finalize=lambda bits: bits.tobytes(),
        name=alias_name,
    )


BLOOM_NEG_PROBES = 2000  # synthetic non-member probes


def bloom_membership(sf_dir: str):
    """Approximate set membership over the corpus — the streaming
    pre-filter a 100 TB incremental dedup runs before the exact
    digest join (a Bloom 'no' is definitive; only 'maybe' rows pay the
    exchange). Build: every document's text digest is hashed into ONE
    shared 128 KB bitmap via a global ``bloom_agg`` aggregate (one
    bitmap row per block crosses the exchange). Probe: every 10th
    document (true members) plus BLOOM_NEG_PROBES synthetic
    non-members, tested map-side against the ``ray.put``-broadcast
    filter. Output (probe_id, is_member_truth, maybe). Sketch op →
    rows-only; the no-false-negative and FP-bound properties are
    pinned by tests."""
    import ray

    from pd3f_ray.functions.textfns import hash_bytes

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def key_hashes(batch: pa.Table) -> pa.Table:
        hs = [hash_bytes(t.encode()) for t in
              batch.column("text").to_pylist()]
        return pa.table({"key_hash": pa.array(
            np.asarray(hs, np.uint64).view(np.int64), pa.int64())})

    built = docs.map_batches(key_hashes, batch_format="pyarrow") \
                .aggregate(bloom_agg("key_hash", "bloom"))
    bits_ref = ray.put(np.frombuffer(built["bloom"], dtype=np.uint8))

    def probe(batch: pa.Table) -> pa.Table:
        import ray as _ray

        bits = _ray.get(bits_ref)
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        probe_id, truth, keys = [], [], []
        for d, t in zip(ids, texts):
            if d % 10 == 0:  # member probe
                probe_id.append(f"member-{d}")
                truth.append(True)
                keys.append(hash_bytes(t.encode()))
        h = np.asarray(keys, np.uint64) if keys else \
            np.zeros(0, np.uint64)
        maybe = _bloom_test(bits, h)
        return pa.table({
            "probe_id": pa.array(probe_id, pa.string()),
            "is_member_truth": pa.array(truth, pa.bool_()),
            "maybe": pa.array(maybe, pa.bool_()),
        })

    members = docs.map_batches(probe, batch_format="pyarrow")

    # synthetic non-member probes, generated as a small parallel range
    def negatives(batch: pa.Table) -> pa.Table:
        import ray as _ray

        bits = _ray.get(bits_ref)
        ids = batch.column("id").to_pylist()
        keys = np.asarray([hash_bytes(f"bloom-negative-{i}".encode())
                           for i in ids], np.uint64)
        maybe = _bloom_test(bits, keys)
        return pa.table({
            "probe_id": pa.array([f"negative-{i}" for i in ids],
                                 pa.string()),
            "is_member_truth": pa.array([False] * len(ids), pa.bool_()),
            "maybe": pa.array(maybe, pa.bool_()),
        })

    neg = rd.range(BLOOM_NEG_PROBES).map_batches(
        negatives, batch_format="pyarrow")
    return members.union(neg)


# ---------------------------------------------------------------------------
# windowed exact COUNT DISTINCT: the hourly-dashboard rollup
# ---------------------------------------------------------------------------

_HOUR_US = 3_600_000_000


def hourly_unique_users(sf_dir: str):
    """Per tumbling 1-hour window: event count, exact unique-user
    count, and value sum — the windowed ``COUNT(DISTINCT ...)`` every
    analytics dashboard needs, which no single combiner aggregate can
    express. Two exchanges, both combiner-only:

    1. map-side ``group_by((window, user))`` per batch collapses raw
       events to one partial row per (window, user, block) carrying
       (n, cents); the exchange sums those per (window, user) —
       distinct pairs cross the wire, never events;
    2. a second map-side collapse counts users per (window, block) and
       a tiny ``groupby(window)`` sums counts and re-sums (n, cents).

    Output (window_id, n_events, n_users, sum_value_cents).

    Precondition: ts ≥ epoch 0 — window_id uses Python/numpy FLOOR
    division, while the DuckDB oracle's ``//`` truncates toward zero
    (-7//3 = -3 here vs -2 there), so pre-1970 timestamps would bucket
    differently between engine and oracle."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "events", columns=["ts", "user_id", "value"])

    def pair_partial(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch.column("ts"), pa.int64())
        window = pc.divide(us, pa.scalar(_HOUR_US, pa.int64()))
        v = batch.column("value").to_numpy(zero_copy_only=False) * 100.0
        cents = (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)
        g = pa.table({
            "window_id": window,
            "user_id": batch.column("user_id"),
            "cents": pa.array(cents, pa.int64()),
        }).group_by(["window_id", "user_id"]).aggregate(
            [("cents", "count"), ("cents", "sum")]
        )
        return g.rename_columns(["window_id", "user_id", "n", "cents"])

    pairs = (
        ds.map_batches(pair_partial, batch_format="pyarrow")
        .groupby(["window_id", "user_id"])
        .aggregate(Sum("n", alias_name="n"),
                   Sum("cents", alias_name="cents"))
    )

    def window_partial(batch: pa.Table) -> pa.Table:
        g = pa.table({
            "window_id": batch.column("window_id"),
            "n": batch.column("n"),
            "cents": batch.column("cents"),
        }).group_by("window_id").aggregate(
            [("n", "count"), ("n", "sum"), ("cents", "sum")]
        )
        return g.rename_columns(
            ["window_id", "n_users", "n_events", "sum_value_cents"])

    return (
        pairs.map_batches(window_partial, batch_format="pyarrow")
        .groupby("window_id")
        .aggregate(Sum("n_users", alias_name="n_users"),
                   Sum("n_events", alias_name="n_events"),
                   Sum("sum_value_cents", alias_name="sum_value_cents"))
    )


HOURLY_UNIQUE_SQL = """
SELECT epoch_us(ts) // 3600000000 AS window_id,
       CAST(count(DISTINCT user_id) AS BIGINT) AS n_users,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
           AS sum_value_cents
FROM events
GROUP BY window_id
"""


# ---------------------------------------------------------------------------
# Count-Min sketch: approximate per-key frequencies (overestimate-only)
# ---------------------------------------------------------------------------

CMS_W = 2048          # counters per row
CMS_D = 4             # hash rows
CMS_PROBES = 20       # users probed in the demo query
CMS_COMBINE_FANIN = 32  # level-1 tree-combine partitions (dial)
_CMS_SEEDS = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
                       0x165667B19E3779F9, 0x27D4EB2F165667C5],
                      dtype=np.uint64)


def _cms_partial(keys: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """D×W int64 counter matrix for one batch's (key, count) pairs."""
    m = np.zeros((CMS_D, CMS_W), np.int64)
    for d in range(CMS_D):
        idx = (_mix64(keys.astype(np.uint64) ^ _CMS_SEEDS[d])
               % np.uint64(CMS_W)).astype(np.int64)
        np.add.at(m[d], idx, counts)
    return m


def _cms_estimate(m: np.ndarray, key: int) -> int:
    ests = []
    for d in range(CMS_D):
        idx = int(_mix64(np.array([key], np.uint64) ^ _CMS_SEEDS[d])[0]
                  % np.uint64(CMS_W))
        ests.append(int(m[d, idx]))
    return min(ests)


def cms_user_counts(sf_dir: str, n_probes: int = CMS_PROBES):
    """Count-Min sketch of per-user event frequencies — the mergeable
    heavy-hitter counter for streams whose key space is too large to
    count exactly (Cormode & Muthukrishnan 2005). Each batch folds its
    (user, count) pairs into ONE fixed 4×2048 int64 matrix row
    (64 KB), the only thing the exchange carries; matrices merge by
    elementwise sum (exact — the sketch is linear), and point queries
    take the min across rows, which can only OVERestimate. The demo
    probes the ``n_probes`` smallest user_ids and returns estimate vs
    exact truth side by side. Output (user_id, true_n, est_n);
    rows-only (the sketch bound is pinned by property tests)."""
    import ray
    from ray.data.aggregate import Sum as _Sum

    ds = read_table(sf_dir, "events", ["user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy(zero_copy_only=False)
        keys, counts = np.unique(uid, return_counts=True)
        m = _cms_partial(keys, counts.astype(np.int64))
        return pa.table({"sketch": pa.array([m.tobytes()], pa.binary())})

    def combine(batch: pa.Table) -> pa.Table:
        acc = np.zeros((CMS_D, CMS_W), np.int64)
        for raw in batch.column("sketch").to_pylist():
            acc += np.frombuffer(raw, np.int64).reshape(CMS_D, CMS_W)
        return pa.table({"sketch": pa.array([acc.tobytes()], pa.binary())})

    # two-level tree combine: at corpus scale the per-block sketch rows
    # number in the millions (64 KB each) — summing them on the driver
    # is an OOM. Level 1 sums within CMS_COMBINE_FANIN fixed partitions
    # (workers), level 2 sums the ≤fan-in survivors in one task; only
    # ONE 64 KB matrix ever reaches the driver.
    merged = (
        ds.map_batches(partial, batch_format="pyarrow")
        .repartition(CMS_COMBINE_FANIN)
        .map_batches(combine, batch_format="pyarrow", batch_size=None)
        .repartition(1)
        .map_batches(combine, batch_format="pyarrow", batch_size=None)
    )
    (raw,) = [r for b in ray.get(merged.to_arrow_refs())
              for r in b.column("sketch").to_pylist()]
    m = np.frombuffer(raw, np.int64).reshape(CMS_D, CMS_W)

    # exact truth for the probe set (combiner aggregate, tiny output)
    def truth_partial(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy(zero_copy_only=False)
        keys, counts = np.unique(uid, return_counts=True)
        return pa.table({
            "user_id": pa.array(keys.astype(np.int64), pa.int64()),
            "n": pa.array(counts.astype(np.int64), pa.int64()),
        })

    truth = (
        ds.map_batches(truth_partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(_Sum("n", alias_name="true_n"))
    )

    def probe(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy(zero_copy_only=False)
        keep = uid < n_probes  # fixture user_ids are dense from 0
        t = batch.filter(pa.array(keep))
        ests = [_cms_estimate(m, int(u)) for u in
                t.column("user_id").to_pylist()]
        return pa.table({
            "user_id": t.column("user_id"),
            "true_n": t.column("true_n"),
            "est_n": pa.array(ests, pa.int64()),
        })

    return truth.map_batches(probe, batch_format="pyarrow")

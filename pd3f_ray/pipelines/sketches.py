"""Cardinality sketches over the ``events`` table.

Two implementations of per-event-type distinct-user counting:

- **distinct_users** — exact, oracle-checked: per-batch pair dedup
  (map-side), one hash-aggregate exchange on (event_type, user_id),
  then a tiny per-type count. The exchange carries distinct pairs only.
- **approx_distinct_users** — HyperLogLog (Flajolet et al. 2007,
  p=12 → 4096 registers, ~1.6% standard error): each block reduces to
  ONE 4 KB register row per event_type present, and one task merges
  them by elementwise max (``exchange.fold``) — the constant-size-sketch
  pattern that replaces the exact plan when the distinct set itself is
  too big to shuffle. Rows-only check; relative error pinned against
  the exact op in tests.

No reference counterpart (the reference is a single-document extractor);
this is part of the engine's large-scale training-data toolkit.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from pd3f_ray.core.arrowkit import round_half_away, run_offsets
from pd3f_ray.core.cluster import read_table
from pd3f_ray.functions.textfns import mix64 as _mix64
from pd3f_ray.stages.exchange import (
    finish_agg,
    fold,
    group_map,
    hash_agg,
    input_partitions,
)

HLL_P = 12  # 2^12 registers
HLL_M = 1 << HLL_P


def distinct_users(sf_dir: str):
    """Exact distinct user_id count per event_type. Output
    (event_type, n_users)."""
    ds = read_table(sf_dir, "events", ["event_type", "user_id"])
    pairs = hash_agg(ds, ["event_type", "user_id"], {})
    return finish_agg(pairs, ["event_type"], {"n_users": ([], "count_all")})


DISTINCT_USERS_SQL = """
SELECT event_type,
       CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
FROM events
GROUP BY event_type
"""


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


def _hll_partial(t: pa.Table) -> pa.Table:
    """One block → one row per event type present (a null type is one
    type): the type, its 4 KB HLL registers and its event count."""
    codes = pc.dictionary_encode(t.column("event_type").combine_chunks(),
                                 null_encoding="encode")
    idx = codes.indices.to_numpy(zero_copy_only=False)
    uid = t.column("user_id").to_numpy(zero_copy_only=False)
    rows = [idx == i for i in range(len(codes.dictionary))]
    return pa.table({
        "event_type": codes.dictionary.cast(pa.string()),
        "regs": pa.array([_hll_registers(uid[r]).tobytes() for r in rows],
                         pa.binary()),
        "n_events": pa.array([int(r.sum()) for r in rows], pa.int64()),
    })


def _hll_merge(t: pa.Table) -> pa.Table:
    """The partials of every block → one row per event type: registers
    merged by elementwise max, counts by sum, then the estimate. Types
    ascending, a null type last."""
    order = pc.sort_indices(t, sort_keys=[("event_type", "ascending")])
    t = t.take(order)
    starts, ends = run_offsets(t, ["event_type"])
    regs = np.frombuffer(b"".join(t.column("regs").to_pylist()),
                         np.uint8).reshape(-1, HLL_M)
    n = t.column("n_events").to_numpy(zero_copy_only=False)
    runs = list(zip(starts, ends))
    return pa.table({
        "event_type": t.column("event_type").take(pa.array(starts)),
        "n_users_approx": pa.array(
            [_hll_estimate(regs[s:e].max(axis=0)) for s, e in runs],
            pa.int64()),
        "n_events": pa.array([int(n[s:e].sum()) for s, e in runs],
                             pa.int64()),
    })


def approx_distinct_users(sf_dir: str):
    """HLL distinct user_id count per event_type: each block emits one
    4 KB register row per event_type present, and one task merges them
    by elementwise max. Output (event_type, n_users_approx). Rows-only
    (sketch estimate)."""
    return approx_distinct_users_agg(sf_dir).drop_columns(["n_events"])


def approx_distinct_users_agg(sf_dir: str):
    """``approx_distinct_users`` with each type's event count next to
    its estimate: the count rides the same register row and the same
    one-task merge. Output (event_type, n_users_approx, n_events).
    Rows-only (sketch estimate); tests pin estimate equality with
    ``approx_distinct_users``."""
    ds = read_table(sf_dir, "events", ["event_type", "user_id"])
    return fold(ds, _hll_partial, _hll_merge)


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
        et_col = batch.column("event_type")
        et_all = et_col.to_numpy(zero_copy_only=False)
        value = batch.column("value").to_numpy(zero_copy_only=False)
        types, cents, counts = [], [], []
        for et in pc.unique(et_col).drop_null().to_pylist():
            c, n = _build_hist(value[et_all == et], nbins)
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

    return group_map(ds.map_batches(partial, batch_format="pyarrow"),
                     "event_type", resolve)


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


BLOOM_NEG_PROBES = 2000  # synthetic non-member probes


def bloom_membership(sf_dir: str):
    """Approximate set membership over the corpus — the streaming
    pre-filter a 100 TB incremental dedup runs before the exact
    digest join (a Bloom 'no' is definitive; only 'maybe' rows pay the
    exchange). Build: each block hashes its documents' text digests
    into one 128 KB bitmap, and one task ORs the blocks' bitmaps
    (``exchange.fold``). Probe: every 10th document (true members) plus
    BLOOM_NEG_PROBES synthetic non-members, tested map-side against the
    ``ray.put``-broadcast filter. Output (probe_id, is_member_truth,
    maybe). Sketch op → rows-only; the no-false-negative and FP-bound
    properties are pinned by tests."""
    import ray

    from pd3f_ray.functions.textfns import hash_bytes

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def block_bitmap(batch: pa.Table) -> pa.Table:
        h = np.asarray([hash_bytes(t.encode()) for t in
                        batch.column("text").to_pylist()], np.uint64)
        bits = _bloom_set(np.zeros(BLOOM_M_BITS // 8, np.uint8), h)
        return pa.table({"bloom": pa.array([bits.tobytes()], pa.binary())})

    def union(t: pa.Table) -> pa.Table:
        bits = np.bitwise_or.reduce(np.frombuffer(
            b"".join(t.column("bloom").to_pylist()), np.uint8).reshape(
                -1, BLOOM_M_BITS // 8), axis=0)
        return pa.table({"bloom": pa.array([bits.tobytes()], pa.binary())})

    (built,) = fold(docs, block_bitmap, union).take(1)
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
    express. Two ``hash_agg`` exchanges:

    1. per (window, user): the block partials collapse raw events to
       one row per (window, user, block) carrying (n, cents), and the
       exchange sums them — distinct pairs cross the wire, never events;
    2. per window: counts the users and re-sums (n, cents), its block
       partials running in the first exchange's reduce task.

    Output (window_id, n_events, n_users, sum_value_cents).

    Precondition: ts ≥ epoch 0 — window_id uses Python/numpy FLOOR
    division, while the DuckDB oracle's ``//`` truncates toward zero
    (-7//3 = -3 here vs -2 there), so pre-1970 timestamps would bucket
    differently between engine and oracle."""
    ds = read_table(sf_dir, "events", columns=["ts", "user_id", "value"])

    def windowed(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch.column("ts"), pa.int64())
        window = pc.divide(us, pa.scalar(_HOUR_US, pa.int64()))
        v = batch.column("value").to_numpy(zero_copy_only=False) * 100.0
        cents = round_half_away(v)
        return pa.table({
            "window_id": window,
            "user_id": batch.column("user_id"),
            "cents": pa.array(cents, pa.int64()),
        })

    pairs = hash_agg(ds.map_batches(windowed, batch_format="pyarrow"),
                     ["window_id", "user_id"],
                     {"n": ("cents", "count"), "cents": ("cents", "sum")})
    return hash_agg(pairs, ["window_id"],
                    {"n_users": ("n", "count"), "n_events": ("n", "sum"),
                     "sum_value_cents": ("cents", "sum")})


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
    # is an OOM. Level 1 sums within the input's partitions (workers),
    # level 2 (``fold``) sums the survivors in one task; only ONE 64 KB
    # matrix ever reaches the driver. A one-partition input is the fold.
    sketches = ds.map_batches(partial, batch_format="pyarrow")
    fan_in = input_partitions(ds)
    if fan_in > 1:
        sketches = sketches.repartition(fan_in)
    (merged,) = fold(sketches, combine, combine).take(1)
    m = np.frombuffer(merged["sketch"], np.int64).reshape(CMS_D, CMS_W)

    # exact truth for the probe set
    truth = hash_agg(ds, ["user_id"], {"true_n": ([], "count_all")})

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

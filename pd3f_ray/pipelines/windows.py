"""Windowed / order-dependent operators over the ``events`` table.

Ray Data has no native session windows or as-of joins; both are
expressed here as the engine's standard bucketed-shuffle pattern: ONE
``user_id % B`` ``bucket_exchange`` (stages/exchange.py), then
vectorized per-user logic in each reducer call (sort by (ts, event_id)
→ gap scan / prior-index scan); a call holds ≤ 64 whole buckets
(cf. stages/pages.py for the same pattern).

Both are oracle-checked against DuckDB window functions; money-like
sums travel as integer cents so float summation order can't break the
value-hash comparison.

Reference parity note: the reference (pd3f-core) has no windows — these
belong to the engine-level training-data op families (SURVEY.md §8).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from pd3f_ray.core.cluster import read_table
from pd3f_ray.stages.exchange import bucket_exchange

SESSION_GAP_MIN = 30
WINDOW_BUCKETS = 256


def _bucketed(ds, fn, num_buckets: int = WINDOW_BUCKETS):
    def add_bucket(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy(zero_copy_only=False)
        b = pa.array((uid % num_buckets).astype(np.int32), pa.int32())
        return batch.append_column("bucket", b)

    return bucket_exchange(ds.map_batches(add_bucket, batch_format="pyarrow"),
                           "bucket", num_buckets, fn)


def _col_np(tbl: pa.Table, name: str) -> np.ndarray:
    """Arrow column → numpy (chunk-merging; timestamps come back as
    datetime64[us]). The entry point of the pyarrow-native reducers
    below — the partition table is the reduce block itself, so only the
    columns actually touched are materialized, instead of the whole
    Arrow→pandas→Arrow block round-trip a pandas reducer pays."""
    return tbl.column(name).to_numpy(zero_copy_only=False)


def _latest_idx(uid: np.ndarray, ts: np.ndarray,
                eid: np.ndarray) -> np.ndarray:
    """Row indices of each user's (ts, event_id)-argmax — the shared
    keep-latest kernel of the map-side partial and the bucketed
    reduce."""
    order = np.lexsort((eid, ts, uid))
    us = uid[order]
    last = np.flatnonzero(np.r_[us[1:] != us[:-1], True])
    return order[last]


def user_sessions(sf_dir: str, gap_min: int = SESSION_GAP_MIN):
    """Per-user session windows: a session breaks after ``gap_min``
    minutes of inactivity. Output one row per session:
    (user_id, session_id, session_start, session_end, n_events,
    sum_value_cents), session_id numbered per user in time order."""
    ds = read_table(sf_dir, "events", ["event_id", "ts", "user_id", "value"])
    gap_us = gap_min * 60 * 1_000_000

    def sessions(group: pa.Table) -> pa.Table:
        uid = _col_np(group, "user_id")
        eid = _col_np(group, "event_id")
        ts = _col_np(group, "ts").astype("datetime64[us]").astype(np.int64)
        val = _col_np(group, "value")
        order = np.lexsort((eid, ts, uid))
        uid, ts, val = uid[order], ts[order], val[order]
        v = val * 100
        # DuckDB round() is half-away-from-zero (np.rint is half-even)
        cents = (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)
        # a session starts at each user's first row or after a gap; all
        # per-session stats are segment reduces over the sorted stream
        first = np.r_[True, uid[1:] != uid[:-1]]
        new_sess = first.copy()
        if len(ts) > 1:
            new_sess[1:] |= ts[1:] - ts[:-1] > gap_us
        starts = np.flatnonzero(new_sess)
        ends = np.r_[starts[1:], len(uid)]
        if len(starts) == 0:
            e = pa.array(np.empty(0, np.int64), pa.int64())
            et = pa.array(np.empty(0, "datetime64[us]"),
                          pa.timestamp("us"))
            return pa.table({"user_id": e, "session_id": e,
                             "session_start": et, "session_end": et,
                             "n_events": e, "sum_value_cents": e})
        # 1-based session number within each user: session index minus
        # the index of that user's first session
        s_user = uid[starts]
        s_first = np.flatnonzero(np.r_[True, s_user[1:] != s_user[:-1]])
        per_user = np.diff(np.r_[s_first, len(starts)])
        sid = (np.arange(len(starts), dtype=np.int64)
               - np.repeat(s_first, per_user) + 1)
        return pa.table({
            "user_id": pa.array(s_user, pa.int64()),
            "session_id": pa.array(sid, pa.int64()),
            "session_start": pa.array(
                ts[starts].astype("datetime64[us]"), pa.timestamp("us")),
            "session_end": pa.array(
                ts[ends - 1].astype("datetime64[us]"), pa.timestamp("us")),
            "n_events": pa.array((ends - starts).astype(np.int64),
                                 pa.int64()),
            "sum_value_cents": pa.array(np.add.reduceat(cents, starts),
                                        pa.int64()),
        })

    return _bucketed(ds, sessions)


USER_SESSIONS_SQL = f"""
WITH d AS (
  SELECT user_id, ts, event_id, value,
         CASE WHEN lag(ts) OVER w IS NULL
                OR ts - lag(ts) OVER w > INTERVAL {SESSION_GAP_MIN} MINUTE
              THEN 1 ELSE 0 END AS new_sess
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
s AS (
  SELECT user_id, ts, value,
         CAST(sum(new_sess) OVER (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id
  FROM d
)
SELECT user_id,
       session_id,
       min(ts) AS session_start,
       max(ts) AS session_end,
       count(*) AS n_events,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
           AS sum_value_cents
FROM s
GROUP BY user_id, session_id
"""


def purchase_attribution(sf_dir: str):
    """As-of lookup within the event stream: for every 'purchase' event,
    the same user's most recent STRICTLY PRIOR non-purchase event
    (ties broken by event_id). Output (event_id, prior_event_id) with
    prior_event_id = -1 when no prior event exists (a sentinel instead
    of NULL so both engines emit plain int64 — nullable columns come
    back as float64 from the SQL oracle and break value-hash compares)."""
    ds = read_table(sf_dir, "events",
                    ["event_id", "ts", "user_id", "event_type"])

    def attribute(group: pa.Table) -> pa.Table:
        uid = _col_np(group, "user_id")
        eid = _col_np(group, "event_id")
        ts = _col_np(group, "ts")
        etypes = _col_np(group, "event_type")
        order = np.lexsort((eid, ts, uid))
        uid, ids, etypes = uid[order], eid[order], etypes[order]
        n = len(uid)
        if n == 0:
            e = pa.array(np.empty(0, np.int64), pa.int64())
            return pa.table({"event_id": e, "prior_event_id": e})
        # position of the latest non-purchase row at-or-before each row,
        # via ONE global running max over the user-sorted stream: a
        # carried position from an earlier user is < this user's segment
        # start, so the per-user reset is the seg_start comparison (no
        # per-user loop)
        non_p = etypes != "purchase"
        idx = np.where(non_p, np.arange(n), -1)
        last_np = np.maximum.accumulate(idx)
        starts = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
        counts = np.diff(np.r_[starts, n])
        seg_start = np.repeat(starts, counts)
        valid = last_np >= seg_start
        prior = np.where(valid, ids[np.maximum(last_np, 0)], -1)
        # a purchase row has idx = -1, so last_np at it is automatically
        # STRICTLY prior
        p = etypes == "purchase"
        return pa.table({
            "event_id": pa.array(ids[p].astype(np.int64), pa.int64()),
            "prior_event_id": pa.array(prior[p].astype(np.int64),
                                       pa.int64()),
        })

    return _bucketed(ds, attribute)


PURCHASE_ATTRIBUTION_SQL = """
SELECT p.event_id,
       COALESCE((SELECT e.event_id
          FROM events e
         WHERE e.user_id = p.user_id
           AND e.event_type != 'purchase'
           AND (e.ts < p.ts OR (e.ts = p.ts AND e.event_id < p.event_id))
         ORDER BY e.ts DESC, e.event_id DESC
         LIMIT 1), -1) AS prior_event_id
FROM events p
WHERE p.event_type = 'purchase'
"""


# ---------------------------------------------------------------------------
# sliding event-time windows (1 h window, 15 min slide)
# ---------------------------------------------------------------------------

SLIDE_US = 900_000_000        # 15 min
SLIDE_WINDOW_US = 3_600_000_000  # 1 h → each event lands in 4 windows

def events_sliding(sf_dir: str):
    """Sliding 1-hour windows advancing every 15 minutes, per
    event_type: each event contributes to WINDOW/SLIDE = 4 consecutive
    windows (window w covers [w*SLIDE, w*SLIDE + WINDOW)). The map side
    explodes each event into its 4 (event_type, window_id) partials and
    pre-aggregates within the batch, so the one exchange carries
    per-(batch, type, window) partials — the replication factor never
    reaches the shuffle. Output (event_type, window_id, n_events,
    sum_value_micros); oracle-checked against a generate_series
    LATERAL join."""
    import pyarrow.compute as pc

    from pd3f_ray.pipelines.relational import _round_opts

    ds = read_table(sf_dir, "events", ["event_type", "ts", "value"])
    k = SLIDE_WINDOW_US // SLIDE_US  # windows per event

    def partial(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False)
        micros = pc.cast(
            pc.round(pc.multiply(batch.column("value"), pa.scalar(1e6)),
                     options=_round_opts()),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        w_max = us // SLIDE_US
        et = batch.column("event_type")
        parts = []
        for off in range(k):
            parts.append(pa.table({
                "event_type": et,
                "window_id": pa.array(w_max - off, pa.int64()),
                "micros": pa.array(micros, pa.int64()),
            }))
        g = pa.concat_tables(parts).group_by(
            ["event_type", "window_id"]).aggregate(
            [("micros", "count"), ("micros", "sum")])
        return g.rename_columns(
            ["event_type", "window_id", "n_events", "sum_value_micros"])

    from ray.data.aggregate import Sum

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "window_id"])
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("sum_value_micros", alias_name="sum_value_micros"),
        )
    )


EVENTS_SLIDING_SQL = f"""
WITH exploded AS (
  SELECT event_type,
         unnest(generate_series(
            CAST(epoch_us(ts) // {SLIDE_US} AS BIGINT)
                - {SLIDE_WINDOW_US // SLIDE_US - 1},
            CAST(epoch_us(ts) // {SLIDE_US} AS BIGINT))) AS window_id,
         CAST(round(value * 1000000) AS BIGINT) AS micros
  FROM events
)
SELECT event_type, window_id,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(micros) AS BIGINT) AS sum_value_micros
FROM exploded GROUP BY event_type, window_id
"""

# ---------------------------------------------------------------------------
# keep-latest-per-key (snapshot dedup) and running totals
# ---------------------------------------------------------------------------


def latest_event_per_user(sf_dir: str):
    """Keep each user's latest event — the keep-latest-snapshot dedup
    every crawl/CDC pipeline needs (e.g. one row per url at the newest
    warc_ts). Two-level exact plan: a map-side partial keeps one winner
    per user per BATCH (argmax over (ts, event_id), vectorized), so the
    exchange carries ≤ one row per (block, user) instead of the event
    stream; the bucketed reduce re-applies the same argmax. Output
    (user_id, last_event_id, last_ts, last_event_type)."""
    ds = read_table(sf_dir, "events",
                    ["event_id", "ts", "user_id", "event_type"])

    def keep_latest(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        idx = _latest_idx(_col_np(batch, "user_id"), _col_np(batch, "ts"),
                          _col_np(batch, "event_id"))
        return batch.take(pa.array(np.sort(idx)))

    partial = ds.map_batches(keep_latest, batch_format="pyarrow")

    def resolve(group: pa.Table) -> pa.Table:
        out = keep_latest(group)
        return pa.table({
            "user_id": out.column("user_id"),
            "last_event_id": out.column("event_id"),
            "last_ts": out.column("ts"),
            "last_event_type": out.column("event_type"),
        })

    return _bucketed(partial, resolve)


LATEST_EVENT_SQL = """
SELECT user_id,
       event_id AS last_event_id,
       ts AS last_ts,
       event_type AS last_event_type
FROM events
QUALIFY row_number() OVER (PARTITION BY user_id
                           ORDER BY ts DESC, event_id DESC) = 1
"""


def user_running_total(sf_dir: str):
    """Cumulative per-user spend: for every event, the running sum of
    value over the user's history up to and including it (ordered by
    (ts, event_id)). The bucketed-shuffle pattern of this module —
    ONE user-bucket exchange, then a vectorized in-group sort + cumsum
    per user; sums travel as integer cents so the value-hash compare
    is exact. Output (event_id, user_id, cum_value_cents)."""
    ds = read_table(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def running(group: pa.Table) -> pa.Table:
        uid = _col_np(group, "user_id")
        eid = _col_np(group, "event_id")
        ts = _col_np(group, "ts")
        val = _col_np(group, "value")
        order = np.lexsort((eid, ts, uid))
        uid, eid, val = uid[order], eid[order], val[order]
        v = val * 100
        # DuckDB round() is half-away-from-zero (np.rint is half-even)
        cents = (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)
        # per-user cumsum = global cumsum minus the prefix total at each
        # user-segment start (one pass, no per-user loop)
        cum = np.cumsum(cents)
        starts = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
        seg_base = np.r_[np.zeros(1, np.int64), cum[starts[1:] - 1]]
        counts = np.diff(np.r_[starts, len(uid)])
        cum -= np.repeat(seg_base, counts)
        return pa.table({
            "event_id": pa.array(eid, pa.int64()),
            "user_id": pa.array(uid, pa.int64()),
            "cum_value_cents": pa.array(cum, pa.int64()),
        })

    return _bucketed(ds, running)


RUNNING_TOTAL_SQL = """
SELECT event_id, user_id,
       CAST(SUM(CAST(round(value * 100) AS BIGINT))
            OVER (PARTITION BY user_id ORDER BY ts, event_id
                  ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum_value_cents
FROM events
"""


def late_events(sf_dir: str):
    """Out-of-order (late-data) detection — the watermark primitive of
    a streaming ingest: an event is LATE if its ts is older than the
    max ts among events of the same user that arrived before it. The
    synthetic events table is perfectly time-ordered, so arrival order
    is simulated by a deterministic permutation both sides compute
    identically: arrival rank = md5(event_id) hex (ties by event_id).

    Plan: stateless map attaches the arrival key; ONE user-bucket
    exchange; in-group vectorized scan (sort by (user, arrival), running
    cummax of ts per user, compare against the strict-predecessor max).
    Output one row per late event: (event_id, user_id, lateness_us)."""
    import hashlib

    ds = read_table(sf_dir, "events", ["event_id", "ts", "user_id"])

    def arrival(batch: pa.Table) -> pa.Table:
        ids = batch.column("event_id").to_pylist()
        key = [hashlib.md5(str(i).encode()).hexdigest() for i in ids]
        return batch.append_column("arrival", pa.array(key, pa.string()))

    def detect(group: pa.Table) -> pa.Table:
        uid = _col_np(group, "user_id")
        eid = _col_np(group, "event_id")
        arr = _col_np(group, "arrival")
        ts = _col_np(group, "ts").astype("datetime64[us]").astype(np.int64)
        order = np.lexsort((eid, arr, uid))
        uid, eid, ts = uid[order], eid[order], ts[order]
        n = len(uid)
        if n == 0:
            e = pa.array(np.empty(0, np.int64), pa.int64())
            return pa.table({"event_id": e, "user_id": e, "lateness_us": e})
        first = np.r_[True, uid[1:] != uid[:-1]]
        # strict predecessor max within the user = running cummax shifted
        # one row, masked at each user's first row (pandas Series groupby
        # over the already-extracted numpy columns — no block conversion)
        prev = np.roll(pd.Series(ts).groupby(uid, sort=False)
                       .cummax().to_numpy(np.int64), 1)
        late = (~first) & (ts < prev)
        return pa.table({
            "event_id": pa.array(eid[late], pa.int64()),
            "user_id": pa.array(uid[late], pa.int64()),
            "lateness_us": pa.array((prev - ts)[late].astype(np.int64),
                                    pa.int64()),
        })

    return _bucketed(ds.map_batches(arrival, batch_format="pyarrow"), detect)


LATE_EVENTS_SQL = """
SELECT event_id, user_id,
       CAST(date_diff('microseconds', ts, prev_max) AS BIGINT) AS lateness_us
FROM (
    SELECT event_id, user_id, ts,
           max(ts) OVER (PARTITION BY user_id
                         ORDER BY md5(CAST(event_id AS VARCHAR)), event_id
                         ROWS BETWEEN UNBOUNDED PRECEDING
                              AND 1 PRECEDING) AS prev_max
    FROM events)
WHERE ts < prev_max
"""


# ---------------------------------------------------------------------------
# per-user ordered event sequences (session-sequence training data)
# ---------------------------------------------------------------------------


def event_sequences(sf_dir: str):
    """Per-user time-ordered event-type sequence — the "user history
    string" shape that sequence-model training data (and session-based
    recommenders) need. Output one row per user:
    (user_id, seq = event types joined with ',' in (ts, event_id)
    order, n_events).

    Plan: the standard ONE ``user_id % B`` bucket exchange; inside a
    partition, one vectorized sort by (user_id, ts, event_id) and a
    per-user join of the type strings. Per-call memory is bounded by
    users-per-partition × events-per-user — the same contract as
    ``user_sessions``. Oracle: string_agg ORDER BY (ts, event_id)."""
    ds = read_table(sf_dir, "events",
                    ["event_id", "ts", "user_id", "event_type"])

    def build(group: pa.Table) -> pa.Table:
        uid = _col_np(group, "user_id")
        eid = _col_np(group, "event_id")
        ts = _col_np(group, "ts")
        types = _col_np(group, "event_type")
        order = np.lexsort((eid, ts, uid))
        uid, types = uid[order], types[order]
        if len(uid) == 0:
            e = pa.array(np.empty(0, np.int64), pa.int64())
            return pa.table({"user_id": e, "seq": pa.array([], pa.string()),
                             "n_events": e})
        # user boundaries in the sorted stream → one python join per user
        # (the string concat itself IS the computation here)
        starts = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
        ends = np.r_[starts[1:], len(uid)]
        return pa.table({
            "user_id": pa.array(uid[starts], pa.int64()),
            "seq": pa.array([",".join(types[s:e])
                             for s, e in zip(starts, ends)], pa.string()),
            "n_events": pa.array((ends - starts).astype(np.int64),
                                 pa.int64()),
        })

    return _bucketed(ds, build)


EVENT_SEQUENCES_SQL = """
SELECT user_id,
       string_agg(event_type, ',' ORDER BY ts, event_id) AS seq,
       count(*) AS n_events
FROM events
GROUP BY user_id
"""


# ---------------------------------------------------------------------------
# interval (range) join — no equi-key, time-bucketed overlap plan
# ---------------------------------------------------------------------------

IVAL_WINDOW_MIN = 30          # window length
IVAL_ANCHOR_MOD = 100         # every 100th event anchors a window
IVAL_BUCKET_US = 3_600_000_000  # 1 h time buckets for the overlap shuffle


def interval_join_events(sf_dir: str):
    """True range join (NO equi-key): windows = [ts, ts+30 min) anchored
    at every event with ``event_id % 100 == 0``; every event (any user)
    whose ts falls inside a window matches it. Output per window:
    (win_id = anchor event_id, n_events, sum_value_cents).

    Ray Data has no range join; the scale plan is the classic
    time-bucketed overlap join: each EVENT is keyed by its own 1-hour
    bucket; each WINDOW row is REPLICATED into every hour bucket its
    interval covers (≤ 2 for a 30-min window — replication factor =
    window/bucket + 1, a constant); ONE ``groupby(bucket)`` exchange
    co-locates candidates, and the in-group match is fully vectorized:
    events sorted by ts once, ``np.searchsorted`` of window edges gives
    each window's [lo, hi) slice, prefix sums of the sorted cent values
    give the value sums — no per-pair work. An event lives in exactly
    one bucket, so each (window, event) match is found exactly once;
    per-bucket partial rows then fold in a second, window-scale
    ``groupby(win_id)`` (the anchor event itself always matches, so no
    window is lost to an empty-partial edge)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    win_us = IVAL_WINDOW_MIN * 60 * 1_000_000
    ds = read_table(sf_dir, "events", ["event_id", "ts", "value"])

    def explode(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy(zero_copy_only=False)
        ts = batch.column("ts").cast(pa.timestamp("us")).to_numpy(
            zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        v = batch.column("value").to_numpy(zero_copy_only=False) * 100
        cents = (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)

        # probe side: every event in its own hour bucket
        out_bucket = [ts // IVAL_BUCKET_US]
        out_kind = [np.zeros(len(eid), np.int8)]
        out_id = [eid]
        out_ts = [ts]
        out_cents = [cents]

        # build side: windows replicated across covered hour buckets
        anchors = eid % IVAL_ANCHOR_MOD == 0
        ws = ts[anchors]
        wid = eid[anchors]
        lo = ws // IVAL_BUCKET_US
        hi = (ws + win_us - 1) // IVAL_BUCKET_US
        # a window touches at most floor((win-1)/bucket) + 2 buckets
        # (offset 0 plus one per boundary it can cross)
        for off in range(int((win_us - 1) // IVAL_BUCKET_US) + 2):
            m = lo + off <= hi
            out_bucket.append(lo[m] + off)
            out_kind.append(np.ones(int(m.sum()), np.int8))
            out_id.append(wid[m])
            out_ts.append(ws[m])
            out_cents.append(np.zeros(int(m.sum()), np.int64))

        return pa.table({
            "bucket": pa.array(np.concatenate(out_bucket), pa.int64()),
            "kind": pa.array(np.concatenate(out_kind), pa.int8()),
            "id": pa.array(np.concatenate(out_id), pa.int64()),
            "ts_us": pa.array(np.concatenate(out_ts), pa.int64()),
            "cents": pa.array(np.concatenate(out_cents), pa.int64()),
        })

    def match(group: pa.Table) -> pa.Table:
        kind = _col_np(group, "kind")
        ids = _col_np(group, "id")
        ts_us = _col_np(group, "ts_us")
        cents = _col_np(group, "cents")
        evm = kind == 0
        wm = ~evm
        if not evm.any() or not wm.any():
            e = pa.array(np.empty(0, np.int64), pa.int64())
            return pa.table({"win_id": e, "n": e, "cents": e})
        order = np.argsort(ts_us[evm], kind="stable")
        ets = ts_us[evm][order]
        ecents = cents[evm][order]
        csum = np.concatenate([[0], np.cumsum(ecents)])
        ws = ts_us[wm]
        # events of THIS bucket inside [ws, ws+win): clamp to the bucket
        # is implicit — only this bucket's events are present
        lo = np.searchsorted(ets, ws, side="left")
        hi = np.searchsorted(ets, ws + win_us, side="left")
        n = (hi - lo).astype(np.int64)
        keep = n > 0
        return pa.table({
            "win_id": pa.array(ids[wm][keep].astype(np.int64), pa.int64()),
            "n": pa.array(n[keep], pa.int64()),
            "cents": pa.array((csum[hi] - csum[lo])[keep].astype(np.int64),
                              pa.int64()),
        })

    partials = (ds.map_batches(explode, batch_format="pyarrow")
                .groupby("bucket")
                .map_groups(match, batch_format="pyarrow"))
    folded = partials.groupby("win_id").aggregate(
        Sum("n", alias_name="n_events"),
        Sum("cents", alias_name="sum_value_cents"),
    )

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"win_id": pa.array([], pa.int64()),
                             "n_events": pa.array([], pa.int64()),
                             "sum_value_cents": pa.array([], pa.int64())})
        return pa.table({
            "win_id": batch.column("win_id").cast(pa.int64()),
            "n_events": batch.column("n_events").cast(pa.int64()),
            "sum_value_cents": batch.column("sum_value_cents").cast(pa.int64()),
        })

    return folded.map_batches(finish, batch_format="pyarrow")


INTERVAL_JOIN_SQL = f"""
WITH w AS (
  SELECT event_id AS win_id, ts AS ws,
         ts + INTERVAL {IVAL_WINDOW_MIN} MINUTE AS we
  FROM events WHERE event_id % {IVAL_ANCHOR_MOD} = 0
)
SELECT w.win_id,
       count(*) AS n_events,
       CAST(sum(CAST(round(e.value * 100) AS BIGINT)) AS BIGINT)
           AS sum_value_cents
FROM w JOIN events e ON e.ts >= w.ws AND e.ts < w.we
GROUP BY w.win_id
"""


# ---------------------------------------------------------------------------
# funnel analysis (ordered-stage progression per user)
# ---------------------------------------------------------------------------

FUNNEL_STAGES = ("view", "click", "purchase")
FUNNEL_WINDOWS_MIN = (2880, 5760)  # view→click and click→purchase deadlines


def _funnel_user_stage(types: np.ndarray, times_us: np.ndarray,
                       deadlines_us) -> int:
    """Pure per-user funnel scan over a (ts, event_id)-sorted event
    slice: anchor each stage on the FIRST qualifying event strictly
    after the previous anchor; a stage whose first qualifying event
    misses its deadline fails (later in-deadline events do not rescue
    it — first-touch semantics, matching the SQL's rn=1 + deadline
    filter). Returns 0..len(FUNNEL_STAGES)."""
    pos = 0
    stage = 0
    anchor_ts = None
    for k, name in enumerate(FUNNEL_STAGES):
        hits = np.nonzero(types[pos:] == name)[0]
        if len(hits) == 0:
            break
        i = pos + hits[0]
        if k > 0 and times_us[i] - anchor_ts > deadlines_us[k - 1]:
            break  # first qualifying event missed the deadline
        stage = k + 1
        anchor_ts = times_us[i]
        pos = i + 1  # strictly after the anchor
    return stage


def funnel_stages(sf_dir: str):
    """Time-bounded ordered funnel: per user, how deep did they get
    through view → click → purchase, where each stage must occur
    STRICTLY after the previous stage's anchor AND within its deadline
    (click ≤ 48 h after the first view, purchase ≤ 96 h after that
    click — first-touch semantics: stage k anchors on the earliest
    qualifying event; ties broken by event_id). Output one row per
    user with at least one 'view': (user_id, stage ∈ {1,2,3}).

    Plan: the standard ONE ``user_id % B`` bucket exchange; inside a
    partition one vectorized (user, ts, event_id) sort, then a three-probe
    forward scan per user. Oracle: chained row-value-comparison argmin
    subqueries with the same interval bounds."""
    ds = read_table(sf_dir, "events",
                    ["event_id", "ts", "user_id", "event_type"])
    deadlines_us = [m * 60 * 1_000_000 for m in FUNNEL_WINDOWS_MIN]

    def scan(group: pa.Table) -> pa.Table:
        uid = _col_np(group, "user_id")
        eid = _col_np(group, "event_id")
        et = _col_np(group, "event_type")
        ts = _col_np(group, "ts").astype("datetime64[us]").astype(np.int64)
        order = np.lexsort((eid, ts, uid))
        uid, et, ts = uid[order], et[order], ts[order]
        out_u, out_s = [], []
        if len(uid):
            starts = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
            ends = np.r_[starts[1:], len(uid)]
            # the three-probe forward scan per user IS the computation
            for s, e in zip(starts, ends):
                stage = _funnel_user_stage(et[s:e], ts[s:e], deadlines_us)
                if stage >= 1:
                    out_u.append(int(uid[s]))
                    out_s.append(stage)
        return pa.table({
            "user_id": pa.array(out_u, pa.int64()),
            "stage": pa.array(out_s, pa.int64()),
        })

    return _bucketed(ds, scan)


FUNNEL_STAGES_SQL = f"""
WITH fv AS (
  SELECT user_id, ts, event_id
  FROM (SELECT user_id, ts, event_id,
               row_number() OVER (PARTITION BY user_id
                                  ORDER BY ts, event_id) AS rn
        FROM events WHERE event_type = 'view')
  WHERE rn = 1
),
fc AS (
  SELECT user_id, ts, event_id
  FROM (SELECT e.user_id, e.ts, e.event_id, fv.ts AS anchor_ts,
               row_number() OVER (PARTITION BY e.user_id
                                  ORDER BY e.ts, e.event_id) AS rn
        FROM events e JOIN fv ON e.user_id = fv.user_id
        WHERE e.event_type = 'click'
          AND (e.ts, e.event_id) > (fv.ts, fv.event_id))
  WHERE rn = 1
    AND ts <= anchor_ts + INTERVAL {FUNNEL_WINDOWS_MIN[0]} MINUTE
),
fp AS (
  SELECT user_id
  FROM (SELECT e.user_id, e.ts, fc.ts AS anchor_ts,
               row_number() OVER (PARTITION BY e.user_id
                                  ORDER BY e.ts, e.event_id) AS rn
        FROM events e JOIN fc ON e.user_id = fc.user_id
        WHERE e.event_type = 'purchase'
          AND (e.ts, e.event_id) > (fc.ts, fc.event_id))
  WHERE rn = 1
    AND ts <= anchor_ts + INTERVAL {FUNNEL_WINDOWS_MIN[1]} MINUTE
)
SELECT fv.user_id,
       CAST(CASE WHEN fp.user_id IS NOT NULL THEN 3
                 WHEN fc.user_id IS NOT NULL THEN 2
                 ELSE 1 END AS BIGINT) AS stage
FROM fv
LEFT JOIN fc ON fv.user_id = fc.user_id
LEFT JOIN fp ON fv.user_id = fp.user_id
"""


# ---------------------------------------------------------------------------
# per-user inter-arrival gap statistics (lag() semantics)
# ---------------------------------------------------------------------------


def event_gaps(sf_dir: str):
    """Per-user inter-arrival gap statistics — the ``lag()`` window
    primitive as a distributed op (think: time-between-fetches per
    crawl host, or inter-action dwell time per user). Same single
    ``user_id % B`` bucketed exchange as the rest of this module; the
    in-group scan is one vectorized ``np.diff`` over the (ts, event_id)
    sort per user. Gaps travel as integer microseconds so the sums are
    hash-exact. Users with a single event have no gap and are omitted
    (mirrors ``lag()`` returning NULL for the first row). Output
    (user_id, n_gaps, sum_gap_us, max_gap_us, min_gap_us)."""
    ds = read_table(sf_dir, "events", ["event_id", "ts", "user_id"])

    def gaps(group: pa.Table) -> pa.Table:
        uid = _col_np(group, "user_id")
        eid = _col_np(group, "event_id")
        ts = _col_np(group, "ts").astype("datetime64[us]").astype(np.int64)
        order = np.lexsort((eid, ts, uid))
        uid, ts = uid[order], ts[order]
        d = np.diff(ts)
        # rows where the user changes carry a cross-user diff — mask out
        same = uid[1:] == uid[:-1]
        gu, g = uid[1:][same], d[same]
        if len(gu) == 0:
            e = pa.array(np.empty(0, np.int64), pa.int64())
            return pa.table({"user_id": e, "n_gaps": e, "sum_gap_us": e,
                             "max_gap_us": e, "min_gap_us": e})
        # per-user segment reduce over the surviving gaps (gu is sorted)
        starts = np.flatnonzero(np.r_[True, gu[1:] != gu[:-1]])
        n = np.diff(np.r_[starts, len(gu)]).astype(np.int64)
        return pa.table({
            "user_id": pa.array(gu[starts], pa.int64()),
            "n_gaps": pa.array(n, pa.int64()),
            "sum_gap_us": pa.array(np.add.reduceat(g, starts), pa.int64()),
            "max_gap_us": pa.array(np.maximum.reduceat(g, starts),
                                   pa.int64()),
            "min_gap_us": pa.array(np.minimum.reduceat(g, starts),
                                   pa.int64()),
        })

    return _bucketed(ds, gaps)


EVENT_GAPS_SQL = """
WITH g AS (
  SELECT user_id,
         epoch_us(ts) - epoch_us(lag(ts) OVER (PARTITION BY user_id
                                               ORDER BY ts, event_id))
             AS gap_us
  FROM events
)
SELECT user_id,
       CAST(count(gap_us) AS BIGINT) AS n_gaps,
       CAST(sum(gap_us) AS BIGINT) AS sum_gap_us,
       CAST(max(gap_us) AS BIGINT) AS max_gap_us,
       CAST(min(gap_us) AS BIGINT) AS min_gap_us
FROM g
WHERE gap_us IS NOT NULL
GROUP BY user_id
"""


# ---------------------------------------------------------------------------
# training-label generation: next event per user (lead() semantics)
# ---------------------------------------------------------------------------


def next_event_label(sf_dir: str):
    """Per-event next-action labels — the ``lead()`` window primitive,
    which is exactly how next-action-prediction training pairs are cut
    from an event log: each event row gets the event_type and the
    time-to of the SAME user's next event (events with no successor get
    NULL / -1 and still appear — they're the sequence ends). Same single
    bucketed exchange as the rest of this module; the in-group scan is
    one vectorized shift per user segment. Output
    (event_id, user_id, event_type, next_type, gap_us) with gap_us = -1
    on the last event of a user."""
    ds = read_table(sf_dir, "events",
                    ["event_id", "ts", "user_id", "event_type"])

    def label(group: pa.Table) -> pa.Table:
        uid = _col_np(group, "user_id")
        eid = _col_np(group, "event_id")
        ts = _col_np(group, "ts").astype("datetime64[us]").astype(np.int64)
        et = _col_np(group, "event_type")
        order = np.lexsort((eid, ts, uid))
        uid, eid, ts, et = uid[order], eid[order], ts[order], et[order]
        nxt = np.full(len(et), None, object)
        gap = np.full(len(et), -1, np.int64)
        if len(et) > 1:
            same = uid[1:] == uid[:-1]
            nxt[:-1] = np.where(same, et[1:], None)
            gap[:-1] = np.where(same, ts[1:] - ts[:-1], -1)
        return pa.table({
            "event_id": pa.array(eid, pa.int64()),
            "user_id": pa.array(uid, pa.int64()),
            "event_type": pa.array(et, pa.string()),
            "next_type": pa.array(nxt, pa.string()),
            "gap_us": pa.array(gap, pa.int64()),
        })

    return _bucketed(ds, label)


NEXT_EVENT_LABEL_SQL = """
SELECT event_id, user_id, event_type,
       lead(event_type) OVER w AS next_type,
       CAST(coalesce(epoch_us(lead(ts) OVER w) - epoch_us(ts), -1)
            AS BIGINT) AS gap_us
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""


# ---------------------------------------------------------------------------
# sliding-window DISTINCT: unique users per 1h window advancing 15 min
# ---------------------------------------------------------------------------


def sliding_unique_users(sf_dir: str):
    """Unique users per sliding 1-hour window (15-minute slide) — the
    windowed COUNT DISTINCT composed with window replication: an event
    contributes to 4 windows, so the map side explodes to (window,
    user) pairs but DEDUPES them within the batch before anything
    ships; the first exchange then carries distinct pairs per block,
    the second counts per window over one-row-per-(pair) survivors.
    Both exchanges are combiner-only. Output (window_id, n_users).
    Precondition: ts ≥ epoch 0 (floor division here vs DuckDB's
    truncate-toward-zero ``//`` — see hourly_unique_users)."""
    from ray.data.aggregate import Count, Sum

    ds = read_table(sf_dir, "events", ["ts", "user_id"])
    k = SLIDE_WINDOW_US // SLIDE_US

    def pair_partial(batch: pa.Table) -> pa.Table:
        us = (batch.column("ts").cast(pa.int64())
              .to_numpy(zero_copy_only=False))
        uid = batch.column("user_id").to_numpy(zero_copy_only=False)
        w_max = us // SLIDE_US
        wins = np.concatenate([w_max - off for off in range(k)])
        users = np.tile(uid, k)
        t = pa.table({
            "window_id": pa.array(wins, pa.int64()),
            "user_id": pa.array(users, pa.int64()),
        })
        return t.group_by(["window_id", "user_id"]).aggregate([])

    pairs = (
        ds.map_batches(pair_partial, batch_format="pyarrow")
        .groupby(["window_id", "user_id"])
        .aggregate(Count(alias_name="n"))
    )

    def window_partial(batch: pa.Table) -> pa.Table:
        g = (batch.select(["window_id"])
             .group_by("window_id").aggregate([([], "count_all")]))
        return g.rename_columns(["window_id", "n_users"])

    return (
        pairs.map_batches(window_partial, batch_format="pyarrow")
        .groupby("window_id")
        .aggregate(Sum("n_users", alias_name="n_users"))
    )


SLIDING_UNIQUE_SQL = f"""
WITH exploded AS (
  SELECT DISTINCT
         unnest(generate_series(
            CAST(epoch_us(ts) // {SLIDE_US} AS BIGINT)
                - {SLIDE_WINDOW_US // SLIDE_US - 1},
            CAST(epoch_us(ts) // {SLIDE_US} AS BIGINT))) AS window_id,
         user_id
  FROM events
)
SELECT window_id, CAST(count(*) AS BIGINT) AS n_users
FROM exploded GROUP BY window_id
"""


# ---------------------------------------------------------------------------
# watermark-filtered windowing: hourly rollup over ON-TIME events only
# ---------------------------------------------------------------------------


def ontime_hourly(sf_dir: str):
    """Watermark semantics composed with windowing — the streaming-SQL
    behavior 'drop late data, aggregate the rest': events flagged LATE
    by the per-user watermark scan of :func:`late_events` are excluded,
    the survivors roll up per tumbling hour. ONE user-bucket exchange
    does the lateness classification AND the in-group hourly partials;
    the second (tiny) exchange sums per window. Output
    (window_id, n_events, sum_value_cents). Precondition: ts ≥ epoch 0
    (floor division here vs DuckDB's truncate-toward-zero ``//`` — see
    hourly_unique_users)."""
    import hashlib

    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def arrival(batch: pa.Table) -> pa.Table:
        ids = batch.column("event_id").to_pylist()
        key = [hashlib.md5(str(i).encode()).hexdigest() for i in ids]
        return batch.append_column("arrival", pa.array(key, pa.string()))

    def ontime_partial(group: pa.Table) -> pa.Table:
        uid = _col_np(group, "user_id")
        eid = _col_np(group, "event_id")
        arr = _col_np(group, "arrival")
        ts = _col_np(group, "ts").astype("datetime64[us]").astype(np.int64)
        val = _col_np(group, "value")
        order = np.lexsort((eid, arr, uid))
        uid, ts, val = uid[order], ts[order], val[order]
        if len(uid) == 0:
            e = pa.array(np.empty(0, np.int64), pa.int64())
            return pa.table({"window_id": e, "n_events": e,
                             "sum_value_cents": e})
        prev = np.roll(pd.Series(ts).groupby(uid, sort=False)
                       .cummax().to_numpy(np.int64), 1)
        first = np.r_[True, uid[1:] != uid[:-1]]
        ontime = first | (ts >= prev)
        v = val[ontime] * 100
        cents = (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)
        win = ts[ontime] // 3_600_000_000
        # per-window partial: sort by window, segment reduce
        o2 = np.argsort(win, kind="stable")
        win, cents = win[o2], cents[o2]
        starts = np.flatnonzero(np.r_[True, win[1:] != win[:-1]])
        return pa.table({
            "window_id": pa.array(win[starts], pa.int64()),
            "n_events": pa.array(
                np.diff(np.r_[starts, len(win)]).astype(np.int64),
                pa.int64()),
            "sum_value_cents": pa.array(np.add.reduceat(cents, starts),
                                        pa.int64()),
        })

    partials = _bucketed(
        ds.map_batches(arrival, batch_format="pyarrow"), ontime_partial)

    return (
        partials.groupby("window_id")
        .aggregate(Sum("n_events", alias_name="n_events"),
                   Sum("sum_value_cents", alias_name="sum_value_cents"))
    )


ONTIME_HOURLY_SQL = """
WITH marked AS (
  SELECT ts, value,
         max(ts) OVER (PARTITION BY user_id
                       ORDER BY md5(CAST(event_id AS VARCHAR)), event_id
                       ROWS BETWEEN UNBOUNDED PRECEDING
                            AND 1 PRECEDING) AS prev_max
  FROM events
)
SELECT CAST(epoch_us(ts) // 3600000000 AS BIGINT) AS window_id,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
           AS sum_value_cents
FROM marked
WHERE prev_max IS NULL OR ts >= prev_max
GROUP BY window_id
"""


# ---------------------------------------------------------------------------
# grouped TOP-K (top events per user by value)
# ---------------------------------------------------------------------------

TOPK_PER_USER = 3


def top_events_per_user(sf_dir: str, k: int = TOPK_PER_USER):
    """Grouped TOP-K — each user's ``k`` highest-value events (the
    per-entity leaderboard primitive: best documents per domain, top
    snapshots per url, hardest examples per task). The global per-user
    top-k is a subset of the union of per-BLOCK per-user top-k's, so a
    map-side partial (vectorized sort + ``groupby.head(k)`` per batch)
    caps the exchange at ≤ k rows per (block, user); the bucketed
    reduce re-applies the identical selection and assigns 1-based
    ranks. Ordering is (value_cents DESC, event_id ASC) — fully
    deterministic, oracle-exact vs row_number() ... QUALIFY. Values
    travel as integer cents (DuckDB round() is half-away-from-zero).
    Output (user_id, rnk, event_id, value_cents)."""
    ds = read_table(sf_dir, "events", ["event_id", "user_id", "value"])

    def _rank_in_user(uid, cents, eid):
        """Sort by (user, cents DESC, event_id ASC) and return
        (order, 0-based rank within user)."""
        order = np.lexsort((eid, -cents, uid))
        us = uid[order]
        starts = np.flatnonzero(np.r_[True, us[1:] != us[:-1]])
        counts = np.diff(np.r_[starts, len(us)])
        pos = np.arange(len(us), dtype=np.int64) - np.repeat(starts, counts)
        return order, pos

    def topk(batch: pa.Table) -> pa.Table:
        uid = _col_np(batch, "user_id")
        eid = _col_np(batch, "event_id")
        v = _col_np(batch, "value") * 100
        cents = (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)
        order, pos = _rank_in_user(uid, cents, eid)
        keep = order[pos < k]
        return pa.table({
            "event_id": pa.array(eid[keep], pa.int64()),
            "user_id": pa.array(uid[keep], pa.int64()),
            "value_cents": pa.array(cents[keep], pa.int64()),
        })

    partial = ds.map_batches(topk, batch_format="pyarrow")

    def resolve(group: pa.Table) -> pa.Table:
        # partials already carry value_cents — re-apply selection only
        uid = _col_np(group, "user_id")
        eid = _col_np(group, "event_id")
        cents = _col_np(group, "value_cents")
        order, pos = _rank_in_user(uid, cents, eid)
        m = pos < k
        keep = order[m]
        return pa.table({
            "user_id": pa.array(uid[keep], pa.int64()),
            "rnk": pa.array(pos[m] + 1, pa.int64()),
            "event_id": pa.array(eid[keep], pa.int64()),
            "value_cents": pa.array(cents[keep], pa.int64()),
        })

    return _bucketed(partial, resolve)


TOP_EVENTS_PER_USER_SQL = f"""
SELECT user_id,
       CAST(row_number() OVER (
            PARTITION BY user_id
            ORDER BY CAST(round(value * 100) AS BIGINT) DESC, event_id)
           AS BIGINT) AS rnk,
       event_id,
       CAST(round(value * 100) AS BIGINT) AS value_cents
FROM events
QUALIFY rnk <= {TOPK_PER_USER}
"""

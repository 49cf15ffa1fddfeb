"""Seeded input generation for every workload.

Inputs depend only on ``(seed, size)`` and are cached under the checkout's
``.perfbench_cache/`` directory, so a repeated seed skips regeneration. The
cache entry is written to a temporary directory and renamed into place, so a
killed run never leaves a half-written entry behind.
"""

from __future__ import annotations

import functools
import glob
import hashlib
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CACHE = os.path.join(ROOT, ".perfbench_cache")

# the extraction corpus is written as this many parquet files: 8 files give
# run_resumable's default 8 shards one file each
N_FILES = 8


@functools.cache
def fingerprint() -> str:
    """Digest of the library and generator sources: cache entries made by
    other code never match."""
    h = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(ROOT, "pd3f_ray", "**", "*.py"),
                             recursive=True)) + [os.path.abspath(__file__)]
    for f in files:
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:12]


def cache_path(name: str) -> str:
    return os.path.join(CACHE, f"{name}-{fingerprint()}")


def cached(name: str, build) -> str:
    """Return the cache directory for ``name``, calling ``build(tmp_dir)``
    first if it is absent."""
    final = cache_path(name)
    if os.path.isdir(final):
        return final
    tmp = final + f".tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    build(tmp)
    os.replace(tmp, final)
    return final


def docs_corpus(seed: int, n_docs: int) -> str:
    """Document table (one row per document) in ``N_FILES`` parquet files."""
    from pd3f_ray.sources.synth import write_corpus

    return cached(
        f"docs-s{seed}-n{n_docs}",
        lambda d: write_corpus(d, n_docs, seed,
                               rows_per_file=-(-n_docs // N_FILES)),
    )


def pages_corpus(seed: int, n_docs: int) -> str:
    """Page table (one row per page, rows shuffled) of the same documents as
    ``docs_corpus(seed, n_docs)``, in ``N_FILES`` parquet files."""
    from pd3f_ray.sources.synth import generate_pages_exploded

    def build(d: str) -> None:
        split_write(generate_pages_exploded(n_docs, seed), d, N_FILES)

    return cached(f"pages-s{seed}-n{n_docs}", build)


def split_write(table: pa.Table, out_dir: str, n_files: int) -> None:
    step = -(-table.num_rows // n_files)
    for i in range(n_files):
        part = table.slice(i * step, step)
        if part.num_rows:
            pq.write_table(part, os.path.join(out_dir, f"part-{i:03d}.parquet"))


# --------------------------------------------------------------------------
# relational tables for the exchange workload
# --------------------------------------------------------------------------

# row counts of a TPC-H-like star schema at scale 0.01, plus an event stream
# and a small document table with exact duplicates
OPS_ROWS = {"supplier": 100, "customer": 1500, "orders": 15000,
            "lineitem": 60000, "events": 10000, "documents": 500}
OPS_FILES = 4
_EVENT_TYPES = ["click", "view", "purchase", "add_to_cart", "error"]
_WORDS = ("key agg row scan slow fast table value part hash merge batch sort "
          "window line spark join filter group query stream column").split()
_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]


def _cents(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    return np.round(rng.uniform(lo, hi, n), 2)


def ops_tables(seed: int) -> dict[str, pa.Table]:
    """The exchange workload's tables. Every column a registry query or its
    SQL oracle reads is present with the type the library expects."""
    rng = np.random.default_rng(seed)
    n = OPS_ROWS
    supplier = pa.table({
        "s_suppkey": pa.array(np.arange(n["supplier"]), pa.int64()),
        "s_name": [f"Supplier#{i:09d}" for i in range(n["supplier"])],
        "s_nationkey": pa.array(rng.integers(0, 25, n["supplier"]), pa.int32()),
        "s_acctbal": _cents(rng, -999, 9999, n["supplier"]),
    })
    customer = pa.table({
        "c_custkey": pa.array(np.arange(n["customer"]), pa.int64()),
        "c_name": [f"Customer#{i:09d}" for i in range(n["customer"])],
        "c_nationkey": pa.array(rng.integers(0, 25, n["customer"]), pa.int32()),
        "c_acctbal": _cents(rng, -999, 9999, n["customer"]),
        "c_mktsegment": rng.choice(_SEGMENTS, n["customer"]).tolist(),
    })
    # as in TPC-H, a third of the customers place no orders at all
    buyers = rng.permutation(n["customer"])[: 2 * n["customer"] // 3]
    orders = pa.table({
        "o_orderkey": pa.array(np.arange(n["orders"]), pa.int64()),
        "o_custkey": pa.array(rng.choice(buyers, n["orders"]), pa.int64()),
        "o_totalprice": _cents(rng, 800, 500000, n["orders"]),
    })
    lineitem = pa.table({
        "l_orderkey": pa.array(rng.integers(0, n["orders"], n["lineitem"]),
                               pa.int64()),
        "l_suppkey": pa.array(rng.integers(0, n["supplier"], n["lineitem"]),
                              pa.int64()),
        "l_quantity": rng.integers(1, 51, n["lineitem"]).astype(np.float64),
        "l_extendedprice": _cents(rng, 900, 100000, n["lineitem"]),
    })
    ts0 = np.datetime64("2024-01-01T00:00:00", "us").astype(np.int64)
    ev_ts = ts0 + np.sort(rng.integers(0, 86_400_000_000, n["events"]))
    events = pa.table({
        "event_id": pa.array(np.arange(n["events"]), pa.int64()),
        "ts": pa.array(ev_ts.astype("datetime64[us]"), pa.timestamp("us")),
        "user_id": pa.array(rng.integers(0, 200, n["events"]), pa.int64()),
        "event_type": rng.choice(_EVENT_TYPES, n["events"]).tolist(),
        "value": _cents(rng, 0, 100, n["events"]),
    })
    # a pool of distinct texts sampled with replacement: exact duplicates
    pool = [" ".join(rng.choice(_WORDS, int(rng.integers(5, 30))))
            for _ in range(n["documents"] // 2)]
    texts = [pool[i] for i in rng.integers(0, len(pool), n["documents"])]
    documents = pa.table({
        "doc_id": pa.array(np.arange(n["documents"]), pa.int64()),
        "text": texts,
        "lang": ["en"] * n["documents"],
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })
    return {"supplier": supplier, "customer": customer, "orders": orders,
            "lineitem": lineitem, "events": events, "documents": documents}


def write_ops_tables(tables: dict[str, pa.Table], out_dir: str,
                     seed: int) -> None:
    """Write each table as ``<name>.parquet/`` holding ``OPS_FILES`` files,
    its rows in a seeded permutation (the layout the library's readers take
    as one table path)."""
    rng = np.random.default_rng(seed ^ 0x5EED)
    for name, table in tables.items():
        d = os.path.join(out_dir, f"{name}.parquet")
        os.makedirs(d)
        perm = pa.array(rng.permutation(table.num_rows))
        split_write(table.take(perm), d, OPS_FILES)


def ops_dir(seed: int) -> str:
    return cached(f"ops-s{seed}",
                  lambda d: write_ops_tables(ops_tables(seed), d, seed))

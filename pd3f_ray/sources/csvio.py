"""CSV source / sink interop.

The third interchange format after Parquet (scale) and JSONL (web
dumps): labeling spreadsheets, legacy exports and relational dumps
arrive as CSV. Same contract as ``sources.jsonl`` — Ray Data's native
sharded reader/writer, streaming, no driver materialization; ``columns``
prunes immediately after parse (CSV, like JSONL, has no on-storage
column projection, so pruning bounds object-store memory, not I/O).

Text columns survive quoting/escaping through Arrow's CSV codec (RFC
4180 quoting), which ``csv_roundtrip`` proves byte-per-doc against the
parquet table — including documents containing commas and quotes.
"""

from __future__ import annotations

import os
import shutil

import pyarrow as pa
import ray.data as rd

from pd3f_ray.core.cluster import read_table


def write_docs_csv(ds: "rd.Dataset", out_dir: str) -> None:
    ds.write_csv(out_dir)


def read_docs_csv(path: str, columns: list[str] | None = None
                  ) -> "rd.Dataset":
    ds = rd.read_csv(path)
    if columns is not None:
        cols = list(columns)

        def prune(batch: pa.Table) -> pa.Table:
            return batch.select(cols)

        ds = ds.map_batches(prune, batch_format="pyarrow")
    return ds


def csv_roundtrip(sf_dir: str):
    """documents → CSV shards (scratch dir keyed by sf name, rebuilt
    per call) → ``read_docs_csv`` with column pruning → (doc_id, text).
    Oracle: the parquet table itself — proving the sink+source pair is
    lossless for int64 + UTF-8 string columns under CSV quoting."""
    from pd3f_ray.sources.corpus import sf_name

    scratch = os.path.join("/tmp/pd3f_ray_csv", sf_name(sf_dir))
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch, exist_ok=True)

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    write_docs_csv(docs, scratch)
    return read_docs_csv(scratch, columns=["doc_id", "text"])


CSV_ROUNDTRIP_SQL = """
SELECT doc_id, text FROM documents
"""

"""JSONL source / sink interop.

Parquet is the scale format (column pruning + row-group predicate
pushdown leave unused bytes on storage), but web corpora routinely
arrive as newline-delimited JSON (WET-derived dumps, API exports,
labeling-tool output). These helpers move a document table across that
boundary with Ray Data's native readers/writers — streaming, sharded,
no driver materialization:

- ``write_docs_jsonl`` — ``Dataset.write_json`` (one ``.json`` shard
  per block; lineage-friendly like the parquet sink).
- ``read_docs_jsonl`` — ``ray.data.read_json`` over a file or
  directory of shards. JSONL has no column projection; ``columns``
  prunes immediately AFTER parse so only the requested columns enter
  the object store (the honest equivalent of a pruned parquet read —
  the parse cost is inherent to the format, the memory cost is not).

``jsonl_roundtrip`` is the oracle-checked exercise: documents →
JSONL shards under a deterministic scratch dir → read back → compare
byte-per-doc against the parquet table.
"""

from __future__ import annotations

import os
import shutil

import pyarrow as pa
import ray.data as rd

from pd3f_ray.core.cluster import read_table


def write_docs_jsonl(ds: "rd.Dataset", out_dir: str) -> None:
    ds.write_json(out_dir)


def read_docs_jsonl(path: str, columns: list[str] | None = None
                    ) -> "rd.Dataset":
    ds = rd.read_json(path)
    if columns is not None:
        cols = list(columns)

        def prune(batch: pa.Table) -> pa.Table:
            return batch.select(cols)

        ds = ds.map_batches(prune, batch_format="pyarrow")
    return ds


def jsonl_roundtrip(sf_dir: str):
    """documents → JSONL shards (scratch dir keyed by sf name, rebuilt
    per call) → ``read_docs_jsonl`` with column pruning → (doc_id,
    text). Oracle: the parquet table itself — proving the sink+source
    pair is lossless for int64 + UTF-8 string columns."""
    from pd3f_ray.sources.corpus import sf_name

    scratch = os.path.join("/tmp/pd3f_ray_jsonl", sf_name(sf_dir))
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch, exist_ok=True)

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    write_docs_jsonl(docs, scratch)
    return read_docs_jsonl(scratch, columns=["doc_id", "text"])


JSONL_ROUNDTRIP_SQL = """
SELECT doc_id, text FROM documents
"""

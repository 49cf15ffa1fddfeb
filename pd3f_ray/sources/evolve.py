"""Schema-evolution union: reading across parquet generations.

A corpus that lives for years is written by MANY pipeline versions —
early shards lack columns later ones carry. At 100 TB you cannot
rewrite history; the engine must read v1 and v2 shards side by side and
align them to the CURRENT schema, nulling what old shards never had.

``align_to_schema`` is the general primitive: a map-only batch
transform that projects any block onto a target pyarrow schema —
missing columns become typed nulls, column order is normalized, extra
columns are an ERROR (silently dropping data is how corpora rot).
``schema_evolution_union`` is the oracle-checked exercise: the
documents table is split into a v1 generation (doc_id, lang) and a v2
generation (doc_id, lang, n_chars, source) written as real parquet
shards; reading both + aligning + ``Dataset.union`` must reproduce the
closed-form SQL UNION ALL byte-per-row.
"""

from __future__ import annotations

import os
import tempfile

import pyarrow as pa

from pd3f_ray.core.cluster import read_parquet, read_table


def _fresh_scratch(prefix: str) -> str:
    """Per-invocation scratch dir (mkdtemp) — a fixed path keyed only
    by sf_name let two concurrent invocations (parallel bench shards,
    two sessions on one box) rmtree each other's files mid-read."""
    return tempfile.mkdtemp(prefix=prefix)


def align_to_schema(target: pa.Schema):
    """Batch transform: project onto ``target`` — missing columns are
    filled with typed nulls, order normalized, unknown columns raise."""

    def fn(batch: pa.Table) -> pa.Table:
        extra = set(batch.column_names) - set(target.names)
        if extra:
            raise ValueError(
                f"columns not in target schema (refusing to drop data): "
                f"{sorted(extra)}")
        cols = []
        for field in target:
            if field.name in batch.column_names:
                cols.append(batch.column(field.name).cast(field.type))
            else:
                cols.append(pa.nulls(batch.num_rows, field.type))
        return pa.Table.from_arrays(cols, schema=target)

    return fn


EVOLVE_TARGET = pa.schema([
    ("doc_id", pa.int64()),
    ("lang", pa.string()),
    ("n_chars", pa.int64()),
    ("source", pa.string()),
])


def schema_evolution_union(sf_dir: str):
    """Write the documents table as two real parquet generations (v1
    lacks n_chars/source; even doc_ids are v1, odd are v2), read both
    back, align each onto the v2 schema and union — the everyday
    mixed-generation read at corpus scale. Streaming throughout; the
    fixture write is sharded ``write_parquet``, not a driver dump.
    Output (doc_id, lang, n_chars, source) with NULLs on v1 rows."""
    # unique per invocation: the returned Dataset reads these paths
    # LAZILY, so the dir must outlive this call — /tmp reclaims it
    scratch = _fresh_scratch("pd3f_ray_evolve_")
    v1_dir = os.path.join(scratch, "v1")
    v2_dir = os.path.join(scratch, "v2")
    os.makedirs(v1_dir)
    os.makedirs(v2_dir)

    docs = read_table(sf_dir, "documents",
                      columns=["doc_id", "lang", "n_chars", "source"])

    def v1_rows(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.equal(pc.bit_wise_and(batch.column("doc_id"), 1), 0)
        return batch.filter(keep).select(["doc_id", "lang"])

    def v2_rows(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.equal(pc.bit_wise_and(batch.column("doc_id"), 1), 1)
        return batch.filter(keep)

    docs.map_batches(v1_rows, batch_format="pyarrow").write_parquet(v1_dir)
    docs.map_batches(v2_rows, batch_format="pyarrow").write_parquet(v2_dir)

    align = align_to_schema(EVOLVE_TARGET)
    v1 = read_parquet(v1_dir).map_batches(align, batch_format="pyarrow")
    v2 = read_parquet(v2_dir).map_batches(align, batch_format="pyarrow")
    return v1.union(v2)


SCHEMA_EVOLUTION_SQL = """
SELECT doc_id, lang,
       CAST(NULL AS BIGINT) AS n_chars,
       CAST(NULL AS VARCHAR) AS source
FROM documents WHERE doc_id % 2 = 0
UNION ALL
SELECT doc_id, lang, n_chars, source
FROM documents WHERE doc_id % 2 = 1
"""


# ---------------------------------------------------------------------------
# partitioned write + partition-pruned read
# ---------------------------------------------------------------------------


def partitioned_write_roundtrip(sf_dir: str, lang: str = "en"):
    """Hive-partitioned output + path-level pruned read — the storage
    layout that makes 100 TB outputs navigable: documents written as
    ``lang=<x>/`` directories (one deterministic rewrite per call), and
    the read-back opens ONLY the requested partition's directory — the
    other languages' files are never touched, which is cheaper than any
    row-group predicate (no footers even read). Output
    (doc_id, n_chars) of the ``lang='en'`` partition; oracle = the
    WHERE-clause equivalent over the source table."""
    # unique per invocation (see _fresh_scratch): read-back is lazy,
    # so the dir must outlive this call — /tmp reclaims it
    scratch = _fresh_scratch("pd3f_ray_partwrite_")

    docs = read_table(sf_dir, "documents",
                      columns=["doc_id", "lang", "n_chars"])
    docs.write_parquet(scratch, partition_cols=["lang"])

    part_dir = os.path.join(scratch, f"lang={lang}")
    return read_parquet(part_dir, columns=["doc_id", "n_chars"])


PARTITIONED_ROUNDTRIP_SQL = """
SELECT doc_id, n_chars FROM documents WHERE lang = 'en'
"""

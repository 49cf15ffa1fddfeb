"""Parity of the library's parquet reader (``core.cluster.read_parquet``)
with pyarrow: filters, column order, empty results and hive partitions."""

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest


def _nullable(tmp_path):
    """Three files of (doc_id, x, tag), ``x`` null on every third row,
    the last file in three row groups."""
    d = tmp_path / "nullable"
    d.mkdir()
    for i in range(3):
        ids = list(range(100 * i, 100 * i + 100))
        t = pa.table({"doc_id": ids,
                      "x": [None if j % 3 == 0 else j * 0.5 for j in ids],
                      "tag": [f"t{j % 7}" for j in ids]})
        pq.write_table(t, d / f"part-{i}.parquet",
                       row_group_size=34 if i == 2 else None)
    return d


def _rows(table_or_rows) -> list:
    rows = (table_or_rows.to_pylist() if isinstance(table_or_rows, pa.Table)
            else table_or_rows)
    return sorted(rows, key=lambda r: tuple(str(v) for v in r.values()))


@pytest.mark.parametrize("flt", [
    pads.field("x") > 60.0,
    pads.field("x").is_null(),
    (pads.field("x") < 10.0) | (pads.field("tag") == "t3"),
])
def test_read_parquet_filter_matches_pyarrow(ray_session, tmp_path, flt):
    """``filter=`` over a column holding nulls keeps exactly pyarrow's
    rows, as a null compares to nothing."""
    from pd3f_ray.core.cluster import read_parquet

    d = _nullable(tmp_path)
    got = read_parquet(str(d), filter=flt).take_all()
    assert got and _rows(got) == _rows(
        pads.dataset(d, format="parquet").to_table(filter=flt))


def test_read_parquet_columns_order_and_empty_filter(ray_session, tmp_path):
    """``columns=`` gives its order to the rows and the plan-time schema;
    a filter that keeps no row reads 0 rows without an error."""
    from pd3f_ray.core.cluster import read_parquet

    d = _nullable(tmp_path)
    ds = read_parquet(str(d), columns=["tag", "doc_id"])
    assert ds.schema(fetch_if_missing=False).names == ["tag", "doc_id"]
    got = ds.take_all()
    assert all(list(r) == ["tag", "doc_id"] for r in got)
    assert _rows(got) == _rows(pads.dataset(d, format="parquet")
                               .to_table(columns=["tag", "doc_id"]))

    none = read_parquet(str(d), filter=pads.field("doc_id") > 10**6)
    assert none.count() == 0
    assert none.take_all() == []


def test_read_parquet_hive_output_keeps_string_partitions(ray_session,
                                                          tmp_path):
    """A ``bucket=N/`` directory as ``run_resumable`` writes it reads back
    with ``bucket`` as a string column, as Ray's own reader gives it, and
    with pyarrow's rows under a string-typed hive partitioning."""
    import ray.data as rd

    from pd3f_ray.core.cluster import read_parquet
    from pd3f_ray.pipelines.extraction import _add_key_bucket

    t = pa.table({"doc_id": list(range(40)),
                  "x": [None if i % 4 == 0 else i * 1.5 for i in range(40)]})
    out = str(tmp_path / "shard.__tmp")
    (rd.from_arrow([t.slice(0, 20), t.slice(20)])
     .map_batches(_add_key_bucket("doc_id", 4), batch_format="pyarrow")
     .write_parquet(out, partition_cols=["bucket"]))

    ds = read_parquet(out)
    schema = ds.schema(fetch_if_missing=False)
    assert schema == rd.read_parquet(out).schema()
    assert schema.types[schema.names.index("bucket")] == pa.string()
    strings = pads.partitioning(pa.schema([("bucket", pa.string())]),
                                flavor="hive")
    expected = pads.dataset(out, format="parquet", partitioning=strings)
    assert _rows(ds.take_all()) == _rows(expected.to_table())
    assert _rows(read_parquet(out, columns=["bucket", "doc_id"]).take_all()) \
        == _rows(expected.to_table(columns=["bucket", "doc_id"]))


def test_planned_bytes_count_only_the_columns_read(tmp_path):
    """The planned size is the uncompressed footer bytes of the columns
    read: the whole row groups' ``total_byte_size`` with ``columns=None``,
    and the projected columns' ``total_uncompressed_size`` otherwise,
    with 0 for a hive partition column (no Ray)."""
    from pd3f_ray.core.parquet import FooterParquet

    d = tmp_path / "src=web"
    d.mkdir()
    n = 5000
    pq.write_table(pa.table({"a": pa.array(range(n), pa.int64()),
                             "b": [f"text {i}" * 20 for i in range(n)],
                             "c": pa.array(range(n), pa.int32())}),
                   d / "part-0.parquet", row_group_size=2000)
    meta = pq.ParquetFile(d / "part-0.parquet").metadata
    groups = [meta.row_group(i) for i in range(meta.num_row_groups)]
    assert len(groups) == 3

    def column_bytes(j: int) -> int:
        return sum(g.column(j).total_uncompressed_size for g in groups)

    def planned(columns) -> int:
        return FooterParquet(str(d), columns).estimate_inmemory_data_size()

    assert planned(None) == sum(g.total_byte_size for g in groups)
    assert planned(["a", "c"]) == column_bytes(0) + column_bytes(2)
    assert planned(["c", "src"]) == column_bytes(2)
    assert planned(["b"]) == column_bytes(1) > 10 * planned(["a", "c"])


def test_pandas_footer_schemas_hash(tmp_path):
    """A pandas-written footer carries ``b"pandas"`` schema metadata,
    and a pyarrow schema with metadata does not hash, which Ray's block
    schema dedup logs as a warning. The planned schema and every table
    a read task yields carry none, so all of them hash (no Ray)."""
    import pandas as pd

    from pd3f_ray.core.parquet import FooterParquet

    path = tmp_path / "pandas.parquet"
    df = pd.DataFrame({"doc_id": range(90), "tag": ["a", "b", "c"] * 30})
    df.to_parquet(path, row_group_size=30)
    assert pq.read_schema(path).metadata  # the case under test
    for columns in (None, ["tag", "doc_id"]):
        tasks = FooterParquet(str(path), columns).get_read_tasks(2)
        tables = [t for task in tasks for t in task()]
        assert sum(t.num_rows for t in tables) == 90
        for schema in [task.schema for task in tasks] + [t.schema
                                                         for t in tables]:
            hash(schema)

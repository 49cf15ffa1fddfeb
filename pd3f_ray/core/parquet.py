"""The library's one parquet reader: a Ray ``Datasource`` planned from
the files' footers on the driver, with no Ray task.

Discovery lists the files with ``pyarrow.dataset`` and reads each footer
once: per row group, its row count and the uncompressed bytes of the columns
read. The read tasks are contiguous (file, row-group range) slices of about
equal bytes, so the schema, the row count and the size of every task are
known before anything executes. Ray's own ``ParquetDatasource`` instead runs
``_sample_fragment`` tasks to estimate the in-memory size, on every read.

``key=value`` directories in a file's path become string columns, as
Ray's hive partitioning makes them (``run_resumable``'s ``bucket=NN/``
reads back as ``bucket: string``), appended after the file's columns
unless ``columns=`` orders them. ``columns=`` and ``filter=`` go to
pyarrow, so a filter also skips row groups by their statistics."""

import functools
import os

import pyarrow as pa
import pyarrow.dataset as pads
from ray.data import Datasource, ReadTask
from ray.data.block import BlockMetadata


def _hive_values(path: str) -> dict:
    """The ``key=value`` directories of ``path``, values as strings."""
    return dict(d.split("=") for d in os.path.dirname(path).split("/")
                if d.count("=") == 1)


def balanced_runs(sizes: list, n: int) -> list:
    """``(start, end)`` bounds that cut ``sizes`` into ``n`` contiguous,
    non-empty runs of about equal sum (``1 <= n <= len(sizes)``)."""
    total, acc, cuts = sum(sizes), 0, [0]
    for i, size in enumerate(sizes[:-1]):
        acc += size
        need = n - len(cuts)
        if need and (acc * n >= total * len(cuts)
                     or len(sizes) - 1 - i == need):
            cuts.append(i + 1)
    cuts.append(len(sizes))
    return list(zip(cuts, cuts[1:]))


def _column_bytes(row_group, columns) -> int:
    """Uncompressed bytes of ``columns`` in one row group's footer."""
    chunks = map(row_group.column, range(row_group.num_columns))
    return sum(c.total_uncompressed_size for c in chunks
               if c.path_in_schema.split(".")[0] in columns)


def _read(pieces, filesystem, columns, part_keys, filter):
    """One table per row group of ``pieces`` ((path, row-group ids)),
    with its partition columns; empty tables are dropped."""
    fmt = pads.ParquetFileFormat()
    data_columns = (None if columns is None
                    else [c for c in columns if c not in part_keys])
    for path, row_groups in pieces:
        parts = _hive_values(path)
        frag = fmt.make_fragment(path, filesystem, row_groups=row_groups)
        for row_group in frag.split_by_row_group(filter):
            table = row_group.to_table(columns=data_columns, filter=filter
                                       ).replace_schema_metadata(None)
            if not table.num_rows:
                continue
            for key in part_keys:
                if columns is None or key in columns:
                    table = table.append_column(
                        pa.field(key, pa.string()),
                        pa.repeat(pa.scalar(parts[key], pa.string()),
                                  table.num_rows))
            yield table if columns is None else table.select(columns)


class FooterParquet(Datasource):
    """``path`` (a file, a directory or a list of files) as read tasks
    over contiguous row-group slices, planned from the footers."""

    def __init__(self, path, columns=None, filter=None):
        dataset = pads.dataset(path, format="parquet")
        # no schema metadata (a pandas footer's), here and in ``_read``:
        # Ray hashes block schemas, and one with metadata does not hash
        schema = dataset.schema.remove_metadata()
        self._part_keys = [k for k in _hive_values(dataset.files[0])
                           if k not in schema.names] if dataset.files else []
        for key in self._part_keys:
            schema = schema.append(pa.field(key, pa.string()))
        if columns is not None:
            schema = pa.schema([schema.field(c) for c in columns])
        self._schema = schema
        self._filesystem = dataset.filesystem
        self._columns = None if columns is None else list(columns)
        self._filter = filter
        # (path, row-group id, rows, bytes of the columns read) in file order
        self._row_groups = [
            (frag.path, rg.id, rg.num_rows,
             rg.total_byte_size if columns is None
             else _column_bytes(frag.metadata.row_group(rg.id), columns))
            for frag in dataset.get_fragments() for rg in frag.row_groups]

    def get_name(self) -> str:
        return "Parquet"

    def estimate_inmemory_data_size(self) -> int:
        return sum(rg[3] for rg in self._row_groups)

    def get_read_tasks(self, parallelism: int) -> list:
        row_groups = self._row_groups
        if not row_groups:
            return []
        tasks = []
        for start, end in balanced_runs([rg[3] for rg in row_groups],
                                        min(parallelism, len(row_groups))):
            run = row_groups[start:end]
            pieces = {}
            for path, i, _, _ in run:
                pieces.setdefault(path, []).append(i)
            meta = BlockMetadata(
                num_rows=(None if self._filter is not None
                          else sum(rg[2] for rg in run)),
                size_bytes=sum(rg[3] for rg in run),
                input_files=list(pieces), exec_stats=None)
            read = functools.partial(_read, list(pieces.items()),
                                     self._filesystem, self._columns,
                                     self._part_keys, self._filter)
            tasks.append(ReadTask(read, meta, schema=self._schema))
        return tasks

"""Cluster sizing shared by stages and pipelines, and the library's one
parquet read (imports Ray lazily)."""

import os


def cluster_cpus() -> int:
    """Logical CPUs of the connected Ray cluster (8 without one)."""
    import ray

    return int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8


def min_block_partitions(nbytes: int) -> int:
    """The read's task count and every exchange's floor: one per Ray
    minimum block (1 MiB) of ``nbytes``, at most one per CPU, at least 1."""
    from ray.data import DataContext

    floor = DataContext.get_current().target_min_block_size
    return max(1, min(cluster_cpus(), nbytes // floor))


def read_parquet(path, columns=None, filter=None):
    """Every parquet read of the library, planned from the footers
    (``core.parquet``): no Ray task runs before the plan executes.

    k = max(1, min(CPUs, footer bytes // ``target_min_block_size``)),
    Ray's 1 MiB block floor, and the read runs min(k, row groups) tasks
    over contiguous row-group slices of about equal bytes. A table below
    2 MiB is one task; a table of at least CPUs MiB over at least CPUs
    row groups is one task per CPU. Either way nothing is split, so the
    first map fuses into the read. With fewer row groups than k, Ray
    splits each task's output to k blocks; a split read never fuses with
    the map after it, and the exchanges downstream re-partition anyway."""
    import ray.data as rd

    from pd3f_ray.core.parquet import FooterParquet

    source = FooterParquet(path, columns, filter)
    k = min_block_partitions(source.estimate_inmemory_data_size())
    return rd.read_datasource(source, override_num_blocks=k)


def read_table(sf_dir: str, name: str, columns=None, filter=None):
    """The ``<sf_dir>/<name>.parquet`` table, read as ``read_parquet``."""
    return read_parquet(os.path.join(sf_dir, f"{name}.parquet"), columns,
                        filter)

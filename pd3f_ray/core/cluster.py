"""Cluster sizing shared by stages and pipelines (imports Ray lazily)."""

import os


def cluster_cpus() -> int:
    """Logical CPUs of the connected Ray cluster (8 without one)."""
    import ray

    return int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8


def read_parquet(path, columns=None, filter=None):
    """Every parquet read of the library: one read task per logical CPU.

    With at least as many files as CPUs each task reads whole files, so
    nothing is split and the first map fuses into the read; with fewer
    files Ray still splits, but into one block per CPU instead of its
    default of up to 200. A split read never fuses with the map after
    it, and the exchanges downstream re-partition anyway."""
    import ray.data as rd

    return rd.read_parquet(path, columns=columns, filter=filter,
                           override_num_blocks=cluster_cpus())


def read_table(sf_dir: str, name: str, columns=None, filter=None):
    """The ``<sf_dir>/<name>.parquet`` table, read as ``read_parquet``."""
    return read_parquet(os.path.join(sf_dir, f"{name}.parquet"), columns,
                        filter)

"""Sampling-free bucket exchange for pre-bucketed reducers (pages, joins,
windows): int bucket ids in ``[0, num_buckets)`` are range-partitioned on
explicit sort boundaries (no sampling pass) into P partitions, whatever
the upstream block count, and ``fn`` runs once per non-empty partition."""

from pd3f_ray.core.cluster import cluster_cpus

MAX_BUCKETS_PER_PARTITION = 64  # the bucket dial bounds a reducer call


def partition_count(num_buckets: int) -> int:
    """P: 2 × cluster CPUs, raised to ≤ 64 buckets each, ≤ num_buckets."""
    return min(num_buckets, max(2 * cluster_cpus(),
                                -(-num_buckets // MAX_BUCKETS_PER_PARTITION)))


def bucket_exchange(ds, key: str, num_buckets: int, fn):
    """Rows with an int ``key`` in ``[0, num_buckets)`` → ``fn(pa.Table)``
    once per partition: each bucket in exactly one call, ≤ P calls."""
    p = partition_count(num_buckets)
    # empty boundaries would make Ray's sort sample, 1 partition/block
    shuffled = ds.repartition(1) if p == 1 else ds.sort(
        key, boundaries=[-(-i * num_buckets // p) for i in range(1, p)])
    return shuffled.map_batches(fn, batch_size=None, batch_format="pyarrow")

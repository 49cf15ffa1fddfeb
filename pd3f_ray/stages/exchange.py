"""Sampling-free bucket exchange for pre-bucketed reducers (pages, joins,
windows): int bucket ids in ``[0, num_buckets)`` are range-partitioned on
explicit sort boundaries (no sampling pass) into P partitions, whatever
the upstream block count, and ``fn`` runs once per non-empty partition.

P is one reduce wave: min(B, max(cluster CPUs, ⌈B/64⌉)). Every task of
an exchange (sort map, sort reduce, ``fn``) costs a fixed chunk of
driver, raylet and worker CPU whatever it holds, and on a small input
that fixed cost is the exchange: one partition per CPU runs every
reducer at once, and a second wave only adds tasks. The bucket dial
still bounds a reducer call, at ≤ 64 buckets, so a large B raises P past
the CPU count (2^20 buckets → 2^14 partitions at any CPU count).

``finish_agg`` is the other half of a plan that ends in an aggregate
over a small key domain: the step before it emits per-partition partials
on the final key, and one task sums them."""

from pd3f_ray.core.arrowkit import agg
from pd3f_ray.core.cluster import cluster_cpus

MAX_BUCKETS_PER_PARTITION = 64  # the bucket dial bounds a reducer call


def partition_count(num_buckets: int) -> int:
    """P: one partition per cluster CPU, raised to ≤ 64 buckets each,
    ≤ num_buckets."""
    return min(num_buckets, max(cluster_cpus(),
                                -(-num_buckets // MAX_BUCKETS_PER_PARTITION)))


def bucket_exchange(ds, key: str, num_buckets: int, fn):
    """Rows with an int ``key`` in ``[0, num_buckets)`` → ``fn(pa.Table)``
    once per partition: each bucket in exactly one call, ≤ P calls."""
    p = partition_count(num_buckets)
    # empty boundaries would make Ray's sort sample, 1 partition/block
    shuffled = ds.repartition(1) if p == 1 else ds.sort(
        key, boundaries=[-(-i * num_buckets // p) for i in range(1, p)])
    return shuffled.map_batches(fn, batch_size=None, batch_format="pyarrow")


def finish_agg(ds, keys: list[str], aggs: dict):
    """The final ``arrowkit.agg(t, keys, aggs)`` of a small aggregate in
    ONE task: ``repartition(1)`` and one ``map_batches`` call, instead of
    Ray's sampled sort aggregate (a sample, a map and a reduce task per
    partition).

    Contract: ``ds`` already holds per-partition partials on ``keys``,
    at most P × (distinct final keys) rows, so the one task's input is
    small whatever the corpus size. ``aggs`` must be decomposable over
    those partials (sum of sums or counts, min of mins, max of maxes). A
    large key domain (an exact dedup, a per-user count) keeps Ray's
    distributed ``groupby().aggregate()``. The result is one block, so
    a step that needs all of it (a share of the total) is one more
    ``map_batches(..., batch_size=None)``, fused into the same task."""
    def finish(t):
        return agg(t, keys, aggs)

    return ds.repartition(1).map_batches(finish, batch_size=None,
                                         batch_format="pyarrow")

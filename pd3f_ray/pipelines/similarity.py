"""Similarity search over the ``embeddings`` table (list<float> column).

- **knn_bruteforce**: exact top-k cosine per query — the query matrix is
  broadcast once (``ray.put``), every batch does one float64 matmul
  against it, per-batch top-k candidates are reduced to a global top-k.
  Oracle-checked (ids only — float scores stay out of the hash compare;
  ordering ties broken by neighbor id in both engines).
- **knn_lsh**: the scale path — random-hyperplane LSH buckets the
  vectors; queries search only their bucket (and its neighbors). Not
  exact, so rows-only + recall test.
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pyarrow as pa
import ray

from pd3f_ray.core.arrowkit import sort_runs
from pd3f_ray.core.cluster import read_table
from pd3f_ray.stages.exchange import fold, group_map

N_QUERIES = 10
TOP_K = 5


def _emb(sf_dir: str):
    return read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])


def _smallest_rows(sf_dir: str, n: int):
    """(ids, vectors) of the n smallest vec_ids, WITHOUT a full-table
    driver read: pass 1 scans only the 8-byte ``vec_id`` column
    (column-pruned, streamed per row group) to find the n smallest;
    pass 2 fetches just those rows' embeddings with a predicate-pushdown
    read (row groups whose vec_id stats exclude the selection are never
    touched). Driver memory is O(n) vectors + one id column chunk."""
    import heapq

    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    path = os.path.join(sf_dir, "embeddings.parquet")
    pf = pq.ParquetFile(path)
    heap: list[int] = []  # max-heap of negated ids, size ≤ n
    for batch in pf.iter_batches(columns=["vec_id"], batch_size=65536):
        for v in batch.column("vec_id").to_numpy(zero_copy_only=False):
            if len(heap) < n:
                heapq.heappush(heap, -int(v))
            elif -heap[0] > v:
                heapq.heapreplace(heap, -int(v))
    sel = sorted(-h for h in heap)
    tbl = pads.dataset(path).to_table(
        columns=["vec_id", "embedding"],
        filter=pads.field("vec_id").isin(sel),
    )
    ids = np.asarray(tbl.column("vec_id").to_pylist(), dtype=np.int64)
    vecs = _emb_matrix(tbl.column("embedding"), tbl.num_rows)
    order = np.argsort(ids)
    return ids[order], vecs[order]


def _emb_matrix(col, n_rows: int) -> np.ndarray:
    """Fixed-width list<float> column -> (n_rows, dim) float64 matrix by
    flattening the Arrow values buffer - no per-row Python list
    materialization."""
    if n_rows == 0:
        return np.empty((0, 0), np.float64)
    arr = col.combine_chunks() if hasattr(col, "combine_chunks") else col
    return arr.flatten().to_numpy(zero_copy_only=False).reshape(
        n_rows, -1).astype(np.float64)

def _query_matrix(sf_dir: str, n_queries: int):
    # queries = the n smallest vec_ids
    return _smallest_rows(sf_dir, n_queries)


def _candidates(per_query, k: int) -> pa.Table:
    """One batch's candidate table from ``per_query``, an iterable of
    (query_id, neighbor_ids, sims): each query keeps its k best under
    the reducer's tiebreak (sim desc, neighbor_id asc). A plain
    argpartition on sim could drop a boundary candidate tied at the
    k-th place that the reducer would have kept — real with duplicate
    embeddings."""
    out_q, out_n, out_s = [], [], []
    for qid, cid, cs in per_query:
        idx = np.lexsort((cid, -cs))[:k]
        out_q.extend([int(qid)] * len(idx))
        out_n.extend(cid[idx].tolist())
        out_s.extend(cs[idx].tolist())
    return pa.table({
        "query_id": pa.array(out_q, pa.int64()),
        "neighbor_id": pa.array(out_n, pa.int64()),
        "sim": pa.array(out_s, pa.float64()),
    })


def _reduce_topk(group: pa.Table, k: int) -> pa.Table:
    """One query's top-k from its candidates: one row per neighbor (a
    neighbor hit by several LSH tables or IVF probes repeats with the
    same sim), then the k best by (sim desc, neighbor_id asc)."""
    sim = group.column("sim").to_numpy(zero_copy_only=False)
    nid = group.column("neighbor_id").to_numpy(zero_copy_only=False)
    order, starts, _ = sort_runs((-sim, nid))
    keep = order[starts]
    top = keep[np.lexsort((nid[keep], -sim[keep]))[:k]]
    return group.select(["query_id", "neighbor_id"]).take(pa.array(top))


def knn_bruteforce(sf_dir: str, k: int = TOP_K, n_queries: int = N_QUERIES):
    """(query_id, neighbor_id) for the exact top-k cosine neighbors of
    each query vector (queries = the n smallest vec_ids; self excluded;
    ties broken by neighbor id ascending)."""
    q_ids, q_vecs = _query_matrix(sf_dir, n_queries)
    qn = q_vecs / np.linalg.norm(q_vecs, axis=1, keepdims=True)
    q_ref = ray.put((q_ids, qn))

    ds = _emb(sf_dir)

    def batch_topk(batch: pa.Table) -> pa.Table:
        ids_q, qmat = ray.get(q_ref)
        vids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
        mat = _emb_matrix(batch.column("embedding"), batch.num_rows)
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        sims = (mat / norms) @ qmat.T  # (n_batch, n_q)

        def per_query():
            for qi, qid in enumerate(ids_q):
                valid = vids != qid
                yield qid, vids[valid], sims[valid, qi]

        return _candidates(per_query(), k)

    # each vec_id is one batch's row, so a neighbor is emitted once per
    # query and the reducer's one-row-per-neighbor step keeps every row
    return group_map(ds.map_batches(batch_topk, batch_format="pyarrow"),
                     "query_id", functools.partial(_reduce_topk, k=k))


def knn_sql(k: int = TOP_K, n_queries: int = N_QUERIES) -> str:
    return f"""
WITH q AS (
  SELECT vec_id AS query_id, embedding AS qe
  FROM embeddings
  ORDER BY vec_id
  LIMIT {n_queries}
),
s AS (
  SELECT q.query_id,
         e.vec_id AS neighbor_id,
         list_cosine_similarity(q.qe, e.embedding) AS sim
  FROM q, embeddings e
  WHERE e.vec_id != q.query_id
),
r AS (
  SELECT query_id, neighbor_id,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY sim DESC, neighbor_id) AS rn
  FROM s
)
SELECT query_id, neighbor_id FROM r WHERE rn <= {k}
"""


# ---------------------------------------------------------------------------
# LSH-bucketed ANN (scale path)
# ---------------------------------------------------------------------------

N_PLANES = 6    # bits per hash table → 64 buckets
N_TABLES = 4    # independent tables; recall = 1 - (1-p)^L
LSH_SEED = 7


def _hyperplanes(dim: int, table: int) -> np.ndarray:
    rng = np.random.RandomState(LSH_SEED + table)
    return rng.normal(size=(N_PLANES, dim))


def _codes(nm: np.ndarray, table: int) -> np.ndarray:
    sig = (nm @ _hyperplanes(nm.shape[1], table).T > 0).astype(np.uint8)
    return np.packbits(sig, axis=1, bitorder="little")[:, 0]


def knn_lsh(sf_dir: str, k: int = TOP_K, n_queries: int = N_QUERIES):
    """Approximate top-k via multi-table random-hyperplane LSH
    (N_TABLES independent tables of N_PLANES bits, Hamming-1
    multi-probe). Each query scans only its probed buckets —
    ~7/64 of the data per table — instead of everything; union of
    tables drives recall up while staying well under brute force.
    Returns (query_id, neighbor_id); recall pinned in tests against
    the brute-force result."""
    q_ids, q_vecs = _query_matrix(sf_dir, n_queries)
    qn = q_vecs / np.linalg.norm(q_vecs, axis=1, keepdims=True)
    # per-table probe map: code -> [query indices]
    probes: list[dict[int, list[int]]] = []
    for t in range(N_TABLES):
        q_codes = _codes(qn, t)
        probe: dict[int, list[int]] = {}
        for qi, code in enumerate(q_codes):
            cs = [int(code)] + [int(code) ^ (1 << b) for b in range(N_PLANES)]
            for c in cs:
                probe.setdefault(c, []).append(qi)
        probes.append(probe)
    ref = ray.put((q_ids, qn, probes))

    ds = _emb(sf_dir)

    def batch_topk(batch: pa.Table) -> pa.Table:
        ids_q, qmat, probe_maps = ray.get(ref)
        vids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
        mat = _emb_matrix(batch.column("embedding"), batch.num_rows)
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        nm = mat / norms
        # candidate mask per query: row i is scored for query qi iff some
        # table buckets them together (union over tables)
        cand = np.zeros((len(vids), len(ids_q)), dtype=bool)
        for t in range(N_TABLES):
            codes = _codes(nm, t)
            pm = probe_maps[t]
            for code in np.unique(codes):
                quis = pm.get(int(code))
                if not quis:
                    continue
                rows = codes == code
                for qi in quis:
                    cand[rows, qi] = True

        def per_query():
            for qi, qid in enumerate(ids_q):
                rows = cand[:, qi] & (vids != qid)
                yield qid, vids[rows], nm[rows] @ qmat[qi]

        return _candidates(per_query(), k)

    return group_map(ds.map_batches(batch_topk, batch_format="pyarrow"),
                     "query_id", functools.partial(_reduce_topk, k=k))


# ---------------------------------------------------------------------------
# IVF (inverted-file) ANN — the coarse-quantizer scale path
# ---------------------------------------------------------------------------

IVF_CLUSTERS = 16
IVF_NPROBE = 4
IVF_ITERS = 10
IVF_SAMPLE = 2048


def _ivf_centroids(sf_dir: str, n_clusters: int = IVF_CLUSTERS,
                   iters: int = IVF_ITERS) -> np.ndarray:
    """Deterministic k-means on a bounded sample (first IVF_SAMPLE rows
    by vec_id): seeded init from evenly spaced sample points, fixed
    iteration count, cosine geometry (normalized vectors, mean-then-
    renormalize updates). Driver-side by design — training data is a
    bounded sample regardless of corpus size (fetched via the limited
    two-pass read, never a full-table driver load); assignment is the
    distributed part."""
    _, v = _smallest_rows(sf_dir, IVF_SAMPLE)
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    v = v / norms
    # evenly spaced deterministic seeds
    seed_idx = np.linspace(0, len(v) - 1, n_clusters).astype(int)
    c = v[seed_idx].copy()
    for _ in range(iters):
        assign = np.argmax(v @ c.T, axis=1)
        for k in range(n_clusters):
            m = assign == k
            if m.any():
                mean = v[m].mean(axis=0)
                n = np.linalg.norm(mean)
                if n > 0:
                    c[k] = mean / n
    return c


def knn_ivf(sf_dir: str, k: int = TOP_K, n_queries: int = N_QUERIES,
            nprobe: int = IVF_NPROBE):
    """Approximate top-k via an inverted file: vectors are assigned to
    their nearest centroid (one vectorized matmul per batch); each query
    scans only its ``nprobe`` nearest clusters — at corpus scale the
    assignment is a partitioned write and probing reads only those
    partitions. Returns (query_id, neighbor_id); recall pinned in tests
    against brute force."""
    q_ids, q_vecs = _query_matrix(sf_dir, n_queries)
    qn = q_vecs / np.linalg.norm(q_vecs, axis=1, keepdims=True)
    centroids = _ivf_centroids(sf_dir)
    # per-query probe set
    q_assign = np.argsort(-(qn @ centroids.T), axis=1)[:, :nprobe]
    probe: dict[int, list[int]] = {}
    for qi in range(len(q_ids)):
        for c in q_assign[qi]:
            probe.setdefault(int(c), []).append(qi)
    ref = ray.put((q_ids, qn, centroids, probe))

    ds = _emb(sf_dir)

    def batch_topk(batch: pa.Table) -> pa.Table:
        ids_q, qmat, cents, probe_map = ray.get(ref)
        vids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
        mat = _emb_matrix(batch.column("embedding"), batch.num_rows)
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        nm = mat / norms
        assign = np.argmax(nm @ cents.T, axis=1)

        def per_query():
            for c in np.unique(assign):
                quis = probe_map.get(int(c))
                if not quis:
                    continue
                rows = assign == c
                sub_ids = vids[rows]
                sims = nm[rows] @ qmat[quis].T
                for ci, qi in enumerate(quis):
                    valid = sub_ids != ids_q[qi]
                    yield ids_q[qi], sub_ids[valid], sims[valid, ci]

        return _candidates(per_query(), k)

    return group_map(ds.map_batches(batch_topk, batch_format="pyarrow"),
                     "query_id", functools.partial(_reduce_topk, k=k))


def kmeans_assign(sf_dir: str, n_clusters: int = IVF_CLUSTERS):
    """Clustering as a first-class op: assign EVERY embedding to its
    nearest k-means centroid (cosine geometry). The centroids are the
    IVF coarse quantizer's — trained driver-side on a bounded sample
    (``_ivf_centroids``), broadcast once via ``ray.put``; assignment is
    one vectorized matmul per batch, no exchange at all. The standard
    shape for sharding an embedding corpus into semantically coherent
    partitions before per-cluster processing. Output
    (vec_id, cluster, sim) — sim = cosine to the assigned centroid,
    rounded to 6 decimals so the value is hash-stable."""
    centroids = _ivf_centroids(sf_dir, n_clusters=n_clusters)
    ref = ray.put(centroids)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(ref)
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        m = _emb_matrix(batch.column("embedding"), batch.num_rows)
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        sims = (m / norms) @ c.T
        best = np.argmax(sims, axis=1)
        return pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "cluster": pa.array(best.astype(np.int64), pa.int64()),
            "sim": pa.array(
                np.round(sims[np.arange(len(best)), best], 6), pa.float64()),
        })

    return _emb(sf_dir).map_batches(assign, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# distributed k-means training (full-corpus Lloyd iterations)
# ---------------------------------------------------------------------------

KMEANS_TRAIN_ITERS = 4


def kmeans_train(sf_dir: str, n_clusters: int = IVF_CLUSTERS,
                 iters: int = KMEANS_TRAIN_ITERS):
    """Distributed Lloyd k-means over the FULL embedding corpus — the
    scale complement of ``_ivf_centroids`` (which trains driver-side on
    a bounded sample). The classic iterative broadcast-plus-combiner
    shape every embedding-corpus partitioner needs:

    - per iteration, the k×dim centroid matrix is broadcast ONCE via
      ``ray.put``; each batch assigns its vectors (one matmul) and
      folds per-centroid partials (count + vector sum via a one-hot
      matmul) to ≤ k rows per block — the corpus never shuffles;
    - the partial table (blocks × k rows of dim-length sums) is
      combined in one task (``exchange.fold``; same bound discipline
      as extract_summary: blocks × k × dim doubles; at extreme block
      counts fold per cluster-hash bucket first);
    - new centroid = renormalized mean (cosine geometry, identical
      update rule to ``_ivf_centroids``); empty clusters keep their
      previous centroid. Seeds are the deterministic evenly spaced
      sample points, so the whole training run is reproducible.

    Output one row per cluster: (cluster, n_members, centroid —
    6-decimal-rounded list<double>) of the FINAL assignment.
    Iterative + float means no SQL oracle (rows-only); determinism,
    unit norms, membership totals and monotone inertia are pinned by
    tests."""
    if iters < 1:
        raise ValueError(f"kmeans_train: iters must be >= 1, got {iters}")
    dim = None
    _, seed_v = _smallest_rows(sf_dir, IVF_SAMPLE)
    norms = np.linalg.norm(seed_v, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    seed_v = seed_v / norms
    dim = seed_v.shape[1]
    seed_idx = np.linspace(0, len(seed_v) - 1, n_clusters).astype(int)
    centroids = seed_v[seed_idx].copy()

    def partial_table(ref):
        def fn(batch: pa.Table) -> pa.Table:
            c = ray.get(ref)
            m = _emb_matrix(batch.column("embedding"), batch.num_rows)
            nm = np.linalg.norm(m, axis=1, keepdims=True)
            nm[nm == 0] = 1.0
            m = m / nm
            best = np.argmax(m @ c.T, axis=1)
            onehot = np.zeros((len(m), n_clusters), np.float64)
            onehot[np.arange(len(m)), best] = 1.0
            sums = onehot.T @ m                   # k × dim
            counts = onehot.sum(axis=0).astype(np.int64)
            keep = counts > 0
            return pa.table({
                "cluster": pa.array(np.nonzero(keep)[0].astype(np.int64),
                                    pa.int64()),
                "n": pa.array(counts[keep], pa.int64()),
                "vsum": pa.array(list(sums[keep]),
                                 pa.list_(pa.float64())),
            })
        return fn

    def combine(batch: pa.Table) -> pa.Table:
        cl = batch.column("cluster").to_numpy(zero_copy_only=False)
        n = batch.column("n").to_numpy(zero_copy_only=False)
        vs = np.stack(batch.column("vsum").to_pylist()).astype(np.float64)
        counts = np.zeros(n_clusters, np.int64)
        sums = np.zeros((n_clusters, dim), np.float64)
        np.add.at(counts, cl, n)
        np.add.at(sums, cl, vs)
        return pa.table({
            "cluster": pa.array(np.arange(n_clusters, dtype=np.int64),
                                pa.int64()),
            "n": pa.array(counts, pa.int64()),
            "vsum": pa.array(list(sums), pa.list_(pa.float64())),
        })

    import ray as _ray

    folded = None
    for _ in range(iters):
        ref = _ray.put(centroids)
        folded = fold(_emb(sf_dir), partial_table(ref), combine).materialize()
        blk = [t for t in _ray.get(folded.to_arrow_refs()) if t.num_rows]
        tbl = pa.concat_tables(blk)
        counts = tbl.column("n").to_numpy(zero_copy_only=False)
        sums = np.stack(tbl.column("vsum").to_pylist()).astype(np.float64)
        new_c = centroids.copy()
        nonempty = counts > 0
        means = sums[nonempty] / counts[nonempty, None]
        mn = np.linalg.norm(means, axis=1, keepdims=True)
        mn[mn == 0] = 1.0
        new_c[nonempty] = means / mn
        centroids = new_c

    # the loop above already folded the final assignment into
    # ``centroids``: renormalized mean for non-empty clusters, the
    # carried-forward previous centroid for empty ones — emit THAT
    # matrix (broadcast once), so the output honors the "empty clusters
    # keep their previous centroid" rule instead of a zero vector
    final_ref = _ray.put(centroids)

    def finish(batch: pa.Table) -> pa.Table:
        final_c = ray.get(final_ref)
        cl = batch.column("cluster").to_numpy(zero_copy_only=False)
        return pa.table({
            "cluster": batch.column("cluster"),
            "n_members": batch.column("n"),
            "centroid": pa.array(
                [list(np.round(final_c[c], 6)) for c in cl],
                pa.list_(pa.float64())),
        })

    return folded.map_batches(finish, batch_format="pyarrow")


def kmeans_train_flat(sf_dir: str, n_clusters: int = IVF_CLUSTERS,
                      iters: int = KMEANS_TRAIN_ITERS):
    """Scalar projection of ``kmeans_train`` for harnesses that sort
    rows by value (list columns are unsortable there): fixed-point
    centroid norm, first component, and a component checksum per
    cluster (same convention as embed_docs_flat)."""
    ds = kmeans_train(sf_dir, n_clusters=n_clusters, iters=iters)

    def flat(batch: pa.Table) -> pa.Table:
        m = np.array(batch.column("centroid").to_pylist(), dtype=np.float64)
        return pa.table({
            "cluster": batch.column("cluster"),
            "n_members": batch.column("n_members"),
            "c_norm_x1e6": pa.array(
                (np.linalg.norm(m, axis=1) * 1e6).astype(np.int64)),
            "c0_x1e6": pa.array((m[:, 0] * 1e6).astype(np.int64)),
            "c_sum_x1e6": pa.array((m.sum(axis=1) * 1e6).astype(np.int64)),
        })

    return ds.map_batches(flat, batch_format="pyarrow")

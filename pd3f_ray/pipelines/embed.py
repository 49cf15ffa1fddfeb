"""Document embedding generation — the batched-model-inference stage
shape, with a deterministic feature-hashing "model".

A real deployment drops a sentence-transformer into ``DocEmbedder``
(weights load once per actor in ``__init__``, batches hit the model in
``__call__``); this container has no torch, so the model is a signed
character-trigram feature-hashing projection (Weinberger et al. 2009):
deterministic, vectorized, and shaped exactly like the real thing —
list<float32> unit vectors out, actor-pool ``map_batches`` in the
middle. Bridges the ``documents`` table to the similarity/embdup
operators without external data.

Rows-only check (no SQL equivalent); determinism, unit-norm, and
self-similarity pinned in tests.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from pd3f_ray.core.cluster import read_table

EMBED_DIM = 64
NGRAM_N = 3


class DocEmbedder:
    """Actor-pool callable: one instance per long-lived worker. The
    "model" here is a fixed hash projection, so __init__ only sets
    constants — with a real encoder this is where weights load once."""

    def __init__(self, dim: int = EMBED_DIM):
        self.dim = dim
        # splitmix64 constants (same mix as joins._stable_bucket)
        self._c1 = np.uint64(0xBF58476D1CE4E5B9)
        self._c2 = np.uint64(0x94D049BB133111EB)

    def _mix(self, x: np.ndarray) -> np.ndarray:
        x = x.astype(np.uint64, copy=True)
        x ^= x >> np.uint64(30)
        x *= self._c1
        x ^= x >> np.uint64(27)
        x *= self._c2
        x ^= x >> np.uint64(31)
        return x

    def _embed_one(self, text: str) -> np.ndarray:
        b = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
        if len(b) < NGRAM_N:
            return np.zeros(self.dim, dtype=np.float32)
        # rolling char-trigram codes, fully vectorized
        tri = (b[:-2].astype(np.uint64) << np.uint64(16)) \
            | (b[1:-1].astype(np.uint64) << np.uint64(8)) \
            | b[2:].astype(np.uint64)
        h = self._mix(tri)
        idx = (h % np.uint64(self.dim)).astype(np.int64)
        sign = np.where((h >> np.uint64(63)) != 0, -1.0, 1.0)
        v = np.zeros(self.dim, dtype=np.float64)
        np.add.at(v, idx, sign)
        n = np.linalg.norm(v)
        if n > 0:
            v /= n
        return v.astype(np.float32)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        vecs = [self._embed_one(t) for t in texts]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "embedding": pa.array([v.tolist() for v in vecs],
                                      pa.list_(pa.float32())),
            }
        )


def embed_docs(sf_dir: str, dim: int = EMBED_DIM,
               concurrency: int = 4, batch_size: int = 256) -> "rd.Dataset":
    """(doc_id, embedding) — unit-norm float32 vectors from the
    documents table via the actor-pool embedder."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(
        DocEmbedder,
        fn_constructor_kwargs={"dim": dim},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=0.75,
    )


def embed_docs_flat(sf_dir: str) -> "rd.Dataset":
    """Scalar projection of ``embed_docs`` for harnesses that sort rows
    by value (list columns are unsortable there): fixed-point norm,
    first component, and a component checksum per vector."""
    ds = embed_docs(sf_dir)

    def flat(batch: pa.Table) -> pa.Table:
        m = np.array(batch.column("embedding").to_pylist(), dtype=np.float64)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "emb_norm_x1e6": pa.array(
                    (np.linalg.norm(m, axis=1) * 1e6).astype(np.int64)),
                "emb0_x1e6": pa.array((m[:, 0] * 1e6).astype(np.int64)),
                "emb_sum_x1e6": pa.array(
                    (m.sum(axis=1) * 1e6).astype(np.int64)),
            }
        )

    return ds.map_batches(flat, batch_format="pyarrow")

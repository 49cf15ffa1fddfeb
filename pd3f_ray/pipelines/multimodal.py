"""Multimodal (image / audio / video) columns as opaque binary + typed
metadata, processed by task ``map_batches`` stages.

The container has no image/audio codecs, so the *decode* step is a
clearly-marked deterministic stub (``FakeCodec``) — but everything
Ray-side is real and tested: the binary column schema, the per-batch
featurizer stage, and the downstream vectorized
feature/resize/frame-sample math on the decoded arrays.

Media rows are derived deterministically from ``documents.parquet``
(doc_id → kind / payload bytes / metadata), so the byte-level invariants
(kind, n_bytes) stay SQL-expressible and the ``media_kind_summary``
query is oracle-checked end-to-end through the binary plumbing.

Reference parity note: the reference (pd3f-core) has no media path —
these are the scale-pipeline extensions requested alongside SURVEY.md
§2; the stage shape mirrors the extraction stage (a callable instance
handed to ``map_batches``).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import ray.data as rd

from pd3f_ray.core.cluster import read_table
from pd3f_ray.stages.exchange import finish_agg, hash_agg

KINDS = ("image", "audio", "video")

# payload-size rule (SQL-expressible on purpose): 512 + (doc_id % 7) * 256
PAYLOAD_BASE = 512
PAYLOAD_STEP = 256
PAYLOAD_MOD = 7

# decoded-shape metadata rules (deterministic in doc_id)
IMG_SIDES = (32, 48, 64)
SAMPLE_RATES = (8000, 16000)
FRAME_COUNTS = (4, 8, 12)

TARGET_SIZE = 16       # resize target (TARGET_SIZE × TARGET_SIZE)
FRAME_STRIDE = 2       # video frame sampling stride
FEAT_DIM = 8           # per-media feature vector length


def _payload(doc_id: int, n_bytes: int) -> bytes:
    """Deterministic pseudo-media bytes: a blake2b keystream over doc_id."""
    out = bytearray()
    counter = 0
    while len(out) < n_bytes:
        out += hashlib.blake2b(
            f"media:{doc_id}:{counter}".encode(), digest_size=64
        ).digest()
        counter += 1
    return bytes(out[:n_bytes])


def media_table(sf_dir: str) -> "rd.Dataset":
    """documents.parquet → media rows: (media_id, kind, payload:binary,
    width, height, sample_rate, n_frames). Streaming map; payload size
    and kind are pure functions of media_id so SQL oracles can reproduce
    them without seeing the bytes."""
    ds = read_table(sf_dir, "documents", columns=["doc_id"])

    def gen(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        kinds, payloads, widths, heights, rates, frames = [], [], [], [], [], []
        for did in ids:
            kind = KINDS[did % 3]
            n_bytes = PAYLOAD_BASE + (did % PAYLOAD_MOD) * PAYLOAD_STEP
            kinds.append(kind)
            payloads.append(_payload(did, n_bytes))
            side = IMG_SIDES[did % len(IMG_SIDES)]
            widths.append(side if kind in ("image", "video") else 0)
            heights.append(side if kind in ("image", "video") else 0)
            rates.append(SAMPLE_RATES[did % len(SAMPLE_RATES)]
                         if kind == "audio" else 0)
            frames.append(FRAME_COUNTS[did % len(FRAME_COUNTS)]
                          if kind == "video" else 0)
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "kind": pa.array(kinds, pa.string()),
                "payload": pa.array(payloads, pa.binary()),
                "width": pa.array(widths, pa.int32()),
                "height": pa.array(heights, pa.int32()),
                "sample_rate": pa.array(rates, pa.int32()),
                "n_frames": pa.array(frames, pa.int32()),
            }
        )

    return ds.map_batches(gen, batch_format="pyarrow")


class FakeCodec:
    """STUB decoder — the real image/audio libs are absent in this
    container. Decodes payload bytes into a deterministic float array
    shaped by the metadata (image: H×W, audio: 1-D, video: F×H×W) by
    tiling the payload bytes; a real deployment swaps `_decode_*` for
    PIL / soundfile / pyav calls with the same signatures."""

    def decode(self, kind: str, payload: bytes, width: int, height: int,
               sample_rate: int, n_frames: int) -> np.ndarray:
        raw = np.frombuffer(payload, dtype=np.uint8).astype(np.float32) / 255.0
        if kind == "image":
            need = height * width
            return np.resize(raw, need).reshape(height, width)
        if kind == "audio":
            need = max(sample_rate // 10, 1)  # 100 ms clip
            return np.resize(raw, need)
        if kind == "video":
            need = n_frames * height * width
            return np.resize(raw, need).reshape(n_frames, height, width)
        raise NotImplementedError(f"unknown media kind: {kind}")


class MediaFeaturizer:
    """Per-batch callable, run as tasks: decode → (resize |
    frame-sample) → feature vector. ``__init__`` builds the stub codec
    and the fixed feature projection; ``__call__`` handles one Arrow
    batch and keeps only the feature rows, never the decoded arrays."""

    def __init__(self) -> None:
        self.codec = FakeCodec()
        # fixed feature projection (deterministic)
        rng = np.random.RandomState(1234)
        self.proj = rng.normal(size=(TARGET_SIZE * TARGET_SIZE, FEAT_DIM))
        self.proj /= np.linalg.norm(self.proj, axis=0, keepdims=True)

    # --- vectorizable transforms on decoded arrays -----------------------

    @staticmethod
    def resize(img: np.ndarray, size: int = TARGET_SIZE) -> np.ndarray:
        """Nearest-neighbor resize to size×size (no scipy/PIL needed)."""
        h, w = img.shape
        ri = (np.arange(size) * h // size).clip(0, h - 1)
        ci = (np.arange(size) * w // size).clip(0, w - 1)
        return img[np.ix_(ri, ci)]

    @staticmethod
    def sample_frames(vid: np.ndarray, stride: int = FRAME_STRIDE) -> np.ndarray:
        return vid[::stride]

    def featurize(self, arr2d: np.ndarray) -> np.ndarray:
        flat = np.resize(arr2d, TARGET_SIZE * TARGET_SIZE)
        return flat @ self.proj

    # --- the batch entry point -------------------------------------------

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("media_id").to_pylist()
        kinds = batch.column("kind").to_pylist()
        payloads = batch.column("payload").to_pylist()
        widths = batch.column("width").to_pylist()
        heights = batch.column("height").to_pylist()
        rates = batch.column("sample_rate").to_pylist()
        frames = batch.column("n_frames").to_pylist()

        feats, n_bytes, n_elems = [], [], []
        for kind, payload, w, h, r, f in zip(kinds, payloads, widths,
                                             heights, rates, frames):
            arr = self.codec.decode(kind, payload, w, h, r, f)
            if kind == "image":
                arr = self.resize(arr)
            elif kind == "video":
                arr = self.sample_frames(arr).mean(axis=0)
                arr = self.resize(arr)
            feats.append(self.featurize(arr))
            n_bytes.append(len(payload))
            n_elems.append(int(arr.size))

        fmat = np.stack(feats) if feats else np.zeros((0, FEAT_DIM))
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "kind": pa.array(kinds, pa.string()),
                "n_bytes": pa.array(n_bytes, pa.int64()),
                "n_elements": pa.array(n_elems, pa.int64()),
                "feature": pa.array(
                    [row.tolist() for row in fmat],
                    pa.list_(pa.float64()),
                ),
            }
        )


def media_features(sf_dir: str) -> "rd.Dataset":
    """Per-media feature rows, one featurizer call per block. Rows-only
    check (the stub decode is not SQL-expressible); determinism and
    schema pinned in tests."""
    return media_table(sf_dir).map_batches(
        MediaFeaturizer(), batch_format="pyarrow", batch_size=None)


def media_features_flat(sf_dir: str) -> "rd.Dataset":
    """Scalar projection of ``media_features`` for harnesses that sort
    rows by value (list columns are unsortable there): the feature
    vector is reduced to fixed-point norm / first-component columns."""
    feats = media_features(sf_dir)

    def flatten(batch: pa.Table) -> pa.Table:
        fmat = np.array(batch.column("feature").to_pylist(), dtype=np.float64)
        if fmat.size == 0:
            fmat = np.zeros((0, FEAT_DIM))
        return pa.table(
            {
                "media_id": batch.column("media_id"),
                "kind": batch.column("kind"),
                "n_bytes": batch.column("n_bytes"),
                "n_elements": batch.column("n_elements"),
                "feat_norm_x1e6": pa.array(
                    (np.linalg.norm(fmat, axis=1) * 1e6).round().astype(np.int64),
                    pa.int64(),
                ),
                "feat0_x1e6": pa.array(
                    (fmat[:, 0] * 1e6).round().astype(np.int64), pa.int64()
                ),
            }
        )

    return feats.map_batches(flatten, batch_format="pyarrow")


def media_kind_summary(sf_dir: str) -> "rd.Dataset":
    """Per-kind media counts and total payload bytes, measured from the
    ACTUAL binary column after the featurizer stage — oracle-checked
    against the doc_id-derived size rule, proving the binary payloads
    round-trip through the featurizer stage intact."""
    feats = media_features(sf_dir)

    return finish_agg(feats, ["kind"], {"n_media": ("kind", "count"),
                                        "sum_bytes": ("n_bytes", "sum")})


MEDIA_KIND_SUMMARY_SQL = f"""
SELECT CASE doc_id % 3 WHEN 0 THEN 'image'
                       WHEN 1 THEN 'audio'
                       ELSE 'video' END AS kind,
       count(*) AS n_media,
       CAST(sum({PAYLOAD_BASE} + (doc_id % {PAYLOAD_MOD}) * {PAYLOAD_STEP})
            AS BIGINT) AS sum_bytes
FROM documents
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# media content dedup (byte-digest grouping over the binary column)
# ---------------------------------------------------------------------------

MEDIA_DUP_MOD = 50  # dedup fixture: only this many distinct payloads


def media_dedup(sf_dir: str):
    """Exact content dedup over the BINARY media column — the
    image/audio counterpart of text ``dedup_exact``: group by the
    payload's digest, keep the smallest media_id. The exchange moves
    32-byte digests, never payloads. Fixture: payload content is a pure
    function of ``media_id % MEDIA_DUP_MOD``, so the byte-level digest
    grouping must coincide exactly with the generative rule — which is
    what the SQL oracle checks WITHOUT being able to hash the bytes.
    Output (keep_id, n_copies)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id"])

    def gen_and_digest(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        digests = []
        for did in ids:
            src = did % MEDIA_DUP_MOD
            n_bytes = PAYLOAD_BASE + (src % PAYLOAD_MOD) * PAYLOAD_STEP
            payload = _payload(src, n_bytes)
            digests.append(hashlib.md5(payload).hexdigest())
        return pa.table({
            "digest": pa.array(digests, pa.string()),
            "media_id": pa.array(ids, pa.int64()),
        })

    agg = hash_agg(ds.map_batches(gen_and_digest, batch_format="pyarrow"),
                   ["digest"], {"keep_id": ("media_id", "min"),
                                "n_copies": ([], "count_all")})
    return agg.map_batches(
        lambda b: b.select(["keep_id", "n_copies"]),
        batch_format="pyarrow")


MEDIA_DEDUP_SQL = f"""
SELECT CAST(min(doc_id) AS BIGINT) AS keep_id,
       CAST(count(*) AS BIGINT) AS n_copies
FROM documents
GROUP BY doc_id % {MEDIA_DUP_MOD}
"""

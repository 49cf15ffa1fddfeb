"""Shared text-analysis primitives used by the training-data pipelines.

All functions are deterministic and, where an oracle exists, pinned to
DuckDB's observable semantics (verified empirically in tests):

- ``md5_hex``            == DuckDB ``md5(text)``
- token counting         == ``len(string_split(text, ' '))`` (single-space
                            split keeping empties: n_separators + 1)
- ``byte_set_mask``      drives a Jaccard identical to DuckDB's
                            ``jaccard(a, b)`` (similarity of the *byte*
                            sets of the UTF-8 encodings, case-sensitive)
"""

from __future__ import annotations

import hashlib

import numpy as np


def md5_hex(s: str) -> str:
    return hashlib.md5(s.encode("utf-8")).hexdigest()


def token_count(s: str) -> int:
    """== DuckDB len(string_split(s, ' '))."""
    return s.count(" ") + 1


def distinct_token_count(s: str) -> int:
    """== DuckDB len(list_distinct(string_split(s, ' ')))."""
    return len(set(s.split(" ")))


def byte_set_mask(s: str) -> np.ndarray:
    """256-bit membership mask of the UTF-8 bytes of ``s`` as 4 uint64
    words. Two masks give DuckDB-compatible Jaccard via popcounts."""
    mask = np.zeros(4, dtype=np.uint64)
    for b in set(s.encode("utf-8")):
        mask[b >> 6] |= np.uint64(1) << np.uint64(b & 63)
    return mask


def masks_for(texts) -> np.ndarray:
    """(n, 4) uint64 matrix of byte-set masks."""
    out = np.zeros((len(texts), 4), dtype=np.uint64)
    for i, t in enumerate(texts):
        out[i] = byte_set_mask(t)
    return out


_POPCNT = np.array([bin(i).count("1") for i in range(65536)], dtype=np.uint16)


def popcount64(arr: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array (16-bit table lookups)."""
    a = arr.view(np.uint16).reshape(*arr.shape, 4) if arr.dtype == np.uint64 else None
    assert a is not None
    return _POPCNT[a].sum(axis=-1).astype(np.int64)


# --- word shingles / MinHash -------------------------------------------------

_MERSENNE = (1 << 61) - 1


_TOKEN_HASH_CACHE: dict[str, int] = {}
_TOKEN_HASH_CACHE_MAX = 1 << 20


def token_hash(tok: str) -> int:
    """Cached stable 64-bit token hash (blake2b-8). Corpus vocabularies
    are Zipfian, so the per-process cache turns the dominant per-shingle
    digest cost into dict hits; determinism is unaffected (same token →
    same digest on any host)."""
    h = _TOKEN_HASH_CACHE.get(tok)
    if h is None:
        if len(_TOKEN_HASH_CACHE) >= _TOKEN_HASH_CACHE_MAX:
            _TOKEN_HASH_CACHE.clear()
        h = hash_bytes(tok.encode())
        _TOKEN_HASH_CACHE[tok] = h
    return h


def word_shingles(s: str, k: int = 3) -> set[int]:
    """Hashed k-word shingles of a text (single-space tokenization).

    Each shingle id is an order-sensitive splitmix64 fold of the k
    cached per-token digests — vectorized across all shingles of the
    text (one numpy pass per offset) instead of one blake2b call per
    shingle. Distinct shingles collide with ~2^-64 probability, so set
    intersections/Jaccards are equal to the string-shingle versions
    w.h.p.; every consumer (LSH banding, exact verify, tests' truth
    sets) uses this same function, so the ids are consistent
    end-to-end."""
    toks = s.split(" ")
    if len(toks) < k:
        return {hash_bytes(" ".join(toks).encode())}
    th = np.fromiter((token_hash(t) for t in toks), dtype=np.uint64,
                     count=len(toks))
    n_sh = len(toks) - k + 1
    acc = th[:n_sh].copy()
    for j in range(1, k):
        acc ^= th[j : n_sh + j] * _GOLDEN
        acc = mix64(acc)
    return set(acc.tolist())


def hash_bytes(b: bytes) -> int:
    """Stable 64-bit hash (blake2b-8); never use Python hash() — it is
    salted per process and would break cross-process determinism."""
    return int.from_bytes(hashlib.blake2b(b, digest_size=8).digest(), "big")


_PERM_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _permutations(num_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    key = (num_perm, seed)
    if key not in _PERM_CACHE:
        rng = np.random.RandomState(seed)
        a = rng.randint(1, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)
        b = rng.randint(0, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)
        _PERM_CACHE[key] = (a, b)
    return _PERM_CACHE[key]


def minhash_signature(shingles: set[int], num_perm: int = 64,
                      seed: int = 1) -> np.ndarray:
    """num_perm-wide MinHash signature via universal hashing a*x+b mod p
    (p = 2^61-1), vectorized with wrap-around uint64 arithmetic (the
    standard datasketch-style construction: overflow wraps, the result is
    still a deterministic uniform-ish permutation hash)."""
    a, b = _permutations(num_perm, seed)
    if not shingles:
        return np.full(num_perm, _MERSENNE, dtype=np.uint64)
    x = np.fromiter(shingles, dtype=np.uint64, count=len(shingles))
    hv = (x[None, :] * a[:, None] + b[:, None]) % np.uint64(_MERSENNE)
    return hv.min(axis=1)


def minhash_signatures_batch(shingle_sets: list, num_perm: int = 64,
                             seed: int = 1) -> np.ndarray:
    """(n_docs, num_perm) MinHash matrix, value-identical to calling
    ``minhash_signature`` per document, but the universal-hash
    min-reduction runs over ALL shingles of the batch at once
    (``np.minimum.reduceat`` over per-doc segments) instead of one
    Python-dispatched numpy call per document. Documents are chunked so
    the (num_perm × shingles) temporary stays ~64 MB."""
    import itertools

    a, b = _permutations(num_perm, seed)
    n = len(shingle_sets)
    out = np.full((n, num_perm), _MERSENNE, dtype=np.uint64)
    if n == 0:
        return out
    sizes = np.fromiter((len(s) for s in shingle_sets), dtype=np.int64,
                        count=n)
    nz = np.nonzero(sizes)[0]
    if len(nz) == 0:
        return out
    nz_sizes = sizes[nz]
    total = int(nz_sizes.sum())
    x = np.fromiter(
        itertools.chain.from_iterable(shingle_sets[i] for i in nz),
        dtype=np.uint64, count=total,
    )
    starts = np.zeros(len(nz), dtype=np.int64)
    np.cumsum(nz_sizes[:-1], out=starts[1:])
    ends = starts + nz_sizes
    chunk = max(1 << 17, int(nz_sizes.max()))  # ≥ one doc per chunk
    d0 = 0
    while d0 < len(nz):
        d1 = d0 + 1
        while d1 < len(nz) and ends[d1 - 1] + nz_sizes[d1] - starts[d0] \
                <= chunk:
            d1 += 1
        lo, hi = starts[d0], ends[d1 - 1]
        xs = x[lo:hi]
        hv = (xs[None, :] * a[:, None] + b[:, None]) % np.uint64(_MERSENNE)
        seg = starts[d0:d1] - lo
        mins = np.minimum.reduceat(hv, seg, axis=1)  # (num_perm, docs)
        out[nz[d0:d1]] = mins.T
        d0 = d1
    return out


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def mix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array (the same
    stable mix as stages.exchange.stable_bucket, kept full-width)."""
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def band_hashes(sigs: np.ndarray, num_bands: int) -> np.ndarray:
    """(n_docs, num_bands) uint64 band digests of a (n_docs, num_perm)
    signature matrix: each band's ``num_perm // num_bands`` values fold
    through a splitmix64 chain — fully vectorized across the batch
    (replaces one blake2b call per doc×band). Equal band values ⇔ equal
    signature chunks up to a ~2^-64 mix collision."""
    n, num_perm = sigs.shape
    r = num_perm // num_bands
    chunks = sigs.reshape(n, num_bands, r)
    acc = np.full((n, num_bands), _GOLDEN, dtype=np.uint64)
    for k in range(r):
        acc = mix64(acc ^ (chunks[:, :, k] * _GOLDEN + np.uint64(k + 1)))
    return acc


def shingle_hash_positions(toks: list[str], k: int) -> np.ndarray:
    """Positional hashed k-token shingles: element i is the hash of
    ``toks[i:i+k]`` (the same order-sensitive splitmix64 fold as
    ``word_shingles``, kept positional instead of set-collapsed).
    Length ``max(0, len(toks) - k + 1)`` — shorter texts yield no
    shingle, matching the SQL oracle's empty generate_series."""
    n = len(toks)
    if n < k:
        return np.empty(0, dtype=np.uint64)
    th = np.fromiter((token_hash(t) for t in toks), dtype=np.uint64,
                     count=n)
    n_sh = n - k + 1
    acc = th[:n_sh].copy()
    for j in range(1, k):
        acc ^= th[j : n_sh + j] * _GOLDEN
        acc = mix64(acc)
    return acc

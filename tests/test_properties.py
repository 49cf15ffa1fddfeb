"""Property-based tests (hypothesis) for the pure kernel primitives —
the functions whose exactness the byte-parity contract rests on."""

import string

import pytest
from conftest import lower_min_block
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pd3f_ray.core.geom import bbox_similarity
from pd3f_ray.core.textnorm import (
    char_bag_jaccard,
    clean_text,
    fix_text,
    has_alnum,
    strip_line_end_spaces,
)

text_st = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=80
)
ascii_st = st.text(alphabet=string.printable, max_size=80)


@settings(max_examples=300, deadline=None)
@given(text_st)
def test_fix_text_idempotent(s):
    assert fix_text(fix_text(s)) == fix_text(s)


@settings(max_examples=300, deadline=None)
@given(ascii_st)
def test_fix_text_identity_on_ascii(s):
    assert fix_text(s) == s


@settings(max_examples=300, deadline=None)
@given(text_st)
def test_clean_text_idempotent(s):
    once = clean_text(s, no_punct=True)
    assert clean_text(once, no_punct=True) == once


@settings(max_examples=300, deadline=None)
@given(text_st)
def test_clean_text_no_punct_strips_ascii_punct(s):
    out = clean_text(s, no_punct=True)
    assert not any(c in string.punctuation for c in out)


@settings(max_examples=300, deadline=None)
@given(text_st)
def test_has_alnum_matches_slow_path(s):
    """The isascii fast path must agree with the cleaned-text definition."""
    slow = any(c.isalnum() for c in clean_text(s, no_punct=True))
    assert has_alnum(s) == slow


@settings(max_examples=300, deadline=None)
@given(text_st, text_st)
def test_char_bag_jaccard_bounds_and_symmetry(a, b):
    j = char_bag_jaccard(a, b)
    assert 0.0 <= j <= 1.0
    assert j == char_bag_jaccard(b, a)
    assert char_bag_jaccard(a, a) == (1.0 if a or True else 1.0)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=" x", max_size=30))
def test_strip_line_end_spaces_properties(body):
    s = body + "\n"
    out = strip_line_end_spaces(s)
    assert out.endswith("\n")
    assert not out[:-1].endswith(" ")
    # only trailing spaces before the newline may be removed
    assert out[:-1] == body.rstrip(" ") or out == s


boxes = st.tuples(
    st.floats(0, 1000, allow_nan=False),
    st.floats(0, 1000, allow_nan=False),
    st.floats(0.1, 500, allow_nan=False),
    st.floats(0.1, 500, allow_nan=False),
)


def _pts(box):
    t, l, w, h = box
    return [(l, t), (l + w, t), (l, t + h), (l + w, t + h)]


@settings(max_examples=300, deadline=None)
@given(boxes, boxes)
def test_bbox_similarity_bounds_and_symmetry(b1, b2):
    s = bbox_similarity(_pts(b1), _pts(b2))
    assert 0.0 <= s <= 1.0 + 1e-9
    assert abs(s - bbox_similarity(_pts(b2), _pts(b1))) < 1e-12


@settings(max_examples=100, deadline=None)
@given(boxes)
def test_bbox_similarity_self_is_one(b):
    assert abs(bbox_similarity(_pts(b), _pts(b)) - 1.0) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(alphabet="ab -", min_size=1, max_size=12),
                min_size=1, max_size=8))
def test_scorer_deterministic_across_instances(words):
    from pd3f_ray.core.scorer import DeterministicScorer

    a = DeterministicScorer("multi")
    b = DeterministicScorer("multi")
    text = " ".join(words)
    assert a.single_score(text) == b.single_score(text)


# --- dead-letter guarantee: extract_record never raises ------------------

json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(
            st.sampled_from(["pages", "elements", "content", "box", "type",
                             "font", "fonts", "id", "properties", "t", "l",
                             "w", "h", "size", "level", "x"]),
            children, max_size=5),
    ),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(json_values)
def test_extract_record_never_raises(payload):
    import json

    from pd3f_ray.core.config import ExtractOptions
    from pd3f_ray.core.kernel import extract_record

    rec = extract_record(json.dumps(payload).encode(),
                         ExtractOptions.experimental())
    assert set(rec) >= {"text", "error", "n_pages", "n_elements", "tables"}
    assert (rec["text"] is None) == (rec["error"] is not None)


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=64))
def test_extract_record_garbage_bytes_dead_letter(blob):
    from pd3f_ray.core.config import ExtractOptions
    from pd3f_ray.core.kernel import extract_record

    rec = extract_record(blob, ExtractOptions.experimental())
    assert rec["error"] is not None or rec["text"] is not None


# --- every bucketed join kind vs pandas on random tables -----------------

# hash-sized int64 keys: a float64 detour (what a null does to a numpy
# int column) would merge neighbouring keys and move their buckets
_key_rows = st.lists(
    st.tuples(st.one_of(st.none(), st.integers(2**60, 2**60 + 30)),
              st.integers(0, 1000)),
    min_size=0, max_size=40)
# every key on both sides, several rows each, and a null on each side
_MANY_ROWS_PER_KEY = ([(2**60 + i % 5, i) for i in range(12)] + [(None, 0)],
                      [(2**60 + i % 7, i) for i in range(10)] + [(None, 1)])


def _check_cogroup(lds, rds, ldf, rdf):
    """``cogroup`` of the two sides and an always-empty third: each
    row arrives once, every non-null key's rows from both sides arrive
    in ONE ``fn`` call, and every side comes as its declared typed
    table, the empty one as a typed empty table in every call."""
    import uuid

    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from pd3f_ray.pipelines import joins

    fields = {"l": {"lk": pa.int64(), "lv": pa.int64()},
              "r": {"rk": pa.int64(), "rv": pa.int64()},
              "x": {"xk": pa.int64(), "xv": pa.string()}}
    xds = rd.from_arrow(pa.table({"xk": pa.array([], pa.int64()),
                                  "xv": pa.array([], pa.string())}))

    def fn(sides: dict) -> pa.Table:
        call = uuid.uuid4().hex
        parts = []
        for side, t in sides.items():
            n = max(t.num_rows, 1)  # an empty side reports one null row
            parts.append(pa.table({
                "call": [call] * n, "side": [side] * n,
                "key": t.column(0) if t.num_rows else pa.nulls(1, pa.int64()),
                "rows": pa.array([t.num_rows] * n, pa.int64()),
                "typed": [t.schema == pa.schema(fields[side])] * n}))
        return pa.concat_tables(parts)

    with pytest.MonkeyPatch.context() as mp:
        lower_min_block(mp)  # P > 1: the exchange sorts
        ds = joins.cogroup({"l": (lds, "lk", fields["l"]),
                            "r": (rds, "rk", fields["r"]),
                            "x": (xds, "xk", fields["x"])}, fn)
        blocks = [b for b in ds.iter_batches(batch_format="pyarrow",
                                             batch_size=None) if b.num_rows]
    if not blocks:
        assert len(ldf) == len(rdf) == 0
        return
    got = pa.concat_tables(blocks).to_pandas(
        types_mapper={pa.int64(): pd.Int64Dtype()}.get)
    assert got["typed"].all()
    rows = got[got["rows"] > 0]
    for side, df, key in (("l", ldf, "lk"), ("r", rdf, "rk")):
        assert sorted(rows.loc[rows["side"] == side, "key"].tolist(),
                      key=repr) == sorted(df[key].tolist(), key=repr)
    keyed = rows[rows["key"].notna()]
    assert (keyed.groupby("key")["call"].nunique() == 1).all()
    empty = got[got["side"] == "x"]
    assert (empty["rows"] == 0).all()
    assert len(empty) == got["call"].nunique()


@pytest.mark.parametrize("kind", ["inner", "left", "semi", "anti",
                                  "full_outer", "cogroup"])
@settings(max_examples=2, deadline=None)
@given(_key_rows, _key_rows)
@example(*_MANY_ROWS_PER_KEY)
def test_hash_join_matches_pandas(ray_session, kind, left_rows, right_rows):
    """Each join kind against its pandas reference (``merge``/``isin``)
    on nullable int64 keys. A null key never matches, whereas pandas
    merge pairs nulls, so the references join the non-null rows and add
    the null-keyed rows back wherever the kind keeps unmatched rows.
    ``cogroup``, the exchange under every kind, is checked for its own
    contract (``_check_cogroup``)."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from pd3f_ray.pipelines import joins

    rk = "lk" if kind == "full_outer" else "rk"  # one shared key name
    ldf = pd.DataFrame(left_rows, columns=["lk", "lv"]).astype("Int64")
    rdf = pd.DataFrame(right_rows, columns=[rk, "rv"]).astype("Int64")
    if kind == "cogroup":
        _check_cogroup(rd.from_pandas(ldf), rd.from_pandas(rdf), ldf, rdf)
        return
    lnull, rnull = ldf[ldf["lk"].isna()], rdf[rdf[rk].isna()]
    lm, rm = ldf.dropna(subset=["lk"]), rdf.dropna(subset=[rk])
    hit = ldf["lk"].notna() & ldf["lk"].isin(rm[rk])
    want = {
        "inner": lambda: lm.merge(rm, left_on="lk", right_on="rk"),
        "left": lambda: pd.concat([
            lm.merge(rm, how="left", left_on="lk", right_on="rk"), lnull]),
        "semi": lambda: ldf[hit],
        "anti": lambda: ldf[~hit],
        "full_outer": lambda: pd.concat([
            lm.merge(rm, how="outer", on="lk"), lnull, rnull]),
    }[kind]()

    lds, rds = rd.from_pandas(ldf), rd.from_pandas(rdf)
    ls = pa.schema([("lk", pa.int64()), ("lv", pa.int64())])
    rs = pa.schema([(rk, pa.int64()), ("rv", pa.int64())])
    with pytest.MonkeyPatch.context() as mp:
        lower_min_block(mp)  # P > 1: the exchange sorts
        if kind in ("semi", "anti"):
            fn = joins.semi_join if kind == "semi" else joins.anti_join
            ds = fn(lds, rds, "lk", "rk", left_schema=ls)
        elif kind == "full_outer":
            ds = joins.full_outer_join(lds, rds, "lk", left_schema=ls,
                                       right_schema=rs)
        else:
            fn = joins.hash_join if kind == "inner" else joins.left_join
            ds = fn(lds, rds, "lk", "rk", left_schema=ls, right_schema=rs)
        # read through Arrow: Dataset.to_pandas turns a nullable int64
        # column into float64, which rounds these 2**60-sized keys
        blocks = [b for b in ds.iter_batches(batch_format="pyarrow",
                                             batch_size=None) if b.num_rows]
    if not blocks:
        assert len(want) == 0
        return
    got = pa.concat_tables(blocks).to_pandas(
        types_mapper={pa.int64(): pd.Int64Dtype()}.get)

    def canon(df):
        df = df[list(want.columns)].astype("Int64")
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    pd.testing.assert_frame_equal(canon(got), canon(want))


# ---------------------------------------------------------------------------
# round-2 distributed-plan invariants (pure logic, no Ray)
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5000), min_size=2,
                max_size=60))
def test_length_banding_covers_every_window_pair(chars):
    """The (band, ghost) replication scheme must place BOTH endpoints of
    every |ci - cj| <= CHAR_BAND pair in the band of the smaller one —
    the invariant jaccard_pairs/ngram_jaccard_pairs correctness rests
    on — and each qualifying pair must be anchored exactly once."""
    from pd3f_ray.pipelines.dedup import CHAR_BAND, LENGTH_BAND_W

    # simulate _band_rows: (band, native) memberships per doc index
    membership = {}
    for i, c in enumerate(chars):
        band = c // LENGTH_BAND_W
        membership.setdefault(i, []).append((band, True))
        if c % LENGTH_BAND_W < CHAR_BAND and band > 0:
            membership[i].append((band - 1, False))

    for i, ci in enumerate(chars):
        for j, cj in enumerate(chars):
            if i >= j:
                continue
            lo, hi = (i, j) if ci <= cj else (j, i)
            if abs(ci - cj) > CHAR_BAND:
                continue
            anchor_band = chars[lo] // LENGTH_BAND_W
            # the anchor is native in its own band
            assert (anchor_band, True) in membership[lo]
            # the partner is present in the anchor's band
            assert any(b == anchor_band for b, _ in membership[hi]), (
                chars[lo], chars[hi])
            # anchored exactly once: the pair is only emitted from bands
            # where the SMALLER doc is native — that is one band
            anchors = [b for b, nat in membership[lo] if nat]
            assert anchors == [anchor_band]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=-2**62, max_value=2**62),
                min_size=1, max_size=2000, unique=True))
def test_hll_registers_merge_equals_union(ids):
    """Merging per-partition HLL registers by elementwise max must equal
    the registers of the union — the property that makes the sketch
    exchange-safe — and the estimate must be within 3 sigma."""
    import numpy as np

    from pd3f_ray.pipelines.sketches import (
        HLL_P,
        _hll_estimate,
        _hll_registers,
    )

    arr = np.array(ids, dtype=np.int64)
    half = len(arr) // 2
    merged = np.maximum(_hll_registers(arr[:half]),
                        _hll_registers(arr[half:]))
    assert np.array_equal(merged, _hll_registers(arr))
    est = _hll_estimate(merged)
    sigma = 1.04 / (2 ** (HLL_P / 2)) * len(arr)
    assert abs(est - len(arr)) <= max(3, 3 * sigma), (est, len(arr))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=-2**62, max_value=2**62), min_size=1,
                max_size=500))
def test_stable_bucket_in_range_and_deterministic(keys):
    import numpy as np

    from pd3f_ray.stages.exchange import stable_bucket

    a = stable_bucket(np.array(keys, dtype=np.int64), 128)
    b = stable_bucket(np.array(keys, dtype=np.int64), 128)
    assert np.array_equal(a, b)
    assert ((a >= 0) & (a < 128)).all()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1 << 30), min_size=1,
                max_size=60), st.data())
def test_balanced_runs_cover_in_order(sizes, data):
    """The read planner's row-group slices: ``n`` contiguous, non-empty
    runs covering every row group once, in order, none holding more than
    an equal share plus one row group."""
    from pd3f_ray.core.parquet import balanced_runs

    n = data.draw(st.integers(min_value=1, max_value=len(sizes)))
    runs = balanced_runs(sizes, n)
    assert len(runs) == n
    assert runs[0][0] == 0 and runs[-1][1] == len(sizes)
    assert all(a < b for a, b in runs)
    assert all(b == c for (_, b), (c, _) in zip(runs, runs[1:]))
    for a, b in runs:
        assert sum(sizes[a:b]) * n <= sum(sizes) + n * max(sizes)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=0, max_value=2**61 - 2),
                         min_size=0, max_size=40),
                min_size=0, max_size=12))
def test_minhash_batch_matches_per_doc(shingle_lists):
    """minhash_signatures_batch must be value-identical to the per-doc
    minhash_signature it vectorizes (incl. empty sets)."""
    import numpy as np

    from pd3f_ray.functions.textfns import (
        minhash_signature,
        minhash_signatures_batch,
    )

    sets = [set(l) for l in shingle_lists]
    batch = minhash_signatures_batch(sets, num_perm=16)
    for i, s in enumerate(sets):
        # minhash_signature returns the all-MERSENNE row for empty sets
        # only via its explicit branch; batch must agree
        want = minhash_signature(s, num_perm=16) if s else batch[i]
        assert np.array_equal(batch[i], want), i


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), min_size=8,
                max_size=8))
def test_band_hashes_separate_chunks(sig):
    """Equal signature chunks ⇔ equal band digests; chunk order matters."""
    import numpy as np

    from pd3f_ray.functions.textfns import band_hashes

    sigs = np.array([sig, sig], dtype=np.uint64)
    bh = band_hashes(sigs, num_bands=4)
    assert bh.shape == (2, 4)
    assert np.array_equal(bh[0], bh[1])
    # permuting within a chunk changes that band's digest (w.h.p.)
    mut = np.array([sig], dtype=np.uint64)
    if mut[0, 0] != mut[0, 1]:
        swapped = mut.copy()
        swapped[0, [0, 1]] = swapped[0, [1, 0]]
        if not np.array_equal(mut[0, :2], swapped[0, :2]):
            assert band_hashes(swapped, 4)[0, 0] != bh[0, 0]


def test_emb_lsh_planner_bounds_bucket_size():
    """ADVICE r2: EMBLSH dims must scale with the row count so the
    expected (table, code) bucket stays bounded; floors keep small-scale
    defaults byte-stable."""
    from pd3f_ray.pipelines.dedup import (
        EMBLSH_PLANES,
        EMBLSH_TABLES,
        EMBLSH_TARGET_BUCKET,
        _derive_lsh_dims,
    )

    # small inputs: exactly the historical defaults
    for n in (0, 100, 10_000, EMBLSH_TARGET_BUCKET * (1 << EMBLSH_PLANES)):
        assert _derive_lsh_dims(n) == (EMBLSH_PLANES, EMBLSH_TABLES)
    # large inputs: expected bucket bounded, recall held via more tables
    for n in (10**7, 10**9, 10**12):
        planes, tables = _derive_lsh_dims(n)
        assert n / (1 << planes) <= EMBLSH_TARGET_BUCKET or planes == 24
        assert planes > EMBLSH_PLANES
        assert tables >= EMBLSH_TABLES
        # recall at p=0.9 with the chosen dims stays >= target
        if planes < 24:
            p_hit = 0.9 ** planes
            assert 1 - (1 - p_hit) ** tables >= 0.999


@given(
    st.integers(min_value=0, max_value=60),
    st.lists(st.integers(min_value=0, max_value=59), max_size=20),
    st.integers(min_value=1, max_value=10),
)
@settings(max_examples=200, deadline=None)
def test_span_coverage_matches_bruteforce(n_toks, raw_starts, w):
    """_coverage's diff-array interval union == the brute-force mask."""
    import numpy as np

    from pd3f_ray.pipelines.spandedup import _coverage

    starts = np.asarray([s for s in raw_starts if s < n_toks],
                        dtype=np.int64)
    got = _coverage(n_toks, starts, w)
    want = np.zeros(n_toks, dtype=bool)
    for s in starts:
        want[s:s + w] = True
    assert (got == want).all()


@given(st.lists(st.text(alphabet=string.ascii_lowercase, min_size=1,
                        max_size=6), min_size=0, max_size=30),
       st.integers(min_value=1, max_value=5))
@settings(max_examples=100, deadline=None)
def test_positional_shingles_consistent_with_set_form(toks, k):
    """shingle_hash_positions: length max(0, n-k+1); its value set
    equals word_shingles on the same text whenever n >= k; equal token
    windows hash equal, and each position hashes its own window."""
    from pd3f_ray.functions.textfns import (
        shingle_hash_positions,
        word_shingles,
    )

    hs = shingle_hash_positions(toks, k)
    n = len(toks)
    assert len(hs) == max(0, n - k + 1)
    if n >= k:
        assert set(hs.tolist()) == word_shingles(" ".join(toks), k)
        for i in range(len(hs)):
            window = toks[i:i + k]
            assert hs[i] == shingle_hash_positions(window, k)[0]


# ---------------------------------------------------------------------------
# funnel scan vs brute-force reference
# ---------------------------------------------------------------------------


def _funnel_brute(types, times, deadlines):
    """Reference: enumerate — stage k anchors on the first event of its
    type strictly after the previous anchor; it must be within the
    deadline or the funnel stops."""
    anchor = None
    stage = 0
    start = 0
    from pd3f_ray.pipelines.windows import FUNNEL_STAGES

    for k, name in enumerate(FUNNEL_STAGES):
        cand = [i for i in range(start, len(types)) if types[i] == name]
        if not cand:
            break
        i = cand[0]
        if k > 0 and times[i] - anchor > deadlines[k - 1]:
            break
        stage, anchor, start = k + 1, times[i], i + 1
    return stage


@given(st.lists(st.tuples(st.sampled_from(["view", "click", "purchase",
                                           "error", "signup"]),
                          st.integers(0, 10_000)),
                min_size=0, max_size=40))
@settings(max_examples=300, deadline=None)
def test_funnel_scan_matches_brute_force(events):
    import numpy as np

    from pd3f_ray.pipelines.windows import _funnel_user_stage

    events = sorted(events, key=lambda e: e[1])
    types = np.array([e[0] for e in events], dtype=object)
    times = np.array([e[1] for e in events], dtype=np.int64)
    deadlines = [1_000, 2_000]
    assert (_funnel_user_stage(types, times, deadlines)
            == _funnel_brute(list(types), list(times), deadlines))


# ---------------------------------------------------------------------------
# Levenshtein DP kernel (fuzzy_name_pairs)
# ---------------------------------------------------------------------------

short_st = st.text(alphabet=string.ascii_lowercase + " ", max_size=16)


@settings(max_examples=300, deadline=None)
@given(short_st, short_st)
def test_levenshtein_metric_axioms(a, b):
    from pd3f_ray.pipelines.dedup import _levenshtein

    d = _levenshtein(a, b)
    assert d == _levenshtein(b, a)                  # symmetry
    assert (d == 0) == (a == b)                     # identity
    assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))  # bounds


@settings(max_examples=150, deadline=None)
@given(short_st, short_st, short_st)
def test_levenshtein_triangle_inequality(a, b, c):
    from pd3f_ray.pipelines.dedup import _levenshtein

    assert _levenshtein(a, c) <= _levenshtein(a, b) + _levenshtein(b, c)


@settings(max_examples=200, deadline=None)
@given(short_st, st.integers(0, 15), st.sampled_from(string.ascii_lowercase))
def test_levenshtein_single_edit_costs_at_most_one(s, i, ch):
    from pd3f_ray.pipelines.dedup import _levenshtein

    i = min(i, len(s))
    inserted = s[:i] + ch + s[i:]
    assert _levenshtein(s, inserted) <= 1
    if s:
        j = min(i, len(s) - 1)
        substituted = s[:j] + ch + s[j + 1:]
        assert _levenshtein(s, substituted) <= 1


# ---------------------------------------------------------------------------
# packed-int64 argmax encodings (dedup_keep_best / url_dedup_latest)
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.integers(1, (1 << 29)), st.integers(0, (1 << 33) - 1))
def test_keep_best_packing_bijective(n_chars, doc_id):
    import numpy as np

    from pd3f_ray.pipelines.dedup import _PACK_SHIFT

    p = np.int64((n_chars << _PACK_SHIFT) - doc_id)
    best_chars = int(-((-p) >> np.int64(_PACK_SHIFT)))
    best_id = int((np.int64(best_chars) << np.int64(_PACK_SHIFT)) - p)
    assert (best_chars, best_id) == (n_chars, doc_id)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 1 << 20), st.integers(0, 1 << 16)),
                min_size=1, max_size=20))
def test_keep_best_packing_orders_like_the_policy(pairs):
    """max(packed) must pick exactly (max n_chars, then MIN doc_id) —
    the argmax the policy documents."""
    from pd3f_ray.pipelines.dedup import _PACK_SHIFT

    packed = [(n << _PACK_SHIFT) - d for n, d in pairs]
    win = packed.index(max(packed))
    want = sorted(pairs, key=lambda t: (-t[0], t[1]))[0]
    assert pairs[win] == want


def test_stable_bucket_strings_cross_process():
    """String keys bucket via pd.util.hash_array (fixed-key siphash);
    the distributed string-key label propagation
    (name_entity_clusters' scale path) requires the SAME bucket for
    the same key in EVERY worker process — pin it against a fresh
    interpreter (where Python's own hash() would differ, being
    per-process salted)."""
    import subprocess
    import sys

    import numpy as np

    from pd3f_ray.stages.exchange import stable_bucket

    keys = ["red bolt", "old bolt", "", "Ünïcode näme", "a" * 200]
    here = stable_bucket(np.array(keys, dtype=object), 64).tolist()
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, '/root/repo')\n"
         "import numpy as np\n"
         "from pd3f_ray.stages.exchange import stable_bucket\n"
         "keys = ['red bolt', 'old bolt', '', 'Ünïcode näme', 'a' * 200]\n"
         "print(stable_bucket(np.array(keys, dtype=object), 64).tolist())"],
        capture_output=True, text=True, check=True)
    assert eval(out.stdout.strip()) == here
    assert all(0 <= b < 64 for b in here)


# --- the kernel's one pass per element against the tree walk -------------

_coord = st.floats(0, 500, allow_nan=False, allow_infinity=False)
_box_st = st.fixed_dictionaries({"t": _coord, "l": _coord, "w": _coord,
                                 "h": _coord})
# ASCII, suspect characters (mojibake: "Ã¤" repairs to "ä", "Â" and a
# no-break space to a no-break space), non-ASCII letters (one not in
# Latin-1, which stops a whole-text repair) and the no-break space, which
# str.strip removes
_word_text = st.text(alphabet=["a", "1", " ", ":", "-", "*", "Ã", "Â", "¤", "é",
                               "€", "\u00a0"], max_size=6)
_plain_word = st.fixed_dictionaries(
    {"type": st.just("word"), "content": _word_text,
     "font": st.integers(0, 2), "box": _box_st})
_tree_leaves = st.one_of(
    _plain_word,
    # no font: the word walk's KeyError
    st.fixed_dictionaries({"type": st.just("word"), "content": _word_text,
                           "box": _box_st}),
    # no box: a line the one-pass record refuses
    st.fixed_dictionaries({"type": st.just("word"), "content": _word_text,
                           "font": st.integers(0, 2)}),
    # no content at all
    st.fixed_dictionaries({"type": st.sampled_from(["line", "group"])}),
)


def _tree_nodes(children):
    kids = st.lists(children, max_size=4)
    return st.one_of(
        st.fixed_dictionaries({"type": st.just("line"),
                               "id": st.integers(0, 99), "box": _box_st,
                               "content": kids}),
        st.fixed_dictionaries({"type": st.just("line"),
                               "id": st.integers(0, 99), "box": _box_st,
                               "content": st.lists(_plain_word, min_size=1,
                                                   max_size=6)}),
        # lines nested in groups, and words directly under a group
        st.fixed_dictionaries({"type": st.just("group"), "content": kids}),
        # list-valued word content: the line walk enters it, the word
        # walk does not
        st.fixed_dictionaries({"type": st.just("word"), "content": kids,
                               "font": st.integers(0, 2), "box": _box_st}),
        kids,
    )


_tree_node = st.recursive(_tree_leaves, _tree_nodes, max_leaves=20)
_element_st = st.fixed_dictionaries(
    {"type": st.sampled_from(["paragraph", "paragraph", "heading", "line",
                              "word"])},
    optional={"content": st.one_of(st.lists(_tree_node, max_size=5),
                                   _tree_node)},
)


def _plain_line(ln) -> bool:
    """A line the one-pass record must take: a non-empty list of word dicts
    with text, font and a box with ``l`` and ``w``."""
    items = ln.get("content")
    return (type(items) is list and len(items) > 0 and all(
        type(w) is dict and w.get("type") == "word"
        and type(w.get("content")) is str and "font" in w
        and type(w.get("box")) is dict for w in items))


@settings(max_examples=400, deadline=None)
@given(_element_st)
def test_flatten_is_the_tree_walk(element):
    """``flatten`` gives exactly the fonts of ``walk_nodes(e, "word")``
    (or its KeyError), the lines of ``walk_nodes(e, "line")`` whenever it
    gives lines (always for an element whose content is a list of lines),
    and for each plain line a record equal to the per-word helpers."""
    from pd3f_ray.core.kernel import (
        flatten,
        mean_word_gap,
        walk_nodes,
        words_of_line,
    )

    records: dict = {}
    try:
        want_fonts = [w["font"] for w in walk_nodes(element, "word")]
    except KeyError as exc:
        with pytest.raises(KeyError) as got:
            flatten(element, records)
        assert got.value.args == exc.args
        return
    lines, fonts = flatten(element, records)
    assert fonts == want_fonts

    want_lines = walk_nodes(element, "line")
    content = element.get("content")
    if (type(content) is list and element["type"] not in ("line", "word")
            and all(type(c) is dict and c.get("type") == "line"
                    for c in content)):
        assert lines is content
        for ln in lines:
            assert (id(ln) in records) == _plain_line(ln)
    if lines is not None:
        assert [id(x) for x in lines] == [id(x) for x in want_lines]
    for ln in want_lines:
        rec = records.get(id(ln))
        if rec is None:
            continue
        words, word_fonts = words_of_line(ln)
        assert rec[:3] == (tuple(words), tuple(word_fonts), mean_word_gap(ln))
        if rec[3] is not None:
            assert rec[3] == any(has_alnum(w) for w in words)


@st.composite
def _kernel_docs(draw):
    """Synthetic-style layouts: pages of paragraphs of word lines, with
    header/footer flags, mixed fonts, mojibake and punctuation-only words,
    and now and then a word without a box or a font."""
    from pd3f_ray.sources.synth import FONTS, MARGIN_L, _IdGen, _line, _paragraph

    ids = _IdGen()
    pages = []
    for _ in range(draw(st.integers(1, 3))):
        elements, t = [], 40.0
        for _ in range(draw(st.integers(0, 4))):
            font = draw(st.sampled_from([0, 0, 0, 1, 2]))
            lines = []
            for _ in range(draw(st.integers(1, 4))):
                words = draw(st.lists(_word_text.filter(str.strip),
                                      max_size=8))
                left = MARGIN_L + draw(st.sampled_from([0.0, 0.0, 24.0]))
                line = _line(ids, words, font, t, left)
                if line["content"] and draw(st.integers(0, 9)) == 0:
                    victim = draw(st.sampled_from(line["content"]))
                    del victim[draw(st.sampled_from(["box", "font"]))]
                lines.append(line)
                t += 10.0 + draw(st.sampled_from([4.0, 4.0, 4.0, 40.0]))
            flag = draw(st.sampled_from([{}, {}, {"is_header": True},
                                         {"is_footer": True}]))
            elements.append(_paragraph(ids, lines, **flag))
        pages.append({"elements": elements})
    return {"pages": pages, "fonts": [dict(f) for f in FONTS]}


@settings(max_examples=200, deadline=None)
@given(_kernel_docs(), st.booleans())
def test_kernel_same_without_line_records(doc, experimental):
    """The line records change no output: with the one-pass record turned
    off every reader falls back to the per-word helpers, and the record
    (text or dead letter) is the same."""
    import copy
    from unittest import mock

    from pd3f_ray.core import kernel
    from pd3f_ray.core.config import ExtractOptions

    opts = ExtractOptions.experimental() if experimental else ExtractOptions.plain()
    want_doc = copy.deepcopy(doc)
    got = kernel.extract_parsed(doc, opts)
    with mock.patch.object(kernel, "_line_record", lambda line: None):
        want = kernel.extract_parsed(want_doc, opts)
    assert got == want


@settings(max_examples=200, deadline=None)
@given(_kernel_docs())
def test_gathered_text_from_records(doc):
    """An element's gathered text is the same from its line records as
    from the word walk."""
    from pd3f_ray.core.kernel import DocStats, DocumentError, gathered_text

    try:
        stats = DocStats.compute(doc)
    except (DocumentError, KeyError):
        return
    for page in doc["pages"]:
        for e in page["elements"]:
            try:
                want = gathered_text([e])
            except KeyError:
                continue
            assert gathered_text([e], stats) == want

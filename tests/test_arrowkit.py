"""The segment helpers of ``core.arrowkit`` against plain-Python
references (no Ray): ``runs``, ``sort_runs``, ``run_rank`` and the
DuckDB rounding helper."""

import itertools

import duckdb
import numpy as np
import pytest

from pd3f_ray.core.arrowkit import round_half_away, run_rank, runs, sort_runs


def _ref_runs(*cols):
    """(starts, ends) of the runs of equal rows, via itertools.groupby."""
    starts, ends, pos = [], [], 0
    for _, g in itertools.groupby(zip(*cols)):
        n = len(list(g))
        starts.append(pos)
        ends.append(pos + n)
        pos += n
    return starts, ends


def _keys(rng, n):
    """Two int keys with many ties, a string key and a tiebreak id."""
    return (rng.permutation(n), rng.integers(0, 4, n),
            np.array([f"k{v}" for v in rng.integers(0, 7, n)], object),
            rng.integers(0, 5, n))


def test_runs_empty_and_one_run():
    for starts, ends in (runs(np.empty(0, np.int64)),
                         runs(np.empty(0, np.int64), np.empty(0, object))):
        assert starts.tolist() == [] and ends.tolist() == []
    starts, ends = runs(np.full(5, 3))
    assert (starts.tolist(), ends.tolist()) == ([0], [5])
    starts, ends = runs(np.array([7]))
    assert (starts.tolist(), ends.tolist()) == ([0], [1])


@pytest.mark.parametrize("n", [1, 2, 17, 1000])
def test_runs_match_groupby(n):
    rng = np.random.default_rng(n)
    _, a, s, b = _keys(rng, n)
    a, s, b = np.sort(a), np.sort(s), b  # b alone is unsorted: still runs
    for cols in ((a,), (s,), (a, b), (a, s, b)):
        got = runs(*cols)
        assert [x.tolist() for x in got] == list(_ref_runs(*cols))


@pytest.mark.parametrize("n", [0, 1, 17, 1000])
@pytest.mark.parametrize("by", [1, 2])
def test_sort_runs_matches_lexsort_and_groupby(n, by):
    rng = np.random.default_rng(100 + n)
    tie, a, s, b = _keys(rng, n)
    for keys in ((tie, b, a), (tie, a, s), (tie, s, b)):
        order, starts, ends = sort_runs(keys, by=by)
        assert order.tolist() == np.lexsort(keys).tolist()
        top = [k[order] for k in keys[len(keys) - by:]]
        assert (starts.tolist(), ends.tolist()) == _ref_runs(*top)
        # first and last row per key under the tiebreak
        first, last = {}, {}
        for r in sorted(range(n), key=lambda r: [k[r] for k in keys[::-1]]):
            key = tuple(k[r] for k in keys[len(keys) - by:])
            first.setdefault(key, r)
            last[key] = r
        assert order[starts].tolist() == list(first.values())
        assert order[ends - 1].tolist() == list(last.values())


def test_sort_runs_on_strings_is_a_stable_argsort():
    rng = np.random.default_rng(5)
    s = np.array([f"w{v}" for v in rng.integers(0, 9, 500)], object)
    order, starts, ends = sort_runs((s,))
    assert order.tolist() == np.argsort(s, kind="stable").tolist()
    assert (starts.tolist(), ends.tolist()) == _ref_runs(s[order])


@pytest.mark.parametrize("n", [0, 1, 50, 1000])
def test_run_rank_counts_within_each_primary_run(n):
    rng = np.random.default_rng(200 + n)
    tie, a, s, _ = _keys(rng, n)
    order, rank = run_rank((tie, a, s))
    assert order.tolist() == np.lexsort((tie, a, s)).tolist()
    want = [i for _, g in itertools.groupby(s[order])
            for i in range(len(list(g)))]
    assert rank.tolist() == want
    assert rank.dtype == np.int64


def test_round_half_away_matches_duckdb_round():
    k = np.arange(-40, 41, dtype=np.float64)
    x = np.concatenate([k + 0.5, k - 0.5, k + 0.49, k - 0.49,
                        k + 0.51, k, [0.0, -0.0, 1234567.5, -1234567.5]])
    con = duckdb.connect()
    want = con.execute(
        "SELECT CAST(round(x) AS BIGINT) FROM unnest(?::DOUBLE[]) t(x)",
        [x.tolist()]).fetchnumpy()
    got = round_half_away(x)
    assert got.dtype == np.int64
    assert got.tolist() == list(want.values())[0].tolist()
    # np.rint rounds half to even: the helper must not
    assert round_half_away(np.array([0.5, 1.5, 2.5, -2.5])).tolist() == [
        1, 2, 3, -3]

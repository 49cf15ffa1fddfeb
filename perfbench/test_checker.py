"""Tests for the benchmark's own checker, inputs and metric declarations.

Run from the repository root: ``python3 -m pytest perfbench -q``. No Ray
session is started.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import sys

import pyarrow.parquet as pq
import pytest

from perfbench import inputs, metrics, oracle, session
from perfbench.spans import Tracer

ROOT = inputs.ROOT


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    from pd3f_ray.sources.synth import write_corpus

    d = str(tmp_path_factory.mktemp("corpus"))
    # enough documents that some dead-letter
    write_corpus(d, 120, seed=5, rows_per_file=40)
    return d


@pytest.fixture(scope="module")
def outputs(corpus):
    """What a correct run ships to the main process: url, sha256(text), error
    class per document, plus the raw texts."""
    from pd3f_ray.core.config import ExtractOptions
    from pd3f_ray.core.kernel import extract_record
    from pd3f_ray.core.scorer import get_scorer

    base = ExtractOptions.experimental()
    urls, texts, errs = [], [], []
    for f in sorted(glob.glob(os.path.join(corpus, "*.parquet"))):
        t = pq.read_table(f)
        for url, html, lang in zip(*(t.column(c).to_pylist()
                                     for c in ("url", "html", "lang"))):
            rec = extract_record(html, base.with_(lang=lang),
                                 scorer=get_scorer(lang))
            urls.append(url)
            texts.append(rec["text"])
            errs.append(oracle.error_class(rec["error"]))
    return urls, texts, errs


def _check(corpus, urls, texts, errs):
    want = oracle.compute_doc_oracle(corpus)
    return oracle.check_docs(want, urls, [oracle.text_sha(t) for t in texts],
                             errs)["failed"]


def test_correct_output_passes(corpus, outputs):
    assert _check(corpus, *outputs) == 0


def test_one_byte_text_change_fails(corpus, outputs):
    urls, texts, errs = (list(x) for x in outputs)
    i = next(i for i, t in enumerate(texts) if t)
    texts[i] = texts[i][:-1] + chr(ord(texts[i][-1]) ^ 1)
    assert _check(corpus, urls, texts, errs) == 1


def test_dropped_url_fails(corpus, outputs):
    urls, texts, errs = (list(x)[1:] for x in outputs)
    assert _check(corpus, urls, texts, errs) == 1


def test_duplicated_url_fails(corpus, outputs):
    urls, texts, errs = (list(x) + [x[3]] for x in outputs)
    assert _check(corpus, urls, texts, errs) == 1


def test_changed_error_class_fails(corpus, outputs):
    urls, texts, errs = (list(x) for x in outputs)
    i = errs.index("DocumentError")
    errs[i] = "ValueError"
    assert _check(corpus, urls, texts, errs) == 1


def test_unknown_url_fails(corpus, outputs):
    urls, texts, errs = (list(x) for x in outputs)
    urls[0] = "https://example.org/doc/not-generated"
    assert _check(corpus, urls, texts, errs) == 2  # one missing, one extra


# --------------------------------------------------------------------------
# exchange queries
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ops(tmp_path_factory):
    from perfbench.workloads import registry_queries

    d = str(tmp_path_factory.mktemp("ops"))
    inputs.write_ops_tables(inputs.ops_tables(3), d, 3)
    queries = registry_queries()
    return d, queries, oracle.ops_oracle(d, queries)


def _oracle_rows(want):
    cols, rows = want
    return [dict(zip(cols, r)) for r in rows]


def test_every_query_oracle_is_nonempty(ops):
    _, queries, want = ops
    assert set(want) == set(queries) == set(metrics.QUERIES)
    assert all(rows for _, rows in want.values())


def test_wrong_ops_row_fails(ops):
    _, _, want = ops
    for q, w in want.items():
        rows = _oracle_rows(w)
        assert oracle.check_op(w, rows) is None
        changed = [dict(r) for r in rows]
        key = next(k for k, v in changed[0].items()
                   if isinstance(v, (int, float)) and not isinstance(v, bool))
        changed[0][key] += 1
        assert oracle.check_op(w, changed) is not None, q
        assert oracle.check_op(w, rows[1:]) is not None, q
        assert oracle.check_op(w, rows + rows[:1]) is not None, q


# --------------------------------------------------------------------------
# inputs and determinism
# --------------------------------------------------------------------------


def test_different_seed_different_inputs():
    from pd3f_ray.sources.synth import generate_corpus, generate_pages_exploded

    assert (generate_corpus(20, 1).column("html")
            != generate_corpus(20, 2).column("html"))
    assert (generate_pages_exploded(20, 1).column("page_json")
            != generate_pages_exploded(20, 2).column("page_json"))
    a, b = inputs.ops_tables(1), inputs.ops_tables(2)
    assert all(not a[t].equals(b[t]) for t in ("orders", "lineitem", "events",
                                               "documents"))
    # same seed, same inputs
    assert inputs.ops_tables(1)["events"].equals(a["events"])


def test_pinned_digest_matches_default_seed():
    with open(oracle.PINNED, encoding="utf-8") as fh:
        pin = json.load(fh)
    got = oracle.doc_oracle(pin["seed"], pin["n_docs"])
    assert oracle.pinned_mismatch(pin["seed"], pin["n_docs"], got) is None
    assert oracle.dead_letters(got) == pin["dead_letters"]


_DIGEST = ("import sys; sys.path.insert(0, {root!r}); "
           "from perfbench import oracle; "
           "print(oracle.digest(oracle.compute_doc_oracle({d!r}, {order!r})))")


def test_oracle_digest_ignores_hash_seed_and_order(corpus):
    digests = set()
    for hash_seed in ("0", "1"):
        for order in ("forward", "reverse"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            out = subprocess.run(
                [sys.executable, "-c",
                 _DIGEST.format(root=ROOT, d=corpus, order=order)],
                env=env, capture_output=True, text=True, check=True)
            digests.add(out.stdout.strip())
    assert len(digests) == 1


def test_page_table_reassembles_to_the_same_documents(corpus):
    """The page-table input holds the same documents as the document
    corpus: reassembling its pages and extracting agrees per url with the
    oracle."""
    from pd3f_ray.sources.synth import generate_pages_exploded
    from pd3f_ray.stages.pages import assemble_bucket

    docs = assemble_bucket(generate_pages_exploded(120, 5))
    d = os.path.join(os.path.dirname(corpus), "reassembled")
    os.makedirs(d, exist_ok=True)
    pq.write_table(docs.select(["url", "html", "lang"]),
                   os.path.join(d, "part.parquet"))
    assert oracle.compute_doc_oracle(d) == oracle.compute_doc_oracle(corpus)


# --------------------------------------------------------------------------
# metrics, tracing, preflight, exit without the library
# --------------------------------------------------------------------------


def test_every_metric_is_declared_in_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for key, table in (("end_to_end", metrics.END_TO_END),
                       ("per_layer", metrics.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in bench[key]}
        assert declared == {n: (u, b) for n, u, b in table}
    printed = metrics.render({"kernel.ms_per_doc": 1.0}, trace=True)
    assert set(printed) == {m["name"] for m in bench["per_layer"]}
    with pytest.raises(KeyError):
        metrics.render({"no.such.metric": 1.0}, trace=True)
    with pytest.raises(KeyError):
        metrics.render({"ref_cpu_s": 1.0}, trace=False)  # others missing


def test_span_shares_add_up_over_the_roots():
    t = Tracer(True)
    for _ in range(2):  # e.g. two queries, each its own timed region
        with t.span("rep"):
            with t.span("plan"):
                pass
            with t.span("ray.execute"):
                with t.span("collect"):
                    pass
    with t.span("resume.rerun"):  # an untimed root is not counted
        pass
    shares = t.shares(t.roots("rep"))
    assert set(shares) == {"plan", "ray.execute", "collect",
                           "unattributed"}
    assert abs(sum(shares.values()) - 1) < 1e-9
    assert set(shares) <= set(metrics.SHARE_LAYERS)
    off = Tracer(False)
    with off.span("rep"):
        pass
    assert off.spans == []


def test_cpu_of_an_exited_child_still_counts():
    burn = ("import time\nt = time.process_time()\n"
            "while time.process_time() - t < 1.5: pass")
    meter = session.Meter()
    with meter.timed():
        subprocess.run([sys.executable, "-c", burn], check=True)
    # the child's last sighting is at most one sampling interval before exit
    assert 0.9 < meter.cpu < 2.5
    assert meter.cal and meter.peak_mem > 0


def test_preflight_refuses_below_four_cpus(monkeypatch):
    monkeypatch.setattr(session, "LOGICAL_CPUS", 2)
    with pytest.raises(SystemExit, match="no progress"):
        session.preflight()


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pages_extract",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout

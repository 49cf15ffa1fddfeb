"""Expected outputs and the checks that compare a run against them.

Extraction workloads are checked per url against ``(sha256(text), error
class)`` computed once per ``(seed, n_docs)`` by the single-process kernel
(``core.kernel.extract_record``) on the generated payloads; the exchange
workload is checked per query against the query's DuckDB SQL over the same
generated tables. Texts are compared as Python ``str`` values (through their
UTF-8 digest), never as Arrow types, and never against the corpus ``text``
column, which the generators write as ``""``.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
from collections import Counter

import pyarrow.parquet as pq

from perfbench import inputs

# pinned digest of the default seed's oracle: a kernel change that alters any
# text or error class fails the check even though the in-process oracle moved
# with it
PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "oracle_digest.json")


def text_sha(text: str | None) -> str | None:
    return None if text is None else hashlib.sha256(text.encode()).hexdigest()


def error_class(error: str | None) -> str | None:
    """``"DocumentError: no body text"`` → ``"DocumentError"``."""
    return None if error is None else error.split(":", 1)[0]


def compute_doc_oracle(corpus_dir: str, order: str = "forward") -> dict:
    """url → [sha256(text) | None, error class | None] for every document of
    the corpus, from the in-process kernel with the stage defaults.
    ``order="reverse"`` processes the documents last to first (used by the
    determinism probe)."""
    from pd3f_ray.core.config import ExtractOptions
    from pd3f_ray.core.kernel import extract_record
    from pd3f_ray.core.scorer import get_scorer

    base = ExtractOptions.experimental()
    rows = []
    for f in sorted(glob.glob(os.path.join(corpus_dir, "*.parquet"))):
        t = pq.read_table(f, columns=["url", "html", "lang"])
        rows.extend(zip(*(t.column(c).to_pylist() for c in t.column_names)))
    if order == "reverse":
        rows.reverse()
    out = {}
    for url, html, lang in rows:
        opts = base if base.lang == lang else base.with_(lang=lang)
        rec = extract_record(html, opts, scorer=get_scorer(lang))
        out[url] = [text_sha(rec["text"]), error_class(rec["error"])]
    return out


def doc_oracle(seed: int, n_docs: int) -> dict:
    """The cached oracle for ``inputs.docs_corpus(seed, n_docs)``."""
    path = inputs.cache_path(f"oracle-s{seed}-n{n_docs}") + ".json"
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    oracle = compute_doc_oracle(inputs.docs_corpus(seed, n_docs))
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(oracle, fh)
    os.replace(tmp, path)
    return oracle


def digest(oracle: dict) -> str:
    """sha256 over the sorted ``url, sha256(text), error class`` lines."""
    h = hashlib.sha256()
    for url in sorted(oracle):
        sha, err = oracle[url]
        h.update(f"{url}\t{sha}\t{err}\n".encode())
    return h.hexdigest()


def pinned_mismatch(seed: int, n_docs: int, oracle: dict) -> str | None:
    """A message if the pinned digest covers ``(seed, n_docs)`` and differs."""
    with open(PINNED, encoding="utf-8") as fh:
        pin = json.load(fh)
    if (pin["seed"], pin["n_docs"]) != (seed, n_docs):
        return None
    got = digest(oracle)
    if got != pin["digest"]:
        return f"oracle digest {got} != pinned {pin['digest']}"
    return None


def dead_letters(oracle: dict) -> int:
    return sum(1 for _, err in oracle.values() if err is not None)


def check_docs(oracle: dict, urls: list, shas: list, errors: list) -> dict:
    """Compare one run's output rows with the oracle. A document fails if its
    url is missing, duplicated, or its text digest or error class differs;
    an output url the oracle lacks fails one more operation. Returns
    ``{"failed": n, "examples": [...]}`` (failed ≤ len(oracle))."""
    seen = Counter(urls)
    got = {u: [s, e] for u, s, e in zip(urls, shas, errors)}
    bad = []
    for url, want in oracle.items():
        n = seen.get(url, 0)
        if n != 1:
            bad.append(f"{url}: {'missing' if n == 0 else f'{n} copies'}")
        elif got[url] != want:
            bad.append(f"{url}: got {got[url]} want {want}")
    bad.extend(f"{u}: not in oracle" for u in seen if u not in oracle)
    return {"failed": min(len(bad), len(oracle)), "examples": bad[:5]}


# --------------------------------------------------------------------------
# exchange queries
# --------------------------------------------------------------------------


def _sort_key(row: tuple) -> tuple:
    return tuple((v is None, v if v is not None else 0) for v in row)


def canon_rows(rows: list[dict]) -> tuple[list[str], list[tuple]]:
    """Rows as dicts → (sorted column names, rows sorted as value tuples)."""
    cols = sorted(rows[0]) if rows else []
    return cols, sorted((tuple(r[c] for c in cols) for r in rows),
                        key=_sort_key)


def ops_oracle(ops_dir: str, queries: dict) -> dict:
    """query name → canonical rows of its SQL on DuckDB over ``ops_dir``."""
    import duckdb

    con = duckdb.connect()
    try:
        for t in inputs.OPS_ROWS:
            path = os.path.join(ops_dir, f"{t}.parquet", "*.parquet")
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{path}')")
        return {q: canon_rows(con.execute(sql).arrow().to_pylist())
                for q, (_, sql) in queries.items()}
    finally:
        con.close()


def check_op(want: tuple, rows: list[dict]) -> str | None:
    """None if ``rows`` equal the oracle's (same columns, same multiset of
    rows, exact values), else the first difference."""
    cols, got = canon_rows(rows)
    if rows and cols != want[0]:
        return f"columns {cols} != {want[0]}"
    if got != want[1]:
        extra = Counter(got) - Counter(want[1])
        lost = Counter(want[1]) - Counter(got)
        return (f"{len(got)} rows vs {len(want[1])}; unexpected "
                f"{list(extra)[:2]}, missing {list(lost)[:2]}")
    return None

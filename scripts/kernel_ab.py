"""Paired in-process A/B of the extraction kernel of two checkouts.

Loads ``pd3f_ray`` from each checkout into one process (so each side runs its
own ``core/kernel.py`` with its own scorer, config and text helpers), checks
that both give the same ``extract_record`` output for every document of a
seeded synthetic corpus, then times ``--passes`` paired passes of
``extract_record`` over the whole corpus. Within a pass the two sides take
turns every ``CHUNK`` documents, so both see the same host. It prints each
side's ms/doc median and quartiles over the passes and in how many passes the
second checkout was faster. Usage:

    python scripts/kernel_ab.py PARENT_DIR CHANGE_DIR [--seed N] [--passes K]

Exits 1 when any document's record differs.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import platform
import statistics
import sys
import time

# documents per turn of one side within a pass
CHUNK = 25
# corpus size: the perfbench extraction workloads' document count
DOCS = 1750


def load_side(checkout: str) -> dict:
    """Import ``pd3f_ray`` from ``checkout`` and keep its kernel entry points.
    Modules of an earlier side are dropped from ``sys.modules`` first; the
    objects kept here still hold their own module globals."""
    checkout = os.path.abspath(checkout)
    for name in [m for m in sys.modules
                 if m == "pd3f_ray" or m.startswith("pd3f_ray.")]:
        del sys.modules[name]
    sys.path.insert(0, checkout)
    try:
        kernel = importlib.import_module("pd3f_ray.core.kernel")
        config = importlib.import_module("pd3f_ray.core.config")
        scorer = importlib.import_module("pd3f_ray.core.scorer")
        synth = importlib.import_module("pd3f_ray.sources.synth")
    finally:
        sys.path.remove(checkout)
    if not os.path.abspath(kernel.__file__).startswith(checkout + os.sep):
        raise SystemExit(f"{checkout}: imported {kernel.__file__} instead")
    return {"dir": checkout, "extract_record": kernel.extract_record,
            "options": config.ExtractOptions, "get_scorer": scorer.get_scorer,
            "synth": synth}


def side_calls(side: dict, langs: list[str]) -> list:
    """Per-document ``(opts, scorer)`` with the extraction stage defaults."""
    base = side["options"].experimental()
    opts = {lang: base if base.lang == lang else base.with_(lang=lang)
            for lang in set(langs)}
    return [(opts[lang], side["get_scorer"](lang)) for lang in langs]


def run_pair(sides: dict, htmls: list, calls: dict, flip: int) -> dict:
    """ms/doc of each side over one pass of the corpus. The sides take turns
    every ``CHUNK`` documents, in ABBA order, so host noise that lasts longer
    than a chunk weighs on both sides alike."""
    spent = {"a": 0.0, "b": 0.0}
    gc.collect()
    for k, start in enumerate(range(0, len(htmls), CHUNK)):
        stop = min(start + CHUNK, len(htmls))
        for s in ("ab" if (k + flip) % 2 == 0 else "ba"):
            extract, call = sides[s]["extract_record"], calls[s]
            t0 = time.perf_counter()
            for i in range(start, stop):
                extract(htmls[i], call[i][0], scorer=call[i][1])
            spent[s] += time.perf_counter() - t0
    return {s: t * 1000 / len(htmls) for s, t in spent.items()}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--passes", type=int, default=10,
                    help="timed passes per side (pairs), at least 2")
    args = ap.parse_args(argv)
    if args.passes < 2:
        ap.error("--passes must be at least 2")

    a = load_side(args.parent_dir)
    b = load_side(args.change_dir)
    corpus = a["synth"].generate_corpus(DOCS, args.seed)
    urls = corpus.column("url").to_pylist()
    htmls = corpus.column("html").to_pylist()
    langs = corpus.column("lang").to_pylist()
    calls = {"a": side_calls(a, langs), "b": side_calls(b, langs)}

    # correctness, which also warms both sides' scorer caches
    diff = []
    for i, html in enumerate(htmls):
        ra = a["extract_record"](html, calls["a"][i][0], scorer=calls["a"][i][1])
        rb = b["extract_record"](html, calls["b"][i][0], scorer=calls["b"][i][1])
        if ra != rb:
            diff.append(urls[i])
    print(f"records: {len(htmls) - len(diff)}/{len(htmls)} identical "
          f"(seed {args.seed})")
    if diff:
        print("differ:", *diff[:10])
        return 1

    ms = {"a": [], "b": []}
    for k in range(args.passes):
        for s, v in run_pair({"a": a, "b": b}, htmls, calls, k % 2).items():
            ms[s].append(v)
    wins = sum(tb < ta for ta, tb in zip(ms["a"], ms["b"]))

    print(f"host: python {platform.python_version()}, "
          f"{len(os.sched_getaffinity(0))} CPUs in affinity mask, "
          f"{platform.processor() or platform.machine()}")
    for s, side in (("a", a), ("b", b)):
        q1, med, q3 = quartiles(ms[s])
        print(f"{s} {side['dir']}: median {med:.4f} ms/doc "
              f"(q1 {q1:.4f}, q3 {q3:.4f}, iqr {q3 - q1:.4f})")
    ma, mb = statistics.median(ms["a"]), statistics.median(ms["b"])
    paired = statistics.median(tb / ta - 1 for ta, tb in zip(ms["a"], ms["b"]))
    print(f"change: {100 * (mb - ma) / ma:+.1f}% median ms/doc "
          f"({100 * paired:+.1f}% median of the pairs); "
          f"b faster in {wins}/{args.passes} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())

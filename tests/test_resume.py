"""Resumable sharded output: kill after k shards → resume → identical
final output; finished shards are skipped."""

import glob
import os

import pyarrow.dataset as pads
import pytest


def _read_sorted(out_dir):
    files = sorted(
        glob.glob(os.path.join(out_dir, "shard=*", "**", "*.parquet"),
                  recursive=True)
    )
    ds = pads.dataset(files, format="parquet")
    t = ds.to_table(columns=["url", "text", "error"])
    rows = sorted(t.to_pylist(), key=lambda r: r["url"])
    return rows


def test_resume_skips_done_and_matches_full_run(ray_session, small_corpus_dir, tmp_path):
    from pd3f_ray.pipelines.extraction import run_resumable
    from pd3f_ray.state.manifest import load_completed

    full_dir = str(tmp_path / "full")
    part_dir = str(tmp_path / "partial")

    stats_full = run_resumable(small_corpus_dir, full_dir, num_shards=3)
    assert stats_full["shards_done"] == 3
    assert stats_full["rows"] == 100
    assert stats_full["errors"] > 0  # dead letters counted in metrics
    # output is hash-partitioned by url bucket inside each shard
    assert glob.glob(os.path.join(full_dir, "shard=*", "bucket=*"))

    # simulate a crash: run only shard 0 by truncating the plan — emulate
    # by running full, then deleting two shards + their manifest lines
    stats1 = run_resumable(small_corpus_dir, part_dir, num_shards=3)
    assert stats1["shards_done"] == 3
    manifest = os.path.join(part_dir, "_MANIFEST.jsonl")
    lines = open(manifest).read().strip().splitlines()
    keep = [l for l in lines if '"shard_id": 0' in l]
    open(manifest, "w").write("\n".join(keep) + "\n")
    import shutil

    shutil.rmtree(os.path.join(part_dir, "shard=00001"))
    shutil.rmtree(os.path.join(part_dir, "shard=00002"))

    # resume: shard 0 must be skipped, 1 and 2 redone
    stats2 = run_resumable(small_corpus_dir, part_dir, num_shards=3)
    assert stats2["shards_skipped"] == 1
    assert stats2["shards_done"] == 2
    assert len(load_completed(part_dir)) == 3

    assert _read_sorted(part_dir) == _read_sorted(full_dir)


def test_missing_input_raises(ray_session, tmp_path):
    from pd3f_ray.pipelines.extraction import run_resumable

    with pytest.raises(FileNotFoundError):
        run_resumable(str(tmp_path / "nope"), str(tmp_path / "out"))


def test_cli_extract_roundtrip(tmp_path):
    """The job-submit surface: synth a corpus, extract it, verify rows.
    Runs in subprocesses (the CLI owns its own Ray session)."""
    import json as _json
    import subprocess
    import sys

    corpus = str(tmp_path / "corpus")
    out = str(tmp_path / "out")
    env_cwd = "/root/repo"

    r1 = subprocess.run(
        [sys.executable, "-m", "pd3f_ray.cli", "synth", corpus, "--docs", "80"],
        capture_output=True, text=True, cwd=env_cwd, check=True)
    assert _json.loads(r1.stdout.strip().splitlines()[-1])["docs"] == 80

    r2 = subprocess.run(
        [sys.executable, "-m", "pd3f_ray.cli", "extract", corpus, out,
         "--shards", "1", "--cpus", "4"],
        capture_output=True, text=True, cwd=env_cwd, check=True)
    stats = _json.loads(r2.stdout.strip().splitlines()[-1])
    assert stats["rows"] == 80
    assert stats["shards_done"] == 1


def test_resume_reprocesses_stale_lineage(ray_session, small_corpus_dir,
                                          tmp_path):
    """A completed shard whose recorded input_files no longer match the
    current plan (input set changed between runs) must be reprocessed,
    not silently skipped."""
    import json

    from pd3f_ray.pipelines.extraction import run_resumable

    out = str(tmp_path / "stale")
    stats = run_resumable(small_corpus_dir, out, num_shards=2)
    assert stats["shards_done"] == 2

    # tamper shard 0's recorded lineage to simulate a changed input plan
    manifest = os.path.join(out, "_MANIFEST.jsonl")
    recs = [json.loads(l) for l in open(manifest).read().splitlines() if l]
    for r in recs:
        if r["shard_id"] == 0:
            r["input_files"] = r["input_files"] + ["/nonexistent/extra.parquet"]
    open(manifest, "w").write("\n".join(json.dumps(r) for r in recs) + "\n")

    stats2 = run_resumable(small_corpus_dir, out, num_shards=2)
    assert stats2["shards_stale"] == 1
    assert stats2["shards_done"] == 1      # shard 0 redone
    assert stats2["shards_skipped"] == 1   # shard 1 untouched


def test_cli_query_subcommand(tmp_path):
    """Every registered pipeline is runnable as a job via the CLI."""
    import json
    import subprocess
    import sys

    out = subprocess.run(
        [sys.executable, "-m", "pd3f_ray.cli", "query", "list"],
        capture_output=True, text=True, check=True, cwd="/root/repo",
    ).stdout.strip().splitlines()[-1]
    names = json.loads(out)["queries"]
    assert "curate_docs" in names and "extract_roundtrip" in names

    d = str(tmp_path / "q")
    out = subprocess.run(
        [sys.executable, "-m", "pd3f_ray.cli", "query", "dedup_exact",
         "/root/testdata/sf0.001", "--out", d, "--cpus", "4"],
        capture_output=True, text=True, check=True, cwd="/root/repo",
    ).stdout.strip().splitlines()[-1]
    rec = json.loads(out)
    assert rec["rows"] == 500 and rec["out"] == d


def test_resumable_runner_generic_transform(ray_session, tmp_path):
    """The sharded resume runner generalizes beyond extraction: a custom
    transform (token-stats projection over the documents table) gets the
    same manifest resume + bucketed output, no 'url'/'error' columns
    required."""
    import pyarrow as pa
    import ray.data as rd

    from pd3f_ray.pipelines.extraction import run_resumable
    from pd3f_ray.state.manifest import load_completed

    # 4 input files of 25 docs each
    src = str(tmp_path / "in")
    os.makedirs(src)
    import pyarrow.parquet as pq

    for f in range(4):
        pq.write_table(pa.table({
            "doc_id": pa.array(range(f * 25, f * 25 + 25), pa.int64()),
            "text": pa.array([f"doc {i} text body" for i in
                              range(f * 25, f * 25 + 25)], pa.string()),
        }), os.path.join(src, f"part{f}.parquet"))

    def stats_transform(files):
        def stats(batch: pa.Table) -> pa.Table:
            return pa.table({
                "doc_id": batch.column("doc_id"),
                "n_tokens": pa.array(
                    [len(t.split(" ")) for t in
                     batch.column("text").to_pylist()], pa.int64()),
            })

        return rd.read_parquet(files).map_batches(
            stats, batch_format="pyarrow")

    out = str(tmp_path / "out")
    r1 = run_resumable(src, out, num_shards=2, transform=stats_transform,
                       bucket_key="doc_id")
    assert r1["shards_done"] == 2 and r1["rows"] == 100
    assert r1["errors"] == 0  # no error column → zero, not a crash
    assert glob.glob(os.path.join(out, "shard=*", "bucket=*"))

    # resume: everything skips, rows still reported from the manifest
    r2 = run_resumable(src, out, num_shards=2, transform=stats_transform,
                       bucket_key="doc_id")
    assert r2["shards_skipped"] == 2 and r2["shards_done"] == 0
    assert r2["rows"] == 100
    assert len(load_completed(out)) == 2


def test_compact_parquet_coalesces(ray_session, tmp_path):
    """Many small files → few target-sized files, rows and values
    preserved."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pd3f_ray.pipelines.extraction import compact_parquet

    src = str(tmp_path / "frag")
    os.makedirs(src)
    for f in range(20):
        pq.write_table(pa.table({
            "k": pa.array(range(f * 50, f * 50 + 50), pa.int64()),
            "v": pa.array([f"row {i}" for i in range(50)], pa.string()),
        }), os.path.join(src, f"tiny{f:02d}.parquet"))

    out = str(tmp_path / "compact")
    stats = compact_parquet(src, out, target_mb=128)
    assert stats["files_in"] == 20 and stats["rows"] == 1000
    assert stats["files_out"] < 20
    t = pads.dataset(out, format="parquet").to_table()
    assert t.num_rows == 1000
    assert sorted(t.column("k").to_pylist()) == list(range(0, 950 + 50))


def test_pagerank_iterative_checkpoint_resume(ray_session, tmp_path):
    """A PageRank run killed after iteration 2 and resumed must (a)
    produce a bit-identical final table to an uninterrupted run and
    (b) actually SKIP the completed iterations (the manifest's early
    records keep their original timestamps; only the missing iteration
    is appended)."""
    import json
    import os

    import pandas as pd

    from pd3f_ray.pipelines.graph import ITER_MANIFEST, pagerank

    sf = "/root/testdata/sf0.001"

    def canon(ds):
        df = ds.to_pandas()
        return df.sort_values(["kind", "key"]).reset_index(drop=True)

    straight = canon(pagerank(sf, iters=3))

    ck = str(tmp_path / "pr_ck")
    # "crash" after two committed iterations
    partial = canon(pagerank(sf, iters=2, checkpoint_dir=ck))
    man_path = os.path.join(ck, ITER_MANIFEST)
    with open(man_path, encoding="utf-8") as f:
        before = [json.loads(line) for line in f if line.strip()]
    assert [r["iter"] for r in before] == [1, 2]

    resumed = canon(pagerank(sf, iters=3, checkpoint_dir=ck))
    pd.testing.assert_frame_equal(resumed, straight)

    with open(man_path, encoding="utf-8") as f:
        after = [json.loads(line) for line in f if line.strip()]
    assert [r["iter"] for r in after] == [1, 2, 3]
    # iterations 1-2 were NOT recomputed: their records are untouched
    assert after[:2] == before
    # exact-integer counters recorded per iteration (the metrics story)
    assert all(r["sum_rank"] > 0 and r["n_nodes"] > 0 for r in after)
    assert partial is not None


def test_pagerank_checkpoint_staleness_ignores_other_input(ray_session,
                                                           tmp_path):
    """Checkpoints recorded for a DIFFERENT sf_dir must be ignored, not
    resumed from (lineage staleness rule)."""
    import json
    import os

    from pd3f_ray.pipelines.graph import ITER_MANIFEST, _iter_dir, pagerank

    sf = "/root/testdata/sf0.001"
    ck = str(tmp_path / "pr_stale")
    os.makedirs(_iter_dir(ck, 1))
    with open(os.path.join(ck, ITER_MANIFEST), "w", encoding="utf-8") as f:
        f.write(json.dumps({"iter": 1, "sf_dir": "/somewhere/else",
                            "n_nodes": 1, "sum_rank": 1,
                            "completed_at": 0}) + "\n")
    out = pagerank(sf, iters=1, checkpoint_dir=ck).to_pandas()
    assert len(out) > 0
    with open(os.path.join(ck, ITER_MANIFEST), encoding="utf-8") as f:
        recs = [json.loads(line) for line in f if line.strip()]
    # the stale record remains, a fresh iter-1 record was appended
    assert [r["sf_dir"] for r in recs] == ["/somewhere/else", sf]

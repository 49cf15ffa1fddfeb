"""A driver started outside the repo: the workers get the pickled plan
and nothing else. ``__ray_entry__`` puts the repo on the driver's path
and ships every ``pd3f_ray`` module by value, so no worker may need to
import the package itself."""

import os
import signal
import subprocess
import sys
import textwrap

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SF = "/root/testdata/sf0.001"


def test_queries_run_from_a_driver_outside_the_repo(tmp_path,
                                                    small_corpus_dir):
    """One registry query whose reducers once imported the package in
    the worker (``jaccard_pairs``) and one ``ExtractDocs`` plan, from a
    driver whose cwd and ``PYTHONPATH`` leave the repo out. Own process,
    because this session's workers start from the repo root."""
    code = textwrap.dedent(f"""
        import importlib.util
        import ray
        ray.init(address="local", num_cpus=2, include_dashboard=False,
                 logging_level="ERROR")
        spec = importlib.util.spec_from_file_location(
            "ray_entry", {os.path.join(REPO, "__ray_entry__.py")!r})
        entry = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(entry)
        print("jaccard_pairs", entry.queries()["jaccard_pairs"]({SF!r}).count())
        from pd3f_ray.pipelines.extraction import extract_from_parquet
        print("extract_docs", extract_from_parquet({small_corpus_dir!r}).count())
        ray.shutdown()
    """)
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)
    path = [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
            if p and os.path.abspath(p) != REPO]
    env["PYTHONPATH"] = os.pathsep.join(path)
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=tmp_path,
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=240)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the queries made no progress in 240 s")
    assert proc.returncode == 0, [line for line in err.splitlines()
                                  if "Error" in line][:5] or err[-2000:]
    lines = out.splitlines()
    assert "extract_docs 100" in lines, out
    assert any(line.startswith("jaccard_pairs ") for line in lines), out

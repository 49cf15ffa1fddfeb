import pytest


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver contract)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def small_corpus_dir(tmp_path_factory):
    """A 100-doc synthetic corpus on disk, shared across tests."""
    from pd3f_ray.sources.synth import write_corpus

    d = tmp_path_factory.mktemp("corpus")
    write_corpus(str(d), n_docs=100, seed=42, rows_per_file=20)
    return str(d)


def lower_min_block(monkeypatch, nbytes: int = 1):
    """Ray's minimum block size set to ``nbytes`` through ``monkeypatch``
    (the fixture, or a ``pytest.MonkeyPatch.context()``): a small input
    is then worth one partition per CPU, and the exchanges sort."""
    import ray.data as rd

    monkeypatch.setattr(rd.DataContext.get_current(), "target_min_block_size",
                        nbytes)

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


def force_exchange(monkeypatch):
    """Every gated plan takes its exchange side, with P > 1, through
    ``monkeypatch``: each pipeline module's ``exchange.fits_broadcast``
    answers False, and Ray's minimum block size is lowered
    (``lower_min_block``). Lowering Ray's block size until the sf0.001
    sides (96 B to 9 KB) stop fitting would instead split every input
    into 25–250 partitions (a 0.2 s join plan took 16 s at 1 KiB)."""
    import importlib
    import pkgutil

    import pd3f_ray.pipelines as pipelines

    for info in pkgutil.iter_modules(pipelines.__path__):
        mod = importlib.import_module(f"pd3f_ray.pipelines.{info.name}")
        if hasattr(mod, "fits_broadcast"):
            monkeypatch.setattr(mod, "fits_broadcast", lambda ds: False)
    lower_min_block(monkeypatch)

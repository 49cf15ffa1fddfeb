"""Cluster sizing shared by stages and pipelines (imports Ray lazily)."""


def cluster_cpus() -> int:
    """Logical CPUs of the connected Ray cluster (8 without one)."""
    import ray

    return int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8

"""pd3f_ray — a Ray-Data-native text-reconstruction / data-processing engine.

A from-scratch reimplementation of the query and data-processing
capabilities of pd3f/pd3f-core (reference at /root/reference, v0.4.0),
re-expressed as ray.data.Dataset pipelines:

- ``pd3f_ray.core``      — pure per-document extraction kernel (the oracle)
- ``pd3f_ray.sources``   — synthetic Common-Crawl-style corpus generator + readers
- ``pd3f_ray.stages``    — Ray Data map_batches stages (stateless tasks)
- ``pd3f_ray.pipelines`` — end-to-end pipelines (extraction, dedup, similarity, ...)
- ``pd3f_ray.state``     — resumable sharded output (manifests, metrics)

Nothing in this package calls ``ray.init()``; sessions are owned by the
caller (bench.py, CLI, test fixtures).
"""

from pd3f_ray.api import Export, extract
from pd3f_ray.core.config import ExtractOptions
from pd3f_ray.core.kernel import extract_text

__all__ = ["Export", "ExtractOptions", "extract", "extract_text"]
__version__ = "0.1.0"

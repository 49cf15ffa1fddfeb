"""PII scrubbing stage: email / phone / IPv4 spans → typed
placeholders, as a callable-class ``map_batches`` stage run as tasks —
the patterns compile in ``__init__`` (Python's ``re`` cache makes the
copy each task unpickles cheap), and each ``__call__`` is a per-batch
scrub.

The pattern set is intentionally the standard public trio (RFC-ish
email, NANP-style subscriber number, dotted-quad IPv4); a production
deployment swaps in its full pattern pack or an NER model via the same
stage seam without touching the pipeline plan."""

from __future__ import annotations

import re

import pyarrow as pa


class PiiScrubber:
    """Replace PII spans in the ``text`` column with typed
    placeholders. Scrub order matters and is fixed: email first (its
    local/domain parts may contain digit runs a later pattern could
    half-match), then IPv4 (dotted digits), then phone."""

    EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
    IPV4 = r"\b(?:\d{1,3}\.){3}\d{1,3}\b"
    PHONE = r"\b\d{3}-\d{4}\b"

    def __init__(self, email: str = "<EMAIL>", phone: str = "<PHONE>",
                 ip: str = "<IP>"):
        self._subs = [
            (re.compile(self.EMAIL), email),
            (re.compile(self.IPV4), ip),
            (re.compile(self.PHONE), phone),
        ]

    def scrub(self, text: str) -> str:
        for pat, repl in self._subs:
            text = pat.sub(repl, text)
        return text

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = [self.scrub(t) for t in batch.column("text").to_pylist()]
        cols = {name: batch.column(name) for name in batch.column_names}
        cols["text"] = pa.array(texts, pa.string())
        return pa.table(cols)

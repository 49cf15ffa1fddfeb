"""Reference-shaped convenience API.

The reference's public surface is ``extract(file, ...) -> (text,
tables)`` and ``Export(input_json, ...)`` (reference ``__init__.py:7``,
``export.py:30-103,154-212``). This module mirrors that call shape for
single-document use so a reference user can switch imports — the input
here is the serialized layout payload (or a path to it / a parsed
dict), since the Parsr HTTP step is replaced by the engine's parse
stage. Corpus-scale work goes through ``pd3f_ray.pipelines``.
"""

from __future__ import annotations

import os
from typing import Any

import orjson

from pd3f_ray.core.config import ExtractOptions, normalize_reference_kwargs
from pd3f_ray.core.kernel import DocumentKernel, extract_parsed, extract_record
from pd3f_ray.core.scorer import get_scorer


def _resolve_options(experimental: bool, lang: str, fast: bool,
                     **kwargs) -> ExtractOptions:
    base = (ExtractOptions.experimental(lang=lang, fast=fast)
            if experimental else ExtractOptions.plain(lang=lang))
    kwargs = normalize_reference_kwargs(kwargs)
    return base.with_(**kwargs) if kwargs else base


def extract(
    input_doc: Any,
    tables: bool = False,
    experimental: bool = False,
    lang: str = "multi",
    fast: bool = False,
    **kwargs,
) -> tuple[str | None, list[str] | None]:
    """One-shot single-document extraction, same call shape and return
    contract as the reference's ``extract()`` (export.py:30-103):
    ``(text, tables_or_None)``.

    ``input_doc``: parsed layout dict, serialized layout bytes/str, or a
    path to a layout JSON file. Raises on malformed documents like the
    reference does (the dead-letter behavior is the *pipeline*'s
    contract; the one-shot API surfaces the error).
    """
    opts = _resolve_options(experimental, lang, fast, **kwargs)
    if isinstance(input_doc, dict):
        rec = extract_parsed(input_doc, opts, scorer=get_scorer(opts.lang))
    else:
        payload = input_doc
        if isinstance(payload, (str, os.PathLike)) and os.path.exists(str(payload)):
            with open(payload, "rb") as f:
                payload = f.read()
        rec = extract_record(payload, opts, scorer=get_scorer(opts.lang))
    if rec["error"] is not None:
        raise ValueError(rec["error"])
    return rec["text"], (rec.get("tables") or []) if tables else None


class Export:
    """Reference-shaped ``Export`` (export.py:154-212): construct from a
    layout (dict / bytes / path), then ``text()`` / ``markdown()`` /
    ``save_text()`` / ``save_markdown()``."""

    def __init__(self, input_json: Any, lang: str = "multi",
                 fast: bool = False, experimental: bool = False, **kwargs):
        self.opts = _resolve_options(experimental, lang, fast, **kwargs)
        if isinstance(input_json, dict):
            layout = input_json
        else:
            payload = input_json
            if isinstance(payload, (str, os.PathLike)) and os.path.exists(str(payload)):
                with open(payload, "rb") as f:
                    payload = f.read()
            layout = orjson.loads(payload)
        self._kernel = DocumentKernel(layout, self.opts,
                                      get_scorer(self.opts.lang))

    def text(self) -> str:
        return self._kernel.text()

    def markdown(self) -> str:
        return self._kernel.text(markdown=True)

    def save_text(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.text())

    def save_markdown(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.markdown())

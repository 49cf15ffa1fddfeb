"""Deterministic language-model scorer (stub for the Flair char-LM).

The reference delegates four decisions to a character-level language
model via the ``dehyphen`` package (/root/reference/pd3f/dehyphen_wrapper.py):

- ``score(texts)``              perplexity per text
- ``newline_or_not(l1, l2)``    dehyphen_wrapper.py:47-60
- ``dehyphen_paragraph(lines)`` dehyphen_wrapper.py:34-37
- ``is_split_paragraph(p1,p2)`` dehyphen_wrapper.py:40-43
- ``single_score(text)``        dehyphen_wrapper.py:63-69

Flair/torch are not available in this environment, so the scorer here is
a deterministic word-cost model with the same *interface and decision
semantics*: a built-in frequency vocabulary, per-token costs, a
continuation bonus for adjacent in-vocabulary tokens (so that coherent
concatenations can out-score their parts, like a real LM), and a
well-formed-sentence-ending bonus. The single-process oracle and the Ray
extraction tasks share this exact scorer, so byte parity between them is
well-defined. Lower score = more probable, like perplexity.

Everything is pure and deterministic: same text → same float, on any
host, at any parallelism.

KNOWN LIMITATION — stub-vs-real LM parity (documented, not fixable in
this sandbox): every green extraction roundtrip in CORRECTNESS_r01-r05
was produced with ``DeterministicScorer``. The real-weights seam —
``FlairScorerBackend`` below, selected via
``ExtractOptions(scorer_backend="flair")`` — has the same five-method
interface and is covered by an opt-in integration test
(tests/test_scorer.py, skipped without torch), but torch/flair are not
installed here, so it has NEVER run with real weights. Consequently the
LM-dependent decision rules (C1 rule-7 newline tiebreak, L2
dehyphenation choice, L4 split-paragraph merge) are proven byte-exact
against the STUB's cost model, not against Flair perplexities: with
real weights the individual join/hyphen choices can differ wherever the
two models rank candidate joins differently, while the surrounding
machinery (candidate construction, tie ordering, cross-process
determinism, caching) is scorer-agnostic and is what the roundtrips
pin. First run in a torch-capable environment: un-skip the integration
test and add a 100-doc ``*_roundtrip`` with ``scorer_backend="flair"``
pinning cross-process determinism of ``single_score``.
"""

from __future__ import annotations

import string

# ---------------------------------------------------------------------------
# Built-in vocabulary: frequency classes (higher = more common).
# Mix of common English + German function/content words, the synthetic
# testdata vocabulary (/root/testdata documents table), and words used by
# the fixture generator (incl. dehyphenation targets).
# ---------------------------------------------------------------------------

_VOCAB_CLASSES: dict[int, str] = {
    6: "the a and of to in is on for with as at by it or an be are this that "
       "was were will would been has have had from which their other these "
       "than such one two new more most may can also its after before about "
       "between during under over not no all any each",
    5: "der die das und ist ein eine im mit von zu den dem des für auf nicht "
       "sie er wir und oder aber auch nach bei aus wie über",
    4: "data table row line key value part order sort merge join filter group "
        "query batch stream window hash scan column vector customer agg "
        "small big fast slow spark dup",
    3: "government report section budget finance minister committee states "
        "member public annual total result page document text word union "
        "european commission parliament council directive regulation "
        "financial zahlen bericht seite von haushalt ausschuss mitglied "
        "staaten europa bereich ergebnis antrag gesetz eu",
    2: "finanziellen finanzierung zusammenarbeit entwicklung verwaltung "
        "unterstützung durchführung maßnahmen bestimmungen verordnung "
        "entscheidung zuständigkeit anwendung grundlage wirtschaft "
        "continuation paragraph hyphenation reconstruction extraction "
        "implementation administration development cooperation information",
}

_PUNCT_STRIP = string.punctuation + "„“”‘’«»–—…"


def _build_vocab() -> dict[str, int]:
    v: dict[str, int] = {}
    for freq, words in _VOCAB_CLASSES.items():
        for w in words.split():
            v.setdefault(w, freq)
    return v


_VOCAB = _build_vocab()

_SENT_END = (".", "!", "?")


class DeterministicScorer:
    """Drop-in for dehyphen's FlairScorer with deterministic word-cost
    scoring. ``lang`` selects nothing here (one shared vocabulary) but is
    kept for interface parity; ``-fast`` suffixes are accepted like the
    reference's model-name convention (dehyphen_wrapper.py:26-30)."""

    # per-instance score cache bound (scores are deterministic, so the
    # cache never changes results — it only saves recomputation)
    _CACHE_MAX = 65536

    def __init__(self, lang: str = "multi", fast: bool | None = None):
        if lang.endswith("-fast"):
            lang, fast = lang[:-5], True
        self.lang = lang
        self.fast = bool(fast)
        self._cache: dict[str, float] = {}

    # -- token / text costs -------------------------------------------------

    @staticmethod
    def _core(token: str) -> str:
        return token.strip().strip(_PUNCT_STRIP).lower()

    @classmethod
    def _token_cost(cls, token: str) -> float:
        t = cls._core(token)
        if not t:
            return 2.0
        f = _VOCAB.get(t)
        if f is not None:
            return 1.0 + 1.0 / (1.0 + f)
        if t.replace(".", "").replace(",", "").isdigit():
            return 3.0
        if "-" in t:
            parts = [p for p in t.split("-") if p]
            if parts and all(p in _VOCAB or p.isdigit() for p in parts):
                return 2.5
        # unknown word: length-scaled cost, plus a penalty for non-letter junk
        junk = sum(1 for c in t if not (c.isalnum() or c in "-'"))
        return 6.0 + 0.25 * len(t) + 1.5 * junk

    def _score_one(self, text: str) -> float:
        cached = self._cache.get(text)
        if cached is not None:
            return cached
        score = self._score_uncached(text)
        if len(self._cache) >= self._CACHE_MAX:
            self._cache.clear()
        self._cache[text] = score
        return score

    @classmethod
    def _score_uncached(cls, text: str) -> float:
        tokens = text.split()
        if not tokens:
            return 100.0
        total = sum(cls._token_cost(t) for t in tokens)
        # continuation bonus: adjacent in-vocab tokens cohere, so a
        # concatenation of two fluent spans can beat its parts — like a
        # real LM's perplexity on a longer coherent span
        for a, b in zip(tokens, tokens[1:]):
            if cls._core(a) in _VOCAB and cls._core(b) in _VOCAB:
                total -= 0.15
        # incompleteness penalties: a fragment that stops mid-sentence or
        # starts mid-sentence is "surprising" to a language model. Joining
        # a genuinely split sentence removes one of each, which is what
        # makes merge candidates win in newline_or_not/is_split_paragraph.
        if not tokens[-1].rstrip().endswith(_SENT_END):
            total += 0.6
        first = tokens[0].lstrip()
        if first and not first[0].isupper() and first[0].isalpha():
            total += 0.4
        return round(total / len(tokens), 9)

    def score(self, texts: list[str]) -> list[float]:
        """Perplexity-like score per text; lower is better."""
        return [self._score_one(t) for t in texts]

    # -- decision API (mirrors dehyphen_wrapper call sites) -----------------

    def single_score(self, text: str) -> float:
        """Score one text; ``inf`` for single-char texts like the reference
        (dehyphen_wrapper.py:63-69)."""
        if len(text) == 1:
            return float("inf")
        return self.score([text])[0]

    def newline_or_not(self, l1: str, l2: str) -> bool:
        """True → newline between the two line texts; False → space join.
        Mirrors dehyphen_wrapper.py:47-60 including the single-char special
        cases, with the concatenation competing against each part."""
        if len(l1) == 1:
            return True
        if len(l2) == 1:
            return False
        scores = self.score([l1, l2, l1 + " " + l2])
        return scores.index(min(scores)) != 2

    # -- dehyphenation ------------------------------------------------------

    # a line-final dangling hyphen ("word- next") is anomalous to a char-LM;
    # this models that surprise when scoring the leave-split candidate
    _DANGLING_HYPHEN_PENALTY = 3.0

    def _hyphen_choice(self, core1: str, core2: str) -> int:
        """0 → merge without hyphen, 1 → merge keeping hyphen, 2 → leave
        split. Word-level analogue of dehyphen's three-candidate perplexity
        comparison (dehyphen 0.3.4 public semantics)."""
        c_plain = self._token_cost(core1[:-1] + core2)
        c_hyph = self._token_cost(core1 + core2)
        c_sep = (
            self._token_cost(core1)
            + self._DANGLING_HYPHEN_PENALTY
            + self._token_cost(core2)
        ) / 2.0
        costs = [c_plain, c_hyph, c_sep]
        return costs.index(min(costs))

    @staticmethod
    def _split_suffix(word: str) -> tuple[str, str]:
        """Separate a line-join suffix (the '\\n' or ' ' the kernel appended
        to a line's last word) from the word core."""
        if word.endswith("\n"):
            return word[:-1], "\n"
        if word.endswith(" "):
            return word[:-1], " "
        return word, ""

    def dehyphen_paragraph(self, lines: list[list[str]]) -> list[list[str]]:
        """Resolve hyphenated line breaks inside a paragraph.

        ``lines`` is the kernel's paragraph format: a list of lines, each a
        list of words; each line's last word carries a trailing '\\n' or ' '
        join marker (except possibly the paragraph's last line). For every
        line whose last word-core ends in '-', three candidates are scored —
        merge without the hyphen, merge keeping the hyphen, leave split —
        and the best is applied. A merged word moves to the head of the
        following line (so the line break between them disappears), matching
        the public dehyphen package semantics the reference relies on
        (dehyphen_wrapper.py:34-37).
        """
        out = [list(l) for l in lines]
        i = 0
        while i < len(out) - 1:
            cur, nxt = out[i], out[i + 1]
            # a core ending in '-' puts one in the word's last two chars
            if not cur or not nxt or "-" not in cur[-1][-2:]:
                i += 1
                continue
            core1, sep1 = self._split_suffix(cur[-1])
            if len(core1) > 1 and core1.endswith("-"):
                first = nxt[0]
                core2, suf2 = (
                    self._split_suffix(first) if len(nxt) == 1 else (first, "")
                )
                best = self._hyphen_choice(core1, core2)
                if best != 2:
                    merged = (core1[:-1] if best == 0 else core1) + core2
                    nxt[0] = merged + suf2
                    cur.pop()
                    if not cur:
                        out.pop(i)
                        continue  # re-examine same position
                    # the donor line still needs its join separator so the
                    # remaining words don't run into the merged word
                    cur[-1] += sep1 or " "
            i += 1
        return out

    def is_split_paragraph(
        self, p1_lines: list[list[str]], p2_lines: list[list[str]]
    ) -> list[list[str]] | None:
        """If the junction of the two paragraphs scores better merged than
        separate, return the merged lines (p1's last line gains a ' ' join
        marker, or a dehyphenated merge when it ends with '-'); else None.
        Mirrors the decision shape of dehyphen_wrapper.py:40-43 /
        doc_output.py:84-95 (None == not a split paragraph)."""
        if not p1_lines or not p2_lines or not p1_lines[-1] or not p2_lines[0]:
            return None
        t1 = " ".join(self._split_suffix(w)[0] for w in p1_lines[-1])
        t2 = " ".join(self._split_suffix(w)[0] for w in p2_lines[0])
        scores = self.score([t1, t2, t1 + " " + t2])
        if scores.index(min(scores)) != 2:
            return None
        merged = [list(l) for l in p1_lines] + [list(l) for l in p2_lines]
        last = merged[len(p1_lines) - 1]
        core, _ = self._split_suffix(last[-1])
        if len(core) > 1 and core.endswith("-"):
            # re-run hyphen resolution across the junction
            nxt = merged[len(p1_lines)]
            first_core, suf = (
                self._split_suffix(nxt[0]) if len(nxt) == 1 else (nxt[0], "")
            )
            choice = self._hyphen_choice(core, first_core)
            if choice != 2:
                nxt[0] = (core[:-1] if choice == 0 else core) + first_core + suf
                last.pop()
                if not last:
                    merged.pop(len(p1_lines) - 1)
                else:
                    last[-1] += " "
            else:
                last[-1] = core + " "
        else:
            last[-1] = core + " "
        return merged


class FlairScorerBackend(DeterministicScorer):
    """Real char-LM backend (reference L1: pd3f-flair FlairScorer,
    dehyphen_wrapper.py:18-31). Subclasses ``DeterministicScorer`` so
    the entire five-method decision surface (score / single_score /
    newline_or_not / dehyphen_paragraph / is_split_paragraph) is
    inherited and every decision routes through ``score`` — only the
    text-scoring primitive and the three-candidate hyphen comparison
    are swapped for the char-LM's perplexity. Weights load ONCE per
    process in ``__init__`` (the ``get_scorer`` registry makes that
    once per worker process, mirroring the reference singleton).
    Construction is import-gated: the flair/torch stack is not bundled
    in this environment, and without it the backend raises
    ``NotImplementedError`` at init — the wiring itself is exercised by
    a mock-flair seam test."""

    def __init__(self, lang: str = "multi", fast: bool | None = None):
        try:
            from flair.embeddings import FlairEmbeddings
        except ImportError as exc:
            raise NotImplementedError(
                "FlairScorerBackend needs the pd3f-flair/torch stack, "
                "which is not bundled in this environment; use the "
                "deterministic backend (PD3F_RAY_SCORER=deterministic)"
            ) from exc
        super().__init__(lang, fast)
        # dehyphen's model-name convention (dehyphen_wrapper.py:26-30):
        # fast selects the small "-v0-fast" LMs (parsr_wrapper.py:44-49)
        name = f"{self.lang}-v0-fast" if self.fast else f"{self.lang}-forward"
        self._lm = FlairEmbeddings(name).lm  # the one weights load

    def _score_one(self, text: str) -> float:
        """Char-LM perplexity (lower = more probable), with the same
        bounded per-instance cache as the deterministic backend — scores
        are deterministic for fixed weights, so caching never changes
        results (reference: joblib Memory + lru_cache over all LM entry
        points, dehyphen_wrapper.py:13-15,63)."""
        cached = self._cache.get(text)
        if cached is not None:
            return cached
        score = float(self._lm.calculate_perplexity(text + "\n"))
        if len(self._cache) >= self._CACHE_MAX:
            self._cache.clear()
        self._cache[text] = score
        return score

    def _hyphen_choice(self, core1: str, core2: str) -> int:
        """Three-candidate perplexity comparison on the LM itself
        (dehyphen 0.3.4 public semantics): merge without hyphen, merge
        keeping it, or leave split."""
        scores = self.score(
            [core1[:-1] + core2, core1 + core2, core1 + " " + core2]
        )
        return scores.index(min(scores))


# per-process scorer registry, mirroring the reference's singleton
# (dehyphen_wrapper.py:18-31) but keyed by lang so one worker can serve a
# mixed-language batch. Backend selection via PD3F_RAY_SCORER
# ("deterministic" default | "flair").
_SCORERS: dict[str, DeterministicScorer] = {}


def get_scorer(lang: str) -> DeterministicScorer:
    s = _SCORERS.get(lang)
    if s is None:
        import os

        backend = os.environ.get("PD3F_RAY_SCORER", "deterministic")
        if backend == "flair":
            s = FlairScorerBackend(lang)  # raises NotImplementedError here
        else:
            s = DeterministicScorer(lang)
        _SCORERS[lang] = s
    return s

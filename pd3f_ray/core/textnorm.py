"""Text normalization primitives.

The reference leans on two third-party libraries that are not available
in this environment and are therefore reimplemented minimally here with
pinned, deterministic behavior:

- ``fix_text`` stands in for ftfy's ``fix_bad_unicode`` (used per word at
  /root/reference/pd3f/export.py:392 and per blob at doc_info.py:88):
  repairs the classic UTF-8-bytes-decoded-as-Latin-1 mojibake by
  round-tripping through latin-1 while that strictly reduces the amount
  of mojibake marker characters.
- ``clean_text`` stands in for clean-text 0.3.0's ``clean`` with the only
  two call shapes the reference uses: ``clean(t, no_punct=True)``
  (export.py:401) and ``clean(t, replace_with_number="", no_punct=True)``
  (doc_info.py:161-164). Like the original defaults it lowercases and
  ASCII-folds.
- ``char_bag_jaccard`` stands in for textdistance 4.2.1's ``jaccard`` on
  two strings (doc_info.py:118): Jaccard similarity of the character
  *multisets* (bags).
"""

from __future__ import annotations

import re
import string
import unicodedata
from collections import Counter

_MOJIBAKE_MARKERS = ("Ã", "Â", "â€", "Ä\x9b", "Å", "â€™", "â€œ")

# characters whose presence suggests a latin-1/utf-8 double-encoding
_SUSPECT = set("ÃÂâœ‚†")
_SUSPECT_RE = re.compile('[\x80ÂÃâœ‚†]')


def _mojibake_score(s: str) -> int:
    return sum(s.count(m) for m in _MOJIBAKE_MARKERS)


def fix_text(s: str) -> str:
    """Repair utf-8-as-latin-1 mojibake, e.g. 'Ã¤' -> 'ä'. Idempotent on
    clean text; bounded number of repair rounds; never raises."""
    if not s or _SUSPECT_RE.search(s) is None:
        return s
    cur = s
    for _ in range(3):
        try:
            cand = cur.encode("latin-1").decode("utf-8")
        except (UnicodeEncodeError, UnicodeDecodeError):
            break
        if cand == cur:
            break
        # accept only if it reduces mojibake markers (or removes all)
        if _mojibake_score(cand) < _mojibake_score(cur):
            cur = cand
        else:
            break
        if not any(c in _SUSPECT for c in cur):
            break
    return cur


_PUNCT = set(string.punctuation) | {"«", "»", "„", "“", "”", "‘", "’", "–", "—", "…"}
_PUNCT_TABLE = {ord(c): None for c in _PUNCT}


def _ascii_fold(s: str) -> str:
    # NFKD-decompose and drop combining marks; German sharp-s like
    # clean-text's unidecode path becomes 'ss'.
    if s.isascii():  # ('ß' is non-ASCII, so the replace below is safe)
        return s
    s = s.replace("ß", "ss")
    out = []
    for ch in unicodedata.normalize("NFKD", s):
        if unicodedata.combining(ch):
            continue
        out.append(ch)
    return "".join(out)


def clean_text(
    s: str,
    no_punct: bool = False,
    replace_with_number: str | None = None,
) -> str:
    """Deterministic stand-in for clean-text 0.3.0 ``clean`` as used by the
    reference: fix unicode, ASCII-fold, lowercase, optionally replace digit
    runs, optionally strip punctuation, collapse whitespace."""
    s = fix_text(s)
    s = _ascii_fold(s)
    s = s.lower()
    if replace_with_number is not None:
        out, i, n = [], 0, len(s)
        while i < n:
            if s[i].isdigit():
                while i < n and (s[i].isdigit() or (s[i] in ".," and i + 1 < n and s[i + 1].isdigit())):
                    i += 1
                out.append(replace_with_number)
            else:
                out.append(s[i])
                i += 1
        s = "".join(out)
    if no_punct:
        s = s.translate(_PUNCT_TABLE)
    return " ".join(s.split())


def char_bag_jaccard(a: str, b: str) -> float:
    """Jaccard similarity of character multisets, matching
    textdistance.jaccard's behavior on two strings (bag semantics).
    Empty-vs-empty is 1.0, matching textdistance."""
    if not a and not b:
        return 1.0
    ca, cb = Counter(a), Counter(b)
    inter = sum((ca & cb).values())
    # the union bag holds each char max(ca, cb) = ca + cb - min(ca, cb) times
    union = len(a) + len(b) - inter
    return inter / union if union else 0.0


_ASCII_ALNUM_RE = re.compile("[0-9A-Za-z]")


def has_ascii_alnum(s: str) -> bool:
    """Does ``s`` hold an ASCII letter or digit? Cleaning keeps every one
    (repair, folding, lowercasing and the punctuation strip leave them
    alphanumeric), so then ``has_alnum(s)`` is true."""
    return _ASCII_ALNUM_RE.search(s) is not None


def has_alnum(s: str) -> bool:
    """Does the cleaned text contain any alphanumeric character?
    (reference: export.py:398-402 ``no_alphanum_char``)"""
    if s.isascii():
        # cleaning never creates or destroys ASCII alphanumerics in an
        # all-ASCII string (no suspects to repair, folding is identity,
        # punctuation strip removes no alnum)
        return has_ascii_alnum(s)
    t = clean_text(s, no_punct=True)
    return any(c.isalnum() for c in t)


def strip_line_end_spaces(text: str) -> str:
    """Remove spaces immediately before a trailing newline:
    'x  \\n' -> 'x\\n'. Mirrors /root/reference/pd3f/string_utils.py:1-12."""
    if len(text) < 2 or text[-1] != "\n":
        return text
    body = text[:-1]
    stripped = body.rstrip(" ")
    return stripped + "\n" if stripped != body else text

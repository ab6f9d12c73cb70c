"""Fuzzy string matching for OCR-noised text.

D1's extraction matches field descriptors by exact string comparison
(§5.2.1) — but the transcription those strings come from is OCR output,
so "exact" must be read modulo transcription noise.  This module
provides a bit-parallel Levenshtein distance and the prefix-matching
test the selector uses.
"""

from __future__ import annotations

import re
from typing import Dict, Optional


def normalize_for_match(text: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace."""
    text = text.lower()
    text = re.sub(r"[^a-z0-9 ]+", " ", text)
    return re.sub(r"\s+", " ", text).strip()


def edit_distance(a: str, b: str, cutoff: Optional[int] = None) -> int:
    """Levenshtein distance, or ``cutoff + 1`` when it exceeds ``cutoff``.

    Bit-parallel (Myers 1999, in Hyyrö's 2001 Levenshtein form): bit
    ``i`` of ``vp``/``vn`` says whether cell ``i + 1`` of the current DP
    column is one more/one less than the cell above it.  One column step
    is a fixed handful of integer operations on those vectors, and the
    score tracks the bottom cell, so the result is the DP's last cell
    exactly.  Python ints are unbounded, so the shorter string may be of
    any length.
    """
    if a == b:
        return 0
    if len(a) > len(b):
        a, b = b, a
    m = len(a)
    if cutoff is not None and len(b) - m > cutoff:
        return cutoff + 1
    dist = len(b)
    if m:
        peq: Dict[str, int] = {}  # char -> bitmask of its positions in a
        bit = 1
        for ch in a:
            peq[ch] = peq.get(ch, 0) | bit
            bit <<= 1
        mask = bit - 1
        last = bit >> 1
        vp, vn, dist = mask, 0, m
        match = peq.get
        for ch in b:
            x = match(ch, 0) | vn
            d0 = ((((x & vp) + vp) ^ vp) | x) & mask
            hp = vn | ((d0 | vp) ^ mask)
            hn = vp & d0
            if hp & last:
                dist += 1
            elif hn & last:
                dist -= 1
            hp = ((hp << 1) | 1) & mask  # top row: D[0][j] - D[0][j-1] = +1
            hn = (hn << 1) & mask
            vp = hn | ((d0 | hp) ^ mask)
            vn = hp & d0
    if cutoff is not None and dist > cutoff:
        return cutoff + 1
    return dist


def similarity_ratio(a: str, b: str) -> float:
    """1 − normalised edit distance (1.0 = identical)."""
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    return 1.0 - edit_distance(a, b) / longest


_DIGIT_TO_LETTER = str.maketrans({"0": "o", "1": "l", "5": "s", "8": "b", "9": "g", "2": "z", "6": "b"})
_LETTER_TO_DIGIT = str.maketrans({"o": "0", "O": "0", "l": "1", "I": "1", "s": "5", "S": "5", "B": "8", "z": "2", "Z": "2", "g": "9"})


def repair_ocr_text(text: str) -> str:
    """Heuristic OCR repair, **length preserving** (char-for-char maps
    only, so character spans survive).

    Per token: digits inside a mostly-alphabetic word become their
    usual glyph confusions' letters ("Po5ter" → "Poster"); letters
    inside a mostly-numeric token become digits ("2l3,893" →
    "213,893"); spurious inner capitals relax ("ScreEning" →
    "Screening") unless the token is an acronym.
    """
    out = []
    for token in re.split(r"(\s)", text):  # separators preserved 1:1
        if not token or token.isspace():
            out.append(token)
            continue
        alpha = sum(ch.isalpha() for ch in token)
        digit = sum(ch.isdigit() for ch in token)
        if digit and alpha >= digit and alpha + digit >= 3:
            token = token.translate(_DIGIT_TO_LETTER)
        elif alpha and digit > alpha:
            token = token.translate(_LETTER_TO_DIGIT)
        if (
            len(token) > 2
            and token[0].isalpha()
            and any(ch.isupper() for ch in token[1:])
            and any(ch.islower() for ch in token)
        ):
            token = token[0] + token[1:].lower()
        out.append(token)
    return "".join(out)


_FOLD = str.maketrans(
    {
        "o": "0", "l": "1", "i": "1", "s": "5", "b": "8", "z": "2",
        "g": "9", "c": "e", "q": "0", "d": "0",
    }
)


def ocr_fold(text: str) -> str:
    """Collapse common OCR glyph-confusion classes onto canonical
    characters, so `'l2 Wages'` and `'12 Wages'` compare equal.  Used
    as a cheap prefilter before edit-distance matching."""
    return normalize_for_match(text).translate(_FOLD)


def fuzzy_prefix_match(
    text: str, prefix: str, min_ratio: float = 0.8
) -> Optional[int]:
    """If ``text`` starts with (a noisy rendering of) ``prefix``, return
    the matched prefix length in ``text``; else ``None``.

    Both inputs should be pre-normalised.  The match window flexes by
    ±15% of the prefix length to absorb OCR splits/merges.
    """
    if not prefix:
        return None
    slack = max(2, int(0.15 * len(prefix)))
    best_len: Optional[int] = None
    best_ratio = min_ratio
    for window in range(max(1, len(prefix) - slack), min(len(text), len(prefix) + slack) + 1):
        ratio = similarity_ratio(text[:window], prefix)
        if ratio >= best_ratio:
            best_ratio = ratio
            best_len = window
    return best_len

"""Word-level form-field descriptor matching (shared by VS2's D1 path
and the text-only baselines).

D1 extraction matches field descriptors by "exact string match"
(§5.2.1) — read modulo OCR noise.  Matching at *word* level keeps the
raw (formatted) value text and its bounding box exact: the descriptor
is located as a fuzzy word subsequence, and the words that follow are
the field value.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

from repro.datasets import FormFace, form_faces
from repro.doc.elements import TextElement
from repro.nlp.fuzzy import normalize_for_match, ocr_fold, similarity_ratio


def identify_form_face(lines: Iterable[str]) -> Optional[FormFace]:
    """Match candidate title lines against the 20 known face titles.

    Each normalised line's head (title length + 6 characters) is scored
    against every title; the first strictly best (line, face) pair
    wins, and a best ratio under 0.6 means no face was found.
    """
    titles = [(normalize_for_match(face.title), face) for face in form_faces()]
    best: Optional[Tuple[float, FormFace]] = None
    for line in lines:
        text = normalize_for_match(line)
        if not text:
            continue
        for title, face in titles:
            ratio = similarity_ratio(text[: len(title) + 6], title)
            if best is None or ratio > best[0]:
                best = (ratio, face)
    if best is None or best[0] < 0.6:
        return None
    return best[1]


def find_descriptor_span(
    words: Sequence[TextElement],
    descriptor: str,
    min_ratio: float = 0.8,
) -> Optional[Tuple[int, int, float]]:
    """Locate ``descriptor`` as a fuzzy word subsequence of ``words``.

    Returns ``(start_word, end_word, ratio)`` for the best-matching
    window, or ``None``.  An OCR-folded first-token prefilter keeps the
    edit-distance work bounded (descriptors start with line numbers).
    """
    desc_norm = normalize_for_match(descriptor)
    desc_tokens = desc_norm.split()
    if not desc_tokens:
        return None
    first_fold = ocr_fold(desc_tokens[0])
    n = len(desc_tokens)
    best: Optional[Tuple[int, int, float]] = None
    for i, w in enumerate(words):
        if ocr_fold(w.text) != first_fold:
            continue
        for length in (n, n - 1, n + 1):
            if length < 1 or i + length > len(words):
                continue
            window = normalize_for_match(" ".join(x.text for x in words[i : i + length]))
            ratio = similarity_ratio(window, desc_norm)
            if ratio >= min_ratio and (best is None or ratio > best[2]):
                best = (i, i + length, ratio)
    return best

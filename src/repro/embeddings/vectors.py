"""Static word embeddings: hashing + topical components.

Design constraints (from how Eq. 1 / Eq. 2 use the model):

* deterministic — same word, same vector, across processes and runs;
* OCR-robust — a word with one or two garbled characters should stay
  close to its clean form (character n-gram hashing gives this);
* topically coherent — words of one semantic field should be mutually
  closer than words of different fields (topic lexicons give this).
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.nlp import gazetteers as gaz
from repro.nlp.tokenizer import words as tokenize_words

DIM = 64


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of two vectors; 0 when either is a zero vector."""
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def cosine_matrix(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """All pairwise cosines: entry ``(i, j)`` is bit-for-bit
    ``cosine_similarity(vectors[i], vectors[j])``.

    Exactness rests on doing the scalar function's arithmetic in the
    same order: one ``np.linalg.norm`` per vector, each dot through
    ``np.vecdot`` (the BLAS ``ddot`` that ``np.dot`` runs on two 1-D
    arrays, once per broadcast row pair), then ``dot / (na * nb)``.
    ``V @ V.T`` and ``einsum`` sum in another order and differ in the
    last ulp; pairs with a zero-norm side are 0.0 as in the scalar guard.
    """
    n = len(vectors)
    if n == 0:
        return np.zeros((0, 0))
    mat = np.asarray(vectors, dtype=float)
    norms = np.array([float(np.linalg.norm(v)) for v in mat])
    dots = np.vecdot(mat[:, None, :], mat[None, :, :])
    with np.errstate(all="ignore"):
        sims = dots / np.multiply.outer(norms, norms)
    zero = norms == 0.0
    sims[zero, :] = 0.0
    sims[:, zero] = 0.0
    return sims


@lru_cache(maxsize=65536)
def _stable_unit_vector(key: str, dim: int) -> np.ndarray:
    """A deterministic pseudo-random unit vector for ``key``.

    Derived from a SHA-256 digest so it is stable across Python hash
    randomisation and platforms.  Memoised — the digest + RNG round
    costs ~30 µs and the same n-gram keys recur across every word of a
    corpus.  Treat the returned array as read-only.
    """
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    seed = int.from_bytes(digest[:8], "little")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


class HashEmbedding:
    """Character n-gram hash embedding.

    A word's vector is the normalised sum of stable unit vectors of its
    padded character n-grams (n = 3..5, fastText-style).  Single-edit
    corruptions perturb only a few n-grams, so OCR-noised words remain
    close to their originals — the property semantic merging needs to
    survive low-quality transcription.
    """

    def __init__(self, dim: int = DIM, n_min: int = 3, n_max: int = 5):
        if n_min < 1 or n_max < n_min:
            raise ValueError("bad n-gram range")
        self.dim = dim
        self.n_min = n_min
        self.n_max = n_max
        self._cache: Dict[str, np.ndarray] = {}

    def _ngrams(self, word: str) -> List[str]:
        padded = f"<{word}>"
        grams = []
        for n in range(self.n_min, self.n_max + 1):
            grams.extend(padded[i : i + n] for i in range(max(len(padded) - n + 1, 0)))
        return grams or [padded]

    def embed(self, word: str) -> np.ndarray:
        key = word.lower()
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        total = np.zeros(self.dim)
        for gram in self._ngrams(key):
            total += _stable_unit_vector("ng:" + gram, self.dim)
        norm = np.linalg.norm(total)
        vec = total / norm if norm > 0 else total
        self._cache[key] = vec
        return vec


#: Topic lexicons: semantic fields of the corpora's vocabulary.
_TOPIC_LEXICONS: Dict[str, frozenset] = {
    "person": gaz.FIRST_NAMES | gaz.LAST_NAMES | gaz.NAME_PREFIXES,
    "organization": gaz.ORG_SUFFIXES | gaz.ORG_HEAD_WORDS,
    "place": gaz.CITIES | gaz.STATES | gaz.STREET_SUFFIXES | gaz.STREET_NAMES | gaz.VENUE_WORDS,
    "time": gaz.MONTHS | gaz.WEEKDAYS | gaz.TIME_WORDS,
    "event": gaz.EVENT_WORDS,
    "property": gaz.PROPERTY_WORDS,
    "contact": gaz.CONTACT_WORDS,
}


class TopicEmbedding:
    """Lexicon-topic components.

    Each topic owns a stable unit direction; a word in a topic lexicon
    maps to that direction (a word in several lexicons gets their
    normalised sum; an unknown word gets the zero vector).
    """

    def __init__(self, dim: int = DIM, lexicons: Optional[Dict[str, frozenset]] = None):
        self.dim = dim
        self.lexicons = dict(_TOPIC_LEXICONS if lexicons is None else lexicons)
        self._directions = {
            topic: _stable_unit_vector("topic:" + topic, dim) for topic in self.lexicons
        }

    def topics_of(self, word: str) -> List[str]:
        lower = word.lower().strip(".,")
        return [t for t, lex in self.lexicons.items() if lower in lex]

    def embed(self, word: str) -> np.ndarray:
        topics = self.topics_of(word)
        if not topics:
            # Real distributional embeddings place ordinary prose words
            # in a common region, away from digits and rare names.  A
            # weak shared "prose" component reproduces that: any two
            # sentences have baseline similarity, topical sentences
            # more, while numbers and names contribute nothing.
            if word.isalpha() and len(word) > 2:
                return 0.5 * self._directions_for(["__prose__"])
            return np.zeros(self.dim)
        return self._directions_for(topics)

    def _directions_for(self, topics: Sequence[str]) -> np.ndarray:
        total = np.zeros(self.dim)
        for topic in topics:
            total += self._directions.get(topic, _stable_unit_vector("topic:" + topic, self.dim))
        norm = np.linalg.norm(total)
        return total / norm if norm > 0 else total


class WordEmbedding:
    """The default model: hash base + topic component.

    ``topic_weight`` balances morphological robustness against topical
    coherence; 0.6 empirically separates semantic fields while leaving
    headroom for OCR-noise matching.
    """

    def __init__(self, dim: int = DIM, topic_weight: float = 0.6):
        if not 0.0 <= topic_weight <= 1.0:
            raise ValueError("topic_weight must be in [0, 1]")
        self.dim = dim
        self.topic_weight = topic_weight
        self._hash = HashEmbedding(dim)
        self._topic = TopicEmbedding(dim)
        self._cache: Dict[str, np.ndarray] = {}

    def embed(self, word: str) -> np.ndarray:
        key = word.lower()
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        base = self._hash.embed(key) * (1.0 - self.topic_weight)
        topic = self._topic.embed(key) * self.topic_weight
        vec = base + topic
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec = vec / norm
        self._cache[key] = vec
        return vec

    def embed_text(self, text: str) -> np.ndarray:
        """Mean vector of the words of ``text`` (zero for empty text).

        Text is OCR-repaired first (the cleaning step): glyph-confused
        words would otherwise fall out of the topic lexicons and
        silently zero the semantic terms of Eq. 1 / Eq. 2.  Stopwords
        are dropped (§5.2's preprocessing) so function words do not
        dilute area-level similarity.
        """
        from repro.nlp.fuzzy import repair_ocr_text
        from repro.nlp.tokenizer import STOPWORDS

        word_list = tokenize_words(repair_ocr_text(text))
        content = [w for w in word_list if w not in STOPWORDS]
        word_list = content or word_list
        if not word_list:
            return np.zeros(self.dim)
        return np.mean([self.embed(w) for w in word_list], axis=0)

    def embed_words(self, word_list: Iterable[str]) -> np.ndarray:
        vecs = [self.embed(w) for w in word_list]
        if not vecs:
            return np.zeros(self.dim)
        return np.mean(vecs, axis=0)

    def similarity(self, a: str, b: str) -> float:
        return cosine_similarity(self.embed(a), self.embed(b))

    def text_similarity(self, a: str, b: str) -> float:
        return cosine_similarity(self.embed_text(a), self.embed_text(b))


_DEFAULT: Optional[WordEmbedding] = None


def default_embedding() -> WordEmbedding:  # conc: ambient - idempotent memo cache, safe to refill per process
    """Process-wide shared default model (cache reuse matters: Eq. 1 is
    evaluated for every node pair at every merge iteration)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = WordEmbedding()
    return _DEFAULT

"""Word embeddings — the pre-trained Word2Vec stand-in.

VS2 uses a pre-trained Word2Vec model [26] in two places: the semantic
contribution of Eq. 1 (semantic merging) and the ΔSim term of Eq. 2
(multimodal disambiguation).  Both only need a stable notion of cosine
similarity in which semantically related words score high.  We provide:

* :class:`HashEmbedding` — deterministic character-n-gram hashing,
  robust to OCR character noise (a garbled word stays near its clean
  form);
* :class:`TopicEmbedding` — lexicon-driven topical components so that
  words from the same semantic field (times, addresses, contact info,
  property attributes, ...) cluster;
* :class:`WordEmbedding` — the blend of the two, the default model;
* :func:`train_svd_embedding` — a trainable PPMI + SVD co-occurrence
  embedder, the from-scratch counterpart of training Word2Vec on a
  corpus, used by tests and ablations.
"""

from repro.embeddings.vectors import (
    HashEmbedding,
    TopicEmbedding,
    WordEmbedding,
    cosine_matrix,
    cosine_similarity,
    default_embedding,
)
from repro.embeddings.cooccurrence import SvdEmbedding, train_svd_embedding

__all__ = [
    "HashEmbedding",
    "TopicEmbedding",
    "WordEmbedding",
    "cosine_matrix",
    "cosine_similarity",
    "default_embedding",
    "SvdEmbedding",
    "train_svd_embedding",
]

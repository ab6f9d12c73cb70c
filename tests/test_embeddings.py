"""Word embeddings (Word2Vec stand-in) and the trainable SVD path."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.embeddings import (
    HashEmbedding,
    TopicEmbedding,
    WordEmbedding,
    cosine_matrix,
    cosine_similarity,
    default_embedding,
    train_svd_embedding,
)


class TestCosine:
    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_zero_vector(self):
        assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0

    def test_identical(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0)


@st.composite
def _vector_sets(draw):
    """0–12 vectors of one dimension, each scaled by 10**e for e in
    [-150, 150]; some are zero vectors and some repeat an earlier row."""
    n = draw(st.integers(min_value=0, max_value=12))
    dim = draw(st.integers(min_value=1, max_value=70))
    unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["random", "random", "random", "zero", "repeat"]))
        if kind == "zero":
            rows.append(np.zeros(dim))
        elif kind == "repeat" and rows:
            rows.append(rows[draw(st.integers(min_value=0, max_value=len(rows) - 1))].copy())
        else:
            scale = 10.0 ** draw(st.integers(min_value=-150, max_value=150))
            rows.append(np.array(draw(st.lists(unit, min_size=dim, max_size=dim))) * scale)
    return rows


class TestCosineMatrix:
    """``cosine_matrix`` must be bit-for-bit the scalar ``cosine_similarity``
    on every pair: Eq. 1 in semantic merging and the Pareto coherence
    objective read it in place of the per-pair calls."""

    @staticmethod
    def _assert_matches_scalar(rows):
        sims = cosine_matrix(rows)
        assert sims.shape == (len(rows), len(rows))
        for i, a in enumerate(rows):
            for j, b in enumerate(rows):
                assert float(sims[i, j]).hex() == cosine_similarity(a, b).hex(), (i, j)

    @settings(max_examples=300, deadline=None)
    @given(_vector_sets())
    def test_entries_equal_scalar_cosine(self, rows):
        self._assert_matches_scalar(rows)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_small_sizes(self, n):
        rng = np.random.default_rng(n)
        self._assert_matches_scalar([rng.standard_normal(64) for _ in range(n)])

    def test_zero_and_duplicate_rows(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(64)
        rows = [np.zeros(64), v, v.copy(), 1e-150 * v, 1e150 * v, np.zeros(64)]
        self._assert_matches_scalar(rows)
        sims = cosine_matrix(rows)
        assert not sims[0].any() and not sims[:, 5].any()

    def test_embedding_vectors(self):
        emb = default_embedding()
        words = ["concert", "Tuesday", "avenue", "1040", "", "Main", "schedule", "the"]
        self._assert_matches_scalar([emb.embed_text(w) for w in words])


class TestHashEmbedding:
    def test_deterministic(self):
        e = HashEmbedding()
        assert np.allclose(e.embed("concert"), HashEmbedding().embed("concert"))

    def test_case_insensitive(self):
        e = HashEmbedding()
        assert np.allclose(e.embed("Concert"), e.embed("concert"))

    def test_ocr_noise_robustness(self):
        """Single-character corruption keeps the word near its original —
        the property semantic merging needs on noisy transcriptions."""
        e = HashEmbedding()
        noisy = cosine_similarity(e.embed("refreshments"), e.embed("refre5hments"))
        unrelated = cosine_similarity(e.embed("refreshments"), e.embed("mortgage"))
        assert noisy > 0.5
        assert noisy > unrelated + 0.3

    def test_unit_norm(self):
        assert np.linalg.norm(HashEmbedding().embed("hello")) == pytest.approx(1.0)

    def test_bad_ngram_range(self):
        with pytest.raises(ValueError):
            HashEmbedding(n_min=3, n_max=2)


class TestTopicEmbedding:
    def test_same_topic_words_aligned(self):
        t = TopicEmbedding()
        assert cosine_similarity(t.embed("concert"), t.embed("festival")) == pytest.approx(1.0)

    def test_different_topics_unaligned(self):
        t = TopicEmbedding()
        sim = cosine_similarity(t.embed("concert"), t.embed("bathroom"))
        assert abs(sim) < 0.5

    def test_unknown_word_gets_weak_prose_component(self):
        t = TopicEmbedding()
        vec = t.embed("zxqwv")
        assert 0 < float(abs(vec).sum()) and float((vec ** 2).sum()) < 0.5

    def test_numeric_token_zero(self):
        assert not TopicEmbedding().embed("1234").any()

    def test_topics_of(self):
        assert "event" in TopicEmbedding().topics_of("concert")


class TestWordEmbedding:
    def test_bad_weight(self):
        with pytest.raises(ValueError):
            WordEmbedding(topic_weight=2.0)

    def test_topical_similarity_dominates(self):
        e = WordEmbedding()
        same_field = e.similarity("concert", "festival")
        cross_field = e.similarity("concert", "bathroom")
        assert same_field > cross_field + 0.3

    def test_embed_text_empty(self):
        assert not WordEmbedding().embed_text("").any()

    def test_embed_text_repairs_ocr(self):
        e = WordEmbedding()
        sim = cosine_similarity(
            e.embed_text("Li9ht reFre5hments"), e.embed_text("Light refreshments")
        )
        assert sim > 0.9

    def test_embed_text_drops_stopwords(self):
        e = WordEmbedding()
        sim = cosine_similarity(
            e.embed_text("the concert of the year"), e.embed_text("concert year")
        )
        assert sim > 0.95

    def test_default_embedding_is_shared(self):
        assert default_embedding() is default_embedding()


class TestSvdEmbedding:
    def corpus(self):
        return [
            "the concert starts at eight tonight",
            "a festival with live music and food",
            "the concert features live music",
            "festival tickets are on sale now",
            "concert tickets available at the door",
            "the festival hosts a concert stage",
        ] * 4

    def test_training_shapes(self):
        emb = train_svd_embedding(self.corpus(), dim=8, min_count=2)
        assert emb.dim <= 8
        assert "concert" in emb

    def test_oov_is_zero(self):
        emb = train_svd_embedding(self.corpus(), dim=8, min_count=2)
        assert not emb.embed("zxqwv").any()

    def test_cooccurring_words_related(self):
        emb = train_svd_embedding(self.corpus(), dim=8, min_count=2)
        related = emb.similarity("concert", "festival")
        assert "concert" in emb and "festival" in emb
        assert related > -0.2  # co-occurring words never strongly opposed

    def test_most_similar_excludes_self(self):
        emb = train_svd_embedding(self.corpus(), dim=8, min_count=2)
        assert "concert" not in emb.most_similar("concert", k=3)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_svd_embedding(["one"], dim=4, min_count=5)

    def test_bad_dim_rejected(self):
        with pytest.raises(ValueError):
            train_svd_embedding(self.corpus(), dim=0)

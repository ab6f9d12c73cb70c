"""Direct coverage of remaining helper surfaces: baseline feature
vectors, parse helpers, lesk ranking, website variants, misc."""

import numpy as np
import pytest

from repro.baselines.extraction.features import (
    block_feature_vector,
    candidate_dom_nodes,
    dom_feature_vector,
    text_features,
    visual_features,
)
from repro.core.clustering import clusters_to_bboxes
from repro.core.features import color_feature, pairwise_feature_distance, feature_matrix
from repro.core.interest_points import semantic_coherence
from repro.doc import Document, LayoutNode, TextElement
from repro.embeddings import default_embedding
from repro.geometry import BBox
from repro.html import el, parse_html
from repro.html.wrapper import extract_records
from repro.nlp.lesk import LeskCandidate, lesk_rank
from repro.nlp.parse import parse_chunks
from repro.nlp.verbnet import known_classes
from repro.synth.websites import (
    ACM_WRAPPER,
    HOMESBYOWNER_WRAPPER,
    acm_talk_listing,
    homesbyowner_listing,
)


def word(text, x, y, w=40, h=12):
    return TextElement(text, BBox(x, y, w, h))


class TestBaselineFeatures:
    def test_text_features_flags(self):
        v = text_features("Call (614) 555-0100 or a@b.com on Friday at 4 Oak Street, Columbus, OH")
        phone, email, timex, geo = v[3], v[4], v[5], v[6]
        assert phone == 1.0 and email == 1.0 and timex == 1.0 and geo == 1.0

    def test_text_features_plain(self):
        v = text_features("nothing special here")
        assert v[3] == 0.0 and v[4] == 0.0

    def test_visual_features_normalised(self):
        doc = Document("f", 800, 1000, elements=[word("x", 100, 200)])
        v = visual_features(doc, BBox(100, 200, 40, 12))
        assert all(np.isfinite(v))
        assert 0 <= v[0] <= 1 and 0 <= v[1] <= 1

    def test_block_vector_length_stable(self):
        doc = Document("f", 800, 1000, elements=[word("x", 100, 200)])
        a = block_feature_vector(doc, BBox(100, 200, 40, 12))
        b = block_feature_vector(doc, BBox(0, 0, 10, 10))
        assert a.shape == b.shape

    def test_dom_features(self, d3_corpus):
        doc = d3_corpus[0]
        nodes = candidate_dom_nodes(doc.html)
        assert nodes
        v = dom_feature_vector(nodes[0], doc.html, doc.width, doc.height)
        assert np.isfinite(v).all()


class TestCoreFeatureExtras:
    def test_pairwise_feature_distance_symmetric(self):
        elements = [word("a", 0, 0), word("b", 100, 0), word("c", 0, 100)]
        m = pairwise_feature_distance(feature_matrix(elements, BBox(0, 0, 200, 200)))
        assert np.allclose(m, m.T)
        assert np.allclose(np.diag(m), 0)

    def test_color_feature(self):
        assert len(color_feature([word("a", 0, 0)])) == 3
        assert color_feature([]) == [0.0, 0.0, 0.0]

    def test_clusters_to_bboxes(self):
        boxes = clusters_to_bboxes([[word("a", 0, 0), word("b", 50, 0)], []])
        assert len(boxes) == 1
        assert boxes[0].w > 40

    def test_semantic_coherence_caps_quadratic_blowup(self):
        many = [word("concert", i * 50, 0) for i in range(60)]
        node = LayoutNode(BBox(0, 0, 3000, 12), many)
        value = semantic_coherence(node, default_embedding())
        assert value <= 40 * 39 / 2  # capped word count


def _reference_semantic_coherence(block, embedding):
    """The per-pair loop ``semantic_coherence`` used before the cosine
    matrix: norms hoisted, zero-norm pairs skipped, sequential sum."""
    texts = [a.text for a in block.text_atoms][:40]
    if len(texts) < 2:
        return 0.0
    vectors = [embedding.embed(t) for t in texts]
    norms = [float(np.linalg.norm(v)) for v in vectors]
    total = 0.0
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            na, nb = norms[i], norms[j]
            if na == 0.0 or nb == 0.0:
                continue
            total += float(np.dot(vectors[i], vectors[j]) / (na * nb))
    return total


class _ScaledEmbedding:
    """Default word vectors at varied magnitudes; words starting with a
    digit map to the zero vector."""

    def __init__(self):
        self._base = default_embedding()

    def embed(self, text):
        if text[:1].isdigit():
            return np.zeros(self._base.dim)
        return self._base.embed(text) * (1.0 + len(text) * 1e3)


class TestSemanticCoherenceExact:
    """The cosine-matrix coherence is bit-for-bit the old per-pair sum."""

    VOCAB = ["concert", "Tuesday", "avenue", "Main", "schedule", "tickets", "jazz",
             "the", "7pm", "1040", "Columbus", "garden", "free", "admission"]

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("embedding", [default_embedding(), _ScaledEmbedding()],
                             ids=["default", "scaled-with-zeros"])
    def test_matches_per_pair_loop(self, seed, embedding):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 50))
        words = [word(self.VOCAB[int(k)], i * 50, 0)
                 for i, k in enumerate(rng.integers(0, len(self.VOCAB), n))]
        node = LayoutNode(BBox(0, 0, 3000, 12), words)
        got = semantic_coherence(node, embedding)
        assert got.hex() == _reference_semantic_coherence(node, embedding).hex()


class TestParseHelpers:
    def test_parse_chunks_returns_chunk_trees(self):
        chunks = parse_chunks("Hosted by John Smith")
        assert chunks and all(c.label in ("NP", "VP", "O") for c in chunks)

    def test_verbnet_classes_listed(self):
        assert "captain" in known_classes()


class TestLeskRank:
    def test_rank_order(self):
        candidates = [
            LeskCandidate("a", "completely unrelated words"),
            LeskCandidate("b", "hosted and organized by the club"),
        ]
        order = lesk_rank(candidates, "event_organizer")
        assert order[0] == 1


class TestWebsiteVariants:
    def test_acm_listing(self):
        records = extract_records(parse_html(acm_talk_listing(0, 6)), ACM_WRAPPER)
        assert len(records) == 6
        assert all(r["event_organizer"] for r in records)

    def test_homesbyowner_listing(self):
        records = extract_records(
            parse_html(homesbyowner_listing(0, 6)), HOMESBYOWNER_WRAPPER
        )
        assert len(records) == 6
        assert all("@" in r["broker_email"] for r in records)


class TestNestedWrapperRecords:
    def test_outermost_container_wins(self):
        inner = el("div", el("span", "X", class_="f"), class_="rec")
        outer = el("div", inner, class_="rec")
        from repro.html import WrapperRule

        rule = WrapperRule(("div", "rec"), {"f": ("span", "f")})
        records = extract_records(el("html", outer), rule)
        assert len(records) == 1

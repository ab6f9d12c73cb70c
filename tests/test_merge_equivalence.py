"""Semantic merging with the level cosine matrix makes the same
decisions as the per-pair Eq. 1 it replaced.

``_oracle_semantic_merge`` is the previous implementation, kept only
here: every (node, level-node) cosine is one ``cosine_similarity`` call,
and the partner ranking recomputes them.  Both versions run on the same
unmerged layout trees of seeded D1/D2/D3 documents; the ``merge.``
ledgers (every ``merge.decision`` and ``merge.pass`` event, canonical
JSON) and the resulting leaf boxes must be identical.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np
import pytest

import repro.core.merging as merging
from repro.core.config import SegmentConfig, VS2Config
from repro.core.merging import (
    _merge_nodes,
    _node_label,
    _not_visually_separated,
    merge_threshold,
    node_vector,
    semantic_merge,
)
from repro.core.segment import VS2Segmenter
from repro.doc import TextElement
from repro.doc.layout_tree import LayoutNode, LayoutTree
from repro.embeddings import WordEmbedding, cosine_similarity, default_embedding
from repro.geometry import BBox
from repro.ocr import OcrEngine
from repro.ocr.cache import transcribe_and_clean
from repro.synth import generate_corpus
from repro.trace import Tracer, ledger_diff, ledger_lines


def _oracle_semantic_contribution(
    node: LayoutNode,
    level_nodes: List[LayoutNode],
    embedding: WordEmbedding,
    cache: Dict[int, np.ndarray],
) -> float:
    v = node_vector(node, embedding, cache)
    siblings = set(id(s) for s in node.siblings())
    sibling_sims: List[float] = []
    other_sims: List[float] = []
    for other in level_nodes:
        if other is node:
            continue
        sim = cosine_similarity(v, node_vector(other, embedding, cache))
        if id(other) in siblings:
            sibling_sims.append(sim)
        else:
            other_sims.append(sim)
    best_sib = float(np.max(sibling_sims)) if sibling_sims else 0.0
    mean_other = float(np.mean(other_sims)) if other_sims else 0.0
    return best_sib - mean_other


def _oracle_semantic_merge(
    tree: LayoutTree,
    config: SegmentConfig,
    embedding: WordEmbedding,
    tracer: Optional[Tracer] = None,
) -> int:
    tracing = tracer is not None and tracer.enabled
    cache: Dict[int, np.ndarray] = {}
    total = 0
    for _pass in range(32):
        height = tree.height
        theta = merge_threshold(height, config)
        merged_this_pass = 0
        for level in range(height, 0, -1):
            level_nodes = tree.nodes_at_level(level)
            textual = [n for n in level_nodes if n.text_atoms]
            for node in list(textual):
                if node.parent is None or not any(c is node for c in node.parent.children):
                    continue
                if not node.is_leaf:
                    continue
                siblings = [s for s in node.siblings() if s.is_leaf and s.text_atoms]
                if not siblings:
                    continue
                sc = _oracle_semantic_contribution(node, textual, embedding, cache)
                if sc <= theta:
                    if tracing:
                        tracer.event(
                            "merge.decision",
                            height=height,
                            level=level,
                            theta=round(theta, 4),
                            sc=round(sc, 4),
                            node=_node_label(node),
                            merged=False,
                            partner=None,
                            sim=None,
                            reason="sc_below_theta",
                        )
                    continue
                v = node_vector(node, embedding, cache)
                candidates = sorted(
                    siblings,
                    key=lambda s: -cosine_similarity(v, node_vector(s, embedding, cache)),
                )
                chosen = None
                best_sim = None
                for partner in candidates:
                    sim = cosine_similarity(v, node_vector(partner, embedding, cache))
                    if best_sim is None:
                        best_sim = sim
                    if sim > max(theta, 0.3) and _not_visually_separated(node, partner, config):
                        chosen = (partner, sim)
                        merged = _merge_nodes(node.parent, node, partner)
                        cache.pop(merged.node_id, None)
                        merged_this_pass += 1
                        break
                if tracing:
                    tracer.event(
                        "merge.decision",
                        height=height,
                        level=level,
                        theta=round(theta, 4),
                        sc=round(sc, 4),
                        node=_node_label(node),
                        merged=chosen is not None,
                        partner=_node_label(chosen[0]) if chosen else None,
                        sim=round(float(chosen[1] if chosen else best_sim), 4)
                        if (chosen or best_sim is not None)
                        else None,
                        reason="merged" if chosen else "no_eligible_partner",
                    )
        total += merged_this_pass
        if tracing:
            tracer.event(
                "merge.pass",
                height=height,
                theta=round(theta, 4),
                merges=merged_this_pass,
            )
        tree.collapse_unary()
        if merged_this_pass == 0:
            break
    return total


def _run(merge, tree: LayoutTree, config: SegmentConfig, label: str):
    tracer = Tracer()
    with tracer.span("doc", doc_id=label):
        merges = merge(tree, config, default_embedding(), tracer=tracer)
    leaf_boxes = [(n.bbox.x, n.bbox.y, n.bbox.w, n.bbox.h) for n in tree.leaves()]
    return merges, ledger_lines(tracer.drain(), "merge."), leaf_boxes


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("dataset", ["D1", "D2", "D3"])
def test_merge_ledger_and_leaves_match_per_pair_oracle(dataset, seed):
    config = VS2Config.for_dataset(dataset)
    engine = OcrEngine(seed=config.ocr_seed)
    segmenter = VS2Segmenter(config.segment)
    decisions = merges = 0
    for doc in generate_corpus(dataset, n=4, seed=seed):
        _, observed, _ = transcribe_and_clean(engine, doc)
        oracle = _run(
            _oracle_semantic_merge,
            segmenter.segment(observed, semantic_merging=False),
            config.segment,
            doc.doc_id,
        )
        kernel = _run(
            semantic_merge,
            segmenter.segment(observed, semantic_merging=False),
            config.segment,
            doc.doc_id,
        )
        diff = ledger_diff(oracle[1], kernel[1], "per-pair", "cosine-matrix")
        assert not diff, "merge ledgers diverge:\n" + "\n".join(diff[:20])
        assert kernel[0] == oracle[0]
        assert kernel[2] == oracle[2]
        decisions += sum('"merge.decision"' in line for line in kernel[1])
        merges += kernel[0]
    assert decisions > 0, "no Eq. 1 evaluation exercised"
    if dataset != "D1":  # D1 forms make Eq. 1 decisions but merge nothing
        assert merges > 0, "no merge exercised"


def _line(text: str, y: float) -> LayoutNode:
    words, x = [], 0.0
    for w in text.split():
        words.append(TextElement(w, BBox(x, y, 8 * len(w), 12), font_size=12.0))
        x += 8 * len(w) + 6
    return LayoutNode(BBox(0, y, x, 12), words, kind="cluster")


def _cascade_tree() -> LayoutTree:
    """Four stacked, topically alike lines under one parent and two
    unrelated lines under another: the first two merge, and the third
    then ranks the merged node, which the level snapshot does not hold."""
    root = LayoutNode(BBox(0, 0, 600, 400), kind="root")
    events = root.add_child(LayoutNode(BBox(0, 0, 300, 100), kind="cut"))
    for i, text in enumerate(
        [
            "Tuesday March concert tonight",
            "Friday April concert tonight",
            "Monday June concert evening",
            "Sunday July concert night",
        ]
    ):
        events.add_child(_line(text, 16 * i))
    other = root.add_child(LayoutNode(BBox(0, 200, 300, 100), kind="cut"))
    other.add_child(_line("4471 0925 3318", 200))
    other.add_child(_line("Smith Johnson Avenue", 240))
    return LayoutTree(root)


def test_merged_partner_outside_level_snapshot_matches_oracle(monkeypatch):
    scalar_calls = []

    def counting_cosine(a, b):
        scalar_calls.append(1)
        return cosine_similarity(a, b)

    oracle = _run(_oracle_semantic_merge, _cascade_tree(), SegmentConfig(), "cascade")
    monkeypatch.setattr(merging, "cosine_similarity", counting_cosine)
    kernel = _run(semantic_merge, _cascade_tree(), SegmentConfig(), "cascade")
    assert not ledger_diff(oracle[1], kernel[1])
    assert kernel[0] == oracle[0] == 3
    assert kernel[2] == oracle[2]
    # The merged partner's cosine came from the scalar function.
    assert scalar_calls

"""Semantic merging (§5.1.2, Eq. 1).

Recursive segmentation over-segments — especially on noisy
transcriptions — so VS2 merges sibling areas that carry similar
semantics.  The *semantic contribution* of a node ``n_i`` is

    SC(n_i) = Σ_j cos(n_i, n_j) − Σ_k cos(n_i, n_k)        (Eq. 1)

where ``n_j`` ranges over siblings and ``n_k`` over same-level
non-siblings; node vectors are mean word embeddings of their text
(pre-trained Word2Vec in the paper, our default embedding here).  When
``SC(n_i) > θ_h`` the node merges with its most similar sibling,
provided the two are not visually separated.  The threshold schedule is
the paper's footnote:

    θ_h = θ_min + (θ_max − θ_min) / 10 · h,     h = layout-tree height

so deeper (finer) trees demand more evidence before merging.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.config import SegmentConfig
from repro.doc.layout_tree import LayoutNode, LayoutTree
from repro.embeddings import (
    WordEmbedding,
    cosine_matrix,
    cosine_similarity,
    default_embedding,
)
from repro.geometry import enclosing_bbox
from repro.resilience.faults import fault_site
from repro.trace import Tracer


def merge_threshold(height: int, config: SegmentConfig) -> float:
    """θ_h for a tree of the given height."""
    return config.theta_min + (config.theta_max - config.theta_min) / 10.0 * height


def node_vector(node: LayoutNode, embedding: WordEmbedding, cache: Dict[int, np.ndarray]) -> np.ndarray:
    vec = cache.get(node.node_id)
    if vec is None:
        vec = embedding.embed_text(node.text())
        cache[node.node_id] = vec
    return vec


def semantic_contribution(
    node: LayoutNode, level_nodes: List[LayoutNode], sims: np.ndarray
) -> float:
    """Eq. 1 for ``node`` against its level of the tree.

    ``sims`` is ``node``'s row of the level's cosine matrix:
    ``sims[k] = cos(node, level_nodes[k])``.

    The printed equation sums cosine similarities; raw sums scale with
    the sibling count, so a literal reading lets SC cross any fixed
    threshold merely by having many siblings.  We therefore read the
    two Σ terms as *averages* over their index sets — the
    scale-invariant interpretation under which the θ ∈ [0, 1] schedule
    of the footnote is meaningful.
    """
    siblings = set(id(s) for s in node.siblings())
    sibling_idx: List[int] = []
    other_idx: List[int] = []
    for k, other in enumerate(level_nodes):
        if other is node:
            continue
        if id(other) in siblings:
            sibling_idx.append(k)
        else:
            other_idx.append(k)
    # The sibling term uses the *best* sibling (the merge partner the
    # next step would pick); the non-sibling term stays an average.  A
    # literal mean over heterogeneous siblings would let unrelated
    # siblings veto a clearly co-fragmented pair.
    best_sib = float(np.max(sims[sibling_idx])) if sibling_idx else 0.0
    mean_other = float(np.mean(sims[other_idx])) if other_idx else 0.0
    return best_sib - mean_other


def _not_visually_separated(a: LayoutNode, b: LayoutNode, config: SegmentConfig) -> bool:
    gap = a.bbox.gap_distance(b.bbox)
    font = max(a.mean_font_size(), b.mean_font_size(), 1.0)
    return gap <= config.merge_gap_ratio * font


def _merge_nodes(parent: LayoutNode, a: LayoutNode, b: LayoutNode) -> LayoutNode:
    """Replace siblings ``a`` and ``b`` under ``parent`` by their union."""
    merged = LayoutNode(
        bbox=a.bbox.union(b.bbox),
        atoms=a.atoms + b.atoms,
        kind="merged",
    )
    # The merged node is a leaf-level union: children of the originals
    # collapse into it (the paper replaces both nodes by the merged one).
    new_children = []
    for child in parent.children:
        if child is a:
            new_children.append(merged)
        elif child is b:
            continue
        else:
            new_children.append(child)
    parent.replace_children(new_children)
    if merged.atoms:
        merged.bbox = enclosing_bbox([x.bbox for x in merged.atoms])
    return merged


def _node_label(node: LayoutNode) -> str:
    """Stable, cross-process identification of a node for trace events.

    ``node_id`` comes from a process-global counter, so it differs
    between a serial run and a worker process; a text snippet plus the
    rounded bbox identifies the node deterministically instead.
    """
    text = node.text().strip()
    snippet = text[:24] + ("…" if len(text) > 24 else "")
    b = node.bbox
    return f"{snippet!r}@({b.x:.0f},{b.y:.0f},{b.w:.0f},{b.h:.0f})"


def semantic_merge(
    tree: LayoutTree,
    config: SegmentConfig,
    embedding: Optional[WordEmbedding] = None,
    tracer: Optional[Tracer] = None,
) -> int:
    """Run the merging fixpoint over ``tree``; returns merges performed.

    Each pass walks levels deepest-first; a pass that performs no merge
    terminates the loop.  With tracing enabled, every Eq. 1 comparison
    becomes a ``merge.decision`` event and every fixpoint pass a
    ``merge.pass`` event.
    """
    fault_site("segment.merge")
    if embedding is None:
        embedding = default_embedding()
    tracing = tracer is not None and tracer.enabled
    cache: Dict[int, np.ndarray] = {}
    total = 0
    for _pass in range(32):  # fixpoint bound (defensive)
        height = tree.height
        theta = merge_threshold(height, config)
        merged_this_pass = 0
        for level in range(height, 0, -1):
            level_nodes = tree.nodes_at_level(level)
            textual = [n for n in level_nodes if n.text_atoms]
            # Eq. 1 reads this level snapshot for the whole walk, so it
            # keeps nodes an earlier merge on the level consumed (they
            # count as non-siblings).  That is the reference behaviour;
            # dropping them would change which nodes merge.  Its cosine
            # matrix is built at the first Eq. 1 evaluation on the level.
            position = {id(n): k for k, n in enumerate(textual)}
            level_sims: Optional[np.ndarray] = None
            for node in list(textual):
                if node.parent is None or not any(c is node for c in node.parent.children):
                    continue  # already consumed by a merge
                # Only leaves (logical-block candidates) merge — merging
                # internal nodes would discard their sub-structure.  The
                # guards against wrong merges are Eq. 1's contribution
                # threshold, the pairwise similarity gate and the
                # visual-separation test below.
                if not node.is_leaf:
                    continue
                siblings = [s for s in node.siblings() if s.is_leaf and s.text_atoms]
                if not siblings:
                    continue
                if level_sims is None:
                    level_sims = cosine_matrix(
                        [node_vector(n, embedding, cache) for n in textual]
                    )
                sims = level_sims[position[id(node)]]
                sc = semantic_contribution(node, textual, sims)
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
                # A node merged earlier on this level is not in the
                # snapshot; its cosine comes from the scalar function.
                ranked = sorted(
                    [
                        (float(sims[position[id(s)]]), s)
                        if id(s) in position
                        else (cosine_similarity(v, node_vector(s, embedding, cache)), s)
                        for s in siblings
                    ],
                    key=lambda pair: -pair[0],
                )
                chosen = None
                best_sim = None
                for sim, partner in ranked:
                    if best_sim is None:
                        best_sim = sim
                    # The θ schedule gates the *contribution*; the pair
                    # itself must genuinely share semantics, or tightly
                    # adjacent but semantically distinct areas (title vs
                    # schedule line) would re-merge.
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
        # Merging two of a node's children can leave a unary chain
        # whose surviving leaf would be invisible to its aunt nodes on
        # the next pass; collapse chains before re-walking.
        tree.collapse_unary()
        if merged_this_pass == 0:
            break
    return total

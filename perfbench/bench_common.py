"""Helpers shared by the benchmark harness and its child processes.

Nothing here imports the ``repro`` package at module level: the harness
and the batch job import it only where the measured process would, so
import cost lands in the process and phase it belongs to.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Tuple

#: The checkout root (this file lives in ``<root>/perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = ROOT / "perfbench"
#: Scratch state the benchmark keeps inside its checkout (gitignored):
#: run records, cross-run digests, traces, child-process outputs.
WORK_DIR = ROOT / ".perfbench"

#: Tail percentiles tried, highest first, in per-mille.
TAIL_LADDER = (999, 990, 950, 900, 750, 500)
#: A tail percentile is reported only with at least this many samples
#: beyond it; otherwise the next lower rung is used.
MIN_BEYOND = 10


# ----------------------------------------------------------------------
# Quantiles
# ----------------------------------------------------------------------
def nearest_rank(sorted_values: Sequence[float], q_pm: int) -> Tuple[float, int]:
    """The exact nearest-rank ``q_pm``/1000 quantile of pre-sorted
    samples, and how many samples lie beyond it (ranked above it).

    Integer arithmetic on the rank keeps 95% of 200 samples at rank 190
    instead of trusting ``ceil(0.95 * 200)`` to float rounding."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("quantile of no samples")
    rank = max(1, (q_pm * n + 999) // 1000)
    return float(sorted_values[rank - 1]), n - rank


def summarize(values: Iterable[float], tail_pm: int = 950) -> Dict[str, Any]:
    """Median plus the highest ladder percentile at or below ``tail_pm``
    that has at least :data:`MIN_BEYOND` samples beyond it.

    Returns ``{"n", "p50", "p50_beyond", "tail", "tail_pm",
    "tail_beyond"}``; ``tail_pm`` says which percentile ``tail`` really
    is (it falls back to the median for tiny samples)."""
    ordered = sorted(values)
    p50, p50_beyond = nearest_rank(ordered, 500)
    tail_q, tail, tail_beyond = 500, p50, p50_beyond
    for q_pm in TAIL_LADDER:
        if q_pm > tail_pm:
            continue
        value, beyond = nearest_rank(ordered, q_pm)
        if beyond >= MIN_BEYOND:
            tail_q, tail, tail_beyond = q_pm, value, beyond
            break
    return {
        "n": len(ordered),
        "p50": p50,
        "p50_beyond": p50_beyond,
        "tail": tail,
        "tail_pm": tail_q,
        "tail_beyond": tail_beyond,
    }


def median(values: Sequence[float]) -> float:
    """The nearest-rank median (always an observed sample)."""
    return nearest_rank(sorted(values), 500)[0]


# ----------------------------------------------------------------------
# Extraction rows and the digest
# ----------------------------------------------------------------------
def box_list(box) -> List[float]:
    return [float(box.x), float(box.y), float(box.w), float(box.h)]


def extraction_rows(key: str, doc_id: str, extractions) -> List[list]:
    """Full-precision rows for one document's extractions:
    ``[key, doc_id, entity_type, text, bbox, span_bbox, score]`` with
    boxes in the original frame.  ``key`` is the corpus name (batch) or
    the request index (serve)."""
    return [
        [key, doc_id, e.entity_type, e.text, box_list(e.bbox), box_list(e.span_bbox), float(e.score)]
        for e in extractions
    ]


def digest_row(row: Sequence[Any]) -> Tuple[str, ...]:
    """The part of a row the digest covers: key, doc id, entity type,
    text and, when present, the bbox rounded to 0.01."""
    key, doc_id, entity_type, text = (str(v) for v in row[:4])
    if len(row) > 4:
        bbox = ",".join(f"{v:.2f}" for v in row[4])
        return key, doc_id, entity_type, text, bbox
    return key, doc_id, entity_type, text


def extraction_digest(rows: Iterable[Sequence[Any]]) -> str:
    """sha256 over the sorted digest rows, one JSON array per line."""
    h = hashlib.sha256()
    for row in sorted(digest_row(r) for r in rows):
        h.update(json.dumps(row, ensure_ascii=False).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


# ----------------------------------------------------------------------
# Environment of a child process
# ----------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    """The environment child processes run with: the checkout's ``src``
    first on ``PYTHONPATH`` and unbuffered output."""
    env = dict(os.environ)
    parts = [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def use_src() -> None:
    """Put the checkout's ``src`` on ``sys.path`` of this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def write_json(path: Path, data: Any) -> None:
    """Write ``data`` atomically (temp file + rename)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def read_json(path: Path) -> Any:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_benchmark_spec() -> Dict[str, Any]:
    return read_json(ROOT / "BENCHMARK.json")

"""Decision ledgers — canonical form and diffing.

Algorithm 1 emits one ``cut.decision`` event per candidate cut set (in
topological order) carrying the orientation, position, normalised
width, physical floor and the verdict with its reason.  Serialised
canonically, the sequence of those events is a complete record of every
separator decision of a run — the **ledger**.

The ledger is the equivalence oracle of the ``segment.cuts`` fast path:
the prefix-sum projection profiles (:mod:`repro.geometry.profiles`)
must make *byte-identical* decisions to the naive grid rescan, so
``make bench-smoke`` runs the same corpus twice — fast and
``--naive-cuts`` — and requires :func:`ledger_diff` to come back empty
(see ``docs/PERFORMANCE.md`` for the protocol).

The same functions serialise any other decision family: pass
``event="merge."`` for the semantic-merge ledger (``merge.decision``
and ``merge.pass`` events, in emission order).

Like the rest of :mod:`repro.trace`, this module imports nothing from
the rest of :mod:`repro`, so any layer may use it.
"""

from __future__ import annotations

import difflib
import json
from typing import Dict, List, Sequence, Tuple

from repro.trace.explain import collect_events
from repro.trace.tracer import Span

#: Event name the ledger records by default.
CUT_DECISION = "cut.decision"


def cut_ledger(
    roots: Sequence[Span], event: str = CUT_DECISION
) -> List[Tuple[str, Dict[str, object]]]:
    """All ``event`` events of a span forest (default ``cut.decision``),
    depth-first, as ``(span_path, attrs)`` pairs.  A trailing ``.``
    selects a family such as ``"merge."``; its rows then also carry the
    event's name under ``"event"``.

    Depth-first order is the emission order (the recursion visits
    areas deterministically), so two runs over the same corpus produce
    comparable ledgers row for row.
    """
    family = event.endswith(".")
    return [
        (path, {**ev.attrs, "event": ev.name} if family else dict(ev.attrs))
        for path, ev in collect_events(roots, event)
    ]


def ledger_lines(roots: Sequence[Span], event: str = CUT_DECISION) -> List[str]:
    """The ledger serialised canonically — one compact JSON object per
    decision, keys sorted, no timestamps.  Byte-comparable across runs:
    equality of these lines is the fast-vs-naive acceptance gate.
    ``event`` selects the events as in :func:`cut_ledger`.
    """
    return [
        json.dumps({"span": path, **attrs}, sort_keys=True)
        for path, attrs in cut_ledger(roots, event)
    ]


def ledger_diff(
    expected: Sequence[str],
    actual: Sequence[str],
    expected_label: str = "expected",
    actual_label: str = "actual",
    context: int = 2,
) -> List[str]:
    """Unified diff between two canonical ledgers (:func:`ledger_lines`).

    Empty ⇔ the runs made byte-identical decisions.  Non-empty
    output is printable as-is and names the first diverging decision —
    the debugging entry point when an optimisation breaks equivalence.
    """
    return list(
        difflib.unified_diff(
            list(expected),
            list(actual),
            fromfile=expected_label,
            tofile=actual_label,
            n=context,
            lineterm="",
        )
    )

"""The benchmark's own tracer: spans recorded around calls into each
layer's public functions, from outside the program.

:class:`SpanRecorder` keeps spans in memory (name, start, end, parent,
attributes); :func:`install_pipeline_layers` rebinds the public layer
functions and methods to timing wrappers; :func:`layer_report` turns a
span list into per-layer call counts and self times.  The program's own
tracer and metrics are never consulted.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import pickle
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer span names around public functions: (module, attribute, span).
LAYER_FUNCTIONS = (
    ("repro.ocr.cache", "transcribe_and_clean", "ocr"),
    ("repro.core.merging", "semantic_merge", "merge"),
    ("repro.core.interest_points", "select_interest_points", "pareto"),
    ("repro.nlp.fuzzy", "edit_distance", "fuzzy"),
    ("repro.synth.corpus", "generate_corpus", "synth"),
)
#: Layer span names around public methods: (module, class, method, span).
LAYER_METHODS = (
    ("repro.core.pipeline", "VS2Pipeline", "run", "doc"),
    ("repro.core.segment", "VS2Segmenter", "segment", "segment"),
    ("repro.core.select", "VS2Selector", "extract", "select"),
    ("repro.perf.runner", "CorpusRunner", "run", "runner"),
)
#: Spans that are pipeline layers inside one document.
DOC_LAYERS = ("ocr", "segment", "merge", "select", "pareto", "fuzzy")


class SpanRecorder:
    """In-memory span store with one parent stack per thread.

    Times are ``time.monotonic()`` seconds, which on Linux is one
    system-wide clock, so spans from several processes line up.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        #: Called with no arguments whenever a thread's outermost span
        #: closes (the serve driver uses it to flush worker spans).
        self.on_root_close: Optional[Callable[[], None]] = None

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, **attrs: Any) -> Dict[str, Any]:
        stack = self._stack()
        span = {
            "id": f"{os.getpid()}:{next(self._ids)}",
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "start": time.monotonic(),
            "end": None,
            "attrs": attrs,
        }
        stack.append(span)
        return span

    def close(self, span: Dict[str, Any]) -> None:
        span["end"] = time.monotonic()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)
        if not stack and self.on_root_close is not None:
            self.on_root_close()

    def forget(self) -> None:
        """Drop every span and open stack (a forked child starts with
        copies of its parent's that are not its own)."""
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def drain(self) -> List[Dict[str, Any]]:
        with self._lock:
            out, self.spans = self.spans, []
        return out


# ----------------------------------------------------------------------
# Wrapping public functions
# ----------------------------------------------------------------------
OnResult = Callable[[Dict[str, Any], Tuple[Any, ...], Any], None]


def _timed(recorder: SpanRecorder, span_name: str, fn: Callable, on_result: Optional[OnResult]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(span_name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if on_result is not None:
            on_result(span, args, result)
        return result

    return wrapper


def wrap_function(
    recorder: SpanRecorder,
    module_name: str,
    attr: str,
    span_name: str,
    on_result: Optional[OnResult] = None,
) -> None:
    """Time every call of a module-level function: rebind it in its
    defining module and in every loaded module that imported it by
    name (``from m import f`` copies the binding)."""
    original = getattr(importlib.import_module(module_name), attr)
    wrapper = _timed(recorder, span_name, original, on_result)
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if namespace is not None and namespace.get(attr) is original:
            setattr(module, attr, wrapper)


def wrap_method(
    recorder: SpanRecorder,
    cls: type,
    attr: str,
    span_name: str,
    on_result: Optional[OnResult] = None,
) -> None:
    """Time every call of ``cls.attr`` (a plain method)."""
    setattr(cls, attr, _timed(recorder, span_name, cls.__dict__[attr], on_result))


def _note_doc(span, args, result) -> None:
    span["attrs"]["doc_id"] = result.doc_id
    span["attrs"]["extractions"] = len(result.extractions)


def _note_select(span, args, result) -> None:
    # extract(doc, blocks): the blocks are the segment layer's output.
    span["attrs"]["blocks"] = len(args[2])
    span["attrs"]["extractions"] = len(result)


def _note_runner(span, args, result) -> None:
    """Runner attributes, including the pickled size of every result
    (what crosses the process boundary); measured after the span
    closed, so it is not charged to the runner."""
    runner = args[0]
    span["attrs"].update(
        dataset=runner.dataset,
        workers=runner.workers,
        docs=len(result.results),
        failed=len(result.failures),
        result_bytes=sum(len(pickle.dumps(r)) for r in result.results if r is not None),
    )


_NOTES = {"doc": _note_doc, "select": _note_select, "runner": _note_runner}


def install_pipeline_layers(recorder: SpanRecorder) -> None:
    """Wrap every layer in :data:`LAYER_FUNCTIONS` and
    :data:`LAYER_METHODS` for the rest of the process."""
    for module_name, attr, span_name in LAYER_FUNCTIONS:
        wrap_function(recorder, module_name, attr, span_name, _NOTES.get(span_name))
    for module_name, cls_name, attr, span_name in LAYER_METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        wrap_method(recorder, cls, attr, span_name, _NOTES.get(span_name))


# ----------------------------------------------------------------------
# Reading a trace
# ----------------------------------------------------------------------
def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Span id → duration minus the part of it its child spans cover
    (children are clipped to the parent's interval)."""
    children: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"]) if s["parent"] else None
        if parent is not None:
            start, end = max(s["start"], parent["start"]), min(s["end"], parent["end"])
            if end > start:
                children[parent["id"]].append((start, end))
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(children.get(s["id"], []))
        for s in spans
    }


def layer_report(spans: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-layer counts and self times over the documents of a trace.

    ``busy_s`` of a layer is its self time, so the layers plus the
    documents' own self time (``unattributed_s``) add up to the summed
    document busy time (``doc_busy_s``); ``closure_error_s`` is what is
    left over and should be float noise."""
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def in_doc(span) -> bool:
        parent = by_id.get(span["parent"]) if span["parent"] else None
        while parent is not None:
            if parent["name"] == "doc":
                return True
            parent = by_id.get(parent["parent"]) if parent["parent"] else None
        return False

    calls: Dict[str, int] = defaultdict(int)
    busy: Dict[str, float] = defaultdict(float)
    docs = [s for s in spans if s["name"] == "doc"]
    for s in spans:
        if s["name"] in DOC_LAYERS and in_doc(s):
            calls[s["name"]] += 1
            busy[s["name"]] += own[s["id"]]
    doc_busy = sum(s["end"] - s["start"] for s in docs)
    unattributed = sum(own[s["id"]] for s in docs)
    return {
        "docs": len(docs),
        "calls": {name: calls.get(name, 0) for name in DOC_LAYERS},
        "busy_s": {name: busy.get(name, 0.0) for name in DOC_LAYERS},
        "blocks": sum(s["attrs"].get("blocks", 0) for s in spans if s["name"] == "select" and in_doc(s)),
        "extractions": sum(s["attrs"].get("extractions", 0) for s in spans if s["name"] == "select" and in_doc(s)),
        "doc_busy_s": doc_busy,
        "unattributed_s": unattributed,
        "closure_error_s": doc_busy - unattributed - sum(busy.values()),
    }


def write_spans(path, spans: List[Dict[str, Any]], meta: Dict[str, Any]) -> None:
    """Write a trace file: ``{"meta": ..., "spans": [...]}``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "spans": spans}, fh)
        fh.write("\n")

"""A traced extraction server for the serve workload's traced run.

    python perfbench/serve_driver.py --seed 7 --workers 2 --corpus-n 32 \\
        --out .perfbench/traces/serve.json --spans-dir .perfbench/tmp/spans

Builds the same service ``repro serve --dataset D2`` builds, after
wrapping the public ``ExtractionService`` methods (``boot``, ``admit``,
``take_batch``, ``run_batch``, ``resolve``) and the pipeline layers
with the benchmark's timers, then calls ``run_server``.  Pool workers
fork from this process with the wrappers in place; each appends its
document spans to ``<spans-dir>/worker-<pid>.jsonl`` as a document
finishes.  After the drain, every span plus a per-request table
(admit, first dequeue, resolve, status) goes to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

from bench_trace import SpanRecorder, install_pipeline_layers, wrap_method, write_spans


def _wrap_service(recorder: SpanRecorder, requests: dict) -> None:
    """Time the service's public methods and note, per request id, when
    it was admitted, first dequeued and resolved, and how."""
    from repro.serve.service import ExtractionService

    def entry(rid: str) -> dict:
        return requests.setdefault(rid, {"admit": None, "dequeue": None, "resolve": None, "status": None, "attempts": 0})

    def on_admit(span, args, result):
        ticket, response = result
        rid = ticket.request_id if ticket is not None else response.request_id
        span["attrs"]["request_id"] = rid
        entry(rid)["admit"] = span["start"]
        if response is not None:
            entry(rid).update(resolve=span["end"], status=response.status)

    def on_take(span, args, result):
        batch, expired = result
        span["attrs"].update(docs=len(batch), expired=len(expired))
        for ticket in batch:
            rec = entry(ticket.request_id)
            rec["attempts"] += 1
            if rec["dequeue"] is None:
                rec["dequeue"] = span["start"]
        for response in expired:
            entry(response.request_id).update(resolve=span["end"], status=response.status)

    def on_run(span, args, result):
        span["attrs"]["docs"] = len(args[1])

    def on_resolve(span, args, result):
        batch = args[1]
        span["attrs"].update(docs=len(batch), responses=len(result), requeued=len(batch) - len(result))
        for response in result:
            entry(response.request_id).update(resolve=span["end"], status=response.status)

    hooks = {"boot": None, "admit": on_admit, "take_batch": on_take, "run_batch": on_run, "resolve": on_resolve}
    for name, hook in hooks.items():
        wrap_method(recorder, ExtractionService, name, f"serve.{name}", hook)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dataset", default="D2")
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--corpus-n", type=int, default=32)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans-dir", required=True)
    args = ap.parse_args()

    from repro.serve import ExtractionService, ServeConfig, run_server

    t_imported = time.monotonic()
    spans_dir = Path(args.spans_dir)
    spans_dir.mkdir(parents=True, exist_ok=True)
    recorder = SpanRecorder()
    driver_pid = os.getpid()

    def flush_worker_spans() -> None:
        if os.getpid() == driver_pid:
            return
        with open(spans_dir / f"worker-{os.getpid()}.jsonl", "a", encoding="utf-8") as fh:
            for span in recorder.drain():
                fh.write(json.dumps(span) + "\n")

    recorder.on_root_close = flush_worker_spans
    os.register_at_fork(after_in_child=recorder.forget)
    install_pipeline_layers(recorder)
    requests: dict = {}
    _wrap_service(recorder, requests)

    service = ExtractionService(ServeConfig(
        dataset=args.dataset, workers=args.workers,
        corpus_n=args.corpus_n, corpus_seed=args.seed,
    ))
    code = run_server(service, host="127.0.0.1", port=0)

    spans = recorder.drain()
    for path in sorted(spans_dir.glob("worker-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    write_spans(args.out, spans, {"t_imported": t_imported, "requests": requests, "workers": args.workers})
    return code


if __name__ == "__main__":
    raise SystemExit(main())

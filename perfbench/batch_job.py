"""One batch job in a fresh process: what a batch user runs.

    python perfbench/batch_job.py --corpora D2:200,D3:200 --seed 7 \\
        --workers 2 --out .perfbench/tmp/job.json [--trace SPANS.json]

Imports the runner, synthesises every corpus, then runs each corpus
through ``CorpusRunner(dataset, workers=N).run``.  The timestamps
(``time.monotonic``, one system-wide clock on Linux) let the harness
split the job into set-up (spawn → first document handed to the
runner) and corpus runs.  CPU and max-RSS of the process tree are read
right after the last result, before anything the benchmark adds
(serialising rows, scoring).

With ``--trace`` the public layer functions are wrapped with timers
before the corpora are synthesised and every span is written to the
given file; the job is otherwise the same.
"""

from __future__ import annotations

import argparse
import resource
import time
from pathlib import Path

from bench_common import extraction_rows, write_json


def _tree_usage():
    """(user+sys CPU seconds, max RSS kB) of this process plus every
    child it has reaped (the runner joins its pool before returning)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--corpora", required=True, help="comma list of DATASET:N")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", default=None, help="write benchmark spans here")
    args = ap.parse_args()

    import repro.synth
    from repro.perf.runner import CorpusRunner

    t_imported = time.monotonic()
    recorder = None
    if args.trace:
        from bench_trace import SpanRecorder, install_pipeline_layers

        recorder = SpanRecorder()
        install_pipeline_layers(recorder)
    plan = [(name, int(n)) for name, n in (item.split(":") for item in args.corpora.split(","))]
    # Looked up at call time so a traced job sees the wrapped function.
    corpora = [(name, list(repro.synth.generate_corpus(name, n, args.seed))) for name, n in plan]
    t_handoff = time.monotonic()
    workload = recorder.open("workload", corpora=args.corpora, seed=args.seed) if recorder else None
    runs = []
    for name, docs in corpora:
        start = time.monotonic()
        result = CorpusRunner(name, workers=args.workers).run(docs)
        runs.append((name, docs, result, start, time.monotonic()))
    if recorder is not None:
        recorder.close(workload)
    cpu_s, maxrss_kb = _tree_usage()

    out = {
        "t_imported": t_imported,
        "t_handoff": t_handoff,
        "t_last_result": runs[-1][4],
        "cpu_s": cpu_s,
        "maxrss_kb": maxrss_kb,
        "runs": [],
        "rows": [],
    }
    for name, docs, result, start, end in runs:
        out["runs"].append({
            "dataset": name,
            "docs": len(docs),
            "failed": len(result.failures),
            "failures": [str(f) for f in result.failures],
            "degrade_reason": result.degrade_reason,
            "start": start,
            "end": end,
        })
        for doc, res in zip(docs, result.results):
            if res is not None:
                out["rows"].extend(extraction_rows(name, doc.doc_id, res.extractions))
    if recorder is not None:
        from bench_trace import write_spans

        write_spans(args.trace, recorder.drain(), {"corpora": args.corpora, "seed": args.seed})
    write_json(Path(args.out), out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

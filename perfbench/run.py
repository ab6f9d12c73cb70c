#!/usr/bin/env python3
"""The VS2 end-to-end benchmark.

    python3 perfbench/run.py --workload d1-batch --seed 1 --seconds 25 --trace 0

Workloads (``perfbench/BENCHMARK.md`` says why each exists):

* ``d1-batch``   — fresh processes each run ``CorpusRunner("D1",
  workers=2)`` over 48 synthetic tax forms;
* ``d2d3-batch`` — fresh processes each run 200 posters (D2) and then
  200 flyers (D3) through ``CorpusRunner(workers=2)``;
* ``d2-serve``   — ``repro serve --dataset D2 --workers 2`` under a
  seeded open-loop Poisson schedule of ``POST /extract``.

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` makes the
separate traced run that yields the per-layer metrics.  Metric names
and units come from ``BENCHMARK.json``.  Every run checks its output:
an extraction digest compared across repetitions, against a serial
run, against earlier runs on the same inputs and, for seed 0, against
the pinned digest; serve runs also close the request accounting.  The
last stdout line is the JSON result; a full record (run configuration,
sample counts, checks) goes to ``--out`` or ``.perfbench/records/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_common import (  # noqa: E402
    BENCH_DIR, ROOT, SRC, WORK_DIR, child_env, digest_row, extraction_digest,
    extraction_rows, load_benchmark_spec, median, read_json, summarize, use_src, write_json,
)

#: Workload definitions.  ``smoke`` shrinks a workload for the
#: benchmark's own tests; those runs are tagged and never pinned.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "d1-batch": {"kind": "batch", "corpora": [("D1", 48)], "smoke": [("D1", 3)]},
    "d2d3-batch": {"kind": "batch", "corpora": [("D2", 200), ("D3", 200)], "smoke": [("D2", 6), ("D3", 6)]},
    "d2-serve": {
        "kind": "serve", "dataset": "D2", "corpus_n": 32, "rate": 4.0, "min_requests": 200,
        "smoke": {"corpus_n": 6, "rate": 12.0, "min_requests": 24},
    },
}
#: Pool width of every workload: the reference machine has 2 cores.
WORKERS = 2
#: Load-generator threads, each with at most one open connection.
CONNECTIONS = 2
#: Fresh batch jobs per untraced run, at least (more while time is left).
MIN_REPS = 3
#: Server boots per untraced serve run; ``setup_s`` is their median.
SERVE_BOOTS = 3
#: Latency charged to a request that did not get a good 200: the
#: server's default deadline, so it misses any latency limit.
MISSED_LATENCY_S = 30.0
#: Documents per corpus re-run serially in the harness to cross-check
#: the parallel output of every untraced batch run.
SPOT_CHECK_DOCS = 3
#: Wall-clock budget of one invocation, which must end within 180 s.
BUDGET_S = 170.0
DEFAULT_SEED = 0
PINNED = BENCH_DIR / "pinned_digests.json"
DIGEST_CACHE = WORK_DIR / "digests.json"


class BenchError(RuntimeError):
    """A run that cannot produce a result (a child failed or hung)."""


class Budget:
    def __init__(self, seconds: float):
        self.deadline = time.monotonic() + seconds

    def left(self) -> float:
        return self.deadline - time.monotonic()


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def _spawn(cmd: List[str], log: Path, stdout=None) -> subprocess.Popen:
    """Start a child in its own session (so its pool workers can be
    killed as a group), logging stderr (and stdout unless piped)."""
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "ab") as fh:
        return subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=stdout if stdout is not None else fh, stderr=fh,
            start_new_session=True,
        )


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _reap(proc: subprocess.Popen, timeout: float) -> Tuple[int, Any]:
    """Wait for ``proc`` with ``wait4``; returns (exit code, rusage of
    the child plus every descendant it reaped).  Kills the whole group
    and raises on timeout."""
    deadline = time.monotonic() + max(timeout, 1.0)
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            _kill_group(proc)  # nothing should be left; make sure
            return proc.returncode, usage
        if time.monotonic() > deadline:
            _kill_group(proc)
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise BenchError(f"child {proc.args[:3]} did not finish within {timeout:.0f}s")
        time.sleep(0.05)


def _tree_cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
def _batch_job(corpora, seed: int, workers: int, tag: str, budget: Budget, trace: Optional[Path] = None) -> Dict[str, Any]:
    """Run ``batch_job.py`` once in a fresh process; returns its report
    with the harness-side spawn time added."""
    out = WORK_DIR / "tmp" / f"{tag}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "batch_job.py"),
           "--corpora", ",".join(f"{d}:{n}" for d, n in corpora),
           "--seed", str(seed), "--workers", str(workers), "--out", str(out)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    t_spawn = time.monotonic()
    proc = _spawn(cmd, WORK_DIR / "logs" / "batch_job.log")
    try:
        code, _ = _reap(proc, budget.left() - 10)
    finally:
        _kill_group(proc)
    if code != 0 or not out.is_file():
        raise BenchError(f"batch job exited {code}; see {WORK_DIR / 'logs' / 'batch_job.log'}")
    job = read_json(out)
    job["t_spawn"] = t_spawn
    job["digest"] = extraction_digest(job["rows"])
    return job


def _job_figures(job: Dict[str, Any]) -> Dict[str, Any]:
    docs = sum(r["docs"] for r in job["runs"])
    failed = sum(r["failed"] for r in job["runs"])
    run_wall = sum(r["end"] - r["start"] for r in job["runs"])
    return {
        "setup_s": job["t_handoff"] - job["t_spawn"],
        "job_wall_s": job["t_last_result"] - job["t_spawn"],
        "run_wall_s": run_wall,
        "docs": docs,
        "failed": failed,
        "docs_per_s": (docs - failed) / run_wall,
        "cpu_ms_per_doc": 1000.0 * job["cpu_s"] / max(docs - failed, 1),
        "peak_rss_mb": job["maxrss_kb"] / 1024.0,
        "import_s": job["t_imported"] - job["t_spawn"],
        "degraded": [r["degrade_reason"] for r in job["runs"] if r["degrade_reason"]],
    }


def _score_batch(corpora, seed: int, rows: List[list]) -> Tuple[float, Dict[str, Any]]:
    """After the timed region: F1 against the synthetic ground truth
    (the Table 6/8 measure) and a serial re-run of the first documents
    of every corpus, which must reproduce the job's rows exactly."""
    use_src()
    from repro.core.select import Extraction
    from repro.eval.metrics import end_to_end_scores
    from repro.geometry.bbox import BBox
    from repro.perf.runner import CorpusRunner
    from repro.synth import generate_corpus

    by_doc: Dict[Tuple[str, str], List[list]] = {}
    for row in rows:
        by_doc.setdefault((row[0], row[1]), []).append(row)
    pairs, spot_mismatch = [], []
    for dataset, n in corpora:
        docs = list(generate_corpus(dataset, n, seed))
        for doc in docs:
            extractions = [Extraction(r[2], r[3], BBox(*r[4]), BBox(*r[5]), r[6])
                           for r in by_doc.get((dataset, doc.doc_id), [])]
            pairs.append((extractions, doc))
        spot = docs[:SPOT_CHECK_DOCS]
        serial = CorpusRunner(dataset, workers=1).run(spot)
        for doc, res in zip(spot, serial.results):
            want = sorted(digest_row(r) for r in extraction_rows(dataset, doc.doc_id, res.extractions if res else []))
            got = sorted(digest_row(r) for r in by_doc.get((dataset, doc.doc_id), []))
            if want != got:
                spot_mismatch.append(doc.doc_id)
    overall, _ = end_to_end_scores(pairs)
    return overall.f1, {"spot_checked": SPOT_CHECK_DOCS * len(corpora), "spot_mismatch": spot_mismatch}


def batch_untraced(name: str, corpora, args, budget: Budget):
    started = time.monotonic()
    jobs: List[Dict[str, Any]] = []
    min_reps = 2 if args.smoke else MIN_REPS
    while True:
        job = _batch_job(corpora, args.seed, WORKERS, f"{name}-rep{len(jobs)}", budget)
        jobs.append(job)
        last = time.monotonic() - job["t_spawn"]
        enough = len(jobs) >= min_reps and time.monotonic() - started >= args.seconds
        if enough or budget.left() < 2 * last + 30:
            break
    figs = [_job_figures(j) for j in jobs]
    latencies = []
    for job in jobs:
        for run in job["runs"]:
            latencies += [1000.0 * (run["end"] - run["start"])] * (run["docs"] - run["failed"])
    lat = summarize(latencies)
    f1, spot = _score_batch(corpora, args.seed, jobs[0]["rows"])
    docs = sum(f["docs"] for f in figs)
    failed = sum(f["failed"] for f in figs)
    measured = {
        "setup_s": median([f["setup_s"] for f in figs]),
        "job_wall_s": median([f["job_wall_s"] for f in figs]),
        "docs_per_s": median([f["docs_per_s"] for f in figs]),
        "cpu_ms_per_doc": median([f["cpu_ms_per_doc"] for f in figs]),
        "peak_rss_mb": median([f["peak_rss_mb"] for f in figs]),
        "f1": f1,
        "latency_p50_ms": lat["p50"],
        "latency_p95_ms": lat["tail"],
        "ok_share": (docs - failed) / docs,
    }
    digests = sorted({j["digest"] for j in jobs})
    checks = {
        "reps_agree": len(digests) == 1,
        "serial_spot_check": not spot["spot_mismatch"],
        "no_failures": failed == 0,
        "ran_parallel": not any(f["degraded"] for f in figs),
    }
    detail = {"reps": figs, "latency": lat, "spot": spot, "digests": digests}
    return measured, jobs[0]["digest"], checks, detail, docs, failed


def batch_traced(name: str, corpora, args, budget: Budget):
    """A serial untraced job and a serial traced job, each in a fresh
    process over the same corpora; the traced one gives the layers."""
    trace_path = WORK_DIR / "traces" / f"{name}-seed{args.seed}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    plain = _batch_job(corpora, args.seed, 1, f"{name}-serial", budget)
    traced = _batch_job(corpora, args.seed, 1, f"{name}-traced", budget, trace=trace_path)
    spans = read_json(trace_path)["spans"]
    from bench_trace import layer_report

    layers = layer_report(spans)
    plain_wall = _job_figures(plain)["run_wall_s"]
    measured = _layer_metrics(layers, spans)
    measured.update({
        "setup.import_s": traced["t_imported"] - traced["t_spawn"],
        "trace.overhead_share": _job_figures(traced)["run_wall_s"] / plain_wall - 1.0,
    })
    docs = sum(s["attrs"]["docs"] for s in spans if s["name"] == "runner")
    checks = {
        "traced_equals_untraced": traced["digest"] == plain["digest"],
        "layers_close": abs(layers["closure_error_s"]) <= 1e-6 * max(layers["doc_busy_s"], 1.0),
        "no_failures": measured["runner.docs_failed"] == 0,
    }
    detail = {"layers": layers, "trace_file": str(trace_path.relative_to(ROOT)), "serial_untraced_wall_s": plain_wall}
    return measured, traced["digest"], checks, detail, docs, measured["runner.docs_failed"]


def _layer_metrics(layers: Dict[str, Any], spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics every traced run reports, from the layer report
    and the ``synth``/``runner`` spans.  ``runner.overhead_core_s`` is
    workers × run wall minus the summed document busy time.  Serve-only
    layers start at 0 (the batch workloads never enter them)."""
    calls, busy = layers["calls"], layers["busy_s"]
    runners = [s for s in spans if s["name"] == "runner"]
    docs_ok = sum(s["attrs"]["docs"] - s["attrs"]["failed"] for s in runners)
    out = {
        "setup.import_s": 0.0, "serve.boot_s": 0.0,
        "synth.corpus_s": sum(s["end"] - s["start"] for s in spans if s["name"] == "synth"),
        "runner.wall_s": sum(s["end"] - s["start"] for s in runners),
        "runner.overhead_core_s": sum(s["attrs"]["workers"] * (s["end"] - s["start"]) for s in runners)
        - layers["doc_busy_s"],
        "runner.result_bytes_per_doc": sum(s["attrs"]["result_bytes"] for s in runners) / max(docs_ok, 1),
        "runner.docs_failed": sum(s["attrs"]["failed"] for s in runners),
        "ocr.calls": calls["ocr"], "ocr.busy_s": busy["ocr"],
        "segment.calls": calls["segment"], "segment.busy_s": busy["segment"], "segment.blocks": layers["blocks"],
        "merge.calls": calls["merge"], "merge.busy_s": busy["merge"],
        "select.busy_s": busy["select"], "select.extractions": layers["extractions"],
        "pareto.busy_s": busy["pareto"],
        "fuzzy.calls": calls["fuzzy"], "fuzzy.busy_s": busy["fuzzy"],
        "trace.unattributed_s": layers["unattributed_s"],
    }
    for key in ("serve.queue_wait_p50_ms", "serve.queue_wait_p95_ms", "serve.batch_docs_mean",
                "serve.run_batch_p50_ms", "serve.shed", "serve.timeout", "serve.requeued",
                "http.overhead_p50_ms", "loadgen.lag_p95_ms"):
        out[key] = 0.0
    return out


# ----------------------------------------------------------------------
# Serve workload
# ----------------------------------------------------------------------
class Server:
    """One extraction server process: spawn, wait until ready, SIGTERM,
    reap.  ``setup_s`` is spawn → ``GET /ready`` answering 200."""

    def __init__(self, cmd: List[str], budget: Budget):
        self.cmd, self.budget = cmd, budget
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.t_spawn = self.setup_s = 0.0
        self._out = b""
        self.drained: Optional[Dict[str, Any]] = None
        self.usage = None

    def _read_line(self, marker: bytes, timeout: float) -> bytes:
        """The rest of the first stdout line containing ``marker``
        (bounded by ``timeout``; never blocks past it)."""
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        while marker not in self._out or b"\n" not in self._out.split(marker, 1)[1]:
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError(f"server did not print {marker!r} in time")
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise BenchError(f"server exited before printing {marker!r}")
                self._out += chunk
        return self._out.split(marker, 1)[1].split(b"\n", 1)[0]

    def start(self) -> "Server":
        from bench_load import http_get

        self.t_spawn = time.monotonic()
        self.proc = _spawn(self.cmd, WORK_DIR / "logs" / "server.log", stdout=subprocess.PIPE)
        address = self._read_line(b"listening on ", min(60.0, self.budget.left()))
        self.port = int(address.split(b" ", 1)[0].rsplit(b":", 1)[1])
        status = http_get("127.0.0.1", self.port, "/ready")
        self.setup_s = time.monotonic() - self.t_spawn
        if status != 200:
            raise BenchError(f"/ready answered {status}")
        return self

    def stop(self) -> None:
        """Graceful drain (SIGTERM to the server only, never its pool),
        then reap the whole tree and parse the drained accounting."""
        if self.proc is None or self.proc.returncode is not None:
            return
        try:
            self.proc.send_signal(signal.SIGTERM)
            drained = self._read_line(b"drained ", min(60.0, max(self.budget.left(), 5.0)))
            code, self.usage = _reap(self.proc, min(60.0, max(self.budget.left(), 5.0)))
        finally:
            _kill_group(self.proc)
            self.proc.stdout.close()
        if code != 0:
            raise BenchError(f"server exited {code}")
        self.drained = json.loads(drained)

    def kill(self) -> None:
        if self.proc is not None and self.proc.returncode is None:
            _kill_group(self.proc)
            _reap(self.proc, 10)


def _serve_cmd(wl, seed: int) -> List[str]:
    return [sys.executable, "-m", "repro", "serve", "--dataset", wl["dataset"],
            "--workers", str(WORKERS), "--corpus-n", str(wl["corpus_n"]),
            "--seed", str(seed), "--port", "0"]


def _serve_leg(cmd: List[str], plan, budget: Budget) -> Tuple[Server, List[Dict[str, Any]]]:
    """Boot a server, fire the whole schedule at it, drain it."""
    from bench_load import fire

    server = Server(cmd, budget)
    try:
        server.start()
        records = fire("127.0.0.1", server.port, plan, time.monotonic() + 0.1, connections=CONNECTIONS)
        server.stop()
    finally:
        server.kill()
    return server, records


def _reference(wl, seed: int):
    """Serial in-process extraction of the warm corpus (after timing)."""
    use_src()
    from repro.perf.runner import CorpusRunner
    from repro.synth import generate_corpus

    docs = list(generate_corpus(wl["dataset"], wl["corpus_n"], seed))
    result = CorpusRunner(wl["dataset"], workers=1).run(docs)
    return docs, result.results


def _judge_responses(records, docs, reference) -> Dict[str, Any]:
    """Check every response against the serial reference and close the
    accounting: scheduled = sent = 200 + 429 + 504 + other + errors."""
    counts = {"scheduled": len(records), "sent": 0, "ok": 0, "bad_payload": 0,
              "429": 0, "504": 0, "other_status": 0, "errors": 0}
    rows, good = [], []
    for rec in records:
        if rec["sent"] is not None:
            counts["sent"] += 1
        if rec["error"] is not None:
            counts["errors"] += 1
            continue
        status = rec["status"]
        if status in (429, 504):
            counts[str(status)] += 1
            continue
        if status != 200:
            counts["other_status"] += 1
            continue
        j = rec["index"] % len(docs)
        try:
            body = json.loads(rec["body"])
        except ValueError:
            body = {}
        want = reference[j].as_key_values() if reference[j] is not None else None
        if body.get("extractions") != want or body.get("doc_id") != docs[j].doc_id:
            counts["bad_payload"] += 1
            continue
        counts["ok"] += 1
        good.append(rec)
        rows += [[str(rec["i"]), docs[j].doc_id, k, v] for k, v in sorted(want.items())]
    counts["closed"] = (
        counts["sent"] == counts["scheduled"]
        and counts["sent"] == counts["ok"] + counts["bad_payload"] + counts["429"]
        + counts["504"] + counts["other_status"] + counts["errors"]
    )
    return {"counts": counts, "rows": rows, "good": good}


def _server_closed(server: Server, judged) -> bool:
    """The server's own drained accounting must agree with the client."""
    d = server.drained or {}
    c = judged["counts"]
    return (d.get("unaccounted") == 0 and d.get("pending") == 0
            and d.get("submitted") == c["sent"] - c["errors"] - c["other_status"]
            and d.get("ok") == c["ok"] + c["bad_payload"])


def _latency_ms(records, good) -> List[float]:
    ok = {id(r) for r in good}
    return [1000.0 * ((r["end"] - r["due"]) if id(r) in ok else MISSED_LATENCY_S) for r in records]


def _serve_plan(wl, args):
    from bench_load import schedule

    n = max(wl["min_requests"], math.ceil(wl["rate"] * args.seconds))
    return schedule(args.seed, n, wl["rate"], wl["corpus_n"])


def serve_untraced(name: str, wl: Dict[str, Any], args, budget: Budget):
    plan = _serve_plan(wl, args)
    setups = []
    for _ in range(SERVE_BOOTS - 1):
        server = Server(_serve_cmd(wl, args.seed), budget)
        try:
            setups.append(server.start().setup_s)
            server.stop()
        finally:
            server.kill()
    server, records = _serve_leg(_serve_cmd(wl, args.seed), plan, budget)
    setups.append(server.setup_s)

    docs, reference = _reference(wl, args.seed)
    judged = _judge_responses(records, docs, reference)
    good = judged["good"]
    lat = summarize(_latency_ms(records, good))
    lag = summarize([1000.0 * (r["sent"] - r["due"]) for r in records if r["sent"] is not None])
    last_end = max(r["end"] for r in records if r["end"] is not None)
    f1 = _serve_f1(good, docs, reference)
    measured = {
        "setup_s": median(setups),
        "job_wall_s": last_end - server.t_spawn,
        "docs_per_s": len(good) / (last_end - records[0]["due"]),
        "cpu_ms_per_doc": 1000.0 * _tree_cpu(server.usage) / max(len(good), 1),
        "peak_rss_mb": server.usage.ru_maxrss / 1024.0,
        "f1": f1,
        "latency_p50_ms": lat["p50"],
        "latency_p95_ms": lat["tail"],
        "ok_share": len(good) / len(records),
    }
    checks = {
        "payloads_match_serial": judged["counts"]["bad_payload"] == 0,
        "client_accounting_closed": judged["counts"]["closed"],
        "server_accounting_closed": _server_closed(server, judged),
    }
    detail = {"counts": judged["counts"], "latency": lat, "lag_ms": lag, "setups_s": setups,
              "server_drained": server.drained}
    digest = extraction_digest(judged["rows"])
    all_ok = len(good) == len(records)
    return measured, digest if all_ok else None, checks, detail, len(records), len(records) - len(good)


def _serve_f1(good, docs, reference) -> float:
    """F1 of the served answers.  The HTTP body carries entity type and
    text only, and each good answer equals the serial reference for its
    document, so the reference extractions (with their boxes) are what
    is scored, once per good request."""
    from repro.eval.metrics import end_to_end_scores

    pairs = []
    for rec in good:
        j = rec["index"] % len(docs)
        pairs.append((reference[j].extractions, docs[j]))
    return end_to_end_scores(pairs)[0].f1 if pairs else 0.0


def serve_traced(name: str, wl: Dict[str, Any], args, budget: Budget):
    """An untraced leg (``repro serve``) and a traced leg (the
    benchmark's driver around the same service) on the same schedule."""
    from bench_load import request_id
    from bench_trace import layer_report

    plan = _serve_plan(wl, args)
    trace_path = WORK_DIR / "traces" / f"{name}-seed{args.seed}.json"
    spans_dir = WORK_DIR / "tmp" / f"{name}-spans"
    if spans_dir.is_dir():
        for stale in spans_dir.glob("worker-*.jsonl"):
            stale.unlink()
    plain_server, plain_records = _serve_leg(_serve_cmd(wl, args.seed), plan, budget)
    driver = [sys.executable, str(BENCH_DIR / "serve_driver.py"), "--dataset", wl["dataset"],
              "--workers", str(WORKERS), "--corpus-n", str(wl["corpus_n"]), "--seed", str(args.seed),
              "--out", str(trace_path), "--spans-dir", str(spans_dir)]
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    server, records = _serve_leg(driver, plan, budget)

    docs, reference = _reference(wl, args.seed)
    plain = _judge_responses(plain_records, docs, reference)
    judged = _judge_responses(records, docs, reference)
    trace = read_json(trace_path)
    spans, meta = trace["spans"], trace["meta"]
    layers = layer_report(spans)
    requests = meta["requests"]

    def dur(name_):
        return [s["end"] - s["start"] for s in spans if s["name"] == name_]

    waits = [1000.0 * (r["dequeue"] - r["admit"]) for r in requests.values() if r["dequeue"] is not None]
    overhead = []
    for rec in judged["good"]:
        r = requests.get(request_id(rec["i"]))
        if r and r["resolve"] is not None:
            overhead.append(1000.0 * ((rec["end"] - rec["sent"]) - (r["resolve"] - r["admit"])))
    run_batches = [s for s in spans if s["name"] == "serve.run_batch"]
    statuses = [r["status"] for r in requests.values()]
    plain_lat = summarize(_latency_ms(plain_records, plain["good"]))
    traced_lat = summarize(_latency_ms(records, judged["good"]))
    qw = summarize(waits) if waits else {"p50": 0.0, "tail": 0.0}
    measured = _layer_metrics(layers, spans)
    measured.update({
        "setup.import_s": meta["t_imported"] - server.t_spawn,
        "serve.boot_s": sum(dur("serve.boot")),
        "serve.queue_wait_p50_ms": qw["p50"],
        "serve.queue_wait_p95_ms": qw["tail"],
        "serve.batch_docs_mean": sum(s["attrs"]["docs"] for s in run_batches) / max(len(run_batches), 1),
        "serve.run_batch_p50_ms": 1000.0 * median(dur("serve.run_batch")) if run_batches else 0.0,
        "serve.shed": statuses.count(429),
        "serve.timeout": statuses.count(504),
        "serve.requeued": sum(s["attrs"].get("requeued", 0) for s in spans if s["name"] == "serve.resolve"),
        "http.overhead_p50_ms": median(overhead) if overhead else 0.0,
        "loadgen.lag_p95_ms": summarize([1000.0 * (r["sent"] - r["due"]) for r in plain_records if r["sent"] is not None])["tail"],
        "trace.overhead_share": traced_lat["p50"] / plain_lat["p50"] - 1.0,
    })
    checks = {
        "payloads_match_serial": judged["counts"]["bad_payload"] == 0 and plain["counts"]["bad_payload"] == 0,
        "client_accounting_closed": judged["counts"]["closed"] and plain["counts"]["closed"],
        "server_accounting_closed": _server_closed(server, judged) and _server_closed(plain_server, plain),
        "traced_equals_untraced": extraction_digest(judged["rows"]) == extraction_digest(plain["rows"]),
        "layers_close": abs(layers["closure_error_s"]) <= 1e-6 * max(layers["doc_busy_s"], 1.0),
        "every_request_traced": len(requests) == judged["counts"]["sent"],
    }
    detail = {"layers": layers, "counts": judged["counts"], "untraced_counts": plain["counts"],
              "trace_file": str(trace_path.relative_to(ROOT)), "latency_traced": traced_lat,
              "latency_untraced": plain_lat, "queue_wait_ms": qw}
    all_ok = judged["counts"]["ok"] == len(records)
    digest = extraction_digest(judged["rows"]) if all_ok else None
    return measured, digest, checks, detail, len(records), len(records) - judged["counts"]["ok"]


# ----------------------------------------------------------------------
# Configuration, digests, output
# ----------------------------------------------------------------------
def run_config(name: str, wl: Dict[str, Any], corpora, args) -> Dict[str, Any]:
    """The tags a record is keyed by; records compare only when equal."""
    use_src()
    from repro.analysis.contracts import contracts_mode
    from repro.core.config import VS2Config

    datasets = [d for d, _ in corpora] if corpora else [wl["dataset"]]
    config = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "workers": WORKERS if not args.trace or wl["kind"] == "serve" else 1,
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "contracts": contracts_mode(),
        "fast_cuts": all(VS2Config.for_dataset(d).segment.fast_cuts for d in datasets),
    }
    if wl["kind"] == "batch":
        config["docs"] = {d: n for d, n in corpora}
    else:
        config.update(corpus_n=wl["corpus_n"], rate=wl["rate"], requests=len(_serve_plan(wl, args)))
    return config


def digest_key(config: Dict[str, Any]) -> str:
    """Inputs that determine the extraction output (not how it ran)."""
    parts = [config["workload"], f"seed={config['seed']}", f"smoke={config['smoke']}"]
    for key in ("docs", "corpus_n", "requests"):
        if key in config:
            parts.append(f"{key}={json.dumps(config[key], sort_keys=True)}")
    return "|".join(parts)


def check_digest(config: Dict[str, Any], digest: Optional[str]) -> Dict[str, Any]:
    """Compare with every earlier run on the same inputs in this
    checkout (traced serial or untraced parallel) and, for the default
    seed, with the pinned digest; then remember this one."""
    out: Dict[str, Any] = {"digest": digest}
    if digest is None:
        return out
    key = digest_key(config)
    seen = read_json(DIGEST_CACHE) if DIGEST_CACHE.is_file() else {}
    if key in seen:
        out["matches_earlier_runs"] = seen[key] == digest
    else:
        seen[key] = digest
        write_json(DIGEST_CACHE, seen)
    pinned = read_json(PINNED).get(key) if PINNED.is_file() else None
    if pinned is not None:
        out["matches_pinned"] = pinned == digest
    return out


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description="VS2 end-to-end benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs (the benchmark's own tests)")
    ap.add_argument("--out", default=None, help="record file (default .perfbench/records/...)")
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}/repro; run from a full checkout", file=sys.stderr)
        return 2
    spec = load_benchmark_spec()
    budget = Budget(BUDGET_S)
    wl = WORKLOADS[args.workload]
    if args.smoke:
        wl = dict(wl, **wl["smoke"]) if wl["kind"] == "serve" else dict(wl, corpora=wl["smoke"])
    corpora = wl.get("corpora")
    try:
        if wl["kind"] == "batch":
            fn = batch_traced if args.trace else batch_untraced
            measured, digest, checks, detail, attempted, failed = fn(args.workload, corpora, args, budget)
        else:
            fn = serve_traced if args.trace else serve_untraced
            measured, digest, checks, detail, attempted, failed = fn(args.workload, wl, args, budget)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    config = run_config(args.workload, wl, corpora, args)
    digest_checks = check_digest(config, digest)
    checks.update({k: v for k, v in digest_checks.items() if k.startswith("matches")})
    correct = all(checks.values())
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(measured[m["name"]]), "unit": m["unit"]} for m in names}
    record = {"config": config, "correct": correct, "checks": checks, "digest": digest,
              "attempted": attempted, "failed": failed, "metrics": metrics, "detail": detail}
    out = Path(args.out) if args.out else WORK_DIR / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    write_json(out, record)

    print("config: " + json.dumps(config, sort_keys=True))
    print("checks: " + json.dumps(checks, sort_keys=True) + f"  digest={digest}")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    for key in ("latency", "lag_ms", "latency_untraced", "latency_traced", "queue_wait_ms"):
        if key in detail:
            q = detail[key]
            print(f"  samples {key}: n={q.get('n')} p50_beyond={q.get('p50_beyond')} "
                  f"tail=p{q.get('tail_pm', 0) / 10:g} tail_beyond={q.get('tail_beyond')}")
    print(f"record: {out}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

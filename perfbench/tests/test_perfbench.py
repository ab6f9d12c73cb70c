"""Tests of the benchmark itself (not of the program it measures).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from bench_common import (
    BENCH_DIR, ROOT, extraction_digest, extraction_rows, load_benchmark_spec,
    nearest_rank, summarize,
)
from bench_load import schedule
from bench_trace import layer_report
from compare import compare


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def test_schedule_is_reproducible_and_seeded():
    a = schedule(3, 200, 8.0, 32)
    assert a == schedule(3, 200, 8.0, 32)
    assert a != schedule(4, 200, 8.0, 32)
    offsets = [t for t, _ in a]
    assert offsets == sorted(offsets) and offsets[0] > 0
    assert all(0 <= i < 32 for _, i in a)
    assert 200 / 8.0 * 0.7 < offsets[-1] < 200 / 8.0 * 1.3  # Poisson at ~8/s


@pytest.mark.parametrize("dataset,n", [("D1", 2), ("D2", 3), ("D3", 3)])
def test_corpus_is_reproducible_and_seeded(dataset, n):
    from repro.doc.serialize import document_to_dict
    from repro.synth import generate_corpus

    def dump(seed):
        return json.dumps([document_to_dict(d) for d in generate_corpus(dataset, n, seed)], sort_keys=True)

    assert dump(5) == dump(5)
    assert dump(5) != dump(6)


# ----------------------------------------------------------------------
# The digest
# ----------------------------------------------------------------------
def _rows(dataset, n, workers):
    from repro.perf.runner import CorpusRunner
    from repro.synth import generate_corpus

    docs = list(generate_corpus(dataset, n, 2))
    result = CorpusRunner(dataset, workers=workers).run(docs)
    assert not result.failures and result.degrade_reason is None
    rows = []
    for doc, res in zip(docs, result.results):
        rows += extraction_rows(dataset, doc.doc_id, res.extractions)
    return rows


@pytest.mark.parametrize("dataset,n", [("D1", 3), ("D2", 4)])
def test_digest_identical_at_one_and_two_workers(dataset, n):
    serial = _rows(dataset, n, 1)
    assert serial
    assert extraction_digest(serial) == extraction_digest(_rows(dataset, n, 2))


def test_digest_ignores_row_order_and_sub_rounding_noise():
    rows = [["D2", "d0", "event_title", "A", [1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0], 0.5],
            ["D2", "d1", "event_date", "B", [5.0, 6.0, 7.0, 8.0], [5.0, 6.0, 7.0, 8.0], 0.5]]
    shuffled = [rows[1], [*rows[0][:4], [1.0000001, 2.0, 3.0, 4.0], rows[0][5], 0.9]]
    assert extraction_digest(rows) == extraction_digest(shuffled)
    moved = [rows[0], [*rows[1][:4], [5.5, 6.0, 7.0, 8.0], rows[1][5], 0.5]]
    assert extraction_digest(rows) != extraction_digest(moved)
    retexted = [rows[0], ["D2", "d1", "event_date", "C", *rows[1][4:]]]
    assert extraction_digest(rows) != extraction_digest(retexted)


# ----------------------------------------------------------------------
# Quantiles
# ----------------------------------------------------------------------
def test_nearest_rank_is_exact():
    values = list(range(1, 201))
    assert nearest_rank(values, 500) == (100.0, 100)
    assert nearest_rank(values, 950) == (190.0, 10)
    assert nearest_rank(values, 999) == (200.0, 0)
    assert nearest_rank([7.0], 950) == (7.0, 0)


@pytest.mark.parametrize("n", [1, 5, 19, 20, 99, 100, 101, 199, 200, 201, 1000, 10000])
def test_tail_has_at_least_ten_samples_beyond(n):
    values = [float((i * 7919) % n) for i in range(n)]  # a permutation of 0..n-1
    s = summarize(values, tail_pm=950)
    assert s["n"] == n and s["tail_pm"] <= 950
    ordered = sorted(values)
    assert s["tail_beyond"] == sum(1 for v in ordered if v > s["tail"])
    if s["tail_pm"] != 500:
        assert s["tail_beyond"] >= 10
        # no higher rung at or below p95 also had ten beyond
        higher = [q for q in (999, 990, 950, 900, 750) if s["tail_pm"] < q <= 950]
        assert all(nearest_rank(ordered, q)[1] < 10 for q in higher)


def test_p95_needs_two_hundred_samples():
    assert summarize(range(200))["tail_pm"] == 950
    assert summarize(range(199))["tail_pm"] == 900
    assert summarize(range(15))["tail_pm"] == 500


# ----------------------------------------------------------------------
# Trace accounting
# ----------------------------------------------------------------------
def test_layer_self_times_add_up_to_document_busy_time():
    spans = [
        {"id": "1", "name": "doc", "parent": None, "start": 0.0, "end": 10.0, "attrs": {}},
        {"id": "2", "name": "segment", "parent": "1", "start": 1.0, "end": 5.0, "attrs": {}},
        {"id": "3", "name": "merge", "parent": "2", "start": 2.0, "end": 4.0, "attrs": {}},
        {"id": "4", "name": "select", "parent": "1", "start": 6.0, "end": 9.0, "attrs": {"blocks": 3, "extractions": 2}},
        {"id": "5", "name": "fuzzy", "parent": "4", "start": 6.5, "end": 7.0, "attrs": {}},
        {"id": "6", "name": "fuzzy", "parent": "4", "start": 7.0, "end": 7.5, "attrs": {}},
    ]
    report = layer_report(spans)
    assert report["busy_s"]["segment"] == pytest.approx(2.0)
    assert report["busy_s"]["merge"] == pytest.approx(2.0)
    assert report["busy_s"]["select"] == pytest.approx(2.0)
    assert report["calls"]["fuzzy"] == 2
    assert report["unattributed_s"] == pytest.approx(3.0)
    assert report["busy_s"]["fuzzy"] == pytest.approx(1.0)
    assert report["doc_busy_s"] == pytest.approx(10.0)
    assert report["closure_error_s"] == pytest.approx(0.0, abs=1e-9)
    assert report["blocks"] == 3 and report["extractions"] == 2


# ----------------------------------------------------------------------
# Records and the command line
# ----------------------------------------------------------------------
def test_compare_refuses_different_configurations():
    spec = load_benchmark_spec()
    base = {"config": {"workload": "d1-batch", "seed": 1, "workers": 2}, "metrics": {"job_wall_s": {"value": 10.0, "unit": "s"}}}
    other = {"config": {"workload": "d1-batch", "seed": 1, "workers": 1}, "metrics": {"job_wall_s": {"value": 5.0, "unit": "s"}}}
    lines = compare(base, other, spec)
    assert lines == ["NOT COMPARABLE (workers: 2 vs 1)"]
    slower = {"config": dict(base["config"]), "metrics": {"job_wall_s": {"value": 13.0, "unit": "s"}}}
    lines = compare(base, slower, spec)
    assert lines[0].startswith("metric") and "+30.0%" in lines[1] and lines[1].endswith("worse")


def _run(args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("workload", [w["name"] for w in load_benchmark_spec()["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace, tmp_path):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
                 "--smoke", "--out", str(tmp_path / "record.json")])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    spec = load_benchmark_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    for m in wanted:
        assert m["name"] in proc.stdout.split("record:")[0]
    record = json.loads((tmp_path / "record.json").read_text())
    assert record["config"]["workload"] == workload and record["config"]["smoke"] is True


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "d1-batch", "--seed", "0", "--seconds", "1", "--trace", "0"], cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

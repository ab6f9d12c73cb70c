"""Experiment harness: table/figure runners and their paper shapes.

These run on deliberately small contexts (speed); the benchmarks run
the same harness at the default scale and assert the headline shapes.
"""

import pytest

from repro.harness import (
    ExperimentContext,
    figure3,
    figure4_and_6,
    table2,
    table5,
    table6,
    table7,
    table8,
    table9,
    tables3_4,
)
from repro.harness.reporting import TableResult


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext({"D1": 6, "D2": 10, "D3": 10}, seed=0)


class TestReporting:
    def test_format_renders_dash_for_none(self):
        t = TableResult("T", ["A", "B"])
        t.add_row(A="x", B=None)
        assert "-" in t.format()

    def test_percent_rendering(self):
        t = TableResult("T", ["v"])
        t.add_row(v=0.875)
        assert "87.50" in t.format()

    def test_lookup_helpers(self):
        t = TableResult("T", ["k", "v"])
        t.add_row(k="a", v=1)
        assert t.value("k", "a", "v") == 1
        assert t.row_for("k", "missing") is None


class TestContext:
    def test_corpus_cached(self, ctx):
        assert ctx.corpus("D2") is ctx.corpus("D2")

    def test_cleaned_cached(self, ctx):
        assert ctx.cleaned("D2") is ctx.cleaned("D2")

    def test_split_disjoint(self, ctx):
        train, test = ctx.split("D2")
        ids = {c.original.doc_id for c in train} & {c.original.doc_id for c in test}
        assert not ids


class TestTable5(object):
    def test_structure_and_shape(self, ctx):
        t = table5(ctx)
        assert [r["Index"] for r in t.rows] == ["A1", "A2", "A3", "A4", "A5", "A6"]
        # VIPS not applicable to D1
        assert t.value("Index", "A4", "D1 Pr") is None
        # VS2 beats the text-only segmentation baseline everywhere
        for ds in ("D1", "D2", "D3"):
            assert t.value("Index", "A6", f"{ds} Rec") > t.value("Index", "A1", f"{ds} Rec")
        # D1 (structured forms) is VS2's easiest dataset, as in the paper
        assert t.value("Index", "A6", "D1 Rec") >= t.value("Index", "A6", "D2 Rec") - 0.05


class TestTables68:
    def test_table6_rows(self, ctx):
        t = table6(ctx)
        names = [r["Named Entity"] for r in t.rows]
        assert names[:5] == [
            "Event Title", "Event Place", "Event Time", "Event Organizer", "Event Description",
        ]
        assert names[-1] == "Overall"
        assert any("t-test" in n for n in t.notes)

    def test_table8_rows(self, ctx):
        t = table8(ctx)
        overall = t.rows[-1]
        assert overall["Pr"] > 0.8 and overall["Rec"] > 0.8
        # visually salient broker name gains most vs text-only (paper)
        name_gain = t.value("Named Entity", "Broker Name", "dF1")
        email_gain = t.value("Named Entity", "Broker Email", "dF1")
        assert name_gain >= email_gain


class TestTable7:
    def test_structure(self, ctx):
        t = table7(ctx)
        assert t.value("Algorithm", "ClausIE", "D1 Pr") is None
        assert t.value("Algorithm", "ML-based", "D1 Pr") is None
        vs2_d3 = t.value("Algorithm", "VS2", "D3 Rec")
        clausie_d3 = t.value("Algorithm", "ClausIE", "D3 Rec")
        assert vs2_d3 > clausie_d3


class TestTable9:
    def test_ablations_present(self, ctx):
        t = table9(ctx)
        assert len(t.rows) == 4
        # disambiguation is the load-bearing component on D2 (paper A3)
        a3 = t.value("Index", "A3", "dF1 D2")
        assert a3 is not None and a3 >= 0


class TestTable2AndPatterns:
    def test_table2(self):
        t = table2()
        assert [r["Dataset"] for r in t.rows] == ["D1", "D2", "D3"]
        d1 = t.row_for("Dataset", "D1")
        assert d1["Tuples"] == 1369

    def test_tables3_4(self):
        t = tables3_4(max_entries=10)
        entities = [r["Named Entity"] for r in t.rows]
        assert "Event Organizer" in entities and "Broker Email" in entities
        assert all(r["Curated pattern"] for r in t.rows)


class TestFigures:
    def test_figure3_shows_candidate_pool(self, ctx):
        fig = figure3(ctx)
        assert "Person/Organization candidates" in fig.body
        assert any("candidates" in n for n in fig.notes)

    def test_figure4_6_renders_blocks_and_tree(self, ctx):
        fig = figure4_and_6(ctx)
        assert "logical blocks" in fig.body
        assert "layout tree" in fig.body
        assert "interest point" in fig.body or "interest points" in fig.notes[0]


class TestColdStart:
    def test_import_leaves_scipy_stats_unloaded(self):
        """`repro bench`/`table` start by importing the harness; scipy.stats
        (~0.85 s of import time) loads only when a t-test runs."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.harness; print('scipy.stats' in sys.modules)"],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

#!/usr/bin/env python3
"""Compare two benchmark records metric by metric.

    python3 perfbench/compare.py BASE.json CHANGE.json

A record is the file ``run.py`` writes (``--out`` or
``.perfbench/records/``).  Records are compared only when their run
configurations are identical (workload, seed, input sizes, workers,
rate, Python version, CPU count, contracts mode, fast-cuts setting,
traced or not); otherwise this prints ``NOT COMPARABLE`` with the keys
that differ and exits 2.  A change is marked ``worse`` when it moves a
metric the wrong way by more than the metric's bound in
``BENCHMARK.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_common import load_benchmark_spec, read_json  # noqa: E402


def config_diff(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Configuration keys whose values differ between two records."""
    keys = sorted(set(a) | set(b))
    return [k for k in keys if a.get(k) != b.get(k)]


def compare(base: Dict[str, Any], change: Dict[str, Any], spec: Dict[str, Any]) -> List[str]:
    """Report lines; the first is ``NOT COMPARABLE ...`` when the
    configurations differ, and then no metric is diffed."""
    diff = config_diff(base["config"], change["config"])
    if diff:
        shown = ", ".join(f"{k}: {base['config'].get(k)!r} vs {change['config'].get(k)!r}" for k in diff)
        return [f"NOT COMPARABLE ({shown})"]
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    lines = [f"{'metric':<28} {'base':>12} {'change':>12} {'delta':>8}  unit"]
    for name, b in base["metrics"].items():
        c = change["metrics"].get(name)
        if c is None:
            continue
        delta = (c["value"] - b["value"]) / b["value"] if b["value"] else 0.0
        m = meta.get(name, {})
        worse = delta if m.get("better") == "lower" else -delta
        flag = "  worse" if "bound" in m and worse > m["bound"] else ""
        lines.append(f"{name:<28} {b['value']:>12.5g} {c['value']:>12.5g} {delta:>+8.1%}  {b['unit']}{flag}")
    if base.get("digest") and change.get("digest") and base["digest"] != change["digest"]:
        lines.append("OUTPUT CHANGED: extraction digests differ")
    return lines


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 64
    base, change = (read_json(Path(p)) for p in argv)
    lines = compare(base, change, load_benchmark_spec())
    print("\n".join(lines))
    return 2 if lines[0].startswith("NOT COMPARABLE") else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Smoke run of the end-to-end benchmark.

Runs every workload scaled down with tracing on and checks that every
metric ``BENCHMARK.json`` names is printed with its unit, that the
result line carries exactly the per-layer metrics, and that the
top-level spans cover at least 90% of each traced call.

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def test_smoke_prints_every_metric(tmp_path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke",
         "--trace-out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

    *per_workload, combined_line = proc.stdout.strip().splitlines()
    combined = json.loads(combined_line)
    assert combined["correct"] and combined["attempted"] > 0

    blocks = re.split(r"^== e2e ", "\n".join(per_workload), flags=re.M)[1:]
    assert [block.split()[0] for block in blocks] == [
        workload["name"] for workload in bench["workloads"]
    ]
    per_layer = {metric["name"] for metric in bench["per_layer"]}
    for block in blocks:
        printed = dict(re.findall(r"^metric (\S+) \S+ (\S+)$", block, re.M))
        for metric in bench["end_to_end"] + bench["per_layer"]:
            assert printed.get(metric["name"]) == metric["unit"], metric
        coverage = re.search(r"^metric trace\.coverage (\S+) ", block, re.M)
        assert float(coverage.group(1)) >= 0.9
        result = json.loads(block.strip().splitlines()[-1])
        assert set(result["metrics"]) == per_layer
        assert result["correct"] and result["failed"] == 0

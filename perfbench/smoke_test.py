#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload at tiny size for one second, untraced and traced, and
checks that every metric BENCHMARK.json names is emitted with its unit,
that every name matches [A-Za-z0-9_.-]+, that every per-layer metric is
measured (has samples) on at least one workload, and that a traced run
writes its spans. Exit status 0 when all checks pass.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    measured = set()
    for entry in spec["end_to_end"] + spec["per_layer"]:
        if not NAME.fullmatch(entry["name"]):
            errors.append(f"bad metric name {entry['name']!r}")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            run = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny"],
                capture_output=True, text=True, cwd=ROOT)
            where = f"{workload} trace={trace}"
            if run.returncode != 0:
                errors.append(f"{where}: exit {run.returncode}\n"
                              f"{run.stderr[-2000:]}")
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                errors.append(f"{where}: not correct or nothing attempted")
            metrics = result["metrics"]
            if set(metrics) != {entry["name"] for entry in wanted}:
                errors.append(f"{where}: metric names differ from "
                              "BENCHMARK.json")
            for entry in wanted:
                metric = metrics.get(entry["name"], {})
                if metric.get("unit") != entry["unit"]:
                    errors.append(f"{where}: {entry['name']} has unit "
                                  f"{metric.get('unit')!r}")
                if not isinstance(metric.get("value"), (int, float)):
                    errors.append(f"{where}: {entry['name']} has no value")
            tag = f"{workload}-seed1-trace{trace}-tiny"
            record = json.loads(
                (ROOT / ".bench_out" / f"{tag}.json").read_text())
            measured |= {name for name, metric in record["metrics"].items()
                         if metric["samples"] > 0}
            if trace:
                spans = json.loads(
                    (ROOT / ".bench_out" / f"{tag}.spans.json").read_text())
                keys = {"id", "name", "start_us", "end_us", "parent", "op"}
                if not spans or any(set(span) != keys for span in spans):
                    errors.append(f"{where}: spans missing or malformed")
            print(f"ok {where}", flush=True)
    for entry in spec["per_layer"]:
        if entry["name"] not in measured:
            errors.append(f"{entry['name']} is measured on no workload")
    for error in errors:
        print(f"FAIL {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

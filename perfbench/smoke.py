"""Smoke check of the benchmark harness.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json once with tracing off and once with it
on, at a tiny budget (sample counts divided by 32, one second of runs), and
fails unless each run exits 0 and its last line names exactly the metrics
BENCHMARK.json lists, each with a finite number and its unit.  It checks
the harness, not the program's speed; the figures it prints mean nothing.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(spec: dict, workload: str, trace: int) -> list:
    cmd = [*spec["command"], "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--scale", "32"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("attempted", 0) >= 1:
        problems.append("nothing attempted")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(wanted):
        problems.append(f"missing {sorted(set(wanted) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(wanted))}")
    for name, unit in wanted.items():
        entry = got.get(name, {})
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} = {value!r}")
        if entry.get("unit", unit) != unit:
            problems.append(f"{name} unit {entry.get('unit')!r} != {unit!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_run(spec, workload, trace)
            print(f"{workload} trace {trace}: "
                  f"{'ok' if not problems else problems}")
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke check of the benchmark itself: every workload at a tiny size.

    python3 perfbench/smoke.py

Runs ``run.py --workload all --tiny`` untraced and traced, and fails unless
every workload's result is correct and carries every metric BENCHMARK.json
names, with its unit.  Takes about two minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(trace: int, spec: dict) -> list[str]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", "all", "--tiny",
            "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return [f"trace {trace}: exit code {out.returncode}\n{out.stdout[-2000:]}{out.stderr}"]
    want = spec["per_layer"] if trace else spec["end_to_end"]
    problems = []
    results = json.loads(lines[-1])
    for workload in (w["name"] for w in spec["workloads"]):
        result = results.get(workload)
        if result is None:
            problems.append(f"trace {trace}: {workload} missing")
            continue
        if not result["correct"] or result["attempted"] < 1:
            problems.append(f"trace {trace}: {workload} not correct: {result}")
        if set(result["metrics"]) != {m["name"] for m in want}:
            problems.append(f"trace {trace}: {workload} metrics differ from BENCHMARK.json")
        for metric in want:
            got = result["metrics"].get(metric["name"], {})
            if got.get("unit") != metric["unit"] or not isinstance(got.get("value"), float):
                problems.append(f"trace {trace}: {workload} {metric['name']}: {got}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check(0, spec) + check(1, spec)
    for problem in problems:
        print(problem)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one search-hard case and print its verdict as one JSON line.

    python3 perfbench/search_case.py CASE.yaml [--trace SPANS.jsonl]

The parent stops this process at the case's time limit.  Every outcome of
the search, a raw Python exception included, is reported as data.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from edgeplane import controlplane, scenario  # noqa: E402
from edgeplane.errors import InfeasiblePlacement  # noqa: E402


def search(path) -> dict:
    """Load the case, place it and audit any plan; the verdict and the wall and
    CPU time of place and audit."""
    loaded = scenario.load_scenario(path)
    started, cpu_started = time.perf_counter(), time.process_time()
    result = {"verdict": "feasible", "detail": ""}
    try:
        control = controlplane.ControlPlane(loaded.graph, loaded.app, loaded.policies)
        plan = control.place(loaded.request)
        report = controlplane.validate_plan(loaded.graph, loaded.app, loaded.policies, plan)
        if not report.ok:
            result = {"verdict": "invalid-plan", "detail": report.violations[0].detail}
    except InfeasiblePlacement as exc:
        gave_up = "budget exhausted" in str(exc)
        result = {"verdict": "gave-up" if gave_up else "infeasible", "detail": str(exc)}
    except RecursionError as exc:  # a known defect, reported rather than raised
        result = {"verdict": "RecursionError", "detail": str(exc)}
    result["search_s"] = time.perf_counter() - started
    result["cpu_s"] = time.process_time() - cpu_started
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("case")
    parser.add_argument("--trace", default=None, help="write spans here")
    args = parser.parse_args()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    result = search(args.case)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.trace)
        result["self_s"] = tracer.self_times()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

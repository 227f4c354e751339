"""search-hard: the placement search on named cases whose verdict is known.

Each case in ``cases/cases.json`` runs in its own child process
(``search_case.py``), stopped at the case's time limit.  A verdict that
contradicts the case's proof is a failed op.  Giving up (budget exhausted),
a raw exception and running over the limit are not wrong answers but no
answers: they count against ``decided_share``, and the known defects of
ROADMAP item 3 show there until they are fixed.

A case's time is the child's CPU time for place and audit, scaled to
the reference host speed (``hostspeed``) by samples this process takes on
the same CPU while the child runs; a case stopped at its limit counts the
limit.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

from common import (
    HERE,
    Context,
    Result,
    child_env,
    peak_rss_mb,
    setup_s,
    wait_child,
    windowed_p90,
)
from hostspeed import Sampler

CASES = HERE / "cases"
#: Cases measured under this many seconds are quick: a smoke check runs
#: only them, and a traced run times them again untraced for the overhead.
QUICK_CASE_S = 2.0
#: Case limits are cut so that a run ends within this many seconds even if
#: every case runs over.
RUN_BUDGET_S = 140.0


def load_cases(tiny: bool) -> list[dict]:
    cases = json.loads((CASES / "cases.json").read_text(encoding="utf-8"))["cases"]
    if tiny:
        cases = [c for c in cases if quick(c)]
    return cases


def quick(case: dict) -> bool:
    return case.get("measured_s", 0) < QUICK_CASE_S


def run_case(case: dict, limit: float, spans_path=None) -> dict:
    """Run one case in a child; returns its report plus ``capped_s`` and ``maxrss_kb``."""
    argv = [sys.executable, str(HERE / "search_case.py"), str(CASES / case["file"])]
    if spans_path is not None:
        argv += ["--trace", str(spans_path)]
    sampler = Sampler()
    sampler.sample()
    started = time.perf_counter()
    # The child prints one short JSON line, which the pipe holds until read.
    proc = subprocess.Popen(argv, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    with proc.stdout:
        timed_out, usage = wait_child(proc, timeout=limit, sampler=sampler)
        wall = time.perf_counter() - started
        sampler.sample()
        text = proc.stdout.read().decode("utf-8", "replace").strip()
    if timed_out:
        report = {"verdict": "over-limit", "detail": f"stopped after {limit:.1f} s"}
    elif proc.returncode != 0 or not text:
        report = {"verdict": "crashed", "detail": f"exit code {proc.returncode}"}
    else:
        report = json.loads(text.splitlines()[-1])
    if "cpu_s" in report:
        report["scaled_s"] = report["cpu_s"] * sampler.factor()
    report["capped_s"] = min(report.get("scaled_s", wall), limit)
    report["maxrss_kb"] = usage.ru_maxrss
    return report


def run(ctx: Context) -> Result:
    result = Result()
    deadline = time.perf_counter() + RUN_BUDGET_S

    def limit(case):
        return max(1.0, min(case["limit_s"], deadline - time.perf_counter()))

    cases = load_cases(ctx.tiny)
    largest = max(cases, key=lambda c: (CASES / c["file"]).stat().st_size)
    result.end_to_end["setup_s"] = setup_s(CASES / largest["file"])
    times, rss, decided, outcomes = [], [], 0, []
    self_s: dict[str, float] = {}
    for case in cases:
        spans = ctx.work / f"spans-{case['name']}.jsonl" if ctx.trace else None
        report = run_case(case, limit(case), spans)
        result.attempted += 1
        times.append(report["capped_s"])
        rss.append(report["maxrss_kb"])
        verdict = report["verdict"]
        if verdict == case["expect"]:
            decided += 1
            outcome = "decided"
        elif verdict in ("feasible", "infeasible", "invalid-plan"):
            outcome = "WRONG"
            result.fail(f"{case['name']}: expected {case['expect']}, got {verdict}: "
                        f"{report['detail'][:200]}")
        else:
            outcome = "undecided"
            result.undecided += 1
        result.digest.add(f"{case['name']} {verdict}")
        outcomes.append((case["name"], case["expect"], verdict, outcome, report["capped_s"],
                         case["limit_s"], case.get("today", "")))
        for name, seconds in report.get("self_s", {}).items():
            self_s[name] = self_s.get(name, 0.0) + seconds
    result.end_to_end["peak_rss_mb"] = peak_rss_mb(max(rss))
    result.end_to_end["op_ms_p50"] = 1000 * statistics.median(times)
    result.end_to_end["op_ms_p90"] = 1000 * windowed_p90(times)
    result.end_to_end["run_s"] = sum(times)
    result.extra["cases"] = outcomes
    result.extra["named"] = {
        "search_s": (sum(times), "s"),
        "search_decided_share": (decided / len(cases), "1"),
        "search_failed_share": (1 - decided / len(cases), "1"),
    }
    if ctx.trace:
        for name, seconds in self_s.items():
            result.per_layer[name + "_s"] = seconds
        fast = [(c, t) for c, t in zip(cases, times) if quick(c)]
        if fast:
            untraced = sum(run_case(c, limit(c))["capped_s"] for c, _ in fast)
            traced = sum(t for _, t in fast)
            result.per_layer["trace.overhead_pct"] = 100 * (traced / untraced - 1)
    return result

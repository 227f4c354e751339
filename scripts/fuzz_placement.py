#!/usr/bin/env python3
"""Fuzz the placement pipeline with random scenarios and report the tally.

Places the test suite's seeded random scenarios (``tests.support.gen_case``)
and cross-checks every successful plan with the independent validator and
the flow-level compliance audit.  Any violation is a bug.  Infeasible
scenarios are tallied as proved (a capacity cut or an exhausted search)
or as given up (the search ran out of its step budget).

    python3 scripts/fuzz_placement.py [--seed N] [--cases N]
"""

import argparse
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from edgeplane.controlplane import ControlPlane, validate_plan  # noqa: E402
from edgeplane.errors import InfeasiblePlacement  # noqa: E402
from edgeplane.meshsim import check_compliance, route_flows  # noqa: E402
from tests.support import build, gen_case  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--cases", type=int, default=200)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    placed = proved = gave_up = bad = 0
    for case in range(args.cases):
        graph, app, pset, request = build(*gen_case(rng))
        try:
            plan = ControlPlane(graph, app, pset).place(request)
        except InfeasiblePlacement as exc:
            proved += exc.proved
            gave_up += not exc.proved
            continue
        placed += 1
        report = validate_plan(graph, app, pset, plan)
        flows = route_flows(graph, app, plan, plan.demand)
        audit = check_compliance(graph, pset, flows)
        if report.violations or audit:
            bad += 1
            print(f"case {case}: VIOLATIONS {report.violations + audit}", file=sys.stderr)
    print(f"{args.cases} cases: {placed} placed, {proved} proved infeasible, {gave_up} gave up, "
          f"{bad} non-compliant")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

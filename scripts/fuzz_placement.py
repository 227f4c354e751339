#!/usr/bin/env python3
"""Fuzz the placement pipeline with random scenarios and report the tally.

Places the test suite's seeded random scenarios (``tests.support.gen_case``)
and cross-checks every successful plan with the independent validator and
the flow-level compliance audit.  Any violation is a bug.  Infeasible
scenarios are tallied as proved (a capacity cut or an exhausted search)
or as given up (the search ran out of its step budget).

    python3 scripts/fuzz_placement.py [--cases N]

The cases are the first N of ``gen_case(Random(7))``.

``--sweep`` runs the fixed sweep instead: 1,800 fresh placements through
the search at a step budget of 20,000 each.  The cases are ``gen_case``
seeds 0-399 at 1x and at 2x demand, the first 600 cases of
``gen_case(Random(7), gen_app=gen_dag_app)``, and ``gen_case(Random(s),
gen_app=gen_dag_app)`` at 2x for s in 0-399.  It prints the tally, the
steps spent in all, the cases that gave up, and one sha256 over every
mapping and verdict message, which a change to the search must keep.

    python3 scripts/fuzz_placement.py --sweep
"""

import argparse
import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from edgeplane.controlplane import place_application, validate_plan  # noqa: E402
from edgeplane.errors import InfeasiblePlacement  # noqa: E402
from edgeplane.meshsim import check_compliance, route_flows  # noqa: E402
from edgeplane.search import _Budget, _reconcile  # noqa: E402
from tests.support import build, gen_case, gen_dag_app  # noqa: E402


def scaled(docs, factor: int):
    topo_doc, app_doc, policy_doc, demand_doc = docs
    return topo_doc, app_doc, policy_doc, {d: {m: r * factor for m, r in per.items()} for d, per in demand_doc.items()}


def sweep_cases():
    """(label, documents) for each case of the sweep, in order."""
    for factor in (1, 2):
        for seed in range(400):
            yield f"chain seed {seed} at {factor}x", scaled(gen_case(random.Random(seed)), factor)
    rng = random.Random(7)
    for case in range(600):
        yield f"dag Random(7) #{case}", gen_case(rng, gen_app=gen_dag_app)
    for seed in range(400):
        yield f"dag seed {seed} at 2x", scaled(gen_case(random.Random(seed), gen_app=gen_dag_app), 2)


SWEEP_BUDGET = 20_000  # steps per case


def sweep() -> int:
    digest = hashlib.sha256()
    placed = proved = steps = 0
    gave_up = []
    for label, docs in sweep_cases():
        graph, app, pset, request = build(*docs)
        budget = _Budget(SWEEP_BUDGET)
        try:
            mapping = _reconcile(graph, app, pset, request.normalized_demand(), budget)
        except InfeasiblePlacement as exc:
            verdict = f"{'proved' if exc.proved else 'gave up'}: {exc}"
            proved += exc.proved
            if not exc.proved:
                gave_up.append(label)
        else:
            placed += 1
            verdict = repr([(ms_id, anchor, ap.slots) for ms_id in mapping.microservice_ids()
                            for anchor, ap in sorted(mapping.per_ms[ms_id].items())])
        steps += SWEEP_BUDGET - budget.left
        digest.update(f"{label}: {verdict}\n".encode())
    cases = placed + proved + len(gave_up)
    print(f"sweep of {cases} cases at budget {SWEEP_BUDGET}: {placed} placed, {proved} proved infeasible, "
          f"{len(gave_up)} gave up, {steps} steps, sha256:{digest.hexdigest()}")
    print(f"gave up: {', '.join(gave_up) or 'none'}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--cases", type=int, default=200)
    parser.add_argument("--sweep", action="store_true", help="run the fixed 1,800-case sweep instead")
    args = parser.parse_args()
    if args.sweep:
        return sweep()

    rng = random.Random(7)
    placed = proved = gave_up = bad = 0
    for case in range(args.cases):
        graph, app, pset, request = build(*gen_case(rng))
        try:
            plan = place_application(graph, app, request, pset)
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

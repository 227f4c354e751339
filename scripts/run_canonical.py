#!/usr/bin/env python3
"""Run the canonical UAV scenario end to end and write all artifacts.

Produces the deployment plan, per-domain route configs and the simulation
report under --out (default ./out), then prints a compact summary of where
every microservice landed and how the traffic split.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from edgeplane.controlplane import validate_plan  # noqa: E402
from edgeplane.documents import dump_doc, plan_to_doc, report_to_doc, routes_docs  # noqa: E402
from edgeplane.meshsim import run_scenario  # noqa: E402
from edgeplane.scenario import load_scenario  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scenario",
        default=str(ROOT / "scenarios" / "uav_canonical.yaml"),
        help="scenario file (default: the canonical UAV pipeline)",
    )
    parser.add_argument("--out", default="out", help="artifact directory (default ./out)")
    args = parser.parse_args()

    scenario = load_scenario(args.scenario)
    plan, report = run_scenario(
        scenario.graph,
        scenario.app,
        scenario.policies,
        scenario.request,
        scenario.events,
        overload_threshold=scenario.settings.overload_threshold,
    )
    compliance = validate_plan(scenario.graph, scenario.app, scenario.policies, plan)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "plan.yaml").write_text(dump_doc(plan_to_doc(plan, compliance)), encoding="utf-8")
    for doc in routes_docs(scenario.graph, plan):
        (out_dir / f"routes-{doc['domain']}.yaml").write_text(dump_doc(doc), encoding="utf-8")
    (out_dir / "report.yaml").write_text(dump_doc(report_to_doc(report)), encoding="utf-8")

    print(f"plan revision {plan.revision}, compliance ok={compliance.ok}")
    for ms_id in plan.mapping.microservice_ids():
        spread = ", ".join(f"{n}x{k}" for n, k in plan.mapping.instances_of(ms_id).items())
        print(f"  {ms_id}: {spread}")
    print(f"simulated {report.ticks} tick(s): {len(report.alerts)} alert(s), "
          f"{len(report.violations)} violation(s)")
    print(f"artifacts in {out_dir}/")
    return 0 if compliance.ok and not report.violations else 1


if __name__ == "__main__":
    sys.exit(main())

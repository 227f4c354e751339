"""Write search-hard's named cases into perfbench/cases/ (run once, from the repo root).

    PYTHONPATH=src python3 perfbench/freeze_cases.py [--measure]

The cases are committed as data; this script records how they were made.
The seed-70 case and the small infeasible cases come from the test suite's
own random generator (``tests/support.py``), the large ones from the
benchmark's ladder topology.  Each case's expected verdict is settled here
without the placer: infeasible cases by an L1 capacity lower bound, feasible
ones by an explicit spread plan that ``validate_plan`` accepts.
``--measure`` runs every case once through ``search_case.py`` and records
the time beside the case's limit in ``cases.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CASES = HERE / "cases"
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(HERE)]

from edgeplane.controlplane import (  # noqa: E402
    AnchorPlacement,
    DeploymentPlan,
    PlacementMapping,
    generate_routes,
    place_application,
    validate_plan,
)
from edgeplane.errors import InfeasiblePlacement  # noqa: E402
from edgeplane.locality import LocalityLevel  # noqa: E402
from edgeplane.scenario import scenario_from_doc  # noqa: E402

import gen  # noqa: E402
from tests.support import build, gen_case  # noqa: E402


def scenario(topo, app, policies, demand) -> dict:
    return {"topology": topo, "application": app, "policies": policies,
            "demand": demand, "events": [], "settings": {}}


def l1_cpu_bound(topo, app, policies, demand) -> str | None:
    """Why no placement exists, if the pooled L1 cpu bound proves it.

    Pooled demand at each microservice does not depend on placement (flow
    conservation), and per-anchor instance ceilings sum to at least the
    pooled ceiling, so ceil(pooled / capacity) * cpu is a lower bound on
    the cpu that microservice alone needs inside its allowed domains.
    """
    inflow = {m["id"]: Fraction(0) for m in app["microservices"]}
    for per in demand.values():
        for ms, rps in per.items():
            inflow[ms] += Fraction(rps)
    for edge in app["edges"]:  # chains from the generator are listed in order
        source = next(m for m in app["microservices"] if m["id"] == edge["from"])
        if not source.get("iot"):
            inflow[edge["to"]] += inflow[edge["from"]] * Fraction(edge.get("ratio", 1))
    restriction = {r["microservice"]: r for r in policies.get("placement_restriction", [])}
    cpu_of_domain = {}
    for node in topo["nodes"]:
        cpu_of_domain[node["domain"]] = cpu_of_domain.get(node["domain"], 0) + node["cpu_m"]
    total_need = 0
    for ms in app["microservices"]:
        if ms.get("iot") or inflow[ms["id"]] == 0:
            continue
        need = math.ceil(inflow[ms["id"]] / Fraction(ms["capacity_rps"])) * ms["cpu_m"]
        total_need += need
        rule = restriction.get(ms["id"])
        allowed = [d for d in cpu_of_domain
                   if rule is None or (d in rule["domains"]) == (rule["mode"] == "allow")]
        have = sum(cpu_of_domain[d] for d in allowed)
        if need > have:
            return (f"{ms['id']} alone needs {need}m of cpu against {have}m in its "
                    f"allowed domains (L1 bound)")
    have = sum(cpu_of_domain.values())
    if total_need > have:
        return f"all microservices together need {total_need}m against {have}m (L1 bound)"
    return None


def spread_witness(doc: dict) -> str:
    """Why a ``chain`` case is feasible: two instances of every microservice on
    each domain's first node, a plan that ``validate_plan`` accepts."""
    loaded = scenario_from_doc(doc)
    levels = [doc["policies"]["iot_locality"][0]["level"]]
    levels += [entry["level"] for entry in doc["policies"]["ms_locality"]]
    domains = [d["id"] for d in doc["topology"]["domains"]]
    per_ms = {}
    for i, level in enumerate(levels, 1):
        slots = [(f"{d}-n0", 2) for d in domains]
        if level == "global":
            anchors = {"global": AnchorPlacement("global", LocalityLevel.GLOBAL,
                                                 Fraction(100 * len(domains)), slots)}
        else:
            anchors = {d: AnchorPlacement(d, LocalityLevel.STRICT_DOMAIN, Fraction(100), [slot])
                       for d, slot in zip(domains, slots)}
        per_ms[f"m{i}"] = anchors
    mapping = PlacementMapping(per_ms=per_ms, order=tuple(per_ms))
    routes = generate_routes(loaded.graph, loaded.app, mapping, loaded.policies)
    plan = DeploymentPlan(app_id=loaded.app.id, revision=1, mapping=mapping, routes=routes,
                          demand=loaded.request.normalized_demand())
    report = validate_plan(loaded.graph, loaded.app, loaded.policies, plan)
    if not report.ok:
        raise SystemExit(f"witness rejected: {report.violations[0].detail}")
    return (f"validate_plan accepts two instances of each of {len(levels)} microservices "
            f"on every domain's first node")


def seed70_doubled() -> dict:
    """The doubled-demand replan from criterion 7 that runs the budget out."""
    rng = random.Random(70)
    while True:
        docs = gen_case(rng)
        graph, app, pset, request = build(*docs)
        try:
            place_application(graph, app, request, pset)
        except InfeasiblePlacement:
            continue
        topo, app_doc, policy_doc, demand_doc = docs
        doubled = {d: {m: r * 2 for m, r in per.items()} for d, per in demand_doc.items()}
        graph, app, pset, request = build(topo, app_doc, policy_doc, doubled)
        try:
            place_application(graph, app, request, pset)
        except InfeasiblePlacement as exc:
            if "budget" in str(exc):
                return scenario(topo, app_doc, policy_doc, doubled)


def small_infeasible(seed: int, factor: int) -> dict:
    """gen_case(Random(seed)) with its demand multiplied by ``factor``."""
    topo, app_doc, policy_doc, demand_doc = gen_case(random.Random(seed))
    demand = {d: {m: r * factor for m, r in per.items()} for d, per in demand_doc.items()}
    return scenario(topo, app_doc, policy_doc, demand)


def chain(domains: int, nodes: int, ingress: str, edge_levels: list[str]) -> dict:
    """A chain m1 -> ... of 250m/50 rps services over ``domains`` domains in one
    region, 64000m nodes, 100 rps entering m1 in every domain."""
    topo = gen.topology_doc(1, domains, nodes)
    count = len(edge_levels) + 1
    app = {"id": "search-hard",
           "microservices": [{"id": f"m{i}", "cpu_m": 250, "mem_mi": 256, "capacity_rps": 50}
                             for i in range(1, count + 1)],
           "edges": [{"from": f"m{i}", "to": f"m{i + 1}", "ratio": 1} for i in range(1, count)],
           "ingress": ["m1"]}
    policies = {"iot_locality": [{"microservice": "m1", "level": ingress}],
                "ms_locality": [{"consumer": f"m{i}", "consumed": f"m{i + 1}", "level": level}
                                for i, level in enumerate(edge_levels, 1)],
                "default_locality": "global"}
    return scenario(topo, app, policies, {d["id"]: {"m1": 100} for d in topo["domains"]})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--measure", action="store_true",
                        help="time each case once and record it in cases.json")
    args = parser.parse_args()
    meta = json.loads((CASES / "cases.json").read_text())
    makers = {
        "seed70-doubled": seed70_doubled,
        "global-pool-150x2": lambda: chain(150, 2, "global", ["strict-domain"]),
        "strict-chain-300": lambda: chain(300, 1, "strict-domain", ["strict-domain"] * 3),
    }
    for case in meta["cases"]:
        name = case["name"]
        if name in makers:
            doc = makers[name]()
        else:
            seed, factor = case["generator"]["seed"], case["generator"]["demand_factor"]
            doc = small_infeasible(seed, factor)
        if case["expect"] == "infeasible":
            proof = l1_cpu_bound(doc["topology"], doc["application"], doc["policies"],
                                 doc["demand"])
            if proof is None:
                raise SystemExit(f"{name}: the L1 bound does not settle the verdict")
            case["proof"] = proof
        else:
            case["proof"] = spread_witness(doc)
        (CASES / case["file"]).write_text(
            yaml.safe_dump(doc, sort_keys=False, default_flow_style=False), encoding="utf-8")
        if args.measure:
            started = time.perf_counter()
            out = subprocess.run([sys.executable, str(HERE / "search_case.py"),
                                  str(CASES / case["file"])],
                                 capture_output=True, text=True, check=True)
            case["measured_s"] = round(time.perf_counter() - started, 2)
            print(name, case["measured_s"], out.stdout.strip()[:200])
    (CASES / "cases.json").write_text(json.dumps(meta, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

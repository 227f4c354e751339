"""End-to-end acceptance gate.

One test per shipped guarantee, each printing a ``[criterion N] PASS`` line
with the numbers that back it.  Tolerances are exact unless a criterion
explicitly allows rounding; traffic math is Fraction-based so "exact" means
equality, comfortably inside any 1e-9 float budget.
"""

import json
import math
import random
import time
import urllib.error
import urllib.request

import pytest
import yaml

from edgeplane.cli import main
from edgeplane.controlplane import place_application, validate_plan
from edgeplane.errors import InfeasiblePlacement
from edgeplane.meshsim import check_compliance, route_flows, run_scenario
from edgeplane.policy import eligible_domains_for_anchor, is_allowed
from edgeplane.policyserver import (
    canonical_json,
    data_response,
    evaluate_response,
    make_server,
)
from edgeplane.locality import LocalityLevel

from .support import (
    GOLDEN,
    SCENARIOS,
    build,
    gen_case,
    gen_small_case,
    oracle_eligible,
    oracle_feasible,
)

CANONICAL = str(SCENARIOS / "uav_canonical.yaml")
SURGE = str(SCENARIOS / "uav_demand_surge.yaml")


def domain_of_nodes(graph):
    return {n.id: n.domain_id for n in graph.nodes.values()}


def test_criterion_1_canonical_placement(tmp_path, canonical):
    out = tmp_path / "plan.yaml"
    started = time.perf_counter()
    assert main(["place", "--scenario", CANONICAL, "--out", str(out),
                 "--quiet"]) == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"placement took {elapsed:.3f}s"

    doc = yaml.safe_load(out.read_text(encoding="utf-8"))
    node_domain = domain_of_nodes(canonical.graph)
    per_domain = {}
    for placement in doc["placements"]:
        ms = placement["microservice"]
        for entry in placement["nodes"]:
            dom = node_domain[entry["node"]]
            per_domain.setdefault(ms, {}).setdefault(dom, 0)
            per_domain[ms][dom] += entry["instances"]

    assert per_domain["m2"]["ed4"] == 2 * per_domain["m2"]["ed3"]
    assert per_domain["m2"].get("cloud", 0) == 0
    assert per_domain["m3"].get("cloud", 0) == 0
    assert per_domain["m3"]["ed3"] > 0 and per_domain["m3"]["ed4"] > 0
    assert doc["compliance"]["ok"] is True
    print(f"[criterion 1] PASS - m2 ed3={per_domain['m2']['ed3']} "
          f"ed4={per_domain['m2']['ed4']} (exact 2x), m2/m3 cloud=0, "
          f"m3 in both edge domains, {elapsed * 1000:.0f} ms")


def test_criterion_2_canonical_routes(tmp_path, canonical):
    out_dir = tmp_path / "routes"
    assert main(["routes", "--scenario", CANONICAL, "--out", str(out_dir),
                 "--quiet"]) == 0
    docs = {}
    for name in ("ed3", "ed4", "cloud"):
        text = (out_dir / f"routes-{name}.yaml").read_text(encoding="utf-8")
        golden = (GOLDEN / f"routes-{name}.yaml").read_text(encoding="utf-8")
        assert text == golden, f"routes-{name}.yaml deviates from golden file"
        docs[name] = yaml.safe_load(text)

    node_domain = domain_of_nodes(canonical.graph)

    def routes_for(domain, host):
        for vs in docs[domain]["virtual_services"]:
            if vs["host"] == host:
                return vs["routes"]
        return []

    # ingress rules differ per domain and never leave it
    m2_rules = {d: routes_for(d, "m2") for d in ("ed3", "ed4")}
    for domain, rules in m2_rules.items():
        assert len(rules) == 1
        dests = {e["node"] for e in rules[0]["destinations"]}
        assert {node_domain[n] for n in dests} == {domain}
    assert m2_rules["ed3"] != m2_rules["ed4"]

    # the regional tier is load-balanced identically from both edge domains
    m3_ed3 = [r for r in routes_for("ed3", "m3") if r["source"] == "m2"]
    m3_ed4 = [r for r in routes_for("ed4", "m3") if r["source"] == "m2"]
    assert m3_ed3 == m3_ed4 and len(m3_ed3) == 1
    m3_domains = {node_domain[e["node"]] for e in m3_ed3[0]["destinations"]}
    assert m3_domains == {"ed3", "ed4"}

    # the cloud tier is reached across regions
    m5 = routes_for("ed4", "m5")
    assert len(m5) == 1
    m5_domains = {node_domain[e["node"]] for e in m5[0]["destinations"]}
    assert m5_domains == {"cloud"}
    src_region = canonical.graph.domains["ed4"].region_id
    dst_region = canonical.graph.domains["cloud"].region_id
    assert src_region != dst_region
    print("[criterion 2] PASS - golden match; m2 rules per-domain only, "
          "m3 spread identical across ed3/ed4 spanning both, "
          "m5 destinations cross-region in cloud")


def test_criterion_3_canonical_flows(tmp_path, canonical):
    out = tmp_path / "report.json"
    assert main(["simulate", "--scenario", CANONICAL, "--out", str(out),
                 "--format", "json", "--quiet"]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    node_domain = domain_of_nodes(canonical.graph)

    m2_cross = [r for r in report["flows"]
                if r["microservice"] == "m2"
                and node_domain[r["node"]] != r["source_domain"]]
    assert m2_cross == []

    m3_ed4_to_ed3 = sum(r["rps"] for r in report["flows"]
                        if r["microservice"] == "m3"
                        and r["source_domain"] == "ed4"
                        and node_domain[r["node"]] == "ed3")
    assert m3_ed4_to_ed3 > 0

    m5_edge_to_cloud = sum(r["rps"] for r in report["flows"]
                           if r["microservice"] == "m5"
                           and r["source_domain"] in ("ed3", "ed4")
                           and node_domain[r["node"]] == "cloud")
    assert m5_edge_to_cloud > 0
    assert report["violations"] == []
    print(f"[criterion 3] PASS - cross-domain m2 rps = 0, "
          f"ed4->ed3 m3 rps = {m3_ed4_to_ed3}, "
          f"edge->cloud m5 rps = {m5_edge_to_cloud}")


def test_criterion_4_policy_engine_soundness():
    rng = random.Random(40)
    cases = 0
    comparisons = 0
    while cases < 500:
        topo_doc, app_doc, policy_doc, demand_doc = gen_case(rng)
        graph, app, pset, _ = build(topo_doc, app_doc, policy_doc, demand_doc)
        assert len(graph.domains) <= 6
        ms_ids = [m["id"] for m in app_doc["microservices"] if not m.get("iot")]
        for ms_id in ms_ids:
            allowed = oracle_eligible(graph, policy_doc, ms_id, None, "global")
            assert eligible_domains_for_anchor(pset, ms_id, "global", graph) == allowed
            comparisons += 1
            for domain_id in graph.domains:
                for level in (LocalityLevel.STRICT_DOMAIN, LocalityLevel.STRICT_REGION):
                    anchor = graph.anchor_of(domain_id, level)
                    got = eligible_domains_for_anchor(pset, ms_id, anchor, graph)
                    want = oracle_eligible(graph, policy_doc, ms_id, domain_id, level.value)
                    assert got == want
                    comparisons += 1
            for domain_id in sorted(graph.domains):
                assert is_allowed(pset, ms_id, domain_id).allowed == (domain_id in allowed)
                comparisons += 1
        cases += 1
    print(f"[criterion 4] PASS - {cases} randomized cases, "
          f"{comparisons} comparisons, 100% agreement with brute force")


def test_criterion_5_compliance_by_construction():
    rng = random.Random(50)
    feasible = 0
    attempts = 0
    while feasible < 200:
        attempts += 1
        assert attempts < 2000, "generator kept producing infeasible cases"
        graph, app, pset, request = build(*gen_case(rng))
        try:
            plan = place_application(graph, app, request, pset)
        except InfeasiblePlacement:
            continue
        report = validate_plan(graph, app, pset, plan)
        assert report.ok, report.violations
        flows = route_flows(graph, app, plan, plan.demand)
        assert check_compliance(graph, pset, flows) == []
        feasible += 1
    print(f"[criterion 5] PASS - {feasible} fuzzed feasible plans "
          f"({attempts} generated), zero validation or flow violations")


def test_criterion_6_feasibility_matches_exhaustive_oracle():
    rng = random.Random(60)
    gaps = []
    inverse = []
    agree_feasible = 0
    agree_infeasible = 0
    for case_no in range(400):
        topo_doc, app_doc, policy_doc, demand_doc = gen_small_case(rng)
        graph, app, pset, request = build(topo_doc, app_doc, policy_doc, demand_doc)
        expected = oracle_feasible(graph, app, policy_doc, request.demand)
        try:
            plan = place_application(graph, app, request, pset)
            found = True
            assert validate_plan(graph, app, pset, plan).ok
        except InfeasiblePlacement:
            found = False
        if expected and not found:
            gaps.append((case_no, topo_doc, app_doc, policy_doc, demand_doc))
        elif found and not expected:
            inverse.append(case_no)
        elif expected:
            agree_feasible += 1
        else:
            agree_infeasible += 1
    assert not inverse, f"heuristic placed oracle-infeasible cases: {inverse}"
    assert not gaps, (
        f"heuristic missed {len(gaps)} feasible case(s); first reproducer: "
        f"{gaps[0] if gaps else None}"
    )
    print(f"[criterion 6] PASS - 400 small scenarios vs exhaustive oracle: "
          f"{agree_feasible} feasible + {agree_infeasible} infeasible, "
          f"zero gaps either way")


def test_criterion_7_conservation_and_linearity():
    rng = random.Random(70)
    runs = 0
    doubled_checked = 0
    attempts = 0
    while runs < 100:
        attempts += 1
        assert attempts < 1200
        docs = gen_case(rng)
        graph, app, pset, request = build(*docs)
        try:
            plan = place_application(graph, app, request, pset)
        except InfeasiblePlacement:
            continue
        flows = route_flows(graph, app, plan, plan.demand)

        # conservation: every service's inflow equals its sources' outflow
        incoming = {ms: 0 for ms in app.microservices}
        for (_, _, _, ms), rps in flows.rows.items():
            incoming[ms] += rps
        for ms in app.ingress_ids:
            offered = sum(per.get(ms, 0) for per in plan.demand.values())
            assert incoming[ms] == offered
        for ms_id, ms in app.microservices.items():
            if ms.placed_on_iot:
                continue
            for edge in app.successors(ms_id):
                forwarded = sum(rps for (_, src, _, tgt), rps
                                in flows.rows.items()
                                if src == ms_id and tgt == edge.to_ms)
                assert forwarded == incoming[ms_id] * edge.rate_ratio

        # linearity on the same plan: double demand, every row doubles
        doubled = {d: {m: r * 2 for m, r in per.items()}
                   for d, per in plan.demand.items()}
        flows2 = route_flows(graph, app, plan, doubled)
        assert set(flows2.rows) == set(flows.rows)
        for key, rps in flows.rows.items():
            assert flows2.rows[key] == rps * 2

        # replanning for doubled demand at most doubles instance counts
        request2 = type(request)(app=app, demand={
            d: {m: r * 2 for m, r in per.items()}
            for d, per in request.demand.items()})
        try:
            plan2 = place_application(graph, app, request2, pset)
        except InfeasiblePlacement:
            plan2 = None
        if plan2 is not None:
            for ms_id in plan.mapping.per_ms:
                base = sum(plan.mapping.instances_of(ms_id).values())
                grown = sum(plan2.mapping.instances_of(ms_id).values())
                assert grown <= 2 * base, (ms_id, base, grown)
            doubled_checked += 1
        runs += 1
    assert doubled_checked >= 50
    print(f"[criterion 7] PASS - {runs} runs conserved exactly (Fraction "
          f"math), flows double exactly, instance counts at most double "
          f"({doubled_checked} doubled replans)")


def test_criterion_8_observer_loop(surge):
    plan, report = run_scenario(
        surge.graph, surge.app, surge.policies, surge.request, surge.events,
        overload_threshold=surge.settings.overload_threshold)
    assert len(report.alerts) == 1
    assert report.alerts[0].kind == "demand_change"
    assert report.final_revision == 2  # exactly one increment over revision 1
    capacity = surge.app.microservices["m2"].capacity_rps
    expected = math.ceil(200 / capacity)  # demand in ed3 doubled from 100
    got = plan.mapping.per_ms["m2"]["ed3"].total_instances
    assert got == expected == 4
    assert report.violations == []
    assert report.halted is None
    print(f"[criterion 8] PASS - one alert, revision 1->2, "
          f"m2@ed3 = {got} = ceil(200/{capacity}), zero violations")


def test_criterion_9_wire_conformance(canonical):
    pset, graph = canonical.policies, canonical.graph
    server = make_server(pset, graph)
    import threading
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    pairs = 0
    try:
        ms_ids = ["m1", "m2", "m3", "m4", "m5"]
        get_paths = [["placement_restriction", m] for m in ms_ids]
        get_paths += [["iot_locality", m] for m in ms_ids]
        get_paths += [["ms_locality", a, b]
                      for a, b in (("m1", "m2"), ("m2", "m3"), ("m3", "m4"),
                                   ("m4", "m5"), ("m2", "m5"), ("m5", "m2"),
                                   ("m1", "m5"), ("m3", "m2"), ("m4", "m2"),
                                   ("m5", "m4"))]
        get_paths += [["firewall", "m2"], ["iot_locality"],
                      ["ms_locality", "m2"], ["placement_restriction", "m2", "x"]]
        for parts in get_paths:
            status, payload = data_response(pset, graph, parts)
            url = base + "/v1/data/" + "/".join(parts)
            try:
                with urllib.request.urlopen(url) as resp:
                    wire_status, body = resp.status, resp.read()
            except urllib.error.HTTPError as err:
                wire_status, body = err.code, err.read()
            assert (wire_status, body) == (status, canonical_json(payload)), parts
            pairs += 1

        eval_bodies = []
        for m in ms_ids:
            for d in ("ed3", "ed4", "cloud"):
                eval_bodies.append(json.dumps({
                    "policy": "placement_restriction",
                    "input": {"microservice": m, "domain": d}}).encode())
        for src, dst in (("ed3", "ed3"), ("ed3", "ed4"),
                         ("ed4", "cloud"), ("cloud", "ed3")):
            eval_bodies.append(json.dumps({
                "policy": "iot_locality",
                "input": {"microservice": "m2", "device_domain": src,
                          "target_domain": dst}}).encode())
            eval_bodies.append(json.dumps({
                "policy": "ms_locality",
                "input": {"consumer": "m2", "consumed": "m3",
                          "consumer_domain": src, "target_domain": dst}}).encode())
        eval_bodies += [
            b"{nope",
            b"[1,2]",
            b'{"policy": "iot_locality"}',
            b'{"policy": "iot_locality", "input": []}',
            b'{"policy": "authz", "input": {}}',
            b'{"policy": "placement_restriction", "input": {"microservice": "m2"}}',
        ]
        for body in eval_bodies:
            status, payload = evaluate_response(pset, graph, body)
            req = urllib.request.Request(base + "/v1/evaluate", data=body,
                                         method="POST")
            try:
                with urllib.request.urlopen(req) as resp:
                    wire_status, wire_body = resp.status, resp.read()
            except urllib.error.HTTPError as err:
                wire_status, wire_body = err.code, err.read()
            assert (wire_status, wire_body) == (status, canonical_json(payload))
            pairs += 1
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert pairs >= 50
    print(f"[criterion 9] PASS - {pairs} wire pairs byte-identical to "
          f"in-process canonical serialization (defaults and 400s included)")

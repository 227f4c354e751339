import random
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from edgeplane import controlplane, meshsim, search
from edgeplane.appmodel import PlacementRequest, app_from_doc, as_rate
from edgeplane.controlplane import (
    Alert,
    ControlPlane,
    RoutingRule,
    RoutingRuleSet,
    place_application,
    validate_plan,
)
from edgeplane.documents import dump_doc, plan_to_doc, report_to_doc
from edgeplane.errors import InfeasiblePlacement, MissingRoute
from edgeplane.locality import IOT_SOURCE, LocalityLevel
from edgeplane.meshsim import (
    FlowAssignment,
    ScenarioEvent,
    check_compliance,
    node_utilization,
    route_flows,
    run_scenario,
)
from edgeplane.topology import load_topology

from .support import (
    build,
    gen_case,
    gen_chain_app,
    gen_dag_app,
    oracle_routed_totals,
    reference_node_utilization,
    reference_route_flows,
    reference_run_scenario,
)


F = Fraction


@pytest.fixture
def canonical_flows(canonical):
    plan = ControlPlane(canonical.graph, canonical.app, canonical.policies) \
        .place(canonical.request)
    flows = route_flows(canonical.graph, canonical.app, plan, plan.demand)
    return canonical, plan, flows


# Hand-derived expected rows for the published scenario.  Splitting is exact:
# 100 rps from ed3 over the (2, 3, 1) spread gives thirds and sixths.
CANONICAL_ROWS = {
    ("ed3", "iot", "ed3-n1", "m2"): F(100),
    ("ed4", "iot", "ed4-n1", "m2"): F(200),
    ("ed3", "m2", "ed3-n1", "m3"): F(100, 3),
    ("ed3", "m2", "ed3-n2", "m3"): F(50),
    ("ed3", "m2", "ed4-n1", "m3"): F(50, 3),
    ("ed4", "m2", "ed3-n1", "m3"): F(200, 3),
    ("ed4", "m2", "ed3-n2", "m3"): F(100),
    ("ed4", "m2", "ed4-n1", "m3"): F(100, 3),
    ("ed3", "m3", "ed4-n2", "m4"): F(250),
    ("ed4", "m3", "ed4-n2", "m4"): F(50),
    ("ed4", "m4", "cl-n1", "m5"): F(100),
    ("ed4", "m4", "cl-n2", "m5"): F(100),
    ("ed4", "m4", "cl-n3", "m5"): F(100),
}


def test_route_flows_canonical_exact(canonical_flows):
    _, _, flows = canonical_flows
    assert flows.rows == CANONICAL_ROWS


def test_canonical_node_loads(canonical_flows):
    _, _, flows = canonical_flows
    served = {}
    for (_, _, node, ms), rps in flows.rows.items():
        served[node, ms] = served.get((node, ms), 0) + rps
    assert served[("ed3-n1", "m3")] == F(100)
    assert served[("ed3-n2", "m3")] == F(150)
    assert served[("ed4-n1", "m3")] == F(50)
    assert served[("ed4-n2", "m4")] == F(300)
    assert served[("cl-n1", "m5")] == F(100)


def test_canonical_flow_isolation(canonical_flows):
    _, _, flows = canonical_flows
    # strict-domain ingress: no m2 row crosses domains
    for (src_dom, src, node, ms), rps in flows.rows.items():
        if ms == "m2":
            assert node.startswith(src_dom.replace("ed", "ed")) or True
    graph = canonical_flows[0].graph
    for (src_dom, src, node, ms), rps in flows.rows.items():
        if ms == "m2" and rps > 0:
            assert graph.nodes[node].domain_id == src_dom
    # m3 flows stay inside region-2 but do cross domains both ways
    cross = {(src_dom, graph.nodes[node].domain_id)
             for (src_dom, _, node, ms) in flows.rows if ms == "m3"}
    assert ("ed4", "ed3") in cross and ("ed3", "ed4") in cross
    for src_dom, dst_dom in cross:
        assert graph.domains[dst_dom].region_id == "region-2"
    # the cloud hop leaves the edge region
    assert all(graph.nodes[node].domain_id == "cloud"
               for (_, _, node, ms) in flows.rows if ms == "m5")


def test_flows_table_sorted_and_plain(canonical):
    _, report = run_scenario(canonical.graph, canonical.app, canonical.policies,
                             canonical.request, canonical.events)
    table = report_to_doc(report)["flows"]
    assert len(table) == 13
    keys = [(r["source_domain"], r["source"], r["node"], r["microservice"])
            for r in table]
    assert keys == sorted(keys)
    row = next(r for r in table
               if r["source"] == "m2" and r["node"] == "ed3-n1")
    assert row["rps"] == pytest.approx(100 / 3)
    exact = next(r for r in table
                 if r["source_domain"] == "ed4" and r["node"] == "ed3-n2")
    assert exact["rps"] == 100 and isinstance(exact["rps"], int)


def test_route_flows_is_linear(canonical_flows):
    scenario, plan, flows = canonical_flows
    doubled = {d: {ms: rps * 2 for ms, rps in per.items()}
               for d, per in plan.demand.items()}
    flows2 = route_flows(scenario.graph, scenario.app, plan, doubled)
    assert set(flows2.rows) == set(flows.rows)
    for key, rps in flows.rows.items():
        assert flows2.rows[key] == rps * 2


def test_missing_ingress_route(canonical_flows):
    scenario, plan, _ = canonical_flows
    plan.routes = RoutingRuleSet(tuple(
        r for r in plan.routes.rules
        if not (r.domain_id == "ed4" and r.consumer == "iot")))
    with pytest.raises(MissingRoute, match="ed4"):
        route_flows(scenario.graph, scenario.app, plan, plan.demand)


def test_missing_midchain_route(canonical_flows):
    scenario, plan, _ = canonical_flows
    plan.routes = RoutingRuleSet(tuple(
        r for r in plan.routes.rules
        if not (r.domain_id == "ed3" and r.consumer == "m2")))
    with pytest.raises(MissingRoute, match="m2->m3"):
        route_flows(scenario.graph, scenario.app, plan, plan.demand)


@pytest.mark.parametrize("weights", [(0, 0, 0), (2, -2, 0)])
def test_route_whose_weights_sum_to_zero_is_missing(canonical_flows, weights):
    scenario, plan, _ = canonical_flows
    key = ("ed3", "m2", "m3")
    plan.routes = RoutingRuleSet(tuple(
        replace(r, destinations=tuple(
            (n, w) for (n, _), w in zip(r.destinations, weights, strict=True)))
        if (r.domain_id, r.consumer, r.target_ms) == key else r
        for r in plan.routes.rules))
    with pytest.raises(MissingRoute, match="^route ed3/m2->m3 has no usable weights$"):
        route_flows(scenario.graph, scenario.app, plan, plan.demand)
    # only a rule that carries traffic needs usable weights: m2 in ed3 serves ed3 alone
    quiet = {**plan.demand, "ed3": {ms: Fraction(0) for ms in plan.demand["ed3"]}}
    rows = route_flows(scenario.graph, scenario.app, plan, quiet).rows
    assert rows and not any(row[:2] == key[:2] for row in rows)


def test_zero_demand_needs_no_routes(canonical):
    plan = ControlPlane(canonical.graph, canonical.app, canonical.policies) \
        .place(canonical.request)
    silent = {d: {ms: Fraction(0) for ms in per} for d, per in plan.demand.items()}
    flows = route_flows(canonical.graph, canonical.app, plan, silent)
    assert flows.rows == {}
    assert sum(flows.rows.values()) == 0


def test_utilization_frozen(canonical):
    graph, app = canonical.graph, canonical.app

    def util_of(rows):
        flows = FlowAssignment()
        for ms, rps in rows.items():
            flows.rows[("ed3", "iot", "ed3-n1", ms)] = rps
        return node_utilization(graph, app, flows)["ed3-n1"]  # 3500 millicores

    # m2 costs 500/50 = 10 millicores per rps
    assert util_of({"m2": F(175)}) == F(1, 2)
    assert util_of({"m2": F(175, 2)}) == F(1, 4)
    assert util_of({}) == 0
    # mixed services accumulate: m3 costs 1000/50 = 20 m per rps
    assert util_of({"m2": F(100), "m3": F(100)}) == F(3000, 3500)


def test_canonical_rated_utilization(canonical_flows):
    scenario, _, flows = canonical_flows
    util = node_utilization(scenario.graph, scenario.app, flows)
    assert list(util) == sorted(scenario.graph.nodes)
    assert all(isinstance(u, Fraction) for u in util.values())
    assert util["ed3-n2"] == 1
    assert util["ed4-n2"] == 1
    assert util["cl-n1"] == util["cl-n2"] == util["cl-n3"] == 1
    assert util["ed3-n1"] == F(6, 7)
    assert util["ed4-n1"] == F(6, 7)


# --- compliance auditing ---


def test_compliance_clean(canonical_flows):
    scenario, _, flows = canonical_flows
    assert check_compliance(scenario.graph, scenario.policies, flows) == []


def test_compliance_flags_restricted_domain(canonical_flows):
    scenario, _, flows = canonical_flows
    flows.rows[("cloud", "iot", "cl-n1", "m2")] = F(10)  # m2 is edge-only
    violations = check_compliance(scenario.graph, scenario.policies, flows)
    assert any(v.kind == "placement" and "cl-n1" in v.subject for v in violations)


def test_compliance_flags_domain_leak(canonical_flows):
    scenario, _, flows = canonical_flows
    # iot->m2 is strict-domain; a hop from ed3 into ed4 leaks
    flows.rows[("ed3", "iot", "ed4-n1", "m2")] = F(5)
    violations = check_compliance(scenario.graph, scenario.policies, flows)
    assert any(v.kind == "locality" and "strict-domain" in v.detail
               for v in violations)


def test_compliance_flags_region_leak(canonical_flows):
    scenario, _, flows = canonical_flows
    # m2->m3 is strict-region; cloud is in another region.  The row also
    # breaches m3's placement restriction, so both kinds surface.
    flows.rows[("ed3", "m2", "cl-n1", "m3")] = F(5)
    violations = check_compliance(scenario.graph, scenario.policies, flows)
    kinds = {v.kind for v in violations}
    assert kinds == {"placement", "locality"}


def test_compliance_ignores_zero_rows(canonical_flows):
    scenario, _, flows = canonical_flows
    flows.rows[("ed3", "iot", "ed4-n1", "m2")] = F(0)
    assert check_compliance(scenario.graph, scenario.policies, flows) == []


# --- conservation over fuzzed cases ---


def test_flow_conservation_fuzzed():
    rng = random.Random(20260817)
    checked = 0
    attempts = 0
    while checked < 25 and attempts < 200:
        attempts += 1
        graph, app, pset, request = build(*gen_case(rng))
        try:
            plan = place_application(graph, app, request, pset)
        except InfeasiblePlacement:
            continue
        flows = route_flows(graph, app, plan, plan.demand)
        incoming = {ms: Fraction(0) for ms in app.microservices}
        for (_, _, node, ms), rps in flows.rows.items():
            incoming[ms] += rps
        # ingress matches offered demand
        for ms in app.ingress_ids:
            offered = sum((per.get(ms, Fraction(0))
                           for per in plan.demand.values()), Fraction(0))
            assert incoming[ms] == offered
        # each edge forwards exactly ratio * the consumer's incoming load
        for ms_id, ms in app.microservices.items():
            if ms.placed_on_iot:
                continue
            for edge in app.successors(ms_id):
                assert incoming[edge.to_ms] >= 0
                expected = incoming[ms_id] * edge.rate_ratio
                # other consumers may feed the same target; sum over sources
                from_this = sum(
                    (rps for (_, src, _, tgt), rps in flows.rows.items()
                     if src == ms_id and tgt == edge.to_ms), Fraction(0))
                assert from_this == expected
        checked += 1
    assert checked == 25


def test_flow_conservation_on_dags():
    """Fan-in sums several routes into one microservice, fan-out copies one
    total onto several edges: each microservice's routed total must equal
    the recurrence over the raw documents.  Unplaced cases are skipped; the
    search decides every case of this stream at the full budget."""
    rng = random.Random(20261018)
    checked = attempts = 0
    while checked < 50 and attempts < 200:
        attempts += 1
        topo_doc, app_doc, policy_doc, demand_doc = gen_case(rng, gen_app=gen_dag_app)
        graph, app, pset, request = build(topo_doc, app_doc, policy_doc, demand_doc)
        try:
            plan = place_application(graph, app, request, pset)
        except InfeasiblePlacement:
            continue
        flows = route_flows(graph, app, plan, plan.demand)
        expected = oracle_routed_totals(app_doc, demand_doc)
        routed = dict.fromkeys(expected, F(0))
        for (_, _, _, ms), rps in flows.rows.items():
            routed[ms] += rps
        assert routed == expected, attempts
        assert check_compliance(graph, pset, flows) == [], attempts
        checked += 1
    assert checked == 50


# --- integer arithmetic against the Fraction reference ---


def assert_routes_as_reference(graph, app, plan, demand):
    """Rows (values and insertion order) and utilizations equal the Fraction reference's."""
    flows = route_flows(graph, app, plan, demand)
    want = reference_route_flows(graph, app, plan, demand)
    assert list(flows.rows.items()) == list(want.rows.items())
    assert all(type(rps) is Fraction for rps in flows.rows.values())
    load = node_utilization(graph, app, flows)
    assert list(load.items()) == list(reference_node_utilization(graph, app, want).items())
    assert all(type(u) is Fraction for u in load.values())
    return flows


@pytest.mark.parametrize("gen_app", [gen_chain_app, gen_dag_app], ids=["chain", "dag"])
def test_integer_routing_matches_the_fraction_reference(gen_app):
    """Placed generated cases, at their own demand and at a fractional one."""
    placed = 0
    for seed in range(40):
        graph, app, pset, request = build(*gen_case(random.Random(seed), gen_app=gen_app))
        try:
            plan = place_application(graph, app, request, pset)
        except InfeasiblePlacement:
            continue
        scaled = {d: {ms: as_rate(float(rps) * 3.7) for ms, rps in per.items()}
                  for d, per in plan.demand.items()}
        for demand in (plan.demand, scaled):
            assert assert_routes_as_reference(graph, app, plan, demand).rows, seed
        placed += 1
    assert placed >= 30


def test_integer_routing_matches_the_fraction_reference_on_a_deep_chain():
    """Five hops over coprime weights 7, 11 and 13, spread differently from
    each of two domains, and ratios 1/3 and 2/7, fed at coprime demands, so
    the exact values keep a factor of each split's total weight.  A
    destination of weight 0 gets no row."""
    graph = load_topology({
        "regions": [{"id": "r", "domains": ["d0", "d1"]}],
        "domains": [{"id": d, "region": "r", "admin": d, "kind": "edge"} for d in ("d0", "d1")],
        "nodes": [{"id": n, "domain": d, "cpu_m": 4000, "mem_mi": 8192}
                  for n, d in (("n0", "d0"), ("n1", "d1"), ("n2", "d0"), ("n3", "d1"))],
        "attachments": [{"id": "iot0", "domain": "d0"}, {"id": "iot1", "domain": "d1"}],
    })
    chain = [f"m{i}" for i in range(6)]
    app = app_from_doc({
        "id": "deep",
        "microservices": [{"id": m, "cpu_m": 300, "mem_mi": 64, "capacity_rps": 9} for m in chain],
        "edges": [{"from": a, "to": b, "ratio": (F(1, 3), F(2, 7))[i % 2]}
                  for i, (a, b) in enumerate(zip(chain, chain[1:]))],
        "ingress": ["m0"],
    })
    assert [e.rate_ratio for e in app.edges[:2]] == [F(1, 3), F(2, 7)]
    spread = {"d0": (("n0", 7), ("n1", 11), ("n2", 13)),
              "d1": (("n0", 11), ("n1", 13), ("n2", 7), ("n3", 0))}
    rules = [RoutingRule(d, IOT_SOURCE, "m0", LocalityLevel.GLOBAL, spread[d]) for d in spread]
    rules += [RoutingRule(d, a, b, LocalityLevel.GLOBAL, spread[d])
              for a, b in zip(chain, chain[1:]) for d in spread]
    plan = SimpleNamespace(routes=RoutingRuleSet(tuple(rules)))
    demand = {"d0": {"m0": F(100, 3)}, "d1": {"m0": F(5, 17)}}
    flows = assert_routes_as_reference(graph, app, plan, demand)
    assert len(flows.rows) == 2 * 3 * len(chain)
    assert any(rps.denominator % 31 ** 6 == 0 for rps in flows.rows.values())  # one 31 per split


# --- closed-loop runs ---


def test_run_scenario_canonical(canonical):
    plan, report = run_scenario(
        canonical.graph, canonical.app, canonical.policies, canonical.request,
        canonical.events, overload_threshold=canonical.settings.overload_threshold)
    assert report.ticks == 1
    assert report.final_revision == 1
    assert report.alerts == []
    assert report.violations == []
    assert report.halted is None
    assert len(report.utilization) == 1  # one tick
    assert list(report.utilization[0]) == sorted(canonical.graph.nodes)
    assert report.utilization[0]["ed3-n1"] == F(6, 7)
    assert report.flows.rows == CANONICAL_ROWS
    throughput = report_to_doc(report)["throughput"]
    assert all(entry["satisfied"] for entry in throughput)
    m3 = next(e for e in throughput if e["microservice"] == "m3")
    assert m3 == {"microservice": "m3", "anchor": "region-2",
                  "level": "strict-region", "demand_rps": 300,
                  "capacity_rps": 300, "satisfied": True}


def test_run_scenario_surge(surge):
    plan, report = run_scenario(
        surge.graph, surge.app, surge.policies, surge.request, surge.events,
        overload_threshold=surge.settings.overload_threshold)
    assert report.ticks == 6
    assert report.final_revision == 2
    assert [a.kind for a in report.alerts] == ["demand_change"]
    assert report.alerts[0].tick == 5
    assert report.violations == []
    assert report.halted is None
    # 6 ticks x 3 nodes
    assert len(report.utilization) == 6
    assert all(len(tick) == 3 for tick in report.utilization)
    # after the surge the affected anchor is scaled for 200 rps
    assert plan.mapping.per_ms["m2"]["ed3"].demand_rps == F(200)
    assert plan.mapping.per_ms["m2"]["ed3"].total_instances == 4
    assert all(entry["satisfied"] for entry in report_to_doc(report)["throughput"])
    # flows of the final tick reflect the new demand
    assert report.flows.rows[("ed3", "iot", "ed3-n1", "m2")] == F(200)


def test_run_scenario_drain_and_recover():
    topo = {
        "regions": [{"id": "r1", "domains": ["dd"]}],
        "domains": [{"id": "dd", "region": "r1", "admin": "a", "kind": "edge"}],
        "nodes": [
            {"id": "n1", "domain": "dd", "cpu_m": 1000, "mem_mi": 8192},
            {"id": "n2", "domain": "dd", "cpu_m": 2000, "mem_mi": 8192},
        ],
        "attachments": [{"id": "iot1", "domain": "dd"}],
    }
    app = {
        "id": "drainable",
        "microservices": [
            {"id": "io", "iot": True},
            {"id": "a", "cpu_m": 500, "mem_mi": 512, "capacity_rps": 50},
        ],
        "edges": [{"from": "io", "to": "a"}],
        "ingress": ["a"],
    }
    policies = {"iot_locality": [{"microservice": "a", "level": "strict-domain"}]}
    graph, dag, pset, request = build(topo, app, policies, {"dd": {"a": 100}})
    events = [ScenarioEvent(kind="drain_node", tick=1, node="n2")]
    plan, report = run_scenario(graph, dag, pset, request, events,
                                overload_threshold=1.5)
    assert report.ticks == 2
    assert report.final_revision == 2
    assert [a.kind for a in report.alerts] == ["node_drain"]
    assert plan.mapping.instances_of("a") == {"n1": 2}
    assert report.violations == []
    assert report.halted is None


def test_run_scenario_halts_when_drain_unrecoverable():
    topo = {
        "regions": [{"id": "r1", "domains": ["dd"]}],
        "domains": [{"id": "dd", "region": "r1", "admin": "a", "kind": "edge"}],
        "nodes": [
            {"id": "n1", "domain": "dd", "cpu_m": 1000, "mem_mi": 8192},
            {"id": "n2", "domain": "dd", "cpu_m": 500, "mem_mi": 8192},
        ],
        "attachments": [{"id": "iot1", "domain": "dd"}],
    }
    app = {
        "id": "stuck",
        "microservices": [
            {"id": "io", "iot": True},
            {"id": "a", "cpu_m": 1000, "mem_mi": 512, "capacity_rps": 50},
        ],
        "edges": [{"from": "io", "to": "a"}],
        "ingress": ["a"],
    }
    policies = {"iot_locality": [{"microservice": "a", "level": "strict-domain"}]}
    graph, dag, pset, request = build(topo, app, policies, {"dd": {"a": 50}})
    events = [ScenarioEvent(kind="drain_node", tick=1, node="n1")]
    plan, report = run_scenario(graph, dag, pset, request, events,
                                overload_threshold=1.5)
    assert report.halted is not None
    assert report.halted["tick"] == 1
    assert "cannot place" in report.halted["reason"]
    # the loop stopped: utilization only for the pre-drain tick
    assert len(report.utilization) == 1
    assert report.final_revision == 1


def test_run_scenario_overload_alert(canonical):
    # at rated load every packed node sits at utilization 1.0; a 0.8
    # threshold makes the observer fire exactly one overload replan
    plan, report = run_scenario(
        canonical.graph, canonical.app, canonical.policies, canonical.request,
        canonical.events, overload_threshold=0.8)
    assert [a.kind for a in report.alerts] == ["overload"]
    alert = report.alerts[0]
    # worst node: highest utilization, id breaks the tie among the 1.0 nodes
    assert alert.payload["node"] == "cl-n1"
    assert alert.payload["utilization"] == pytest.approx(1.0)
    assert report.final_revision == 2
    # the replan is a no-op on counts, so flows and compliance are unchanged
    assert report.flows.rows == CANONICAL_ROWS
    assert report.violations == []
    report_plan = plan
    assert report_plan.mapping.instances_of("m2") == {"ed3-n1": 2, "ed4-n1": 4}


def test_overload_threshold_is_strict(canonical):
    # the busiest nodes sit at exactly 1: only a load above the threshold alerts
    _, report = run_scenario(
        canonical.graph, canonical.app, canonical.policies, canonical.request,
        canonical.events, overload_threshold=1)
    assert report.alerts == []
    assert max(report.utilization[0].values()) == 1


def test_run_scenario_set_demand_event_updates_alert_payload(surge):
    plan, report = run_scenario(
        surge.graph, surge.app, surge.policies, surge.request, surge.events,
        overload_threshold=surge.settings.overload_threshold)
    payload = report.alerts[0].payload
    # full demand snapshot, not a delta
    assert payload["demand"]["ed3"]["m2"] == F(200)
    assert payload["demand"]["ed4"]["m2"] == F(200)


# --- reuse of unchanged ticks, against the loop that recomputes every tick ---


class DrainHotNode(ControlPlane):
    """Answers an overload by draining the hot node, so that replan moves rules."""

    def handle_alert(self, plan, alert):
        if alert.kind == "overload":
            alert = Alert("node_drain", {"node": alert.payload["node"]}, alert.tick)
        return super().handle_alert(plan, alert)


def churn_events(rng, graph, request, ticks=8):
    """Seeded events on ticks 1..ticks-1: quiet ticks, demand changes, one
    change to the value already set (on tick 2) and drains."""
    demand = {d: dict(per) for d, per in request.demand.items()}
    keys = [(d, m) for d in sorted(demand) for m in sorted(demand[d])]
    nodes = sorted(graph.nodes)
    events = []
    for tick in range(1, ticks):
        roll = rng.random()
        if tick == 2 or 0.4 <= roll < 0.8:
            domain, ms_id = rng.choice(keys)
            rps = demand[domain][ms_id] if tick == 2 else F(rng.choice((0, 25, 50, 100, 150)))
            demand[domain][ms_id] = rps
            events.append(ScenarioEvent(kind="set_demand", tick=tick, domain=domain,
                                        microservice=ms_id, rps=rps))
        elif roll >= 0.8:
            events.append(ScenarioEvent(kind="drain_node", tick=tick, node=rng.choice(nodes)))
    return events


def run_both(graph, app, pset, request, events, control_cls=ControlPlane, threshold=0.3):
    """``run_scenario`` and the reference loop on the same inputs, each with its own control plane."""
    return [run(graph, app, pset, request, events, control_cls(graph, app, pset),
                overload_threshold=threshold)
            for run in (run_scenario, reference_run_scenario)]


def assert_same_run(got, want):
    (plan, report), (ref_plan, ref) = got, want
    assert report.flows.rows == ref.flows.rows
    assert report.utilization == ref.utilization
    assert len({id(load) for load in report.utilization}) == len(report.utilization)
    assert report.violations == ref.violations
    assert report.alerts == ref.alerts
    assert (report.final_revision, report.ticks, report.halted) == \
        (ref.final_revision, ref.ticks, ref.halted)
    assert plan.routes.rules == ref_plan.routes.rules
    assert dump_doc(report_to_doc(report)) == dump_doc(report_to_doc(ref))


@pytest.mark.parametrize("gen_app", [gen_chain_app, gen_dag_app], ids=["chain", "dag"])
def test_reusing_ticks_matches_recomputing_every_tick(gen_app, monkeypatch):
    """Quiet ticks, repeated demand, drains and overload replans that keep the
    rules reuse the last routing; reports stay those of the recomputing loop."""
    routed = []
    monkeypatch.setattr(meshsim, "route_flows",
                        lambda *args: routed.append(1) or route_flows(*args))
    kinds, halts, ticks, runs = set(), 0, 0, 0
    for seed in range(30):
        rng = random.Random(seed)
        graph, app, pset, request = build(*gen_case(rng, gen_app=gen_app))
        events = churn_events(rng, graph, request)
        try:
            got, want = run_both(graph, app, pset, request, events)
        except InfeasiblePlacement:
            continue
        assert_same_run(got, want)
        report = want[1]
        kinds |= {a.kind for a in report.alerts}
        halts += report.halted is not None
        ticks += len(report.utilization)
        runs += 1
    assert runs >= 20 and halts and kinds == {"demand_change", "node_drain", "overload"}
    assert len(routed) < ticks  # some tick reused the last routing


def test_overload_replan_that_moves_rules_reroutes(canonical):
    """A replan that changes the rules re-routes at once, so the report's flows
    are the final plan's, and the next tick measures and audits the new flows."""
    c = canonical
    repeat = ScenarioEvent(kind="set_demand", tick=3, domain="ed3", microservice="m2",
                           rps=c.request.demand["ed3"]["m2"])
    for events in ([], [repeat]):
        got, want = run_both(c.graph, c.app, c.policies, c.request, events,
                             control_cls=DrainHotNode, threshold=0.8)
        assert_same_run(got, want)
        plan, report = want
        assert report.alerts[0].kind == "overload"
        assert plan.drained and report.flows.rows != CANONICAL_ROWS
    assert report.utilization[1]["cl-n1"] == 0  # tick 1 measured the flows after the drain


def test_overload_replans_that_move_rules_match_on_generated_cases():
    """Quiet ticks up to one repeated demand: each overload drains the hot
    node, and a run that overloads twice routed and measured after a drain."""
    overloads = []
    for seed in range(30):
        graph, app, pset, request = build(*gen_case(random.Random(seed)))
        domain, per = min(request.demand.items())
        ms_id = min(per)
        events = [ScenarioEvent(kind="set_demand", tick=4, domain=domain, microservice=ms_id,
                                rps=per[ms_id])]
        try:
            got, want = run_both(graph, app, pset, request, events, control_cls=DrainHotNode)
        except InfeasiblePlacement:
            continue
        assert_same_run(got, want)
        overloads.append(sum(a.kind == "overload" for a in want[1].alerts))
    assert len(overloads) >= 20 and sum(overloads) >= 10 and max(overloads) >= 2


# --- replans that move nothing, against the replan that always searches ---


class FullReplan(ControlPlane):
    """Replans every alert through the module-level handle_alert."""

    def handle_alert(self, plan, alert):
        return controlplane.handle_alert(self.graph, self.app, self.policies, plan, alert)


@pytest.mark.parametrize("gen_app", [gen_chain_app, gen_dag_app], ids=["chain", "dag"])
def test_skipped_replans_match_the_full_replan(gen_app, monkeypatch):
    """A control plane that hands back its last plan for overloads and
    unmoving demand changes gives the plan and report documents and the halts
    of one that always searches, routes and audits, with fewer searches."""
    searches = []
    reconcile = search._reconcile
    monkeypatch.setattr(search, "_reconcile",
                        lambda *args, **kwargs: searches.append(1) or reconcile(*args, **kwargs))
    counts = {ControlPlane: 0, FullReplan: 0}
    runs = halts = 0
    for seed in range(30):
        rng = random.Random(seed)
        graph, app, pset, request = build(*gen_case(rng, gen_app=gen_app))
        events = churn_events(rng, graph, request)
        docs = []
        for control_cls in (ControlPlane, FullReplan):
            before = len(searches)
            try:
                plan, report = run_scenario(graph, app, pset, request, events,
                                            control_cls(graph, app, pset), overload_threshold=0.3)
            except InfeasiblePlacement:
                break
            counts[control_cls] += len(searches) - before
            docs.append((dump_doc(plan_to_doc(plan)), dump_doc(report_to_doc(report)), report.halted))
        else:
            assert docs[0] == docs[1], seed
            runs += 1
            halts += docs[0][2] is not None
    assert runs >= 20 and halts
    assert counts[ControlPlane] < counts[FullReplan]

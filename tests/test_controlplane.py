import copy
import hashlib
import itertools
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from edgeplane import controlplane, search
from edgeplane.appmodel import PlacementRequest
from edgeplane.controlplane import (
    Alert,
    AnchorPlacement,
    ControlPlane,
    DeploymentPlan,
    PlacementMapping,
    RoutingRule,
    RoutingRuleSet,
    generate_routes,
    handle_alert,
    place_application,
    validate_plan,
)
from edgeplane.documents import dump_doc, plan_from_doc, plan_to_doc
from edgeplane.errors import (
    EdgeplaneError,
    InfeasiblePlacement,
    InvalidRequest,
    PlanningError,
    UnknownDomain,
    UnknownMicroservice,
    UnknownNode,
)
from edgeplane.locality import IOT_SOURCE, LocalityLevel
from edgeplane.meshsim import check_compliance, route_flows, run_scenario
from edgeplane.policy import evaluate_query
from edgeplane.scenario import load_scenario, read_yaml, scenario_from_doc
from edgeplane.search import (
    SEARCH_BUDGET,
    _anchor_demand,
    _Budget,
    _capacity_cut,
    _distributions,
    _fits,
    _Ledger,
    _Lookahead,
    _placement_sequence,
    _reconcile,
)

from .support import (
    ROOT,
    SCENARIOS,
    build,
    check_capacity_cut,
    gen_case,
    gen_chain_app,
    gen_dag_app,
    gen_policies,
    gen_small_case,
    gen_topology,
    iot_renamed,
    oracle_anchor_demand,
    oracle_sequence,
    oracle_topological_order,
)


# --- scenario helpers ---


def two_node_topo(cpu1=2000, cpu2=1000):
    return {
        "regions": [{"id": "r1", "domains": ["dd"]}],
        "domains": [{"id": "dd", "region": "r1", "admin": "a", "kind": "edge"}],
        "nodes": [
            {"id": "n1", "domain": "dd", "cpu_m": cpu1, "mem_mi": 8192},
            {"id": "n2", "domain": "dd", "cpu_m": cpu2, "mem_mi": 8192},
        ],
        "attachments": [{"id": "iot1", "domain": "dd"}],
    }


def free_cpu(graph, app, plan) -> dict[str, int]:
    """Each node's stated cpu minus what the plan's instances request of it."""
    free = {node.id: node.cpu_capacity for node in graph.nodes.values()}
    for ms_id in plan.mapping.per_ms:
        for node_id, k in plan.mapping.instances_of(ms_id).items():
            free[node_id] -= app.microservices[ms_id].cpu_req * k
    return free


# --- canonical placement (matches the published scenario) ---


def test_place_canonical_frozen(canonical):
    control = ControlPlane(canonical.graph, canonical.app, canonical.policies)
    plan = control.place(canonical.request)
    assert plan.revision == 1
    assert plan.mapping.instances_of("m2") == {"ed3-n1": 2, "ed4-n1": 4}
    assert plan.mapping.instances_of("m3") == {"ed3-n1": 2, "ed3-n2": 3, "ed4-n1": 1}
    assert plan.mapping.instances_of("m4") == {"ed4-n2": 3}
    assert plan.mapping.instances_of("m5") == {"cl-n1": 1, "cl-n2": 1, "cl-n3": 1}
    # anchors carry the demand they serve
    m2 = plan.mapping.per_ms["m2"]
    assert m2["ed3"].demand_rps == Fraction(100)
    assert m2["ed4"].demand_rps == Fraction(200)
    assert m2["ed3"].level is LocalityLevel.STRICT_DOMAIN
    assert plan.mapping.per_ms["m3"]["region-2"].demand_rps == Fraction(300)
    # the capacity the plan leaves free
    free = free_cpu(canonical.graph, canonical.app, plan)
    assert free["ed3-n1"] == 3500 - 2 * 500 - 2 * 1000
    assert free["cl-n1"] == 0


def test_placement_sequence_strictest_first(canonical):
    plan = place_application(canonical.graph, canonical.app, canonical.request,
                             canonical.policies)
    assert plan.mapping.order == ("m2", "m3", "m4", "m5")
    assert plan.mapping.per_ms["m2"]["ed3"].level is LocalityLevel.STRICT_DOMAIN
    assert plan.mapping.per_ms["m3"]["region-2"].level is LocalityLevel.STRICT_REGION


def test_sequence_orders_match_the_oracle_on_random_dags():
    """Fan-in/fan-out DAGs with shuffled ids, IoT sources feeding past the
    ingress set and tied levels: the placement sequence and the topological
    order agree with the oracle's own frontier loops.  Each DAG runs again
    with its IoT ids renamed to sort last and its first ingress fed by no
    IoT source, so a ready ingress waits on no IoT id."""
    for seed in range(400):
        rng = random.Random(seed)
        topo_doc, _ = gen_topology(rng)
        app_doc = gen_dag_app(rng)
        policy_doc = gen_policies(rng, app_doc, [d["id"] for d in topo_doc["domains"]])
        edited = iot_renamed(app_doc, "zz-io")
        edited["edges"] = [e for e in edited["edges"]
                           if not (e["from"].startswith("zz-io") and e["to"] == edited["ingress"][0])]
        for doc in (app_doc, edited):
            _, app, pset, _ = build(topo_doc, doc, policy_doc, {})
            assert app.topological_order() == oracle_topological_order(app), seed
            assert _placement_sequence(app, pset) == oracle_sequence(app, policy_doc), seed


def test_sequence_orders_parallel_branches_by_strictness():
    """With two independent ingress branches, the stricter one places first
    even though both are on the frontier from the start."""
    topo = two_node_topo(cpu1=8000, cpu2=8000)
    app = {
        "id": "twins",
        "microservices": [
            {"id": "io", "iot": True},
            {"id": "loose", "cpu_m": 100, "mem_mi": 128, "capacity_rps": 100},
            {"id": "tight", "cpu_m": 100, "mem_mi": 128, "capacity_rps": 100},
        ],
        "edges": [{"from": "io", "to": "loose"}, {"from": "io", "to": "tight"}],
        "ingress": ["loose", "tight"],
    }
    policies = {
        "iot_locality": [
            {"microservice": "loose", "level": "global"},
            {"microservice": "tight", "level": "strict-domain"},
        ],
    }
    graph, dag, pset, request = build(topo, app, policies,
                                      {"dd": {"loose": 50, "tight": 50}})
    plan = place_application(graph, dag, request, pset)
    assert plan.mapping.order == ("tight", "loose")


@pytest.mark.parametrize("rps, capacity_rps, instances", [
    (200, 50, 4),
    (101, 50, 3),
    (1, 50, 1),
    (0.1, 100, 1),
    (49.9, 50, 1),
])
def test_instances_are_the_ceiling_of_demand_over_capacity(rps, capacity_rps, instances):
    app = {
        "id": "one",
        "microservices": [
            {"id": "io", "iot": True},
            {"id": "a", "cpu_m": 100, "mem_mi": 128, "capacity_rps": capacity_rps},
        ],
        "edges": [{"from": "io", "to": "a"}],
        "ingress": ["a"],
    }
    graph, dag, pset, request = build(two_node_topo(), app, {}, {"dd": {"a": rps}})
    plan = place_application(graph, dag, request, pset)
    assert plan.mapping.total_instances("a") == instances


def test_zero_demand_places_nothing():
    topo = two_node_topo()
    app = {
        "id": "idle",
        "microservices": [
            {"id": "io", "iot": True},
            {"id": "a", "cpu_m": 500, "mem_mi": 512, "capacity_rps": 50},
        ],
        "edges": [{"from": "io", "to": "a"}],
        "ingress": ["a"],
    }
    graph, dag, pset, request = build(topo, app, {}, {"dd": {"a": 0}})
    plan = place_application(graph, dag, request, pset)
    assert plan.mapping.per_ms == {}
    assert plan.routes.rules == ()


# --- backtracking beyond plain first-fit ---


def backtrack_docs():
    topo = {
        "regions": [{"id": "r1", "domains": ["dd", "cl"]}],
        "domains": [
            {"id": "dd", "region": "r1", "admin": "a1", "kind": "edge"},
            {"id": "cl", "region": "r1", "admin": "a2", "kind": "cloud"},
        ],
        "nodes": [
            {"id": "dd-n1", "domain": "dd", "cpu_m": 1000, "mem_mi": 8192},
            {"id": "cl-n1", "domain": "cl", "cpu_m": 900, "mem_mi": 8192},
            {"id": "cl-n2", "domain": "cl", "cpu_m": 1000, "mem_mi": 8192},
        ],
        "attachments": [{"id": "iot1", "domain": "dd"}],
    }
    app = {
        "id": "needy",
        "microservices": [
            {"id": "io", "iot": True},
            {"id": "a", "cpu_m": 500, "mem_mi": 512, "capacity_rps": 100},
            {"id": "g", "cpu_m": 500, "mem_mi": 512, "capacity_rps": 100},
            {"id": "s", "cpu_m": 1000, "mem_mi": 512, "capacity_rps": 100},
        ],
        "edges": [{"from": "io", "to": "a"}, {"from": "a", "to": "g"},
                  {"from": "g", "to": "s"}],
        "ingress": ["a"],
    }
    policies = {
        "iot_locality": [{"microservice": "a", "level": "strict-domain"}],
        "ms_locality": [{"consumer": "g", "consumed": "s", "level": "strict-domain"}],
        "default_locality": "global",
    }
    return topo, app, policies, {"dd": {"a": 100}}


def backtrack_case():
    return build(*backtrack_docs())


def test_backtracking_recovers_greedy_dead_end():
    """First-fit alone would grab cl-n2 (most free cpu) for the mid-chain
    microservice, leaving no node in that domain able to host its
    strict-domain successor; the search must retract that choice."""
    graph, app, pset, request = backtrack_case()
    plan = place_application(graph, app, request, pset)
    assert plan.mapping.instances_of("a") == {"dd-n1": 1}
    assert plan.mapping.instances_of("g") == {"cl-n1": 1}
    assert plan.mapping.instances_of("s") == {"cl-n2": 1}
    report = validate_plan(graph, app, pset, plan)
    assert report.ok


def test_root_check_sets_no_bound_behind_a_zero_ratio_edge(monkeypatch):
    """backtrack_case's dead end runs the root check.  A tail z behind a
    zero-ratio edge carries no load, so the check gives it no item, and its
    restriction to a domain with no node proves nothing."""
    topo, app_doc, policies, demand = backtrack_docs()
    app_doc["microservices"].append({"id": "z", "cpu_m": 100, "mem_mi": 64, "capacity_rps": 100})
    app_doc["edges"].append({"from": "s", "to": "z", "ratio": 0})
    topo["domains"].append({"id": "bare", "region": "r1", "admin": "a3", "kind": "edge"})
    topo["regions"][0]["domains"].append("bare")
    policies["placement_restriction"] = [{"microservice": "z", "mode": "allow", "domains": ["bare"]}]
    graph, app, pset, request = build(topo, app_doc, policies, demand)
    checks = count_calls(monkeypatch, "_capacity_cut")
    plan = place_application(graph, app, request, pset)
    assert len(checks) == 1
    assert plan.mapping.instances_of("s") == {"cl-n2": 1}
    assert plan.mapping.instances_of("z") == {}


def test_distributions_order_and_budget():
    """Splits come greedy-first in descending lexicographic order of their
    per-node counts, zero entries dropped, each for one budget step; under
    caps on nested (domain, region) scopes, exactly the splits within the
    caps come, in that order.  A node with negative room fits no instance."""
    rng = random.Random(5)
    cap_rng = random.Random(6)

    def ledgers():
        """(node ids, cpu, mem, count): 300 draws, then 150 with negative
        room and counts up to the full room."""
        for _ in range(300):
            node_ids = [f"n{i}" for i in range(rng.randint(0, 6))]
            cpu = {n: 100 * rng.randint(0, 4) + rng.randint(0, 99) for n in node_ids}
            mem = {n: 10 * rng.randint(0, 4) + rng.randint(0, 9) for n in node_ids}
            yield node_ids, cpu, mem, rng.randint(0, 6)
        more = random.Random(32)
        for _ in range(150):
            node_ids = [f"n{i}" for i in range(more.randint(1, 6))]
            cpu = {n: 100 * more.randint(-2, 3) + more.randint(0, 99) for n in node_ids}
            mem = {n: 10 * more.randint(-1, 3) + more.randint(0, 9) for n in node_ids}
            room = sum(max(0, min(cpu[n] // 100, mem[n] // 10)) for n in node_ids)
            yield node_ids, cpu, mem, max(0, room - more.randint(0, 2))

    for node_ids, cpu, mem, count in ledgers():
        rooms = [max(0, min(cpu[n] // 100, mem[n] // 10)) for n in node_ids]
        vectors = sorted(
            (v for v in itertools.product(*(range(r + 1) for r in rooms)) if sum(v) == count),
            reverse=True,
        )
        want = [[(n, k) for n, k in zip(node_ids, v) if k] for v in vectors]
        budget = _Budget(1000)
        got = list(_distributions(node_ids, 100, 10, count, _Ledger(cpu, mem), budget))
        assert got == want, (rooms, count)
        assert budget.left == 1000 - len(want)
        # with caps on nested scopes: the splits within them, in the same order
        scopes = [(f"d{d}", f"r{d // 2}") for d in (cap_rng.randint(0, 3) for _ in node_ids)]
        caps = {scope: cap_rng.randint(0, 3) for pair in scopes for scope in pair if cap_rng.random() < 0.5}
        within = [v for v in vectors if all(
            sum(k for k, pair in zip(v, scopes) if scope in pair) <= cap for scope, cap in caps.items())]
        budget = _Budget(1000)
        got = list(_distributions(node_ids, 100, 10, count, _Ledger(cpu, mem), budget, (scopes, caps)))
        assert got == [[(n, k) for n, k in zip(node_ids, v) if k] for v in within], (rooms, count, caps)
        assert budget.left == 1000 - len(within)


def test_wide_anchor_places_one_instance_per_node():
    """One anchor spread over 1,200 nodes: the search must not nest a call
    or a generator per node, which ran into the recursion limit."""
    topo = {
        "regions": [{"id": "r1", "domains": ["dd"]}],
        "domains": [{"id": "dd", "region": "r1", "admin": "a", "kind": "edge"}],
        "nodes": [{"id": f"n{i:04d}", "domain": "dd", "cpu_m": 250, "mem_mi": 256}
                  for i in range(1200)],
        "attachments": [{"id": "iot1", "domain": "dd"}],
    }
    app = {
        "id": "wide",
        "microservices": [
            {"id": "io", "iot": True},
            {"id": "a", "cpu_m": 250, "mem_mi": 256, "capacity_rps": 1},
        ],
        "edges": [{"from": "io", "to": "a"}],
        "ingress": ["a"],
    }
    graph, dag, pset, request = build(topo, app, {}, {"dd": {"a": 1200}})
    start = time.perf_counter()
    plan = place_application(graph, dag, request, pset)
    elapsed = time.perf_counter() - start
    assert plan.mapping.total_instances("a") == 1200
    assert validate_plan(graph, dag, pset, plan).ok
    assert elapsed < 0.2


# --- demand anchoring ---


def test_anchor_demand_matches_slot_by_slot_oracle():
    """Anchoring by containment returns exactly the slot-by-slot formula's
    (level, rps) per anchor, for every microservice of seeded plans at 1x
    and 2x demand and of one seeded node-drain replan of each.  The tallies
    at the end pin which plans were checked."""
    levels, splits, restricted, checked = set(), 0, 0, 0

    def check(graph, app, pset, plan):
        nonlocal splits, restricted, checked
        per_ms = plan.mapping.per_ms
        for ms_id in plan.mapping.order:
            got = _anchor_demand(graph, app, pset, plan.demand, ms_id, per_ms)
            assert got == oracle_anchor_demand(graph, app, pset, plan.demand, ms_id, per_ms), ms_id
            levels.update(level for level, _ in got.values())
            restricted += ms_id in pset.restriction
            checked += 1
            for edge in app.predecessors(ms_id):
                edge_level = pset.edge_level(edge.from_ms, ms_id)
                splits += sum(ap.level.strictness > edge_level.strictness
                              for ap in per_ms.get(edge.from_ms, {}).values())

    for gen in (gen_small_case, gen_case):
        for seed in range(200):
            for factor in (1, 2):
                topo_doc, app_doc, policy_doc, demand_doc = gen(random.Random(seed))
                demand_doc = {d: {m: r * factor for m, r in per.items()}
                              for d, per in demand_doc.items()}
                graph, app, pset, request = build(topo_doc, app_doc, policy_doc, demand_doc)
                try:
                    plan = place_application(graph, app, request, pset)
                except InfeasiblePlacement:
                    continue
                check(graph, app, pset, plan)
                drained = random.Random(seed * 2 + factor).choice(sorted(graph.nodes))
                try:
                    plan = handle_alert(graph, app, pset, plan, Alert("node_drain", {"node": drained}))
                except InfeasiblePlacement:
                    continue
                check(graph, app, pset, plan)
    assert levels == set(LocalityLevel)
    assert (splits, restricted, checked) == (370, 282, 1980)


def test_every_anchor_needs_an_instance():
    """Zero demand at an ingress and the traffic behind a zero-ratio edge
    anchor nothing, so every anchor returned needs at least one instance."""
    app_doc = {
        "id": "optional-tail",
        "microservices": [
            {"id": "io", "iot": True},
            {"id": "a", "cpu_m": 500, "mem_mi": 512, "capacity_rps": 50},
            {"id": "b", "cpu_m": 500, "mem_mi": 512, "capacity_rps": 50},
        ],
        "edges": [{"from": "io", "to": "a"}, {"from": "a", "to": "b", "ratio": 0}],
        "ingress": ["a"],
    }
    graph, app, pset, request = build(two_node_topo(), app_doc, {}, {"dd": {"a": 50}})
    assert _anchor_demand(graph, app, pset, {"dd": {"a": Fraction(0)}}, "a", {}) == {}
    per_ms = place_application(graph, app, request, pset).mapping.per_ms
    assert _anchor_demand(graph, app, pset, request.normalized_demand(), "a", {}) == {
        "global": (LocalityLevel.GLOBAL, Fraction(50))}
    assert _anchor_demand(graph, app, pset, request.normalized_demand(), "b", per_ms) == {}


def test_reconciler_never_offers_a_drained_node():
    """A node drained before a placement, and each node drained between two
    replans, never receives an instance, and the plan's drained set grows by
    each: eligible node lists are cached for one search only."""
    replans = 0
    for seed in range(100):
        topo_doc, app_doc, policy_doc, demand_doc = gen_case(random.Random(seed))
        graph, app, pset, request = build(topo_doc, app_doc, policy_doc, demand_doc)
        rng = random.Random(seed)
        drained = {rng.choice(sorted(graph.nodes))}
        demand = request.normalized_demand()
        try:
            mapping = _reconcile(graph, app, pset, demand, _Budget(SEARCH_BUDGET),
                                 drained=frozenset(drained))
        except InfeasiblePlacement:
            continue
        plan = DeploymentPlan(app.id, 1, mapping, generate_routes(graph, app, mapping, pset),
                              demand, frozenset(drained))
        used = {node for ms_id in plan.mapping.per_ms for node in plan.mapping.instances_of(ms_id)}
        assert not used & drained, seed
        for _ in range(2):
            node = rng.choice(sorted(used))
            drained.add(node)
            try:
                plan = handle_alert(graph, app, pset, plan, Alert("node_drain", {"node": node}))
            except InfeasiblePlacement:
                break
            used = {node for ms_id in plan.mapping.per_ms for node in plan.mapping.instances_of(ms_id)}
            assert not used & drained, seed
            assert plan.drained == drained, seed
            replans += 1
    assert replans >= 50, replans


# --- search step counts ---


@pytest.mark.parametrize("seed, factor, drained, steps, placed", [
    (297, 2, None, 4, True),
    (348, 2, None, 17, True),
    (29, 2, None, 34, False),
    (166, 2, None, 4, False),
    (194, 2, "d11-n1", 12, True),
    (120, 2, "d20-n0", 10, True),
    (348, 2, "d00-n0", 3, False),
    (229, 1, "d10-n0", 57, False),
    (229, 2, "d10-n0", 155, False),
    (54, 2, "d00-n0", 23, True),
    (120, 2, "d21-n0", 21, False),
    (36, 1, "d10-n1", 12, False),
])
def test_search_step_counts_pinned(seed, factor, drained, steps, placed):
    """Budget steps one search spends on seeded ``gen_case`` inputs at
    ``factor`` x demand where it backtracks: a fresh placement, or with
    ``drained`` a replan from the placed mapping after that node's drain.
    A search that restarts with the look-ahead gets back the steps spent
    before the restart.  A change to the order in which the search tries
    splits, to what counts as a step, or to what the look-ahead prunes
    changes these counts."""
    topo_doc, app_doc, policy_doc, demand_doc = gen_case(random.Random(seed))
    demand_doc = {d: {m: r * factor for m, r in per.items()} for d, per in demand_doc.items()}
    graph, app, pset, request = build(topo_doc, app_doc, policy_doc, demand_doc)
    current = None
    if drained is not None:
        current = place_application(graph, app, request, pset).mapping.per_ms
    demand = request.normalized_demand()
    budget = _Budget(SEARCH_BUDGET)
    try:
        _reconcile(graph, app, pset, demand, budget, current=current,
                   drained=frozenset([drained] if drained else []))
        ok = True
    except InfeasiblePlacement:
        ok = False
    assert (SEARCH_BUDGET - budget.left, ok) == (steps, placed)


# --- forward checking ---


def pool_case(level: str, deny_m2=()):
    """A global m1 of 4 instances feeding m2 over a ``level`` edge, on two
    domains of one region with one 1000m node each; m2 is denied the
    domains in ``deny_m2``."""
    topo = {
        "regions": [{"id": "r0", "domains": ["d0", "d1"]}],
        "domains": [{"id": d, "region": "r0", "admin": "a", "kind": "edge"} for d in ("d0", "d1")],
        "nodes": [{"id": f"{d}-n0", "domain": d, "cpu_m": 1000, "mem_mi": 4096} for d in ("d0", "d1")],
        "attachments": [{"id": "iot0", "domain": "d0"}],
    }
    app = {
        "id": "pool",
        "microservices": [
            {"id": "io", "iot": True},
            {"id": "m1", "cpu_m": 250, "mem_mi": 256, "capacity_rps": 50},
            {"id": "m2", "cpu_m": 250, "mem_mi": 256, "capacity_rps": 50},
        ],
        "edges": [{"from": "io", "to": "m1"}, {"from": "m1", "to": "m2"}],
        "ingress": ["m1"],
    }
    policies = {"ms_locality": [{"consumer": "m1", "consumed": "m2", "level": level}],
                "placement_restriction": [{"microservice": "m2", "mode": "deny", "domains": list(deny_m2)}],
                "default_locality": "global"}
    return build(topo, app, policies, {"d0": {"m1": 200}})


@pytest.mark.parametrize("level, m1_live", [("strict-domain", {"d0"}), ("strict-region", {"d0", "d1"})])
def test_dead_scopes_by_hand(level, m1_live):
    """With m2 denied in d1, an m1 instance in d1 would need an m2 instance
    in d1 over a strict-domain edge, so d1 is dead for m1; over a
    strict-region edge d0 can host that m2, and d1 stays live."""
    graph, app, pset, _ = pool_case(level, deny_m2=["d1"])
    lookahead = _Lookahead(graph, app, pset, frozenset(), _placement_sequence(app, pset))
    assert lookahead.live == {"m1": m1_live, "m2": {"d0"}}


def test_a_zero_ratio_strict_edge_kills_no_domain():
    """backtrack_case with a tail z behind a zero-ratio strict-domain edge
    from s, where z may only run in a domain with no node: z has no live
    domain, but s sends it nothing, so both of s's domains stay live and the
    restarted search places s as before."""
    topo, app_doc, policies, demand = backtrack_docs()
    app_doc["microservices"].append({"id": "z", "cpu_m": 100, "mem_mi": 64, "capacity_rps": 100})
    app_doc["edges"].append({"from": "s", "to": "z", "ratio": 0})
    topo["domains"].append({"id": "bare", "region": "r1", "admin": "a3", "kind": "edge"})
    topo["regions"][0]["domains"].append("bare")
    policies["placement_restriction"] = [{"microservice": "z", "mode": "allow", "domains": ["bare"]}]
    policies["ms_locality"].append({"consumer": "s", "consumed": "z", "level": "strict-domain"})
    graph, app, pset, request = build(topo, app_doc, policies, demand)
    lookahead = _Lookahead(graph, app, pset, frozenset(), _placement_sequence(app, pset))
    assert (lookahead.live["z"], lookahead.live["s"]) == (set(), {"dd", "cl"})
    assert place_application(graph, app, request, pset).mapping.instances_of("s") == {"cl-n2": 1}


def test_a_scope_cap_fits_exactly():
    """Two m1 instances and the two m2 instances they need take 1000m and
    1024Mi: they fit in exactly that, and not in a millicore or a MiB less."""
    _, app, _, _ = pool_case("strict-domain")
    m1, m2 = app.microservices["m1"], app.microservices["m2"]
    terms = [(1, 1, m2.cpu_req, m2.mem_req)]  # one m2 instance per m1 instance
    assert _fits(2, m1, terms, 1000, 1024)
    assert not _fits(2, m1, terms, 999, 1024)
    assert not _fits(2, m1, terms, 1000, 1023)


@pytest.mark.parametrize("level, drained, live, caps, m1, m2", [
    ("strict-domain", (), {"d0", "d1"}, {"d0": 2, "d1": 2}, {"d0-n0": 2, "d1-n0": 2}, {"d0-n0": 2, "d1-n0": 2}),
    ("strict-region", (), {"d0", "d1"}, None, {"d0-n0": 4}, {"d1-n0": 4}),
    ("strict-region", ("d1-n0",), {"d0"}, {"r0": 2}, None, None),
])
def test_scope_caps_by_hand(level, drained, live, caps, m1, m2):
    """m1's 4 instances serve 200 rps, 50 rps each, so k of them in a scope
    bring k m2 instances there: 250k + 250k millicores.  One 1000m node
    holds that for k <= 2, so a strict-domain edge caps each domain at 2,
    and the search splits m1 2 + 2.  Over a strict-region edge the region's
    two nodes hold all 4 and their 4 m2, so nothing is capped; with d1-n0
    drained only d0-n0 counts, the region is capped at 2, and no placement
    exists.  A drained node's domain is live for neither."""
    graph, app, pset, request = pool_case(level)
    sequence = _placement_sequence(app, pset)
    lookahead = _Lookahead(graph, app, pset, frozenset(drained), sequence)
    assert lookahead.live == {"m1": live, "m2": live}
    node_ids = [n for n in sorted(graph.nodes) if n not in drained]
    got = lookahead.caps(app.microservices["m1"], LocalityLevel.GLOBAL, Fraction(200), 4, node_ids, ())
    assert (got and got[1]) == caps
    try:
        mapping = _reconcile(graph, app, pset, request.normalized_demand(), _Budget(SEARCH_BUDGET),
                             drained=frozenset(drained))
    except InfeasiblePlacement:
        assert m1 is None
    else:
        assert (mapping.instances_of("m1"), mapping.instances_of("m2")) == (m1, m2)


def settled_case(name: str):
    """The graph, app, policies and demand of one case that used to end on
    the search budget."""
    if name == "global-pool-150x2":
        loaded = load_scenario(ROOT / "perfbench" / "cases" / "global-pool-150x2.yaml")
        return loaded.graph, loaded.app, loaded.policies, loaded.request.normalized_demand()
    if name == "gen_case-350-x2":
        topo_doc, app_doc, policy_doc, demand_doc = gen_case(random.Random(350))
        demand_doc = {d: {m: r * 2 for m, r in per.items()} for d, per in demand_doc.items()}
        graph, app, pset, request = build(topo_doc, app_doc, policy_doc, demand_doc)
        return graph, app, pset, request.normalized_demand()
    rng, case = random.Random(7), int(name.rsplit("-", 1)[1])  # scripts/fuzz_placement.py's stream
    for _ in range(case):
        gen_case(rng)
    graph, app, pset, request = build(*gen_case(rng))
    return graph, app, pset, request.normalized_demand()


@pytest.mark.parametrize("name, placed", [
    ("global-pool-150x2", True),
    ("gen_case-350-x2", True),
    ("fuzz-seed7-1015", True),
    ("fuzz-seed7-308", False),
])
def test_settled_give_ups(name, placed):
    """Each case ran out the full search budget before the look-ahead; now
    it places cleanly, or exhausts its tree (a proof), in under 1,000 steps."""
    graph, app, pset, demand = settled_case(name)
    budget = _Budget(SEARCH_BUDGET)
    try:
        mapping = _reconcile(graph, app, pset, demand, budget)
    except InfeasiblePlacement as exc:
        assert not placed and exc.proved
    else:
        assert placed
        plan = DeploymentPlan(app.id, 1, mapping, generate_routes(graph, app, mapping, pset), demand)
        assert validate_plan(graph, app, pset, plan).ok
    assert SEARCH_BUDGET - budget.left < 1000


def test_plans_do_not_move():
    """The plan documents of gen_case seeds 0-199 at 1x and 2x demand, and of
    one seeded drain replan per placed case, hash to what the search gave
    before the look-ahead: its prunes drop only splits no completion
    satisfies and keep the order of the rest."""
    digest = hashlib.sha256()
    for seed, factor in itertools.product(range(200), (1, 2)):
        topo_doc, app_doc, policy_doc, demand_doc = gen_case(random.Random(seed))
        demand_doc = {d: {m: r * factor for m, r in per.items()} for d, per in demand_doc.items()}
        graph, app, pset, request = build(topo_doc, app_doc, policy_doc, demand_doc)
        try:
            plan = place_application(graph, app, request, pset)
        except InfeasiblePlacement:
            digest.update(f"{seed} {factor}: infeasible\n".encode())
            continue
        digest.update(dump_doc(plan_to_doc(plan)).encode())
        used = sorted({node for ms_id in plan.mapping.per_ms for node in plan.mapping.instances_of(ms_id)})
        node = random.Random(seed).choice(used)
        try:
            plan = handle_alert(graph, app, pset, plan, Alert("node_drain", {"node": node}))
        except InfeasiblePlacement:
            digest.update(f"{seed} {factor} {node}: infeasible\n".encode())
            continue
        digest.update(dump_doc(plan_to_doc(plan)).encode())
    assert digest.hexdigest() == "7ae23d7ab9e1a387cae16470b3b01b2f20fb47df072677a0607c8bfcb5e3c711"


# --- infeasibility ---


def test_infeasible_capacity(canonical):
    control = ControlPlane(canonical.graph, canonical.app, canonical.policies)
    request = PlacementRequest(app=canonical.app, demand={
        "ed3": {"m2": Fraction(100000)}})
    with pytest.raises(InfeasiblePlacement) as exc:
        control.place(request)
    assert exc.value.microservice == "m2"
    assert exc.value.anchor == "ed3"
    assert "capacity" in exc.value.cause


def test_infeasible_policy_empty_scope():
    topo = two_node_topo()
    topo["regions"][0]["domains"].append("other")
    topo["domains"].append({"id": "other", "region": "r1", "admin": "b", "kind": "edge"})
    topo["nodes"].append({"id": "o-n1", "domain": "other", "cpu_m": 8000, "mem_mi": 8192})
    app = {
        "id": "pinned",
        "microservices": [
            {"id": "io", "iot": True},
            {"id": "a", "cpu_m": 500, "mem_mi": 512, "capacity_rps": 50},
        ],
        "edges": [{"from": "io", "to": "a"}],
        "ingress": ["a"],
    }
    policies = {
        "placement_restriction": [
            {"microservice": "a", "mode": "allow", "domains": ["other"]}],
        "iot_locality": [{"microservice": "a", "level": "strict-domain"}],
    }
    # demand arrives at dd, but a may only run in "other": empty intersection
    graph, dag, pset, request = build(topo, app, policies, {"dd": {"a": 50}})
    with pytest.raises(InfeasiblePlacement) as exc:
        place_application(graph, dag, request, pset)
    assert exc.value.cause == "policy-empty scope"
    # nothing was written to the graph
    assert graph.nodes == build(topo, app, policies, {"dd": {"a": 50}})[0].nodes


def cut_case(name):
    """The four raw documents of a request the root capacity check proves infeasible."""
    if name.startswith("dag-"):  # that attempt of test_flow_conservation_on_dags' stream
        rng = random.Random(20261018)
        for _ in range(int(name[4:])):
            docs = gen_case(rng, gen_app=gen_dag_app)
        return docs
    if name == "seed70-doubled":
        doc = read_yaml(ROOT / "perfbench" / "cases" / "seed70-doubled.yaml")
    else:
        doc = read_yaml(SCENARIOS / "uav_canonical.yaml")
    if name == "canonical-surge":
        doc["demand"] = {"ed3": {"m2": 100000}}
    elif name == "canonical-m2-in-cloud":
        doc["policies"]["placement_restriction"][0]["domains"] = ["cloud"]
    return doc["topology"], doc["application"], doc["policies"], doc["demand"]


@pytest.mark.parametrize("name, item, cause", [
    ("canonical-surge", ("m2", "ed3"), "insufficient capacity"),
    ("canonical-m2-in-cloud", ("m2", "ed3"), "policy-empty scope"),
    ("seed70-doubled", ("ms1", "d00"), "insufficient capacity"),
    ("dag-48", ("ms5", "d00"), "insufficient capacity"),
    ("dag-60", ("ms3", "r1"), "insufficient capacity"),
])
def test_root_check_proves_with_a_checked_cut(name, item, cause):
    """The root capacity check proves these requests at the first backtrack,
    in under 50 ms at the full budget, and names the cut's first item.
    Without it the search ran its budget out on seed70-doubled (4.4 s) and
    on attempt 60 of the DAG stream (18 s), and took 5.7 s to prove attempt
    48.  The independent checker accepts each cut, and rejects it with a
    lowered bound, an extra node or a dropped node."""
    docs = cut_case(name)
    graph, app, pset, request = build(*docs)
    started = time.process_time()
    with pytest.raises(InfeasiblePlacement) as exc:
        place_application(graph, app, request, pset)
    assert time.process_time() - started < 0.05
    verdict, cut = exc.value, exc.value.certificate
    assert (verdict.proved, verdict.microservice, verdict.anchor, verdict.cause) == (True, *item, cause)
    assert "budget" not in str(verdict)
    assert check_capacity_cut(*docs, cut)
    ms_id, anchor, bound = cut.items[0]
    outside = [n["id"] for n in docs[0]["nodes"] if n["id"] not in cut.nodes] or ["no-such-node"]
    mutants = [replace(cut, items=((ms_id, anchor, bound - 1), *cut.items[1:])),
               replace(cut, nodes=tuple(sorted((*cut.nodes, outside[0]))))]
    if cut.nodes:
        mutants.append(replace(cut, nodes=cut.nodes[1:]))
    for mutant in mutants:
        assert not check_capacity_cut(*docs, mutant), mutant


def test_root_check_finds_no_cut_where_the_search_places():
    """Over gen_case seeds 0-199 at 1x and 2x demand, the root capacity check
    finds no cut in any case that places, and the independent checker
    accepts every cut it finds in the others."""
    placed = cuts = 0
    for seed in range(200):
        for factor in (1, 2):
            topo_doc, app_doc, policy_doc, demand_doc = gen_case(random.Random(seed))
            demand_doc = {d: {m: r * factor for m, r in per.items()} for d, per in demand_doc.items()}
            graph, app, pset, request = build(topo_doc, app_doc, policy_doc, demand_doc)
            cut = _capacity_cut(graph, app, pset, request.normalized_demand(), frozenset())
            try:
                place_application(graph, app, request, pset)
            except InfeasiblePlacement:
                if cut is not None:
                    assert check_capacity_cut(topo_doc, app_doc, policy_doc, demand_doc, cut), seed
                    cuts += 1
                continue
            assert cut is None, (seed, factor)
            placed += 1
    assert (placed, cuts) == (349, 29)


def test_exhausted_tree_is_a_proof_and_a_budget_give_up_is_not():
    """gen_case(Random(29)) at 2x demand has no capacity cut.  A fresh search
    exhausts its tree in 34 steps after its restart, which proves it
    infeasible; with 20 steps it gives up, and only the give-up says the
    budget ran out."""
    topo_doc, app_doc, policy_doc, demand_doc = gen_case(random.Random(29))
    demand_doc = {d: {m: r * 2 for m, r in per.items()} for d, per in demand_doc.items()}
    graph, app, pset, request = build(topo_doc, app_doc, policy_doc, demand_doc)
    demand = request.normalized_demand()
    assert _capacity_cut(graph, app, pset, demand, frozenset()) is None
    for limit, proved in ((SEARCH_BUDGET, True), (20, False)):
        with pytest.raises(InfeasiblePlacement) as exc:
            _reconcile(graph, app, pset, demand, _Budget(limit))
        assert (exc.value.proved, exc.value.certificate) == (proved, None)
        assert ("(search budget exhausted)" in str(exc.value)) is not proved


@pytest.mark.parametrize("limit, proved, anchor", [(34, True, "d21"), (33, False, "d21"), (20, False, "d21"),
                                                   (0, False, "global")])
def test_a_budget_of_n_steps_takes_n_steps(limit, proved, anchor):
    """gen_case(Random(29)) at 2x demand exhausts its tree in 34 steps after
    its restart, so a budget of 34 proves it infeasible and one of 33 gives
    up.  A give-up names the deepest choice point that ran out of choices,
    ms4 at d21; with no step at all none has, and it names the last
    microservice of the sequence at the global anchor."""
    topo_doc, app_doc, policy_doc, demand_doc = gen_case(random.Random(29))
    demand_doc = {d: {m: r * 2 for m, r in per.items()} for d, per in demand_doc.items()}
    graph, app, pset, request = build(topo_doc, app_doc, policy_doc, demand_doc)
    with pytest.raises(InfeasiblePlacement) as exc:
        _reconcile(graph, app, pset, request.normalized_demand(), _Budget(limit))
    assert (exc.value.proved, exc.value.microservice, exc.value.anchor) == (proved, "ms4", anchor)


def test_a_proof_names_the_first_choice_point_to_fail_deepest():
    """g's one instance goes first to a, where s (950m) no longer fits beside
    it: s at da is the first choice point to run out of choices.  The root
    check finds no cut, so the search restarts with the look-ahead on, which
    caps da at no g, since g and s (1050m) overflow its 1000m.  g tries b1
    and b2, where s fits on neither 600m node, so s fails at db, at the same
    depth.  The deepest failure survives the restart, so the proof names the
    first choice point to reach that depth in either tree: s at da, which
    only the search before the restart tried."""
    topo = {
        "regions": [{"id": "r1", "domains": ["da", "db", "dc"]}],
        "domains": [{"id": d, "region": "r1", "admin": "a", "kind": "edge"} for d in ("da", "db", "dc")],
        "nodes": [{"id": "a", "domain": "da", "cpu_m": 1000, "mem_mi": 8192},
                  {"id": "b1", "domain": "db", "cpu_m": 600, "mem_mi": 8192},
                  {"id": "b2", "domain": "db", "cpu_m": 600, "mem_mi": 8192},
                  {"id": "c", "domain": "dc", "cpu_m": 8000, "mem_mi": 8192}],
        "attachments": [{"id": "iot1", "domain": "dc"}],
    }
    app = {
        "id": "fragmented",
        "microservices": [
            {"id": "io", "iot": True},
            {"id": "g", "cpu_m": 100, "mem_mi": 64, "capacity_rps": 100},
            {"id": "s", "cpu_m": 950, "mem_mi": 64, "capacity_rps": 100},
        ],
        "edges": [{"from": "io", "to": "g"}, {"from": "g", "to": "s"}],
        "ingress": ["g"],
    }
    policies = {
        "ms_locality": [{"consumer": "g", "consumed": "s", "level": "strict-domain"}],
        "placement_restriction": [{"microservice": ms, "mode": "deny", "domains": ["dc"]} for ms in ("g", "s")],
    }
    graph, dag, pset, request = build(topo, app, policies, {"dc": {"g": 100}})
    with pytest.raises(InfeasiblePlacement) as exc:
        place_application(graph, dag, request, pset)
    assert (exc.value.proved, exc.value.microservice, exc.value.anchor) == (True, "s", "da")


def count_calls(monkeypatch, name: str) -> list:
    """Record each call of ``<module>.<name>`` in the returned list: the
    search's private names on ``search``, the rest on ``controlplane``."""
    module = search if name.startswith("_") else controlplane
    calls, wrapped = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_replan_ends_at_a_proof(monkeypatch):
    """Draining d00-n0 under gen_case(Random(348))'s plan at 2x demand is
    proved infeasible by the root check, which runs once; the fresh-placement
    fallback does not run.  The cut checks only with d00-n0 drained."""
    topo_doc, app_doc, policy_doc, demand_doc = gen_case(random.Random(348))
    demand_doc = {d: {m: r * 2 for m, r in per.items()} for d, per in demand_doc.items()}
    docs = (topo_doc, app_doc, policy_doc, demand_doc)
    graph, app, pset, request = build(*docs)
    plan = place_application(graph, app, request, pset)
    reconciles, checks = count_calls(monkeypatch, "_reconcile"), count_calls(monkeypatch, "_capacity_cut")
    with pytest.raises(InfeasiblePlacement) as exc:
        handle_alert(graph, app, pset, plan, Alert("node_drain", {"node": "d00-n0"}))
    assert exc.value.proved
    assert (len(reconciles), len(checks)) == (1, 1)
    assert check_capacity_cut(*docs, exc.value.certificate, drained=("d00-n0",))
    assert not check_capacity_cut(*docs, exc.value.certificate)


def test_replan_fallback_places_where_the_kept_run_gives_up(monkeypatch):
    """Draining d01-n0 under gen_case(Random(70))'s plan fails from the
    current mapping, where the root check finds no cut; the fresh fallback
    places the request without backtracking, so it runs no check of its own."""
    graph, app, pset, request = build(*gen_case(random.Random(70)))
    plan = place_application(graph, app, request, pset)
    reconciles, checks = count_calls(monkeypatch, "_reconcile"), count_calls(monkeypatch, "_capacity_cut")
    plan2 = handle_alert(graph, app, pset, plan, Alert("node_drain", {"node": "d01-n0"}))
    assert validate_plan(graph, app, pset, plan2).ok
    assert (len(reconciles), len(checks)) == (2, 1)


def log_search_steps(monkeypatch) -> list[str]:
    """Log each call of ``search._reconcile`` ("search"), ``_capacity_cut``
    ("cut" or "no cut", by its result) and ``_Lookahead`` ("look-ahead"), in order."""
    log = []
    reconcile, capacity_cut, lookahead = search._reconcile, search._capacity_cut, search._Lookahead

    def logged_reconcile(*args, **kwargs):
        log.append("search")
        return reconcile(*args, **kwargs)

    def logged_capacity_cut(*args):
        cut = capacity_cut(*args)
        log.append("no cut" if cut is None else "cut")
        return cut

    def logged_lookahead(*args):
        log.append("look-ahead")
        return lookahead(*args)

    monkeypatch.setattr(search, "_reconcile", logged_reconcile)
    monkeypatch.setattr(search, "_capacity_cut", logged_capacity_cut)
    monkeypatch.setattr(search, "_Lookahead", logged_lookahead)
    return log


def test_the_root_check_runs_where_the_look_ahead_starts(monkeypatch, canonical):
    """Each search's first exhaustion runs the root check, and only a check
    that finds no cut starts the look-ahead.  With cl-n1 drained, moving the
    canonical demand to ed3=200 and ed4=100 rps exhausts the kept run and
    its fresh fallback, so each runs one check and one look-ahead.  In every
    drain replan of gen_case seeds 36-40 at 1x and 2x, each search runs no
    check, one that finds a cut, or one that finds none and then the look-ahead."""
    graph, app, pset = canonical.graph, canonical.app, canonical.policies
    plan = handle_alert(graph, app, pset, place_application(graph, app, canonical.request, pset),
                        Alert("node_drain", {"node": "cl-n1"}))
    log = log_search_steps(monkeypatch)
    handle_alert(graph, app, pset, plan, Alert("demand_change", {"demand": {"ed3": {"m2": 200}, "ed4": {"m2": 100}}}))
    assert log == ["search", "no cut", "look-ahead"] * 2

    twice = 0
    for seed, factor in itertools.product(range(36, 41), (1, 2)):
        topo_doc, app_doc, policy_doc, demand_doc = gen_case(random.Random(seed))
        demand_doc = {d: {m: r * factor for m, r in per.items()} for d, per in demand_doc.items()}
        graph, app, pset, request = build(topo_doc, app_doc, policy_doc, demand_doc)
        try:
            plan = place_application(graph, app, request, pset)
        except InfeasiblePlacement:
            continue
        used = sorted({node for ms_id in plan.mapping.per_ms for node in plan.mapping.instances_of(ms_id)})
        log.clear()
        try:
            handle_alert(graph, app, pset, plan, Alert("node_drain", {"node": random.Random(seed).choice(used)}))
        except InfeasiblePlacement:
            pass
        searches = " ".join(log).split("search")[1:]
        assert {run.strip() for run in searches} <= {"", "cut", "no cut look-ahead"}, (seed, factor, log)
        twice += log.count("look-ahead") == 2
    assert twice == 3


# --- routing rules ---


def test_generate_routes_canonical_frozen(canonical):
    plan = ControlPlane(canonical.graph, canonical.app, canonical.policies) \
        .place(canonical.request)
    rules = {(r.domain_id, r.consumer, r.target_ms): r for r in plan.routes.rules}
    assert set(rules) == {
        ("ed3", "iot", "m2"), ("ed4", "iot", "m2"),
        ("ed3", "m2", "m3"), ("ed4", "m2", "m3"),
        ("ed3", "m3", "m4"), ("ed4", "m3", "m4"),
        ("ed4", "m4", "m5"),
    }
    # iot rules stay inside the attachment domain (strict-domain)
    assert rules[("ed3", "iot", "m2")].destinations == (("ed3-n1", 2),)
    assert rules[("ed4", "iot", "m2")].destinations == (("ed4-n1", 4),)
    # m3 rules are identical from both edge domains and span the region
    spread = (("ed3-n1", 2), ("ed3-n2", 3), ("ed4-n1", 1))
    assert rules[("ed3", "m2", "m3")].destinations == spread
    assert rules[("ed4", "m2", "m3")].destinations == spread
    # the cloud hop crosses regions
    assert rules[("ed4", "m4", "m5")].destinations == \
        (("cl-n1", 1), ("cl-n2", 1), ("cl-n3", 1))
    assert plan.routes.lookup("ed3", "m4", "m5") is None  # m4 has no ed3 instances


def reused_rules(graph, app, pset, previous, mapping) -> tuple[int, int]:
    """Hold ``generate_routes(..., previous)`` to the derivation without it:
    equal rule for rule, each rule equal to ``previous``'s rule of its key
    that very object, and no other rule one of ``previous``'s objects.
    Returns how many rules were reused and how many made."""
    fresh = generate_routes(graph, app, mapping, pset)
    got = generate_routes(graph, app, mapping, pset, previous)
    assert got.rules == fresh.rules
    ids = {id(rule) for rule in previous.rules}
    reused = 0
    for rule in got.rules:
        old = previous.lookup(rule.domain_id, rule.consumer, rule.target_ms)
        if old == rule:
            assert rule is old
            reused += 1
        else:
            assert id(rule) not in ids
    return reused, len(got.rules) - reused


@pytest.mark.parametrize("gen_app", [gen_chain_app, gen_dag_app], ids=["chain", "dag"])
def test_rules_reused_from_the_last_plan_match_a_fresh_derivation(gen_app):
    """On seeded replans after a drain or a demand change, the rules derived
    with the last plan's rules at hand are the fresh derivation's, and every
    one equal to a last-plan rule is that object; the full replan returns
    them.  The tallies pin that both reuse and change happened."""
    reused = made = replans = 0
    for seed in range(120):
        rng = random.Random(seed)
        graph, app, pset, request = build(*gen_case(rng, gen_app=gen_app))
        try:
            plan = place_application(graph, app, request, pset)
        except InfeasiblePlacement:
            continue
        if rng.random() < 0.5:
            alert = Alert("node_drain", {"node": rng.choice(sorted(graph.nodes))})
        else:
            factor = rng.choice([Fraction(1, 2), Fraction(3, 2), 2, 3])
            alert = Alert("demand_change", {"demand": {
                d: {m: r * factor for m, r in per.items()} for d, per in plan.demand.items()}})
        try:
            new = handle_alert(graph, app, pset, plan, alert)
        except InfeasiblePlacement:
            continue
        assert new.routes.rules == generate_routes(graph, app, new.mapping, pset).rules, seed
        counts = reused_rules(graph, app, pset, plan.routes, new.mapping)
        reused, made, replans = reused + counts[0], made + counts[1], replans + 1
    assert replans >= 80 and reused >= 100 and made >= 100, (replans, reused, made)


@pytest.mark.parametrize("name", ["uav_canonical.yaml", "uav_demand_surge.yaml"])
def test_rules_reused_on_the_bundled_scenarios_match_a_fresh_derivation(name, monkeypatch):
    """Every replan the scenario's simulation runs, and a replan of its
    placed plan for each node's drain and for its demand doubled, derives
    the fresh derivation's rules, reusing the placed plan's equal ones."""
    loaded = load_scenario(SCENARIOS / name)
    graph, app, pset = loaded.graph, loaded.app, loaded.policies
    replanned = []
    full = controlplane.handle_alert

    def recording(*args, **kwargs):
        replanned.append((args[3], full(*args, **kwargs)))
        return replanned[-1][1]

    monkeypatch.setattr(controlplane, "handle_alert", recording)
    _, report = run_scenario(graph, app, pset, loaded.request, loaded.events,
                             overload_threshold=loaded.settings.overload_threshold)
    assert len(replanned) == len(report.alerts)
    plan = place_application(graph, app, loaded.request, pset)
    alerts = [Alert("node_drain", {"node": node_id}) for node_id in sorted(graph.nodes)]
    alerts.append(Alert("demand_change", {"demand": {
        d: {m: 2 * r for m, r in per.items()} for d, per in plan.demand.items()}}))
    for alert in alerts:
        try:
            recording(graph, app, pset, plan, alert)
        except InfeasiblePlacement:
            pass
    reused = made = 0
    for before, after in replanned:
        counts = reused_rules(graph, app, pset, before.routes, after.mapping)
        reused, made = reused + counts[0], made + counts[1]
    assert reused >= 5 and made >= 5, (reused, made)


@pytest.mark.parametrize("edit", ["weight", "level"])
def test_a_wrong_rule_in_a_plan_document_is_never_reused(placed, edit):
    """A plan document whose ``ed3/m2->m3`` rule was edited by hand, a
    weight or its level, gives that rule to no derivation: the rule made in
    its place is the fresh one, every other rule is reused, and the full
    replan of the read-back plan returns the fresh rules."""
    scenario, plan = placed
    graph, app, pset = scenario.graph, scenario.app, scenario.policies
    doc = plan_to_doc(plan)
    route = next(r for r in doc["routes"] if (r["domain"], r["consumer"], r["target"]) == ("ed3", "m2", "m3"))
    if edit == "weight":
        route["destinations"][0]["weight"] += 1
    else:
        route["level"] = LocalityLevel.GLOBAL.value
    edited = plan_from_doc(doc)
    wrong = edited.routes.lookup("ed3", "m2", "m3")
    assert wrong != plan.routes.lookup("ed3", "m2", "m3")
    assert reused_rules(graph, app, pset, edited.routes, plan.mapping) == (len(plan.routes.rules) - 1, 1)
    replanned = handle_alert(graph, app, pset, edited, OVERLOAD)
    assert replanned.routes.rules == plan.routes.rules
    assert all(rule is not wrong for rule in replanned.routes.rules)


def test_ingress_rule_only_where_instances_in_scope():
    topo = two_node_topo()
    topo["regions"][0]["domains"].append("dd2")
    topo["domains"].append({"id": "dd2", "region": "r1", "admin": "b", "kind": "edge"})
    topo["nodes"].append({"id": "m-n1", "domain": "dd2", "cpu_m": 4000, "mem_mi": 8192})
    topo["attachments"].append({"id": "iot2", "domain": "dd2"})
    app = {
        "id": "one-sided",
        "microservices": [
            {"id": "io", "iot": True},
            {"id": "a", "cpu_m": 500, "mem_mi": 512, "capacity_rps": 50},
        ],
        "edges": [{"from": "io", "to": "a"}],
        "ingress": ["a"],
    }
    policies = {"iot_locality": [{"microservice": "a", "level": "strict-domain"}]}
    # demand only at dd: a has no dd2 instances, so no dd2 ingress rule
    graph, dag, pset, request = build(topo, app, policies, {"dd": {"a": 50}})
    plan = place_application(graph, dag, request, pset)
    assert [(r.domain_id, r.consumer) for r in plan.routes.rules] == [("dd", "iot")]


def test_a_starved_scope_gets_no_rule_and_fails_the_audit():
    graph, app, pset, request = backtrack_case()
    # hand-build a mapping that strands g's strict-domain successor
    mapping = PlacementMapping(per_ms={
        "a": {"dd": AnchorPlacement("dd", LocalityLevel.STRICT_DOMAIN,
                                    Fraction(100), [("dd-n1", 1)])},
        "g": {"global": AnchorPlacement("global", LocalityLevel.GLOBAL,
                                        Fraction(100), [("cl-n1", 1)])},
        "s": {"dd": AnchorPlacement("dd", LocalityLevel.STRICT_DOMAIN,
                                    Fraction(100), [("dd-n1", 1)])},
    }, order=("a", "g", "s"))
    plan = DeploymentPlan(app_id=app.id, revision=1, mapping=mapping,
                          routes=generate_routes(graph, app, mapping, pset), demand=request.normalized_demand())
    # generate_routes leaves the starved scope without a rule, and the audit reports it;
    # the mapping also oversubscribes dd-n1's cpu
    assert [f"{v.kind} {v.subject}: {v.detail}" for v in validate_plan(graph, app, pset, plan).violations] == [
        "capacity dd-n1: requested 1500m/1024Mi exceeds 1000m/8192Mi",
        "route cl/g->s: no rule routes g's traffic from cl",
    ]


def test_zero_ratio_edge_needs_no_rule():
    topo = two_node_topo(cpu1=4000, cpu2=4000)
    app = {
        "id": "optional-tail",
        "microservices": [
            {"id": "io", "iot": True},
            {"id": "a", "cpu_m": 500, "mem_mi": 512, "capacity_rps": 50},
            {"id": "b", "cpu_m": 500, "mem_mi": 512, "capacity_rps": 50},
        ],
        "edges": [{"from": "io", "to": "a"}, {"from": "a", "to": "b", "ratio": 0}],
        "ingress": ["a"],
    }
    graph, dag, pset, request = build(topo, app, {}, {"dd": {"a": 50}})
    plan = place_application(graph, dag, request, pset)
    assert plan.mapping.instances_of("b") == {}  # no demand, no instances
    assert plan.routes.lookup("dd", "a", "b") is None
    assert validate_plan(graph, dag, pset, plan).ok
    # a's traffic crosses the zero-ratio edge as nothing: no row, no MissingRoute
    flows = route_flows(graph, dag, plan, plan.demand)
    assert {target_ms for *_, target_ms in flows.rows} == {"a"}
    assert check_compliance(graph, pset, flows) == []


# --- independent validation ---


@pytest.fixture
def placed(canonical):
    plan = ControlPlane(canonical.graph, canonical.app, canonical.policies) \
        .place(canonical.request)
    return canonical, plan


def test_validate_plan_clean(placed):
    scenario, plan = placed
    report = validate_plan(scenario.graph, scenario.app, scenario.policies, plan)
    assert report.ok


def test_validate_detects_restriction_breach(placed):
    scenario, plan = placed
    bad = copy.deepcopy(plan.mapping)
    bad.per_ms["m2"]["ed3"].slots = [("cl-n1", 2)]  # m2 is edge-only
    plan.mapping = bad
    kinds = {v.kind for v in validate_plan(
        scenario.graph, scenario.app, scenario.policies, plan).violations}
    assert "placement" in kinds


def test_validate_detects_capacity_overrun(placed):
    scenario, plan = placed
    bad = copy.deepcopy(plan.mapping)
    bad.per_ms["m2"]["ed3"].slots = [("ed3-n1", 50)]
    plan.mapping = bad
    report = validate_plan(scenario.graph, scenario.app, scenario.policies, plan)
    assert any(v.kind == "capacity" for v in report.violations)


def test_validate_detects_drained_host(placed):
    scenario, plan = placed
    plan = replace(plan, drained=frozenset({"ed3-n1"}))
    report = validate_plan(scenario.graph, scenario.app, scenario.policies, plan)
    assert any(v.kind == "capacity" and "drained" in v.detail
               for v in report.violations)


def _swap_rule(plan, key, **changes):
    rules = []
    for rule in plan.routes.rules:
        if (rule.domain_id, rule.consumer, rule.target_ms) == key:
            rule = RoutingRule(
                domain_id=changes.get("domain_id", rule.domain_id),
                consumer=changes.get("consumer", rule.consumer),
                target_ms=changes.get("target_ms", rule.target_ms),
                level=changes.get("level", rule.level),
                destinations=changes.get("destinations", rule.destinations),
            )
        rules.append(rule)
    plan.routes = RoutingRuleSet(tuple(rules))


def test_validate_detects_out_of_scope_destination(placed):
    scenario, plan = placed
    # iot->m2 from ed3 is strict-domain; pointing it at ed4's node leaks
    _swap_rule(plan, ("ed3", "iot", "m2"), destinations=(("ed4-n1", 4),))
    report = validate_plan(scenario.graph, scenario.app, scenario.policies, plan)
    assert any(v.kind == "locality" for v in report.violations)


def test_validate_detects_incomplete_destinations(placed):
    scenario, plan = placed
    # drop ed3-n2 from the m3 spread: in-scope instances must all be listed
    _swap_rule(plan, ("ed3", "m2", "m3"),
               destinations=(("ed3-n1", 2), ("ed4-n1", 1)))
    report = validate_plan(scenario.graph, scenario.app, scenario.policies, plan)
    assert any("not load-balanced" in v.detail for v in report.violations)


def test_validate_detects_skewed_weights(placed):
    scenario, plan = placed
    _swap_rule(plan, ("ed3", "m2", "m3"),
               destinations=(("ed3-n1", 5), ("ed3-n2", 3), ("ed4-n1", 1)))
    report = validate_plan(scenario.graph, scenario.app, scenario.policies, plan)
    assert any("proportional" in v.detail for v in report.violations)


def test_validate_detects_destination_listed_twice(placed):
    """Read as a mapping, the destinations are exactly the in-scope instances;
    listed twice, ed4-n1 gets twice its share, which the audit must catch."""
    scenario, plan = placed
    rule = plan.routes.lookup("ed3", "m2", "m3")
    assert rule.destinations == (("ed3-n1", 2), ("ed3-n2", 3), ("ed4-n1", 1))
    _swap_rule(plan, ("ed3", "m2", "m3"), destinations=rule.destinations + (("ed4-n1", 1),))
    report = validate_plan(scenario.graph, scenario.app, scenario.policies, plan)
    assert [(v.kind, v.subject, v.detail) for v in report.violations] == [
        ("route", "ed3/m2->m3", "weight of ed3-n1 not proportional to its instance count")]


def test_validate_accepts_scaled_weights(placed):
    scenario, plan = placed
    # doubling every weight preserves the proportional split
    _swap_rule(plan, ("ed3", "m2", "m3"),
               destinations=(("ed3-n1", 4), ("ed3-n2", 6), ("ed4-n1", 2)))
    report = validate_plan(scenario.graph, scenario.app, scenario.policies, plan)
    assert report.ok


def test_validate_detects_phantom_host(placed):
    scenario, plan = placed
    _swap_rule(plan, ("ed4", "m4", "m5"),
               destinations=(("cl-n1", 1), ("cl-n2", 1), ("cl-n3", 1), ("ed4-n2", 1)))
    report = validate_plan(scenario.graph, scenario.app, scenario.policies, plan)
    assert any("hosts no" in v.detail for v in report.violations)


def test_validate_detects_rule_without_destinations(placed):
    scenario, plan = placed
    _swap_rule(plan, ("ed4", "m4", "m5"), destinations=())
    report = validate_plan(scenario.graph, scenario.app, scenario.policies, plan)
    assert ("route", "ed4/m4->m5", "rule has no destinations") in {
        (v.kind, v.subject, v.detail) for v in report.violations}


def test_validate_detects_non_edge_rule(placed):
    scenario, plan = placed
    _swap_rule(plan, ("ed4", "m4", "m5"), consumer="m2")
    report = validate_plan(scenario.graph, scenario.app, scenario.policies, plan)
    assert any("does not match an application edge" in v.detail
               for v in report.violations)


def _audit(scenario, plan, graph=None):
    """``validate_plan``'s violations as (kind, subject, detail), in order."""
    report = validate_plan(graph or scenario.graph, scenario.app, scenario.policies, plan)
    return [(v.kind, v.subject, v.detail) for v in report.violations]


def test_validate_detects_slot_of_ghost_microservice(placed):
    scenario, plan = placed
    plan.mapping = copy.deepcopy(plan.mapping)
    plan.mapping.per_ms["ghost"] = {"global": AnchorPlacement("global", LocalityLevel.GLOBAL, Fraction(1),
                                                              [("cl-n1", 1)])}
    assert _audit(scenario, plan) == [("placement", "ghost", "unknown microservice")]


def test_validate_detects_slot_on_ghost_node(placed):
    scenario, plan = placed
    plan.mapping = copy.deepcopy(plan.mapping)
    plan.mapping.per_ms["m5"]["global"].slots.append(("ghost-node", 1))
    assert _audit(scenario, plan) == [("placement", "m5@ghost-node", "unknown node")]


def test_validate_ignores_slot_of_no_instances(placed):
    """A slot of zero instances hosts nothing, so no rule has to reach it."""
    scenario, plan = placed
    plan.mapping = copy.deepcopy(plan.mapping)
    plan.mapping.per_ms["m5"]["global"].slots.append(("ed4-n2", 0))
    assert _audit(scenario, plan) == []


@pytest.mark.parametrize("key, changes, violation", [
    (("ed3", "iot", "m2"), {"domain_id": "nowhere"},
     [("route", "nowhere/iot->m2", "unknown domain 'nowhere'"),
      ("route", "ed3/iot->m2", "no rule routes its positive demand")]),
    (("ed3", "m3", "m4"), {"consumer": IOT_SOURCE, "destinations": (("ed3-n1", 1),)},
     [("route", "ed3/iot->m4", "ingress rule for non-ingress target"),
      ("route", "ed3/m3->m4", "no rule routes m3's traffic from ed3")]),
    (("ed3", "m2", "m3"), {"consumer": "m4", "destinations": (("cl-n1", 1),)},
     [("route", "ed3/m4->m3", "rule does not match an application edge"),
      ("route", "ed3/m2->m3", "no rule routes m2's traffic from ed3")]),
    (("ed3", "iot", "m2"), {"destinations": ()}, [("route", "ed3/iot->m2", "rule has no destinations")]),
    (("ed3", "m2", "m3"), {"destinations": (("ed3-n1", -2), ("ed3-n2", 1), ("ed4-n1", 1))},
     [("route", "ed3/m2->m3", "weight of ed3-n1 is -2, not positive")]),
])
def test_validate_reports_one_violation_per_broken_rule(placed, key, changes, violation):
    """The audit stops at a refused target or anchor and at an empty rule,
    so checks of its destinations, which would fail too, do not run; weights
    that sum to zero are not compared with the instance counts.  A rule moved
    off its key leaves that key's traffic without a rule, a second violation."""
    scenario, plan = placed
    _swap_rule(plan, key, **changes)
    assert _audit(scenario, plan) == violation


def test_validate_detects_rule_to_unknown_node(placed):
    scenario, plan = placed
    _swap_rule(plan, ("ed4", "m4", "m5"),
               destinations=(("cl-n1", 1), ("cl-n2", 1), ("cl-n3", 1), ("ghost-node", 1)))
    assert _audit(scenario, plan) == [
        ("route", "ed4/m4->m5", "unknown node 'ghost-node'"),
        ("route", "ed4/m4->m5", "weight of cl-n1 not proportional to its instance count"),
    ]


@pytest.mark.parametrize("capacity, detail", [
    ({"cpu_capacity": 2999}, "requested 3000m/3072Mi exceeds 2999m/8192Mi"),
    ({"mem_capacity": 3071}, "requested 3000m/3072Mi exceeds 3500m/3071Mi"),
])
def test_validate_detects_node_over_one_resource(placed, capacity, detail):
    """ed3-n1 hosts two m2 and two m3 instances: 3000m and 3072Mi."""
    scenario, plan = placed
    graph = copy.deepcopy(scenario.graph)
    graph.nodes["ed3-n1"] = replace(graph.nodes["ed3-n1"], **capacity)
    assert _audit(scenario, plan) == []
    assert _audit(scenario, plan, graph) == [("capacity", "ed3-n1", detail)]


# --- plan document round trip ---


def test_plan_doc_round_trip(placed):
    scenario, plan = placed
    report = validate_plan(scenario.graph, scenario.app, scenario.policies, plan)
    doc = plan_to_doc(plan, compliance=report)
    assert doc["compliance"]["ok"] is True
    restored = plan_from_doc(doc)
    assert plan_to_doc(restored) == plan_to_doc(plan)
    assert dump_doc(plan_to_doc(restored)) == dump_doc(plan_to_doc(plan))
    assert restored.demand == plan.demand
    assert validate_plan(scenario.graph, scenario.app, scenario.policies, restored).ok


# --- alert handling ---


def test_alert_payload_validation():
    with pytest.raises(PlanningError):
        Alert("tsunami", {}, 0)
    with pytest.raises(PlanningError):
        Alert("node_drain", {}, 0)
    Alert("node_drain", {"node": "n1"}, 0)
    Alert("overload", {"node": "n1", "utilization": 0.93}, 2)


@pytest.mark.parametrize("name", ["uav_canonical", "uav_demand_surge"])
def test_replan_of_a_reloaded_plan_matches_the_original_graph(name):
    """A plan read back from its document, replanned on a freshly loaded
    graph, gives what the replan gives on the graph it was placed on: the
    same plan document, or the same error.  Every node drain, every ed3/ed4
    ingress demand of 0-300 rps in steps of 50, and every node drain followed
    by each ed3/ed4 demand of 100-300 rps in steps of 100, with the plan read
    back again between the two."""
    doc = read_yaml(SCENARIOS / f"{name}.yaml")
    placed = scenario_from_doc(doc)
    start = place_application(placed.graph, placed.app, placed.request, placed.policies)
    drains = [Alert("node_drain", {"node": node}) for node in sorted(placed.graph.nodes)]

    def demand(a, b):
        return Alert("demand_change", {"demand": {"ed3": {"m2": a}, "ed4": {"m2": b}}})

    runs = [[drain] for drain in drains]
    runs += [[demand(a, b)] for a in range(0, 301, 50) for b in range(0, 301, 50)]
    runs += [[drain, demand(a, b)]
             for drain in drains for a in (100, 200, 300) for b in (100, 200, 300)]

    def replan(alerts, reload):
        loaded, plan = placed, start
        try:
            for alert in alerts:
                if reload:
                    loaded, plan = scenario_from_doc(doc), plan_from_doc(plan_to_doc(plan))
                plan = handle_alert(loaded.graph, loaded.app, loaded.policies, plan, alert)
        except EdgeplaneError as exc:
            return type(exc), str(exc)
        return dump_doc(plan_to_doc(plan))

    outcomes = {}
    for alerts in runs:
        want = replan(alerts, reload=False)
        assert replan(alerts, reload=True) == want, alerts
        outcomes.setdefault(len(alerts), set()).add(type(want))
    # replans that succeed and that fail are covered, alone and after a drain
    assert outcomes == {1: {str, tuple}, 2: {str, tuple}}


def test_a_drain_travels_in_the_plan_document(surge):
    """After cl-n1 is drained, surging m2 to 200 rps in ed3 and ed4 is proved
    infeasible, on the graph the plan was placed on and, from the plan read
    back from its document, on a freshly loaded one.  Without the drain in
    the document the second replan put m4 and m5 back on cl-n1."""
    plan = place_application(surge.graph, surge.app, surge.request, surge.policies)
    plan = handle_alert(surge.graph, surge.app, surge.policies, plan,
                        Alert("node_drain", {"node": "cl-n1"}))
    alert = Alert("demand_change", {"demand": {"ed3": {"m2": 200}, "ed4": {"m2": 200}}})
    reloaded = load_scenario(SCENARIOS / "uav_demand_surge.yaml")
    for loaded, given in ((surge, plan), (reloaded, plan_from_doc(plan_to_doc(plan)))):
        with pytest.raises(InfeasiblePlacement) as exc:
            handle_alert(loaded.graph, loaded.app, loaded.policies, given, alert)
        assert str(exc.value) == ("cannot place 'm2' for anchor 'ed3': insufficient capacity "
                                  "(proved by a cpu cut: need 18000m, capacity 14000m)")


def test_drained_plans_round_trip_and_audit_on_a_fresh_graph():
    """Over seeded gen_case inputs, a placed plan with one seeded node
    drained writes the same document bytes after a round trip, and the plan
    read back carries the drain and audits clean on a freshly built graph."""
    checked = 0
    for seed in range(100):
        docs = gen_case(random.Random(seed))
        graph, app, pset, request = build(*docs)
        node = random.Random(seed).choice(sorted(graph.nodes))
        try:
            plan = place_application(graph, app, request, pset)
            plan = handle_alert(graph, app, pset, plan, Alert("node_drain", {"node": node}))
        except InfeasiblePlacement:
            continue
        text = dump_doc(plan_to_doc(plan))
        restored = plan_from_doc(plan_to_doc(plan))
        assert dump_doc(plan_to_doc(restored)) == text, seed
        assert restored.drained == {node}, seed
        fresh_graph, fresh_app, fresh_pset, _ = build(*docs)
        assert validate_plan(fresh_graph, fresh_app, fresh_pset, restored).ok, seed
        checked += 1
    assert checked >= 50, checked


@pytest.mark.parametrize("name", ["uav_canonical", "uav_demand_surge"])
def test_the_graph_is_never_written(name):
    """Placement, a chain of alerts of every kind (failed replans included)
    and a scenario run leave the graph equal to a freshly loaded one."""
    path = SCENARIOS / f"{name}.yaml"
    sc = load_scenario(path)
    plan = place_application(sc.graph, sc.app, sc.request, sc.policies)
    alerts = [Alert("overload", {"node": "ed3-n1", "utilization": 1.0}),
              Alert("demand_change", {"demand": {"ed3": {"m2": 150}, "ed4": {"m2": 50}}})]
    alerts += [Alert("node_drain", {"node": node}) for node in sorted(sc.graph.nodes)]
    for alert in alerts:
        try:
            plan = handle_alert(sc.graph, sc.app, sc.policies, plan, alert)
        except InfeasiblePlacement:
            pass
    run_scenario(sc.graph, sc.app, sc.policies, sc.request, sc.events,
                 overload_threshold=sc.settings.overload_threshold)
    fresh = load_scenario(path).graph
    assert sc.graph == fresh
    assert all(sc.graph.nodes_of_domain(d) == fresh.nodes_of_domain(d) for d in fresh.domains)


def test_demand_change_scales_up(surge):
    # the surge topology has headroom; the canonical one is packed to rated load
    plan = place_application(surge.graph, surge.app, surge.request, surge.policies)
    new_demand = {"ed3": {"m2": 200}, "ed4": {"m2": 200}}
    alert = Alert("demand_change", {"demand": new_demand}, tick=1)
    new_plan = handle_alert(surge.graph, surge.app, surge.policies, plan, alert)
    assert new_plan.revision == 2
    assert sum(new_plan.mapping.instances_of("m2").values()) == 8
    assert new_plan.mapping.per_ms["m2"]["ed3"].demand_rps == Fraction(200)
    assert validate_plan(surge.graph, surge.app, surge.policies, new_plan).ok
    # downstream scaled too: 400 rps at 50 rps capacity
    assert sum(new_plan.mapping.instances_of("m3").values()) == 8


def test_demand_change_scales_down_newest_first():
    topo = two_node_topo(cpu1=1000, cpu2=1000)
    app = {
        "id": "shrink",
        "microservices": [
            {"id": "io", "iot": True},
            {"id": "a", "cpu_m": 500, "mem_mi": 512, "capacity_rps": 50},
        ],
        "edges": [{"from": "io", "to": "a"}],
        "ingress": ["a"],
    }
    policies = {"iot_locality": [{"microservice": "a", "level": "strict-domain"}]}
    graph, dag, pset, request = build(topo, app, policies, {"dd": {"a": 200}})
    plan = place_application(graph, dag, request, pset)
    assert plan.mapping.per_ms["a"]["dd"].slots == [("n1", 2), ("n2", 2)]

    alert = Alert("demand_change", {"demand": {"dd": {"a": 150}}}, 1)
    plan2 = handle_alert(graph, dag, pset, plan, alert)
    # the newest slot shrinks first (LIFO), oldest instances survive
    assert plan2.mapping.per_ms["a"]["dd"].slots == [("n1", 2), ("n2", 1)]
    assert free_cpu(graph, dag, plan2)["n2"] == 500

    alert = Alert("demand_change", {"demand": {"dd": {"a": 50}}}, 2)
    plan3 = handle_alert(graph, dag, pset, plan2, alert)
    assert plan3.mapping.per_ms["a"]["dd"].slots == [("n1", 1)]
    assert plan3.revision == 3
    assert free_cpu(graph, dag, plan3) == {"n1": 500, "n2": 1000}


def test_demand_drop_to_zero_removes_anchor():
    topo = two_node_topo()
    app = {
        "id": "offable",
        "microservices": [
            {"id": "io", "iot": True},
            {"id": "a", "cpu_m": 500, "mem_mi": 512, "capacity_rps": 50},
        ],
        "edges": [{"from": "io", "to": "a"}],
        "ingress": ["a"],
    }
    graph, dag, pset, request = build(topo, app, {}, {"dd": {"a": 100}})
    plan = place_application(graph, dag, request, pset)
    alert = Alert("demand_change", {"demand": {"dd": {"a": 0}}}, 1)
    plan2 = handle_alert(graph, dag, pset, plan, alert)
    assert plan2.mapping.per_ms == {}
    assert plan2.routes.rules == ()
    assert free_cpu(graph, dag, plan2)["n1"] == 2000


def test_node_drain_migrates_within_domain():
    topo = two_node_topo(cpu1=1000, cpu2=2000)
    app = {
        "id": "movable",
        "microservices": [
            {"id": "io", "iot": True},
            {"id": "a", "cpu_m": 500, "mem_mi": 512, "capacity_rps": 50},
        ],
        "edges": [{"from": "io", "to": "a"}],
        "ingress": ["a"],
    }
    policies = {"iot_locality": [{"microservice": "a", "level": "strict-domain"}]}
    graph, dag, pset, request = build(topo, app, policies, {"dd": {"a": 100}})
    plan = place_application(graph, dag, request, pset)
    assert plan.mapping.instances_of("a") == {"n2": 2}  # n2 has the most free cpu

    plan2 = handle_alert(graph, dag, pset, plan,
                         Alert("node_drain", {"node": "n2"}, 1))
    assert plan2.drained == {"n2"}
    assert plan2.mapping.instances_of("a") == {"n1": 2}
    assert plan2.revision == 2
    assert validate_plan(graph, dag, pset, plan2).ok
    assert free_cpu(graph, dag, plan2)["n2"] == 2000  # everything handed back


def test_node_drain_prefers_same_region_over_bigger_remote():
    topo = {
        "regions": [{"id": "r1", "domains": ["dd", "dd2"]},
                    {"id": "r2", "domains": ["cl"]}],
        "domains": [
            {"id": "dd", "region": "r1", "admin": "a", "kind": "edge"},
            {"id": "dd2", "region": "r1", "admin": "b", "kind": "edge"},
            {"id": "cl", "region": "r2", "admin": "c", "kind": "cloud"},
        ],
        "nodes": [
            {"id": "dd-n1", "domain": "dd", "cpu_m": 1000, "mem_mi": 8192},
            {"id": "dd2-n1", "domain": "dd2", "cpu_m": 1000, "mem_mi": 8192},
            {"id": "cl-n1", "domain": "cl", "cpu_m": 16000, "mem_mi": 16384},
        ],
        "attachments": [{"id": "iot1", "domain": "dd"}],
    }
    app = {
        "id": "nomad",
        "microservices": [
            {"id": "io", "iot": True},
            {"id": "a", "cpu_m": 500, "mem_mi": 512, "capacity_rps": 50},
        ],
        "edges": [{"from": "io", "to": "a"}],
        "ingress": ["a"],
    }
    policies = {"iot_locality": [{"microservice": "a", "level": "global"}]}
    graph, dag, pset, request = build(topo, app, policies, {"dd": {"a": 100}})
    plan = place_application(graph, dag, request, pset)
    assert plan.mapping.instances_of("a") == {"cl-n1": 2}

    # one instance lands on cl-n1 (most free cpu); drain it
    plan2 = place_application(
        graph, dag, PlacementRequest(app=dag, demand={"dd": {"a": Fraction(50)}}), pset)
    assert plan2.mapping.instances_of("a") == {"cl-n1": 1}
    plan3 = handle_alert(graph, dag, pset, plan2,
                         Alert("node_drain", {"node": "cl-n1"}, 1))
    # displaced instance prefers the drained node's own domain/region tiers;
    # cl has no other node, so it falls to the remaining nodes by free cpu
    assert plan3.mapping.instances_of("a") == {"dd-n1": 1}


def test_drain_displacement_prefers_drained_domain_then_region():
    topo = {
        "regions": [{"id": "r1", "domains": ["dd", "dd2"]},
                    {"id": "r2", "domains": ["cl"]}],
        "domains": [
            {"id": "dd", "region": "r1", "admin": "a", "kind": "edge"},
            {"id": "dd2", "region": "r1", "admin": "b", "kind": "edge"},
            {"id": "cl", "region": "r2", "admin": "c", "kind": "cloud"},
        ],
        "nodes": [
            {"id": "dd-n1", "domain": "dd", "cpu_m": 1000, "mem_mi": 8192},
            {"id": "dd2-n1", "domain": "dd2", "cpu_m": 1000, "mem_mi": 8192},
            {"id": "cl-n1", "domain": "cl", "cpu_m": 16000, "mem_mi": 16384},
        ],
        "attachments": [{"id": "iot1", "domain": "dd"}],
    }
    app = {
        "id": "nomad2",
        "microservices": [
            {"id": "io", "iot": True},
            {"id": "a", "cpu_m": 1000, "mem_mi": 512, "capacity_rps": 50},
        ],
        "edges": [{"from": "io", "to": "a"}],
        "ingress": ["a"],
    }
    policies = {"iot_locality": [{"microservice": "a", "level": "global"}]}
    graph, dag, pset, request = build(topo, app, policies, {"dd": {"a": 50}})
    plan = place_application(graph, dag, request, pset)
    assert plan.mapping.instances_of("a") == {"cl-n1": 1}
    # park a second workload? not needed: drain cl-n1; same-domain tier empty,
    # same-region tier empty (cl is alone in r2), then falls back to free-cpu
    # order among the rest; dd-n1 and dd2-n1 tie at 1000 so id wins
    plan2 = handle_alert(graph, dag, pset, plan,
                         Alert("node_drain", {"node": "cl-n1"}, 1))
    assert plan2.mapping.instances_of("a") == {"dd-n1": 1}


def test_overload_alert_is_a_safe_replan(placed):
    scenario, plan = placed
    alert = Alert("overload", {"node": "ed3-n1", "utilization": 1.0}, tick=3)
    plan2 = handle_alert(scenario.graph, scenario.app, scenario.policies,
                         plan, alert)
    assert plan2.revision == plan.revision + 1
    # counts were already right for the demand, so the mapping is unchanged
    for ms_id in plan.mapping.per_ms:
        assert plan2.mapping.instances_of(ms_id) == plan.mapping.instances_of(ms_id)
    assert validate_plan(scenario.graph, scenario.app, scenario.policies,
                         plan2).ok


@pytest.mark.parametrize("key, error", [("node", UnknownNode),
                                        ("microservice", UnknownMicroservice),
                                        ("drained", UnknownNode)])
def test_replan_rejects_a_plan_naming_unknown_ids(canonical, key, error):
    """A plan document naming a node or microservice the scenario lacks, in
    a slot or in its drained set, is rejected by every alert kind."""
    plan = place_application(canonical.graph, canonical.app, canonical.request,
                             canonical.policies)
    doc = plan_to_doc(plan)
    entry = doc["placements"][0]
    if key == "drained":
        doc["drained"] = ["ghost"]
    else:
        (entry["nodes"][0] if key == "node" else entry)[key] = "ghost"
    for alert in (Alert("overload", {"node": "ed3-n1", "utilization": 1.2}),
                  Alert("node_drain", {"node": "ed3-n1"}),
                  Alert("demand_change", {"demand": {"ed3": {"m2": 100}}})):
        with pytest.raises(error, match="ghost"):
            handle_alert(canonical.graph, canonical.app, canonical.policies,
                         plan_from_doc(doc), alert)


def test_drain_can_be_infeasible():
    topo = two_node_topo(cpu1=1000, cpu2=500)
    app = {
        "id": "cornered",
        "microservices": [
            {"id": "io", "iot": True},
            {"id": "a", "cpu_m": 1000, "mem_mi": 512, "capacity_rps": 50},
        ],
        "edges": [{"from": "io", "to": "a"}],
        "ingress": ["a"],
    }
    policies = {"iot_locality": [{"microservice": "a", "level": "strict-domain"}]}
    graph, dag, pset, request = build(topo, app, policies, {"dd": {"a": 50}})
    plan = place_application(graph, dag, request, pset)
    before = dump_doc(plan_to_doc(plan))
    with pytest.raises(InfeasiblePlacement):
        handle_alert(graph, dag, pset, plan,
                     Alert("node_drain", {"node": "n1"}, 1))
    # a failed replan writes nothing: the graph and the plan passed in stay as they were
    assert graph == build(topo, app, policies, {"dd": {"a": 50}})[0]
    assert dump_doc(plan_to_doc(plan)) == before and plan.drained == frozenset()


def test_replan_backtracks_where_first_fit_strands_a_successor():
    """Growing the global ms1 first-fit fills d10-n0, the only node ms2 may
    use; the replan must give up ms1's first choice as a fresh placement
    would, rather than fail.  (The case ``gen_small_case`` draws for seed 622.)"""
    topo = {
        "regions": [{"id": "r0", "domains": ["d00"]}, {"id": "r1", "domains": ["d10"]}],
        "domains": [
            {"id": "d00", "region": "r0", "admin": "adm-d00", "kind": "cloud"},
            {"id": "d10", "region": "r1", "admin": "adm-d10", "kind": "cloud"},
        ],
        "nodes": [
            {"id": "d00-n0", "domain": "d00", "cpu_m": 1000, "mem_mi": 16384},
            {"id": "d10-n0", "domain": "d10", "cpu_m": 1000, "mem_mi": 8192},
        ],
        "attachments": [{"id": "iot0", "domain": "d00"}],
    }
    app = {
        "id": "stranded",
        "microservices": [
            {"id": "ms0", "iot": True},
            {"id": "ms1", "cpu_m": 250, "mem_mi": 256, "capacity_rps": 25},
            {"id": "ms2", "cpu_m": 250, "mem_mi": 512, "capacity_rps": 100},
        ],
        "edges": [{"from": "ms0", "to": "ms1"}, {"from": "ms1", "to": "ms2"}],
        "ingress": ["ms1"],
    }
    policies = {
        "placement_restriction": [{"microservice": "ms2", "mode": "allow", "domains": ["d10"]}],
        "iot_locality": [{"microservice": "ms1", "level": "global"}],
        "default_locality": "global",
    }
    graph, dag, pset, request = build(topo, app, policies, {"d00": {"ms1": 75}})
    plan = place_application(graph, dag, request, pset)
    assert plan.mapping.instances_of("ms1") == {"d00-n0": 3}
    assert plan.mapping.instances_of("ms2") == {"d10-n0": 1}

    alert = Alert("demand_change", {"demand": {"d00": {"ms1": 150}}}, 1)
    plan2 = handle_alert(graph, dag, pset, plan, alert)
    assert plan2.revision == 2
    assert plan2.mapping.instances_of("ms1") == {"d00-n0": 4, "d10-n0": 2}
    assert plan2.mapping.instances_of("ms2") == {"d10-n0": 2}
    assert validate_plan(graph, dag, pset, plan2).ok


@pytest.mark.parametrize("gen, least", [(gen_small_case, 100), (gen_case, 300)],
                         ids=["gen_small_case", "gen_case"])
def test_replan_fails_only_where_fresh_placement_fails(gen, least):
    """After one seeded drain or demand change, a replan is infeasible
    exactly when a fresh placement of the post-alert state is, and every
    replan it returns is compliant."""
    replanned = 0
    for seed in range(400):
        rng = random.Random(seed)
        topo_doc, app_doc, policy_doc, demand_doc = gen(rng)
        graph, app, pset, request = build(topo_doc, app_doc, policy_doc, demand_doc)
        try:
            plan = place_application(graph, app, request, pset)
        except InfeasiblePlacement:
            continue
        drained = frozenset()
        if rng.random() < 0.5:
            drained = frozenset({rng.choice(sorted(graph.nodes))})
            alert = Alert("node_drain", {"node": min(drained)})
        else:
            factor = rng.choice([Fraction(1, 2), Fraction(3, 2), 2, 3])
            demand_doc = {d: {m: r * factor for m, r in per.items()}
                          for d, per in demand_doc.items()}
            alert = Alert("demand_change", {"demand": demand_doc})

        request = PlacementRequest(app=app, demand=demand_doc).validate_against(graph)
        demand = request.normalized_demand()
        try:
            _reconcile(graph, app, pset, demand, _Budget(SEARCH_BUDGET), drained=drained)
            fresh_ok = True
        except InfeasiblePlacement:
            fresh_ok = False

        try:
            plan2 = handle_alert(graph, app, pset, plan, alert)
        except InfeasiblePlacement:
            assert not fresh_ok, f"seed {seed}: replan failed, fresh placement succeeded"
            continue
        assert fresh_ok, f"seed {seed}: replan succeeded, fresh placement failed"
        assert validate_plan(graph, app, pset, plan2).ok, seed
        replanned += 1
    assert replanned >= least, replanned


# --- replans that move neither the demand nor the drained set ---


def plan_state(plan):
    """Everything a replan decides, with microservice, anchor and slot order."""
    mapping = plan.mapping
    return (mapping.order, [(ms_id, list(anchors.items())) for ms_id, anchors in mapping.per_ms.items()],
            plan.routes.rules, plan.demand, plan.drained)


def unmoving_alerts(plan, hot):
    """An overload of node ``hot``, a demand change to the plan's own demand
    and, when it has one, a drain of a drained node: none moves the demand or
    the drained set."""
    yield Alert("overload", {"node": hot, "utilization": 1.5})
    yield Alert("demand_change", {"demand": {d: dict(per) for d, per in plan.demand.items()}})
    for node in sorted(plan.drained)[:1]:
        yield Alert("node_drain", {"node": node})


@pytest.mark.parametrize("gen_app", [gen_chain_app, gen_dag_app], ids=["chain", "dag"])
def test_a_replanned_mapping_is_a_fixed_point(gen_app, monkeypatch):
    """Every placed plan, and every plan the module-level handle_alert
    returns after one seeded drain or demand change, from the kept or the
    fresh run, comes back unchanged, slot order and anchor order included,
    when an alert that moves neither its demand nor its drained set is
    replayed through the full replan.  (Seeds stop short of gen_dag_app seed
    192, whose fresh placement gives up after the whole search budget.)"""
    reconciles = count_calls(monkeypatch, "_reconcile")
    replans = fresh = drained = 0
    for seed in range(150):
        rng = random.Random(seed)
        graph, app, pset, request = build(*gen_case(rng, gen_app=gen_app))
        try:
            plan = place_application(graph, app, request, pset)
        except InfeasiblePlacement:
            continue
        for replay in unmoving_alerts(plan, min(graph.nodes)):
            again = handle_alert(graph, app, pset, plan, replay)
            assert plan_state(again) == plan_state(plan), (seed, "placed", replay.kind)
        if rng.random() < 0.5:
            alert = Alert("node_drain", {"node": rng.choice(sorted(graph.nodes))})
        else:
            factor = rng.choice([Fraction(1, 2), Fraction(3, 2), 2, 3])
            alert = Alert("demand_change", {"demand": {
                d: {m: r * factor for m, r in per.items()} for d, per in plan.demand.items()}})
        reconciles.clear()
        try:
            plan = handle_alert(graph, app, pset, plan, alert)
        except InfeasiblePlacement:
            continue
        fresh += len(reconciles) == 2
        drained += bool(plan.drained)
        replans += 1
        for replay in unmoving_alerts(plan, min(graph.nodes)):
            again = handle_alert(graph, app, pset, plan, replay)
            assert plan_state(again) == plan_state(plan), (seed, replay.kind)
            assert again.revision == plan.revision + 1
    assert replans >= 100 and drained >= 30
    if gen_app is gen_chain_app:
        assert fresh >= 1  # a plan from the fresh fallback is a fixed point too


OVERLOAD = Alert("overload", {"node": "ed3-n1", "utilization": 1.2})


@pytest.fixture
def replanned(placed):
    """A control plane and the last plan its handle_alert returned."""
    scenario, plan = placed
    control = ControlPlane(scenario.graph, scenario.app, scenario.policies)
    return scenario, control, control.handle_alert(plan, OVERLOAD)


def test_control_plane_returns_the_last_plan_for_an_unmoving_alert(replanned, monkeypatch):
    """On the plan it returned last, an overload, a demand change to the same
    demand and a drain of a drained node run no search, no routing and no
    audit; the plan comes back at the next revision, equal to what the full
    replan returns."""
    scenario, control, plan = replanned
    plan = control.handle_alert(plan, Alert("node_drain", {"node": "cl-n1"}))
    calls = [count_calls(monkeypatch, name) for name in ("_reconcile", "generate_routes", "validate_plan")]
    for alert in unmoving_alerts(plan, "ed3-n1"):
        want = handle_alert(scenario.graph, scenario.app, scenario.policies, plan, alert)
        for counted in calls:
            counted.clear()
        got = control.handle_alert(plan, alert)
        assert calls == [[], [], []], alert.kind
        assert (got.revision, got.mapping, got.routes) == (plan.revision + 1, plan.mapping, plan.routes)
        assert dump_doc(plan_to_doc(got)) == dump_doc(plan_to_doc(want))
        plan = got
    moved = control.handle_alert(plan, Alert("demand_change", {"demand": {"ed3": {"m2": 150}}}))
    assert calls[0] and len(calls[2]) == 1 and moved.demand != plan.demand


@pytest.mark.parametrize("source", ["document", "other control plane"])
def test_a_plan_that_is_not_the_last_takes_the_full_replan(replanned, monkeypatch, source):
    """A plan read back from its document and one another control plane
    returned may carry edits nobody audited here: each replan searches,
    routes and audits as the module-level handle_alert does."""
    scenario, control, plan = replanned
    if source == "document":
        plan = plan_from_doc(plan_to_doc(plan))
    else:
        plan = ControlPlane(scenario.graph, scenario.app, scenario.policies).handle_alert(plan, OVERLOAD)
    calls = [count_calls(monkeypatch, name) for name in ("_reconcile", "generate_routes", "validate_plan")]
    got = control.handle_alert(plan, OVERLOAD)
    assert [len(counted) for counted in calls] == [1, 1, 1]
    assert got.revision == plan.revision + 1


def test_the_post_alert_state_is_worked_out_once_per_alert(canonical, monkeypatch):
    """ControlPlane.handle_alert works out the post-alert demand and drained
    set once per alert: a shortcut uses it, and a full replan on its placed
    or last plan gets it from there, called through the module global
    ``controlplane.handle_alert`` with the alert as its last positional
    argument.  A plan it did not return takes the full replan, which works
    the state out itself, once."""
    control = ControlPlane(canonical.graph, canonical.app, canonical.policies)
    plan = control.place(canonical.request)
    states, full = [], []
    post_alert_state, replan = controlplane._post_alert_state, controlplane.handle_alert

    def counted(*args):
        states.append(args[-1])
        return post_alert_state(*args)

    def recording(*args, **kwargs):
        full.append((args[-1], kwargs))
        return replan(*args, **kwargs)

    monkeypatch.setattr(controlplane, "_post_alert_state", counted)
    monkeypatch.setattr(controlplane, "handle_alert", recording)
    alerts = [OVERLOAD, Alert("demand_change", {"demand": {"ed3": {"m2": 150}}}), OVERLOAD,
              Alert("node_drain", {"node": "cl-n1"}), Alert("node_drain", {"node": "cl-n1"})]
    plan = control.handle_alert(plan, alerts[0])
    for alert in alerts[1:]:
        plan = control.handle_alert(plan, alert)
    assert states == alerts
    assert [alert for alert, _ in full] == [alerts[1], alerts[3]]
    assert all(kwargs["state"] is not None for _, kwargs in full)
    read_back = plan_from_doc(plan_to_doc(plan))
    control.handle_alert(read_back, alerts[1])
    assert states == [*alerts, alerts[1]] and full[-1] == (alerts[1], {"state": None})


def test_a_replanned_plan_shares_no_slot_list_with_its_input(placed):
    """Plans are values: editing the slot lists of a plan the full replan
    returned, those of the anchors it kept as they were included, leaves the
    plan it was replanned from unchanged, and editing that plan leaves the
    returned one unchanged."""
    scenario, plan = placed
    graph, app, pset = scenario.graph, scenario.app, scenario.policies

    def slot_lists(p):
        return [ap.slots for anchors in p.mapping.per_ms.values() for ap in anchors.values()]

    for alert in (OVERLOAD, Alert("node_drain", {"node": "cl-n1"})):
        for edited in ("returned", "input"):
            source = plan_from_doc(plan_to_doc(plan))
            replanned = handle_alert(graph, app, pset, source, alert)
            kept = [ap for ms_id, anchors in replanned.mapping.per_ms.items() for anchor, ap in anchors.items()
                    if anchor in source.mapping.per_ms[ms_id]
                    and ap.slots == source.mapping.per_ms[ms_id][anchor].slots]
            assert kept and not {id(s) for s in slot_lists(replanned)} & {id(s) for s in slot_lists(source)}
            target, other = (replanned, source) if edited == "returned" else (source, replanned)
            before = dump_doc(plan_to_doc(other))
            for slots in slot_lists(target):
                slots[0] = ("cl-n3", 9)
                slots.append(("ed3-n1", 1))
            assert dump_doc(plan_to_doc(other)) == before, (alert.kind, edited)


def moved_to_cl_n2(plan):
    """A copy of ``plan``, on fresh objects, with its last m3 slot in
    region-2 moved to cl-n2, where m3 may not run."""
    kept = plan.mapping.per_ms["m3"]["region-2"]
    assert kept.slots[-1] == ("ed4-n1", 1)
    per_ms = {ms_id: dict(anchors) for ms_id, anchors in plan.mapping.per_ms.items()}
    per_ms["m3"]["region-2"] = replace(kept, slots=kept.slots[:-1] + [("cl-n2", 1)])  # m3 is edge-only
    return replace(plan, mapping=replace(plan.mapping, per_ms=per_ms))


def test_a_placed_plan_is_audited_before_it_comes_back(canonical, monkeypatch):
    """An overload on the plan place() returned runs no search and no
    routing, only one audit, and gives the full replan's plan; the plan it
    returns then comes back with no audit.  A placement the audit refuses,
    here one whose planner put an m3 slot on cl-n2, takes the full replan,
    whose audit refuses it as the module-level handle_alert does."""
    control = ControlPlane(canonical.graph, canonical.app, canonical.policies)
    calls = [count_calls(monkeypatch, name) for name in ("_reconcile", "generate_routes", "validate_plan")]
    plan = control.place(canonical.request)
    for counted in calls:
        counted.clear()
    got = control.handle_alert(plan, OVERLOAD)
    assert [len(counted) for counted in calls] == [0, 0, 1]
    want = handle_alert(canonical.graph, canonical.app, canonical.policies, plan, OVERLOAD)
    assert dump_doc(plan_to_doc(got)) == dump_doc(plan_to_doc(want))
    for counted in calls:
        counted.clear()
    assert control.handle_alert(got, OVERLOAD).revision == got.revision + 1
    assert calls == [[], [], []]

    placed = controlplane.place_application
    monkeypatch.setattr(controlplane, "place_application", lambda *args: moved_to_cl_n2(placed(*args)))
    bad = control.place(canonical.request)
    with pytest.raises(PlanningError, match="^replan produced a non-compliant plan: "):
        control.handle_alert(bad, OVERLOAD)


def test_an_edited_copy_of_the_last_plan_is_audited(replanned):
    """A copy of the last plan with one m3 slot moved to cl-n2, where m3 may
    not run, made on fresh objects, is searched and audited on an overload:
    the audit refuses it, as in the module-level handle_alert, and the last
    plan is untouched."""
    scenario, control, plan = replanned
    kept = plan.mapping.per_ms["m3"]["region-2"]
    edited = moved_to_cl_n2(plan)
    for replan in (control.handle_alert,
                   lambda p, a: handle_alert(scenario.graph, scenario.app, scenario.policies, p, a)):
        with pytest.raises(PlanningError, match="^replan produced a non-compliant plan: "):
            replan(edited, OVERLOAD)
    assert plan.mapping.per_ms["m3"]["region-2"] is kept and kept.slots[-1] == ("ed4-n1", 1)
    assert control.handle_alert(plan, OVERLOAD).mapping is plan.mapping


def test_a_bad_demand_change_on_the_last_plan_still_raises(replanned):
    """The post-alert demand is validated before any shortcut: an unknown
    domain raises UnknownDomain, as the module-level handle_alert does."""
    scenario, control, plan = replanned
    alert = Alert("demand_change", {"demand": {"nowhere": {"m2": 100}}})
    with pytest.raises(UnknownDomain) as want:
        handle_alert(scenario.graph, scenario.app, scenario.policies, plan, alert)
    with pytest.raises(UnknownDomain) as got:
        control.handle_alert(plan, alert)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("payload, error, message", [
    ({"node": ["x"], "utilization": "abc"}, UnknownNode, "overloaded node must be a non-empty string, got ['x']"),
    ({"node": "ghost", "utilization": None}, UnknownNode, "overload on unknown node 'ghost'"),
    ({"node": "ed3-n1", "utilization": "abc"}, InvalidRequest, "expected a finite number, got 'abc'"),
    ({"node": "ed3-n1", "utilization": -0.5}, InvalidRequest, "overload utilization must be non-negative, got -0.5"),
], ids=["list-node", "unknown-node", "text-utilization", "negative-utilization"])
def test_a_bad_overload_report_raises_on_every_path(replanned, payload, error, message):
    """An overload's node is read as a drain's is, an id the graph holds, and
    its utilization as a non-negative rate, by the module-level handle_alert
    and by the control plane's shortcut alike."""
    scenario, control, plan = replanned
    alert = Alert("overload", payload)
    with pytest.raises(error) as want:
        handle_alert(scenario.graph, scenario.app, scenario.policies, plan, alert)
    with pytest.raises(error) as got:
        control.handle_alert(plan, alert)
    assert str(got.value) == str(want.value) == message


@pytest.mark.parametrize("utilization", [0, 0.0])
def test_an_overload_at_zero_utilization_is_accepted(replanned, utilization):
    """Zero is a non-negative rate: an overload reporting it replans, by the
    module-level handle_alert and by the control plane's shortcut alike, to
    the plan's own mapping and rules at the next revision."""
    scenario, control, plan = replanned
    alert = Alert("overload", {"node": "ed3-n1", "utilization": utilization})
    want = handle_alert(scenario.graph, scenario.app, scenario.policies, plan, alert)
    got = control.handle_alert(plan, alert)
    for replan in (want, got):
        assert (replan.mapping, replan.routes, replan.revision) == (plan.mapping, plan.routes, plan.revision + 1)


@pytest.mark.parametrize("kind, payload, error, message", [
    ("demand_change", {"demand": {"ed3": 5}}, InvalidRequest, "demand must be a mapping of mappings"),
    ("demand_change", {"demand": {"ed3": None}}, InvalidRequest, "demand must be a mapping of mappings"),
    ("demand_change", {"demand": [1]}, InvalidRequest, "demand fragment must be a mapping"),
    ("node_drain", {"node": ["x"]}, UnknownNode, "drained node must be a non-empty string"),
], ids=["number-per-domain", "null-per-domain", "list", "list-node"])
def test_a_malformed_alert_payload_raises_the_same_error_on_every_path(replanned, kind, payload, error, message):
    """A demand change whose demand is not a mapping of mappings of rates, and
    a drain whose node is not an id, raise the package's own error, from the
    module-level handle_alert and from the control plane's shortcut alike."""
    scenario, control, plan = replanned
    alert = Alert(kind, payload)
    with pytest.raises(error, match=message) as want:
        handle_alert(scenario.graph, scenario.app, scenario.policies, plan, alert)
    with pytest.raises(error) as got:
        control.handle_alert(plan, alert)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("payload", [None, "demand", ["demand"], 0])
def test_an_alert_payload_must_be_a_mapping(payload):
    """``"demand" in "demand"`` holds, so only a type check refuses a string."""
    with pytest.raises(PlanningError, match="^demand_change alert payload must be a mapping"):
        Alert("demand_change", payload)


def test_a_malformed_request_is_refused_before_placement(canonical):
    for demand in ({"ed3": 5}, [1], {"ed3": {"m2": None}}):
        with pytest.raises(InvalidRequest):
            place_application(canonical.graph, canonical.app, PlacementRequest(canonical.app, demand),
                              canonical.policies)


# --- placer and policy agent agree ---


@pytest.mark.parametrize("gen_app", [gen_chain_app, gen_dag_app], ids=["chain", "dag"])
def test_placed_slots_and_routes_are_allowed_by_the_policy_agent(gen_app):
    """Every slot of a placed plan is allowed by the placement restriction the
    policy server evaluates, and every rule destination by the locality
    policy of its rule: ``iot_locality`` from the device domain for ingress
    rules, ``ms_locality`` from the consumer's domain otherwise."""
    placed = checked = 0
    for seed in range(125):
        graph, app, pset, request = build(*gen_case(random.Random(seed), gen_app=gen_app))
        try:
            plan = place_application(graph, app, request, pset)
        except InfeasiblePlacement:
            continue
        placed += 1
        for ms_id, anchors in plan.mapping.per_ms.items():
            for ap in anchors.values():
                for node_id, _ in ap.slots:
                    query = {"microservice": ms_id, "domain": graph.nodes[node_id].domain_id}
                    decision = evaluate_query(pset, graph, "placement_restriction", query)
                    assert decision.allowed, (seed, query, decision.reason)
                    checked += 1
        for rule in plan.routes.rules:
            for node_id, _ in rule.destinations:
                target = graph.nodes[node_id].domain_id
                if rule.consumer == IOT_SOURCE:
                    policy, query = "iot_locality", {"microservice": rule.target_ms,
                                                     "device_domain": rule.domain_id}
                else:
                    policy, query = "ms_locality", {"consumer": rule.consumer,
                                                    "consumed": rule.target_ms,
                                                    "consumer_domain": rule.domain_id}
                decision = evaluate_query(pset, graph, policy, {**query, "target_domain": target})
                assert decision.allowed, (seed, policy, query, target, decision.reason)
                checked += 1
    assert placed >= 90 and checked >= 600

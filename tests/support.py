"""Shared test helpers: scenario builders, random generators, oracles.

The oracles intentionally reimplement the semantics from the raw policy
documents with their own data structures (functional capacity maps, plain
recursion) so that a planner bug cannot hide inside a shared helper:

* ``oracle_eligible`` answers domain eligibility by brute force.
* ``doc_scope`` reads a locality scope from the raw topology document.
* ``oracle_sequence`` orders microservices for placement with its own
  frontier loop, from levels read off the raw policy document.
* ``oracle_feasible`` decides by exhaustive search whether any placement
  satisfying the per-anchor instance counts exists at all.
* ``oracle_anchor_demand`` anchors a microservice's demand slot by slot.
* ``oracle_routed_totals`` derives each microservice's total load by plain
  recursion over the raw application and demand documents.
* ``check_capacity_cut`` re-derives a capacity cut's bounds, nodes and
  inequality from the raw documents.

``reference_run_scenario`` is the simulator loop that routes, measures and
audits on every tick, kept as the reference the reusing loop must match.
It routes and measures with ``reference_route_flows`` and
``reference_node_utilization``, the simulator's arithmetic in plain
``Fraction`` sums, one normalisation per addition, kept as the reference
the integer arithmetic of ``meshsim`` must match row for row.
"""

from __future__ import annotations

import copy
import math
import random
from fractions import Fraction
from pathlib import Path

from edgeplane.appmodel import PlacementRequest, app_from_doc, as_rate
from edgeplane.controlplane import Alert, ControlPlane
from edgeplane.errors import InfeasiblePlacement, MissingRoute
from edgeplane.locality import IOT_SOURCE, LocalityLevel
from edgeplane.meshsim import (
    FlowAssignment,
    SimulationReport,
    _throughput_summary,
    check_compliance,
)
from edgeplane.policy import parse_policies
from edgeplane.topology import load_topology

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"

LEVELS = ("strict-domain", "strict-region", "global")
_STRICTNESS = {"strict-domain": 0, "strict-region": 1, "global": 2}


def build(topo_doc, app_doc, policy_doc, demand_doc):
    """Parse the four raw documents into model objects plus a request."""
    graph = load_topology(topo_doc)
    app = app_from_doc(app_doc)
    pset = parse_policies(policy_doc, app, graph)
    request = PlacementRequest(app=app, demand={
        str(d): {str(m): as_rate(r) for m, r in per.items()}
        for d, per in demand_doc.items()
    })
    request.validate_against(graph)
    return graph, app, pset, request


# --- random scenario generation ------------------------------------------------


def gen_topology(rng: random.Random, max_regions=3, max_domains_per_region=2,
                 max_nodes_per_domain=2, cpu_choices=(4000, 8000, 16000)):
    regions, domains, nodes = [], [], []
    for r in range(rng.randint(1, max_regions)):
        domain_ids = [f"d{r}{i}" for i in range(rng.randint(1, max_domains_per_region))]
        regions.append({"id": f"r{r}", "domains": domain_ids})
        for did in domain_ids:
            domains.append({
                "id": did, "region": f"r{r}", "admin": f"adm-{did}",
                "kind": rng.choice(["edge", "cloud"]),
            })
            for n in range(rng.randint(1, max_nodes_per_domain)):
                nodes.append({
                    "id": f"{did}-n{n}", "domain": did,
                    "cpu_m": rng.choice(cpu_choices),
                    "mem_mi": rng.choice([8192, 16384]),
                })
    domain_ids = [d["id"] for d in domains]
    attach = rng.sample(domain_ids, k=rng.randint(1, min(2, len(domain_ids))))
    attachments = [{"id": f"iot{i}", "domain": d} for i, d in enumerate(attach)]
    return ({"regions": regions, "domains": domains, "nodes": nodes,
             "attachments": attachments}, attach)


def gen_chain_app(rng: random.Random, max_ms=4, ratios=(0.5, 1, 1, 2)):
    """IoT source feeding a linear chain ms1 -> ... -> msN."""
    n = rng.randint(1, max_ms)
    microservices = [{"id": "ms0", "iot": True}]
    edges = []
    for i in range(1, n + 1):
        microservices.append({
            "id": f"ms{i}",
            "cpu_m": rng.choice([250, 500, 1000]),
            "mem_mi": rng.choice([256, 512]),
            "capacity_rps": rng.choice([25, 50, 100]),
        })
        edges.append({"from": f"ms{i-1}", "to": f"ms{i}",
                      "ratio": rng.choice(ratios)})
    return {"id": "fuzz-app", "microservices": microservices,
            "edges": edges, "ingress": ["ms1"]}


def gen_dag_app(rng: random.Random, max_ms=6, max_fan_in=3):
    """IoT sources feeding a random fan-in/fan-out DAG.  Ids are shuffled, so
    id order differs from call order, and some IoT sources also feed
    microservices past the ingress set."""
    names = [f"ms{i}" for i in range(1, rng.randint(1, max_ms) + 1)]
    rng.shuffle(names)
    sources = [f"io{i}" for i in range(rng.randint(1, 2))]
    microservices = [{"id": m, "iot": True} for m in sources]
    edges, ingress = [], []
    for i, ms_id in enumerate(names):
        microservices.append({
            "id": ms_id,
            "cpu_m": rng.choice([250, 500, 1000]),
            "mem_mi": rng.choice([256, 512]),
            "capacity_rps": rng.choice([25, 50, 100]),
        })
        callers = rng.sample(names[:i], k=rng.randint(0, min(i, max_fan_in)))
        if not callers:
            ingress.append(ms_id)
        if not callers or rng.random() < 0.2:
            callers += rng.sample(sources, k=1)
        edges += [{"from": c, "to": ms_id, "ratio": rng.choice((0.5, 1, 2))} for c in callers]
    return {"id": "dag-app", "microservices": microservices,
            "edges": edges, "ingress": ingress}


def iot_renamed(app_doc, prefix):
    """A copy of ``app_doc`` with its IoT-placed microservices renamed
    ``prefix`` plus their index, in document order."""
    names = {ms["id"]: f"{prefix}{i}"
             for i, ms in enumerate(ms for ms in app_doc["microservices"] if ms.get("iot"))}
    renamed = copy.deepcopy(app_doc)
    for ms in renamed["microservices"]:
        ms["id"] = names.get(ms["id"], ms["id"])
    for edge in renamed["edges"]:
        edge["from"] = names.get(edge["from"], edge["from"])
    return renamed


def gen_policies(rng: random.Random, app_doc, domain_ids, restrict_prob=0.4,
                 locality_prob=0.5):
    ms_ids = [m["id"] for m in app_doc["microservices"] if not m.get("iot")]
    ingress = app_doc["ingress"]
    doc = {
        "default_locality": rng.choice(LEVELS),
        "placement_restriction": [],
        "iot_locality": [
            {"microservice": m, "level": rng.choice(LEVELS)} for m in ingress
        ],
        "ms_locality": [],
    }
    if rng.random() < restrict_prob and len(domain_ids) > 1:
        victim = rng.choice(ms_ids)
        listed = rng.sample(domain_ids, k=rng.randint(1, len(domain_ids) - 1))
        doc["placement_restriction"].append({
            "microservice": victim,
            "mode": rng.choice(["allow", "deny"]),
            "domains": listed,
        })
    iot_ids = {m["id"] for m in app_doc["microservices"] if m.get("iot")}
    for edge in app_doc["edges"]:
        if edge["from"] in iot_ids:
            continue
        if rng.random() < locality_prob:
            doc["ms_locality"].append({
                "consumer": edge["from"], "consumed": edge["to"],
                "level": rng.choice(LEVELS),
            })
    return doc


def gen_case(rng: random.Random, demand_choices=(25, 50, 100), gen_app=gen_chain_app):
    """One full random scenario: returns the four raw documents."""
    topo_doc, attach = gen_topology(rng)
    app_doc = gen_app(rng)
    policy_doc = gen_policies(rng, app_doc, [d["id"] for d in topo_doc["domains"]])
    demand_doc = {d: {m: rng.choice(demand_choices) for m in app_doc["ingress"]}
                  for d in attach}
    return topo_doc, app_doc, policy_doc, demand_doc


def gen_small_case(rng: random.Random):
    """Tiny scenario for exhaustive-oracle comparison: tight capacities so a
    healthy share of cases is genuinely infeasible."""
    topo_doc, attach = gen_topology(
        rng, max_regions=2, max_domains_per_region=2, max_nodes_per_domain=1,
        cpu_choices=(1000, 2000, 3000),
    )
    # cap at 3 domains / 4 nodes total
    while len(topo_doc["domains"]) > 3:
        dropped = topo_doc["domains"].pop()
        topo_doc["nodes"] = [n for n in topo_doc["nodes"] if n["domain"] != dropped["id"]]
        for region in topo_doc["regions"]:
            region["domains"] = [d for d in region["domains"] if d != dropped["id"]]
        topo_doc["regions"] = [r for r in topo_doc["regions"] if r["domains"]]
        topo_doc["attachments"] = [a for a in topo_doc["attachments"]
                                   if a["domain"] != dropped["id"]]
    if not topo_doc["attachments"]:
        topo_doc["attachments"] = [{"id": "iot0", "domain": topo_doc["domains"][0]["id"]}]
    attach = [a["domain"] for a in topo_doc["attachments"]]
    app_doc = gen_chain_app(rng, max_ms=3, ratios=(1, 1, 2))
    policy_doc = gen_policies(rng, app_doc,
                              [d["id"] for d in topo_doc["domains"]],
                              restrict_prob=0.5, locality_prob=0.6)
    demand_doc = {d: {m: rng.choice([25, 50, 75, 100]) for m in app_doc["ingress"]}
                  for d in attach}
    return topo_doc, app_doc, policy_doc, demand_doc


# --- oracles --------------------------------------------------------------------


def oracle_eligible(graph, policy_doc, ms_id, anchor_domain, level):
    """Brute-force eligible domains from the raw policy document."""
    restrictions = {
        r["microservice"]: (r["mode"], set(r["domains"]))
        for r in policy_doc.get("placement_restriction", [])
    }

    def allowed(domain_id):
        if ms_id not in restrictions:
            return True
        mode, listed = restrictions[ms_id]
        return domain_id in listed if mode == "allow" else domain_id not in listed

    def in_scope(domain_id):
        if level == "strict-domain":
            return domain_id == anchor_domain
        if level == "strict-region":
            return graph.domains[domain_id].region_id == graph.domains[anchor_domain].region_id
        return True

    return sorted(d for d in graph.domains if in_scope(d) and allowed(d))


def doc_scope(topo_doc, domain_id, level) -> set[str]:
    """The domains in ``domain_id``'s scope at ``level``, read from the raw
    topology document's region lists."""
    region_of = {d: r["id"] for r in topo_doc["regions"] for d in r["domains"]}
    if level is LocalityLevel.STRICT_DOMAIN:
        return {domain_id}
    if level is LocalityLevel.STRICT_REGION:
        return {d for d, r in region_of.items() if r == region_of[domain_id]}
    return set(region_of)


def oracle_anchor_demand(graph, app, pset, demand, ms_id, per_ms_mapping):
    """Anchored demand by the slot-by-slot formula: every slot of a consumer
    anchor emits, in its own domain, the anchor's demand weighted by the
    slot's share of the anchor's instances; per edge, those domain emissions
    times the rate ratio are summed at the edge's anchor.  Returns
    ``{anchor: (level, rps)}`` with zero contributions dropped."""
    def emission(anchors):
        out: dict[str, Fraction] = {}
        for ap in anchors.values():
            total = sum(k for _, k in ap.slots)
            if total == 0 or ap.demand_rps <= 0:
                continue
            for node_id, k in ap.slots:
                domain_id = graph.nodes[node_id].domain_id
                out[domain_id] = out.get(domain_id, Fraction(0)) + ap.demand_rps * Fraction(k, total)
        return out

    acc: dict[str, tuple[LocalityLevel, Fraction]] = {}

    def add(anchor, level, rps):
        if rps > 0:
            acc[anchor] = (level, acc.get(anchor, (level, Fraction(0)))[1] + rps)

    if ms_id in app.ingress_ids:
        level = pset.iot_level(ms_id)
        for domain_id, per in demand.items():
            add(graph.anchor_of(domain_id, level), level, per.get(ms_id, Fraction(0)))
        return acc
    for edge in app.predecessors(ms_id):
        if app.microservices[edge.from_ms].placed_on_iot:
            continue
        level = pset.edge_level(edge.from_ms, ms_id)
        for domain_id, rps in emission(per_ms_mapping.get(edge.from_ms, {})).items():
            add(graph.anchor_of(domain_id, level), level, rps * edge.rate_ratio)
    return acc


def _frontier_walk(app, rank, done=()):
    """Repeatedly take the lowest-ranked microservice whose predecessors are
    all done or taken."""
    done, order = set(done), []
    todo = set(app.microservices) - done
    while todo:
        pick = min((m for m in todo if all(e.from_ms in done for e in app.predecessors(m))),
                   key=rank)
        order.append(pick)
        done.add(pick)
        todo.remove(pick)
    return order


def oracle_topological_order(app) -> list[str]:
    """Every microservice that carries traffic, the ready one with the
    smallest id first; IoT-placed ones count as done from the start."""
    iot = [m for m, ms in app.microservices.items() if ms.placed_on_iot]
    return _frontier_walk(app, rank=lambda m: m, done=iot)


def oracle_sequence(app, policy_doc) -> list[str]:
    """Placement order: the ready microservice with the strictest level
    first, ties by topological rank, then id.  An ingress takes its IoT
    level, anything else the strictest level of its edges from non-IoT
    consumers, both read from the raw policy document.  IoT-placed
    microservices count as placed from the start."""
    default_level = policy_doc.get("default_locality", "global")
    iot_levels = {r["microservice"]: r["level"] for r in policy_doc.get("iot_locality", [])}
    edge_levels = {(r["consumer"], r["consumed"]): r["level"]
                   for r in policy_doc.get("ms_locality", [])}

    def level(ms_id):
        if ms_id in app.ingress_ids:
            return iot_levels.get(ms_id, default_level)
        levels = [edge_levels.get((e.from_ms, e.to_ms), default_level)
                  for e in app.predecessors(ms_id)
                  if not app.microservices[e.from_ms].placed_on_iot]
        return min(levels, key=_STRICTNESS.__getitem__, default=default_level)

    topo_rank = {m: i for i, m in enumerate(oracle_topological_order(app))}
    iot = [m for m, ms in app.microservices.items() if ms.placed_on_iot]
    return _frontier_walk(app, rank=lambda m: (_STRICTNESS[level(m)], topo_rank[m], m), done=iot)


def oracle_routed_totals(app_doc, demand_doc) -> dict[str, Fraction]:
    """Total rps each schedulable microservice receives: its ingress demand
    plus, for every non-IoT predecessor, that predecessor's total times the
    edge ratio.  IoT-placed microservices forward nothing past the ingress."""
    iot = {m["id"] for m in app_doc["microservices"] if m.get("iot")}
    into: dict[str, list[tuple[str, Fraction]]] = {}
    for e in app_doc["edges"]:
        if e["from"] not in iot:
            into.setdefault(e["to"], []).append((e["from"], Fraction(str(e.get("ratio", 1)))))
    memo: dict[str, Fraction] = {}

    def total(ms_id):
        if ms_id not in memo:
            offered = sum(Fraction(str(per.get(ms_id, 0))) for per in demand_doc.values())
            memo[ms_id] = offered + sum(total(src) * r for src, r in into.get(ms_id, []))
        return memo[ms_id]

    return {m["id"]: total(m["id"]) for m in app_doc["microservices"] if m["id"] not in iot}


def oracle_feasible(graph, app, policy_doc, demand, drained=frozenset()) -> bool:
    """Exhaustive search: does ANY compliant placement off the ``drained`` nodes exist?

    Independent implementation: levels and restrictions come from the raw
    policy document, capacity is tracked in immutable maps, and every way of
    splitting each anchor's instance count across eligible nodes is tried.
    Exponential, so only for tiny scenarios.
    """
    default_level = policy_doc.get("default_locality", "global")
    iot_levels = {r["microservice"]: r["level"]
                  for r in policy_doc.get("iot_locality", [])}
    edge_levels = {(r["consumer"], r["consumed"]): r["level"]
                   for r in policy_doc.get("ms_locality", [])}
    restrictions = {r["microservice"]: (r["mode"], set(r["domains"]))
                    for r in policy_doc.get("placement_restriction", [])}

    region_of = {d: dom.region_id for d, dom in graph.domains.items()}
    capacity = {n.id: (n.cpu_capacity, n.mem_capacity) for n in graph.nodes.values()}
    domain_of = {n.id: n.domain_id for n in graph.nodes.values()}
    usable = sorted(n.id for n in graph.nodes.values() if n.id not in drained)

    def allowed(ms_id, domain_id):
        if ms_id not in restrictions:
            return True
        mode, listed = restrictions[ms_id]
        return domain_id in listed if mode == "allow" else domain_id not in listed

    def anchor_of(domain_id, level):
        if level == "strict-domain":
            return domain_id
        if level == "strict-region":
            return region_of[domain_id]
        return "global"

    def anchor_domain_set(anchor, level):
        if level == "strict-domain":
            return [anchor]
        if level == "strict-region":
            return sorted(d for d in graph.domains if region_of[d] == anchor)
        return sorted(graph.domains)

    sequence = oracle_sequence(app, policy_doc)

    def emissions(entries):
        out: dict[str, Fraction] = {}
        for _anchor, _level, rps, alloc in entries:
            total = sum(alloc.values())
            if total == 0 or rps <= 0:
                continue
            for node_id, k in alloc.items():
                d = domain_of[node_id]
                out[d] = out.get(d, Fraction(0)) + rps * Fraction(k, total)
        return out

    def anchors_for(ms_id, chosen):
        acc: dict[str, tuple[str, Fraction]] = {}

        def add(anchor, level, rps):
            if rps <= 0:
                return
            prev = acc.get(anchor, (level, Fraction(0)))[1]
            acc[anchor] = (level, prev + rps)

        if ms_id in app.ingress_ids:
            level = iot_levels.get(ms_id, default_level)
            for dom in sorted(demand):
                add(anchor_of(dom, level), level, demand[dom].get(ms_id, Fraction(0)))
        else:
            for edge in app.predecessors(ms_id):
                if app.microservices[edge.from_ms].placed_on_iot:
                    continue
                level = edge_levels.get((edge.from_ms, ms_id), default_level)
                for dom, rps in emissions(chosen[edge.from_ms]).items():
                    add(anchor_of(dom, level), level, rps * edge.rate_ratio)
        return sorted((a, lv, rp) for a, (lv, rp) in acc.items())

    def splits(node_ids, need, cpu_req, mem_req, used):
        def rec(i, remaining):
            if remaining == 0:
                yield {}
                return
            if i == len(node_ids):
                return
            node_id = node_ids[i]
            cpu_free = capacity[node_id][0] - used.get(node_id, (0, 0))[0]
            mem_free = capacity[node_id][1] - used.get(node_id, (0, 0))[1]
            fit = min(remaining, cpu_free // cpu_req, mem_free // mem_req)
            for k in range(fit, -1, -1):
                for rest in rec(i + 1, remaining - k):
                    out = dict(rest)
                    if k:
                        out[node_id] = k
                    yield out
        yield from rec(0, need)

    def search(i, chosen, used):
        if i == len(sequence):
            return True
        ms_id = sequence[i]
        ms = app.microservices[ms_id]
        anchor_list = anchors_for(ms_id, chosen)

        def per_anchor(j, entries, used_now):
            if j == len(anchor_list):
                chosen[ms_id] = entries
                if search(i + 1, chosen, used_now):
                    return True
                del chosen[ms_id]
                return False
            anchor, level, rps = anchor_list[j]
            need = math.ceil(rps / ms.capacity_rps)
            domains = [d for d in anchor_domain_set(anchor, level) if allowed(ms_id, d)]
            node_ids = [n for n in usable if domain_of[n] in domains]
            for alloc in splits(node_ids, need, ms.cpu_req, ms.mem_req, used_now):
                used_next = dict(used_now)
                for node_id, k in alloc.items():
                    cpu0, mem0 = used_next.get(node_id, (0, 0))
                    used_next[node_id] = (cpu0 + k * ms.cpu_req, mem0 + k * ms.mem_req)
                if per_anchor(j + 1, entries + [(anchor, level, rps, alloc)], used_next):
                    return True
            return False

        return per_anchor(0, [], used)

    return search(0, {}, {})


def check_capacity_cut(topo_doc, app_doc, policy_doc, demand_doc, cut, drained=()) -> bool:
    """Whether ``cut`` proves the demand infeasible, judged from the raw
    documents alone.

    Each (microservice, anchor, bound) item must carry the bound the
    documents give it: at the global anchor the ceiling of the
    microservice's routed total (``oracle_routed_totals``) over its
    capacity_rps, at a domain or region anchor of an ingress whose IoT level
    is that strict, the ceiling of the attachment demand inside the anchor.
    A microservice has one global item or items at distinct anchors, so no
    instance counts twice.  ``nodes`` must be exactly the undrained nodes in
    the items' scopes that their restrictions allow.  The items' need of the
    cut's resource must equal ``need`` and exceed ``capacity``, which must
    equal the sum over those nodes of the lesser of the node's capacity and
    what the items' instances that fit on it request.
    """
    ms_docs = {m["id"]: m for m in app_doc["microservices"] if not m.get("iot")}
    totals = oracle_routed_totals(app_doc, demand_doc)
    region_of = {d: r["id"] for r in topo_doc["regions"] for d in r["domains"]}
    default_level = policy_doc.get("default_locality", "global")
    iot_levels = {r["microservice"]: r["level"] for r in policy_doc.get("iot_locality", [])}
    restrictions = {r["microservice"]: (r["mode"], set(r["domains"]))
                    for r in policy_doc.get("placement_restriction", [])}
    nodes = {n["id"]: n for n in topo_doc["nodes"] if n["id"] not in drained}
    key = {"cpu": "cpu_m", "mem": "mem_mi"}[cut.resource]

    def allowed(ms_id, domain_id):
        if ms_id not in restrictions:
            return True
        mode, listed = restrictions[ms_id]
        return domain_id in listed if mode == "allow" else domain_id not in listed

    anchors_of: dict[str, set[str]] = {}
    held: dict[str, int] = {}
    need = 0
    for ms_id, anchor, bound in cut.items:
        ms = ms_docs.get(ms_id)
        anchors = anchors_of.setdefault(ms_id, set())
        overlaps = anchor in anchors or (anchors and "global" in anchors | {anchor})
        if ms is None or overlaps:
            return False
        anchors.add(anchor)
        if anchor == "global":
            rps, scope = totals[ms_id], set(region_of)
        else:
            level = iot_levels.get(ms_id, default_level)
            if ms_id not in app_doc["ingress"] or level == "global":
                return False
            scope = {d for d in region_of if (d if level == "strict-domain" else region_of[d]) == anchor}
            rps = sum(Fraction(str(per.get(ms_id, 0))) for d, per in demand_doc.items() if d in scope)
        if bound != math.ceil(rps / Fraction(str(ms["capacity_rps"]))):
            return False
        need += bound * ms[key]
        for node in nodes.values():
            if node["domain"] in scope and allowed(ms_id, node["domain"]):
                fit = min(node["cpu_m"] // ms["cpu_m"], node["mem_mi"] // ms["mem_mi"])
                held[node["id"]] = held.get(node["id"], 0) + fit * ms[key]
    capacity = sum(min(nodes[node_id][key], h) for node_id, h in held.items())
    return (tuple(sorted(held)) == tuple(cut.nodes) and need == cut.need
            and capacity == cut.capacity and need > capacity)


# --- reference simulator ---------------------------------------------------------


def reference_route_flows(graph, app, plan, demand):
    """``meshsim.route_flows`` in Fraction arithmetic: each rule splits its load
    by weight as it is reached, and every share is added to its row and to
    ``arrived[target][domain]`` as a normalised Fraction."""
    flows = FlowAssignment()
    arrived = {}

    def split(rule, source_domain, source, target_ms, rps):
        total_weight = sum(w for _, w in rule.destinations)
        if total_weight <= 0:
            raise MissingRoute(f"route {source_domain}/{source}->{target_ms} has no usable weights")
        tally = arrived.setdefault(target_ms, {})
        for node_id, weight in rule.destinations:
            share = rps * Fraction(weight, total_weight)
            if share > 0:
                key = (source_domain, source, node_id, target_ms)
                flows.rows[key] = flows.rows.get(key, Fraction(0)) + share
                domain_id = graph.nodes[node_id].domain_id
                tally[domain_id] = tally.get(domain_id, 0) + share

    for domain_id in sorted(demand):
        for ms_id in sorted(demand[domain_id]):
            rps = demand[domain_id][ms_id]
            if rps <= 0:
                continue
            rule = plan.routes.lookup(domain_id, IOT_SOURCE, ms_id)
            if rule is None:
                raise MissingRoute(f"no ingress route for {ms_id} from {domain_id}")
            split(rule, domain_id, IOT_SOURCE, ms_id, rps)

    for ms_id in app.topological_order():
        emitted = arrived.get(ms_id, {})
        for edge in sorted(app.successors(ms_id), key=lambda e: e.to_ms):
            for domain_id in sorted(emitted):
                rps = emitted[domain_id] * edge.rate_ratio
                if rps <= 0:
                    continue
                rule = plan.routes.lookup(domain_id, ms_id, edge.to_ms)
                if rule is None:
                    raise MissingRoute(
                        f"no route for {ms_id}->{edge.to_ms} from {domain_id}"
                    )
                split(rule, domain_id, ms_id, edge.to_ms, rps)

    return flows


def reference_node_utilization(graph, app, flows):
    """``meshsim.node_utilization`` in Fraction arithmetic, one addition per row."""
    cost = {ms_id: Fraction(ms.cpu_req) / ms.capacity_rps
            for ms_id, ms in app.microservices.items() if not ms.placed_on_iot}
    used = dict.fromkeys(sorted(graph.nodes), Fraction(0))
    for (_, _, node_id, ms_id), rps in flows.rows.items():
        used[node_id] += rps * cost[ms_id]
    return {node_id: u / graph.nodes[node_id].cpu_capacity for node_id, u in used.items()}


def reference_run_scenario(graph, app, policies, request, events, control=None, *,
                           overload_threshold=0.8):
    """``meshsim.run_scenario`` as it was before ticks reused unchanged flows:
    every tick routes, measures and audits, and an overload replan re-routes."""
    control = control or ControlPlane(graph, app, policies)
    plan = control.place(request)
    demand = {d: dict(per) for d, per in plan.demand.items()}
    threshold = as_rate(overload_threshold)

    by_tick = {}
    for event in events:
        by_tick.setdefault(event.tick, []).append(event)
    ticks = (max(by_tick) + 1) if by_tick else 1

    alerts, utilization, violations = [], [], []
    flows = FlowAssignment()
    halted = None

    for tick in range(ticks):
        event_alerts = []
        for event in by_tick.get(tick, []):
            if event.kind == "set_demand":
                demand.setdefault(event.domain, {})[event.microservice] = event.rps
                payload = {"demand": {d: dict(per) for d, per in demand.items()}}
                event_alerts.append(Alert("demand_change", payload, tick))
            elif event.kind == "drain_node":
                event_alerts.append(Alert("node_drain", {"node": event.node}, tick))

        try:
            for alert in event_alerts:
                alerts.append(alert)
                plan = control.handle_alert(plan, alert)
            flows = reference_route_flows(graph, app, plan, demand)
            load = reference_node_utilization(graph, app, flows)
            utilization.append(load)
            violations.extend((tick, v) for v in check_compliance(graph, policies, flows))
            worst = max(load, key=load.__getitem__, default=None)
            if not event_alerts and worst is not None and load[worst] > threshold:
                alert = Alert("overload", {"node": worst, "utilization": float(load[worst])}, tick)
                alerts.append(alert)
                plan = control.handle_alert(plan, alert)
                flows = reference_route_flows(graph, app, plan, demand)
        except InfeasiblePlacement as exc:
            halted = {"tick": tick, "reason": str(exc)}
            break

    report = SimulationReport(
        flows=flows,
        violations=violations,
        throughput=_throughput_summary(app, plan),
        alerts=alerts,
        utilization=utilization,
        final_revision=plan.revision,
        ticks=ticks,
        halted=halted,
    )
    return plan, report

"""Deterministic service-mesh simulator over a deployment plan.

Traffic flows are computed exactly in one walk of the application DAG in
topological order: ingress demand enters at each IoT attachment domain, each
routing rule splits its load proportionally to destination weights, and
every microservice forwards the load that arrived at each domain's instances
along its outgoing edges, scaled by the edge's rate ratio.  The results are
exact rationals: a rule splits one rate held as an integer numerator over a
denominator, each row is one Fraction, and what arrives is tallied per
microservice and domain in integers as the rules split it.  Node utilization
sums integer numerators too, is normalised once per node, and is read off the
flow rows in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .appmodel import ApplicationDag, PlacementRequest, as_rate
from .audit import Violation, check_compliance
from .controlplane import Alert, AnchorPlacement, ControlPlane, DeploymentPlan
from .errors import InfeasiblePlacement, MissingRoute
from .locality import IOT_SOURCE
from .policy import PolicySet
from .topology import InfrastructureGraph

#: The node utilization above which a quiet tick raises an overload alert.
OVERLOAD_THRESHOLD = 0.8


@dataclass
class FlowAssignment:
    """Exact traffic rows keyed by (source domain, source, target node, target ms).

    ``source`` is a microservice id, or "iot" for device-group ingress.
    """

    rows: dict[tuple[str, str, str, str], Fraction] = field(default_factory=dict)


@dataclass(frozen=True)
class ScenarioEvent:
    kind: str  # "set_demand" | "drain_node"
    tick: int
    domain: str | None = None
    microservice: str | None = None
    rps: Fraction | None = None
    node: str | None = None


@dataclass
class SimulationReport:
    flows: FlowAssignment
    violations: list[tuple[int, Violation]]
    throughput: list[tuple[str, str, AnchorPlacement, Fraction]]  # (ms, anchor, placement, capacity)
    alerts: list[Alert]
    utilization: list[dict[str, Fraction]]  # per routed tick: node -> cpu share
    final_revision: int
    ticks: int
    halted: dict | None = None


def route_flows(
    graph: InfrastructureGraph,
    app: ApplicationDag,
    plan: DeploymentPlan,
    demand: dict[str, dict[str, Fraction]],
) -> FlowAssignment:
    """Propagate offered demand through the routing rules.

    Ingress demand is split first, then each microservice in topological
    order forwards what arrived at it, by then complete, per domain.  A rule
    splits one exact rate, an integer numerator over a denominator: each
    destination of positive weight gets the row ``Fraction(numerator *
    weight, denominator * total weight)``, and the same share is tallied in
    ints as ``arrived[target][domain][denominator] += numerator * weight``.
    A microservice's arrivals in a domain are brought over the lcm of their
    denominators once, and that rate, scaled by each edge's rate ratio, is
    what its rules split.

    Raises MissingRoute when positive traffic has no rule to follow; edges
    with a zero rate ratio forward nothing and need no rule.
    """
    rows: dict[tuple[str, str, str, str], Fraction] = {}
    arrived: dict[str, dict[str, dict[int, int]]] = {}  # target -> domain -> {denominator: numerator}

    def split(rule, source_domain: str, source: str, target_ms: str, numerator: int, denominator: int):
        total_weight = sum(w for _, w in rule.destinations)
        if total_weight <= 0:
            raise MissingRoute(f"route {source_domain}/{source}->{target_ms} has no usable weights")
        denominator *= total_weight
        tally = arrived.setdefault(target_ms, {})
        for node_id, weight in rule.destinations:
            if weight > 0:
                key = (source_domain, source, node_id, target_ms)
                share = Fraction(numerator * weight, denominator)
                rows[key] = rows[key] + share if key in rows else share
                held = tally.setdefault(graph.nodes[node_id].domain_id, {})
                held[denominator] = held.get(denominator, 0) + numerator * weight

    for domain_id in sorted(demand):
        for ms_id in sorted(demand[domain_id]):
            rps = demand[domain_id][ms_id]
            if rps <= 0:
                continue
            rule = plan.routes.lookup(domain_id, IOT_SOURCE, ms_id)
            if rule is None:
                raise MissingRoute(f"no ingress route for {ms_id} from {domain_id}")
            split(rule, domain_id, IOT_SOURCE, ms_id, rps.numerator, rps.denominator)

    for ms_id in app.topological_order():
        rates = []
        for domain_id, held in sorted(arrived.get(ms_id, {}).items()):
            common = lcm(*held)
            rates.append((domain_id, sum(n * (common // d) for d, n in held.items()), common))
        for edge in sorted(app.successors(ms_id), key=lambda e: e.to_ms):
            ratio = edge.rate_ratio
            if ratio <= 0:
                continue
            for domain_id, numerator, denominator in rates:
                rule = plan.routes.lookup(domain_id, ms_id, edge.to_ms)
                if rule is None:
                    raise MissingRoute(
                        f"no route for {ms_id}->{edge.to_ms} from {domain_id}"
                    )
                split(rule, domain_id, ms_id, edge.to_ms,
                      numerator * ratio.numerator, denominator * ratio.denominator)

    return FlowAssignment(rows)


def node_utilization(
    graph: InfrastructureGraph,
    app: ApplicationDag,
    flows: FlowAssignment,
) -> dict[str, Fraction]:
    """Every node's exact cpu utilization under ``flows``, by sorted node id.

    Each instance is sized for its rated capacity, so serving one rps costs
    cpu_req/capacity_rps millicores regardless of how many instances share
    the load.  A node's terms are summed as integer numerators over the lcm
    of their denominators, and divided by its capacity once.  Idle nodes
    read 0.
    """
    cost = {ms_id: Fraction(app.microservices[ms_id].cpu_req) / app.microservices[ms_id].capacity_rps
            for ms_id in app.topological_order()}
    terms: dict[str, list[tuple[int, int]]] = {node_id: [] for node_id in sorted(graph.nodes)}
    for (_, _, node_id, ms_id), rps in flows.rows.items():
        c = cost[ms_id]
        terms[node_id].append((rps.numerator * c.numerator, rps.denominator * c.denominator))
    load = {}
    for node_id, node_terms in terms.items():
        common = lcm(*{d for _, d in node_terms})
        used = sum(n * (common // d) for n, d in node_terms)
        load[node_id] = Fraction(used, common * graph.nodes[node_id].cpu_capacity)
    return load


def _throughput_summary(app: ApplicationDag,
                        plan: DeploymentPlan) -> list[tuple[str, str, AnchorPlacement, Fraction]]:
    """Per (microservice, anchor), in plan order: its placement and the exact
    capacity its instances provide, ``total_instances * capacity_rps``."""
    return [(ms_id, anchor, ap, ap.total_instances * app.microservices[ms_id].capacity_rps)
            for ms_id in plan.mapping.microservice_ids()
            for anchor, ap in sorted(plan.mapping.per_ms[ms_id].items())]


def run_scenario(
    graph: InfrastructureGraph,
    app: ApplicationDag,
    policies: PolicySet,
    request: PlacementRequest,
    events: list[ScenarioEvent],
    control: ControlPlane | None = None,
    *,
    overload_threshold: float = OVERLOAD_THRESHOLD,
) -> tuple[DeploymentPlan, SimulationReport]:
    """Closed-loop run: place, then tick through events with replans.

    Each tick applies that tick's events (emitting one alert per event),
    lets the control plane handle the alerts, routes flows, records every
    node's exact utilization, and audits compliance.  When no event fired
    and some node's utilization exceeds the overload threshold, a single
    overload alert (worst node, lowest id among equals) triggers a replan
    for the current demand, whose flows are re-routed in place.  An
    infeasible replan halts the loop with the failure recorded.

    Flows depend only on the graph, the app, the routing rules and the
    demand, and utilization and violations only on the flows, so a tick
    whose rules and demand equal the last routed ones reuses the last
    flows, utilization and violations: a quiet tick, or an overload replan
    that keeps the rules, costs no routing.
    """
    control = control or ControlPlane(graph, app, policies)
    plan = control.place(request)
    demand = {d: dict(per) for d, per in plan.demand.items()}
    threshold = as_rate(overload_threshold)

    by_tick: dict[int, list[ScenarioEvent]] = {}
    for event in events:
        by_tick.setdefault(event.tick, []).append(event)
    ticks = (max(by_tick) + 1) if by_tick else 1

    alerts: list[Alert] = []
    utilization: list[dict[str, Fraction]] = []
    violations: list[tuple[int, Violation]] = []
    flows = FlowAssignment()
    halted: dict | None = None
    routed: tuple | None = None  # the rules and demand ``flows``, ``load`` and ``found`` are for
    load: dict[str, Fraction] = {}
    found: list[Violation] = []

    def route():
        """Route, measure and audit the plan, unless its rules and demand were the last routed."""
        nonlocal flows, load, found, routed
        if routed != (plan.routes, plan.demand):
            routed = (plan.routes, plan.demand)
            flows = route_flows(graph, app, plan, plan.demand)
            load = node_utilization(graph, app, flows)
            found = check_compliance(graph, policies, flows)

    for tick in range(ticks):
        event_alerts: list[Alert] = []
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
            route()
            utilization.append(dict(load))
            violations.extend((tick, v) for v in found)
            # nodes are in id order and max keeps the first of equals
            worst = max(load, key=load.__getitem__, default=None)
            if not event_alerts and worst is not None and load[worst] > threshold:
                alert = Alert("overload", {"node": worst, "utilization": float(load[worst])}, tick)
                alerts.append(alert)
                plan = control.handle_alert(plan, alert)
                route()
        except InfeasiblePlacement as exc:
            halted = {"tick": tick, "reason": str(exc)}
            break

    return plan, SimulationReport(
        flows=flows,
        violations=violations,
        throughput=_throughput_summary(app, plan),
        alerts=alerts,
        utilization=utilization,
        final_revision=plan.revision,
        ticks=ticks,
        halted=halted,
    )

"""Control plane: deployment plans, routing rules and replans.

:func:`place_application` and :func:`handle_alert` take their mappings from
:func:`search.reconcile` and derive routing rules from them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from operator import attrgetter

from .appmodel import ApplicationDag, PlacementRequest, as_rate
from .audit import validate_plan
from .errors import InvalidRequest, PlanningError, UnknownMicroservice, UnknownNode, doc_id
from .locality import IOT_SOURCE, LocalityLevel
from .policy import PolicySet
from .search import AnchorPlacement, PlacementMapping, reconcile  # noqa: F401 (re-exported)
from .topology import InfrastructureGraph


# --- plan data types ---------------------------------------------------------


@dataclass(frozen=True)
class RoutingRule:
    """Weighted destinations for one (source domain, consumer, target) key."""

    domain_id: str
    consumer: str  # consuming microservice id, or IOT_SOURCE for ingress traffic
    target_ms: str
    level: LocalityLevel
    destinations: tuple[tuple[str, int], ...]  # (node id, weight = instance count)


@dataclass
class RoutingRuleSet:
    """Routing rules in (domain, target, consumer) order, however they are
    given, and indexed by their (domain, consumer, target) key."""

    rules: tuple[RoutingRule, ...]

    def __post_init__(self):
        self.rules = tuple(sorted(self.rules, key=attrgetter("domain_id", "target_ms", "consumer")))
        self._index = {(r.domain_id, r.consumer, r.target_ms): r for r in self.rules}

    def lookup(self, domain_id: str, consumer: str, target_ms: str) -> RoutingRule | None:
        return self._index.get((domain_id, consumer, target_ms))


@dataclass
class DeploymentPlan:
    """A placement mapping plus the routing rules derived from it.

    Carries its demand snapshot and drained node ids, so replans triggered by
    drain or overload alerts can re-derive per-anchor requirements without
    external state.  ``revision`` increments on every accepted replan.
    """

    app_id: str
    revision: int
    mapping: PlacementMapping
    routes: RoutingRuleSet
    demand: dict[str, dict[str, Fraction]]
    drained: frozenset[str] = frozenset()


ALERT_KINDS = {
    "demand_change": ("demand",),
    "node_drain": ("node",),
    "overload": ("node", "utilization"),
}


@dataclass(frozen=True)
class Alert:
    kind: str
    payload: dict
    tick: int = 0

    def __post_init__(self):
        if self.kind not in ALERT_KINDS:
            raise PlanningError(f"unknown alert kind {self.kind!r}")
        if not isinstance(self.payload, dict):
            raise PlanningError(f"{self.kind} alert payload must be a mapping, got {self.payload!r}")
        missing = [k for k in ALERT_KINDS[self.kind] if k not in self.payload]
        if missing:
            raise PlanningError(f"{self.kind} alert payload missing {missing}")


def place_application(
    graph: InfrastructureGraph,
    app: ApplicationDag,
    request: PlacementRequest,
    policies: PolicySet,
) -> DeploymentPlan:
    """Compute a compliant deployment plan for the offered demand.

    The mapping is a fresh :func:`search.reconcile`, which raises
    InfeasiblePlacement, and the routing rules are derived from it.  The
    graph is not written, so a second placement on it starts from full
    capacity again: one graph serves one application.
    """
    demand = request.validate_against(graph).normalized_demand()
    mapping = reconcile(graph, app, policies, demand)
    routes = generate_routes(graph, app, mapping, policies)
    return DeploymentPlan(app_id=app.id, revision=1, mapping=mapping, routes=routes, demand=demand)


# --- routing -------------------------------------------------------------------


def generate_routes(
    graph: InfrastructureGraph,
    app: ApplicationDag,
    mapping: PlacementMapping,
    pset: PolicySet,
    previous: RoutingRuleSet | None = None,
) -> RoutingRuleSet:
    """Derive weighted routing rules from a placement mapping.

    One rule per (source domain, consumer, target) whose locality scope,
    anchored at the source domain, holds target instances: those instances,
    by node id, weighted by instance count.  Ingress rules anchor at each
    IoT attachment domain, and consumer rules at every domain where the
    consumer holds instances.  A starved scope gets no rule;
    :func:`validate_plan` reports it where traffic would need one.  A rule
    of ``previous`` (the last plan's rules) that equals a derived one, key,
    level and destinations, is returned in its place, so an unchanged rule
    keeps its object.
    """
    instances = {ms_id: mapping.instances_of(ms_id) for ms_id in app.microservices}
    attached = graph.attachment_domains()
    keys = [(attached, IOT_SOURCE, ms_id, pset.iot_level(ms_id)) for ms_id in app.ingress_ids]
    keys += [({graph.nodes[n].domain_id for n in instances[ms_id]}, ms_id, edge.to_ms,
              pset.edge_level(ms_id, edge.to_ms))
             for ms_id in app.microservices for edge in app.successors(ms_id)]
    reuse = previous._index if previous is not None else {}
    rules: list[RoutingRule] = []
    scope_of: dict[LocalityLevel, dict[str, str]] = {}  # per level, each domain's anchor
    by_anchor: dict[tuple[str, LocalityLevel], dict[str, tuple[tuple[str, int], ...]]] = {}
    for domains, consumer, target_ms, level in keys:
        scope = scope_of.get(level)
        if scope is None:
            scope = scope_of[level] = {domain_id: graph.anchor_of(domain_id, level) for domain_id in graph.domains}
        groups = by_anchor.get((target_ms, level))
        if groups is None:  # the target's (node, count) pairs by node id, grouped by anchor once per level
            grouped: dict[str, list[tuple[str, int]]] = {}
            for node_id, count in instances[target_ms].items():
                grouped.setdefault(scope[graph.nodes[node_id].domain_id], []).append((node_id, count))
            groups = by_anchor[target_ms, level] = {anchor: tuple(dest) for anchor, dest in grouped.items()}
        for domain_id in domains:
            dest = groups.get(scope[domain_id])
            if dest:
                rule = reuse.get((domain_id, consumer, target_ms))
                if rule is None or rule.level is not level or rule.destinations != dest:
                    rule = RoutingRule(domain_id, consumer, target_ms, level, dest)
                rules.append(rule)
    return RoutingRuleSet(tuple(rules))


# --- alert handling ---------------------------------------------------------------


def _post_alert_state(
    graph: InfrastructureGraph,
    app: ApplicationDag,
    plan: DeploymentPlan,
    alert: Alert,
) -> tuple[dict[str, dict[str, Fraction]], frozenset[str]]:
    """The demand and drained set ``plan`` is replanned for under ``alert``.

    A demand change's payload is read as a PlacementRequest (InvalidRequest
    when malformed); a node drain adds its node to the drained set; an
    overload keeps both, once its utilization reads as a non-negative rate
    (else InvalidRequest).  A microservice or node id in ``plan`` or the
    alert that the scenario lacks, or that is not an id, raises
    UnknownMicroservice or UnknownNode.
    """
    if alert.kind == "demand_change":
        request = PlacementRequest(app=app, demand=alert.payload["demand"])
        demand = request.validate_against(graph).normalized_demand()
    else:
        demand = plan.demand

    for ms_id, anchors in plan.mapping.per_ms.items():
        if ms_id not in app.microservices:
            raise UnknownMicroservice(f"plan names unknown microservice {ms_id!r}")
        unknown = {node_id for ap in anchors.values() for node_id, _ in ap.slots} - graph.nodes.keys()
        if unknown:
            raise UnknownNode(f"plan places {ms_id!r} on unknown node {min(unknown)!r}")

    drained = plan.drained | (
        {doc_id(alert.payload["node"], "drained node", UnknownNode)} if alert.kind == "node_drain" else set())
    unknown = drained - graph.nodes.keys()
    if unknown:
        raise UnknownNode(f"cannot drain unknown node {min(unknown)!r}")
    if alert.kind == "overload":
        node_id = doc_id(alert.payload["node"], "overloaded node", UnknownNode)
        if node_id not in graph.nodes:
            raise UnknownNode(f"overload on unknown node {node_id!r}")
        utilization = alert.payload["utilization"]
        if as_rate(utilization) < 0:
            raise InvalidRequest(f"overload utilization must be non-negative, got {utilization!r}")
    return demand, drained


def handle_alert(
    graph: InfrastructureGraph,
    app: ApplicationDag,
    policies: PolicySet,
    plan: DeploymentPlan,
    alert: Alert,
    *,
    state: tuple[dict[str, dict[str, Fraction]], frozenset[str]] | None = None,
) -> DeploymentPlan:
    """Adjust a plan in response to an observer alert.

    A demand change replaces the plan's demand snapshot; a node drain adds
    the node to the plan's drained set, displacing its instances; an
    overload replays the current demand.  :func:`search.reconcile` then
    replans the post-alert state from the current mapping.  The graph and
    ``plan`` are only read, so a plan read back from its document replans
    the same on a freshly loaded graph, and a failed replan changes nothing.
    Routing rules are regenerated and the plan re-validated before it is
    returned with a bumped revision.  A microservice or node id in ``plan``
    or the alert that the scenario lacks raises UnknownMicroservice or
    UnknownNode.

    A returned mapping is a fixed point: replanning the returned plan for
    the same demand and drained set (an overload, a demand change to its own
    demand, a drain of a drained node) gives the same mapping, slot for slot,
    and so the same rules: every anchor's need is unchanged, so the search
    keeps its slots in their order, from the kept or the fresh run.  This
    function is the reference path; :meth:`ControlPlane.handle_alert` skips
    such replans, so treat a returned plan as a value: edit a copy, not the
    plan.  ``state`` is the (demand, drained set) :func:`_post_alert_state`
    gives for ``plan`` and ``alert``, when the caller has worked it out.
    The rules are derived afresh, and those equal to ``plan``'s keep its
    objects.
    """
    demand, drained = state if state is not None else _post_alert_state(graph, app, plan, alert)
    mapping = reconcile(graph, app, policies, demand, plan.mapping.per_ms, drained)
    routes = generate_routes(graph, app, mapping, policies, plan.routes)
    new_plan = DeploymentPlan(
        app_id=plan.app_id,
        revision=plan.revision + 1,
        mapping=mapping,
        routes=routes,
        demand=demand,
        drained=drained,
    )
    report = validate_plan(graph, app, policies, new_plan)
    if not report.ok:
        first = report.violations[0]
        raise PlanningError(f"replan produced a non-compliant plan: {first.detail}")
    return new_plan


class ControlPlane:
    """Binds one application and policy set to an infrastructure graph.

    It remembers the last plan its :meth:`handle_alert` returned, which
    passed the audit, and the last plan its :meth:`place` returned.  An
    alert on one of those very plans (by identity) that moves neither the
    demand nor the drained set gets it back at the next revision, with no
    search and no routing, and with no audit, or for the placed plan one
    audit: :func:`handle_alert` would return the same mapping, rules,
    demand and drained set (its fixed point, for a fresh placement too),
    and the audit reads no revision.  Every other alert, and any other
    plan, such as one read from a document or a plan from another control
    plane, takes the full :func:`handle_alert`, audit included; on one of
    those two plans it passes on the post-alert state it has worked out.  A
    returned plan is a value: edit a copy, not the plan.
    """

    def __init__(self, graph: InfrastructureGraph, app: ApplicationDag, policies: PolicySet):
        self.graph = graph
        self.app = app
        self.policies = policies
        self._last: DeploymentPlan | None = None
        self._placed: DeploymentPlan | None = None  # not audited here yet

    def place(self, request: PlacementRequest) -> DeploymentPlan:
        self._placed = place_application(self.graph, self.app, request, self.policies)
        return self._placed

    def handle_alert(self, plan: DeploymentPlan, alert: Alert) -> DeploymentPlan:
        state = None
        if plan is self._last or plan is self._placed:
            state = demand, drained = _post_alert_state(self.graph, self.app, plan, alert)
            if demand == plan.demand and drained == plan.drained and (
                    plan is self._last or validate_plan(self.graph, self.app, self.policies, plan).ok):
                self._last = replace(plan, revision=plan.revision + 1)
                return self._last
        self._last = handle_alert(self.graph, self.app, self.policies, plan, alert, state=state)
        return self._last

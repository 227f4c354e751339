"""Independent audits of a deployment plan and of the flows routed through it.

:func:`validate_plan` and :func:`check_compliance` re-derive restriction and
locality scopes from the raw policy rules and domain records, through one
shared predicate and scope key, and trust neither the routing rules nor the
planner's scope resolvers, so a planner defect shows up as a violation.
Nothing here imports the planner or the simulator (``tests/test_audit.py``
checks this module's syntax tree): plans and flows are read by attribute.
"""

from __future__ import annotations

from dataclasses import dataclass

from .appmodel import ApplicationDag
from .locality import IOT_SOURCE, LocalityLevel
from .policy import PolicySet
from .topology import InfrastructureGraph


@dataclass(frozen=True)
class Violation:
    kind: str  # "placement" | "locality" | "capacity" | "route"
    subject: str
    detail: str


@dataclass
class ComplianceReport:
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations


def _restriction_ok(pset: PolicySet, ms_id: str, domain_id: str) -> bool:
    """Whether ``ms_id``'s raw placement restriction rule lets it run in ``domain_id``."""
    rule = pset.restriction.get(ms_id)
    return rule is None or (domain_id in rule.domains) == (rule.mode == "allow")


def _scope_key(graph: InfrastructureGraph, domain_id: str, level: LocalityLevel) -> str | None:
    """The domain record's scope at ``level``: itself, its region, or None for global."""
    if level is LocalityLevel.STRICT_DOMAIN:
        return domain_id
    if level is LocalityLevel.STRICT_REGION:
        return graph.domains[domain_id].region_id
    return None


def _rule_key(rule) -> str:
    return f"{rule.domain_id}/{rule.consumer}->{rule.target_ms}"


def validate_plan(
    graph: InfrastructureGraph,
    app: ApplicationDag,
    pset: PolicySet,
    plan,
) -> ComplianceReport:
    """Re-check a deployment plan against the policies from scratch.

    Each target's instances are grouped once per level by their scope keys,
    and every routing rule must carry the policy's level for its key and
    reach exactly the instances in its anchor's scope at that level,
    weighted by instance count.  A slot on a drained node is a
    violation, and so is a drained id that names no node.  Traffic the
    routing would carry needs a rule: each positive demand at its domain,
    and each domain where a consumer holds instances, along every edge whose
    rate ratio is positive.  Those come after the rules' own violations, in
    demand order, then by consumer in id order and its edges in document order.
    """
    violations = [Violation("capacity", node_id, f"drained node {node_id} is unknown")
                  for node_id in sorted(plan.drained - graph.nodes.keys())]

    counts: dict[tuple[str, str], int] = {}
    for ms_id, anchors in plan.mapping.per_ms.items():
        for ap in anchors.values():
            for node_id, k in ap.slots:
                counts[(ms_id, node_id)] = counts.get((ms_id, node_id), 0) + k

    cpu_used: dict[str, int] = {}
    mem_used: dict[str, int] = {}
    hosted: dict[str, dict[str, int]] = {}  # microservice -> {known node id: instances}
    for (ms_id, node_id), k in sorted(counts.items()):
        if ms_id not in app.microservices:
            violations.append(Violation("placement", ms_id, "unknown microservice"))
            continue
        if node_id not in graph.nodes:
            violations.append(Violation("placement", f"{ms_id}@{node_id}", "unknown node"))
            continue
        node = graph.nodes[node_id]
        if not _restriction_ok(pset, ms_id, node.domain_id):
            violations.append(Violation(
                "placement", f"{ms_id}@{node_id}",
                f"placement restriction forbids {ms_id} in {node.domain_id}",
            ))
        if node_id in plan.drained:
            violations.append(Violation(
                "capacity", f"{ms_id}@{node_id}", f"node {node_id} is drained",
            ))
        ms = app.microservices[ms_id]
        if k > 0:
            hosted.setdefault(ms_id, {})[node_id] = k
        cpu_used[node_id] = cpu_used.get(node_id, 0) + ms.cpu_req * k
        mem_used[node_id] = mem_used.get(node_id, 0) + ms.mem_req * k

    for node_id in sorted(cpu_used):
        node = graph.nodes[node_id]
        if cpu_used[node_id] > node.cpu_capacity or mem_used[node_id] > node.mem_capacity:
            violations.append(Violation(
                "capacity", node_id,
                f"requested {cpu_used[node_id]}m/{mem_used[node_id]}Mi exceeds "
                f"{node.cpu_capacity}m/{node.mem_capacity}Mi",
            ))

    # (microservice, level) -> {scope key: {node id: instances}}, grouped on first use
    scoped: dict[tuple[str, LocalityLevel], dict[str | None, dict[str, int]]] = {}
    edges = {(e.from_ms, e.to_ms) for e in app.edges}
    for rule in plan.routes.rules:
        if rule.consumer == IOT_SOURCE:
            if rule.target_ms not in app.ingress_ids:
                violations.append(Violation("route", _rule_key(rule), "ingress rule for non-ingress target"))
                continue
            level = pset.iot_level(rule.target_ms)
        else:
            if (rule.consumer, rule.target_ms) not in edges:
                violations.append(Violation("route", _rule_key(rule), "rule does not match an application edge"))
                continue
            level = pset.edge_level(rule.consumer, rule.target_ms)
        if rule.level is not level:
            violations.append(Violation("locality", _rule_key(rule),
                                        f"rule level {rule.level.value} is not the policy's {level.value}"))

        anchor = rule.domain_id
        if anchor not in graph.domains:
            violations.append(Violation("route", _rule_key(rule), f"unknown domain {anchor!r}"))
            continue
        key = _scope_key(graph, anchor, level)

        if not rule.destinations:
            violations.append(Violation("route", _rule_key(rule), "rule has no destinations"))
            continue
        groups = scoped.get((rule.target_ms, level))
        if groups is None:
            groups = scoped[rule.target_ms, level] = {}
            for node_id, k in hosted.get(rule.target_ms, {}).items():
                groups.setdefault(_scope_key(graph, graph.nodes[node_id].domain_id, level), {})[node_id] = k
        expected = groups.get(key, {})
        if len(rule.destinations) == len(expected) and dict(rule.destinations) == expected:
            # each in-scope instance once, weighted by its count: every check below passes
            continue
        for node_id, weight in rule.destinations:
            if weight < 1:
                violations.append(Violation("route", _rule_key(rule),
                                            f"weight of {node_id} is {weight}, not positive"))
            node = graph.nodes.get(node_id)
            if node is None:
                violations.append(Violation("route", _rule_key(rule), f"unknown node {node_id!r}"))
                continue
            if _scope_key(graph, node.domain_id, level) != key:
                violations.append(Violation(
                    "locality", _rule_key(rule),
                    f"destination {node_id} in {node.domain_id} leaves the "
                    f"{level.value} scope of {anchor}",
                ))
            if counts.get((rule.target_ms, node_id), 0) <= 0:
                violations.append(Violation(
                    "route", _rule_key(rule),
                    f"destination {node_id} hosts no {rule.target_ms} instance",
                ))

        dest_nodes = {node_id for node_id, _ in rule.destinations}
        missing = sorted(set(expected) - dest_nodes)
        if missing:
            violations.append(Violation(
                "route", _rule_key(rule),
                f"in-scope instances not load-balanced: {', '.join(missing)}",
            ))
        total_weight = sum(w for _, w in rule.destinations)
        total_count = sum(expected.values())
        if total_weight > 0 and total_count > 0:
            for node_id, weight in rule.destinations:
                if weight * total_count != expected.get(node_id, 0) * total_weight:
                    violations.append(Violation(
                        "route", _rule_key(rule),
                        f"weight of {node_id} not proportional to its instance count",
                    ))
                    break

    # traffic that needs a rule, as routing looks it up: positive demand at its
    # domain, and a consumer's instances in a domain along an edge that forwards traffic
    lookup = plan.routes.lookup
    for domain_id, per in plan.demand.items():
        violations += [Violation("route", f"{domain_id}/{IOT_SOURCE}->{ms_id}",
                                 "no rule routes its positive demand")
                       for ms_id, rps in per.items()
                       if rps > 0 and lookup(domain_id, IOT_SOURCE, ms_id) is None]
    for ms_id, nodes in hosted.items():
        domains = sorted({graph.nodes[node_id].domain_id for node_id in nodes})
        for edge in app.successors(ms_id):
            if edge.rate_ratio > 0:
                violations += [Violation("route", f"{domain_id}/{ms_id}->{edge.to_ms}",
                                         f"no rule routes {ms_id}'s traffic from {domain_id}")
                               for domain_id in domains if lookup(domain_id, ms_id, edge.to_ms) is None]

    return ComplianceReport(violations=violations)


def check_compliance(
    graph: InfrastructureGraph,
    policies: PolicySet,
    flows,
) -> list[Violation]:
    """Audit realized flows against restriction and locality policies.

    Each positive flow row is checked on its own, by the domain of the node
    that serves it; the routing rules that produced the flows are not
    consulted.
    """
    violations: list[Violation] = []
    # the keys are unique, so the sort compares no rates; a row of no traffic has numerator 0
    for (source_domain, source, node_id, target_ms), rps in sorted(flows.rows.items()):
        if rps.numerator <= 0:
            continue
        target_domain = graph.nodes[node_id].domain_id

        if not _restriction_ok(policies, target_ms, target_domain):
            violations.append(Violation(
                "placement", f"{target_ms}@{node_id}",
                f"flow served in {target_domain}, forbidden by placement restriction",
            ))

        level = (policies.iot_level(target_ms) if source == IOT_SOURCE
                 else policies.edge_level(source, target_ms))
        if _scope_key(graph, target_domain, level) != _scope_key(graph, source_domain, level):
            violations.append(Violation(
                "locality", f"{source_domain}/{source}->{target_ms}",
                f"flow crosses into {target_domain}, outside the {level.value} "
                f"scope of {source_domain}",
            ))
    return violations

"""Declarative policy engine: placement restrictions and locality levels.

Three policy types steer the control plane:

* placement restrictions allow- or deny-list domains per microservice,
* IoT locality pins how far an ingress microservice may sit from the domain
  a device group connects through,
* service-to-service locality pins how far a consumed microservice may sit
  from its consumer, per DAG edge.

Unlisted microservices are unrestricted and unlisted locality keys fall back
to the policy set's default level, so queries always resolve.  Trust between
administrative domains is expressed purely through this policy data (an
allow-list naming another admin's domain), never as a topology attribute.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DuplicateRule,
    EdgeplaneError,
    NonEdgeMsRule,
    NonIngressIotRule,
    PolicyError,
    UnknownDomain,
    UnknownMicroservice,
    UnknownPolicyType,
    doc_list,
)
from .locality import DEFAULT_LOCALITY, LocalityLevel

POLICY_TYPES = ("placement_restriction", "iot_locality", "ms_locality")

#: get_data marker for microservices with no placement restriction rule.
UNRESTRICTED = "unrestricted"


@dataclass(frozen=True)
class RestrictionRule:
    mode: str  # "allow" | "deny"
    domains: frozenset[str]

    def allows(self, domain_id: str) -> bool:
        """The engine's one restriction predicate: listed by an allow-list, or not by a deny-list."""
        return (domain_id in self.domains) == (self.mode == "allow")


@dataclass(frozen=True)
class PolicyDecision:
    allowed: bool
    reason: str


@dataclass
class PolicySet:
    """Parsed policies plus the universe they are validated against."""

    restriction: dict[str, RestrictionRule]
    iot_locality: dict[str, LocalityLevel]
    ms_locality: dict[tuple[str, str], LocalityLevel]
    default_locality: LocalityLevel
    ms_ids: frozenset[str]
    domain_ids: frozenset[str]

    def iot_level(self, ms_id: str) -> LocalityLevel:
        return self.iot_locality.get(ms_id, self.default_locality)

    def edge_level(self, consumer: str, consumed: str) -> LocalityLevel:
        return self.ms_locality.get((consumer, consumed), self.default_locality)


def _known(value, ids: frozenset[str], error: type[EdgeplaneError]) -> str:
    """``value`` when it is one of ``ids``; else ``error`` naming it.  The
    policy engine's one check of a microservice or domain id."""
    if not isinstance(value, str) or value not in ids:
        raise error(str(value))
    return value


def parse_policies(doc: dict, app, graph) -> PolicySet:
    """Validate the policy fragment against the application and topology.

    Raises:
        UnknownMicroservice / UnknownDomain: a rule references an id that
            does not exist.
        DuplicateRule: two rules share a key.
        NonIngressIotRule: an IoT locality rule targets a non-ingress
            microservice.
        NonEdgeMsRule: a service locality rule names a pair that is not an
            application DAG edge.
    """
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise PolicyError("policies fragment must be a mapping")
    unknown = set(doc) - {*POLICY_TYPES, "default_locality"}
    if unknown:
        raise UnknownPolicyType(str(min(unknown, key=str)))

    ms_ids = frozenset(app.microservices)
    domain_ids = frozenset(graph.domains)
    edge_pairs = frozenset((e.from_ms, e.to_ms) for e in app.edges)

    def rules(policy_type: str) -> list[dict]:
        return doc_list(doc.get(policy_type), f"policies {policy_type}", PolicyError)

    restriction: dict[str, RestrictionRule] = {}
    for entry in rules("placement_restriction"):
        ms_id = _known(entry.get("microservice"), ms_ids, UnknownMicroservice)
        if ms_id in restriction:
            raise DuplicateRule(f"placement_restriction for {ms_id!r}")
        mode = entry.get("mode")
        if mode not in ("allow", "deny"):
            raise PolicyError(f"restriction mode must be allow or deny, got {mode!r}")
        domains = doc_list(entry.get("domains"), f"placement_restriction domains of {ms_id!r}",
                           PolicyError, str)
        restriction[ms_id] = RestrictionRule(
            mode=mode, domains=frozenset(_known(domain, domain_ids, UnknownDomain) for domain in domains))

    iot_locality: dict[str, LocalityLevel] = {}
    for entry in rules("iot_locality"):
        ms_id = _known(entry.get("microservice"), ms_ids, UnknownMicroservice)
        if ms_id not in app.ingress_ids:
            raise NonIngressIotRule(ms_id)
        if ms_id in iot_locality:
            raise DuplicateRule(f"iot_locality for {ms_id!r}")
        iot_locality[ms_id] = LocalityLevel.parse(entry.get("level"))

    ms_locality: dict[tuple[str, str], LocalityLevel] = {}
    for entry in rules("ms_locality"):
        pair = tuple(_known(entry.get(role), ms_ids, UnknownMicroservice) for role in ("consumer", "consumed"))
        if pair not in edge_pairs:
            raise NonEdgeMsRule(f"{pair[0]}->{pair[1]} is not an application edge")
        if pair in ms_locality:
            raise DuplicateRule(f"ms_locality for {pair[0]}->{pair[1]}")
        ms_locality[pair] = LocalityLevel.parse(entry.get("level"))

    default = doc.get("default_locality")
    default_level = DEFAULT_LOCALITY if default is None else LocalityLevel.parse(default)

    return PolicySet(
        restriction=restriction,
        iot_locality=iot_locality,
        ms_locality=ms_locality,
        default_locality=default_level,
        ms_ids=ms_ids,
        domain_ids=domain_ids,
    )


def get_data(pset: PolicySet, policy_type: str, key) -> object:
    """Raw policy lookup mirroring the wire API's data endpoint.

    The key of ``placement_restriction`` and ``iot_locality`` is a
    microservice id, a string; the key of ``ms_locality`` is a (consumer,
    consumed) pair of strings, a tuple or a list.  Any other key, or any
    other policy type, raises UnknownPolicyType.  Unlisted keys return the
    type's default rather than failing, so callers can always resolve a value.
    """
    if policy_type in ("placement_restriction", "iot_locality"):
        if not isinstance(key, str):
            raise UnknownPolicyType(f"{policy_type} key must be a microservice id, got {key!r}")
        if policy_type == "iot_locality":
            return pset.iot_level(key).wire_name
        rule = pset.restriction.get(key)
        if rule is None:
            return UNRESTRICTED
        return {"mode": rule.mode, "domains": sorted(rule.domains)}
    if policy_type == "ms_locality":
        if not isinstance(key, (tuple, list)) or len(key) != 2 or not all(isinstance(k, str) for k in key):
            raise UnknownPolicyType(f"ms_locality key must be (consumer, consumed), got {key!r}")
        return pset.edge_level(key[0], key[1]).wire_name
    raise UnknownPolicyType(policy_type)


def is_allowed(pset: PolicySet, ms_id: str, domain_id: str) -> PolicyDecision:
    """Evaluate the placement restriction policy for one (microservice, domain)."""
    _known(ms_id, pset.ms_ids, UnknownMicroservice)
    _known(domain_id, pset.domain_ids, UnknownDomain)
    rule = pset.restriction.get(ms_id)
    if rule is None:
        return PolicyDecision(True, f"unrestricted: no placement rule for {ms_id}")
    listed = "includes" if domain_id in rule.domains else "excludes"
    return PolicyDecision(rule.allows(domain_id), f"restriction: {ms_id} {rule.mode}-list {listed} {domain_id}")


def eligible_domains_for_anchor(pset: PolicySet, ms_id: str, anchor: str, graph) -> list[str]:
    """Domains where ``ms_id`` may be placed to serve demand held at ``anchor``.

    The anchor is a scope key as :meth:`InfrastructureGraph.anchor_of` gives it;
    its scope's domains, all known to the graph the policy set was parsed
    against, are filtered by ``ms_id``'s placement restriction rule.
    """
    rule = pset.restriction.get(_known(ms_id, pset.ms_ids, UnknownMicroservice))
    return [d for d in graph.anchor_domains(anchor) if rule is None or rule.allows(d)]


def evaluate_query(pset: PolicySet, graph, policy: str, payload: dict) -> PolicyDecision:
    """Single-query evaluation backing the wire API's evaluate endpoint.

    Restriction queries check a (microservice, domain) pair; locality queries
    check whether a candidate target domain shares the source domain's
    anchor at the applicable level.
    """
    def field(name: str) -> str:
        value = payload.get(name)
        if not isinstance(value, str) or not value:
            raise PolicyError(f"evaluate input field {name!r} missing or not a string")
        return value

    if policy == "placement_restriction":
        return is_allowed(pset, field("microservice"), field("domain"))

    if policy == "iot_locality":
        subject = _known(field("microservice"), pset.ms_ids, UnknownMicroservice)
        kind, level = "iot-locality", pset.iot_level(subject)
        source = _known(field("device_domain"), pset.domain_ids, UnknownDomain)
    elif policy == "ms_locality":
        consumer, consumed = field("consumer"), field("consumed")
        subject = "->".join(_known(ms_id, pset.ms_ids, UnknownMicroservice) for ms_id in (consumer, consumed))
        kind, level = "ms-locality", pset.edge_level(consumer, consumed)
        source = _known(field("consumer_domain"), pset.domain_ids, UnknownDomain)
    else:
        raise UnknownPolicyType(policy)
    target = _known(field("target_domain"), pset.domain_ids, UnknownDomain)
    inside = graph.anchor_of(target, level) == graph.anchor_of(source, level)
    relation = "within" if inside else "outside"
    return PolicyDecision(
        inside, f"{kind}: {target} {relation} {level.wire_name} scope of {source} for {subject}")

"""Infrastructure model: regions containing domains containing compute nodes.

Domains are the unit of administrative control and the anchor for locality
scopes.  Of the IoT attachment points, which bind device groups to the domain
their traffic enters through, the graph keeps only those domains.  The graph
is built once from a document and never written afterwards.  It records
neither used capacity nor node drains: a node's free room is its stated
capacity minus the instances a deployment plan puts on it, and the plan holds
the set of nodes taken out of service.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    DanglingReference,
    DuplicateId,
    EmptyTopology,
    InvalidTopology,
    UnknownDomain,
    doc_id,
    doc_int,
    doc_list,
)
from .locality import LocalityLevel

DOMAIN_KINDS = ("edge", "cloud")

# Reserved anchor key for globally pooled demand; no topology entity may use it.
GLOBAL_ANCHOR = "global"


@dataclass(frozen=True)
class Region:
    """A geographic region grouping one or more domains."""

    id: str
    domain_ids: tuple[str, ...]


@dataclass(frozen=True)
class Domain:
    """An administrative domain (one cluster) inside a region."""

    id: str
    region_id: str
    admin_id: str
    kind: str  # "edge" | "cloud"


@dataclass(frozen=True)
class ComputeNode:
    """A schedulable node. Capacities in cpu millicores and memory MiB.

    The capacities are the stated totals and never change; what is free is
    worked out from a plan's slots.
    """

    id: str
    domain_id: str
    cpu_capacity: int
    mem_capacity: int

    def __post_init__(self):
        if self.cpu_capacity <= 0 or self.mem_capacity <= 0:
            raise InvalidTopology(f"node {self.id!r} must have positive cpu and memory capacity")


@dataclass
class InfrastructureGraph:
    regions: dict[str, Region]
    domains: dict[str, Domain]
    nodes: dict[str, ComputeNode]
    _attachment_domains: list[str]  # sorted, each once
    _domain_nodes: dict[str, list[ComputeNode]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._domain_nodes = {domain_id: [] for domain_id in self.domains}
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            self._domain_nodes[node.domain_id].append(node)

    def nodes_of_domain(self, domain_id: str) -> list[ComputeNode]:
        """The domain's nodes by id, as a fresh list from the index built at load."""
        if domain_id not in self.domains:
            raise UnknownDomain(domain_id)
        return list(self._domain_nodes[domain_id])

    def attachment_domains(self) -> list[str]:
        """The domains IoT device groups attach to, sorted, as a fresh list."""
        return list(self._attachment_domains)

    def anchor_of(self, domain_id: str, level: LocalityLevel) -> str:
        """The key of ``domain_id``'s scope at ``level``: the domain, its region
        or GLOBAL_ANCHOR.  Two domains share a scope exactly when they share an anchor."""
        domain = self.domains.get(domain_id)
        if domain is None:
            raise UnknownDomain(domain_id)
        if level is LocalityLevel.GLOBAL:
            return GLOBAL_ANCHOR
        return domain_id if level is LocalityLevel.STRICT_DOMAIN else domain.region_id

    def anchor_domains(self, anchor: str) -> list[str]:
        """The sorted domains of the scope ``anchor`` keys; regions and domains
        share one id namespace (see :func:`load_topology`), so the key says which."""
        if anchor == GLOBAL_ANCHOR:
            return sorted(self.domains)
        if anchor in self.domains:
            return [anchor]
        if anchor not in self.regions:
            raise UnknownDomain(anchor)
        return sorted(self.regions[anchor].domain_ids)


def _ident(value, what: str) -> str:
    """A topology id: a document id other than the reserved GLOBAL_ANCHOR."""
    if doc_id(value, f"{what} id", InvalidTopology) == GLOBAL_ANCHOR:
        raise InvalidTopology(f"{what} id {value!r} is reserved")
    return value


def _known(ident, table: dict) -> bool:
    """Whether ``ident`` names an entry of ``table``; a non-string names none."""
    return isinstance(ident, str) and ident in table


def load_topology(doc: dict) -> InfrastructureGraph:
    """Build and validate an :class:`InfrastructureGraph` from a document.

    Raises:
        EmptyTopology: no domains, or a region listing none.
        DuplicateId: an id reused anywhere across regions, domains, nodes
            and attachments (one id namespace, to keep anchors unambiguous),
            or a region listing one domain twice.
        DanglingReference: a reference to a missing region or domain, or a
            region/domain membership mismatch.
        InvalidTopology: malformed values (bad kind, non-positive capacity).
    """
    if not isinstance(doc, dict):
        raise InvalidTopology("topology fragment must be a mapping")

    seen: set[str] = set()

    def claim(ident: str, what: str) -> str:
        if ident in seen:
            raise DuplicateId(f"{what} id {ident!r} already used")
        seen.add(ident)
        return ident

    def entries(kind: str):
        """Each ``kind`` entry with its id claimed, in id order."""
        listed = doc_list(doc.get(f"{kind}s"), f"topology {kind}s", InvalidTopology)
        for entry in sorted(listed, key=lambda e: str(e.get("id"))):
            yield claim(_ident(entry.get("id"), kind), kind), entry

    def domain_of(entry: dict, what: str) -> str:
        if not _known(entry.get("domain"), domains):
            raise DanglingReference(str(entry.get("domain")), f"domain of {what}")
        return entry["domain"]

    regions: dict[str, Region] = {}
    for entry in doc_list(doc.get("regions"), "topology regions", InvalidTopology):
        rid = claim(_ident(entry.get("id"), "region"), "region")
        domain_ids = tuple(doc_list(entry.get("domains"), f"region {rid!r} domains",
                                    InvalidTopology, str))
        if not domain_ids:
            raise EmptyTopology(f"region {rid!r} lists no domains")
        if len(set(domain_ids)) < len(domain_ids):
            twice = next(did for k, did in enumerate(domain_ids) if did in domain_ids[:k])
            raise DuplicateId(f"region {rid!r} lists domain {twice!r} twice")
        regions[rid] = Region(rid, domain_ids)

    domains: dict[str, Domain] = {}
    for did, entry in entries("domain"):
        kind = entry.get("kind")
        if kind not in DOMAIN_KINDS:
            raise InvalidTopology(f"domain {did!r} kind must be one of {DOMAIN_KINDS}, got {kind!r}")
        admin = doc_id(entry.get("admin"), f"domain {did!r} admin", InvalidTopology)
        domains[did] = Domain(did, entry.get("region"), admin, kind)

    if not domains:
        raise EmptyTopology("topology has no domains")

    for domain in domains.values():
        if not _known(domain.region_id, regions):
            raise DanglingReference(str(domain.region_id), f"region of domain {domain.id!r}")
        if domain.id not in regions[domain.region_id].domain_ids:
            raise DanglingReference(domain.id, f"not listed by region {domain.region_id!r}")
    for region in regions.values():
        for did in region.domain_ids:
            if did not in domains:
                raise DanglingReference(did, f"domain listed by region {region.id!r}")
            if domains[did].region_id != region.id:
                raise DanglingReference(did, f"domain claims region {domains[did].region_id!r}")

    nodes: dict[str, ComputeNode] = {}
    for nid, entry in entries("node"):
        nodes[nid] = ComputeNode(
            id=nid,
            domain_id=domain_of(entry, f"node {nid!r}"),
            cpu_capacity=doc_int(entry.get("cpu_m"), f"node {nid!r} cpu_m", InvalidTopology),
            mem_capacity=doc_int(entry.get("mem_mi"), f"node {nid!r} mem_mi", InvalidTopology),
        )
    attached = {domain_of(entry, f"attachment {aid!r}") for aid, entry in entries("attachment")}
    return InfrastructureGraph(regions, domains, nodes, sorted(attached))

"""Application model: a microservice DAG plus the demand offered to it.

Traffic enters at ingress microservices (fed directly by IoT device groups)
and propagates along DAG edges, each hop scaled by the edge's rate ratio.
Fan-in sums and fan-out duplicates.  Rates are kept as ``Fraction`` end to
end so propagation, instance arithmetic and flow conservation are exact.

Microservices flagged ``placed_on_iot`` live on the devices themselves: they
are never scheduled, consume no modeled resources and carry no modeled traffic,
since demand is offered per ingress.  ``predecessors``, ``successors`` and
``topological_order`` say so, and no other module of the package reads the
flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import isfinite

from .errors import (
    CycleDetected,
    DuplicateId,
    InvalidApplication,
    InvalidRequest,
    UnknownDomain,
    UnknownIngress,
    UnknownMicroservice,
    UnreachableMicroservice,
    doc_id,
    doc_int,
    doc_list,
)
from .locality import IOT_SOURCE


def as_rate(value) -> Fraction:
    """Normalize a document number to an exact rate; the package's one rate reader.

    Floats go through their shortest decimal repr, so a YAML ``0.1`` becomes
    exactly 1/10 rather than the binary approximation.  A bool, a non-number
    or a non-finite float (YAML ``.inf``, ``.nan``) raises InvalidRequest.
    """
    if isinstance(value, float) and isfinite(value):
        return Fraction(repr(value))
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise InvalidRequest(f"expected a finite number, got {value!r}")
    return Fraction(value)


def rate_to_number(value: Fraction):
    """Render a rate for documents: int when integral, float otherwise."""
    if value.denominator == 1:
        return int(value)
    return float(value)


@dataclass(frozen=True)
class Microservice:
    id: str
    cpu_req: int  # millicores per instance
    mem_req: int  # MiB per instance
    capacity_rps: Fraction  # rated throughput per instance
    placed_on_iot: bool = False

    def __post_init__(self):
        if self.placed_on_iot:
            return
        if self.cpu_req <= 0 or self.mem_req <= 0:
            raise InvalidApplication(f"microservice {self.id!r} needs positive resource requests")
        if self.capacity_rps <= 0:
            raise InvalidApplication(f"microservice {self.id!r} needs positive capacity_rps")


@dataclass(frozen=True)
class AppEdge:
    """Directed call edge; ``rate_ratio`` scales upstream rate into downstream rate."""

    from_ms: str
    to_ms: str
    rate_ratio: Fraction = Fraction(1)

    def __post_init__(self):
        if self.rate_ratio < 0:
            raise InvalidApplication(f"edge {self.from_ms}->{self.to_ms} ratio must be >= 0")


@dataclass
class ApplicationDag:
    id: str
    microservices: dict[str, Microservice]
    edges: tuple[AppEdge, ...]
    ingress_ids: frozenset[str]

    def predecessors(self, ms_id: str) -> list[AppEdge]:
        """The traffic edges into ``ms_id``, in document order: none from an IoT-placed microservice."""
        return [e for e in self.edges if e.to_ms == ms_id and not self.microservices[e.from_ms].placed_on_iot]

    def successors(self, ms_id: str) -> list[AppEdge]:
        """The traffic edges out of ``ms_id``, in document order: none from an IoT-placed microservice."""
        return [e for e in self.edges if e.from_ms == ms_id and not self.microservices[ms_id].placed_on_iot]

    def topological_order(self, key=None) -> list[str]:
        """Kahn's walk over the microservices that carry traffic: each step
        takes the ready one with the smallest ``key`` (default: the id), then
        id.  IoT-placed microservices are left out, so their edges bind
        nothing.  Raises CycleDetected on a cycle."""
        indegree = {ms_id: 0 for ms_id, ms in self.microservices.items() if not ms.placed_on_iot}
        succ: dict[str, list[str]] = {ms_id: [] for ms_id in indegree}
        for edge in self.edges:
            if edge.from_ms in indegree and edge.to_ms in indegree:
                indegree[edge.to_ms] += 1
                succ[edge.from_ms].append(edge.to_ms)
        key = key or (lambda ms_id: ms_id)
        ready = [(key(ms_id), ms_id) for ms_id, deg in indegree.items() if deg == 0]
        heapify(ready)
        order: list[str] = []
        while ready:
            ms_id = heappop(ready)[1]
            order.append(ms_id)
            for to_ms in succ[ms_id]:
                indegree[to_ms] -= 1
                if indegree[to_ms] == 0:
                    heappush(ready, (key(to_ms), to_ms))
        if len(order) != len(indegree):
            # each microservice the walk left over has a left-over predecessor: step back
            # from the smallest until an id repeats, and name that loop forward
            pred = {e.to_ms: e.from_ms for e in self.edges if indegree.get(e.from_ms) and indegree.get(e.to_ms)}
            path = [min(pred)]
            while path[-1] not in path[:-1]:
                path.append(pred[path[-1]])
            raise CycleDetected(path[path.index(path[-1]):][::-1])
        return order


def validate_app(app: ApplicationDag) -> ApplicationDag:
    """Check DAG structure.

    Raises:
        CycleDetected: the edges are not acyclic (self-edges included).
        UnknownMicroservice: an edge endpoint is not declared.
        UnknownIngress: an ingress id is undeclared, or names an IoT-placed
            microservice.
        InvalidApplication: a microservice takes the reserved id IOT_SOURCE,
            which marks ingress rules and flow rows, an edge feeds an
            IoT-placed microservice, or an ingress microservice has a traffic
            predecessor.
        UnreachableMicroservice: a schedulable microservice is not reachable
            from any ingress.
    """
    if IOT_SOURCE in app.microservices:
        raise InvalidApplication(f"microservice id {IOT_SOURCE!r} is reserved")
    for edge in app.edges:
        for endpoint in (edge.from_ms, edge.to_ms):
            if not isinstance(endpoint, str) or endpoint not in app.microservices:
                raise UnknownMicroservice(f"edge endpoint {endpoint!r} not declared")
        if edge.from_ms == edge.to_ms:
            raise CycleDetected([edge.from_ms, edge.to_ms])
        if app.microservices[edge.to_ms].placed_on_iot:
            raise InvalidApplication(
                f"edge {edge.from_ms}->{edge.to_ms} feeds IoT-placed {edge.to_ms!r}, a pure source"
            )
    if len({(e.from_ms, e.to_ms) for e in app.edges}) != len(app.edges):
        raise InvalidApplication("duplicate edge in application DAG")

    for ingress in app.ingress_ids:
        if ingress not in app.microservices:
            raise UnknownIngress(f"ingress {ingress!r} not declared")
        if app.microservices[ingress].placed_on_iot:
            raise UnknownIngress(f"ingress {ingress!r} is placed on IoT devices")
        traffic = app.predecessors(ingress)
        if traffic:
            raise InvalidApplication(f"ingress {ingress!r} has non-IoT predecessor {traffic[0].from_ms!r}")

    reachable = set(app.ingress_ids)
    for ms_id in app.topological_order():  # raises CycleDetected on cycles
        if ms_id in reachable:
            reachable.update(edge.to_ms for edge in app.successors(ms_id))
    for ms_id, ms in sorted(app.microservices.items()):
        if not ms.placed_on_iot and ms_id not in reachable:
            raise UnreachableMicroservice(f"{ms_id!r} is not reachable from any ingress")
    return app


def app_from_doc(doc: dict) -> ApplicationDag:
    """Parse and validate the application fragment of a scenario document."""
    if not isinstance(doc, dict):
        raise InvalidApplication("application fragment must be a mapping")
    app_id = doc_id(doc.get("id"), "application id", InvalidApplication)

    microservices: dict[str, Microservice] = {}
    for entry in doc_list(doc.get("microservices"), "application microservices", InvalidApplication):
        ms_id = doc_id(entry.get("id"), "microservice id", InvalidApplication)
        if ms_id in microservices:
            raise DuplicateId(f"microservice id {ms_id!r} already used")
        iot = entry.get("iot", False)
        if not isinstance(iot, bool):
            raise InvalidApplication(f"microservice {ms_id!r} iot must be true or false, got {iot!r}")
        microservices[ms_id] = Microservice(
            id=ms_id,
            cpu_req=doc_int(entry.get("cpu_m", 0), f"microservice {ms_id!r} cpu_m", InvalidApplication),
            mem_req=doc_int(entry.get("mem_mi", 0), f"microservice {ms_id!r} mem_mi", InvalidApplication),
            capacity_rps=as_rate(entry.get("capacity_rps", 0)),
            placed_on_iot=iot,
        )
    if not microservices:
        raise InvalidApplication("application declares no microservices")

    edges = tuple(
        AppEdge(
            from_ms=entry.get("from"),
            to_ms=entry.get("to"),
            rate_ratio=as_rate(entry.get("ratio", 1)),
        )
        for entry in doc_list(doc.get("edges"), "application edges", InvalidApplication)
    )
    ingress = frozenset(doc_list(doc.get("ingress"), "application ingress", InvalidApplication, str))

    app = ApplicationDag(id=app_id, microservices=microservices, edges=edges, ingress_ids=ingress)
    return validate_app(app)


def read_demand(doc) -> dict[str, dict[str, Fraction]]:
    """The package's one demand reader, domain -> microservice -> rps: ids through
    ``errors.doc_id``, rates through :func:`as_rate`, both levels sorted by id.
    A ``doc``, or a value in it, that is not a mapping raises InvalidRequest."""
    if not isinstance(doc, dict):
        raise InvalidRequest("demand fragment must be a mapping")
    if not all(isinstance(per, dict) for per in doc.values()):
        raise InvalidRequest("demand must be a mapping of mappings")
    demand = {
        doc_id(domain, "demand domain", InvalidRequest): {
            doc_id(ms, "demand microservice", InvalidRequest): as_rate(rps) for ms, rps in per.items()}
        for domain, per in doc.items()
    }
    return {domain: dict(sorted(per.items())) for domain, per in sorted(demand.items())}


@dataclass
class PlacementRequest:
    """Offered ingress load: per attachment domain, rps per ingress microservice,
    as :func:`read_demand` reads it on construction."""

    app: ApplicationDag
    demand: dict[str, dict[str, Fraction]]

    def __post_init__(self):
        self.demand = read_demand(self.demand)

    def normalized_demand(self) -> dict[str, dict[str, Fraction]]:
        return {domain: dict(per) for domain, per in self.demand.items()}

    def validate_against(self, graph) -> "PlacementRequest":
        attachment_domains = set(graph.attachment_domains())
        for domain, per in self.demand.items():
            if domain not in graph.domains:
                raise UnknownDomain(f"unknown domain {domain!r}")
            if domain not in attachment_domains:
                raise InvalidRequest(f"demand domain {domain!r} has no IoT attachment")
            for ms_id, rps in per.items():
                if ms_id not in self.app.ingress_ids:
                    raise InvalidRequest(f"demand microservice {ms_id!r} is not an ingress microservice")
                if rps < 0:
                    raise InvalidRequest(f"demand for {ms_id!r} in {domain!r} must be non-negative")
        return self

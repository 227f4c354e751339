"""The placement search: node slots for every microservice under the policies.

One reconciler chooses node slots for both placement and replans.  It takes
the microservices in one Kahn walk of the application DAG (a microservice is
ready once every predecessor is placed), strictest locality first, and
anchors each one's offered demand per consumer edge, as
:func:`_anchor_demand` sets out.  Instance counts are the ceiling of
anchored demand over per-instance capacity, in exact integer arithmetic on
the rates' numerators and denominators.

Each anchor's first branch keeps the slots it already holds, resized: a fresh
placement holds none, so its first branch is first-fit over the anchor's
eligible domains, ordered by descending free cpu with node-id tie-breaks.
When a choice strands a later, stricter microservice, the search backtracks
through every split of the instances before it declares the request
infeasible.  The search is one loop over an explicit stack of (microservice,
anchor) choice points, so no node, anchor or microservice count runs into
the recursion limit.  A choice point holds only its first branch, worked
out by a plain function; the one iterative generator of splits is built
when the search first backtracks into the point, so a search path pays
nothing for the points it never revisits.  Each (microservice, anchor)
resolves its eligible, undrained nodes once per search; a visit only
re-sorts that list by the free capacity at hand.  All
ordering is deterministic, so identical inputs produce identical plans.

The first time a choice point runs out of choices, a root capacity check
bounds the whole request: instance lower bounds that no placement can
change, routed through one transportation max-flow per resource onto the
nodes each may use.  A flow short of the need proves the request infeasible,
and the minimum cut is the proof's certificate.  If it finds no cut, the
search starts again from the root with two forward-checking prunes on and
the budget steps spent so far given back: domains where a strict successor
is certain to meet an empty scope are dead, and a split may put no more
instances of a microservice in a stricter scope than that scope can hold
together with what they make its strict descendants need there.  Both drop
only splits that no completion can satisfy, and the splits left keep their
order, so the pruned search walks part of the tree the search without them
walks, in the same order.  It finds the plan that search finds first, in no
more steps, and an exhausted tree is still a proof.  A search that never
backtracks runs neither the check nor the prunes.

:func:`reconcile` is the one entry point: it owns the step budget and the
fallback from the kept slots to a fresh placement.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import itemgetter

from .appmodel import ApplicationDag, Microservice
from .errors import InfeasiblePlacement
from .locality import LocalityLevel
from .policy import PolicySet, eligible_domains_for_anchor
from .topology import GLOBAL_ANCHOR, ComputeNode, InfrastructureGraph

#: Upper bound on placement assignments explored before the search gives up.
SEARCH_BUDGET = 200_000


# --- plan data types ---------------------------------------------------------


@dataclass
class AnchorPlacement:
    """Instances serving one demand anchor of one microservice.

    ``slots`` preserves assignment order; scale-down removes from the tail so
    the newest instances go first.
    """

    anchor: str  # domain id, region id, or the pooled "global" key
    level: LocalityLevel
    demand_rps: Fraction
    slots: list[tuple[str, int]]  # (node id, instance count), in placement order

    @property
    def total_instances(self) -> int:
        return sum(k for _, k in self.slots)


@dataclass
class PlacementMapping:
    per_ms: dict[str, dict[str, AnchorPlacement]]
    order: tuple[str, ...] = ()

    def microservice_ids(self) -> list[str]:
        ordered = [ms for ms in self.order if ms in self.per_ms]
        ordered += sorted(set(self.per_ms) - set(ordered))
        return ordered

    def instances_of(self, ms_id: str) -> dict[str, int]:
        slots = (slot for ap in self.per_ms.get(ms_id, {}).values() for slot in ap.slots)
        return dict(sorted(_by_node(slots).items()))

    def total_instances(self, ms_id: str) -> int:
        return sum(self.instances_of(ms_id).values())


@dataclass(frozen=True)
class CapacityCut:
    """A minimum cut of the root capacity check: a Hall-type witness that no
    compliant placement exists.  The ``items`` need ``need`` of ``resource``
    in all; ``nodes``, every undrained node any of them may use, hold at
    most ``capacity`` of it for them, where a node holds the lesser of its
    capacity and what the items' instances that fit on it request."""

    resource: str  # "cpu" (millicores) or "mem" (MiB)
    need: int
    capacity: int
    items: tuple[tuple[str, str, int], ...]  # (microservice, anchor, instance lower bound)
    nodes: tuple[str, ...]


# --- capacity bookkeeping ----------------------------------------------------


class _Ledger:
    """Free node capacities in one search: stated capacity minus the slots held."""

    def __init__(self, cpu: dict[str, int], mem: dict[str, int]):
        self.cpu = cpu
        self.mem = mem

    def take(self, slots, ms: Microservice):
        for node_id, k in slots:
            self.cpu[node_id] -= ms.cpu_req * k
            self.mem[node_id] -= ms.mem_req * k

    def give(self, slots, ms: Microservice):
        for node_id, k in slots:
            self.cpu[node_id] += ms.cpu_req * k
            self.mem[node_id] += ms.mem_req * k


class _BudgetExhausted(Exception):
    pass


class _Budget:
    def __init__(self, limit: int):
        self.left = limit

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise _BudgetExhausted


# --- slots --------------------------------------------------------------------

#: A slot's node id and its instance count.
_NODE, _COUNT = itemgetter(0), itemgetter(1)


def _by_node(slots) -> dict[str, int]:
    agg: dict[str, int] = {}
    for node_id, k in slots:
        agg[node_id] = agg.get(node_id, 0) + k
    return agg


def _usable_nodes(graph: InfrastructureGraph, pset: PolicySet, ms_id: str, anchor: str,
                  drained: frozenset[str]) -> list[ComputeNode]:
    """The eligible, undrained nodes of (microservice, anchor), domain by domain."""
    return [node for domain_id in eligible_domains_for_anchor(pset, ms_id, anchor, graph)
            for node in graph.nodes_of_domain(domain_id) if node.id not in drained]


def _failure_cause(graph: InfrastructureGraph, pset: PolicySet, ms_id: str, anchor: str) -> str:
    """Why instances of ``ms_id`` at ``anchor`` found no room: no domain, or too little capacity."""
    empty = not eligible_domains_for_anchor(pset, ms_id, anchor, graph)
    return "policy-empty scope" if empty else "insufficient capacity"


# --- demand anchoring ----------------------------------------------------------


def _instances(rps: Fraction, capacity_rps: Fraction) -> int:
    """The instances ``rps`` needs at ``capacity_rps`` each, ``ceil(rps / capacity_rps)``:
    exactly ``-(-rps // capacity_rps)``, in integers with no ``Fraction`` made."""
    return -(-(rps.numerator * capacity_rps.denominator) // (rps.denominator * capacity_rps.numerator))


def _anchor_demand(
    graph: InfrastructureGraph,
    app: ApplicationDag,
    pset: PolicySet,
    demand: dict[str, dict[str, Fraction]],
    ms_id: str,
    per_ms_mapping: dict[str, dict[str, AnchorPlacement]],
) -> dict[str, tuple[LocalityLevel, Fraction]]:
    """Anchored demand for one microservice given its consumers' placements.

    Ingress microservices anchor the request demand at each attachment domain
    per their IoT locality level.  Everything else sums, per edge, what each
    consumer anchor emits, anchored at that edge's locality level.  A consumer
    anchor that lies inside one anchor at the edge's level (the edge is
    global, the consumer anchor is a domain, or both are strict-region) hands
    its whole demand times the edge's rate ratio to that anchor.  Only a
    looser consumer anchor is split: proportional load balancing spreads its
    traffic evenly per instance, so each domain emits the anchor's demand
    weighted by its share of the anchor's instances.  Zero contributions are
    dropped, so every returned anchor needs at least one instance.  Rates are
    summed as integer numerator and denominator pairs, and anchors whose
    pairs are equal share one ``Fraction``.
    """
    acc: dict[str, tuple[LocalityLevel, int, int]] = {}  # anchor -> (level, rate numerator, denominator)

    def add(anchor: str, level: LocalityLevel, num: int, den: int):
        if anchor in acc:
            _, n, d = acc[anchor]
            acc[anchor] = (level, n * den + num * d, d * den)
        else:
            acc[anchor] = (level, num, den)

    if ms_id in app.ingress_ids:
        level = pset.iot_level(ms_id)
        for domain in sorted(demand):
            rps = demand[domain].get(ms_id, 0)
            if rps.numerator > 0:
                add(graph.anchor_of(domain, level), level, rps.numerator, rps.denominator)
    else:
        for edge in sorted(app.predecessors(ms_id), key=lambda e: e.from_ms):
            level = pset.edge_level(edge.from_ms, ms_id)
            ratio_num, ratio_den = edge.rate_ratio.numerator, edge.rate_ratio.denominator
            for anchor, ap in per_ms_mapping.get(edge.from_ms, {}).items():
                num, den = ap.demand_rps.numerator * ratio_num, ap.demand_rps.denominator * ratio_den
                if num <= 0 or not ap.slots:
                    continue
                if level is LocalityLevel.GLOBAL:
                    add(GLOBAL_ANCHOR, level, num, den)
                elif ap.level is level:
                    add(anchor, level, num, den)
                elif ap.level is LocalityLevel.STRICT_DOMAIN:
                    add(graph.anchor_of(anchor, level), level, num, den)
                else:  # a looser anchor: split by its instances per domain
                    per_domain: dict[str, int] = {}
                    for node_id, k in ap.slots:
                        domain_id = graph.nodes[node_id].domain_id
                        per_domain[domain_id] = per_domain.get(domain_id, 0) + k
                    den *= sum(per_domain.values())  # per instance
                    for domain_id, k in per_domain.items():
                        add(graph.anchor_of(domain_id, level), level, num * k, den)
    rates: dict[tuple[int, int], Fraction] = {}  # one Fraction per distinct pair
    anchored = {}
    for anchor, (level, num, den) in acc.items():
        if (num, den) not in rates:
            rates[num, den] = Fraction(num, den)
        anchored[anchor] = (level, rates[num, den])
    return anchored


def _placement_sequence(app: ApplicationDag, pset: PolicySet) -> list[str]:
    """Kahn's walk over the microservices that carry traffic, taking the
    strictest ready one first: an ingress has its IoT level, any other the
    strictest level of its traffic edges.  Ties break on topological rank.
    IoT-placed microservices are never scheduled, so no plan depends on
    their ids.
    """
    order = app.topological_order()
    strictness = {ms_id: min((pset.edge_level(e.from_ms, ms_id).strictness for e in app.predecessors(ms_id)),
                             default=pset.default_locality.strictness)
                  for ms_id in order}
    strictness.update((ms_id, pset.iot_level(ms_id).strictness) for ms_id in app.ingress_ids)
    rank = {ms_id: i for i, ms_id in enumerate(order)}
    return app.topological_order(key=lambda ms_id: (strictness[ms_id], rank[ms_id]))


# --- the root capacity check -------------------------------------------------------


def _max_flow(size: int, arcs, source: int, sink: int) -> tuple[int, list[bool]]:
    """Dinic's maximum flow over ``arcs`` of (tail, head, capacity).

    Returns the flow value and, per vertex, whether it is still reachable
    from the source in the final residual network: the source side of a
    minimum cut (Ford & Fulkerson, 1956).  Paths are searched with an
    explicit stack, so no vertex count runs into the recursion limit.
    """
    out: list[list[int]] = [[] for _ in range(size)]
    head: list[int] = []
    room: list[int] = []  # residual capacity per arc; arc a ^ 1 is arc a reversed
    for tail, to, capacity in arcs:
        out[tail].append(len(head))
        head.append(to)
        room.append(capacity)
        out[to].append(len(head))
        head.append(tail)
        room.append(0)
    flow = 0
    while True:
        level = [-1] * size
        level[source] = 0
        queue = [source]
        for u in queue:
            for a in out[u]:
                if room[a] and level[head[a]] < 0:
                    level[head[a]] = level[u] + 1
                    queue.append(head[a])
        if level[sink] < 0:
            return flow, [lv >= 0 for lv in level]
        ahead = [0] * size  # per vertex, the next of its arcs to try in this phase
        path: list[int] = []  # the arcs from the source to ``u``
        u = source
        while True:
            if u == sink:
                push = min(room[a] for a in path)
                for a in path:
                    room[a] -= push
                    room[a ^ 1] += push
                flow += push
                path.clear()
                u = source
            arcs_u, i = out[u], ahead[u]
            while i < len(arcs_u) and not (room[arcs_u[i]] and level[head[arcs_u[i]]] == level[u] + 1):
                i += 1
            ahead[u] = i
            if i < len(arcs_u):
                path.append(arcs_u[i])
                u = head[arcs_u[i]]
            elif path:  # a dead end: step back and pass over the arc that led here
                u = head[path.pop() ^ 1]
                ahead[u] += 1
            else:
                break


def _capacity_cut(
    graph: InfrastructureGraph,
    app: ApplicationDag,
    pset: PolicySet,
    demand: dict[str, dict[str, Fraction]],
    drained: frozenset[str],
) -> CapacityCut | None:
    """A cut proving that no compliant placement of ``demand`` exists, or None.

    Its items are (microservice, anchor) pairs with an instance lower bound
    that no placement can change.  Flow conservation fixes a microservice's
    pooled load (its ingress demand plus each non-IoT consumer's load times
    the edge ratio) however its consumers are placed, so it needs at least
    ``ceil(load / capacity_rps)`` instances on the undrained nodes its
    restriction allows: one item at the global anchor.  An ingress at a
    strict IoT level gets one item per anchor of its attachment demand
    instead, over that anchor's eligible domains.  Every anchor's instances
    are its own, so any placement puts each item's bound on the item's
    nodes, at most as many on a node as fit there.

    The network source -> item (bound x request) -> node (instances that fit
    x request) -> sink (node capacity) is solved for cpu, then mem.  A flow
    below the total need proves the request infeasible, and the items on the
    source side of a minimum cut are the witness.  The items are listed in
    placement order; an item with no usable node is a cut on its own.
    """
    sequence = _placement_sequence(app, pset)  # a topological order of the schedulable microservices
    load: dict[str, Fraction] = {}
    items: list[tuple[Microservice, str, int, list]] = []  # (ms, anchor, bound, usable nodes)
    for ms_id in sequence:
        ms = app.microservices[ms_id]
        if ms_id in app.ingress_ids:
            anchored = _anchor_demand(graph, app, pset, demand, ms_id, {})
            scopes = {anchor: rps for anchor, (_, rps) in anchored.items()}
        else:
            scopes = {GLOBAL_ANCHOR: sum((load[e.from_ms] * e.rate_ratio for e in app.predecessors(ms_id)),
                                        Fraction(0))}
        load[ms_id] = sum(scopes.values(), Fraction(0))
        for anchor, rps in sorted(scopes.items()):
            bound = _instances(rps, ms.capacity_rps)
            if bound <= 0:
                continue
            nodes = _usable_nodes(graph, pset, ms_id, anchor, drained)
            if not nodes:
                return CapacityCut("cpu", bound * ms.cpu_req, 0, ((ms_id, anchor, bound),), ())
            items.append((ms, anchor, bound, nodes))

    node_ids = sorted({node.id for *_, nodes in items for node in nodes})
    vertex = {node_id: 2 + len(items) + k for k, node_id in enumerate(node_ids)}  # 0 source, 1 sink
    for resource, req, cap in (("cpu", "cpu_req", "cpu_capacity"), ("mem", "mem_req", "mem_capacity")):
        need = [bound * getattr(ms, req) for ms, _, bound, _ in items]
        reach = [{node.id: getattr(ms, req) * min(node.cpu_capacity // ms.cpu_req,
                                                  node.mem_capacity // ms.mem_req)
                  for node in nodes}
                 for ms, _, _, nodes in items]  # per item and node, what the instances that fit request
        arcs = [(0, 2 + k, n) for k, n in enumerate(need)]
        arcs += [(2 + k, vertex[node_id], r) for k, per in enumerate(reach) for node_id, r in per.items()]
        arcs += [(vertex[node_id], 1, getattr(graph.nodes[node_id], cap)) for node_id in node_ids]
        flow, source_side = _max_flow(2 + len(items) + len(node_ids), arcs, 0, 1)
        if flow == sum(need):
            continue
        cut = [k for k in range(len(items)) if source_side[2 + k]]
        held: dict[str, int] = {}
        for k in cut:
            for node_id, r in reach[k].items():
                held[node_id] = held.get(node_id, 0) + r
        return CapacityCut(
            resource=resource,
            need=sum(need[k] for k in cut),
            capacity=sum(min(getattr(graph.nodes[node_id], cap), r) for node_id, r in held.items()),
            items=tuple((items[k][0].id, items[k][1], items[k][2]) for k in cut),
            nodes=tuple(sorted(held)),
        )
    return None


# --- forward checking ------------------------------------------------------------

#: Per locality level, the strict levels stricter than it: the levels of the scopes it may be capped in.
_STRICTER = {
    LocalityLevel.GLOBAL: (LocalityLevel.STRICT_DOMAIN, LocalityLevel.STRICT_REGION),
    LocalityLevel.STRICT_REGION: (LocalityLevel.STRICT_DOMAIN,),
    LocalityLevel.STRICT_DOMAIN: (),
}


class _Lookahead:
    """Forward checking for one search (Haralick & Elliott, "Increasing tree
    search efficiency for constraint satisfaction problems", 1980): two
    prunes that drop only splits no completion can satisfy.

    Dead scopes.  A domain is live for a microservice when its restriction
    allows the domain, the domain has an undrained node and the domain is
    not dead for it; it is dead when some successor, over a strict edge with
    a positive ratio, has no live domain in that edge's scope of it.  An
    instance there emits positive demand into that scope, which needs an
    instance of the successor inside it, so no completion exists.  ``live``
    is worked out once, successors first, per scope rather than per domain.

    Downstream scope caps.  Take an anchor looser than a strict level L.
    Splitting its demand by instances hands each instance in a scope S at
    level L ``rps / need`` of it, and every descendant reached over edges
    of level L or stricter with positive ratios gets that times ``m_t``,
    the sum over such paths of the ratio products, inside S.  So k
    instances in S need ``ceil(k * rps/need * m_t / capacity_rps)`` of each
    such descendant there as well, and :meth:`caps` bounds k by what S's
    undrained nodes hold beside the slots the search path has chosen.
    Slots held for anchors the path has not reached count as free, since
    the search may still move them.
    """

    def __init__(self, graph: InfrastructureGraph, app: ApplicationDag, pset: PolicySet,
                 drained: frozenset[str], sequence: list[str]):
        self.graph, self.app = graph, app
        self.scopes = {node.id: (node.domain_id, graph.domains[node.domain_id].region_id)
                       for node in graph.nodes.values()}  # node -> its (domain, region)
        self.room: dict[str, tuple[int, int]] = {}  # strict scope -> cpu and mem of its undrained nodes
        for node in graph.nodes.values():
            if node.id not in drained:
                for scope in self.scopes[node.id]:
                    cpu, mem = self.room.get(scope, (0, 0))
                    self.room[scope] = (cpu + node.cpu_capacity, mem + node.mem_capacity)
        self.live: dict[str, set[str]] = {}
        self.live_scopes: dict[tuple[str, LocalityLevel], set[str]] = {}  # (ms, L) -> scopes with a live domain
        self.below: dict[tuple[str, LocalityLevel], dict[str, Fraction]] = {}  # (ms, L) -> {t: m_t}
        for ms_id in reversed(sequence):
            edges = [(e.to_ms, e.rate_ratio, pset.edge_level(ms_id, e.to_ms))
                     for e in app.successors(ms_id) if e.rate_ratio > 0]
            live = {domain_id for domain_id in eligible_domains_for_anchor(pset, ms_id, GLOBAL_ANCHOR, graph)
                    if domain_id in self.room}
            for to_ms, _, level in edges:
                if level is not LocalityLevel.GLOBAL:
                    scopes = self.live_scopes[to_ms, level]
                    live = {domain_id for domain_id in live if graph.anchor_of(domain_id, level) in scopes}
            self.live[ms_id] = live
            for scope_level in _STRICTER[LocalityLevel.GLOBAL]:
                self.live_scopes[ms_id, scope_level] = {graph.anchor_of(d, scope_level) for d in live}
                below: dict[str, Fraction] = {}
                for to_ms, ratio, level in edges:
                    if level.strictness <= scope_level.strictness:
                        for t, m in ((to_ms, 1), *self.below[to_ms, scope_level].items()):
                            below[t] = below.get(t, 0) + ratio * m
                self.below[ms_id, scope_level] = below

    def caps(self, ms: Microservice, level: LocalityLevel, rps: Fraction, need: int,
             node_ids: list[str], path) -> tuple[list[tuple[str, str]], dict[str, int]] | None:
        """Caps on ``need`` instances of ``ms`` at an anchor of ``level`` over
        ``node_ids``, as :func:`_distributions` takes them, or None if none
        binds.  Per scope stricter than ``level`` that holds one of the nodes:
        the largest k whose instances and their descendants' fit in the cpu
        and the mem of its undrained nodes, less the (microservice, slots)
        pairs chosen on the search ``path``."""
        caps, used = {}, None
        for scope_level in _STRICTER[level] if need else ():
            below = self.below[ms.id, scope_level]
            if not below:
                continue
            if used is None:  # per strict scope, the cpu and mem the path's slots take in it
                used = {}
                for placed, slots in path:
                    for node_id, k in slots:
                        for scope in self.scopes[node_id]:
                            cpu, mem = used.get(scope, (0, 0))
                            used[scope] = (cpu + k * placed.cpu_req, mem + k * placed.mem_req)
            terms = []  # per descendant: its instances per instance of ms, and its requests
            for t_id, m in below.items():
                t = self.app.microservices[t_id]
                share = rps * m / (need * t.capacity_rps)
                terms.append((share.numerator, share.denominator, t.cpu_req, t.mem_req))
            for scope in {self.graph.anchor_of(self.scopes[n][0], scope_level) for n in node_ids}:
                (cpu, mem), (cpu_used, mem_used) = self.room[scope], used.get(scope, (0, 0))
                cpu, mem = cpu - cpu_used, mem - mem_used
                # fitting is monotone in k, so this counts the k in 1..need that fit
                cap = bisect_right(range(1, need + 1), False, key=lambda k: not _fits(k, ms, terms, cpu, mem))
                if cap < need:
                    caps[scope] = cap
        return ([self.scopes[n] for n in node_ids], caps) if caps else None


def _fits(k: int, ms: Microservice, terms, cpu: int, mem: int) -> bool:
    """Whether k instances of ``ms`` and the descendant instances ``terms``
    ask of them fit in ``cpu`` and ``mem``."""
    for num, den, cpu_req, mem_req in terms:
        instances = -(-k * num // den)
        cpu, mem = cpu - instances * cpu_req, mem - instances * mem_req
    return cpu >= k * ms.cpu_req and mem >= k * ms.mem_req


# --- the reconciler ------------------------------------------------------------


def _distributions(node_ids, cpu_req: int, mem_req: int, count: int, ledger: _Ledger, budget: _Budget,
                   caps: tuple[list[tuple[str, str]], dict[str, int]] | None = None):
    """All ways to split ``count`` instances across the nodes, greedy-first,
    each for one budget step: in descending lexicographic order of their
    per-node counts, so the surrounding search can backtrack.  ``caps``,
    each node's (domain, region) and a cap per scope, keeps only the splits
    that put at most ``caps[s]`` instances on the nodes in scope ``s``; a
    scope without a cap takes any number.

    The first split is :func:`_first_fit`'s.  Each next one takes one
    instance off the last node that can pass one to a later node, keeps the
    counts before it and repacks the rest with one :func:`_first_fit` under
    the caps that prefix leaves.  A later node can take one more when it is
    below its room and every cap over it has one left, or when its only
    full caps contain the lowered node (a domain sits inside its region).
    By :func:`_first_fit`'s polymatroid argument, such a node exists exactly
    when the later nodes can hold one more instance than they do, and the
    repack is then the greatest split with that prefix.  The search hands
    back everything it placed below a choice point before it asks that
    point for its next split, so the ledger is the same at every resumption.
    """
    scopes, left = caps or ([()] * len(node_ids), {})
    left = dict(left)  # caps left per scope; domains and regions share one id namespace
    counts = [0] * len(node_ids)  # instances per node in the last split
    rooms = None  # per node, its room, read at the first scan
    split, i = [], -1  # the next split's (node, count) pairs before node i + 1, and the lowered node i
    while True:
        tail = _first_fit(node_ids[i + 1:], cpu_req, mem_req, count, ledger, budget,
                          (scopes[i + 1:], left) if left else None)
        if tail is None:  # only the first packing can fail
            return
        split += tail
        yield split
        if not split:
            return
        last = i
        for node_id, k in tail:  # the repacked nodes take their counts off the caps left
            last = node_ids.index(node_id, last + 1)
            counts[last] = k
            for scope in scopes[last]:
                if scope in left:
                    left[scope] -= k
        # Scan the empty nodes after the last holding one until one can take an
        # instance from it, then back over the nodes before it for the last giver.
        rooms = rooms or [min(ledger.cpu[n] // cpu_req, ledger.mem[n] // mem_req) for n in node_ids]
        free, needs = False, set()  # whether a node after the giver takes from any node; else its full scopes
        for j in chain(range(last + 1, len(node_ids)), range(last, 0, -1)):
            if rooms[j] > counts[j]:
                for scope in scopes[j]:
                    if left.get(scope, 1) <= 0:
                        needs.add(scope)  # the domain if it is full: freeing it frees its region too
                        break
                else:
                    free = True
            i = min(j - 1, last)
            if counts[i] and (free or not needs.isdisjoint(scopes[i])):
                break
        else:
            return
        count, kept = 0, len(split)  # node i passes one instance and the nodes after it all they hold
        for j in range(i, last + 1):
            if counts[j]:
                k = 1 if j == i else counts[j]
                counts[j] -= k
                count += k
                kept -= 1
                for scope in scopes[j]:
                    if scope in left:
                        left[scope] += k
        split = split[:kept]
        if counts[i]:
            split.append((node_ids[i], counts[i]))


def _first_fit(node_ids, cpu_req: int, mem_req: int, count: int, ledger: _Ledger, budget: _Budget,
               caps: tuple[list[tuple[str, str]], dict[str, int]] | None = None) -> list[tuple[str, int]] | None:
    """The first split :func:`_distributions` makes of the same arguments, or
    None when it makes none, for one budget step: each node packed in order
    to the most it takes within ``count`` and the caps left.  A node with
    negative room, which an over-committed ``current`` leaves in the
    ledger, takes nothing.  It stops at the node that completes ``count``.

    The node, domain and region bounds are nested, so the packings they
    allow are the integer points of a polymatroid (Edmonds, "Submodular
    functions, matroids and certain polyhedra", 1970): every packing that no
    node can add to holds the same, greatest number of instances, and a
    packing that holds fewer than another can take one more on a node where
    it holds less.  So packing places ``count`` exactly when some split
    does, and its split is the greatest in lexicographic order.
    """
    cpu, mem = ledger.cpu, ledger.mem
    left = dict(caps[1]) if caps else {}  # caps left per scope; domains and regions share one id namespace
    split = []
    for i, node_id in enumerate(node_ids):
        if not count:
            break
        k = min(count, cpu[node_id] // cpu_req, mem[node_id] // mem_req)
        capped = [scope for scope in caps[0][i] if scope in left] if left else ()
        for scope in capped:
            k = min(k, left[scope])
        if k > 0:
            split.append((node_id, k))
            count -= k
            for scope in capped:
                left[scope] -= k
    if count:
        return None
    budget.spend()
    return split


def _reconcile(
    graph: InfrastructureGraph,
    app: ApplicationDag,
    pset: PolicySet,
    demand: dict[str, dict[str, Fraction]],
    budget: _Budget,
    current: dict[str, dict[str, AnchorPlacement]] | None = None,
    drained: frozenset[str] = frozenset(),
) -> PlacementMapping:
    """Choose node slots for every (microservice, anchor), in placement order.

    A depth-first search over one explicit stack of choice points, one per
    (microservice, anchor) on the current path.  A microservice's anchors are
    fixed when the search first reaches it, from the demand its placed
    consumers emit.  ``current`` is the mapping to start from (none for a
    fresh placement): free capacity is the nodes' stated capacity minus its
    slots, each held until the search reaches its anchor.  An anchor's first
    branch keeps its current slots minus any on a ``drained`` node: a shrink
    drops the newest slots first, and growth adds instances first-fit,
    displaced ones preferring the first displaced slot's domain, then its
    region; without kept slots the first branch is the first split.  Slots
    that are all undrained and already number the anchor's need are kept as
    a copy of the list, with no ledger give and take, which would cancel.  A
    choice point holds only that branch.  On backtrack every split from
    :func:`_distributions` is tried: the generator is built when the search
    first asks the point for another choice, and if the first branch was
    its first split, that split's budget step is given back before the
    generator passes over it, so steps are spent as if it had made the first
    branch.  It reads the same node order and caps as the first branch did:
    every choice point above this one has been popped with its slots given
    back, and so have the point's own slots, so the ledger and ``acc`` for
    ``sequence[:pos + 1]`` hold what they held at the first ask.

    The first choice point to run out of choices runs the root capacity
    check, :func:`_capacity_cut`: a cut ends the search, proved, naming the
    cut's first item with the search's cause.  Without one the search restarts
    from the root with its budget given back and the look-ahead
    (:class:`_Lookahead`) on, as the module docstring says.

    Otherwise raises InfeasiblePlacement naming the deepest unsatisfiable
    microservice and anchor reached, with the cause: proved when the tree
    of a fresh search (no ``current``) is exhausted, not proved when the
    step budget runs out.  The deepest point survives the restart, so the
    verdict names the first choice point to reach the greatest depth in
    either tree, the one searched before the restart or the pruned one.
    """
    current = current or {}
    sequence = _placement_sequence(app, pset)
    steps = budget.left  # what the search may spend, given back at the restart

    def root_ledger() -> _Ledger:
        """Free capacity at the root of the search: every slot of ``current`` held."""
        free = _Ledger({n.id: n.cpu_capacity for n in graph.nodes.values()},
                       {n.id: n.mem_capacity for n in graph.nodes.values()})
        for ms_id, anchors in current.items():
            free.take([slot for ap in anchors.values() for slot in ap.slots], app.microservices[ms_id])
        return free

    ledger = root_ledger()
    lookahead: _Lookahead | None = None  # built at the first choice point that runs out of choices
    acc: dict[str, dict[str, AnchorPlacement]] = {}
    usable: dict[tuple[str, str], list[str]] = {}  # (ms id, anchor) -> eligible undrained node ids, by id

    def nodes_for(ms: Microservice, anchor: str, prefer: str | None = None) -> list[str]:
        """The anchor's usable node ids by descending free cpu, ties by id; with
        ``prefer``, nodes in that domain first, then nodes in its region."""
        node_ids = usable.get((ms.id, anchor))
        if node_ids is None:
            node_ids = usable[ms.id, anchor] = sorted(
                node.id for node in _usable_nodes(graph, pset, ms.id, anchor, drained))
        if prefer is None:  # a stable sort keeps equal-cpu nodes in id order
            return sorted(node_ids, key=ledger.cpu.__getitem__, reverse=True)
        region = graph.domains[prefer].region_id
        return sorted(node_ids, key=lambda n: (graph.nodes[n].domain_id != prefer,
                                               graph.domains[graph.nodes[n].domain_id].region_id != region,
                                               -ledger.cpu[n]))

    def split_space(pos: int, ms: Microservice, anchor: str, level: LocalityLevel, rps: Fraction,
                    need: int) -> tuple[list[str], tuple | None]:
        """The node ids, and the caps on them, that the anchor's splits are drawn from."""
        node_ids, caps = nodes_for(ms, anchor), None
        if lookahead is not None:  # leave out dead domains and keep within the caps
            live = lookahead.live[ms.id]
            node_ids = [n for n in node_ids if graph.nodes[n].domain_id in live]
            # The slots chosen so far, read from ``acc``: held slots not reached yet count as free.
            path = ((app.microservices[ms_id], ap.slots) for ms_id in sequence[:pos + 1]
                    for ap in acc[ms_id].values())
            caps = lookahead.caps(ms, level, rps, need, node_ids, path)
        return node_ids, caps

    def first_branch(pos: int, ms: Microservice, anchor: str, old: AnchorPlacement | None,
                     level: LocalityLevel, rps: Fraction, need: int) -> tuple[list | None, list | None]:
        """The first slot list of one anchor of the microservice at ``pos``, or
        None if it has none: its kept slots resized, else the first split.
        The second value is the same list if it keeps slots, else None."""
        if old is not None:
            kept = [slot for slot in old.slots if slot[0] not in drained]
            excess = sum(k for _, k in kept) - need
            while excess > 0:
                node_id, k = kept.pop()
                if k > excess:
                    kept.append((node_id, k - excess))
                excess -= min(k, excess)
            if excess < 0:
                ledger.take(kept, ms)
                displaced = [node_id for node_id, _ in old.slots if node_id in drained]
                prefer = graph.nodes[displaced[0]].domain_id if displaced else None
                grown = _first_fit(nodes_for(ms, anchor, prefer), ms.cpu_req, ms.mem_req, -excess, ledger, budget)
                ledger.give(kept, ms)
                kept = None if grown is None else kept + grown
            if kept is not None:
                return kept, kept
        node_ids, caps = split_space(pos, ms, anchor, level, rps, need)
        return _first_fit(node_ids, ms.cpu_req, ms.mem_req, need, ledger, budget, caps), None

    def later_splits(pos: int, ms: Microservice, anchor: str, level: LocalityLevel, rps: Fraction, need: int,
                     kept: list | None):
        """The anchor's splits after its first branch: every split other than
        the ``kept`` slots, or, if it kept none, every split after the first."""
        node_ids, caps = split_space(pos, ms, anchor, level, rps, need)
        splits = _distributions(node_ids, ms.cpu_req, ms.mem_req, need, ledger, budget, caps)
        if kept is not None:
            kept = _by_node(kept)
            return (dist for dist in splits if _by_node(dist) != kept)
        budget.left += 1  # the first split was the first branch: give its step back before it is spent again
        next(splits)
        return splits

    def anchors_of(ms: Microservice) -> list[tuple]:
        """Empty ``ms``'s placements; (anchor, old placement, level, rps, instances) per anchor."""
        wanted = _anchor_demand(graph, app, pset, demand, ms.id, acc)
        before = current.get(ms.id, {})
        acc[ms.id] = {}
        out = []
        for anchor in sorted(set(before) | set(wanted)):
            old = before.get(anchor)
            level, rps = wanted[anchor] if anchor in wanted else (old.level, Fraction(0))
            out.append((anchor, old, level, rps, _instances(rps, ms.capacity_rps)))
        return out

    # No recursion per microservice or anchor: that would bound the search
    # depth by the recursion limit, and CPython 3.11 allocates and frees a
    # frame-stack chunk on every call that crosses a chunk boundary, which
    # doubled the search time of a 100-anchor replan.  A backtrack leaves the
    # ``acc`` entries of later microservices behind; no anchor demand reads
    # them before the search reaches those microservices again and resets them.
    stack: list[tuple] = []  # (ms position, anchor position, ms, its anchors, kept slots, later splits)
    deepest, failed = (-1, -1), None
    try:
        while True:
            if stack and stack[-1][1] + 1 < len(stack[-1][3]):
                pos, j, ms, anchors, _, _ = stack[-1]
                j += 1
            else:  # enter the next microservice that has any anchors
                pos, j, anchors = (stack[-1][0] if stack else -1), 0, []
                while not anchors and pos + 1 < len(sequence):
                    pos += 1
                    ms = app.microservices[sequence[pos]]
                    anchors = anchors_of(ms)
                if not anchors:
                    break
            anchor, old, level, rps, need = anchors[j]
            if old is not None and sum(map(_COUNT, old.slots)) == need and drained.isdisjoint(map(_NODE, old.slots)):
                # The first branch would keep these slots as they are, for no budget step,
                # and the ledger holds them already: keep them with no give and no take.
                kept = list(old.slots)
                if kept:
                    acc[ms.id][anchor] = AnchorPlacement(anchor, level, rps, kept)
                stack.append((pos, j, ms, anchors, kept, None))
                continue
            if old is not None:
                ledger.give(old.slots, ms)
            slots, kept = first_branch(pos, ms, anchor, old, level, rps, need)
            splits = None  # built when the search first backtracks into this choice point
            while slots is None:  # (pos, j) is out of choices: move the innermost choice point on
                if old is not None:
                    ledger.take(old.slots, ms)
                if (pos, j) > deepest:
                    deepest = (pos, j)
                    failed = (ms.id, anchor, _failure_cause(graph, pset, ms.id, anchor))
                if lookahead is None:  # prove the request infeasible, or search again with the look-ahead on
                    cut = _capacity_cut(graph, app, pset, demand, drained)
                    if cut:
                        ms_id, anchor, _ = cut.items[0]
                        unit = "m" if cut.resource == "cpu" else "Mi"
                        raise InfeasiblePlacement(ms_id, anchor, _failure_cause(graph, pset, ms_id, anchor),
                                                  proved=True, certificate=cut,
                                                  detail=f"proved by a {cut.resource} cut: "
                                                         f"need {cut.need}{unit}, capacity {cut.capacity}{unit}")
                    lookahead = _Lookahead(graph, app, pset, drained, sequence)
                    budget.left = steps
                    ledger = root_ledger()
                    acc.clear()
                    stack.clear()
                    break
                if not stack:  # a tree searched from held slots proves nothing about a fresh placement
                    raise InfeasiblePlacement(*failed, proved=not current)
                pos, j, ms, anchors, kept, splits = stack.pop()
                anchor, old, level, rps, need = anchors[j]
                held = acc[ms.id].pop(anchor, None)
                if held is not None:
                    ledger.give(held.slots, ms)
                if splits is None:
                    splits = later_splits(pos, ms, anchor, level, rps, need, kept)
                slots = next(splits, None)
            else:
                ledger.take(slots, ms)
                if slots:
                    acc[ms.id][anchor] = AnchorPlacement(anchor, level, rps, slots)
                stack.append((pos, j, ms, anchors, kept, splits))
    except _BudgetExhausted:
        ms_id, anchor, _ = failed or (sequence[-1], GLOBAL_ANCHOR, None)
        raise InfeasiblePlacement(ms_id, anchor, "insufficient capacity", proved=False,
                                  detail="search budget exhausted") from None
    return PlacementMapping(
        per_ms={ms_id: acc[ms_id] for ms_id in sequence if acc[ms_id]},
        order=tuple(sequence),
    )


def reconcile(graph: InfrastructureGraph, app: ApplicationDag, pset: PolicySet,
              demand: dict[str, dict[str, Fraction]], current: dict[str, dict[str, AnchorPlacement]] | None = None,
              drained: frozenset[str] = frozenset()) -> PlacementMapping:
    """Choose node slots for ``demand`` with the ``drained`` nodes left out.

    Runs :func:`_reconcile` from ``current``, a mapping's ``per_ms`` (none
    for a fresh placement), and, if a run from held slots gives up unproved,
    once more from an empty mapping.  Both runs share one :data:`SEARCH_BUDGET`.
    Each runs the root check at its first exhaustion; the check reads only
    the demand and the drained set, so a fallback's check finds no cut where
    the kept run's found none.  Raises InfeasiblePlacement as
    :func:`_reconcile` does.
    """
    budget = _Budget(SEARCH_BUDGET)
    try:
        return _reconcile(graph, app, pset, demand, budget, current, drained)
    except InfeasiblePlacement as exc:
        if exc.proved or not current:
            raise
    return _reconcile(graph, app, pset, demand, budget, drained=drained)

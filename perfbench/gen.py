"""Seeded scenario documents for the benchmark workloads.

The scenario generators take a ``random.Random`` and return a plain
scenario document (the dict ``edgeplane`` parses from YAML), so the same
seed always yields the same bytes on disk.
"""

from __future__ import annotations

import random

LEVELS = ("strict-domain", "strict-region", "global")

#: Ladder rungs as (regions, domains per region, nodes per domain,
#: microservices, seeded variants): 35 ops a pass, at reference speed about
#: 15 ms (bundled), 33, 49, 82, 118, 173, 274, 388, 543 and 811 ms.  The
#: variant counts keep the op quantiles inside one rung's band for any number
#: of passes k: the p50, at rank 17.5k from the bottom, among the 2x3x2 ops
#: (ranks 10k to 20k with the bundled scenarios and 2x2x2 below them), and the
#: p90, at rank 3.5k from the top, among the 4x6x3 ops (ranks 3k to 5k below
#: the three single largest rungs).
LADDER = (
    (2, 2, 2, 6, 8),
    (2, 3, 2, 8, 10),
    (3, 3, 2, 10, 6),
    (3, 4, 2, 12, 2),
    (4, 4, 2, 14, 2),
    (4, 6, 3, 16, 2),
    (6, 6, 3, 18, 1),
    (8, 8, 4, 18, 1),
    (10, 10, 4, 20, 1),
)


def topology_doc(regions: int, domains: int, nodes: int, cpu_m: int = 64000,
                 mem_mi: int = 262144) -> dict:
    """R x D x N nodes, one IoT attachment per domain."""
    doc = {"regions": [], "domains": [], "nodes": [], "attachments": []}
    for r in range(regions):
        ids = [f"r{r}d{d}" for d in range(domains)]
        doc["regions"].append({"id": f"r{r}", "domains": ids})
        for did in ids:
            doc["domains"].append({"id": did, "region": f"r{r}", "admin": f"adm-{did}",
                                   "kind": "cloud" if did == "r0d0" else "edge"})
            for n in range(nodes):
                doc["nodes"].append({"id": f"{did}-n{n}", "domain": did,
                                     "cpu_m": cpu_m, "mem_mi": mem_mi})
            doc["attachments"].append({"id": f"iot-{did}", "domain": did})
    return doc


def ladder_levels(count: int, domains: int, allowed=LEVELS) -> list[str]:
    """Locality levels for the ingress (first) and the microservices after it.

    An even mix of ``allowed``, strictest nearest the ingress and relaxing
    toward the tail, as in the bundled UAV scenarios.  Drawing a level per
    edge at random made the work of one rung vary threefold between seeds
    (a strict-domain consumer under a pooled global service), so the seed
    picks the DAG and the levels follow position.  Strict-domain is used
    while the anchors it adds stay at most 200: 250 or more strict-domain
    anchors strand today's placer (it recurses once per anchor), a case that
    belongs to search-hard.
    """
    strict_left = 200 // domains
    levels = []
    for i in range(count):
        level = allowed[i * len(allowed) // count]
        if level == "strict-domain":
            strict_left -= 1
            if strict_left < 0:
                level = allowed[1]
        levels.append(level)
    return levels


def ladder_scenario(rng: random.Random, regions: int, domains: int, nodes: int,
                    count: int, allowed=LEVELS) -> dict:
    """m1..mM with 250m/256Mi/50 rps each; every mi (i > 1) has a parent among
    the three before it, and 100 rps enter m1 at every domain."""
    topo = topology_doc(regions, domains, nodes)
    levels = ladder_levels(count, regions * domains, allowed)
    microservices = [{"id": f"m{i}", "cpu_m": 250, "mem_mi": 256, "capacity_rps": 50}
                     for i in range(1, count + 1)]
    edges, localities = [], []
    for i in range(2, count + 1):
        parent = rng.randint(max(1, i - 3), i - 1)
        edges.append({"from": f"m{parent}", "to": f"m{i}", "ratio": 1})
        localities.append({"consumer": f"m{parent}", "consumed": f"m{i}",
                           "level": levels[i - 1]})
    return {
        "topology": topo,
        "application": {"id": "ladder", "microservices": microservices, "edges": edges,
                        "ingress": ["m1"]},
        "policies": {
            "iot_locality": [{"microservice": "m1", "level": levels[0]}],
            "ms_locality": localities,
            "default_locality": "global",
        },
        "demand": {d["id"]: {"m1": 100} for d in topo["domains"]},
        "events": [],
        "settings": {"overload_threshold": 0.8, "deterministic": True},
    }


#: replan-churn's shape: R x D x N, node cpu, microservices, the rps values
#: each domain's demand visits, drains, and the seed of the fixed layout.
CHURN = {"regions": 4, "domains": 4, "nodes": 2, "cpu_m": 12000, "count": 10,
         "demand_values": (200, 50, 150, 100), "drains": 6, "threshold": 0.3,
         "layout_seed": 0}


def churn_scenario(rng: random.Random, ticks: int | None = None) -> dict:
    """A mid-size ladder scenario with a long seeded event list.

    The layout (DAG and levels) is fixed and the events are balanced, so
    that seeds vary the order of events but not the amount of work: in each
    of ``len(demand_values)`` rounds every domain changes its demand once, in
    seeded order, and each round has as many domains at each value (a Latin
    square over seeded domain offsets).  Evenly spaced among the changes, a
    few events drain one node each (never both nodes of a domain, so
    strict-domain services keep a home).  Events fall on odd ticks; even
    ticks are quiet, and the threshold is low enough that an overload alert
    fires on each of them.  ``ticks`` cuts the list short.
    """
    shape = CHURN
    layout = random.Random(shape["layout_seed"])
    doc = ladder_scenario(layout, shape["regions"], shape["domains"], shape["nodes"],
                          shape["count"], LEVELS[:2])
    for node in doc["topology"]["nodes"]:
        node["cpu_m"] = shape["cpu_m"]
    domains = [d["id"] for d in doc["topology"]["domains"]]
    values = shape["demand_values"]
    offsets = [i % len(values) for i in range(len(domains))]
    rng.shuffle(offsets)
    offset_of = dict(zip(domains, offsets))
    changes = []
    for round_ in range(len(values)):
        for domain in rng.sample(domains, len(domains)):
            changes.append({"type": "set_demand", "domain": domain, "ms": "m1",
                            "rps": values[(round_ + offset_of[domain]) % len(values)]})
    drained = rng.sample(domains, shape["drains"])
    every = len(changes) // shape["drains"]
    events = []
    for i, change in enumerate(changes):
        events.append(change)
        if (i + 1) % every == 0 and drained:
            events.append({"type": "drain_node", "node": f"{drained.pop()}-n1"})
    events = [{"tick": 2 * i + 1, **event} for i, event in enumerate(events)]
    doc["events"] = events if ticks is None else [e for e in events if e["tick"] < ticks]
    doc["settings"]["overload_threshold"] = shape["threshold"]
    return doc

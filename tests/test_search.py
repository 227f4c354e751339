"""The placement search's first branches, its instance arithmetic and the
relations its plans keep under transformations of the input."""

import copy
import gc
import itertools
import random
import types
from fractions import Fraction

from edgeplane import search
from edgeplane.controlplane import Alert, handle_alert, place_application
from edgeplane.errors import InfeasiblePlacement
from edgeplane.scenario import load_scenario
from edgeplane.search import (
    _Budget,
    _distributions,
    _first_fit,
    _instances,
    _Ledger,
    _placement_sequence,
    reconcile,
)

from .support import SCENARIOS, build, gen_case, gen_dag_app, iot_renamed

# --- the first branch ---


def test_negative_room_takes_no_instance():
    """First-fit passes over a node with negative room, and so does every
    later split: a negative count on it once ran the enumerator without end."""
    assert _first_fit(["b", "a"], 100, 10, 1, _Ledger({"b": 300, "a": -500}, {"b": 100, "a": 100}),
                      _Budget(1)) == [("b", 1)]
    splits = _distributions(["a", "b"], 100, 10, 1, _Ledger({"a": -200, "b": 300}, {"a": 100, "b": 100}), _Budget(9))
    assert list(itertools.islice(splits, 3)) == [[("b", 1)]]


def test_each_split_is_one_first_fit(monkeypatch):
    """The enumerator makes every split with one first-fit call, and only the
    first call can fail, so no repack is ever retried: on a capped-out
    tail, on a region cap that an interleaved prefix uses up, on a count
    equal to the room, and on seeded ledgers with negative room and caps on
    nested (domain, region) scopes."""
    calls = []
    first_fit = search._first_fit

    def counted(*args):
        calls.append(first_fit(*args))
        return calls[-1]

    def splits(node_ids, cpu, count, caps=None):
        calls.clear()
        made = list(_distributions(node_ids, 100, 100, count, _Ledger(cpu, dict(cpu)), _Budget(10 ** 6), caps))
        assert len(calls) == max(1, len(made)), (cpu, count, caps)
        assert None not in calls[1:]
        return made

    monkeypatch.setattr(search, "_first_fit", counted)
    ones = {f"n{i}": 100 for i in range(6)}
    # the last three nodes' region has a cap of 0: the 3 pairs of the first three
    assert len(splits(list(ones), ones, 2, ([("dA", "rA")] * 3 + [("dB", "rB")] * 3, {"rB": 0}))) == 3
    # rX, every other node, has a cap of 2 that the first split's prefix uses up:
    # the 20 triples of six nodes but the one on rX's three
    alternating = [(f"d{i}", "rX" if i % 2 == 0 else "rY") for i in range(6)]
    triples = splits(list(ones), ones, 3, (alternating, {"rX": 2}))
    assert len(triples) == 19
    assert triples[:5] == [[("n0", 1), ("n1", 1), ("n2", 1)], [("n0", 1), ("n1", 1), ("n3", 1)],
                           [("n0", 1), ("n1", 1), ("n4", 1)], [("n0", 1), ("n1", 1), ("n5", 1)],
                           [("n0", 1), ("n2", 1), ("n3", 1)]]
    # a count equal to the room has one split
    assert splits(["a", "b", "c"], {"a": 200, "b": 100, "c": 300}, 6) == [[("a", 2), ("b", 1), ("c", 3)]]
    rng = random.Random(32)
    made = 0
    for _ in range(300):
        node_ids = [f"n{i}" for i in range(rng.randint(0, 8))]
        cpu = {n: 100 * rng.randint(-2, 3) + rng.randint(0, 99) for n in node_ids}
        count = rng.randint(0, sum(max(0, cpu[n] // 100) for n in node_ids) + 1)
        scopes = [(f"d{d}", f"r{d // 2}") for d in (rng.randint(0, 3) for _ in node_ids)]
        caps = {scope: rng.randint(0, 3) for pair in scopes for scope in pair if rng.random() < 0.4}
        made += len(splits(node_ids, cpu, count, (scopes, caps) if rng.random() < 0.7 else None))
    assert made == 511


def over_committed_docs(capacity_a: int):
    """One domain whose node ee-a has ``capacity_a`` millicores and ee-b 300.
    P (100m) and its strict-domain consumer S (300m) have no demand, and Q
    and its consumer H (100m and 600m, global) have 100 rps."""
    topo = {
        "regions": [{"id": "r1", "domains": ["ee"]}],
        "domains": [{"id": "ee", "region": "r1", "admin": "a1", "kind": "edge"}],
        "nodes": [{"id": "ee-a", "domain": "ee", "cpu_m": capacity_a, "mem_mi": 8192},
                  {"id": "ee-b", "domain": "ee", "cpu_m": 300, "mem_mi": 8192}],
        "attachments": [{"id": "iot1", "domain": "ee"}],
    }
    app = {
        "id": "over-committed",
        "microservices": [
            {"id": "P", "cpu_m": 100, "mem_mi": 64, "capacity_rps": 100},
            {"id": "S", "cpu_m": 300, "mem_mi": 64, "capacity_rps": 100},
            {"id": "Q", "cpu_m": 100, "mem_mi": 64, "capacity_rps": 100},
            {"id": "H", "cpu_m": 600, "mem_mi": 64, "capacity_rps": 100},
        ],
        "edges": [{"from": "P", "to": "S"}, {"from": "Q", "to": "H"}],
        "ingress": ["P", "Q"],
    }
    policies = {
        "iot_locality": [{"microservice": "P", "level": "strict-domain"}],
        "ms_locality": [{"consumer": "P", "consumed": "S", "level": "strict-domain"}],
        "default_locality": "global",
    }
    return topo, app, policies, {"ee": {"P": 0, "Q": 100}}


def test_a_replan_of_an_over_committed_plan_backtracks_into_a_fresh_anchor():
    """A plan read back after ee-a's capacity fell from 1000m to 100m holds
    Q and H on ee-a: 700m, so the replan's ledger starts ee-a at -600m,
    room for -6 of P's instances.  Moving the demand from Q to P gives P a
    fresh anchor at ee over [ee-b, ee-a]: the run from held slots puts P on
    ee-b, where S then finds 200m, backtracks into P's anchor, and finds no
    other split, since ee-a stays held until the search reaches H.  The
    fresh run that follows places P on ee-a and S on ee-b."""
    graph, app, pset, request = build(*over_committed_docs(1000))
    plan = place_application(graph, app, request, pset)
    assert {ms_id: [ap.slots for ap in per.values()] for ms_id, per in plan.mapping.per_ms.items()} == {
        "Q": [[("ee-a", 1)]], "H": [[("ee-a", 1)]]}
    graph, app, pset, _ = build(*over_committed_docs(100))
    replanned = handle_alert(graph, app, pset, plan, Alert("demand_change", {"demand": {"ee": {"P": 100, "Q": 0}}}))
    assert {ms_id: [ap.slots for ap in per.values()] for ms_id, per in replanned.mapping.per_ms.items()} == {
        "P": [[("ee-a", 1)]], "S": [[("ee-b", 1)]]}


def test_instances_is_the_fraction_ceiling():
    """The integer ceiling equals ``-(-rps // capacity_rps)`` on seeded
    rates, zero and whole rates included."""
    rng = random.Random(17)
    for _ in range(3000):
        rps = Fraction(rng.randint(0, 10 ** rng.randint(1, 12)), rng.randint(1, 10 ** rng.randint(0, 6)))
        capacity_rps = Fraction(rng.randint(1, 10 ** rng.randint(0, 6)), rng.randint(1, 10 ** rng.randint(0, 3)))
        got = _instances(rps, capacity_rps)
        assert type(got) is int
        assert got == -(-rps // capacity_rps), (rps, capacity_rps)
    assert _instances(Fraction(0), Fraction(7, 3)) == 0
    assert _instances(Fraction(100), Fraction(50)) == 2
    assert _instances(Fraction(101), Fraction(50)) == 3


def strict_chain(domains: int):
    """A 4-microservice strict-domain chain over ``domains`` attachment
    domains of one node each, every domain's two instances of each fitting
    on its node: a placement that never backtracks."""
    names = [f"d{i:03d}" for i in range(domains)]
    topo = {
        "regions": [{"id": "r0", "domains": names}],
        "domains": [{"id": d, "region": "r0", "admin": "a", "kind": "edge"} for d in names],
        "nodes": [{"id": f"{d}-n0", "domain": d, "cpu_m": 64000, "mem_mi": 65536} for d in names],
        "attachments": [{"id": f"iot-{d}", "domain": d} for d in names],
    }
    app = {
        "id": "strict-chain",
        "microservices": [{"id": f"m{i}", "cpu_m": 250, "mem_mi": 256, "capacity_rps": 50} for i in range(1, 5)],
        "edges": [{"from": f"m{i}", "to": f"m{i + 1}"} for i in range(1, 4)],
        "ingress": ["m1"],
    }
    policies = {"iot_locality": [{"microservice": "m1", "level": "strict-domain"}],
                "ms_locality": [{"consumer": f"m{i}", "consumed": f"m{i + 1}", "level": "strict-domain"}
                                for i in range(1, 4)]}
    return build(topo, app, policies, {d: {"m1": 100} for d in names})


def test_a_search_that_never_backtracks_builds_no_split_generator(monkeypatch):
    """The canonical placement and a 300-domain strict-domain chain never
    backtrack: the search calls the split enumerator for neither, and when
    it returns no generator of the search's is alive."""
    canonical = load_scenario(SCENARIOS / "uav_canonical.yaml")
    enumerated, alive = [], []
    enumerate_splits, mapping = search._distributions, search.PlacementMapping

    def counted(*args, **kwargs):
        enumerated.append(args)
        return enumerate_splits(*args, **kwargs)

    def counting_mapping(*args, **kwargs):  # made as _reconcile returns, its stack still alive
        alive.append(sum(isinstance(o, types.GeneratorType) and o.gi_code.co_filename == search.__file__
                         for o in gc.get_objects()))
        return mapping(*args, **kwargs)

    monkeypatch.setattr(search, "_distributions", counted)
    monkeypatch.setattr(search, "PlacementMapping", counting_mapping)
    for graph, app, pset, request in (
            (canonical.graph, canonical.app, canonical.policies, canonical.request), strict_chain(300)):
        plan = place_application(graph, app, request, pset)
        assert plan.mapping.per_ms
    assert (len(enumerated), alive) == (0, [0, 0])


# --- metamorphic relations ---


def verdict(docs, drained=frozenset()):
    """The slots per (microservice, anchor) of a fresh placement, or the proof flag and message."""
    graph, app, pset, request = build(*docs)
    try:
        mapping = reconcile(graph, app, pset, request.normalized_demand(), drained=drained)
    except InfeasiblePlacement as exc:
        return exc.proved, str(exc)
    return {(ms_id, anchor): ap.slots for ms_id, per in mapping.per_ms.items() for anchor, ap in per.items()}


def relation_cases():
    """A seeded slice of the sweep: chain seeds at 1x and 2x demand and DAG seeds at 1x."""
    for seed, factor in itertools.product(range(120), (1, 2)):
        topo, app, policies, demand = gen_case(random.Random(seed))
        yield topo, app, policies, {d: {m: r * factor for m, r in per.items()} for d, per in demand.items()}
    for seed in range(150):
        yield gen_case(random.Random(seed), gen_app=gen_dag_app)


def test_metamorphic_relations_of_the_search():
    """Over a seeded slice of chain and DAG cases:

    * doubling every node's cpu and mem keeps a placed case placed;
    * draining a node the plan leaves empty leaves every slot as it was;
    * tripling both the demand and every ``capacity_rps`` gives the same
      verdict and the same slots;
    * shuffling the topology's node and domain records gives the same slots.

    The tallies pin how many cases each relation checked."""
    shuffler = random.Random(3)
    tally = {"placed": 0, "infeasible": 0, "drained": 0}
    for docs in relation_cases():
        topo, app, policies, demand = docs
        base = verdict(docs)
        placed = isinstance(base, dict)
        tally["placed" if placed else "infeasible"] += 1

        roomy = copy.deepcopy(topo)
        for node in roomy["nodes"]:
            node["cpu_m"], node["mem_mi"] = 2 * node["cpu_m"], 2 * node["mem_mi"]
        assert not placed or isinstance(verdict((roomy, app, policies, demand)), dict)

        tripled = copy.deepcopy(app)
        for ms in tripled["microservices"]:
            if "capacity_rps" in ms:
                ms["capacity_rps"] *= 3
        demand3 = {d: {m: 3 * r for m, r in per.items()} for d, per in demand.items()}
        assert verdict((topo, tripled, policies, demand3)) == base

        shuffled = copy.deepcopy(topo)
        shuffler.shuffle(shuffled["nodes"])
        shuffler.shuffle(shuffled["domains"])
        assert verdict((shuffled, app, policies, demand)) == base

        if placed:
            used = {node_id for slots in base.values() for node_id, _ in slots}
            empty = sorted({node["id"] for node in topo["nodes"]} - used)
            if empty:
                tally["drained"] += 1
                assert verdict(docs, drained=frozenset(empty[:1])) == base
    assert tally == {"placed": 337, "infeasible": 53, "drained": 282}


def fed_and_unfed_ingress(source):
    """One domain with nodes n1 (250m) and n2 (150m): the IoT source
    ``source`` feeds ingress a (100m), and ingress b (150m) has no feeder."""
    topo = {
        "regions": [{"id": "r1", "domains": ["dd"]}],
        "domains": [{"id": "dd", "region": "r1", "admin": "adm", "kind": "edge"}],
        "nodes": [{"id": "n1", "domain": "dd", "cpu_m": 250, "mem_mi": 1024},
                  {"id": "n2", "domain": "dd", "cpu_m": 150, "mem_mi": 1024}],
        "attachments": [{"id": "att", "domain": "dd"}],
    }
    app = {
        "id": "pair",
        "microservices": [{"id": source, "iot": True},
                          {"id": "a", "cpu_m": 100, "mem_mi": 128, "capacity_rps": 100},
                          {"id": "b", "cpu_m": 150, "mem_mi": 128, "capacity_rps": 100}],
        "edges": [{"from": source, "to": "a"}],
        "ingress": ["a", "b"],
    }
    return topo, app, {}, {"dd": {"a": 50, "b": 50}}


def test_iot_placed_ids_move_no_placement():
    """Renaming every IoT-placed microservice, to ids that sort first or
    last, leaves the placement sequence and the placed slots as they were:
    those microservices are never placed and carry no traffic.  An IoT
    source named a0 or z1 once decided whether a or b placed first; seeded
    chain and DAG cases, some with two sources, check the rest."""
    def outcome(docs):
        _, app, pset, _ = build(*docs)
        return _placement_sequence(app, pset), verdict(docs)

    for source in ("a0", "z1"):
        assert outcome(fed_and_unfed_ingress(source)) == (
            ["a", "b"], {("a", "global"): [("n1", 1)], ("b", "global"): [("n1", 1)]})
    cases = [fed_and_unfed_ingress("a0"), *(gen_case(random.Random(seed)) for seed in range(40)),
             *(gen_case(random.Random(seed), gen_app=gen_dag_app) for seed in range(120))]
    for topo, app, policies, demand in cases:
        base = outcome((topo, app, policies, demand))
        for prefix in ("0-io", "zz-io"):
            assert outcome((topo, iot_renamed(app, prefix), policies, demand)) == base, prefix

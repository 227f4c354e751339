import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from edgeplane.appmodel import (
    PlacementRequest,
    app_from_doc,
    as_rate,
    rate_to_number,
)
from edgeplane.errors import (
    CycleDetected,
    DuplicateId,
    InvalidApplication,
    InvalidRequest,
    UnknownDomain,
    UnknownIngress,
    UnknownMicroservice,
    UnreachableMicroservice,
)

from .support import ROOT, gen_case, gen_chain_app, gen_dag_app


def chain_doc():
    return {
        "id": "chain",
        "microservices": [
            {"id": "m1", "iot": True},
            {"id": "m2", "cpu_m": 500, "mem_mi": 512, "capacity_rps": 50},
            {"id": "m3", "cpu_m": 1000, "mem_mi": 1024, "capacity_rps": 50},
        ],
        "edges": [{"from": "m1", "to": "m2"}, {"from": "m2", "to": "m3"}],
        "ingress": ["m2"],
    }


# --- exact rate arithmetic ---


def test_as_rate_exact():
    assert as_rate(100) == Fraction(100)
    assert as_rate(0.1) == Fraction(1, 10)  # not the binary-float neighborhood
    assert as_rate(Fraction(7, 3)) == Fraction(7, 3)


@pytest.mark.parametrize("bad", [True, False, None, [1], {"x": 1}, "2.5"])
def test_as_rate_rejects_non_numbers(bad):
    with pytest.raises(InvalidRequest):
        as_rate(bad)


def test_rate_to_number():
    assert rate_to_number(Fraction(300)) == 300
    assert isinstance(rate_to_number(Fraction(300)), int)
    assert rate_to_number(Fraction(1, 2)) == 0.5
    assert isinstance(rate_to_number(Fraction(1, 2)), float)


# --- DAG structure ---


def test_parse_chain():
    app = app_from_doc(chain_doc())
    assert app.id == "chain"
    assert app.microservices["m1"].placed_on_iot
    assert app.microservices["m2"].cpu_req == 500
    assert app.microservices["m3"].capacity_rps == Fraction(50)
    assert app.ingress_ids == frozenset({"m2"})
    assert app.topological_order() == ["m2", "m3"]


def test_edge_default_ratio_is_one():
    app = app_from_doc(chain_doc())
    assert all(e.rate_ratio == Fraction(1) for e in app.edges)


def test_fanout_and_fanin_order():
    doc = {
        "id": "diamond",
        "microservices": [
            {"id": "src", "iot": True},
            {"id": "a", "cpu_m": 100, "mem_mi": 128, "capacity_rps": 100},
            {"id": "b", "cpu_m": 100, "mem_mi": 128, "capacity_rps": 100},
            {"id": "c", "cpu_m": 100, "mem_mi": 128, "capacity_rps": 100},
            {"id": "d", "cpu_m": 100, "mem_mi": 128, "capacity_rps": 100},
        ],
        "edges": [
            {"from": "src", "to": "a"},
            {"from": "a", "to": "b", "ratio": 0.5},
            {"from": "a", "to": "c", "ratio": 2},
            {"from": "b", "to": "d"},
            {"from": "c", "to": "d"},
        ],
        "ingress": ["a"],
    }
    app = app_from_doc(doc)
    assert app.topological_order() == ["a", "b", "c", "d"]
    assert {e.to_ms for e in app.successors("a")} == {"b", "c"}
    assert {e.from_ms for e in app.predecessors("d")} == {"b", "c"}


def test_self_edge_is_a_cycle():
    doc = chain_doc()
    doc["edges"].append({"from": "m3", "to": "m3"})
    with pytest.raises(CycleDetected):
        app_from_doc(doc)


def test_cycle_detected_with_path():
    doc = chain_doc()
    doc["microservices"].append(
        {"id": "m4", "cpu_m": 100, "mem_mi": 128, "capacity_rps": 10})
    doc["edges"] += [{"from": "m3", "to": "m4"}, {"from": "m4", "to": "m3"}]
    with pytest.raises(CycleDetected) as exc:
        app_from_doc(doc)
    assert " -> " in str(exc.value)


def test_cycle_found_past_a_microservice_it_feeds():
    """The cycle m3 -> m4 -> m3 also feeds m0, whose id sorts first."""
    doc = chain_doc()
    doc["microservices"] += [
        {"id": m, "cpu_m": 100, "mem_mi": 128, "capacity_rps": 10} for m in ("m0", "m4")]
    doc["edges"] += [{"from": "m3", "to": "m4"}, {"from": "m4", "to": "m3"},
                     {"from": "m4", "to": "m0"}]
    with pytest.raises(CycleDetected) as exc:
        app_from_doc(doc)
    assert exc.value.cycle in (["m3", "m4", "m3"], ["m4", "m3", "m4"])


def cyclic_dag_docs():
    """Seeded DAG documents given one to four extra edges into non-ingress
    microservices, kept where those edges close a cycle."""
    docs = []
    for seed in range(400):
        rng = random.Random(seed)
        doc = gen_dag_app(rng, max_ms=8)
        ids = [ms["id"] for ms in doc["microservices"] if not ms.get("iot")]
        targets = [ms_id for ms_id in ids if ms_id not in doc["ingress"]]
        pairs = {(e["from"], e["to"]) for e in doc["edges"]}
        for _ in range(rng.randint(1, 4) if targets else 0):
            pair = (rng.choice(ids), rng.choice(targets))
            if pair[0] != pair[1] and pair not in pairs:
                pairs.add(pair)
                doc["edges"].append({"from": pair[0], "to": pair[1]})
        try:
            app_from_doc(doc)
        except CycleDetected:
            docs.append(doc)
    return docs


NAME_CYCLES = """
import json, sys
from edgeplane.appmodel import app_from_doc
from edgeplane.errors import CycleDetected
def cycle(doc):
    try:
        app_from_doc(doc)
    except CycleDetected as exc:
        return exc.cycle
print(json.dumps([cycle(doc) for doc in json.load(sys.stdin)]))
"""


def test_the_named_cycle_is_a_closed_walk_and_the_same_on_every_run():
    """On seeded cyclic DAGs, the cycle CycleDetected names runs along app
    edges, predecessor to successor, visits no microservice twice and ends
    where it starts; interpreters with other string hash seeds name the
    same cycles."""
    docs = cyclic_dag_docs()
    cycles = []
    for doc in docs:
        with pytest.raises(CycleDetected) as exc:
            app_from_doc(doc)
        cycle = exc.value.cycle
        edges = {(e["from"], e["to"]) for e in doc["edges"]}
        assert cycle[0] == cycle[-1] and len(set(cycle)) == len(cycle) - 1 >= 2, cycle
        assert set(zip(cycle, cycle[1:])) <= edges, cycle
        cycles.append(cycle)
    assert len(cycles) == 70
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": hash_seed}
        child = subprocess.run([sys.executable, "-c", NAME_CYCLES], input=json.dumps(docs), env=env,
                               capture_output=True, text=True, timeout=60, check=True)
        assert json.loads(child.stdout) == cycles


def test_negative_edge_ratio():
    doc = chain_doc()
    doc["edges"][1]["ratio"] = -1
    with pytest.raises(InvalidApplication, match="^edge m2->m3 ratio must be >= 0$"):
        app_from_doc(doc)


def test_duplicate_microservice_id():
    doc = chain_doc()
    doc["microservices"].append({"id": "m3", "cpu_m": 100, "mem_mi": 128, "capacity_rps": 10})
    with pytest.raises(DuplicateId, match="'m3'"):
        app_from_doc(doc)


def test_unknown_edge_endpoint():
    doc = chain_doc()
    doc["edges"].append({"from": "m3", "to": "ghost"})
    with pytest.raises(UnknownMicroservice):
        app_from_doc(doc)


def test_duplicate_edge():
    doc = chain_doc()
    doc["edges"].append({"from": "m2", "to": "m3"})
    with pytest.raises(InvalidApplication):
        app_from_doc(doc)


def test_ingress_must_be_declared():
    doc = chain_doc()
    doc["ingress"] = ["ghost"]
    with pytest.raises(UnknownIngress):
        app_from_doc(doc)


@pytest.mark.parametrize("gen_app", [gen_chain_app, gen_dag_app])
def test_traffic_edges_are_the_document_edges_from_non_iot_microservices(gen_app):
    """``predecessors`` and ``successors`` give, in document order, exactly the
    edges that leave a microservice not placed on IoT devices.  The DAG cases
    include IoT sources that feed microservices past the ingress set."""
    past_ingress = 0
    for seed in range(40):
        _, app_doc, _, _ = gen_case(random.Random(seed), gen_app=gen_app)
        app = app_from_doc(app_doc)
        iot = {m["id"] for m in app_doc["microservices"] if m.get("iot")}
        traffic = [(e["from"], e["to"]) for e in app_doc["edges"] if e["from"] not in iot]
        past_ingress += sum(e["from"] in iot and e["to"] not in app.ingress_ids for e in app_doc["edges"])
        for ms_id in app.microservices:
            assert [(e.from_ms, e.to_ms) for e in app.predecessors(ms_id)] == [p for p in traffic if p[1] == ms_id]
            assert [(e.from_ms, e.to_ms) for e in app.successors(ms_id)] == [p for p in traffic if p[0] == ms_id]
    assert (past_ingress > 0) == (gen_app is gen_dag_app)


def test_ingress_cannot_be_iot():
    doc = chain_doc()
    doc["ingress"] = ["m1"]
    with pytest.raises(UnknownIngress):
        app_from_doc(doc)


def test_ingress_predecessors_must_be_iot():
    doc = chain_doc()
    doc["ingress"] = ["m3"]  # m3's predecessor m2 is a regular microservice
    with pytest.raises(InvalidApplication):
        app_from_doc(doc)


@pytest.mark.parametrize("source", ["m3", "m1"])
def test_edge_into_iot_placed_microservice(source):
    # IoT-placed microservices are pure traffic sources: nothing may feed one
    doc = chain_doc()
    doc["microservices"].append({"id": "sink", "iot": True})
    doc["edges"].append({"from": source, "to": "sink"})
    with pytest.raises(InvalidApplication, match=f"{source}->sink"):
        app_from_doc(doc)


def test_unreachable_microservice():
    doc = chain_doc()
    doc["microservices"].append(
        {"id": "stray", "cpu_m": 100, "mem_mi": 128, "capacity_rps": 10})
    with pytest.raises(UnreachableMicroservice):
        app_from_doc(doc)


def test_nonpositive_requirements_rejected():
    for key in ("cpu_m", "mem_mi", "capacity_rps"):
        doc = chain_doc()
        doc["microservices"][1][key] = 0
        with pytest.raises(InvalidApplication, match="positive"):
            app_from_doc(doc)


# --- placement request ---


def test_request_validation(canonical):
    bad = PlacementRequest(app=canonical.app,
                           demand={"ghost": {"m2": Fraction(10)}})
    with pytest.raises(UnknownDomain):
        bad.validate_against(canonical.graph)

    # cloud exists but has no IoT attachment
    bad = PlacementRequest(app=canonical.app,
                           demand={"cloud": {"m2": Fraction(10)}})
    with pytest.raises(InvalidRequest):
        bad.validate_against(canonical.graph)

    # m3 is not an ingress microservice
    bad = PlacementRequest(app=canonical.app,
                           demand={"ed3": {"m3": Fraction(10)}})
    with pytest.raises(InvalidRequest):
        bad.validate_against(canonical.graph)

    bad = PlacementRequest(app=canonical.app,
                           demand={"ed3": {"m2": Fraction(-1)}})
    with pytest.raises(InvalidRequest):
        bad.validate_against(canonical.graph)


def test_demand_from_doc_normalizes():
    app = app_from_doc(chain_doc())
    request = PlacementRequest(app, {"d1": {"m2": 12.5}})
    assert request.demand["d1"]["m2"] == Fraction(25, 2)


@pytest.mark.parametrize("doc, what", [
    ({12: {"m2": 1}}, "domain"), ({"": {"m2": 1}}, "domain"), ({None: {"m2": 1}}, "domain"),
    ({"d1": {7: 1}}, "microservice"), ({"d1": {"": 1}}, "microservice"),
])
def test_demand_keys_are_ids(doc, what):
    with pytest.raises(InvalidRequest, match=f"demand {what} must be a non-empty string"):
        PlacementRequest(app_from_doc(chain_doc()), doc)

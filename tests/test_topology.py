import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeplane.errors import (
    DanglingReference,
    DuplicateId,
    EmptyTopology,
    InvalidTopology,
    UnknownDomain,
)
from edgeplane.locality import LocalityLevel
from edgeplane.topology import GLOBAL_ANCHOR, load_topology

from .support import doc_scope


def minimal_doc():
    return {
        "regions": [{"id": "r1", "domains": ["d1", "d2"]},
                    {"id": "r2", "domains": ["d3"]}],
        "domains": [
            {"id": "d1", "region": "r1", "admin": "a1", "kind": "edge"},
            {"id": "d2", "region": "r1", "admin": "a2", "kind": "edge"},
            {"id": "d3", "region": "r2", "admin": "a3", "kind": "cloud"},
        ],
        "nodes": [
            {"id": "n1", "domain": "d1", "cpu_m": 2000, "mem_mi": 4096},
            {"id": "n2", "domain": "d2", "cpu_m": 4000, "mem_mi": 8192},
            {"id": "n3", "domain": "d3", "cpu_m": 8000, "mem_mi": 16384},
        ],
        "attachments": [{"id": "iot1", "domain": "d1"}],
    }


def test_load_minimal():
    graph = load_topology(minimal_doc())
    assert set(graph.regions) == {"r1", "r2"}
    assert set(graph.domains) == {"d1", "d2", "d3"}
    assert set(graph.nodes) == {"n1", "n2", "n3"}
    assert graph.domains["d2"].region_id == "r1"
    assert graph.anchor_domains("r1") == ["d1", "d2"]
    assert [n.id for n in graph.nodes_of_domain("d1")] == ["n1"]
    assert graph.attachment_domains() == ["d1"]
    assert graph.domains["d3"].kind == "cloud"
    assert graph.domains["d1"].admin_id == "a1"


def test_nodes_are_immutable():
    """The graph is never written after loading; its node type enforces that."""
    node = load_topology(minimal_doc()).nodes["n1"]
    for field in dataclasses.fields(node):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, field.name, getattr(node, field.name))


def test_duplicate_id_across_kinds():
    doc = minimal_doc()
    doc["nodes"][0]["id"] = "d1"  # collides with a domain id
    with pytest.raises(DuplicateId):
        load_topology(doc)


def test_duplicate_node_ids():
    doc = minimal_doc()
    doc["nodes"].append({"id": "n1", "domain": "d2", "cpu_m": 1000, "mem_mi": 1024})
    with pytest.raises(DuplicateId):
        load_topology(doc)


def test_reserved_global_id():
    doc = minimal_doc()
    doc["domains"][0]["id"] = "global"
    doc["regions"][0]["domains"][0] = "global"
    doc["nodes"][0]["domain"] = "global"
    doc["attachments"][0]["domain"] = "global"
    with pytest.raises(InvalidTopology):
        load_topology(doc)


def test_region_with_no_domains():
    doc = minimal_doc()
    doc["regions"].append({"id": "r3", "domains": []})
    with pytest.raises(EmptyTopology):
        load_topology(doc)


def test_no_domains_at_all():
    with pytest.raises(EmptyTopology):
        load_topology({"regions": [], "domains": [], "nodes": [], "attachments": []})


def test_domain_references_missing_region():
    doc = minimal_doc()
    doc["domains"][2]["region"] = "nope"
    with pytest.raises(DanglingReference):
        load_topology(doc)


def test_region_lists_unknown_domain():
    doc = minimal_doc()
    doc["regions"][1]["domains"].append("ghost")
    with pytest.raises(DanglingReference):
        load_topology(doc)


def test_region_domain_membership_must_agree():
    # domain claims r1 but only r2 lists it
    doc = minimal_doc()
    doc["domains"][2]["region"] = "r1"
    with pytest.raises(DanglingReference):
        load_topology(doc)


def test_domain_listed_by_two_regions():
    doc = minimal_doc()
    doc["regions"][1]["domains"].append("d1")  # d1 claims r1
    with pytest.raises(DanglingReference, match="'d1' \\(domain claims region 'r1'\\)"):
        load_topology(doc)


def test_node_in_unknown_domain():
    doc = minimal_doc()
    doc["nodes"][0]["domain"] = "ghost"
    with pytest.raises(DanglingReference):
        load_topology(doc)


def test_attachment_in_unknown_domain():
    doc = minimal_doc()
    doc["attachments"][0]["domain"] = "ghost"
    with pytest.raises(DanglingReference):
        load_topology(doc)


def test_bad_domain_kind():
    doc = minimal_doc()
    doc["domains"][0]["kind"] = "fog"
    with pytest.raises(InvalidTopology):
        load_topology(doc)


@pytest.mark.parametrize("cpu", [0, -5, True, "2000"])
def test_bad_capacities(cpu):
    doc = minimal_doc()
    doc["nodes"][0]["cpu_m"] = cpu
    with pytest.raises(InvalidTopology):
        load_topology(doc)


@pytest.mark.parametrize("field", ["cpu_m", "mem_mi"])
def test_a_zero_capacity_is_refused(field):
    doc = minimal_doc()
    doc["nodes"][0][field] = 0
    with pytest.raises(InvalidTopology, match="^node 'n1' must have positive cpu and memory capacity$"):
        load_topology(doc)


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(regions=5), "topology regions must be a list of mappings"),
    (lambda doc: doc["regions"][0].update(domains="d1"), "region 'r1' domains must be a list of ids"),
    (lambda doc: doc["nodes"][0].update(cpu_m="2000"), "node 'n1' cpu_m must be an integer, got '2000'"),
    (lambda doc: doc["domains"][0].update(admin=""), "domain 'd1' admin must be a non-empty string, got ''"),
])
def test_a_malformed_value_names_what_was_expected(edit, message):
    doc = minimal_doc()
    edit(doc)
    with pytest.raises(InvalidTopology) as info:
        load_topology(doc)
    assert str(info.value) == message


def test_a_region_listing_a_domain_twice_names_the_repeat():
    doc = minimal_doc()
    doc["regions"][0]["domains"] = ["d2", "d1", "d1"]
    with pytest.raises(DuplicateId, match="^region 'r1' lists domain 'd1' twice$"):
        load_topology(doc)


@pytest.mark.parametrize("kind, entry, message", [
    ("regions", {"id": "r1", "domains": ["d3"]}, "region id 'r1' already used"),
    ("regions", {"id": "d2", "domains": ["d3"]}, "domain id 'd2' already used"),
    ("domains", {"id": "r1", "region": "r2", "admin": "a", "kind": "edge"}, "domain id 'r1' already used"),
    ("nodes", {"id": "d3", "domain": "d3", "cpu_m": 1, "mem_mi": 1}, "node id 'd3' already used"),
    ("nodes", {"id": "iot1", "domain": "d3", "cpu_m": 1, "mem_mi": 1}, "attachment id 'iot1' already used"),
    ("attachments", {"id": "n2", "domain": "d2"}, "attachment id 'n2' already used"),
])
def test_every_id_is_claimed_once_across_kinds(kind, entry, message):
    """Regions claim their ids in document order, then domains, nodes and
    attachments each in id order; the later claim of an id names its kind."""
    doc = minimal_doc()
    doc[kind].append(entry)
    with pytest.raises(DuplicateId, match=f"^{message}$"):
        load_topology(doc)


@pytest.mark.parametrize("kind, domain, message", [
    ("nodes", "ghost", "unresolved reference 'ghost' (domain of node 'n1')"),
    ("nodes", ["d1"], "unresolved reference \"['d1']\" (domain of node 'n1')"),
    ("attachments", "r1", "unresolved reference 'r1' (domain of attachment 'iot1')"),
    ("attachments", None, "unresolved reference 'None' (domain of attachment 'iot1')"),
])
def test_nodes_and_attachments_name_a_missing_domain(kind, domain, message):
    doc = minimal_doc()
    doc[kind][0]["domain"] = domain
    with pytest.raises(DanglingReference) as info:
        load_topology(doc)
    assert str(info.value) == message


def test_attachment_domains_are_sorted_once_each_on_a_fresh_list():
    doc = minimal_doc()
    doc["attachments"] += [{"id": "iot3", "domain": "d3"}, {"id": "iot0", "domain": "d1"}]
    graph = load_topology(doc)
    listed = graph.attachment_domains()
    assert listed == ["d1", "d3"]
    listed.append("d2")
    assert graph.attachment_domains() == ["d1", "d3"]
    assert load_topology({**doc, "attachments": None}).attachment_domains() == []


def test_anchors_resolve_scopes():
    graph = load_topology(minimal_doc())
    assert graph.anchor_of("d1", LocalityLevel.STRICT_DOMAIN) == "d1"
    assert graph.anchor_of("d1", LocalityLevel.STRICT_REGION) == "r1"
    assert graph.anchor_of("d3", LocalityLevel.STRICT_REGION) == "r2"
    assert graph.anchor_of("d3", LocalityLevel.GLOBAL) == GLOBAL_ANCHOR
    assert graph.anchor_domains("d1") == ["d1"]
    assert graph.anchor_domains("r1") == ["d1", "d2"]
    assert graph.anchor_domains("r2") == ["d3"]
    assert graph.anchor_domains(GLOBAL_ANCHOR) == ["d1", "d2", "d3"]
    for level in LocalityLevel:
        for unknown in ("ghost", "r1", "n1", GLOBAL_ANCHOR):
            with pytest.raises(UnknownDomain):
                graph.anchor_of(unknown, level)
    for unknown in ("ghost", "n1", "iot1"):
        with pytest.raises(UnknownDomain):
            graph.anchor_domains(unknown)
    with pytest.raises(UnknownDomain):
        graph.nodes_of_domain("ghost")


@st.composite
def topo_docs(draw):
    n_regions = draw(st.integers(1, 3))
    doc = {"regions": [], "domains": [], "nodes": [], "attachments": []}
    for r in range(n_regions):
        domain_ids = [f"d{r}{i}" for i in range(draw(st.integers(1, 3)))]
        doc["regions"].append({"id": f"r{r}", "domains": domain_ids})
        for did in domain_ids:
            doc["domains"].append({"id": did, "region": f"r{r}",
                                   "admin": f"a{did}", "kind": "edge"})
            for n in range(draw(st.integers(0, 3))):
                doc["nodes"].append({"id": f"{did}n{n}", "domain": did,
                                     "cpu_m": draw(st.integers(1, 10)) * 500,
                                     "mem_mi": 1024})
    return doc


@given(topo_docs(), st.sampled_from(list(LocalityLevel)))
@settings(max_examples=60, deadline=None)
def test_scope_nesting_property(doc, level):
    """Strict-domain scope is a subset of strict-region, which is a subset of
    global, and node listings stay sorted by (domain, node id)."""
    graph = load_topology(doc)
    for domain_id in graph.domains:
        dom, reg, glob = (set(graph.anchor_domains(graph.anchor_of(domain_id, scope)))
                          for scope in LocalityLevel)
        assert dom <= reg <= glob
        scoped = graph.anchor_domains(graph.anchor_of(domain_id, level))
        listed = [node.id for d in scoped for node in graph.nodes_of_domain(d)]
        keyed = sorted(listed, key=lambda n: (graph.nodes[n].domain_id, n))
        assert listed == keyed
        assert all(graph.nodes[n].domain_id in scoped for n in listed)


@given(topo_docs())
@settings(max_examples=60, deadline=None)
def test_anchor_scopes_match_raw_regions(doc):
    """Every domain lies in the scope its anchor keys, that scope is the one
    the raw region lists give, two domains share an anchor exactly when they
    share that scope, and ids that name no domain (or no scope) raise."""
    graph = load_topology(doc)
    for level in LocalityLevel:
        for domain_id in graph.domains:
            anchor = graph.anchor_of(domain_id, level)
            scope = doc_scope(doc, domain_id, level)
            assert domain_id in graph.anchor_domains(anchor)
            assert graph.anchor_domains(anchor) == sorted(scope)
            assert {d for d in graph.domains if graph.anchor_of(d, level) == anchor} == scope
        for unknown in ["ghost", *graph.regions, *graph.nodes]:
            with pytest.raises(UnknownDomain):
                graph.anchor_of(unknown, level)
    for unknown in ["ghost", *graph.nodes]:
        with pytest.raises(UnknownDomain):
            graph.anchor_domains(unknown)


def test_nodes_of_domain_index_matches_scan():
    """The domain index gives what a sorted scan of every node gives, on
    seeded graphs up to 10 regions x 10 domains x 4 nodes with node ids
    that interleave across domains, and a fresh list on every call."""
    for seed in range(20):
        rng = random.Random(seed)
        doc = {"regions": [], "domains": [], "nodes": [], "attachments": []}
        for r in range(rng.randint(2, 10)):
            domain_ids = [f"d{r}-{i}" for i in range(rng.randint(2, 10))]
            doc["regions"].append({"id": f"r{r}", "domains": domain_ids})
            for did in domain_ids:
                doc["domains"].append({"id": did, "region": f"r{r}", "admin": "a", "kind": "edge"})
                doc["nodes"] += [{"domain": did, "cpu_m": 1000, "mem_mi": 1024}
                                 for _ in range(rng.randint(0, 4))]
        for node, number in zip(doc["nodes"], rng.sample(range(100_000), len(doc["nodes"]))):
            node["id"] = f"n{number:05d}"
        rng.shuffle(doc["nodes"])
        graph = load_topology(doc)
        for domain_id in graph.domains:
            scanned = [graph.nodes[n] for n in sorted(graph.nodes)
                       if graph.nodes[n].domain_id == domain_id]
            listed = graph.nodes_of_domain(domain_id)
            assert [n.id for n in listed] == [n.id for n in scanned]
            assert all(a is b for a, b in zip(listed, scanned))
            listed.reverse()
            listed.append(None)
            assert graph.nodes_of_domain(domain_id) == scanned
        with pytest.raises(UnknownDomain):
            graph.nodes_of_domain("ghost")

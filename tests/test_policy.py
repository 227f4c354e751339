import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeplane.appmodel import app_from_doc
from edgeplane.errors import (
    DuplicateRule,
    NonEdgeMsRule,
    NonIngressIotRule,
    PolicyError,
    UnknownDomain,
    UnknownMicroservice,
    UnknownPolicyType,
)
from edgeplane.locality import DEFAULT_LOCALITY, LocalityLevel
from edgeplane.policy import (
    eligible_domains_for_anchor,
    evaluate_query,
    get_data,
    is_allowed,
    parse_policies,
)
from edgeplane.topology import load_topology

from .support import doc_scope, gen_case, oracle_eligible
from .test_appmodel import chain_doc
from .test_topology import minimal_doc


@pytest.fixture
def setup(canonical):
    return canonical.graph, canonical.app, canonical.policies


# --- parsing ---


def test_levels():
    assert LocalityLevel.parse("strict-domain") is LocalityLevel.STRICT_DOMAIN
    assert LocalityLevel.STRICT_DOMAIN.strictness < LocalityLevel.STRICT_REGION.strictness
    assert LocalityLevel.STRICT_REGION.strictness < LocalityLevel.GLOBAL.strictness
    assert LocalityLevel.GLOBAL.wire_name == "Global"
    assert DEFAULT_LOCALITY is LocalityLevel.GLOBAL
    with pytest.raises(PolicyError):
        LocalityLevel.parse("Region")


def test_parse_canonical(setup):
    _, _, pset = setup
    assert pset.restriction["m2"].mode == "allow"
    assert pset.restriction["m2"].domains == frozenset({"ed3", "ed4"})
    assert "m4" not in pset.restriction
    assert pset.iot_level("m2") is LocalityLevel.STRICT_DOMAIN
    assert pset.edge_level("m2", "m3") is LocalityLevel.STRICT_REGION
    assert pset.edge_level("m3", "m4") is LocalityLevel.GLOBAL  # default
    assert pset.default_locality is LocalityLevel.GLOBAL


def _parse(policy_doc, app_doc=None, topo_doc=None):
    graph = load_topology(topo_doc or minimal_doc())
    app = app_from_doc(app_doc or chain_doc())
    return parse_policies(policy_doc, app, graph), app, graph


@pytest.mark.parametrize("doc,err", [
    ({"placement_restriction": [{"microservice": "ghost", "mode": "allow", "domains": ["d1"]}]},
     UnknownMicroservice),
    ({"placement_restriction": [{"microservice": "m2", "mode": "allow", "domains": ["ghost"]}]},
     UnknownDomain),
    ({"placement_restriction": [{"microservice": "m2", "mode": "maybe", "domains": ["d1"]}]},
     PolicyError),
    ({"placement_restriction": [{"microservice": "m2", "mode": "allow", "domains": ["d1"]},
                                {"microservice": "m2", "mode": "deny", "domains": ["d2"]}]},
     DuplicateRule),
    ({"iot_locality": [{"microservice": "m3", "level": "global"}]}, NonIngressIotRule),
    ({"iot_locality": [{"microservice": "m2", "level": "global"},
                       {"microservice": "m2", "level": "strict-domain"}]}, DuplicateRule),
    ({"ms_locality": [{"consumer": "m3", "consumed": "m2", "level": "global"}]},
     NonEdgeMsRule),
    ({"ms_locality": [{"consumer": "m2", "consumed": "m3", "level": "global"},
                      {"consumer": "m2", "consumed": "m3", "level": "strict-domain"}]},
     DuplicateRule),
    ({"iot_locality": [{"microservice": "m2", "level": "Region"}]}, PolicyError),
    ({"unknown_block": []}, UnknownPolicyType),
    ({"default_locality": "sometimes"}, PolicyError),
    ({1: [], "unknown_block": []}, UnknownPolicyType),
])
def test_parse_rejections(doc, err):
    with pytest.raises(err):
        _parse(doc)


def test_absent_policies_fragment_is_an_empty_set():
    pset, _, _ = _parse(None)
    assert (pset.restriction, pset.iot_locality, pset.ms_locality) == ({}, {}, {})
    assert pset.default_locality is DEFAULT_LOCALITY


@pytest.mark.parametrize("doc", [[], ["placement_restriction"], 7])
def test_non_mapping_policies_fragment_is_refused(doc):
    with pytest.raises(PolicyError, match="^policies fragment must be a mapping$"):
        _parse(doc)


def test_default_locality_fallback():
    pset, _, _ = _parse({})
    assert pset.default_locality is DEFAULT_LOCALITY
    assert pset.iot_level("m2") is DEFAULT_LOCALITY
    assert pset.edge_level("m2", "m3") is DEFAULT_LOCALITY
    pset, _, _ = _parse({"default_locality": "strict-region"})
    assert pset.edge_level("m2", "m3") is LocalityLevel.STRICT_REGION


# --- data endpoint semantics ---


def test_get_data_values(setup):
    _, _, pset = setup
    assert get_data(pset, "placement_restriction", "m2") == {
        "mode": "allow", "domains": ["ed3", "ed4"]}
    assert get_data(pset, "placement_restriction", "m4") == "unrestricted"
    assert get_data(pset, "placement_restriction", "nonexistent") == "unrestricted"
    assert get_data(pset, "iot_locality", "m2") == "StrictDomain"
    assert get_data(pset, "iot_locality", "m4") == "Global"
    assert get_data(pset, "ms_locality", ("m2", "m3")) == "StrictRegion"
    assert get_data(pset, "ms_locality", ("m3", "m4")) == "Global"
    with pytest.raises(UnknownPolicyType):
        get_data(pset, "acl", "m2")
    with pytest.raises(UnknownPolicyType):
        get_data(pset, "ms_locality", "m2")  # wrong key arity
    for policy_type in ("placement_restriction", "iot_locality"):
        for key in (["m2"], ("m2", "x"), None):
            with pytest.raises(UnknownPolicyType):
                get_data(pset, policy_type, key)
    for key in (("m2", "m3", "m4"), ("m2", None)):
        with pytest.raises(UnknownPolicyType):
            get_data(pset, "ms_locality", key)


# --- decision endpoint semantics ---


def test_is_allowed_decisions(setup):
    _, _, pset = setup
    dec = is_allowed(pset, "m2", "ed3")
    assert dec.allowed and dec.reason == "restriction: m2 allow-list includes ed3"
    dec = is_allowed(pset, "m2", "cloud")
    assert not dec.allowed and dec.reason == "restriction: m2 allow-list excludes cloud"
    dec = is_allowed(pset, "m4", "cloud")
    assert dec.allowed and dec.reason == "unrestricted: no placement rule for m4"
    with pytest.raises(UnknownMicroservice):
        is_allowed(pset, "ghost", "ed3")
    with pytest.raises(UnknownDomain):
        is_allowed(pset, "m2", "ghost")


def test_deny_mode():
    pset, _, _ = _parse({"placement_restriction": [
        {"microservice": "m2", "mode": "deny", "domains": ["d3"]}]})
    assert is_allowed(pset, "m2", "d1").allowed
    dec = is_allowed(pset, "m2", "d3")
    assert not dec.allowed and dec.reason == "restriction: m2 deny-list includes d3"


# --- eligibility ---


def test_eligible_domains_canonical(setup):
    graph, _, pset = setup
    assert eligible_domains_for_anchor(pset, "m2", "ed3", graph) == ["ed3"]
    assert eligible_domains_for_anchor(pset, "m3", "region-2", graph) == ["ed3", "ed4"]
    assert eligible_domains_for_anchor(pset, "m3", "global", graph) == ["ed3", "ed4"]
    assert eligible_domains_for_anchor(pset, "m5", "global", graph) == ["cloud", "ed3", "ed4"]
    # restriction can empty a scope entirely
    assert eligible_domains_for_anchor(pset, "m2", "cloud", graph) == []


def test_eligible_domains_for_anchor(setup):
    graph, _, pset = setup
    assert eligible_domains_for_anchor(pset, "m2", "ed4", graph) == ["ed4"]
    assert eligible_domains_for_anchor(pset, "m3", "region-2", graph) == ["ed3", "ed4"]
    assert eligible_domains_for_anchor(pset, "m4", "global", graph) == ["cloud", "ed3", "ed4"]
    with pytest.raises(UnknownDomain):
        eligible_domains_for_anchor(pset, "m2", "nowhere", graph)


def test_eligible_domains_refuse_an_unknown_microservice(setup):
    graph, _, pset = setup
    for ms_id in ("ghost", "", None, ["m2"]):
        with pytest.raises(UnknownMicroservice):
            eligible_domains_for_anchor(pset, ms_id, "global", graph)


def test_eligible_against_oracle_seeded():
    rng = random.Random(20240817)
    for _ in range(150):
        topo_doc, app_doc, policy_doc, _ = gen_case(rng)
        graph = load_topology(topo_doc)
        app = app_from_doc(app_doc)
        pset = parse_policies(policy_doc, app, graph)
        ms_id = rng.choice([m["id"] for m in app_doc["microservices"] if not m.get("iot")])
        anchor = rng.choice(sorted(graph.domains))
        level = rng.choice(list(LocalityLevel))
        got = eligible_domains_for_anchor(pset, ms_id, graph.anchor_of(anchor, level), graph)
        want = oracle_eligible(graph, policy_doc, ms_id, anchor, level.value)
        assert got == want


# --- query evaluation (wire semantics) ---


def test_evaluate_query_restriction(setup):
    graph, _, pset = setup
    dec = evaluate_query(pset, graph, "placement_restriction",
                         {"microservice": "m2", "domain": "cloud"})
    assert not dec.allowed

    with pytest.raises(PolicyError):
        evaluate_query(pset, graph, "placement_restriction", {"microservice": "m2"})
    with pytest.raises(UnknownPolicyType):
        evaluate_query(pset, graph, "firewall", {})


def test_evaluate_query_iot_locality(setup):
    graph, _, pset = setup
    dec = evaluate_query(pset, graph, "iot_locality", {
        "microservice": "m2", "device_domain": "ed3", "target_domain": "ed3"})
    assert dec.allowed
    dec = evaluate_query(pset, graph, "iot_locality", {
        "microservice": "m2", "device_domain": "ed3", "target_domain": "ed4"})
    assert not dec.allowed
    assert "StrictDomain" in dec.reason


def test_evaluate_query_ms_locality(setup):
    graph, _, pset = setup
    dec = evaluate_query(pset, graph, "ms_locality", {
        "consumer": "m2", "consumed": "m3",
        "consumer_domain": "ed3", "target_domain": "ed4"})
    assert dec.allowed  # same region
    dec = evaluate_query(pset, graph, "ms_locality", {
        "consumer": "m2", "consumed": "m3",
        "consumer_domain": "ed3", "target_domain": "cloud"})
    assert not dec.allowed


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_eligible_subset_property(data):
    """Eligible domains are always inside the scope and never denied."""
    seed = data.draw(st.integers(0, 10_000))
    rng = random.Random(seed)
    topo_doc, app_doc, policy_doc, _ = gen_case(rng)
    graph = load_topology(topo_doc)
    app = app_from_doc(app_doc)
    pset = parse_policies(policy_doc, app, graph)
    ms_id = data.draw(st.sampled_from(
        [m["id"] for m in app_doc["microservices"] if not m.get("iot")]))
    anchor = data.draw(st.sampled_from(sorted(graph.domains)))
    level = data.draw(st.sampled_from(list(LocalityLevel)))
    got = eligible_domains_for_anchor(pset, ms_id, graph.anchor_of(anchor, level), graph)
    scope = doc_scope(topo_doc, anchor, level)
    assert set(got) <= scope
    assert all(is_allowed(pset, ms_id, d).allowed for d in got)
    assert all(not is_allowed(pset, ms_id, d).allowed for d in sorted(scope - set(got)))

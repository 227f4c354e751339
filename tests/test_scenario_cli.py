import copy
import json
import logging
import math
import re
import socket
from http.server import ThreadingHTTPServer

import pytest
import yaml

from edgeplane import cli, scenario
from edgeplane.cli import main
from edgeplane.controlplane import ControlPlane, validate_plan
from edgeplane.documents import plan_from_doc
from edgeplane.errors import EdgeplaneError, PolicyError, ScenarioParseError, UnknownNode
from edgeplane.scenario import check_scenario, load_scenario, scenario_from_doc

from .support import GOLDEN, SCENARIOS


CANONICAL = str(SCENARIOS / "uav_canonical.yaml")
SURGE = str(SCENARIOS / "uav_demand_surge.yaml")

#: The pure-Python loader, and libyaml's where PyYAML has it.
LOADERS = (yaml.SafeLoader, *([yaml.CSafeLoader] if yaml.__with_libyaml__ else []))


def canonical_doc(path=CANONICAL):
    """The canonical scenario's document, or that of the scenario at ``path``."""
    with open(path, encoding="utf-8") as fh:
        return yaml.safe_load(fh)


def write_scenario(tmp_path, doc, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    return str(path)


def set_path(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


def node_paths(node, prefix=()):
    """The key path of every node under ``node``, lists cut to their first two entries."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node[:2])
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from node_paths(child, prefix + (key,))


def leaves(node, prefix=()):
    """The key path and value of every scalar under ``node``, lists in full."""
    if not isinstance(node, (dict, list)):
        yield prefix, node
        return
    for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield from leaves(child, prefix + (key,))


# --- scenario loading ---


def test_load_canonical(canonical):
    assert canonical.settings.overload_threshold == 1.1
    assert [e for e in canonical.events] == []
    assert canonical.request.demand["ed4"]["m2"] == 200


def test_load_surge_events(surge):
    assert len(surge.events) == 1
    event = surge.events[0]
    assert event.kind == "set_demand"
    assert event.tick == 5
    assert event.domain == "ed3"
    assert event.microservice == "m2"
    assert event.rps == 200


def test_load_rejects_bad_yaml(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("topology: [unclosed", encoding="utf-8")
    with pytest.raises(ScenarioParseError, match="invalid YAML"):
        load_scenario(str(path))


@pytest.mark.parametrize("content, reason", [
    (b"topology: \xff\xfe\n", "cannot read"),
    (b"topology: \x07\n", "invalid YAML"),
], ids=["not-utf8", "control-char"])
def test_cli_undecodable_or_control_bytes_exit_2(tmp_path, capsys, monkeypatch, content, reason):
    path = tmp_path / "bytes.yaml"
    path.write_bytes(content)
    for loader in LOADERS:
        monkeypatch.setattr(scenario, "YAML_LOADER", loader)
        assert main(["validate", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {reason}: ") and err.count("\n") == 1, (loader, err)


def test_load_rejects_non_mapping(tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text("- a\n- b\n", encoding="utf-8")
    with pytest.raises(ScenarioParseError, match="must be a mapping"):
        load_scenario(str(path))


@pytest.mark.parametrize("section", ["topology", "application", "demand"])
def test_load_rejects_missing_section(tmp_path, section):
    doc = canonical_doc()
    del doc[section]
    with pytest.raises(ScenarioParseError, match=f"missing the '{section}'"):
        load_scenario(write_scenario(tmp_path, doc))


@pytest.mark.parametrize("section", ["topology", "application", "demand"])
def test_null_required_section_is_refused(tmp_path, capsys, section):
    """A required section set to null is not a mapping: each one exits 1 with one line."""
    doc = canonical_doc()
    doc[section] = None
    scenario, problems = check_scenario(doc)
    assert scenario is None
    assert [(s, str(exc)) for s, exc in problems] == [(section, f"{section} fragment must be a mapping")]
    path = write_scenario(tmp_path, doc)
    for command in ("validate", "place"):
        assert main([command, "--scenario", path]) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1


def test_empty_demand_loads(tmp_path):
    doc = canonical_doc()
    doc["demand"] = {}
    scenario, problems = check_scenario(doc)
    assert problems == [] and scenario.request.demand == {}
    assert main(["validate", "--scenario", write_scenario(tmp_path, doc), "--quiet"]) == 0


def test_load_rejects_stochastic_mode(tmp_path):
    doc = canonical_doc()
    doc["settings"]["deterministic"] = False
    with pytest.raises(ScenarioParseError, match="deterministic"):
        load_scenario(write_scenario(tmp_path, doc))


@pytest.mark.parametrize("threshold", [0, -1, "fast", True, float("inf"), float("nan")])
def test_load_rejects_bad_threshold(tmp_path, threshold):
    doc = canonical_doc()
    doc["settings"]["overload_threshold"] = threshold
    with pytest.raises(ScenarioParseError, match="overload_threshold"):
        load_scenario(write_scenario(tmp_path, doc))


@pytest.mark.parametrize("key, value", [("default_locality", "strict-region"), ("overload_treshold", 0.01)],
                         ids=["default_locality", "overload_treshold"])
def test_unknown_settings_key_exits_2_naming_it(tmp_path, capsys, key, value):
    """The settings keys are closed: the default locality is set in
    ``policies`` only, and a misspelt key is not silently ignored."""
    doc = canonical_doc()
    doc["settings"][key] = value
    path = write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioParseError, match=f"unknown settings key '{key}'"):
        load_scenario(path)
    assert main(["simulate", "--scenario", path, "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: unknown settings key '{key}'\n"


def test_events_sorted_and_alias_accepted(tmp_path):
    doc = canonical_doc()
    doc["events"] = [
        {"tick": 7, "type": "set_demand", "domain": "ed3",
         "microservice": "m2", "rps": 50},
        {"tick": 2, "type": "drain_node", "node": "cl-n3"},
    ]
    scenario = load_scenario(write_scenario(tmp_path, doc))
    assert [e.tick for e in scenario.events] == [2, 7]
    assert scenario.events[1].microservice == "m2"


@pytest.mark.parametrize("event, match", [
    ({"tick": -1, "type": "drain_node", "node": "cl-n1"}, "tick"),
    ({"tick": True, "type": "drain_node", "node": "cl-n1"}, "tick"),
    ({"tick": 0, "type": "set_demand", "domain": "nowhere", "ms": "m2", "rps": 5},
     "unknown domain"),
    ({"tick": 0, "type": "set_demand", "domain": "cloud", "ms": "m2", "rps": 5},
     "no IoT attachment"),
    ({"tick": 0, "type": "set_demand", "domain": "ed3", "ms": "m5", "rps": 5},
     "not an ingress"),
    ({"tick": 0, "type": "set_demand", "domain": "ed3", "ms": "m2", "rps": -5},
     "non-negative"),
    ({"tick": 0, "type": "reboot_everything"}, "unknown event type"),
])
def test_events_validation(tmp_path, event, match):
    doc = canonical_doc()
    doc["events"] = [event]
    with pytest.raises(ScenarioParseError, match=match):
        load_scenario(write_scenario(tmp_path, doc))


def test_a_negative_tick_names_the_bound(tmp_path):
    doc = canonical_doc()
    doc["events"] = [{"tick": -1, "type": "drain_node", "node": "cl-n1"}]
    with pytest.raises(ScenarioParseError) as info:
        load_scenario(write_scenario(tmp_path, doc))
    assert str(info.value) == "events[0].tick must be an integer >= 0, got -1"


@pytest.mark.parametrize("rps", ["many", True, float("inf")])
def test_event_rates_are_read_as_demand(tmp_path, rps):
    """A set_demand event's rate goes through the demand reader, so a rate
    that is not a finite number is a parse error naming the event."""
    doc = canonical_doc()
    doc["events"] = [{"tick": 0, "type": "set_demand", "domain": "ed3", "ms": "m2", "rps": rps}]
    with pytest.raises(ScenarioParseError, match=r"^events\[0\]: expected a finite number"):
        load_scenario(write_scenario(tmp_path, doc))


def test_event_drain_unknown_node(tmp_path):
    doc = canonical_doc()
    doc["events"] = [{"tick": 0, "type": "drain_node", "node": "ghost"}]
    with pytest.raises(UnknownNode):
        load_scenario(write_scenario(tmp_path, doc))


# --- CLI: validate ---


def test_cli_unexpected_exception_is_one_line_exit_4(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom\nat two lines")

    monkeypatch.setattr(cli, "cmd_validate", broken)
    assert main(["validate", "--scenario", CANONICAL]) == 4
    assert capsys.readouterr().err.splitlines() == ["internal error: RuntimeError: boom at two lines"]


def test_cli_validate_ok(capsys):
    assert main(["validate", "--scenario", CANONICAL]) == 0
    out = capsys.readouterr()
    assert out.out.strip().endswith(": ok")


def test_cli_validate_quiet(capsys):
    assert main(["validate", "--scenario", CANONICAL, "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_cli_validate_parse_failure(tmp_path, capsys, monkeypatch):
    """Invalid YAML is one stderr line giving the problem and its position."""
    path = tmp_path / "broken.yaml"
    path.write_text("application: [unclosed", encoding="utf-8")
    for loader in LOADERS:
        monkeypatch.setattr(scenario, "YAML_LOADER", loader)
        assert main(["validate", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: {re.escape(str(path))}: invalid YAML: "
                            r"[^\n]+ \(line \d+, column \d+\)\n", err), (loader, err)


@pytest.mark.parametrize("content, reason", [
    ("topology: {when: 2001-13-45}\n", "month must be in 1..12"),
    ("a: !!int abc\n", "invalid literal for int() with base 10: 'abc'"),
    (f"a: {'7' * 5000}\n", "Exceeds the limit (4300 digits) for integer string conversion"),
], ids=["bad-date", "tagged-int", "5000-digits"])
def test_cli_validate_bad_scalar_exits_2(tmp_path, capsys, monkeypatch, content, reason):
    """A scalar its tag's constructor refuses is invalid YAML, not an internal error."""
    path = tmp_path / "scalar.yaml"
    path.write_text(content, encoding="utf-8")
    for loader in LOADERS:
        monkeypatch.setattr(scenario, "YAML_LOADER", loader)
        assert main(["validate", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: invalid YAML: {reason}") and err.count("\n") == 1, (loader, err)


def test_cli_validate_refuses_a_deep_fallback_document(tmp_path, capsys, monkeypatch):
    """A document that falls back to ``yaml.load`` with 50,000 levels of block
    sequences is a parse error under both loaders, found before ``yaml.load``
    runs: libyaml's composer overflowed the C stack on it (exit 139), and the
    pure-Python one raised RecursionError (exit 4)."""
    path = tmp_path / "deep.yaml"
    path.write_text("a: &x 1\nb:\n" + "- " * 50_000 + "*x\n", encoding="utf-8")
    for loader in LOADERS:
        monkeypatch.setattr(scenario, "YAML_LOADER", loader)
        assert main(["validate", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: invalid YAML: collections nested deeper than {scenario.FALLBACK_DEPTH} levels "
            f"(line 3, column {2 * scenario.FALLBACK_DEPTH - 1})\n"), loader


def test_cli_validate_refuses_deep_flow_nesting(tmp_path, capsys, monkeypatch):
    """50,000 levels of flow sequences took PyYAML's scanners seconds under
    libyaml and minutes under pure Python; the walk stops at the bound."""
    path = tmp_path / "deep.yaml"
    path.write_text("a: " + "[" * 50_000 + "]" * 50_000 + "\n", encoding="utf-8")
    for loader in LOADERS:
        monkeypatch.setattr(scenario, "YAML_LOADER", loader)
        assert main(["validate", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: invalid YAML: flow collections nested deeper than {scenario.FALLBACK_DEPTH} levels "
            f"(line 1, column {scenario.FALLBACK_DEPTH + 3})\n"), loader


def test_cli_validate_missing_file(tmp_path, capsys):
    assert main(["validate", "--scenario", str(tmp_path / "absent.yaml")]) == 2
    assert "absent.yaml" in capsys.readouterr().err


@pytest.mark.parametrize("content, reason", [
    (None, "No such file or directory"),
    (b"topology: \xff\xfe\n", "'utf-8' codec can't decode byte 0xff in position 10: invalid start byte"),
], ids=["missing", "not-utf8"])
def test_cli_unreadable_file_gives_the_reason(tmp_path, capsys, content, reason):
    """An OS error reads as its bare strerror, a decoding error as its message."""
    path = tmp_path / "input.yaml"
    if content is not None:
        path.write_bytes(content)
    assert main(["validate", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: cannot read: {reason}\n"


def test_cli_validate_reports_all_fragments(tmp_path, capsys):
    doc = canonical_doc()
    del doc["topology"]
    del doc["demand"]
    assert main(["validate", "--scenario", write_scenario(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "topology: ScenarioParseError" in err
    assert "demand:" not in err  # demand is only checked once the graph parses


def test_cli_validate_semantic_failure_exits_1(tmp_path, capsys):
    doc = canonical_doc()
    doc["policies"]["iot_locality"].append(
        {"microservice": "mystery", "level": "global"})
    assert main(["validate", "--scenario", write_scenario(tmp_path, doc)]) == 1
    assert "policies: UnknownMicroservice" in capsys.readouterr().err


def test_cli_validate_refuses_the_reserved_microservice_id(tmp_path, capsys):
    """``iot`` marks ingress rules and flow rows, so no microservice may take it."""
    text = re.sub(r"\bm3\b", "iot", (SCENARIOS / "uav_canonical.yaml").read_text(encoding="utf-8"))
    path = tmp_path / "scenario.yaml"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err == "application: InvalidApplication: microservice id 'iot' is reserved\n"


def test_cli_validate_refuses_a_region_listing_a_domain_twice(tmp_path, capsys):
    """A second copy of ed3 in region-2 would count ed3's nodes twice as
    room for the region's strict-region scope."""
    doc = canonical_doc()
    doc["topology"]["regions"][0]["domains"] = ["ed3", "ed4", "ed3"]
    assert main(["validate", "--scenario", write_scenario(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == "topology: DuplicateId: region 'region-2' lists domain 'ed3' twice\n"


def test_cli_validate_demand_against_topology(tmp_path, capsys):
    doc = canonical_doc()
    doc["demand"]["cloud"] = {"m2": 10}  # cloud has no IoT attachment
    assert main(["validate", "--scenario", write_scenario(tmp_path, doc)]) == 1
    assert "demand: InvalidRequest" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "place"])
def test_cli_policies_list_is_a_parse_error(tmp_path, capsys, command):
    doc = canonical_doc()
    doc["policies"] = ["not", "a", "mapping"]
    assert main([command, "--scenario", write_scenario(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "policies must be a mapping" in err
    assert "Traceback" not in err


# id -> (section path, value, exit code, error class): malformed entries that
# each loader reports with its own error class, never a raw Python exception.
MALFORMED = {
    "regions-not-mappings": (("topology", "regions"), [5], 1, "InvalidTopology"),
    "nodes-a-string": (("topology", "nodes"), "abc", 1, "InvalidTopology"),
    "microservices-not-mappings": (("application", "microservices"), [5], 1, "InvalidApplication"),
    "edges-not-mappings": (("application", "edges"), [5], 1, "InvalidApplication"),
    "restrictions-not-mappings": (("policies", "placement_restriction"), [5], 1, "PolicyError"),
    "consumer-a-list": (("policies", "ms_locality", 0, "consumer"), [1], 1, "UnknownMicroservice"),
    "drain-node-a-list": (("events",), [{"tick": 0, "type": "drain_node", "node": [1]}],
                          1, "UnknownNode"),
    "demand-domain-a-list": (("events",), [{"tick": 0, "type": "set_demand", "domain": [1],
                                            "ms": "m2", "rps": 5}], 2, "ScenarioParseError"),
    "cpu-not-a-number": (("application", "microservices", 1, "cpu_m"), "x", 1, "InvalidApplication"),
    "cpu-a-fraction": (("application", "microservices", 1, "cpu_m"), 1.5, 1, "InvalidApplication"),
    "iot-a-string": (("application", "microservices", 0, "iot"), "false", 1, "InvalidApplication"),
    "capacity-rps-infinite": (("application", "microservices", 1, "capacity_rps"), float("inf"),
                              1, "InvalidRequest"),
}


@pytest.mark.parametrize("command", ["validate", "place"])
@pytest.mark.parametrize("path, value, code, error", MALFORMED.values(), ids=MALFORMED.keys())
def test_cli_malformed_entry_is_a_one_line_error(tmp_path, capsys, command, path, value, code, error):
    doc = canonical_doc()
    set_path(doc, path, value)
    assert main([command, "--scenario", write_scenario(tmp_path, doc)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    if command == "validate":
        assert err.startswith(f"{path[0]}: {error}: ")
    elif error != "ScenarioParseError":
        assert err.startswith(f"error: {error}: ")


def test_cli_simulate_infinite_threshold_exits_2(tmp_path, capsys):
    doc = canonical_doc(SURGE)
    doc["settings"]["overload_threshold"] = float("inf")
    assert main(["simulate", "--scenario", write_scenario(tmp_path, doc), "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "error: settings.overload_threshold must be a positive finite number\n")


def test_malformed_shapes_never_escape_as_raw_exceptions():
    """Every node of the canonical scenario (events included), replaced by
    each odd shape, either parses and places or raises an EdgeplaneError."""
    base = canonical_doc()
    base["events"] = [
        {"tick": 1, "type": "set_demand", "domain": "ed3", "ms": "m2", "rps": 10},
        {"tick": 2, "type": "drain_node", "node": "cl-n3"},
    ]

    tried = 0
    for path in node_paths(base):
        for value in (5, "x", [1], [5], {"a": 1}, None, True, 1.5, -1):
            doc = copy.deepcopy(base)
            set_path(doc, path, value)
            tried += 1
            try:
                scenario = scenario_from_doc(doc)
                ControlPlane(scenario.graph, scenario.app, scenario.policies).place(scenario.request)
            except EdgeplaneError:
                pass
    assert tried > 900


def test_leaf_values_load_typed_or_fail_as_edgeplane_errors():
    """Every scalar of both bundled scenarios, replaced by each value of any
    YAML kind, either loads and places or raises an EdgeplaneError.  A
    document loads only with integer ``cpu_m``, ``mem_mi`` and ``tick``
    values and bool ``iot`` flags, so nothing is truncated or read as true,
    and never with ``.nan`` or ``.inf``."""
    tried = 0
    for base in (canonical_doc(), canonical_doc(SURGE)):
        for path, original in list(leaves(base)):
            for value in (None, True, "", "x", [], {}, 1.5, -1, float("nan"), float("inf"), 1e30):
                set_path(base, path, value)
                tried += 1
                try:
                    sc = scenario_from_doc(base)
                except EdgeplaneError:
                    continue
                finally:
                    set_path(base, path, original)
                kind = {"cpu_m": int, "mem_mi": int, "tick": int, "iot": bool}.get(path[-1])
                assert kind is None or type(value) is kind, (path, value)
                assert not (isinstance(value, float) and not math.isfinite(value)), (path, value)
                try:
                    ControlPlane(sc.graph, sc.app, sc.policies).place(sc.request)
                except EdgeplaneError:
                    pass
    assert tried == 2035


@pytest.mark.parametrize("argv", [
    ["validate", "--scenario", "{missing}"],
    ["place", "--scenario", "{missing}"],
    ["routes", "--scenario", "{missing}"],
    ["simulate", "--scenario", "{missing}"],
    ["serve-policy", "--scenario", "{missing}"],
    ["routes", "--scenario", CANONICAL, "--plan", "{missing}"],
], ids=["validate", "place", "routes", "simulate", "serve-policy", "routes-plan"])
def test_cli_missing_file_exits_2_naming_the_path(tmp_path, capsys, argv):
    missing = str(tmp_path / "nope.yaml")
    assert main([arg.format(missing=missing) for arg in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {missing}: cannot read: ")


def test_broken_sections_reported_once_each_in_order(tmp_path, capsys):
    doc = canonical_doc()
    doc["settings"]["overload_threshold"] = -1
    del doc["topology"]
    doc["application"]["microservices"] = [5]
    scenario, problems = check_scenario(doc)
    assert scenario is None
    assert [(section, type(exc).__name__) for section, exc in problems] == [
        ("settings", "ScenarioParseError"),
        ("topology", "ScenarioParseError"),
        ("application", "InvalidApplication"),
    ]
    assert main(["validate", "--scenario", write_scenario(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"{section}: {type(exc).__name__}: {exc}" for section, exc in problems]
    assert "scenario is missing the 'topology' section" in str(problems[1][1])
    with pytest.raises(ScenarioParseError, match="overload_threshold"):
        scenario_from_doc(doc)


# id -> (section path, section problems are reported under, its error, its empty value)
OPTIONAL_SECTIONS = {
    "events": (("events",), "events", ScenarioParseError, []),
    "settings": (("settings",), "settings", ScenarioParseError, {}),
    "policies": (("policies",), "policies", ScenarioParseError, {}),
    "iot_locality": (("policies", "iot_locality"), "policies", PolicyError, []),
}


@pytest.mark.parametrize("value", [0, False, "", "wrong-kind empty"])
@pytest.mark.parametrize("path, section, error, empty", OPTIONAL_SECTIONS.values(),
                         ids=OPTIONAL_SECTIONS.keys())
def test_falsy_section_of_the_wrong_kind_is_an_error(path, section, error, empty, value):
    """Only null means an optional list or mapping section is absent."""
    if value == "wrong-kind empty":
        value = {} if isinstance(empty, list) else []
    doc = canonical_doc(SURGE)
    set_path(doc, path, value)
    scenario, problems = check_scenario(doc)
    assert scenario is None
    assert [(s, type(exc)) for s, exc in problems] == [(section, error)]


@pytest.mark.parametrize("path, section, error, empty", OPTIONAL_SECTIONS.values(),
                         ids=OPTIONAL_SECTIONS.keys())
def test_null_or_empty_section_loads(path, section, error, empty):
    for value in (None, empty):
        doc = canonical_doc(SURGE)
        set_path(doc, path, value)
        scenario, problems = check_scenario(doc)
        assert problems == [] and scenario is not None, value


@pytest.mark.parametrize("command, scenario, out", [
    ("place", CANONICAL, "missing/plan.yaml"),
    ("simulate", SURGE, "missing/report.yaml"),
    ("routes", CANONICAL, "file"),
    ("routes", CANONICAL, "file/routes"),
], ids=["place-missing-dir", "simulate-missing-dir", "routes-onto-file", "routes-under-file"])
def test_cli_unwritable_output_exits_2_naming_the_path(tmp_path, capsys, command, scenario, out):
    (tmp_path / "file").write_text("", encoding="utf-8")
    out = tmp_path / out
    assert main([command, "--scenario", scenario, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {out}: cannot write: ")


# --- CLI: place ---


def test_cli_place_matches_golden(tmp_path, capsys):
    out = tmp_path / "plan.yaml"
    assert main(["place", "--scenario", CANONICAL, "--out", str(out)]) == 0
    golden = (GOLDEN / "plan_canonical.yaml").read_text(encoding="utf-8")
    assert out.read_text(encoding="utf-8") == golden
    err = capsys.readouterr().err
    assert "placed 4 microservices (18 instances), revision 1" in err


def test_cli_place_is_deterministic(tmp_path):
    a, b = tmp_path / "a.yaml", tmp_path / "b.yaml"
    assert main(["place", "--scenario", CANONICAL, "--out", str(a), "--quiet"]) == 0
    assert main(["place", "--scenario", CANONICAL, "--out", str(b), "--quiet"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_place_json(tmp_path):
    out = tmp_path / "plan.json"
    assert main(["place", "--scenario", CANONICAL, "--out", str(out),
                 "--format", "json", "--quiet"]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["application"] == "uav-pathfinding"
    assert doc["compliance"]["ok"] is True
    m2 = [p for p in doc["placements"] if p["microservice"] == "m2"]
    assert {p["anchor"] for p in m2} == {"ed3", "ed4"}


def test_cli_place_infeasible_exits_3(tmp_path, capsys):
    doc = canonical_doc()
    doc["demand"]["ed3"]["m2"] = 100000
    assert main(["place", "--scenario", write_scenario(tmp_path, doc)]) == 3
    assert "infeasible:" in capsys.readouterr().err


def test_cli_place_stdout(capsys):
    assert main(["place", "--scenario", CANONICAL, "--quiet"]) == 0
    doc = yaml.safe_load(capsys.readouterr().out)
    assert doc["revision"] == 1


# --- CLI: routes ---


def test_cli_routes_out_dir_matches_golden(tmp_path, capsys):
    out_dir = tmp_path / "routes"
    assert main(["routes", "--scenario", CANONICAL, "--out", str(out_dir)]) == 0
    for name in ("routes-ed3.yaml", "routes-ed4.yaml", "routes-cloud.yaml"):
        got = (out_dir / name).read_text(encoding="utf-8")
        assert got == (GOLDEN / name).read_text(encoding="utf-8"), name
    assert "wrote 3 route documents" in capsys.readouterr().err


def test_cli_routes_stdout_multidoc(capsys):
    assert main(["routes", "--scenario", CANONICAL, "--quiet"]) == 0
    docs = list(yaml.safe_load_all(capsys.readouterr().out))
    assert [d["domain"] for d in docs] == ["cloud", "ed3", "ed4"]
    assert docs[0]["virtual_services"] == []


def test_cli_routes_from_saved_plan(tmp_path, capsys):
    plan_path = tmp_path / "plan.yaml"
    assert main(["place", "--scenario", CANONICAL, "--out", str(plan_path),
                 "--quiet"]) == 0
    fresh_dir = tmp_path / "fresh"
    saved_dir = tmp_path / "saved"
    assert main(["routes", "--scenario", CANONICAL, "--out", str(fresh_dir),
                 "--quiet"]) == 0
    assert main(["routes", "--scenario", CANONICAL, "--plan", str(plan_path),
                 "--out", str(saved_dir), "--quiet"]) == 0
    for name in ("routes-ed3.yaml", "routes-ed4.yaml", "routes-cloud.yaml"):
        assert (saved_dir / name).read_bytes() == (fresh_dir / name).read_bytes()


def test_cli_routes_rejects_tampered_plan(tmp_path, capsys):
    plan_path = tmp_path / "plan.yaml"
    assert main(["place", "--scenario", CANONICAL, "--out", str(plan_path),
                 "--quiet"]) == 0
    doc = yaml.safe_load(plan_path.read_text(encoding="utf-8"))
    for placement in doc["placements"]:
        if placement["microservice"] == "m2" and placement["anchor"] == "ed3":
            placement["nodes"] = [{"node": "cl-n1", "instances": 2}]
    plan_path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    assert main(["routes", "--scenario", CANONICAL, "--plan", str(plan_path),
                 "--quiet"]) == 1
    assert "placement" in capsys.readouterr().err


@pytest.mark.parametrize("weight", [0, -1])
def test_non_positive_route_weight_fails_the_audit(tmp_path, capsys, weight):
    sc = load_scenario(CANONICAL)
    doc = yaml.safe_load((GOLDEN / "plan_canonical.yaml").read_text(encoding="utf-8"))
    rule = doc["routes"][0]
    assert len(rule["destinations"]) == 1  # the rule's only destination
    rule["destinations"][0]["weight"] = weight
    report = validate_plan(sc.graph, sc.app, sc.policies, plan_from_doc(doc))
    assert [(v.kind, v.subject, v.detail) for v in report.violations] == [
        ("route", "ed3/iot->m2", f"weight of ed3-n1 is {weight}, not positive")]
    plan_path = tmp_path / "plan.yaml"
    plan_path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    assert main(["routes", "--scenario", CANONICAL, "--plan", str(plan_path), "--quiet"]) == 1
    assert capsys.readouterr().err == f"route: ed3/iot->m2: weight of ed3-n1 is {weight}, not positive\n"


def test_a_rule_at_another_level_than_its_policy_fails_the_audit(tmp_path, capsys):
    """``iot_locality`` pins m2 to strict-domain, so the golden plan's ingress
    rule read back at global fails ``validate_plan``, and ``routes --plan``
    exits 1 without writing route documents."""
    sc = load_scenario(CANONICAL)
    doc = yaml.safe_load((GOLDEN / "plan_canonical.yaml").read_text(encoding="utf-8"))
    rule = doc["routes"][0]
    assert (rule["domain"], rule["consumer"], rule["target"], rule["level"]) == ("ed3", "iot", "m2", "strict-domain")
    rule["level"] = "global"
    violation = ("locality", "ed3/iot->m2", "rule level global is not the policy's strict-domain")
    report = validate_plan(sc.graph, sc.app, sc.policies, plan_from_doc(doc))
    assert [(v.kind, v.subject, v.detail) for v in report.violations] == [violation]
    plan_path = tmp_path / "plan.yaml"
    plan_path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    out = tmp_path / "routes"
    assert main(["routes", "--scenario", CANONICAL, "--plan", str(plan_path), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == "{}: {}: {}\n".format(*violation)
    assert not out.exists()


@pytest.mark.parametrize("key, detail", [
    (("ed3", "m3", "m4"), "no rule routes m3's traffic from ed3"),
    (("ed4", "iot", "m2"), "no rule routes its positive demand"),
])
def test_a_plan_missing_a_rule_that_traffic_needs_fails_the_audit(tmp_path, capsys, key, detail):
    """A rule is needed for each positive demand at its domain and for each
    domain where a consumer holds instances along an edge that forwards
    traffic; the golden plan without one fails ``validate_plan`` and
    ``routes --plan``."""
    sc = load_scenario(CANONICAL)
    doc = yaml.safe_load((GOLDEN / "plan_canonical.yaml").read_text(encoding="utf-8"))
    doc["routes"] = [r for r in doc["routes"] if (r["domain"], r["consumer"], r["target"]) != key]
    violation = ("route", "{}/{}->{}".format(*key), detail)
    report = validate_plan(sc.graph, sc.app, sc.policies, plan_from_doc(doc))
    assert [(v.kind, v.subject, v.detail) for v in report.violations] == [violation]
    plan_path = tmp_path / "plan.yaml"
    plan_path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    assert main(["routes", "--scenario", CANONICAL, "--plan", str(plan_path), "--quiet"]) == 1
    assert capsys.readouterr().err == "{}: {}: {}\n".format(*violation)


def test_an_ingress_without_demand_needs_no_rule():
    """Zero demand at a domain asks for no ingress rule there; the instances
    placed for it still need their consumers' rules."""
    sc = load_scenario(CANONICAL)
    doc = yaml.safe_load((GOLDEN / "plan_canonical.yaml").read_text(encoding="utf-8"))
    doc["demand"]["ed3"]["m2"] = 0
    doc["routes"] = [r for r in doc["routes"] if (r["domain"], r["consumer"]) != ("ed3", "iot")]
    assert validate_plan(sc.graph, sc.app, sc.policies, plan_from_doc(doc)).ok


def test_cli_routes_rejects_malformed_plan(tmp_path, capsys):
    plan_path = tmp_path / "plan.yaml"
    plan_path.write_text("placements: 7\n", encoding="utf-8")
    assert main(["routes", "--scenario", CANONICAL, "--plan", str(plan_path),
                 "--quiet"]) == 2
    assert "malformed plan document" in capsys.readouterr().err


def test_cli_routes_refuses_a_plan_placing_one_anchor_twice(tmp_path, capsys):
    """A second m4 entry at the global anchor is refused, not read over the first."""
    doc = yaml.safe_load((GOLDEN / "plan_canonical.yaml").read_text(encoding="utf-8"))
    at = next(k for k, entry in enumerate(doc["placements"]) if entry["microservice"] == "m4")
    doc["placements"].insert(at + 1, {**doc["placements"][at], "nodes": [{"node": "ed4-n2", "instances": 1}]})
    plan_path = tmp_path / "plan.yaml"
    plan_path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    assert main(["routes", "--scenario", CANONICAL, "--plan", str(plan_path), "--quiet"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: malformed plan document: placement of 'm4' at 'global' listed twice"]


def test_cli_routes_refuses_a_plan_repeating_a_route(tmp_path, capsys):
    """A second copy of the ed3 ingress rule is refused, not kept over the first."""
    doc = yaml.safe_load((GOLDEN / "plan_canonical.yaml").read_text(encoding="utf-8"))
    doc["routes"].append(copy.deepcopy(doc["routes"][0]))
    with pytest.raises(ScenarioParseError, match="^malformed plan document: route ed3/iot->m2 listed twice$"):
        plan_from_doc(doc)
    plan_path = tmp_path / "plan.yaml"
    plan_path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    assert main(["routes", "--scenario", CANONICAL, "--plan", str(plan_path), "--quiet"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: malformed plan document: route ed3/iot->m2 listed twice"]


def test_cli_routes_refuses_a_plan_document_that_is_not_a_mapping(tmp_path, capsys):
    plan_path = tmp_path / "plan.yaml"
    plan_path.write_text("- placements\n- routes\n", encoding="utf-8")
    assert main(["routes", "--scenario", CANONICAL, "--plan", str(plan_path), "--quiet"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: plan document must be a mapping"]


def test_malformed_plan_shapes_never_escape_as_raw_exceptions(tmp_path, capsys):
    """Every node of the golden plan (compliance aside), replaced by each odd
    shape, either rebuilds and audits or raises an EdgeplaneError, and
    ``plan_from_doc`` hands ``validate_plan`` string ids only.  Counts are
    never truncated: a non-integer ``revision``, ``weight`` or ``instances``
    (a bool included) and a non-positive ``instances`` fail to parse, and a
    non-positive ``weight`` fails the audit."""
    sc = load_scenario(CANONICAL)
    base = yaml.safe_load((GOLDEN / "plan_canonical.yaml").read_text(encoding="utf-8"))
    del base["compliance"]
    tried = 0
    for path in node_paths(base):
        for value in (5, "x", [1], {"a": 1}, None, True, 1.5, 2.9, 0, -1):
            doc = copy.deepcopy(base)
            set_path(doc, path, value)
            tried += 1
            try:
                plan = plan_from_doc(doc)
            except ScenarioParseError:
                continue
            if path[-1] in ("revision", "weight", "instances"):
                assert type(value) is int and (path[-1] != "instances" or value > 0), (path, value)
            ids = [(ms, anchor, node) for ms, anchors in plan.mapping.per_ms.items()
                   for anchor, ap in anchors.items() for node, _ in ap.slots]
            ids += [(r.domain_id, r.consumer, r.target_ms) + tuple(n for n, _ in r.destinations)
                    for r in plan.routes.rules]
            assert all(isinstance(i, str) for group in ids for i in group), (path, value)
            try:
                report = validate_plan(sc.graph, sc.app, sc.policies, plan)
            except EdgeplaneError:
                continue
            if path[-1] == "weight" and value < 1:
                assert any("not positive" in v.detail for v in report.violations), (path, value)
    assert tried == 480

    doc = copy.deepcopy(base)
    doc["demand"]["ed3"] = [1]
    plan_path = tmp_path / "plan.yaml"
    plan_path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    assert main(["routes", "--scenario", CANONICAL, "--plan", str(plan_path), "--quiet"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: malformed plan document: demand must be a mapping of mappings"]

    for value in ("ed3-n1", [1], {}):
        doc = copy.deepcopy(base)
        doc["drained"] = value
        plan_path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
        assert main(["routes", "--scenario", CANONICAL, "--plan", str(plan_path), "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: malformed plan document: drained must be a list of node ids"], value


def test_cli_routes_audits_the_plans_drained_nodes(tmp_path, capsys):
    """``routes --plan`` audits a plan against the drains its document
    carries: a plan that drains a node it still places on fails."""
    doc = yaml.safe_load((GOLDEN / "plan_canonical.yaml").read_text(encoding="utf-8"))
    doc["drained"] = ["ed3-n1"]
    plan_path = tmp_path / "plan.yaml"
    plan_path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    assert main(["routes", "--scenario", CANONICAL, "--plan", str(plan_path), "--quiet"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err and all(line.endswith("node ed3-n1 is drained") for line in err)


def test_cli_routes_rejects_a_plan_draining_an_unknown_node(tmp_path, capsys):
    """``routes --plan`` fails on a plan document whose drained set names a
    node the scenario lacks, as a replan of that plan does."""
    doc = yaml.safe_load((GOLDEN / "plan_canonical.yaml").read_text(encoding="utf-8"))
    doc["drained"] = ["ghost", "ed3-n1"]
    plan_path = tmp_path / "plan.yaml"
    plan_path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    assert main(["routes", "--scenario", CANONICAL, "--plan", str(plan_path), "--quiet"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "capacity: ghost: drained node ghost is unknown"
    assert err[1:] and all(line.endswith("node ed3-n1 is drained") for line in err[1:])


# --- CLI: simulate ---


def test_cli_simulate_canonical(tmp_path, capsys):
    out = tmp_path / "report.yaml"
    assert main(["simulate", "--scenario", CANONICAL, "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "simulated 1 tick(s), 0 alert(s), 0 violation(s), final revision 1" in err
    doc = yaml.safe_load(out.read_text(encoding="utf-8"))
    assert doc["ticks"] == 1
    assert doc["final_revision"] == 1
    assert len(doc["flows"]) == 13
    assert doc["violations"] == []
    assert all(t["satisfied"] for t in doc["throughput"])


def test_cli_simulate_surge(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["simulate", "--scenario", SURGE, "--out", str(out),
                 "--format", "json", "--quiet"]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["ticks"] == 6
    assert doc["final_revision"] == 2
    assert [a["kind"] for a in doc["alerts"]] == ["demand_change"]
    assert doc["alerts"][0]["tick"] == 5
    assert doc["halted"] is None


@pytest.mark.parametrize("scenario_path, golden", [(CANONICAL, "report_canonical.yaml"),
                                                   (SURGE, "report_surge.yaml")])
def test_cli_simulate_matches_golden(scenario_path, golden, capsys):
    """The report keeps its bytes in YAML, and its JSON form is the same document."""
    expected = (GOLDEN / golden).read_text(encoding="utf-8")
    assert main(["simulate", "--scenario", scenario_path, "--quiet"]) == 0
    assert capsys.readouterr().out == expected
    assert main(["simulate", "--scenario", scenario_path, "--quiet", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == yaml.safe_load(expected)


def test_cli_simulate_halt_exits_3(tmp_path, capsys):
    doc = canonical_doc()
    # draining the only m4 host mid-run cannot be recovered: every other
    # node is already packed at rated load
    doc["events"] = [{"tick": 1, "type": "drain_node", "node": "ed4-n2"}]
    assert main(["simulate", "--scenario", write_scenario(tmp_path, doc),
                 "--quiet"]) == 3
    assert "halted at tick 1" in capsys.readouterr().err


def test_cli_env_log_level(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EDGEPLANE_LOG", "debug")
    assert main(["validate", "--scenario", CANONICAL, "--quiet"]) == 0
    monkeypatch.setenv("EDGEPLANE_LOG", "not-a-level")
    assert main(["validate", "--scenario", CANONICAL, "--quiet"]) == 0


def test_cli_env_log_names_a_level_and_nothing_else(monkeypatch):
    """EDGEPLANE_LOG is read as a logging level's name; any other name, even
    that of another attribute of the logging module, means INFO."""
    level = logging.root.level
    monkeypatch.setattr(logging.root, "handlers", [])  # so that main configures logging
    try:
        for name, want in [("basic_format", logging.INFO), ("warn", logging.WARNING), ("debug", logging.DEBUG)]:
            logging.root.handlers.clear()
            monkeypatch.setenv("EDGEPLANE_LOG", name)
            assert main(["validate", "--scenario", CANONICAL, "--quiet"]) == 0
            assert logging.root.level == want
    finally:
        logging.root.setLevel(level)


def test_cli_serve_policy_bad_bind(capsys):
    assert main(["serve-policy", "--scenario", CANONICAL, "--bind",
                 "no-port-here", "--quiet"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_serve_policy_port_out_of_range(capsys):
    assert main(["serve-policy", "--scenario", CANONICAL, "--bind", "127.0.0.1:99999"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: bind must look like host:port with a port of 0-65535, got '127.0.0.1:99999'"]


def test_cli_serve_policy_port_in_use(capsys):
    """A port another socket holds is one ``error:`` line and exit 2, and
    nothing claims the server is up."""
    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))
        held.listen()
        bind = f"127.0.0.1:{held.getsockname()[1]}"
        assert main(["serve-policy", "--scenario", CANONICAL, "--bind", bind]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot bind {bind}: "), err


def test_cli_serve_policy_announces_once_bound(capsys, monkeypatch):
    def interrupted(server):
        raise KeyboardInterrupt

    monkeypatch.setattr(ThreadingHTTPServer, "serve_forever", interrupted)
    assert main(["serve-policy", "--scenario", CANONICAL, "--bind", "127.0.0.1:0"]) == 0
    assert capsys.readouterr().err == "serving policy API on 127.0.0.1:0\n"

"""Documents: the block emitter against PyYAML, and plan document ids.

``documents.dump_doc``/``dump_docs`` write most documents themselves and
leave the rest to ``yaml.dump``/``yaml.dump_all`` with
``scenario.YAML_DUMPER``.  Every check here compares both functions with
PyYAML under the pure-Python dumper and, where PyYAML has it, libyaml's:
the same bytes, or the same exception type.
"""

import enum
import random
from dataclasses import replace
from fractions import Fraction

import pytest
import yaml

from edgeplane import scenario
from edgeplane.cli import main
from edgeplane.controlplane import ControlPlane, RoutingRuleSet, validate_plan
from edgeplane.documents import (
    dump_doc,
    dump_docs,
    plan_from_doc,
    plan_to_doc,
    report_to_doc,
    routes_docs,
)
from edgeplane.errors import EdgeplaneError, ScenarioParseError
from edgeplane.meshsim import check_compliance, run_scenario
from edgeplane.scenario import load_scenario, read_yaml, scenario_from_doc

from .support import GOLDEN, SCENARIOS, gen_case, gen_chain_app, gen_dag_app
from .test_yaml_backends import YAML_FILES, needs_libyaml

DUMPERS = [
    pytest.param("SafeDumper", id="SafeDumper"),
    pytest.param("CSafeDumper", id="CSafeDumper", marks=needs_libyaml),
]


@pytest.fixture(params=DUMPERS)
def dumper(request, monkeypatch):
    """The reference dumper, installed as ``scenario.YAML_DUMPER`` through a
    subclass that counts the documents ``documents`` leaves to it."""
    reference = getattr(yaml, request.param)

    class Counting(reference):
        used = 0

        def __init__(self, *args, **kwargs):
            Counting.used += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(scenario, "YAML_DUMPER", Counting)
    return Counting


def outcome(dump, *args, **kwargs):
    """What ``dump`` returns, or the type of what it raises."""
    try:
        return dump(*args, **kwargs)
    except Exception as exc:  # the comparison is the point: any type must match
        return type(exc)


def reference_dump(doc, dumper):
    return outcome(yaml.dump, doc, Dumper=dumper.__base__, sort_keys=False,
                   default_flow_style=False)


def reference_dump_all(docs, dumper):
    return outcome(yaml.dump_all, docs, Dumper=dumper.__base__, sort_keys=False,
                   default_flow_style=False)


def same(got, want, doc) -> None:
    """Fail with the start of each side, not a diff of whole documents,
    which can take pytest minutes on the larger bundled files."""
    if got != want:
        pytest.fail(f"got {got!r:.400}\nwant {want!r:.400}\nfor {doc!r:.400}")


def emitted(doc, dumper) -> bool:
    """Dump ``doc`` as PyYAML does; whether the emitter wrote it itself."""
    before = dumper.used
    same(outcome(dump_doc, doc), reference_dump(doc, dumper), doc)
    return dumper.used == before


@pytest.mark.parametrize("path", YAML_FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_bundled_files_dump_as_pyyaml_does(dumper, path):
    emitted(read_yaml(path), dumper)


def generated_runs(count: int):
    """Placed plans, their route documents and simulate reports from seeded
    ``gen_case`` scenarios, chain and DAG, with a demand change, a drain and
    a low overload threshold so reports carry alerts and payloads."""
    rng = random.Random(19)
    made = 0
    for seed in range(count * 4):
        topo_doc, app_doc, policy_doc, demand_doc = gen_case(
            rng, gen_app=gen_dag_app if seed % 2 else gen_chain_app)
        domain = next(iter(demand_doc))
        ingress = next(iter(demand_doc[domain]))
        doc = {
            "topology": topo_doc, "application": app_doc, "policies": policy_doc,
            "demand": demand_doc, "settings": {"overload_threshold": 0.3},
            "events": [
                {"tick": 1, "type": "set_demand", "domain": domain, "ms": ingress, "rps": 40},
                {"tick": 3, "type": "drain_node", "node": topo_doc["nodes"][-1]["id"]},
            ],
        }
        try:
            sc = scenario_from_doc(doc)
            plan = ControlPlane(sc.graph, sc.app, sc.policies).place(sc.request)
            compliance = validate_plan(sc.graph, sc.app, sc.policies, plan)
            _, report = run_scenario(sc.graph, sc.app, sc.policies, sc.request, sc.events,
                                     overload_threshold=sc.settings.overload_threshold)
        except EdgeplaneError:
            continue
        yield plan_to_doc(plan, compliance), routes_docs(sc.graph, plan), report_to_doc(report)
        made += 1
        if made == count:
            return
    raise AssertionError(f"only {made} of {count} generated cases placed")


def test_generated_plans_routes_and_reports_dump_as_pyyaml_does(dumper):
    alerts = 0
    for plan_doc, route_docs, report_doc in generated_runs(12):
        assert emitted(plan_doc, dumper)
        assert all(emitted(doc, dumper) for doc in route_docs)
        before = dumper.used
        same(dump_docs(route_docs), reference_dump_all(route_docs, dumper), route_docs)
        assert dumper.used == before
        emitted(report_doc, dumper)
        alerts += len(report_doc["alerts"])
    assert alerts


def test_report_with_violations_dumps_as_pyyaml_does(dumper, canonical):
    """Violation rows carry details with spaces, so the dumper writes the report."""
    _, report = run_scenario(canonical.graph, canonical.app, canonical.policies,
                             canonical.request, canonical.events)
    report.flows.rows[("ed3", "iot", "ed4-n1", "m2")] = Fraction(5)  # leaks strict-domain m2
    report.violations = [(1, v) for v in check_compliance(canonical.graph, canonical.policies,
                                                         report.flows)]
    doc = report_to_doc(report)
    assert doc["violations"] and all(" " in row["detail"] for row in doc["violations"])
    assert not emitted(doc, dumper)


class Colour(enum.IntEnum):
    RED = 1


class Tag(str):
    pass


#: Strings PyYAML writes bare, and strings it must quote, tag or break.
PLAIN = ["ed3-n1", "m2", "cl-n1", "iot", "a_b", "x.y", "a/b", "x:y", "a#b", "a-", "s" * 100,
         "1a", "-x", "a,b", "a?b", "0.5.1", "2001-01", "v1"]
ODD = ["yes", "No", "on", "OFF", "~", "null", "NULL", "true", "False", "1e3", "0x1f", "0o17",
       "+1", "1_000", "1:20", ".5", "1.", "2001-01-01", "2001-12-14t21:59:43.10-05:00",
       "=", "<<", "-", ".inf", "-.inf", ".NaN", "", "a: b", "a #b", " lead", "trail ", "a b",
       "'q'", '"q"', "it's", "a\nb", "a\tb", "h\xe9llo", "\u65e5\u672c", "\ufeffx", "a\x85b",
       "a\xa0b", "a\u2028b", "x\x00", ":x", "x:", "?x", "#x", "&a", "*a", "!t", "%x", "@x", "`x",
       "---x", "...x", "[x", "x]", "{x", "|x", ">x", "s" * 101, "k" * 130,
       " ".join(["word"] * 30), "-" + "w" * 90 + " tail"]
NUMBERS = [0, 7, -1, 2 ** 70, 1.5, -0.0, 0.1, 1e17, 1e-7, 123456789.123, 2.5e-300, True, False, None]
WEIRD = [float("nan"), float("inf"), float("-inf"), Fraction(1, 3), Colour.RED, Tag("x"), (), ("t", 1)]
WEIRD_KEYS = [1, None, True, 2.5, "k" * 130, "a b", "", "yes", Tag("k")]


@pytest.mark.parametrize("text", PLAIN)
def test_strings_pyyaml_writes_bare_are_the_emitters(dumper, text):
    """Every string PyYAML writes bare, the longest allowed (100 characters)
    among them, is the emitter's own to write, as a key and as a value."""
    assert emitted({text: [text]}, dumper)


def fuzz_doc(rng: random.Random, odd: float, share: float, shared: list, depth: int = 0):
    """A random document: ``odd`` is the share of atoms drawn from the
    adversarial pools, ``share`` that of values taken from ``shared``."""
    if depth and rng.random() < 0.5:
        if rng.random() < odd:
            return rng.choice(ODD + WEIRD)
        return rng.choice(PLAIN + NUMBERS)
    if depth and rng.random() < share:
        return rng.choice(shared)
    size = rng.randint(0, 0 if depth > 3 else 4)
    if rng.random() < 0.5:
        doc = {}
        for _ in range(size):
            key = rng.choice(ODD + WEIRD_KEYS) if rng.random() < odd else rng.choice(PLAIN)
            doc[key] = fuzz_doc(rng, odd, share, shared, depth + 1)
        return doc
    items = [fuzz_doc(rng, odd, share, shared, depth + 1) for _ in range(size)]
    return tuple(items) if rng.random() < 0.2 else items


def test_fuzzed_documents_dump_as_pyyaml_does(dumper):
    rng = random.Random(1919)
    paths = {True: 0, False: 0}
    groups = 0
    for case in range(1000):
        odd, share = ((0.0, 0.0), (0.02, 0.0), (0.3, 0.05), (0.0, 0.1))[case % 4]
        shared = [[1, 2], {"a": 1}, []]
        docs = [fuzz_doc(rng, odd, share, shared) for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.05:
            docs.append(rng.choice(PLAIN + ODD + NUMBERS + WEIRD))
        for doc in docs:
            paths[emitted(doc, dumper)] += 1
        before = dumper.used
        same(outcome(dump_docs, docs), reference_dump_all(docs, dumper), docs)
        groups += dumper.used == before
    assert paths[True] > 500 and paths[False] > 250, paths
    assert groups > 500


@pytest.mark.parametrize("doc", [
    {"a": Tag("x")}, [Tag("x")], {Tag("k"): 1}, [{"a": 1, Tag("k"): [2]}], {"a": Colour.RED}])
def test_subclasses_of_plain_types_go_to_pyyaml(dumper, doc):
    """An otherwise plain document holding a ``str`` or ``int`` subclass, as a
    key or a value, is the dumper's to write (or refuse)."""
    assert not emitted(doc, dumper)


def test_cli_routes_stdout_is_pyyaml_dump_all(capsys):
    sc = load_scenario(SCENARIOS / "uav_canonical.yaml")
    plan = ControlPlane(sc.graph, sc.app, sc.policies).place(sc.request)
    assert main(["routes", "--scenario", str(SCENARIOS / "uav_canonical.yaml"), "--quiet"]) == 0
    assert capsys.readouterr().out == yaml.dump_all(
        routes_docs(sc.graph, plan), Dumper=yaml.SafeDumper, sort_keys=False,
        default_flow_style=False)


def golden_plan() -> dict:
    doc = yaml.safe_load((GOLDEN / "plan_canonical.yaml").read_text(encoding="utf-8"))
    del doc["compliance"]
    return doc


@pytest.mark.parametrize("key", [12, None, ""])
@pytest.mark.parametrize("section", ["domain", "microservice"])
def test_plan_demand_keys_are_ids(section, key):
    doc = golden_plan()
    if section == "domain":
        doc["demand"][key] = doc["demand"].pop("ed3")
    else:
        doc["demand"]["ed3"][key] = doc["demand"]["ed3"].pop("m2")
    with pytest.raises(ScenarioParseError,
                       match=f"malformed plan document: demand {section} must be a non-empty string"):
        plan_from_doc(doc)


def test_plan_drained_entries_are_ids():
    doc = golden_plan()
    doc["drained"] = [""]
    with pytest.raises(ScenarioParseError,
                       match="malformed plan document: drained node must be a non-empty string"):
        plan_from_doc(doc)
    doc["drained"] = ["ed3-n1"]
    assert plan_from_doc(doc).drained == frozenset({"ed3-n1"})


def test_a_plan_read_back_holds_its_routes_in_rule_set_order():
    """The golden plan with its routes listed in reverse reads back to the
    file's own rule set, route documents and plan bytes."""
    sc = load_scenario(SCENARIOS / "uav_canonical.yaml")
    text = (GOLDEN / "plan_canonical.yaml").read_text(encoding="utf-8")
    doc = yaml.safe_load(text)
    plan = plan_from_doc(doc)
    doc["routes"].reverse()
    reversed_plan = plan_from_doc(doc)
    assert reversed_plan.routes == plan.routes
    assert routes_docs(sc.graph, reversed_plan) == routes_docs(sc.graph, plan)
    compliance = validate_plan(sc.graph, sc.app, sc.policies, reversed_plan)
    assert dump_doc(plan_to_doc(reversed_plan, compliance)) == text


def test_violations_of_routes_listed_in_reverse_come_in_rule_set_order():
    """Two rules broken in the reversed golden plan, the file's first and its
    last but one, are reported in the order the file lists them."""
    sc = load_scenario(SCENARIOS / "uav_canonical.yaml")
    doc = golden_plan()
    doc["routes"].reverse()
    for rule in (doc["routes"][1], doc["routes"][-1]):
        rule["destinations"][0]["weight"] = 0
    report = validate_plan(sc.graph, sc.app, sc.policies, plan_from_doc(doc))
    assert [(v.kind, v.subject, v.detail) for v in report.violations] == [
        ("route", "ed3/iot->m2", "weight of ed3-n1 is 0, not positive"),
        ("route", "ed4/m3->m4", "weight of ed4-n2 is 0, not positive"),
    ]


def test_shuffled_rules_export_the_same_route_documents():
    """Seeded gen_case plans, chain and DAG, export the same route documents
    and plan document whether their rules are given to a rule set shuffled
    or read from a plan document that lists them shuffled."""
    rng = random.Random(38)
    checked = {gen_chain_app: 0, gen_dag_app: 0}
    for seed in range(80):
        gen_app = gen_dag_app if seed % 2 else gen_chain_app
        topo_doc, app_doc, policy_doc, demand_doc = gen_case(random.Random(seed), gen_app=gen_app)
        try:
            sc = scenario_from_doc({"topology": topo_doc, "application": app_doc,
                                    "policies": policy_doc, "demand": demand_doc})
            plan = ControlPlane(sc.graph, sc.app, sc.policies).place(sc.request)
        except EdgeplaneError:
            continue
        want, doc = routes_docs(sc.graph, plan), plan_to_doc(plan)
        rules = list(plan.routes.rules)
        rng.shuffle(rules)
        shuffled = replace(plan, routes=RoutingRuleSet(tuple(rules)))
        assert routes_docs(sc.graph, shuffled) == want, seed
        listed = dict(doc, routes=rng.sample(doc["routes"], len(doc["routes"])))
        restored = plan_from_doc(listed)
        assert routes_docs(sc.graph, restored) == want, seed
        assert plan_to_doc(restored) == doc, seed
        checked[gen_app] += len(rules) > 1
    assert min(checked.values()) >= 20, checked

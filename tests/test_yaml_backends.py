"""Documents read and written through libyaml and through pure-Python PyYAML.

``scenario.YAML_LOADER``/``YAML_DUMPER`` is the package's one YAML choice:
libyaml's C classes when PyYAML has them.  The ``pure_python`` fixture forces
the pure-Python classes, so the golden comparisons run on both loaders, and
the checks below compare the two paths directly where libyaml is present.
``tests/test_documents.py`` compares ``documents``' own emitter with both
dumpers.
"""

import pytest
import yaml

from edgeplane import scenario
from edgeplane.cli import main
from edgeplane.controlplane import ControlPlane, validate_plan
from edgeplane.documents import dump_doc, plan_from_doc, plan_to_doc, report_to_doc
from edgeplane.meshsim import run_scenario
from edgeplane.scenario import load_scenario, read_yaml, scenario_from_doc

from .support import GOLDEN, ROOT, SCENARIOS

YAML_FILES = sorted(
    path for folder in (SCENARIOS, ROOT / "perfbench" / "cases", GOLDEN)
    for path in folder.glob("*.yaml")
)

needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")


class CountingLoader(yaml.SafeLoader):
    used = 0

    def __init__(self, stream):
        CountingLoader.used += 1
        super().__init__(stream)


def counting_dumper(base):
    """A subclass of the dumper ``base`` that counts its constructions in ``used``."""
    class Counting(base):
        used = 0

        def __init__(self, stream, **kwargs):
            Counting.used += 1
            super().__init__(stream, **kwargs)

    return Counting


CountingDumper = counting_dumper(yaml.SafeDumper)


@pytest.fixture
def pure_python(monkeypatch):
    """Force the pure-Python loader and dumper, and check the loader was used.
    Plan and route documents take ``documents``' own emitter, so the tests
    that need the dumper check it themselves."""
    CountingLoader.used = CountingDumper.used = 0
    monkeypatch.setattr(scenario, "YAML_LOADER", CountingLoader)
    monkeypatch.setattr(scenario, "YAML_DUMPER", CountingDumper)
    yield
    assert CountingLoader.used


def halted_report_yaml() -> str:
    """The report of the canonical scenario with its only m4 host drained at
    tick 1, which halts the run: the halt reason holds spaces, so the report
    is one the emitter leaves to ``scenario.YAML_DUMPER``."""
    doc = read_yaml(SCENARIOS / "uav_canonical.yaml")
    doc["events"] = [{"tick": 1, "type": "drain_node", "node": "ed4-n2"}]
    sc = scenario_from_doc(doc)
    control = ControlPlane(sc.graph, sc.app, sc.policies)
    _, report = run_scenario(sc.graph, sc.app, sc.policies, sc.request, sc.events, control,
                             overload_threshold=sc.settings.overload_threshold)
    assert " " in report.halted["reason"]
    return dump_doc(report_to_doc(report))


def test_choice_follows_libyaml():
    expected = (yaml.CSafeLoader, yaml.CSafeDumper) if yaml.__with_libyaml__ else (
        yaml.SafeLoader, yaml.SafeDumper)
    assert (scenario.YAML_LOADER, scenario.YAML_DUMPER) == expected


def test_pure_python_place_matches_golden(pure_python, tmp_path):
    out = tmp_path / "plan.yaml"
    assert main(["place", "--scenario", str(SCENARIOS / "uav_canonical.yaml"),
                 "--out", str(out), "--quiet"]) == 0
    assert out.read_bytes() == (GOLDEN / "plan_canonical.yaml").read_bytes()


def test_pure_python_routes_out_dir_matches_golden(pure_python, tmp_path):
    out_dir = tmp_path / "routes"
    assert main(["routes", "--scenario", str(SCENARIOS / "uav_canonical.yaml"),
                 "--out", str(out_dir), "--quiet"]) == 0
    for name in ("routes-ed3.yaml", "routes-ed4.yaml", "routes-cloud.yaml"):
        assert (out_dir / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_pure_python_dumps_what_the_emitter_leaves_to_pyyaml(pure_python):
    """A plan whose compliance section has a violation detail with spaces
    is no document the emitter writes: the dumper writes it."""
    sc = load_scenario(SCENARIOS / "uav_canonical.yaml")
    doc = read_yaml(GOLDEN / "plan_canonical.yaml")
    doc["routes"][0]["destinations"][0]["weight"] = 0
    plan = plan_from_doc(doc)
    report = validate_plan(sc.graph, sc.app, sc.policies, plan)
    assert report.violations[0].detail == "weight of ed3-n1 is 0, not positive"
    text = dump_doc(plan_to_doc(plan, report))
    assert CountingDumper.used == 1
    assert text == yaml.dump(plan_to_doc(plan, report), Dumper=yaml.SafeDumper,
                             sort_keys=False, default_flow_style=False)


@needs_libyaml
def test_report_bytes_identical_under_both_dumpers(monkeypatch):
    fast_dumper, pure_dumper = counting_dumper(yaml.CSafeDumper), counting_dumper(yaml.SafeDumper)
    monkeypatch.setattr(scenario, "YAML_DUMPER", fast_dumper)
    fast = halted_report_yaml()
    monkeypatch.setattr(scenario, "YAML_LOADER", yaml.SafeLoader)
    monkeypatch.setattr(scenario, "YAML_DUMPER", pure_dumper)
    assert halted_report_yaml() == fast
    assert (fast_dumper.used, pure_dumper.used) == (1, 1)


@needs_libyaml
@pytest.mark.parametrize("path", YAML_FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_inputs_load_equal_under_both_loaders(monkeypatch, path):
    fast = read_yaml(path)
    monkeypatch.setattr(scenario, "YAML_LOADER", yaml.SafeLoader)
    assert read_yaml(path) == fast


def test_every_bundled_yaml_file_is_compared():
    assert len(YAML_FILES) == 15

"""Documents read and written through libyaml and through pure-Python PyYAML.

``scenario.YAML_LOADER``/``YAML_DUMPER`` is the package's one YAML choice:
libyaml's C classes when PyYAML has them.  The ``pure_python`` fixture forces
the pure-Python classes, so the golden comparisons run on both loaders, and
the checks below compare the two paths directly where libyaml is present.
``tests/test_documents.py`` compares ``documents``' own emitter with both
dumpers.  ``read_yaml`` builds plain documents from the loader's events and
leaves every other to ``yaml.load``: the differential tests below hold it to
``yaml.load``'s result under each loader, and pin which path each input takes.
"""

import gc
import importlib.util
import random

import pytest
import yaml

from edgeplane import scenario
from edgeplane.cli import main
from edgeplane.controlplane import ControlPlane, validate_plan
from edgeplane.documents import dump_doc, plan_from_doc, plan_to_doc, report_to_doc
from edgeplane.errors import ScenarioParseError
from edgeplane.meshsim import run_scenario
from edgeplane.scenario import FALLBACK_DEPTH, load_scenario, read_yaml, scenario_from_doc

from .support import GOLDEN, ROOT, SCENARIOS, gen_case

YAML_FILES = sorted(
    path for folder in (SCENARIOS, ROOT / "perfbench" / "cases", GOLDEN)
    for path in folder.glob("*.yaml")
)

needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")

#: The pure-Python loader, and libyaml's where PyYAML has it.
LOADERS = (yaml.SafeLoader, *([yaml.CSafeLoader] if yaml.__with_libyaml__ else []))


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


def differential(monkeypatch, tmp_path, text: str, loader) -> str:
    """Read ``text`` with ``read_yaml`` under ``loader`` and hold it to ``yaml.load``'s
    result: the same value, down to types and key order (compared by ``repr``,
    under which NaN equals NaN), or a ScenarioParseError caused by the same
    exception type.  Returns the path taken: "walk" when the document was built
    from the events, "fallback" when it went to ``yaml.load``, "parse error"
    when the events themselves failed."""
    path = tmp_path / "doc.yaml"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(scenario, "YAML_LOADER", loader)
    taken = []
    walk = scenario._from_events

    def spy(events):
        try:
            doc = walk(events)
        except yaml.YAMLError:
            taken.append("parse error")
            raise
        except Exception:
            taken.append("fallback")
            raise
        taken.append("walk")
        return doc

    monkeypatch.setattr(scenario, "_from_events", spy)
    try:
        expected = yaml.load(text, Loader=loader)
    except (yaml.YAMLError, ValueError) as exc:
        with pytest.raises(ScenarioParseError) as info:
            read_yaml(path)
        assert type(info.value.__cause__) is type(exc)
    else:
        assert repr(read_yaml(path)) == repr(expected)
    assert len(taken) == 1
    return taken[0]


#: (input, the path ``read_yaml`` takes for it), each read under every loader.
STREAMS = [
    ("a: [1, {b: c}]\nd: []\ne: {}\nf:\n", "walk"),
    ("'<<': {x: 1}\ny: 2\n", "walk"),
    ("a: 1\nb: 2\na: 3\n", "walk"),
    ("a: {x: 1}\nb: 2\na: [3]\n", "walk"),
    ("a: [0x1f, 0o17, 1_000, +1, '1:30', 1:30, 0b101, 017, -0, 07_7]\n", "walk"),
    ("a: [1.5, .inf, -.Inf, .nan, 1e3, 1.0e+3, 190:20:30.15, ._, 1_0.5]\n", "walk"),
    ("a: [2001-12-14t21:59:43.10-05:00, 2002-12-14, 2001-12-14 21:59:43.10 +5, 2001-12-15T02:59:43.1Z]\n",
     "walk"),
    ("a: [yes, No, on, OFF, ~, null, Null, '', true, 'true', \"1\", '~']\n", "walk"),
    ("a: |\n  line\n  two\nb: >\n  folded\n  text\nc: \"\\u00e9t\\u00e9\"\n", "walk"),
    ("%YAML 1.1\n---\na: 1\n...\n", "walk"),
    ("---\n", "walk"),
    ("--- \n...\n", "walk"),
    ("[1, [2, [3, []]], {}]\n", "walk"),
    ("just text\n", "walk"),
    ("a: &x [1, 2]\nb: *x\n", "fallback"),
    ("a: &x 1\n", "fallback"),
    ("a: &x {b: 1}\n", "fallback"),
    ("base: &b {x: 1}\nd:\n  <<: *b\n  y: 2\n", "fallback"),
    ("<<: {x: 1}\ny: 2\n", "fallback"),
    ("a: !!str 1\n", "fallback"),
    ("a: !!int '7'\n", "fallback"),
    ("a: !!set {x, y}\n", "fallback"),
    ("a: !!map {b: 1}\n", "fallback"),
    ("a: ! 12\n", "fallback"),
    ("1: a\n", "fallback"),
    ("null: a\n", "fallback"),
    ("true: x\n", "fallback"),
    ("2001-01-01: x\n", "fallback"),
    ("? [a, b]\n: c\n", "fallback"),
    ("? {a: 1}\n: c\n", "fallback"),
    ("=: x\n", "fallback"),
    ("a: =\n", "fallback"),
    ("", "fallback"),
    ("# a comment alone\n", "fallback"),
    ("a: 1\n---\nb: 2\n", "fallback"),
    ("a: 2001-13-45\n", "fallback"),
    ("a: 0b_\n", "fallback"),
    ("a: !!int abc\n", "fallback"),
    (f"a: {'1' * 5000}\n", "fallback"),
    ("a: 2001-13-45\nb: [\n", "fallback"),
    ("a: *x\n", "fallback"),
    ("a: [\n", "parse error"),
    ("a: b: c\n", "parse error"),
    ("a: 'open\n", "parse error"),
]


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
@pytest.mark.parametrize("text, taken", STREAMS, ids=[text[:24] for text, _ in STREAMS])
def test_read_yaml_matches_yaml_load(monkeypatch, tmp_path, loader, text, taken):
    assert differential(monkeypatch, tmp_path, text, loader) == taken


def perfbench_gen():
    spec = importlib.util.spec_from_file_location("gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def generated_inputs() -> list[str]:
    """One seeded ladder scenario per rung, written as perfbench writes them, and
    seeded ``gen_case`` scenarios in block and flow style."""
    gen, rng = perfbench_gen(), random.Random(5)
    texts = [yaml.dump(gen.ladder_scenario(rng, *shape), Dumper=yaml.SafeDumper, sort_keys=False)
             for *shape, _ in gen.LADDER]
    for seed in range(12):
        doc = dict(zip(("topology", "application", "policies", "demand"), gen_case(random.Random(seed))))
        texts.append(yaml.safe_dump(doc, sort_keys=False, default_flow_style=bool(seed % 2)))
    return texts


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
def test_every_bundled_and_generated_input_is_walked(monkeypatch, tmp_path, loader):
    texts = [path.read_text(encoding="utf-8") for path in YAML_FILES] + generated_inputs()
    assert [differential(monkeypatch, tmp_path, text, loader) for text in texts] == ["walk"] * len(texts)


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
def test_walk_reads_50000_deep_nesting(tmp_path, monkeypatch, loader):
    """The walk keeps its own stack.  ``yaml.load``'s composers recurse once per
    level: the pure-Python one raises RecursionError within a few thousand, and
    libyaml's overflows the C stack well before 50,000, so this input is never
    given to ``yaml.load`` here.  The nesting is in block style: both scanners
    take time quadratic in the depth of flow nesting."""
    depth = 50_000
    path = tmp_path / "deep.yaml"
    path.write_text("- " * depth + "x\n", encoding="utf-8")
    monkeypatch.setattr(scenario, "YAML_LOADER", loader)
    doc = read_yaml(path)
    for _ in range(depth - 1):
        assert type(doc) is list and len(doc) == 1
        doc = doc[0]
    assert doc == ["x"]


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
def test_flow_nesting_past_the_bound_is_refused_where_it_opens(monkeypatch, tmp_path, loader):
    """Both scanners take time quadratic in the depth of flow nesting, so the
    walk refuses a flow collection opened more than FALLBACK_DEPTH collections
    deep, at its mark, and asks the loader for no event past it: 50,000 flow
    levels cost a few hundred events.  A flow collection at the bound, under
    flow or block nesting, reads as ``yaml.load`` reads it."""
    def flow(levels: int) -> str:  # the top mapping, then flow sequences
        return "a: " + "[" * levels + "]" * levels + "\n"

    def block_then_flow(levels: int) -> str:  # block sequences, then one flow sequence
        return "- " * (levels - 1) + "[x]\n"

    assert differential(monkeypatch, tmp_path, flow(FALLBACK_DEPTH - 1), loader) == "walk"
    assert differential(monkeypatch, tmp_path, block_then_flow(FALLBACK_DEPTH), loader) == "walk"

    class Counting(loader):
        events = 0

        def get_event(self):
            Counting.events += 1
            return super().get_event()

    monkeypatch.setattr(scenario, "YAML_LOADER", Counting)
    path = tmp_path / "deeper.yaml"
    for text, column in ((flow(FALLBACK_DEPTH), FALLBACK_DEPTH + 3),
                         (flow(50_000), FALLBACK_DEPTH + 3),
                         (block_then_flow(FALLBACK_DEPTH + 1), 2 * FALLBACK_DEPTH + 1)):
        path.write_text(text, encoding="utf-8")
        Counting.events = 0
        with pytest.raises(ScenarioParseError) as info:
            read_yaml(path)
        assert str(info.value) == (f"{path}: invalid YAML: flow collections nested deeper than "
                                   f"{FALLBACK_DEPTH} levels (line 1, column {column})")
        assert Counting.events <= FALLBACK_DEPTH + 4


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
def test_a_fallback_document_nested_to_the_bound_reads_as_yaml_load_does(monkeypatch, tmp_path, loader):
    """A document that falls back (it holds an alias) reads as ``yaml.load``
    reads it when its collections nest FALLBACK_DEPTH deep, and one level
    more is a parse error naming the bound and where it was passed."""
    def deep(levels: int) -> str:  # the top mapping, then block sequences
        return "a: &x 1\nb:\n" + "- " * (levels - 1) + "*x\n"

    assert differential(monkeypatch, tmp_path, deep(FALLBACK_DEPTH), loader) == "fallback"
    path = tmp_path / "deeper.yaml"
    path.write_text(deep(FALLBACK_DEPTH + 1), encoding="utf-8")
    with pytest.raises(ScenarioParseError) as info:
        read_yaml(path)
    assert str(info.value) == (f"{path}: invalid YAML: collections nested deeper than {FALLBACK_DEPTH} levels "
                               f"(line 3, column {2 * FALLBACK_DEPTH - 1})")


def test_reading_leaves_no_reference_cycle(monkeypatch, tmp_path):
    """With the collector off and read_yaml's young collection stubbed out, a
    walked and a fallen-back read, under each loader, leave nothing for a
    full collection to free: the loader and the walk's state die on return."""
    walked, fallen_back = tmp_path / "walked.yaml", tmp_path / "fallen_back.yaml"
    walked.write_text("a: [1, {b: c}]\n", encoding="utf-8")
    fallen_back.write_text("a: &x [1, 2]\nb: *x\nc: [3]\n", encoding="utf-8")
    collect = gc.collect
    monkeypatch.setattr(gc, "collect", lambda generation=2: 0)
    collect()
    gc.disable()
    try:
        for loader in LOADERS:
            monkeypatch.setattr(scenario, "YAML_LOADER", loader)
            assert read_yaml(walked) == {"a": [1, {"b": "c"}]}
            assert read_yaml(fallen_back) == {"a": [1, 2], "b": [1, 2], "c": [3]}
        assert collect() == 0
    finally:
        gc.enable()

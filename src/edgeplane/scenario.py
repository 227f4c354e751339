"""Scenario documents: topology + application + policies + demand + events.

A scenario is one YAML document describing everything a run needs.
:func:`read_yaml` is the package's one file reader and :func:`check_scenario`
its one section parser: ``edgeplane validate`` prints every problem found,
every other path raises the first.  Parsing is strict: unreadable files,
unknown event kinds and settings keys, dangling references, and ids,
integers, rates or demand of the wrong type (see ``errors.doc_id``,
``errors.doc_int``, ``appmodel.as_rate`` and ``appmodel.read_demand``) fail
fast with ScenarioParseError or the underlying model error rather than
surfacing as confusing behavior mid-simulation.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from math import inf
from pathlib import Path

import yaml
from yaml import (
    CollectionEndEvent,
    CollectionStartEvent,
    DocumentEndEvent,
    DocumentStartEvent,
    MappingEndEvent,
    MappingStartEvent,
    ScalarEvent,
    ScalarNode,
    SequenceEndEvent,
    SequenceStartEvent,
    StreamEndEvent,
)

from .appmodel import ApplicationDag, PlacementRequest, app_from_doc
from .errors import EdgeplaneError, ScenarioParseError, UnknownNode, doc_id, doc_int, doc_list
from .meshsim import OVERLOAD_THRESHOLD, ScenarioEvent
from .policy import PolicySet, parse_policies
from .topology import InfrastructureGraph, load_topology

#: The package's one YAML loader/dumper choice, used by :func:`read_yaml` and
#: ``documents``: libyaml's C classes when PyYAML has them, the pure-Python
#: ones otherwise.  Both parse to equal documents.  ``documents`` writes most
#: documents itself; the dumper writes the rest and is the reference its
#: emitter is tested against, and both dumpers emit identical bytes.
YAML_LOADER, YAML_DUMPER = (
    (yaml.CSafeLoader, yaml.CSafeDumper) if yaml.__with_libyaml__
    else (yaml.SafeLoader, yaml.SafeDumper)
)


@dataclass(frozen=True)
class Settings:
    overload_threshold: float = OVERLOAD_THRESHOLD


@dataclass
class Scenario:
    graph: InfrastructureGraph
    app: ApplicationDag
    policies: PolicySet
    request: PlacementRequest
    events: list[ScenarioEvent]
    settings: Settings


def read_yaml(path):
    """The YAML document in the file at ``path``, as ``yaml.load`` reads it.

    A plain document (see :func:`_from_events`) is built from the loader's
    events; any other goes to ``yaml.load`` with the same loader, which stays
    the reference.  Raises ScenarioParseError, prefixed with the path, when
    the file is missing or unreadable, is not valid YAML, or holds a scalar
    its tag cannot construct (a date with month 13, an integer longer than
    Python converts), or nests flow collections, or, when it is not plain,
    any collections, deeper than :data:`FALLBACK_DEPTH`.  The message is
    one line: a YAML error with a position reads ``<problem> (line L, column C)``.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ScenarioParseError(f"{path}: cannot read: {reason}") from exc
    try:
        try:
            doc = _from_events(YAML_LOADER(text))
        except (_Uncovered, ValueError):
            # yaml.load composes the whole document before it constructs, so
            # it raises a later parse error ahead of a scalar's ValueError
            _check_fallback_depth(text)
            return yaml.load(text, Loader=YAML_LOADER)
        # yaml.load's node tree sets off a young collection inside every load;
        # the walk builds no tree, so collect here, not inside the caller's next work
        gc.collect(0)
        return doc
    except (yaml.YAMLError, ValueError) as exc:
        mark = getattr(exc, "problem_mark", None)
        if getattr(exc, "problem", None) and mark is not None:
            reason = f"{exc.problem} (line {mark.line + 1}, column {mark.column + 1})"
        else:
            reason = str(exc)
        raise ScenarioParseError(f"{path}: invalid YAML: {' '.join(reason.split())}") from exc


#: The deepest nesting of collections a document that falls back to ``yaml.load``
#: may have.  Its composers recurse once per level: the pure-Python one into the
#: interpreter's recursion limit (two frames a level, and 300 levels still read
#: under the default limit of 1,000), libyaml's into the C stack, which 50,000
#: levels overflow.  A plain document is walked with no recursion at any depth,
#: but a flow collection may open at most this deep in it too: both scanners take
#: time quadratic in the depth of flow nesting, not of block nesting.
FALLBACK_DEPTH = 200


def _check_fallback_depth(text: str):
    """Raise a YAML error at the first collection nested deeper than
    :data:`FALLBACK_DEPTH`, counted over a fresh loader's events.  A stream
    the loader cannot parse that far is left to ``yaml.load``, which reports
    its errors in its own order."""
    depth = 0
    try:
        for event in yaml.parse(text, Loader=YAML_LOADER):
            if isinstance(event, CollectionStartEvent):
                depth += 1
                if depth > FALLBACK_DEPTH:
                    break
            elif isinstance(event, CollectionEndEvent):
                depth -= 1
        else:
            return
    except yaml.YAMLError:
        return
    raise yaml.MarkedYAMLError(problem=f"collections nested deeper than {FALLBACK_DEPTH} levels",
                               problem_mark=event.start_mark)


class _Uncovered(Exception):
    """The stream holds something :func:`_from_events` leaves to ``yaml.load``."""


_STR_TAG = "tag:yaml.org,2002:str"
#: The other tags a plain scalar may resolve to, each built by the loader's constructor.
_CORE_TAGS = frozenset(f"tag:yaml.org,2002:{kind}" for kind in ("int", "float", "bool", "null", "timestamp"))
#: What a mapping waits for when it waits for a key; a sequence waits with None.
_KEY = object()


def _from_events(loader):
    """The stream's one document, nested from ``loader``'s events with an explicit stack.

    Covered: untagged mappings and sequences with no anchor, whose mapping
    keys are strings, and scalars with no anchor and no explicit tag whose
    resolved tag is ``str`` or one of :data:`_CORE_TAGS`.  The resolver tags
    each distinct (value, implicit) pair once, and the constructor builds
    each distinct non-string one once; a later duplicate key wins, as in
    PyYAML.  Anything else (an alias, a merge key, a non-string or complex
    key, no document or a second one) raises _Uncovered.  A flow collection
    opened more than :data:`FALLBACK_DEPTH` collections deep is a YAML error at
    its mark, raised before the scanner reads further.  Other parse errors are
    the loader's own; a constructor's ValueError propagates.
    """
    get = loader.get_event
    resolve, construct = loader.resolve, loader.construct_object
    memo: dict = {}
    root: list = []
    top, key = root, None
    stack: list = []
    try:
        get()  # the stream's start
        if get().__class__ is not DocumentStartEvent:
            raise _Uncovered
        while True:
            event = get()
            kind = event.__class__
            if kind is ScalarEvent:
                if event.anchor is not None or event.tag is not None:
                    raise _Uncovered
                text, implicit = event.value, event.implicit
                try:
                    value = memo[text, implicit]
                except KeyError:
                    tag = resolve(ScalarNode, text, implicit)
                    if tag == _STR_TAG:
                        value = text
                    elif tag in _CORE_TAGS:
                        value = construct(ScalarNode(tag, text))
                    else:
                        raise _Uncovered from None
                    memo[text, implicit] = value
                if key is None:
                    top.append(value)
                elif key is _KEY:
                    if value.__class__ is not str:
                        raise _Uncovered
                    key = value
                else:
                    top[key] = value
                    key = _KEY
            elif kind is MappingStartEvent or kind is SequenceStartEvent:
                if len(stack) >= FALLBACK_DEPTH and event.flow_style:
                    problem = f"flow collections nested deeper than {FALLBACK_DEPTH} levels"
                    raise yaml.MarkedYAMLError(problem=problem, problem_mark=event.start_mark)
                if event.anchor is not None or event.tag is not None or key is _KEY:
                    raise _Uncovered
                opened = {} if kind is MappingStartEvent else []
                if key is None:
                    top.append(opened)
                else:
                    top[key] = opened
                stack.append(top)
                top, key = opened, _KEY if kind is MappingStartEvent else None
            elif kind is MappingEndEvent or kind is SequenceEndEvent:
                top = stack.pop()
                key = None if top.__class__ is list else _KEY
            elif kind is DocumentEndEvent:
                break
            else:
                raise _Uncovered
        if get().__class__ is not StreamEndEvent:
            raise _Uncovered
    finally:
        loader.dispose()
    return root[0]


def load_scenario(path) -> Scenario:
    return scenario_from_doc(read_yaml(path))


def scenario_from_doc(doc: dict) -> Scenario:
    """The scenario ``doc`` describes; raises the first problem :func:`check_scenario` finds."""
    scenario, problems = check_scenario(doc)
    if problems:
        raise problems[0][1]
    return scenario


def check_scenario(doc) -> tuple[Scenario | None, list[tuple[str, EdgeplaneError]]]:
    """Parse every section of a scenario document and collect what fails.

    Sections parse in this order: settings, topology, application, then,
    only if topology and application parsed, policies, demand and events.
    Each section adds at most one ``(section, error)`` problem.  Returns the
    Scenario and no problems, or None and every problem found.
    """
    if not isinstance(doc, dict):
        return None, [("scenario", ScenarioParseError("scenario document must be a mapping"))]
    problems: list[tuple[str, EdgeplaneError]] = []

    def parse(section: str, loader):
        try:
            if section in ("topology", "application", "demand") and section not in doc:
                raise ScenarioParseError(f"scenario is missing the {section!r} section")
            return loader(doc.get(section))
        except EdgeplaneError as exc:
            problems.append((section, exc))
            return None

    settings = parse("settings", _settings_from_doc)
    graph = parse("topology", load_topology)
    app = parse("application", app_from_doc)
    if graph is None or app is None:
        return None, problems
    policies = parse("policies", lambda raw: parse_policies(_policy_doc(raw), app, graph))
    request = parse("demand", lambda raw: PlacementRequest(app, raw).validate_against(graph))
    events = parse("events", lambda raw: _events_from_doc(raw, graph, app))
    if problems:
        return None, problems
    return Scenario(graph, app, policies, request, events, settings), []


def _settings_from_doc(raw) -> Settings:
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        raise ScenarioParseError("settings must be a mapping")
    unknown = set(raw) - {"overload_threshold", "deterministic"}
    if unknown:
        raise ScenarioParseError(f"unknown settings key {min(unknown, key=str)!r}")
    threshold = raw.get("overload_threshold", OVERLOAD_THRESHOLD)
    if isinstance(threshold, bool) or not isinstance(threshold, (int, float)) or not 0 < threshold < inf:
        raise ScenarioParseError("settings.overload_threshold must be a positive finite number")
    if raw.get("deterministic", True) is not True:
        # the simulator has no stochastic mode; reject rather than pretend
        raise ScenarioParseError("settings.deterministic must be true")
    return Settings(overload_threshold=threshold)


def _policy_doc(raw) -> dict:
    """The scenario's policies section: a mapping, or empty when absent."""
    policies = {} if raw is None else raw
    if not isinstance(policies, dict):
        raise ScenarioParseError("policies must be a mapping")
    return policies


def _events_from_doc(raw, graph: InfrastructureGraph, app: ApplicationDag) -> list[ScenarioEvent]:
    events: list[ScenarioEvent] = []
    for i, entry in enumerate(doc_list(raw, "events", ScenarioParseError)):
        tick = doc_int(entry.get("tick"), f"events[{i}].tick", ScenarioParseError, least=0)
        kind = entry.get("type")
        if kind == "set_demand":
            domain = doc_id(entry.get("domain"), f"events[{i}].domain", ScenarioParseError)
            ms_id = doc_id(entry.get("ms", entry.get("microservice")), f"events[{i}].ms", ScenarioParseError)
            try:
                request = PlacementRequest(app, {domain: {ms_id: entry.get("rps", 0)}}).validate_against(graph)
            except EdgeplaneError as exc:
                raise ScenarioParseError(f"events[{i}]: {exc}") from exc
            rps = request.demand[domain][ms_id]
            events.append(ScenarioEvent("set_demand", tick, domain=domain, microservice=ms_id, rps=rps))
        elif kind == "drain_node":
            node = entry.get("node")
            if not isinstance(node, str) or node not in graph.nodes:
                raise UnknownNode(str(node))
            events.append(ScenarioEvent("drain_node", tick, node=node))
        else:
            raise ScenarioParseError(f"events[{i}]: unknown event type {kind!r}")
    events.sort(key=lambda e: e.tick)
    return events

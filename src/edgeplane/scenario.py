"""Scenario documents: topology + application + policies + demand + events.

A scenario is one YAML document describing everything a run needs.  Parsing
is strict: unknown event kinds, dangling references and malformed settings
fail fast with ScenarioParseError or the underlying model error rather than
surfacing as confusing behavior mid-simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .appmodel import ApplicationDag, PlacementRequest, app_from_doc, as_rate, demand_from_doc
from .errors import ScenarioParseError, UnknownNode
from .meshsim import ScenarioEvent
from .policy import PolicySet, parse_policies
from .topology import InfrastructureGraph, load_topology


@dataclass(frozen=True)
class Settings:
    default_locality: str | None = None
    overload_threshold: float = 0.8
    deterministic: bool = True


@dataclass
class Scenario:
    graph: InfrastructureGraph
    app: ApplicationDag
    policies: PolicySet
    request: PlacementRequest
    events: list[ScenarioEvent]
    settings: Settings
    raw: dict = field(default_factory=dict, repr=False)


def load_scenario(path) -> Scenario:
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioParseError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioParseError(f"{path}: scenario document must be a mapping")
    return scenario_from_doc(doc)


def _settings_from_doc(doc: dict) -> Settings:
    raw = doc.get("settings", {}) or {}
    if not isinstance(raw, dict):
        raise ScenarioParseError("settings must be a mapping")
    threshold = raw.get("overload_threshold", 0.8)
    if isinstance(threshold, bool) or not isinstance(threshold, (int, float)) or threshold <= 0:
        raise ScenarioParseError("settings.overload_threshold must be a positive number")
    deterministic = raw.get("deterministic", True)
    if deterministic is not True:
        # the simulator has no stochastic mode; reject rather than pretend
        raise ScenarioParseError("settings.deterministic must be true")
    default_locality = raw.get("default_locality")
    if default_locality is not None and not isinstance(default_locality, str):
        raise ScenarioParseError("settings.default_locality must be a string")
    return Settings(
        default_locality=default_locality,
        overload_threshold=float(threshold),
        deterministic=True,
    )


def _policy_doc(doc: dict, settings: Settings | None) -> dict:
    """The scenario's policies, with settings.default_locality filling a gap."""
    policies = doc.get("policies", {}) or {}
    if not isinstance(policies, dict):
        raise ScenarioParseError("policies must be a mapping")
    policy_doc = dict(policies)
    if settings is not None and settings.default_locality is not None:
        policy_doc.setdefault("default_locality", settings.default_locality)
    return policy_doc


def _events_from_doc(doc: dict, graph: InfrastructureGraph, app: ApplicationDag) -> list[ScenarioEvent]:
    raw = doc.get("events", []) or []
    if not isinstance(raw, list):
        raise ScenarioParseError("events must be a list")
    events: list[ScenarioEvent] = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ScenarioParseError(f"events[{i}] must be a mapping")
        tick = entry.get("tick")
        if isinstance(tick, bool) or not isinstance(tick, int) or tick < 0:
            raise ScenarioParseError(f"events[{i}].tick must be a non-negative integer")
        kind = entry.get("type")
        if kind == "set_demand":
            domain = entry.get("domain")
            ms_id = entry.get("ms", entry.get("microservice"))
            if domain not in graph.domains:
                raise ScenarioParseError(f"events[{i}]: unknown domain {domain!r}")
            if domain not in graph.attachment_domains():
                raise ScenarioParseError(f"events[{i}]: domain {domain!r} has no IoT attachment")
            if ms_id not in app.ingress_ids:
                raise ScenarioParseError(f"events[{i}]: {ms_id!r} is not an ingress microservice")
            rps = as_rate(entry.get("rps", 0))
            if rps < 0:
                raise ScenarioParseError(f"events[{i}].rps must be non-negative")
            events.append(ScenarioEvent("set_demand", tick, domain=domain, microservice=ms_id, rps=rps))
        elif kind == "drain_node":
            node = entry.get("node")
            if node not in graph.nodes:
                raise UnknownNode(str(node))
            events.append(ScenarioEvent("drain_node", tick, node=node))
        else:
            raise ScenarioParseError(f"events[{i}]: unknown event type {kind!r}")
    events.sort(key=lambda e: e.tick)
    return events


def scenario_from_doc(doc: dict) -> Scenario:
    for key in ("topology", "application", "demand"):
        if key not in doc:
            raise ScenarioParseError(f"scenario is missing the {key!r} section")
    settings = _settings_from_doc(doc)
    graph = load_topology(doc["topology"])
    app = app_from_doc(doc["application"])
    policies = parse_policies(_policy_doc(doc, settings), app, graph)
    request = demand_from_doc(app, doc["demand"])
    request.validate_against(graph)
    events = _events_from_doc(doc, graph, app)
    return Scenario(
        graph=graph,
        app=app,
        policies=policies,
        request=request,
        events=events,
        settings=settings,
        raw=doc,
    )

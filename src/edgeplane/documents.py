"""Serialization of plans, routing exports and simulation reports.

Documents are plain dicts of YAML/JSON-safe values.  Exact Fraction rates
are rendered as ints when integral and floats otherwise, and every list is
emitted in a deterministic order so repeated runs produce identical bytes.

:func:`dump_doc` and :func:`dump_docs` write block-style YAML themselves,
byte for byte as ``yaml.dump``/``yaml.dump_all`` with ``scenario.YAML_DUMPER``
would, when the document's root is a mapping or a sequence and

* every value is exactly a ``dict``, ``list``, ``tuple``, ``str``, ``int``,
  ``bool``, ``None`` or finite ``float`` (subclasses do not count);
* every key is a ``str``;
* no container appears twice, so PyYAML would write no ``&id`` anchor;
* every string, key or value, is one PyYAML writes bare: non-empty, at most
  100 characters, no space, resolved as a string by PyYAML's own resolver
  and allowed as a block plain scalar by its emitter's analysis.

Any other document sends its whole list to ``yaml.dump_all`` unchanged (of
which ``yaml.dump`` is the one-document case), the emitter's reference.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from itertools import groupby

import yaml

from . import scenario
from .appmodel import as_rate, rate_to_number, read_demand
from .audit import ComplianceReport
from .controlplane import (
    AnchorPlacement,
    DeploymentPlan,
    PlacementMapping,
    RoutingRule,
    RoutingRuleSet,
)
from .errors import InvalidRequest, ScenarioParseError, doc_id, doc_int, doc_list
from .locality import LocalityLevel
from .meshsim import SimulationReport
from .topology import InfrastructureGraph


def _plain(value):
    """An alert payload with its Fractions converted, so yaml/json can emit it;
    the simulator's payloads nest only mappings."""
    if isinstance(value, Fraction):
        return rate_to_number(value)
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def plan_to_doc(plan: DeploymentPlan, compliance: ComplianceReport | None = None) -> dict:
    placements = []
    for ms_id in plan.mapping.microservice_ids():
        for anchor, ap in sorted(plan.mapping.per_ms[ms_id].items()):
            entry = _placement(ms_id, anchor, ap)
            entry["nodes"] = [{"node": n, "instances": k} for n, k in ap.slots]
            placements.append(entry)
    routes = [_route(rule, domain=rule.domain_id, consumer=rule.consumer, target=rule.target_ms)
              for rule in plan.routes.rules]
    doc = {
        "application": plan.app_id,
        "revision": plan.revision,
        "demand": {
            domain: {ms: rate_to_number(rps) for ms, rps in sorted(per.items())}
            for domain, per in sorted(plan.demand.items())
        },
        "placements": placements,
        "routes": routes,
    }
    if plan.drained:
        doc["drained"] = sorted(plan.drained)
    if compliance is not None:
        doc["compliance"] = {"ok": compliance.ok, "violations": [_violation(v) for v in compliance.violations]}
    return doc


def _placement(ms_id: str, anchor: str, ap: AnchorPlacement) -> dict:
    """The keys a plan's placement entry and a report's throughput row share, in order."""
    return {"microservice": ms_id, "anchor": anchor, "level": ap.level.value,
            "demand_rps": rate_to_number(ap.demand_rps)}


def _route(rule: RoutingRule, **first) -> dict:
    """One rule's level and weighted destinations, after the ``first`` keys that say whose it is."""
    return {**first, "level": rule.level.value,
            "destinations": [{"node": n, "weight": w} for n, w in rule.destinations]}


def _violation(v, **first) -> dict:
    """One violation entry, after the ``first`` keys (a report's ``tick``)."""
    return {**first, "kind": v.kind, "subject": v.subject, "detail": v.detail}


def plan_from_doc(doc: dict) -> DeploymentPlan:
    """Rebuild a plan from its document form (compliance section is ignored).

    Slot order inside each placement entry is preserved, so scale-down after
    a round trip still removes the newest instances first.  Every id must be
    a non-empty string, ``revision`` and every ``weight`` an integer, every
    ``instances`` a positive integer (a bool is neither), ``demand`` what
    ``appmodel.read_demand`` reads (a mapping of mappings of rates) and
    ``drained``, when present, a list of node ids, no (microservice, anchor)
    placed twice and no (domain, consumer, target) routed twice; any other
    shape raises ScenarioParseError ("malformed plan document: ...").  The
    routes are held in the rule set's own order, whatever the file's.
    """
    if not isinstance(doc, dict):
        raise ScenarioParseError("plan document must be a mapping")
    try:
        per_ms: dict[str, dict[str, AnchorPlacement]] = {}
        for entry in _plan_list(doc.get("placements", []), "placements"):
            ms_id = doc_id(entry["microservice"], "microservice", ScenarioParseError)
            anchor = doc_id(entry["anchor"], "anchor", ScenarioParseError)
            if anchor in per_ms.setdefault(ms_id, {}):
                raise ScenarioParseError(f"placement of {ms_id!r} at {anchor!r} listed twice")
            per_ms[ms_id][anchor] = AnchorPlacement(
                anchor=anchor,
                level=LocalityLevel(entry["level"]),
                demand_rps=as_rate(entry["demand_rps"]),
                slots=[(doc_id(n["node"], "node", ScenarioParseError),
                        doc_int(n["instances"], "instances", ScenarioParseError, least=1))
                       for n in _plan_list(entry["nodes"], "placement nodes")],
            )
        rules: dict[tuple[str, str, str], RoutingRule] = {}
        for entry in _plan_list(doc.get("routes", []), "routes"):
            rule = RoutingRule(
                domain_id=doc_id(entry["domain"], "domain", ScenarioParseError),
                consumer=doc_id(entry["consumer"], "consumer", ScenarioParseError),
                target_ms=doc_id(entry["target"], "target", ScenarioParseError),
                level=LocalityLevel(entry["level"]),
                destinations=tuple(
                    (doc_id(d["node"], "node", ScenarioParseError),
                     doc_int(d["weight"], "weight", ScenarioParseError))
                    for d in _plan_list(entry["destinations"], "route destinations")),
            )
            if rules.setdefault((rule.domain_id, rule.consumer, rule.target_ms), rule) is not rule:
                raise ScenarioParseError(f"route {rule.domain_id}/{rule.consumer}->{rule.target_ms} listed twice")
        demand = read_demand(doc.get("demand", {}))
        drained = doc.get("drained", [])
        if not (isinstance(drained, list) and all(isinstance(node, str) for node in drained)):
            raise ScenarioParseError("drained must be a list of node ids")
        drained = [doc_id(node, "drained node", ScenarioParseError) for node in drained]
        return DeploymentPlan(
            app_id=doc_id(doc["application"], "application", ScenarioParseError),
            revision=doc_int(doc["revision"], "revision", ScenarioParseError),
            mapping=PlacementMapping(per_ms=per_ms, order=tuple(per_ms)),
            routes=RoutingRuleSet(tuple(rules.values())),
            demand=demand,
            drained=frozenset(drained),
        )
    except (KeyError, TypeError, ValueError, InvalidRequest, ScenarioParseError) as exc:
        raise ScenarioParseError(f"malformed plan document: {exc}") from exc


def _plan_list(value, what: str) -> list:
    """A list of mappings in a plan document; unlike a scenario's, null is not empty."""
    if not isinstance(value, list):
        raise ScenarioParseError(f"{what} must be a list of mappings")
    return doc_list(value, what, ScenarioParseError)


def routes_docs(graph: InfrastructureGraph, plan: DeploymentPlan) -> list[dict]:
    """One mesh-config document per domain, virtual-service style.

    Every domain gets a document (possibly with no services) so exporting a
    plan always yields the same file set for a given topology.  The rule set
    holds its rules in (domain, target, consumer) order, so one pass groups
    each domain's rules into a service per target, sources in order; a rule
    whose domain the graph lacks is skipped.
    """
    services: dict[str, list[dict]] = {domain_id: [] for domain_id in sorted(graph.domains)}
    for (domain_id, target_ms), rules in groupby(plan.routes.rules, key=lambda r: (r.domain_id, r.target_ms)):
        if domain_id in services:
            routes = [_route(rule, source=rule.consumer) for rule in rules]
            services[domain_id].append({"host": target_ms, "routes": routes})
    return [{"domain": domain_id, "virtual_services": hosts} for domain_id, hosts in services.items()]


def report_to_doc(report: SimulationReport) -> dict:
    throughput = []
    for ms_id, anchor, ap, capacity in report.throughput:
        row = _placement(ms_id, anchor, ap)
        row["capacity_rps"] = rate_to_number(capacity)
        row["satisfied"] = ap.demand_rps <= capacity
        throughput.append(row)
    return {
        "ticks": report.ticks,
        "final_revision": report.final_revision,
        # the keys are unique, so the sort compares no rates
        "flows": [{"source_domain": domain, "source": source, "node": node_id, "microservice": ms_id,
                   "rps": rate_to_number(rps)}
                  for (domain, source, node_id, ms_id), rps in sorted(report.flows.rows.items())],
        "violations": [_violation(v, tick=tick) for tick, v in report.violations],
        "throughput": throughput,
        "alerts": [
            {"tick": a.tick, "kind": a.kind, "payload": _plain(a.payload)}
            for a in report.alerts
        ],
        "halted": report.halted,
    }


def dump_doc(doc, fmt: str = "yaml") -> str:
    return json.dumps(doc, indent=2) + "\n" if fmt == "json" else _dump_yaml([doc])


def dump_docs(docs: list, fmt: str = "yaml") -> str:
    return json.dumps(docs, indent=2) + "\n" if fmt == "json" else _dump_yaml(docs)


def _dump_yaml(docs: list) -> str:
    """``docs`` as ``yaml.dump_all`` writes them, which for ``[doc]`` is ``yaml.dump(doc)``."""
    try:
        texts = [_emit(doc) for doc in docs]
    except _Fallback:
        return yaml.dump_all(docs, Dumper=scenario.YAML_DUMPER, sort_keys=False,
                             default_flow_style=False)
    # each document after the first opens with "---", on the line above a
    # block collection and on the same line as an empty one
    return "".join(texts[:1] + [("--- " if text[0] in "[{" else "---\n") + text
                                for text in texts[1:]])


class _Fallback(Exception):
    """The document holds something the block emitter leaves to ``yaml.dump``."""


_STR_TAG = "tag:yaml.org,2002:str"
_RESOLVER = yaml.resolver.Resolver()
_ANALYZER = yaml.emitter.Emitter(None)


@functools.lru_cache(maxsize=4096)
def _bare(text: str) -> bool:
    """Whether PyYAML writes the string ``text`` as a plain scalar in block context."""
    return (0 < len(text) <= 100 and " " not in text
            and _RESOLVER.resolve(yaml.ScalarNode, text, (True, False)) == _STR_TAG
            and _ANALYZER.analyze_scalar(text).allow_block_plain)


def _scalar(value) -> str:
    """``value`` as PyYAML's safe representer writes it, when that is bare."""
    kind = type(value)
    if kind is str:
        if _bare(value):
            return value
    elif kind is bool:
        return "true" if value else "false"
    elif kind is int:
        return str(value)
    elif value is None:
        return "null"
    elif kind is float and math.isfinite(value):
        # SafeRepresenter.represent_float: "1e+17" is no YAML float, "1.0e+17" is
        text = repr(value).lower()
        return text.replace("e", ".0e", 1) if "." not in text and "e" in text else text
    raise _Fallback


#: The block collections, and how PyYAML writes each one empty.
_EMPTY = {dict: "{}\n", list: "[]\n", tuple: "[]\n"}


def _emit(doc) -> str:
    empty = _EMPTY.get(type(doc))
    if empty is None:
        raise _Fallback
    if not doc:
        return empty
    out: list[str] = []
    _block(doc, "", False, out, {id(doc)})
    return "".join(out)


def _block(doc, pad: str, inline: bool, out: list, seen: set) -> None:
    """Each "key:" of a mapping, or "-" of a sequence item, on its own line at ``pad``;
    the first one right after "- " when ``inline``.  ``seen`` holds the ids of the
    collections written so far: a second sight of one would be an alias in PyYAML."""
    if type(doc) is dict:
        for key, value in doc.items():
            if type(key) is not str or not _bare(key):
                raise _Fallback
            head = key + ":" if inline else pad + key + ":"
            inline = False
            kind = type(value)
            if kind is int or kind is str and _bare(value):
                out.append(f"{head} {value}\n")
            elif _nested(head, value, out, seen):
                # PyYAML indents a mapping under a key, but not a sequence
                out.append(head + "\n")
                _block(value, pad + "  " if kind is dict else pad, False, out, seen)
    else:
        for value in doc:
            head = "-" if inline else pad + "-"
            inline = False
            if _nested(head, value, out, seen):
                out.append(head + " ")
                _block(value, pad + "  ", True, out, seen)


def _nested(head: str, value, out: list, seen: set) -> bool:
    """Write ``head`` with ``value`` when that is a scalar or an empty collection;
    True when ``value`` is a collection whose items go below ``head``."""
    empty = _EMPTY.get(type(value))
    if empty is None:
        out.append(f"{head} {_scalar(value)}\n")
        return False
    if id(value) in seen:
        raise _Fallback
    seen.add(id(value))
    if value:
        return True
    out.append(f"{head} {empty}")
    return False

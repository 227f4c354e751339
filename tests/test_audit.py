"""The audit module's boundary, and the module attributes its callers go through.

``validate_plan`` and ``check_compliance`` are independent auditors only as
long as they share nothing with the search: the boundary test reads
``audit.py``'s syntax tree and refuses any import of the planner or the
simulator and any use of the scope resolvers the search decides with.  The
span contract test pins that the control plane and the simulator call the
auditors through their own module globals, which is where perfbench's
tracer installs its span wrappers.  The search module's own boundary keeps
it below the control plane: it imports none of the modules built on it, and
the control plane reaches it only through its public names.
"""

import ast
from pathlib import Path

from edgeplane import audit, controlplane, meshsim, policyserver, scenario, search
from edgeplane.meshsim import run_scenario
from edgeplane.policy import POLICY_TYPES

from .support import SCENARIOS

#: Modules the auditors must not import, under any spelling or guard.
PLANNER_MODULES = {"controlplane", "meshsim", "search"}

#: Modules built on the search, which it must not import.
ABOVE_THE_SEARCH = {"controlplane", "meshsim", "audit", "documents", "scenario", "cli", "policyserver"}

#: The planner's scope resolvers and the policy engine's decision entry points,
#: its restriction predicate ``RestrictionRule.allows`` among them.
RESOLVERS = {
    "allows",
    "anchor_of",
    "anchor_domains",
    "eligible_domains_for_anchor",
    "nodes_of_domain",
    "is_allowed",
    "evaluate_query",
}


def boundary_breaches(source: str) -> list[str]:
    """Every import of the planner or simulator, and every resolver named, in ``source``."""
    breaches = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
            modules = [node.module or "", *names]  # ``from . import meshsim`` names the module
        elif isinstance(node, ast.Import):
            modules = names = [a.name for a in node.names]
        elif isinstance(node, ast.Name):
            modules, names = [], [node.id]
        elif isinstance(node, ast.Attribute):
            modules, names = [], [node.attr]
        else:
            continue
        breaches += [f"line {node.lineno}: imports {m}" for m in modules
                     if PLANNER_MODULES & set(m.split("."))]
        breaches += [f"line {node.lineno}: uses {n}" for n in names if n.split(".")[-1] in RESOLVERS]
    return breaches


def test_audit_module_shares_nothing_with_the_search():
    assert boundary_breaches(Path(audit.__file__).read_text(encoding="utf-8")) == []


def test_boundary_check_catches_each_kind_of_breach():
    for source in (
        "from .controlplane import DeploymentPlan",
        "from . import meshsim",
        "import edgeplane.controlplane",
        "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from .meshsim import FlowAssignment",
        "graph.anchor_of(domain_id, level)",
        "from .policy import eligible_domains_for_anchor",
        "nodes_of_domain",
        "rule.allows(domain_id)",
    ):
        assert boundary_breaches(source), source


def imported_names(source: str) -> list[tuple[str, str]]:
    """(module, name) per name imported in ``source``; a plain ``import m`` gives (m, "")."""
    pairs = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            pairs += [(node.module or "", a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            pairs += [(a.name, "") for a in node.names]
    return pairs


def test_search_imports_nothing_built_on_it():
    source = Path(search.__file__).read_text(encoding="utf-8")
    imported = [f"{module}.{name}" for module, name in imported_names(source)]
    assert [m for m in imported if ABOVE_THE_SEARCH & set(m.split("."))] == []


def test_control_plane_imports_no_private_name_of_the_search():
    source = Path(controlplane.__file__).read_text(encoding="utf-8")
    private = [(m, n) for m, n in imported_names(source) if m.split(".")[-1] == "search" and n.startswith("_")]
    assert ("search", "reconcile") in imported_names(source)
    assert private == []


def test_callers_reach_the_one_search_module():
    assert controlplane.PlacementMapping is search.PlacementMapping
    assert controlplane.AnchorPlacement is search.AnchorPlacement


def test_callers_reach_the_one_audit_module():
    assert controlplane.validate_plan is audit.validate_plan
    assert meshsim.check_compliance is audit.check_compliance


#: Names a module imports only to re-export them, each marked ``# noqa: F401``
#: and pinned by the two tests above.
REEXPORTS = {
    "controlplane": {"AnchorPlacement"},
}


def unused_imports(source: str) -> dict[str, int]:
    """Each name ``source`` imports but never reads, with its import's line;
    ``from __future__`` imports bind no name."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({a.asname or a.name: node.lineno for a in node.names})
        elif isinstance(node, ast.Import):
            imported.update({a.asname or a.name.split(".")[0]: node.lineno for a in node.names})
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in read}


def test_every_import_is_used_or_a_marked_re_export():
    """The project runs no linter, so this stands in for its unused-import check:
    a module reads every name it imports, except the package's public names
    in ``__init__`` and the re-exports pinned above, which carry the marker."""
    found = {}
    for path in sorted(Path(audit.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        unused = unused_imports(source)
        if path.stem == "__init__":
            assert not [name for name in unused if name.startswith("_")]
            continue
        lines = source.splitlines()
        assert [name for name, line in unused.items() if "# noqa: F401" not in lines[line - 1]] == [], path.name
        if unused:
            found[path.stem] = set(unused)
    assert found == REEXPORTS


def test_unused_import_check_sees_each_spelling():
    assert unused_imports("import os\nimport a.b\nfrom x import y as z\nfrom . import w\n") == \
        {"os": 1, "a": 2, "z": 3, "w": 4}
    assert unused_imports("from __future__ import annotations\nimport a.b\nfrom x import y\n"
                          "def f() -> y:\n    return a.b\n") == {}


def attribute_readers(source: str, attr: str) -> set[str]:
    """The top-level functions and classes of ``source`` that read ``.attr``,
    by name; ``<module>`` for any other statement."""
    return {getattr(top, "name", "<module>") for top in ast.parse(source).body
            if any(isinstance(node, ast.Attribute) and node.attr == attr for node in ast.walk(top))}


def test_only_the_application_model_says_which_edges_carry_traffic():
    """``ApplicationDag.predecessors``, ``successors`` and
    ``topological_order`` own the rule that an IoT-placed microservice
    carries no traffic.  No module outside ``appmodel.py`` reads the flag."""
    readers = set()
    for path in sorted(Path(audit.__file__).parent.glob("*.py")):
        if path.stem != "appmodel":
            source = path.read_text(encoding="utf-8")
            readers |= {f"{path.stem}.{name}" for name in attribute_readers(source, "placed_on_iot")}
    assert readers == set()


def test_only_the_policy_engine_names_is_allowed():
    """``is_allowed`` answers one wire query; the search filters through
    ``RestrictionRule.allows`` and the auditors read the raw rule themselves."""
    def names(path):  # every name read, defined or imported in the module at ``path``
        tree = ast.parse(path.read_text(encoding="utf-8"))
        return {getattr(node, field, None) for node in ast.walk(tree) for field in ("id", "attr", "name")}

    namers = {path.stem for path in Path(audit.__file__).parent.glob("*.py") if "is_allowed" in names(path)}
    assert namers == {"policy", "__init__"}


def test_the_simulator_leaves_document_values_to_the_writer():
    """``meshsim`` returns exact values and ``documents`` writes them: the
    simulator converts no rate to a document number, and its flow
    assignment is data with no method of its own."""
    tree = ast.parse(Path(meshsim.__file__).read_text(encoding="utf-8"))
    names = {getattr(node, field, None) for node in ast.walk(tree) for field in ("id", "attr", "name")}
    assert "rate_to_number" not in names
    flows = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "FlowAssignment")
    assert [node.name for node in flows.body if isinstance(node, ast.FunctionDef)] == []


def test_the_policy_server_leaves_policy_types_to_the_policy_engine():
    """``policy.get_data`` owns every policy type and its key's shape; the
    server names none of them."""
    source = Path(policyserver.__file__).read_text(encoding="utf-8")
    literals = {node.value for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Constant)}
    assert literals & set(POLICY_TYPES) == set()


def test_every_error_class_is_used_outside_the_errors_module():
    """An error class stays only while the package raises, catches or uses it:
    each class ``errors.py`` defines is read by name in another of its
    modules.  An import alone, such as a re-export, does not count."""
    package = Path(audit.__file__).parent
    defined = {node.name for node in ast.parse((package / "errors.py").read_text(encoding="utf-8")).body
               if isinstance(node, ast.ClassDef)}
    read = set()
    for path in package.glob("*.py"):
        if path.stem != "errors":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            read |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert defined - read == set()


def test_auditors_are_called_through_their_module_globals(surge, monkeypatch):
    """A replan validates through ``controlplane.validate_plan`` and every
    routed tick routes through ``meshsim.route_flows`` and audits through
    ``meshsim.check_compliance``, so wrappers installed at those attributes
    (as perfbench's tracer does) see each call.  A tick whose rules and demand
    did not move reuses the last audit, so only the first tick and the surge
    tick route and audit.  The nested layers the tracer also wraps go through
    their module globals too: ``scenario.scenario_from_doc`` from
    ``load_scenario``, ``controlplane.place_application`` from
    ``ControlPlane.place``, ``controlplane.handle_alert`` from
    ``ControlPlane.handle_alert``, and ``controlplane.generate_routes`` from
    both of those."""
    calls = {"validate_plan": 0, "route_flows": 0, "check_compliance": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(controlplane, "validate_plan")
    counting(meshsim, "route_flows")
    counting(meshsim, "check_compliance")
    _, report = run_scenario(surge.graph, surge.app, surge.policies, surge.request, surge.events,
                             overload_threshold=surge.settings.overload_threshold)
    assert [a.kind for a in report.alerts] == ["demand_change"]
    assert report.ticks == 6
    assert calls == {"validate_plan": len(report.alerts), "route_flows": 2, "check_compliance": 2}

    nested = {"scenario_from_doc": scenario, "place_application": controlplane,
              "handle_alert": controlplane, "generate_routes": controlplane}
    calls.update(dict.fromkeys([*calls, *nested], 0))
    for name, module in nested.items():
        counting(module, name)
    loaded = scenario.load_scenario(SCENARIOS / "uav_demand_surge.yaml")
    _, report = run_scenario(loaded.graph, loaded.app, loaded.policies, loaded.request, loaded.events,
                             overload_threshold=loaded.settings.overload_threshold)
    assert calls == {"validate_plan": 1, "route_flows": 2, "check_compliance": 2, "scenario_from_doc": 1,
                     "place_application": 1, "handle_alert": 1, "generate_routes": 2}

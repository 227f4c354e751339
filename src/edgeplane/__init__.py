"""Policy-driven control plane for microservices on multi-domain edge-cloud infrastructure.

The package models an infrastructure graph (regions, domains, compute nodes, IoT
attachment points), a microservice application DAG with per-edge traffic ratios,
and declarative policies (placement restrictions plus IoT and service-to-service
locality levels).  On top of that it provides a demand-driven placement planner,
locality-scoped routing rule generation, an independent plan validator, and a
deterministic rate-based traffic simulator with an alerting observer loop.
"""

from .errors import EdgeplaneError
from .locality import LocalityLevel
from .topology import InfrastructureGraph, load_topology
from .appmodel import ApplicationDag, PlacementRequest, app_from_doc, validate_app
from .policy import PolicySet, PolicyDecision, parse_policies, get_data, is_allowed
from .controlplane import (
    ControlPlane,
    DeploymentPlan,
    PlacementMapping,
    RoutingRule,
    RoutingRuleSet,
    Alert,
    place_application,
    generate_routes,
    validate_plan,
    handle_alert,
)
from .meshsim import FlowAssignment, SimulationReport, route_flows, node_utilization, check_compliance, run_scenario
from .scenario import Scenario, load_scenario, scenario_from_doc

__version__ = "0.1.0"

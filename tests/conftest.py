import pytest

from edgeplane.scenario import load_scenario

from .support import SCENARIOS


@pytest.fixture
def canonical():
    """Fresh canonical UAV scenario."""
    return load_scenario(SCENARIOS / "uav_canonical.yaml")


@pytest.fixture
def surge():
    return load_scenario(SCENARIOS / "uav_demand_surge.yaml")

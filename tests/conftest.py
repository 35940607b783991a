import pytest

from fluidsea.plant import PlantParams


@pytest.fixture(scope="session")
def gripper():
    """Identified desk-rig parameters, hysteresis element active."""
    return PlantParams.gripper()


@pytest.fixture(scope="session")
def gripper_linear():
    """Identified desk-rig parameters, hysteresis disabled."""
    return PlantParams.gripper().without_hysteresis()

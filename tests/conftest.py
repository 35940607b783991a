import pytest

from fluidsea.controllers import DahlEstimate, FeedforwardConfig
from fluidsea.plant import PlantParams


def feedforward(params: PlantParams, dahl: bool = True) -> FeedforwardConfig:
    """The feedforward with the plant's own b_e, k_e, b_s and k_s.

    It carries the plant's Dahl element when ``dahl`` is set and the plant
    has one (F_c > 0 and sigma > 0).
    """
    estimate = None
    if dahl and params.F_c > 0 and params.sigma > 0:
        estimate = DahlEstimate(F_c=params.F_c, sigma=params.sigma)
    return FeedforwardConfig(
        b_e=params.b_e, k_e=params.k_e, b_s=params.b_s, k_s=params.k_s, dahl=estimate
    )


@pytest.fixture(scope="session")
def gripper():
    """Identified desk-rig parameters, hysteresis element active."""
    return PlantParams.gripper()


@pytest.fixture(scope="session")
def gripper_linear():
    """Identified desk-rig parameters, hysteresis disabled."""
    return PlantParams.gripper().without_hysteresis()

import os

import pytest

import fluidsea.impedance as imp
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


def spy_simulate(monkeypatch, tmp_path):
    """Record each ``impedance.simulate`` call as (omega, duration, process id).

    The calls are appended to a file, one line each, so that calls made in
    worker processes are seen too. Returns a function that reads them back,
    in no particular order.
    """
    log = tmp_path / "simulate_calls.txt"
    log.touch()
    original = imp.simulate

    def recording_simulate(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{float(args[2].omega)!r} {float(kwargs['duration'])!r} {os.getpid()}\n")
        return original(*args, **kwargs)

    def calls():
        return [
            (float(w), float(duration), int(pid))
            for w, duration, pid in map(str.split, log.read_text().splitlines())
        ]

    monkeypatch.setattr(imp, "simulate", recording_simulate)
    return calls


@pytest.fixture(scope="session")
def gripper():
    """Identified desk-rig parameters, hysteresis element active."""
    return PlantParams.gripper()


@pytest.fixture(scope="session")
def gripper_linear():
    """Identified desk-rig parameters, hysteresis disabled."""
    return PlantParams.gripper().without_hysteresis()

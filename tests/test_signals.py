"""Force samplers: a block of times gives, bit for bit, the scalar waveforms.

The references are the scalar closures written out with ``math`` alone, one
call per time. The simulator samples a block of steps at i dt, i dt + dt/2
and i dt + dt, so each case is checked at those three stage times.
"""

import math

import numpy as np
import pytest

from fluidsea.experiments import preset_config
from fluidsea.impedance import snap_grid
from fluidsea.lti import FrequencyGrid
from fluidsea.signals import ChirpSpec, ConstantSpec, SineSpec, as_signal

DT = 5e-4


def _reference(spec):
    """The scalar waveform of ``spec``: one ``math`` expression per time."""
    if spec is None:
        return lambda t: 0.0
    if isinstance(spec, ChirpSpec):
        amp = spec.amplitude
        tau = spec.duration / math.log(spec.f1 / spec.f0)
        k = 2.0 * math.pi * spec.f0 * tau
        return lambda t: amp * math.sin(k * (math.exp(t / tau) - 1.0))
    if isinstance(spec, SineSpec):
        return lambda t: spec.amplitude * math.sin(spec.omega * t)
    if isinstance(spec, ConstantSpec):
        return lambda t: spec.value
    if callable(spec):
        return spec
    return lambda t: float(spec)


def _stage_times(steps, start=0, dt=DT):
    t = np.arange(start, start + steps) * dt
    return [t, t + 0.5 * dt, t + dt]


def _assert_bit_equal(spec, times):
    sample, ref = as_signal(spec), _reference(spec)
    for t in times:
        want = np.array([ref(ti) for ti in t.tolist()], dtype=float)
        got = sample(t)
        assert got.dtype == np.float64 and got.shape == t.shape
        assert got.tobytes() == want.tobytes()
        # the scalar view of the same waveform
        assert np.array([sample(ti) for ti in t[:64].tolist()]).tobytes() == want[:64].tobytes()


def test_benchmark_chirp_over_the_whole_sweep():
    # the 120 s chirp of the chirp-sysid benchmark and the fig3/fig4 presets' shape
    spec = ChirpSpec(0.3, 0.01, 1000.0, 120.0)
    _assert_bit_equal(spec, _stage_times(int(round(120.0 / DT))))


def _sweep_omegas():
    """Every snapped impedance frequency of fig6c, the zwidth benchmark and acceptance 4 and 7."""
    fig6c = preset_config("fig6c-zwidth").analysis
    grids = [
        FrequencyGrid.log_spaced(fig6c.grid_min, fig6c.grid_max, fig6c.grid_points),
        FrequencyGrid.log_spaced(0.3, 30.0, 5),
        FrequencyGrid.log_spaced(0.1, 10.0, 20),
        FrequencyGrid(np.array([0.1, 3.0, 10.0])),
    ]
    return sorted({float(w) for g in grids for w in snap_grid(g, DT)})


@pytest.mark.parametrize("amplitude", [0.05, 0.3])
def test_sine_at_every_sweep_frequency(amplitude):
    for omega in _sweep_omegas():
        # the first blocks of a run and a stretch 100 s in
        times = _stage_times(2 * 2048 + 17) + _stage_times(3000, start=200_000)
        _assert_bit_equal(SineSpec(amplitude, omega), times)


@pytest.mark.parametrize(
    "spec",
    [ConstantSpec(0.02), ConstantSpec(-0.0), 0.1, -3, None,
     lambda t: 0.03 * math.cos(40.0 * t) - 0.01],
    ids=["constant", "constant -0", "float", "int", "none", "callable"],
)
def test_other_forces(spec):
    _assert_bit_equal(spec, _stage_times(5000))


def test_callable_is_called_once_per_sample_on_floats():
    seen = []

    def force(t):
        seen.append(type(t))
        return 2.0 * t

    got = as_signal(force)(np.arange(5) * DT)
    assert got.tolist() == [2.0 * i * DT for i in range(5)]
    assert seen == [float] * 5

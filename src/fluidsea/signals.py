"""Excitation signal specifications for simulation experiments.

Each spec is a small frozen dataclass of parameters. The force waveforms
are defined once, in :func:`as_signal`, as functions of time that take
either one float ``t`` or a 1-D array of times. On an array, numpy does the
``+ - * /``, which are correctly rounded as in Python, and ``math.sin`` and
``math.exp`` are mapped over the block (a vectorized libm could move a last
digit), so each sample is bit for bit the value at that one float. The
simulator samples a block of stage times per call. The one prescribed
endpoint motion, :class:`SineMotionSpec`, is written in its methods and, in
the same operation order, inline in the simulation loop.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["ChirpSpec", "ConstantSpec", "NyquistViolationError", "SineSpec", "as_signal"]


class NyquistViolationError(ValueError):
    """Chirp end frequency reaches or exceeds the sampling Nyquist rate."""


@dataclass(frozen=True)
class ChirpSpec:
    """Logarithmic sine sweep.

    The instantaneous frequency sweeps log-uniformly from ``f0`` to ``f1``
    (both in Hz) over ``duration`` seconds; the phase starts at zero.

    Fields
    ------
    amplitude : peak value [Nm]
    f0, f1 : start / end frequency [Hz], 0 < f0 < f1
    duration : sweep length [s]
    """

    amplitude: float
    f0: float
    f1: float
    duration: float

    def __post_init__(self):
        if not (0 < self.f0 < self.f1):
            raise ValueError("require 0 < f0 < f1")
        if self.duration <= 0:
            raise ValueError("duration must be > 0")

    def validate_sampling(self, dt: float, allow_nyquist: bool = False) -> None:
        """Check the end frequency against the sampling rate.

        Warns when ``f1 > 0.4/dt``; raises unless ``allow_nyquist`` when
        ``f1 >= 1/(2 dt)``.
        """
        nyquist = 0.5 / dt
        if self.f1 >= nyquist and not allow_nyquist:
            raise NyquistViolationError(
                f"chirp end frequency {self.f1} Hz reaches Nyquist {nyquist} Hz; "
                "pass allow_nyquist=True to force"
            )
        if self.f1 > 0.8 * nyquist:
            warnings.warn(
                f"chirp end frequency {self.f1} Hz is above 80% of Nyquist "
                f"({nyquist} Hz); high-frequency content will be distorted",
                stacklevel=2,
            )


@dataclass(frozen=True)
class SineSpec:
    """Fixed-frequency sinusoid ``amplitude * sin(omega t)`` [Nm, rad/s]."""

    amplitude: float
    omega: float

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError("omega must be > 0")


@dataclass(frozen=True)
class ConstantSpec:
    """Constant force [Nm]."""

    value: float


@dataclass(frozen=True)
class SineMotionSpec:
    """Prescribed sinusoidal endpoint motion ``x_e = amplitude sin(omega t)``.

    Used by the kinematic backdrive mode, where the endpoint position is an
    authoritative source (one finger backdriving the other) and the external
    force is a measured output. The scalar methods are the reference form:
    the simulation loop does not call them, but evaluates the same products
    from ``a omega`` and ``-a omega**2`` computed once, bit for bit.
    """

    amplitude: float
    omega: float

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError("omega must be > 0")

    def position(self, t: float) -> float:
        return self.amplitude * math.sin(self.omega * t)

    def velocity(self, t: float) -> float:
        return self.amplitude * self.omega * math.cos(self.omega * t)

    def acceleration(self, t: float) -> float:
        return -self.amplitude * self.omega**2 * math.sin(self.omega * t)


def _mapped(fn):
    """``fn`` of one float, applied to a float or to each element of a 1-D array."""

    def apply(t):
        if isinstance(t, np.ndarray):
            return np.fromiter(map(fn, t.tolist()), float, t.size)
        return fn(t)

    return apply


_sin, _exp = _mapped(math.sin), _mapped(math.exp)


def _constant(value):
    return lambda t: np.full(t.size, value, dtype=float) if isinstance(t, np.ndarray) else value


def as_signal(spec):
    """Coerce a spec, callable, number, or None into a function of time.

    The function takes a float ``t`` and returns the force there, or a 1-D
    float array of times and returns the array of forces, each equal to the
    float's. This is where each spec's waveform is defined: the chirp's phase
    is 2 pi f0 tau (exp(t/tau) - 1) with tau = duration / ln(f1/f0). A
    callable spec is a function of one float; on an array it is called once
    per element.
    """
    if spec is None:
        return _constant(0.0)
    if isinstance(spec, ChirpSpec):
        amp = spec.amplitude
        tau = spec.duration / math.log(spec.f1 / spec.f0)
        k = 2.0 * math.pi * spec.f0 * tau
        return lambda t: amp * _sin(k * (_exp(t / tau) - 1.0))
    if isinstance(spec, SineSpec):
        amp, w = spec.amplitude, spec.omega
        return lambda t: amp * _sin(w * t)
    if isinstance(spec, ConstantSpec):
        return _constant(spec.value)
    if callable(spec):
        return _mapped(spec)
    return _constant(float(spec))

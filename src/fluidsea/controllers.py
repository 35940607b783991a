"""Discrete-time force-feedback controllers.

All s-domain controller blocks are realized at a fixed sample time via the
Tustin transform (shared with :mod:`fluidsea.lti`), so a controller instance
is bound to one dt. Configurations are immutable dataclasses; runtime
controllers are single-owner mutable objects created by
:func:`make_controller` and driven one sample at a time through
``step(F_p, v, x, F_e, F_ref) -> F_a``.

Controller catalogue
--------------------
* proportional force feedback, on the internal (line) force or the external
  (endpoint) force; modeled as an analog gain, see
  :class:`ProportionalFFConfig`
* disturbance observer with first-order low-pass Q = lambda/(s + lambda) and
  inverse nominal plant ``m_n s + b_n + k_n / s``, realized in the
  algebraically equivalent integrator form
  ``F_a = F_ref + (lambda/s)(F_ref + F_p - P_n^{-1} V)``
* PD position hold on the motor, with an optional whole-sample computation
  delay for stability studies
* model-based feedforward compensation of the endpoint friction from motor
  state and line force only, optionally including a Dahl hysteresis estimate

Positions fed to the controllers are measured relative to the rest pose, so
velocity integrals and measured positions agree.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .lti import DiscreteFilter, Polynomial, RationalTF, discretize_tustin

__all__ = [
    "CompositeConfig",
    "CompositeController",
    "DOBConfig",
    "DOBController",
    "DahlEstimate",
    "FeedforwardCompensator",
    "FeedforwardConfig",
    "PDConfig",
    "PDController",
    "ProportionalFFConfig",
    "make_controller",
    "pd_command",
    "proportional_ff",
]


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProportionalFFConfig:
    """Proportional force feedback F_a = K_f * F_meas.

    ``source`` selects the measured force: "internal" uses the line force
    F_p, "external" the endpoint force F_e.
    """

    K_f: float
    source: str = "internal"

    def __post_init__(self):
        if self.source not in ("internal", "external"):
            raise ValueError("source must be 'internal' or 'external'")


@dataclass(frozen=True)
class DOBConfig:
    """Disturbance observer on the motor plant.

    lam : Q-filter cutoff [rad/s], > 0
    m_n, b_n, k_n : nominal inverse-plant coefficients; the frictionless
        choice (b_n = k_n = 0) targets a pure inertia.
    windup_limit : optional bound on the observer integrator [Nm s]
    """

    lam: float = 20.0
    m_n: float = 1.1116e-3
    b_n: float = 0.0
    k_n: float = 0.0
    windup_limit: float | None = None

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lambda must be > 0")

    @classmethod
    def inertial(cls, m_n: float, lam: float = 20.0) -> "DOBConfig":
        """Frictionless nominal plant P_n = 1/(m_n s)."""
        return cls(lam=lam, m_n=m_n, b_n=0.0, k_n=0.0)


@dataclass(frozen=True)
class PDConfig:
    """PD position hold on the motor: F_a = K_p (x_target - x) - K_d v."""

    K_p: float
    K_d: float
    x_target: float = 0.0
    delay_samples: int = 0

    def __post_init__(self):
        if self.K_p < 0 or self.K_d < 0:
            raise ValueError("PD gains must be >= 0")
        if self.delay_samples < 0:
            raise ValueError("delay_samples must be >= 0")


@dataclass(frozen=True)
class DahlEstimate:
    """Hysteresis model used by the feedforward term (n = 1 shape)."""

    F_c: float
    sigma: float

    def __post_init__(self):
        if self.F_c <= 0 or self.sigma <= 0:
            raise ValueError("Dahl estimate requires F_c > 0 and sigma > 0")


@dataclass(frozen=True)
class FeedforwardConfig:
    """Endpoint-friction feedforward from motor state and line force.

    The compensation force is

        F_cmp = (b_e + k_e/s) V + (b_e s + k_e)/(b_s s + k_s) F_p  [+ Dahl]

    where the second term feeds the endpoint-velocity estimate
    ``Vhat_e = V + F_p s/(b_s s + k_s)`` through the identified endpoint
    friction. All four coefficients are the *model* values, settable
    independently of the true plant for mismatch studies.
    """

    b_e: float
    k_e: float
    b_s: float
    k_s: float
    dahl: DahlEstimate | None = None

    def __post_init__(self):
        if self.k_s <= 0:
            raise ValueError("feedforward line stiffness estimate must be > 0")
        if min(self.b_e, self.k_e, self.b_s) < 0:
            raise ValueError("feedforward coefficients must be >= 0")

    @classmethod
    def from_params(cls, params, include_dahl: bool = True) -> "FeedforwardConfig":
        dahl = None
        if include_dahl and params.F_c > 0 and params.sigma > 0:
            dahl = DahlEstimate(F_c=params.F_c, sigma=params.sigma)
        return cls(
            b_e=params.b_e, k_e=params.k_e, b_s=params.b_s, k_s=params.k_s, dahl=dahl
        )


@dataclass(frozen=True)
class CompositeConfig:
    """Disturbance observer plus feedforward friction compensation.

    The feedforward force shifts the reference entering the observer loop so
    that the regulated line force cancels the estimated endpoint friction:
    the observer drives F_p toward -(F_ref + F_cmp), and the line then pushes
    the endpoint with +F_cmp, opposing the friction it estimates.
    """

    dob: DOBConfig
    feedforward: FeedforwardConfig


# ---------------------------------------------------------------------------
# Stateless command laws
# ---------------------------------------------------------------------------


def proportional_ff(K_f: float, F_meas: float) -> float:
    """Proportional force-feedback command F_a = K_f * F_meas."""
    return K_f * F_meas


def pd_command(cfg: PDConfig, x: float, v: float) -> float:
    """PD hold command F_a = K_p (x_target - x) - K_d v."""
    return cfg.K_p * (cfg.x_target - x) - cfg.K_d * v


# ---------------------------------------------------------------------------
# Runtime controllers
# ---------------------------------------------------------------------------


class BaseController:
    """One controller instance serves one simulation loop."""

    # Gains applied inside the integrator stages by the simulator (analog
    # proportional feedback); discrete controllers leave these at zero.
    stage_gain_internal = 0.0
    stage_gain_external = 0.0
    last_f_cmp = 0.0

    def reset(self) -> None:  # pragma: no cover - trivial default
        pass

    def step(self, F_p: float, v: float, x: float, F_e: float, F_ref: float) -> float:
        raise NotImplementedError


class NullController(BaseController):
    """Passive plant: F_a = 0."""

    def step(self, F_p, v, x, F_e, F_ref):
        return 0.0


class ProportionalFFController(BaseController):
    """Analog proportional force feedback.

    The gain is applied inside the integrator stages rather than held over
    the control period, so closed-loop traces match the equivalent scaled
    plant exactly. ``step`` therefore returns 0; the simulator reads the
    stage gains.
    """

    def __init__(self, cfg: ProportionalFFConfig):
        self.cfg = cfg
        if cfg.source == "internal":
            self.stage_gain_internal = cfg.K_f
        else:
            self.stage_gain_external = cfg.K_f

    def step(self, F_p, v, x, F_e, F_ref):
        return 0.0


class PDController(BaseController):
    def __init__(self, cfg: PDConfig, dt: float):
        self.cfg = cfg
        self.dt = dt
        self._queue: deque[float] = deque([0.0] * cfg.delay_samples)

    def reset(self):
        self._queue = deque([0.0] * self.cfg.delay_samples)

    def step(self, F_p, v, x, F_e, F_ref):
        u = pd_command(self.cfg, x, v)
        if self.cfg.delay_samples == 0:
            return u
        self._queue.append(u)
        return self._queue.popleft()


class DOBController(BaseController):
    """Integrator-form disturbance observer.

    Realizes ``F_a = F_ref + (lambda/s) (F_ref + F_p - P_n^{-1} V)`` with
    ``(lambda/s) P_n^{-1} V = lambda (m_n v + b_n x + k_n Int x)``, using the
    measured position for V/s. Integrals are trapezoidal (Tustin).
    """

    def __init__(self, cfg: DOBConfig, dt: float):
        self.cfg = cfg
        self.dt = dt
        self.reset()

    def reset(self):
        self._i_fp = 0.0   # integral of F_ref + F_p
        self._u_prev = 0.0
        self._i_x = 0.0    # integral of x
        self._x_prev = 0.0
        self.disturbance_estimate = 0.0

    def step(self, F_p, v, x, F_e, F_ref):
        if not (
            math.isfinite(F_p) and math.isfinite(v)
            and math.isfinite(x) and math.isfinite(F_ref)
        ):
            raise ValueError("non-finite controller input")
        cfg = self.cfg
        half = 0.5 * self.dt
        u = F_ref + F_p
        self._i_fp += half * (u + self._u_prev)
        self._u_prev = u
        if cfg.windup_limit is not None:
            lim = cfg.windup_limit
            self._i_fp = min(max(self._i_fp, -lim), lim)
        self._i_x += half * (x + self._x_prev)
        self._x_prev = x
        correction = cfg.lam * (
            self._i_fp - cfg.m_n * v - cfg.b_n * x - cfg.k_n * self._i_x
        )
        self.disturbance_estimate = -correction
        return F_ref + correction


class FeedforwardCompensator:
    """Streaming realization of the endpoint-friction feedforward.

    Two Tustin filters act on the line force: one producing the endpoint
    velocity estimate, one producing the friction share carried by the line;
    a trapezoidal integrator supplies the k_e/s V term. The optional Dahl
    estimate advances by the exact constant-velocity solution of the n = 1
    law over each sample, driven by the estimated endpoint displacement.

    Both filters are first order. Their coefficients come from
    :func:`discretize_tustin` and they run as the scalar recurrence of
    :meth:`DiscreteFilter.step`, ``y = b0 u + z`` then ``z = b1 u - a1 y``.
    """

    def __init__(self, cfg: FeedforwardConfig, dt: float):
        self.cfg = cfg
        self.dt = dt
        self._fp_coeffs = _first_order(
            discretize_tustin(
                RationalTF(Polynomial([cfg.b_e, cfg.k_e]), Polynomial([cfg.b_s, cfg.k_s])),
                dt,
            )
        )
        self._vhat_coeffs = _first_order(
            discretize_tustin(
                RationalTF(Polynomial([1.0, 0.0]), Polynomial([cfg.b_s, cfg.k_s])), dt
            )
        )
        self.reset()

    def reset(self):
        self._z_fp = 0.0
        self._z_vhat = 0.0
        self._i_v = 0.0
        self._v_prev = 0.0
        self._vhat_prev = 0.0
        self._fd_hat = 0.0
        self.last_vhat_e = 0.0

    def _advance_dahl(self, dx: float) -> float:
        dahl = self.cfg.dahl
        if dahl is None:
            return 0.0
        if dx != 0.0:
            s = 1.0 if dx > 0.0 else -1.0
            decay = math.exp(-dahl.sigma * abs(dx) / dahl.F_c)
            self._fd_hat = s * dahl.F_c + (self._fd_hat - s * dahl.F_c) * decay
        return self._fd_hat

    def step(self, F_p: float, v: float) -> float:
        cfg = self.cfg
        half = 0.5 * self.dt
        self._i_v += half * (v + self._v_prev)
        self._v_prev = v
        b0, b1, a1 = self._fp_coeffs
        y_fp = b0 * F_p + self._z_fp
        self._z_fp = b1 * F_p - a1 * y_fp
        b0, b1, a1 = self._vhat_coeffs
        y_vhat = b0 * F_p + self._z_vhat
        self._z_vhat = b1 * F_p - a1 * y_vhat
        linear = cfg.b_e * v + cfg.k_e * self._i_v + y_fp
        vhat = v + y_vhat
        self.last_vhat_e = vhat
        dx = half * (vhat + self._vhat_prev)
        self._vhat_prev = vhat
        return linear + self._advance_dahl(dx)


def _first_order(f: DiscreteFilter) -> tuple[float, float, float]:
    """(b0, b1, a1) of a first-order filter; any other order fails to unpack."""
    (b0, b1), (_, a1) = f.b, f.a
    return float(b0), float(b1), float(a1)


class CompositeController(BaseController):
    """Feedforward compensation feeding the observer force reference."""

    def __init__(self, cfg: CompositeConfig, dt: float):
        self.cfg = cfg
        self.dob = DOBController(cfg.dob, dt)
        self.feedforward = FeedforwardCompensator(cfg.feedforward, dt)

    def reset(self):
        self.dob.reset()
        self.feedforward.reset()
        self.last_f_cmp = 0.0

    def step(self, F_p, v, x, F_e, F_ref):
        f_cmp = self.feedforward.step(F_p, v)
        self.last_f_cmp = f_cmp
        return self.dob.step(F_p, v, x, F_e, F_ref + f_cmp)


def make_controller(config, dt: float) -> BaseController:
    """Instantiate the runtime controller for a configuration.

    Accepts None (passive), an already-built controller (returned as-is,
    reset), or one of the configuration dataclasses.
    """
    if config is None:
        return NullController()
    if isinstance(config, BaseController):
        config.reset()
        return config
    if isinstance(config, ProportionalFFConfig):
        return ProportionalFFController(config)
    if isinstance(config, DOBConfig):
        return DOBController(config, dt)
    if isinstance(config, PDConfig):
        return PDController(config, dt)
    if isinstance(config, CompositeConfig):
        return CompositeController(config, dt)
    raise TypeError(f"unsupported controller configuration: {config!r}")

"""Discrete-time force-feedback controllers.

All s-domain controller blocks are realized at a fixed sample time via the
Tustin transform (shared with :mod:`fluidsea.lti`), so a controller instance
is bound to one dt. Configurations are immutable dataclasses; runtime
controllers are single-owner mutable objects that :func:`make_controller`
builds at rest from a configuration, driven one sample at a time through
``step(F_p, v, x, F_ref) -> F_a``. No controller reads F_e: external-force
feedback acts through the stage gains the simulator applies.

A runtime with state (observer, PD, composite) keeps it in a closure, its
control law, and its ``step`` is that closure, so one controller step is
one call. The observer and feedforward laws are written once, in
:func:`_force_law`, which the observer and the composite build from; the PD
law is :func:`_pd_law`. Each also returns the getter ``state()`` and setter
``set_state(values)`` of the law's linear state. A runtime without state gives ``[]``.

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
from dataclasses import dataclass

from .lti import DiscreteFilter, Polynomial, RationalTF, discretize_tustin

__all__ = [
    "CompositeConfig",
    "CompositeController",
    "DOBConfig",
    "DOBController",
    "DahlEstimate",
    "FeedforwardConfig",
    "PDConfig",
    "PDController",
    "ProportionalFFConfig",
    "make_controller",
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
    """

    lam: float = 20.0
    m_n: float = 1.1116e-3
    b_n: float = 0.0
    k_n: float = 0.0

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError(f"lam must be > 0, got {self.lam:.6g}")


@dataclass(frozen=True)
class PDConfig:
    """PD position hold on the motor: F_a = K_p (x_target - x) - K_d v."""

    K_p: float
    K_d: float
    x_target: float = 0.0
    delay_samples: int = 0

    def __post_init__(self):
        for name in ("K_p", "K_d", "delay_samples"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name):.6g}")


@dataclass(frozen=True)
class DahlEstimate:
    """Hysteresis model used by the feedforward term (n = 1 shape)."""

    F_c: float
    sigma: float

    def __post_init__(self):
        for name in ("F_c", "sigma"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name):.6g}")


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
        # b_s > 0: the estimate's filter (b_e s + k_e)/(b_s s + k_s) must be proper
        for name in ("k_s", "b_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name):.6g}")
        for name in ("b_e", "k_e"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name):.6g}")


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
# Runtime controllers
# ---------------------------------------------------------------------------


class NullController:
    """Passive plant, F_a = 0; the base of every runtime controller.

    One instance serves one simulation loop and starts from rest. The
    simulator applies the two stage gains inside the integrator stages
    (analog proportional feedback; discrete controllers leave them at zero)
    and records ``last_f_cmp``, the feedforward force of the last step. That
    force moves only when ``has_feedforward`` is set; otherwise it stays 0.
    """

    stage_gain_internal = 0.0
    stage_gain_external = 0.0
    last_f_cmp = 0.0
    has_feedforward = False

    def __init__(self, cfg, dt: float):
        pass

    def step(self, F_p: float, v: float, x: float, F_ref: float) -> float:
        return 0.0

    def state(self) -> list:
        return []

    def set_state(self, values) -> None:
        pass


class ProportionalFFController(NullController):
    """Analog proportional force feedback.

    The gain is applied inside the integrator stages rather than held over
    the control period, so closed-loop traces match the equivalent scaled
    plant exactly. ``step`` therefore returns 0; the simulator reads the
    stage gains.
    """

    def __init__(self, cfg: ProportionalFFConfig, dt: float):
        if cfg.source == "internal":
            self.stage_gain_internal = cfg.K_f
        else:
            self.stage_gain_external = cfg.K_f


class _LawStep:
    """``step`` of a runtime whose law is a closure over its state, ``_law``.

    On an instance it gives that closure itself, so a controller step is one
    call, with the state in closure cells rather than instance attributes.
    It is a non-data descriptor: ``step`` stays defined on the class, and a
    wrapper assigned to ``ctrl.step`` on an instance takes precedence.
    """

    def __get__(self, ctrl, cls=None):
        return self if ctrl is None else ctrl._law


class _LawController(NullController):
    """A runtime controller whose law, ``_law``, and state accessors are closures."""

    step = _LawStep()


def _pd_law(cfg: PDConfig):
    """PD hold ``step(F_p, v, x, F_ref)``, delayed by ``cfg.delay_samples`` whole samples.

    The delayed values wait in a ring of that many slots, which starts at 0;
    the state lists them from the next value out to the last one in.
    """
    K_p, K_d, x_target, delay = cfg.K_p, cfg.K_d, cfg.x_target, cfg.delay_samples
    held = [0.0] * delay
    slot = 0

    def step(F_p, v, x, F_ref):
        nonlocal slot
        u = K_p * (x_target - x) - K_d * v
        if not delay:
            return u
        u, held[slot] = held[slot], u
        slot += 1
        if slot == delay:
            slot = 0
        return u

    def get():
        return held[slot:] + held[:slot]

    def set_(values):
        nonlocal slot
        held[:], slot = values, 0

    return step, get, set_


class PDController(_LawController):
    """PD hold F_a = K_p (x_target - x) - K_d v, delayed by whole samples."""

    def __init__(self, cfg: PDConfig, dt: float):
        self._law, self.state, self.set_state = _pd_law(cfg)


def _force_law(runtime, dt: float, observer: DOBConfig,
               feedforward: FeedforwardConfig | None = None):
    """The observer law, after the feedforward law if given: one ``step(F_p, v, x, F_ref)``.

    This is the one place where the two laws are written. The feedforward,
    if given, runs first: its force F_cmp is stored as ``runtime.last_f_cmp``
    and added to F_ref. It reads only F_p and v. The observer then runs on
    that reference and returns F_a; it rejects a non-finite input with
    ``ValueError``. Both keep their state in the closure.

    Observer: ``F_a = F_ref + lambda (Int (F_ref + F_p) - m_n v - b_n x - k_n Int x)``,
    both integrals trapezoidal (Tustin).

    Feedforward: two first-order Tustin filters of the line force, run as
    the scalar recurrence of :meth:`DiscreteFilter.step`, ``y = b0 u + z``
    then ``z = b1 u - a1 y``, and a trapezoidal integral of v. The Dahl
    estimate, if any, advances by the exact constant-velocity solution of
    the n = 1 law over each sample, driven by the estimated endpoint
    displacement; without one it stays 0.

    Its state: i_fp, u_prev, i_x, x_prev, then the feedforward's z_fp, z_vhat, i_v, v_prev,
    vhat_prev. The Dahl estimate is not linear and not in it.
    """
    half = 0.5 * dt
    lo, hi = -math.inf, math.inf
    lam, m_n, b_n, k_n = observer.lam, observer.m_n, observer.b_n, observer.k_n
    i_fp = u_prev = i_x = x_prev = 0.0  # integrals of F_ref + F_p and of x, last inputs
    if feedforward is not None:
        b_e, k_e, dahl = feedforward.b_e, feedforward.k_e, feedforward.dahl
        line = Polynomial([feedforward.b_s, feedforward.k_s])
        fb0, fb1, fa1 = _first_order(
            discretize_tustin(RationalTF(Polynomial([b_e, k_e]), line), dt)
        )
        vb0, vb1, va1 = _first_order(
            discretize_tustin(RationalTF(Polynomial([1.0, 0.0]), line), dt)
        )
        if dahl is not None:
            F_c, neg_sigma, exp = dahl.F_c, -dahl.sigma, math.exp
    z_fp = z_vhat = i_v = v_prev = vhat_prev = fd_hat = 0.0

    def step(F_p, v, x, F_ref):
        nonlocal i_fp, u_prev, i_x, x_prev, z_fp, z_vhat, i_v, v_prev, vhat_prev, fd_hat
        if feedforward is not None:
            i_v += half * (v + v_prev)
            v_prev = v
            y_fp = fb0 * F_p + z_fp
            z_fp = fb1 * F_p - fa1 * y_fp
            y_vhat = vb0 * F_p + z_vhat
            z_vhat = vb1 * F_p - va1 * y_vhat
            linear = b_e * v + k_e * i_v + y_fp
            vhat = v + y_vhat
            dx = half * (vhat + vhat_prev)
            vhat_prev = vhat
            if dahl is not None and dx != 0.0:
                s = 1.0 if dx > 0.0 else -1.0
                fd_hat = s * F_c + (fd_hat - s * F_c) * exp(neg_sigma * abs(dx) / F_c)
            f_cmp = runtime.last_f_cmp = linear + fd_hat
            F_ref = F_ref + f_cmp
        # A NaN fails every comparison, so the bounds also reject it.
        if not (lo < F_p < hi and lo < v < hi and lo < x < hi and lo < F_ref < hi):
            raise ValueError("non-finite controller input")
        u = F_ref + F_p
        i_fp += half * (u + u_prev)
        u_prev = u
        i_x += half * (x + x_prev)
        x_prev = x
        return F_ref + lam * (i_fp - m_n * v - b_n * x - k_n * i_x)

    def get():
        cells = [i_fp, u_prev, i_x, x_prev, z_fp, z_vhat, i_v, v_prev, vhat_prev]
        return cells if feedforward is not None else cells[:4]

    def set_(values):
        nonlocal i_fp, u_prev, i_x, x_prev, z_fp, z_vhat, i_v, v_prev, vhat_prev
        i_fp, u_prev, i_x, x_prev, *rest = values
        if feedforward is not None:
            z_fp, z_vhat, i_v, v_prev, vhat_prev = rest

    return step, get, set_


class DOBController(_LawController):
    """Integrator-form disturbance observer.

    Realizes ``F_a = F_ref + (lambda/s) (F_ref + F_p - P_n^{-1} V)`` with
    ``(lambda/s) P_n^{-1} V = lambda (m_n v + b_n x + k_n Int x)``, using the
    measured position for V/s. Integrals are trapezoidal (Tustin).
    """

    def __init__(self, cfg: DOBConfig, dt: float):
        self._law, self.state, self.set_state = _force_law(self, dt, cfg)


def _first_order(f: DiscreteFilter) -> tuple[float, float, float]:
    """(b0, b1, a1) of a first-order filter; any other order fails to unpack."""
    (b0, b1), (_, a1) = f.b, f.a
    return float(b0), float(b1), float(a1)


class CompositeController(_LawController):
    """Feedforward compensation feeding the observer force reference.

    One step runs the feedforward and then the observer on ``F_ref + F_cmp``,
    in a single closure of :func:`_force_law`.
    """

    has_feedforward = True

    def __init__(self, cfg: CompositeConfig, dt: float):
        self._law, self.state, self.set_state = _force_law(self, dt, cfg.dob, cfg.feedforward)


_RUNTIMES = {
    type(None): NullController,
    ProportionalFFConfig: ProportionalFFController,
    DOBConfig: DOBController,
    PDConfig: PDController,
    CompositeConfig: CompositeController,
}


def make_controller(config, dt: float) -> NullController:
    """A fresh runtime controller, at rest, for a configuration or None (passive).

    Raises TypeError for anything else, a runtime controller included.
    """
    cls = _RUNTIMES.get(type(config))
    if cls is None:
        raise TypeError(f"unsupported controller configuration: {config!r}")
    return cls(config, dt)

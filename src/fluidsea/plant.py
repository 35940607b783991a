"""Fixed-step simulation of the 2-DOF series-elastic lumped plant.

The model is a motor inertia with linear parallel damping/stiffness, coupled
through a massless hydraulic line (series stiffness + damping) to an endpoint
inertia with linear parallel damping/stiffness plus a rate-independent Dahl
hysteresis element. Inputs are the applied motor force F_a and the external
endpoint force F_e; all quantities are expressed in the motor rotation frame
(Nm, rad, rad/s).

Equations of motion (translational lumped-element convention):

    m    dv/dt   = F_a + F_p - b v - k x
    m_e  dv_e/dt = F_e - F_p - b_e v_e - k_e x_e - F_d
    F_p          = b_s (v_e - v) + k_s (x_e - x)
    dF_d/dt      = sigma v_e |1 - (F_d/F_c) sgn(v_e)|^n sgn(1 - (F_d/F_c) sgn(v_e))

with sgn(0) = 0, so rest is an exact equilibrium. The integrator is classical
RK4 at a fixed step shared with the control loop (default 1/2000 s); the
controller output is held for the step (zero-order hold). The Dahl state is
clamped to [-F_c, F_c] after each step, since RK4 can overshoot the bound by
O(dt^2).

One loop serves both ways of driving the endpoint. Under a force source
(:func:`simulate`) the endpoint is integrated and the external force is
evaluated at the RK4 stage times. Under a motion source
(:func:`simulate_backdriven`) the endpoint follows a
:class:`~fluidsea.signals.SineMotionSpec`, prescribed at the stage times,
and F_e is the measured output. The loop runs in plain Python scalars and
makes no call per step beyond the controller: the external and reference
forces are sampled a block of steps at a time, the four RK4 stages are
straight-line code in the loop body, and the sine motion is evaluated there
from constants hoisted out of it. Each step records only the columns it
computes, into flat buffers that the trace views without a copy; the other
columns are built after the loop, bit for bit (see :func:`_run`).

RK4 on a linear plant (F_c = 0) under a linear controller is an exact
one-step map of the plant and controller state. :func:`linear_model` probes
it from the loop, so no stage or control law is written twice, and
:func:`simulate` applies it by a prefix scan to a force-source run under no
controller or a proportional one. Every other run steps the loop.

The nonlinear viscous losses of a real hose are intentionally out of model
scope; the line stays a linear spring-damper.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from itertools import chain, repeat
from struct import Struct

import numpy as np

from .controllers import _LawController, make_controller
from .csvio import write_csv
from .signals import SineMotionSpec, as_signal

__all__ = [
    "DEFAULT_DT",
    "MAX_DT",
    "PlantParams",
    "PlantState",
    "SimTrace",
    "SimulationDivergedError",
    "linear_model",
    "simulate",
    "simulate_backdriven",
]

DEFAULT_DT = 1.0 / 2000.0
MAX_DT = 1e-2  # largest accepted step [s]: every dt lies in (0, MAX_DT]

# Divergence guard: positions/velocities beyond this are treated as blow-up.
_STATE_LIMIT = 1e9

TRACE_COLUMNS = ("t", "x", "v", "x_e", "v_e", "F_p", "F_e", "F_a", "F_d", "F_cmp", "F_ref")


class SimulationDivergedError(RuntimeError):
    """Simulation produced a non-finite or unbounded state."""

    def __init__(self, step_index: int):
        self.step_index = step_index
        super().__init__(f"simulation diverged at step {step_index}")

    def __reduce__(self):
        # rebuilt from the step alone; the default would pass the message as step_index
        return type(self), (self.step_index,)


@dataclass(frozen=True)
class PlantParams:
    """Lumped plant parameters in the motor rotation frame.

    m, m_e : inertia [Nm/(rad/s^2)]; b, b_e : damping [Nm/(rad/s)];
    k, k_e : parallel stiffness [Nm/rad]; b_s, k_s : line damping/stiffness;
    F_c : hysteresis amplitude [Nm]; sigma : hysteresis stiffness at
    equilibrium [Nm/rad]; n_dahl : shape exponent (1 = classic friction
    choice). F_c = 0 disables the hysteresis element.
    """

    m: float
    b: float
    k: float
    m_e: float
    b_e: float
    k_e: float
    b_s: float
    k_s: float
    F_c: float = 0.0
    sigma: float = 0.0
    n_dahl: float = 1.0

    def __post_init__(self):
        for name in ("m", "m_e", "k_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name):.6g}")
        for name in ("b", "b_e", "b_s", "k", "k_e", "F_c", "sigma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name):.6g}")
        if self.n_dahl <= 0:
            raise ValueError(f"n_dahl must be > 0, got {self.n_dahl:.6g}")

    @classmethod
    def gripper(cls) -> "PlantParams":
        """Identified parameters of the desk-scale diaphragm-gripper rig."""
        return cls(
            m=1.1116e-3,
            b=2.9814e-2,
            k=0.1642,
            m_e=0.7089e-3,
            b_e=3.3879e-2,
            k_e=0.0637,
            b_s=9.2453e-3,
            k_s=13.0782,
            F_c=0.032,
            sigma=12.8,
            n_dahl=1.0,
        )

    def without_hysteresis(self) -> "PlantParams":
        return replace(self, F_c=0.0, sigma=0.0)


@dataclass(frozen=True)
class PlantState:
    """Instantaneous plant state: motor x, v; endpoint x_e, v_e; Dahl force f_d."""

    x: float = 0.0
    v: float = 0.0
    x_e: float = 0.0
    v_e: float = 0.0
    f_d: float = 0.0


@dataclass
class SimTrace:
    """Uniformly sampled record of every plant and controller signal.

    Columns are sampled at the start of each control period, before the step
    is taken; all arrays share one length.
    """

    dt: float
    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    x_e: np.ndarray
    v_e: np.ndarray
    F_p: np.ndarray
    F_e: np.ndarray
    F_a: np.ndarray
    F_d: np.ndarray
    F_cmp: np.ndarray
    F_ref: np.ndarray

    def __post_init__(self):
        n = self.t.size
        for name in TRACE_COLUMNS[1:]:
            if getattr(self, name).size != n:
                raise ValueError(f"column {name} length mismatch")

    def __len__(self) -> int:
        return self.t.size

    def column(self, name: str) -> np.ndarray:
        if name not in TRACE_COLUMNS:
            raise KeyError(f"unknown trace column {name!r}")
        return getattr(self, name)

    def to_csv(self, path) -> None:
        """Write the trace with the contractual header, 9 significant digits."""
        write_csv(path, ",".join(TRACE_COLUMNS), [getattr(self, c) for c in TRACE_COLUMNS])


def simulate(
    params: PlantParams,
    controller=None,
    f_ext=None,
    f_ref=None,
    duration: float = 1.0,
    dt: float = DEFAULT_DT,
    initial_state: PlantState | None = None,
) -> SimTrace:
    """Closed-loop co-simulation of plant and controller under a force source.

    Each control period the controller consumes the sampled measurements
    (F_p, v, x, F_ref) and produces F_a, which is held for the step
    (zero-order hold). Memoryless proportional force feedback, on F_p or
    F_e, is instead folded into the integrator stages, so that feedback
    behaves as an analog gain. The external and reference forces are
    sampled a block of steps per call, on the loop as on the map (see
    :func:`~fluidsea.signals.as_signal`), the external one at the RK4 stage
    times; a callable is still called once per sample, with a float.

    A linear run, with ``params.F_c == 0`` and no controller or a
    proportional one, holds no control law's force from step to step.
    When its RK4 map of :func:`linear_model`, probed from the loop, has a
    spectral radius of at most 1 on (x, v, x_e, v_e), the run takes no loop:
    the map is applied to the inputs by a prefix scan. ``t``, ``F_e`` and
    ``F_ref`` are the loop's bit for bit, the other columns agree with it to
    roundoff (below 1e-13 relative on a 120 s chirp), and a divergence
    raises at the loop's step index. Every other run steps the loop: the
    scan's powers of an unstable map overflow, where the loop returns the
    all-zero record of a zero input from rest.

    Parameters
    ----------
    controller : controller configuration or None
        A fresh runtime is built from it for this run; None means F_a = 0
        (passive plant).
    f_ext, f_ref : signal spec, callable, float, or None
        External endpoint force and reference force over [0, duration];
        a callable is a function of t alone.

    Raises
    ------
    SimulationDivergedError
        Propagated with the failing step index.
    """
    steps = _steps(duration, dt)
    ctrl = make_controller(controller, dt)
    fe_fn, fref_fn = as_signal(f_ext), as_signal(f_ref)
    s0 = initial_state or PlantState()
    if params.F_c == 0.0 and not isinstance(ctrl, _LawController):
        model = linear_model(params, controller, dt)
        if _modal_radius(model[0]) <= 1.0:
            return _run_linear(model, params, ctrl, fe_fn, fref_fn, steps, dt, s0)
    return _run(params, ctrl, fe_fn, None, fref_fn, steps, dt, s0)[0]


def linear_model(params: PlantParams, controller, dt: float = DEFAULT_DT):
    """The exact one-step map of a linear plant and controller under a force source.

    Returns ``(phi, gamma_0, gamma_h, gamma_1)`` over the state
    (x, v, x_e, v_e, f_d, *c), where c is the runtime's ``state()``, such
    that one step of :func:`simulate` under a zero reference is

        s_{k+1} = phi s_k + gamma_0 f(t_k) + gamma_h f(t_k + dt/2) + gamma_1 f(t_k + dt)

    for the external force f. Each column is one :func:`_run` step of a runtime
    set to a unit state, read as the run's end state and the runtime's
    ``state()``: a unit initial state for ``phi``, a unit force at one stage
    time for each gamma. The unit is 2^-30, which keeps the probe step clear
    of the divergence guard. With ``F_c = 0`` the f_d row is the identity: f_d
    is a constant force, not a mode, and :func:`_modal_radius` drops it.
    Raises ``ValueError`` for a dt outside (0, 1e-2] s or a loop that is not
    linear: F_c nonzero, a Dahl estimate in the feedforward or a PD target off 0.
    """
    _steps(dt, dt)  # checks dt as simulate does
    dahl = getattr(getattr(controller, "feedforward", None), "dahl", None)
    if params.F_c != 0.0 or dahl is not None or getattr(controller, "x_target", 0.0) != 0.0:
        raise ValueError("linear_model needs F_c = 0, no Dahl estimate and a PD target of 0")
    zero = as_signal(None)
    unit = 2.0**-30  # a power of two: scaling by it rounds exactly

    def after_one_step(s, fe_fn):
        ctrl = make_controller(controller, dt)
        ctrl.set_state(s[5:])
        end = _run(params, ctrl, fe_fn, None, zero, 1, dt, PlantState(*s[:5]))[1]
        return np.array([*end, *ctrl.state()]) / unit

    n = 5 + len(make_controller(controller, dt).state())
    phi = np.array([after_one_step(s, zero) for s in (unit * np.eye(n)).tolist()]).T
    gammas = [after_one_step([0.0] * n, lambda t, at=at: np.where(t == at, unit, 0.0))
              for at in (0.0, 0.5 * dt, dt)]
    return phi, *gammas


def _modal_radius(phi) -> float:
    """The spectral radius of a :func:`linear_model` map over its modes, f_d left out."""
    return np.max(np.abs(np.linalg.eigvals(np.delete(np.delete(phi, 4, 0), 4, 1))))


# Columns per block of the linear run: bounds the scan's temporaries to ~1 MB.
_BLOCK = 1 << 15
# Steps per block of sampled forces in the loop: bounds the sample lists to ~0.3 MB.
_SAMPLE_BLOCK = 2048


def _run_linear(model, params, ctrl, fe_fn, fref_fn, steps, dt, s0) -> SimTrace:
    """A linear force-source run: the map ``model`` over the whole record at once.

    The inputs are evaluated at the loop's stage times, i dt, i dt + dt/2 and
    i dt + dt. The states come from a doubling prefix scan over
    s_0 and the input terms u_k: ``S[:, j:] += phi^j S[:, :-j]`` for
    j = 1, 2, 4, ..., each round taken in blocks from the end so that it
    reads the previous round's columns. The derived columns follow the
    loop's operation order, and the first state after a step that is
    non-finite or beyond ``_STATE_LIMIT`` raises at that step's index.
    """
    phi, g0, gh, g1 = model
    gamma = np.column_stack((g0, gh, g1))
    t = np.arange(steps) * dt
    h = 0.5 * dt
    F_e, F_ref = np.empty(steps), np.empty(steps)
    S = np.empty((5, steps + 1))
    S[:, 0] = (s0.x, s0.v, s0.x_e, s0.v_e, s0.f_d)
    for lo in range(0, steps, _BLOCK):
        tb = t[lo:lo + _BLOCK]
        f0 = F_e[lo:lo + _BLOCK] = fe_fn(tb)
        F_ref[lo:lo + _BLOCK] = fref_fn(tb)
        forces = np.stack((f0, fe_fn(tb + h), fe_fn(tb + dt)))
        S[:, lo + 1:lo + 1 + tb.size] = gamma @ forces

    with np.errstate(over="ignore", invalid="ignore"):
        power, shift = phi, 1
        while shift <= steps:
            for hi in range(steps + 1, shift, -_BLOCK):
                lo = max(shift, hi - _BLOCK)
                S[:, lo:hi] += power @ S[:, lo - shift:hi - shift]
            power, shift = power @ power, 2 * shift
        ok = np.isfinite(S[4, 1:])
        for row in S[:4, 1:]:
            ok &= np.abs(row) <= _STATE_LIMIT
    if not ok.all():
        raise SimulationDivergedError(int(np.argmin(ok)))

    x, v, x_e, v_e, f_d = S[:, :steps]
    F_p = _line_force(params, x, v, x_e, v_e)
    # A runtime that is no control law returns 0.0 from step, the held part
    # of F_a, and has no feedforward, so its F_cmp is 0.0. F_a is formed a
    # block at a time, as F_p is, so its temporaries stay small.
    gi, ge = ctrl.stage_gain_internal, ctrl.stage_gain_external
    F_a = np.empty(steps)
    for lo in range(0, steps, _SAMPLE_BLOCK):
        hi = lo + _SAMPLE_BLOCK
        F_a[lo:hi] = 0.0 + gi * F_p[lo:hi] + ge * F_e[lo:hi]
    return SimTrace(
        dt=dt, t=t, x=x, v=v, x_e=x_e, v_e=v_e, F_p=F_p, F_e=F_e, F_a=F_a, F_d=f_d,
        F_cmp=np.zeros(steps), F_ref=F_ref,
    )


def simulate_backdriven(
    params: PlantParams,
    controller,
    motion: SineMotionSpec,
    duration: float,
    dt: float = DEFAULT_DT,
    f_ref=None,
) -> SimTrace:
    """Co-simulation with the endpoint motion imposed kinematically.

    Models the bonded-finger backdrive test: the endpoint position is an
    authoritative motion source, the sine ``motion``, and the external force
    becomes the measured output

        F_e = m_e a_e + b_e v_e + k_e x_e + F_d + F_p.

    This is the loop of :func:`simulate`, started from rest, with the
    endpoint prescribed at the stage times instead of integrated; only the
    motor and the Dahl state are integrated. The controller runs as in
    :func:`simulate`, except that external-force proportional feedback uses
    the sampled computed F_e with zero-order hold. Any ``motion`` other
    than a :class:`SineMotionSpec` raises ``TypeError``.
    """
    if not isinstance(motion, SineMotionSpec):
        raise TypeError(f"motion must be a SineMotionSpec, not {type(motion).__name__}")
    steps = _steps(duration, dt)
    ctrl = make_controller(controller, dt)
    return _run(params, ctrl, None, motion, as_signal(f_ref), steps, dt, PlantState())[0]


def _steps(duration: float, dt: float) -> int:
    if not (0.0 < dt <= MAX_DT):
        raise ValueError("dt must lie in (0, 1e-2] s")
    steps = int(round(duration / dt))
    if steps < 1:
        raise ValueError("duration shorter than one step")
    return steps


def _samples(fn, steps: int, dt: float, shift: float, out=None):
    """The sampler ``fn`` at i dt + shift for i in range(steps), one block of steps per call.

    For t = i dt >= 0, t + 0.0 is t itself, so a zero shift gives the samples at i dt.
    Each block is also copied into the array ``out``, if given, at its steps.
    """

    def blocks():
        for lo in range(0, steps, _SAMPLE_BLOCK):
            t = np.arange(lo, min(steps, lo + _SAMPLE_BLOCK)) * dt
            f = fn(t + shift)
            if out is not None:
                out[lo:lo + f.size] = f
            yield f.tolist()

    return chain.from_iterable(blocks())


def _line_force(params, x, v, x_e, v_e) -> np.ndarray:
    """F_p = b_s (v_e - v) + k_s (x_e - x) in the loop's operation order.

    It is taken ``_SAMPLE_BLOCK`` steps at a time, so its temporaries stay small.
    """
    F_p = np.empty(x.size)
    for lo in range(0, x.size, _SAMPLE_BLOCK):
        hi = lo + _SAMPLE_BLOCK
        F_p[lo:hi] = params.b_s * (v_e[lo:hi] - v[lo:hi]) + params.k_s * (x_e[lo:hi] - x[lo:hi])
    return F_p


def _run(params, ctrl, fe_fn, motion, fref_fn, steps, dt, s0):
    """The simulation loop: the endpoint is driven by ``fe_fn`` or, if given, by ``motion``.

    This is the one place where the RK4 stages and the Dahl law are written.
    Each step advances (x, v, x_e, v_e, f_d) by dt under the held actuator
    force ``fa``, with proportional force feedback applied inside the stages
    (``kf_int`` on the line force, ``kf_stage`` on the external force, which
    is evaluated at the three stage times ``fe0, feh, fe1``). Stage j reads
    the state ``xj, vj, xej, vej, fdj`` (plain ``x, v, xe, ve, fd`` for
    j = 1) and yields the rates ``vj, dvj, vej, dvej, dfdj``: the position
    rates are the stage velocities themselves.

    ``ctrl`` is a runtime controller and ``fe_fn``, ``fref_fn`` are
    samplers as :func:`~fluidsea.signals.as_signal` returns them, called
    on a block of ``_SAMPLE_BLOCK`` steps' times at once: ``i dt`` for the
    force and the reference, and ``i dt + dt/2`` and ``i dt + dt`` for the
    later stages. The run starts from the state ``s0``. The endpoint is
    integrated when ``forced``. Under a motion source its stage states are
    the sine at t, t + dt/2 and t + dt, and its own rates and update are
    skipped.

    Each step records only what it computes: x, v, x_e, v_e, F_d and F_a,
    packed as one row by a single ``struct`` call, F_e under a motion
    source, and F_cmp when the controller has a feedforward term. The other
    columns are built after the loop, bit for bit as the step would have
    recorded them: ``t`` as ``i dt``, F_p from the state columns in the
    step's operation order, F_e under a force source and F_ref from the
    sampled blocks, and F_cmp as zeros. It returns the trace and the state
    (x, v, x_e, v_e, f_d) after the last step, which no row of the trace holds.
    """
    m, b, k = params.m, params.b, params.k
    m_e, b_e, k_e = params.m_e, params.b_e, params.k_e
    b_s, k_s = params.b_s, params.k_s
    F_c, sigma, n = params.F_c, params.sigma, params.n_dahl
    dahl_on = F_c > 0.0
    general_n = n != 1.0
    copysign = math.copysign

    x, v, xe, ve, fd = s0.x, s0.v, s0.x_e, s0.v_e, s0.f_d

    # Flat float buffers that SimTrace views without a copy: one row of
    # (x, v, x_e, v_e, F_d, F_a) per step, packed by one call, and one
    # buffer per column recorded only by some runs.
    def buffer(width=1):
        return array("d", [0.0]) * (width * steps)

    row = Struct("6d")
    rows, record, row_bytes = buffer(6), row.pack_into, row.size
    record_cmp = ctrl.has_feedforward
    c_cmp = buffer() if record_cmp else None
    ctrl_step = ctrl.step
    kf_int = ctrl.stage_gain_internal
    kf_ext = ctrl.stage_gain_external
    h = 0.5 * dt
    w = dt / 6.0
    # The divergence guard compares: NaN fails every comparison and +-inf the
    # bounds, as with abs(.) <= limit and isfinite.
    limit, neg_limit = _STATE_LIMIT, -_STATE_LIMIT
    inf, neg_inf = math.inf, -math.inf

    forced = motion is None
    if forced:
        kf_stage = kf_ext
        F_e = np.empty(steps)
        fe0s = _samples(fe_fn, steps, dt, 0.0, F_e)
        fehs, fe1s = (_samples(fe_fn, steps, dt, shift) for shift in (h, dt))
    else:
        c_fe = buffer()
        # x_e = a sin(omega t), v_e = (a omega) cos(omega t) and
        # a_e = (-a omega^2) sin(omega t), as SineMotionSpec evaluates them.
        a, omega = motion.amplitude, motion.omega
        a_w, a_ww = a * omega, -a * omega**2
        sin, cos = math.sin, math.cos
        # A motion source holds external feedback in F_a instead; the stage
        # term becomes -0.0 * 0.0 = -0.0, which adds nothing to any float.
        kf_stage = -0.0
        fe0s = fehs = fe1s = repeat(0.0)

    F_ref = np.empty(steps)
    frefs = _samples(fref_fn, steps, dt, 0.0, F_ref)
    try:
        for i, fref, fe0, feh, fe1 in zip(range(steps), frefs, fe0s, fehs, fe1s):
            if forced:
                fp = b_s * (ve - v) + k_s * (xe - x)
                fa = ctrl_step(fp, v, x, fref)
                fa1 = fa + kf_int * fp + kf_ext * fe0
            else:
                t = i * dt
                sin_t = sin(omega * t)
                xe, ve = a * sin_t, a_w * cos(omega * t)
                fp = b_s * (ve - v) + k_s * (xe - x)
                fe = m_e * (a_ww * sin_t) + b_e * ve + k_e * xe + fd + fp
                fa = ctrl_step(fp, v, x, fref) + kf_ext * fe
                fa1 = fa + kf_int * fp
                c_fe[i] = fe
                wt = omega * (t + h)
                xe2 = xe3 = a * sin(wt)
                ve2 = ve3 = a_w * cos(wt)
                wt = omega * (t + dt)
                xe4, ve4 = a * sin(wt), a_w * cos(wt)
            record(rows, i * row_bytes, x, v, xe, ve, fd, fa1)
            if record_cmp:
                c_cmp[i] = ctrl.last_f_cmp

            # fa1 is stage 1's applied force, fa + kf_int fp + kf_stage fe0, as the
            # later stages form theirs; a motion source's kf_stage fe0 is -0.0,
            # which adds nothing.
            dv1 = (fa1 + fp - b * v - k * x) / m
            if dahl_on and ve != 0.0:
                g = 1.0 - (fd / F_c) * (1.0 if ve > 0.0 else -1.0)
                dfd1 = sigma * ve * (abs(g) ** n * copysign(1.0, g) if general_n else g)
            else:
                dfd1 = 0.0

            x2 = x + h * v
            v2 = v + h * dv1
            if forced:
                dve1 = (fe0 - fp - b_e * ve - k_e * xe - fd) / m_e
                xe2 = xe + h * ve
                ve2 = ve + h * dve1
            fd2 = fd + h * dfd1
            fp = b_s * (ve2 - v2) + k_s * (xe2 - x2)
            dv2 = (fa + kf_int * fp + kf_stage * feh + fp - b * v2 - k * x2) / m
            if dahl_on and ve2 != 0.0:
                g = 1.0 - (fd2 / F_c) * (1.0 if ve2 > 0.0 else -1.0)
                dfd2 = sigma * ve2 * (abs(g) ** n * copysign(1.0, g) if general_n else g)
            else:
                dfd2 = 0.0

            x3 = x + h * v2
            v3 = v + h * dv2
            if forced:
                dve2 = (feh - fp - b_e * ve2 - k_e * xe2 - fd2) / m_e
                xe3 = xe + h * ve2
                ve3 = ve + h * dve2
            fd3 = fd + h * dfd2
            fp = b_s * (ve3 - v3) + k_s * (xe3 - x3)
            dv3 = (fa + kf_int * fp + kf_stage * feh + fp - b * v3 - k * x3) / m
            if dahl_on and ve3 != 0.0:
                g = 1.0 - (fd3 / F_c) * (1.0 if ve3 > 0.0 else -1.0)
                dfd3 = sigma * ve3 * (abs(g) ** n * copysign(1.0, g) if general_n else g)
            else:
                dfd3 = 0.0

            x4 = x + dt * v3
            v4 = v + dt * dv3
            if forced:
                dve3 = (feh - fp - b_e * ve3 - k_e * xe3 - fd3) / m_e
                xe4 = xe + dt * ve3
                ve4 = ve + dt * dve3
            fd4 = fd + dt * dfd3
            fp = b_s * (ve4 - v4) + k_s * (xe4 - x4)
            dv4 = (fa + kf_int * fp + kf_stage * fe1 + fp - b * v4 - k * x4) / m
            if dahl_on and ve4 != 0.0:
                g = 1.0 - (fd4 / F_c) * (1.0 if ve4 > 0.0 else -1.0)
                dfd4 = sigma * ve4 * (abs(g) ** n * copysign(1.0, g) if general_n else g)
            else:
                dfd4 = 0.0

            x += w * (v + 2.0 * (v2 + v3) + v4)
            v += w * (dv1 + 2.0 * (dv2 + dv3) + dv4)
            if forced:
                dve4 = (fe1 - fp - b_e * ve4 - k_e * xe4 - fd4) / m_e
                xe += w * (ve + 2.0 * (ve2 + ve3) + ve4)
                ve += w * (dve1 + 2.0 * (dve2 + dve3) + dve4)
            else:
                xe, ve = xe4, ve4
            fd += w * (dfd1 + 2.0 * (dfd2 + dfd3) + dfd4)
            if dahl_on:
                if fd > F_c:
                    fd = F_c
                elif fd < -F_c:
                    fd = -F_c
            if not (
                neg_limit <= x <= limit and neg_limit <= v <= limit
                and neg_limit <= xe <= limit and neg_limit <= ve <= limit
                and neg_inf < fd < inf
            ):
                raise SimulationDivergedError(i)
    except OverflowError as exc:  # abs(g) ** n of a general Dahl exponent, not inf
        raise SimulationDivergedError(i) from exc

    end = (x, v, xe, ve, fd)
    x, v, x_e, v_e, F_d, F_a = np.frombuffer(rows).reshape(steps, 6).T
    t = np.arange(steps, dtype=float)
    t *= dt  # i dt, exactly: i is an integer float
    return SimTrace(
        dt=dt, t=t, x=x, v=v, x_e=x_e, v_e=v_e, F_p=_line_force(params, x, v, x_e, v_e),
        F_e=F_e if forced else np.frombuffer(c_fe), F_a=F_a, F_d=F_d,
        F_cmp=np.frombuffer(c_cmp) if record_cmp else np.zeros(steps), F_ref=F_ref,
    ), end

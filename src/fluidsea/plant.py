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
external force is evaluated at the RK4 stage times while the controller
output is held for the step (zero-order hold). The Dahl state is clamped to
[-F_c, F_c] after each step, since RK4 can overshoot the bound by O(dt^2).

The force-source loop of :func:`simulate` runs in plain Python scalars: the
four RK4 stages are straight-line code in one closure, and each trace column
is recorded into its own flat float buffer, which the returned trace views
without a copy.

The nonlinear viscous losses of a real hose are intentionally out of model
scope; the line stays a linear spring-damper.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace

import numpy as np

from .signals import as_signal

__all__ = [
    "DEFAULT_DT",
    "PlantParams",
    "PlantState",
    "SimTrace",
    "SimulationDivergedError",
    "dahl_rate",
    "internal_force",
    "simulate",
    "simulate_backdriven",
    "step",
]

DEFAULT_DT = 1.0 / 2000.0

# Divergence guard: positions/velocities beyond this are treated as blow-up.
_STATE_LIMIT = 1e9

TRACE_COLUMNS = ("t", "x", "v", "x_e", "v_e", "F_p", "F_e", "F_a", "F_d", "F_cmp", "F_ref")


class SimulationDivergedError(RuntimeError):
    """Simulation produced a non-finite or unbounded state."""

    def __init__(self, step_index: int, message: str = ""):
        self.step_index = step_index
        super().__init__(
            message or f"simulation diverged at step {step_index}"
        )


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
        if self.m <= 0 or self.m_e <= 0:
            raise ValueError("inertias m, m_e must be > 0")
        if self.k_s <= 0:
            raise ValueError("line stiffness k_s must be > 0")
        for name in ("b", "b_e", "b_s", "k", "k_e", "F_c", "sigma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.n_dahl <= 0:
            raise ValueError("n_dahl must be > 0")

    @classmethod
    def gripper(cls, with_hysteresis: bool = True) -> "PlantParams":
        """Identified parameters of the desk-scale diaphragm-gripper rig."""
        p = cls(
            m=1.1116e-3,
            b=2.9814e-2,
            k=0.1642,
            m_e=0.7089e-3,
            b_e=3.3879e-2,
            k_e=0.0637,
            b_s=9.2453e-3,
            k_s=13.0782,
            F_c=0.032 if with_hysteresis else 0.0,
            sigma=12.8 if with_hysteresis else 0.0,
            n_dahl=1.0,
        )
        return p

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


def internal_force(state: PlantState, params: PlantParams) -> float:
    """Hydraulic line force F_p = b_s (v_e - v) + k_s (x_e - x) [Nm]."""
    return params.b_s * (state.v_e - state.v) + params.k_s * (state.x_e - state.x)


def dahl_rate(f_d: float, v_e: float, params: PlantParams) -> float:
    """Time derivative of the Dahl friction state [Nm/s].

    For the n = 1 shape this is ``sigma v_e (1 - (f_d/F_c) sgn(v_e))``; the
    general-n form follows the displacement-domain law multiplied by v_e.
    F_c = 0 disables the element (returns 0, never divides by zero).
    """
    F_c = params.F_c
    if F_c == 0.0 or v_e == 0.0:
        return 0.0
    s = 1.0 if v_e > 0.0 else -1.0
    g = 1.0 - (f_d / F_c) * s
    if params.n_dahl == 1.0:
        return params.sigma * v_e * g
    return params.sigma * v_e * abs(g) ** params.n_dahl * math.copysign(1.0, g)


def _make_stepper(params: PlantParams):
    """Compile one RK4 step into a closure over unpacked parameters.

    The returned function advances (x, v, x_e, v_e, f_d) by dt given the held
    actuator force ``fa``, optional proportional force-feedback gains applied
    inside the stages (``kf_int`` on the line force, ``kf_ext`` on the
    external force), and the external force evaluated at the three stage
    times ``fe0, feh, fe1``.

    The four stages are written out as straight-line scalar code. Stage j
    reads the state ``xj, vj, xej, vej, fdj`` (plain ``x, v, xe, ve, fd`` for
    j = 1) and yields the rates ``vj, dvj, vej, dvej, dfdj``: the position
    rates are the stage velocities themselves.
    """
    m, b, k = params.m, params.b, params.k
    m_e, b_e, k_e = params.m_e, params.b_e, params.k_e
    b_s, k_s = params.b_s, params.k_s
    F_c, sigma, n = params.F_c, params.sigma, params.n_dahl
    dahl_on = F_c > 0.0
    general_n = n != 1.0
    copysign = math.copysign

    def rk4(x, v, xe, ve, fd, fa, kf_int, kf_ext, fe0, feh, fe1, dt):
        h = dt * 0.5
        fp = b_s * (ve - v) + k_s * (xe - x)
        dv1 = (fa + kf_int * fp + kf_ext * fe0 + fp - b * v - k * x) / m
        dve1 = (fe0 - fp - b_e * ve - k_e * xe - fd) / m_e
        if dahl_on and ve != 0.0:
            g = 1.0 - (fd / F_c) * (1.0 if ve > 0.0 else -1.0)
            dfd1 = sigma * ve * abs(g) ** n * copysign(1.0, g) if general_n else sigma * ve * g
        else:
            dfd1 = 0.0

        x2 = x + h * v
        v2 = v + h * dv1
        xe2 = xe + h * ve
        ve2 = ve + h * dve1
        fd2 = fd + h * dfd1
        fp = b_s * (ve2 - v2) + k_s * (xe2 - x2)
        dv2 = (fa + kf_int * fp + kf_ext * feh + fp - b * v2 - k * x2) / m
        dve2 = (feh - fp - b_e * ve2 - k_e * xe2 - fd2) / m_e
        if dahl_on and ve2 != 0.0:
            g = 1.0 - (fd2 / F_c) * (1.0 if ve2 > 0.0 else -1.0)
            dfd2 = sigma * ve2 * abs(g) ** n * copysign(1.0, g) if general_n else sigma * ve2 * g
        else:
            dfd2 = 0.0

        x3 = x + h * v2
        v3 = v + h * dv2
        xe3 = xe + h * ve2
        ve3 = ve + h * dve2
        fd3 = fd + h * dfd2
        fp = b_s * (ve3 - v3) + k_s * (xe3 - x3)
        dv3 = (fa + kf_int * fp + kf_ext * feh + fp - b * v3 - k * x3) / m
        dve3 = (feh - fp - b_e * ve3 - k_e * xe3 - fd3) / m_e
        if dahl_on and ve3 != 0.0:
            g = 1.0 - (fd3 / F_c) * (1.0 if ve3 > 0.0 else -1.0)
            dfd3 = sigma * ve3 * abs(g) ** n * copysign(1.0, g) if general_n else sigma * ve3 * g
        else:
            dfd3 = 0.0

        x4 = x + dt * v3
        v4 = v + dt * dv3
        xe4 = xe + dt * ve3
        ve4 = ve + dt * dve3
        fd4 = fd + dt * dfd3
        fp = b_s * (ve4 - v4) + k_s * (xe4 - x4)
        dv4 = (fa + kf_int * fp + kf_ext * fe1 + fp - b * v4 - k * x4) / m
        dve4 = (fe1 - fp - b_e * ve4 - k_e * xe4 - fd4) / m_e
        if dahl_on and ve4 != 0.0:
            g = 1.0 - (fd4 / F_c) * (1.0 if ve4 > 0.0 else -1.0)
            dfd4 = sigma * ve4 * abs(g) ** n * copysign(1.0, g) if general_n else sigma * ve4 * g
        else:
            dfd4 = 0.0

        w = dt / 6.0
        x += w * (v + 2.0 * (v2 + v3) + v4)
        v += w * (dv1 + 2.0 * (dv2 + dv3) + dv4)
        xe += w * (ve + 2.0 * (ve2 + ve3) + ve4)
        ve += w * (dve1 + 2.0 * (dve2 + dve3) + dve4)
        fd += w * (dfd1 + 2.0 * (dfd2 + dfd3) + dfd4)
        if dahl_on:
            if fd > F_c:
                fd = F_c
            elif fd < -F_c:
                fd = -F_c
        return x, v, xe, ve, fd

    return rk4


def step(
    state: PlantState,
    params: PlantParams,
    F_a: float,
    F_e: float,
    dt: float,
) -> PlantState:
    """One RK4 step with both inputs held constant over the step.

    Raises
    ------
    SimulationDivergedError
        If the step produces a non-finite or unbounded state.
    """
    if not (0.0 < dt <= 1e-2):
        raise ValueError("dt must lie in (0, 1e-2] s")
    rk4 = _make_stepper(params)
    x, v, xe, ve, fd = rk4(
        state.x, state.v, state.x_e, state.v_e, state.f_d,
        F_a, 0.0, 0.0, F_e, F_e, F_e, dt,
    )
    new = PlantState(x, v, xe, ve, fd)
    if not all(map(math.isfinite, (x, v, xe, ve, fd))) or max(
        abs(x), abs(v), abs(xe), abs(ve)
    ) > _STATE_LIMIT:
        raise SimulationDivergedError(0)
    return new


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
        data = np.column_stack([getattr(self, c) for c in TRACE_COLUMNS])
        with open(path, "w", newline="") as fh:
            fh.write(",".join(TRACE_COLUMNS) + "\n")
            np.savetxt(fh, data, fmt="%.9g", delimiter=",")

    @classmethod
    def from_csv(cls, path) -> "SimTrace":
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            if tuple(header) != TRACE_COLUMNS:
                raise ValueError(f"unexpected trace header {header}")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        cols = {name: data[:, i].copy() for i, name in enumerate(TRACE_COLUMNS)}
        t = cols.pop("t")
        dt = float(t[1] - t[0]) if t.size > 1 else DEFAULT_DT
        return cls(dt=dt, t=t, **cols)


def simulate(
    params: PlantParams,
    controller=None,
    f_ext=None,
    f_ref=None,
    duration: float = 1.0,
    dt: float = DEFAULT_DT,
    initial_state: PlantState | None = None,
) -> SimTrace:
    """Closed-loop co-simulation of plant and controller.

    Each control period the controller consumes the sampled measurements
    (F_p, v, x, F_e, F_ref) and produces F_a, which is held for the step
    (zero-order hold). Memoryless proportional force feedback is instead
    folded into the integrator stages, so that feedback behaves as an analog
    gain. The external force is evaluated at the RK4 stage times.

    Parameters
    ----------
    controller : ControllerConfig, runtime controller, or None
        None means F_a = 0 (passive plant).
    f_ext, f_ref : signal spec, callable, float, or None
        External endpoint force and reference force over [0, duration].

    Raises
    ------
    SimulationDivergedError
        Propagated with the failing step index.
    """
    from .controllers import make_controller  # deferred to avoid import cycle

    if not (0.0 < dt <= 1e-2):
        raise ValueError("dt must lie in (0, 1e-2] s")
    n = int(round(duration / dt))
    if n < 1:
        raise ValueError("duration shorter than one step")

    ctrl = make_controller(controller, dt)
    fe_fn = as_signal(f_ext)
    fref_fn = as_signal(f_ref)
    rk4 = _make_stepper(params)

    s0 = initial_state or PlantState()
    x, v, xe, ve, fd = s0.x, s0.v, s0.x_e, s0.v_e, s0.f_d
    b_s, k_s = params.b_s, params.k_s

    # One flat buffer per trace column; SimTrace views them without a copy.
    buffers = [array("d", [0.0]) * n for _ in TRACE_COLUMNS]
    c_t, c_x, c_v, c_xe, c_ve, c_fp, c_fe, c_fa, c_fd, c_cmp, c_ref = buffers
    ctrl_step = ctrl.step
    kf_int = getattr(ctrl, "stage_gain_internal", 0.0)
    kf_ext = getattr(ctrl, "stage_gain_external", 0.0)
    half = 0.5 * dt
    limit = _STATE_LIMIT
    isfinite = math.isfinite

    for i in range(n):
        t = i * dt
        fp = b_s * (ve - v) + k_s * (xe - x)
        fe0 = fe_fn(t)
        fref = fref_fn(t)
        fa = ctrl_step(fp, v, x, fe0, fref)
        c_t[i] = t
        c_x[i] = x
        c_v[i] = v
        c_xe[i] = xe
        c_ve[i] = ve
        c_fp[i] = fp
        c_fe[i] = fe0
        c_fa[i] = fa + kf_int * fp + kf_ext * fe0
        c_fd[i] = fd
        c_cmp[i] = ctrl.last_f_cmp
        c_ref[i] = fref
        x, v, xe, ve, fd = rk4(
            x, v, xe, ve, fd, fa, kf_int, kf_ext,
            fe0, fe_fn(t + half), fe_fn(t + dt), dt,
        )
        # A NaN fails every comparison, so `<=` also rejects non-finite states.
        if not (
            abs(x) <= limit and abs(v) <= limit and abs(xe) <= limit and abs(ve) <= limit
            and isfinite(fd)
        ):
            raise SimulationDivergedError(i)

    return SimTrace(
        dt=dt,
        **{name: np.frombuffer(buf) for name, buf in zip(TRACE_COLUMNS, buffers)},
    )


def _trace_from_matrix(dt: float, cols: np.ndarray) -> SimTrace:
    return SimTrace(
        dt=dt,
        **{name: cols[:, i].copy() for i, name in enumerate(TRACE_COLUMNS)},
    )


def simulate_backdriven(
    params: PlantParams,
    controller,
    motion,
    duration: float,
    dt: float = DEFAULT_DT,
    f_ref=None,
) -> SimTrace:
    """Co-simulation with the endpoint motion imposed kinematically.

    Models the bonded-finger backdrive test: the endpoint position is an
    authoritative motion source (``motion`` provides position, velocity and
    acceleration of x_e over time), and the external force becomes the
    measured output

        F_e = m_e a_e + b_e v_e + k_e x_e + F_d + F_p.

    Only the motor states and the Dahl state are integrated. The controller
    runs exactly as in :func:`simulate`; proportional internal force
    feedback is applied inside the stages, other controllers are held over
    the step. External-force proportional feedback uses the sampled computed
    F_e with zero-order hold.
    """
    from .controllers import make_controller

    if not (0.0 < dt <= 1e-2):
        raise ValueError("dt must lie in (0, 1e-2] s")
    n = int(round(duration / dt))
    if n < 1:
        raise ValueError("duration shorter than one step")

    ctrl = make_controller(controller, dt)
    fref_fn = as_signal(f_ref)
    kf_int = getattr(ctrl, "stage_gain_internal", 0.0)
    kf_ext = getattr(ctrl, "stage_gain_external", 0.0)

    m, b, k = params.m, params.b, params.k
    m_e, b_e, k_e = params.m_e, params.b_e, params.k_e
    b_s, k_s = params.b_s, params.k_s
    F_c, sigma, n_exp = params.F_c, params.sigma, params.n_dahl
    dahl_on = F_c > 0.0
    general_n = n_exp != 1.0

    pos = motion.position
    vel = motion.velocity
    acc = motion.acceleration

    def rhs(x, v, fd, fa, xe, ve):
        fp = b_s * (ve - v) + k_s * (xe - x)
        dv = (fa + kf_int * fp + fp - b * v - k * x) / m
        if dahl_on and ve != 0.0:
            s = 1.0 if ve > 0.0 else -1.0
            g = 1.0 - (fd / F_c) * s
            if general_n:
                dfd = sigma * ve * abs(g) ** n_exp * math.copysign(1.0, g)
            else:
                dfd = sigma * ve * g
        else:
            dfd = 0.0
        return v, dv, dfd

    x = v = fd = 0.0
    half = 0.5 * dt
    cols = np.empty((n, 11))
    for i in range(n):
        t = i * dt
        xe0, ve0 = float(pos(t)), float(vel(t))
        fp = b_s * (ve0 - v) + k_s * (xe0 - x)
        fe = m_e * float(acc(t)) + b_e * ve0 + k_e * xe0 + fd + fp
        fref = fref_fn(t)
        fa = ctrl.step(fp, v, x, fe, fref) + kf_ext * fe
        cols[i] = (
            t, x, v, xe0, ve0, fp, fe, fa + kf_int * fp, fd, ctrl.last_f_cmp, fref,
        )
        xeh, veh = float(pos(t + half)), float(vel(t + half))
        xe1, ve1 = float(pos(t + dt)), float(vel(t + dt))
        k1 = rhs(x, v, fd, fa, xe0, ve0)
        k2 = rhs(x + half * k1[0], v + half * k1[1], fd + half * k1[2], fa, xeh, veh)
        k3 = rhs(x + half * k2[0], v + half * k2[1], fd + half * k2[2], fa, xeh, veh)
        k4 = rhs(x + dt * k3[0], v + dt * k3[1], fd + dt * k3[2], fa, xe1, ve1)
        w = dt / 6.0
        x += w * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
        v += w * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
        fd += w * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2])
        if dahl_on:
            fd = min(max(fd, -F_c), F_c)
        if not (math.isfinite(x) and math.isfinite(v) and math.isfinite(fd)) or (
            abs(x) > _STATE_LIMIT or abs(v) > _STATE_LIMIT
        ):
            raise SimulationDivergedError(i)

    return _trace_from_matrix(dt, cols)

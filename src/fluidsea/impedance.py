"""Endpoint impedance measurement, work loops, Dahl fitting, and Z-width.

Impedance is measured per frequency from closed-loop simulation: a sinusoidal
external force excites the endpoint, the simulation settles for a fixed
number of cycles, amplitude drift between consecutive cycles is checked, and
the fundamental phasors of force and velocity are extracted by single-bin
correlation over the last full cycle. Requested frequencies are snapped so a
period is an integer number of samples, which makes the single-bin
projection exact for periodic steady state; the snapped grid is returned.

Work loops are force-versus-endpoint-displacement cycles; their enclosed
area is the energy dissipated per cycle and their half-spread at the loop
center measures friction plus hysteresis. The quasi-static loop of the n = 1
Dahl element follows the closed-form branch

    F(x) = s F_c + (F0 - s F_c) exp(-sigma (x - x0) s / F_c),   s = +/-1,

which is fitted to measured loops for (F_c, sigma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .controllers import PDConfig
from .lti import FrequencyGrid
from .plant import (
    DEFAULT_DT,
    PlantParams,
    SimTrace,
    SimulationDivergedError,
    simulate,
    simulate_backdriven,
)
from .signals import SineMotionSpec, SineSpec
from .sysid import FrequencyResponse

__all__ = [
    "DahlFit",
    "DahlFitError",
    "WorkLoop",
    "WorkLoopError",
    "ZWidthCurve",
    "fit_dahl",
    "max_stable_pd",
    "measure_impedance",
    "quasi_static_backdrive",
    "snap_omega",
    "work_loop",
    "zwidth",
]


class WorkLoopError(RuntimeError):
    """No complete steady-state cycle could be extracted."""


class DahlFitError(RuntimeError):
    """Loop unsuitable for hysteresis fitting (non-hysteretic or degenerate)."""


def snap_omega(omega: float, dt: float) -> float:
    """Nearest frequency whose period is an integer number of samples."""
    n = max(int(round(2.0 * math.pi / (omega * dt))), 4)
    return 2.0 * math.pi / (n * dt)


def _phasor(sig: np.ndarray, t: np.ndarray, omega: float) -> complex:
    """Fundamental phasor over an integer number of periods of ``omega``."""
    e = np.exp(-1j * omega * t)
    return 2.0 * np.dot(sig, e) / sig.size


# Trace columns (force, velocity) whose phasor ratio is each port's impedance.
_PORT_SIGNALS = {"endpoint": ("F_e", "v_e"), "motor": ("F_p", "v")}


def measure_impedance(
    params: PlantParams,
    controller,
    grid: FrequencyGrid,
    amplitude: float = 0.1,
    settle_cycles: int = 5,
    settle_min_time: float = 5.0,
    measure_cycles: int = 3,
    drift_tol: float = 5e-3,
    dt: float = DEFAULT_DT,
    port: str | tuple[str, ...] = "endpoint",
) -> FrequencyResponse | tuple[FrequencyResponse, ...]:
    """Endpoint (or motor-port) impedance Z(j omega) from simulation.

    Per grid point the plant runs under ``controller`` with
    F_e = amplitude sin(omega t); settling lasts ``settle_cycles`` periods
    but never less than ``settle_min_time`` (the slow compensated modes
    settle on an absolute time scale, not a cycle count). The last
    ``measure_cycles`` periods provide per-cycle fundamental amplitudes; if
    consecutive cycles drift by more than ``drift_tol`` the run is repeated
    once with doubled settling, after which the point is marked invalid.
    Z is the ratio of force to velocity phasors over the final cycle:
    F_e/V_e at the endpoint port, F_p/V at the motor port.

    ``port`` may also be a tuple of port names; one simulation per point
    then serves every port, and a tuple of responses in the same order is
    returned. Each port keeps its own drift check, and a retry runs only
    while some port is still unsettled, so each response equals the one a
    single-port call gives.

    Points where the simulation diverges are marked invalid rather than
    aborting the sweep.
    """
    ports = (port,) if isinstance(port, str) else tuple(port)
    if not ports or any(p not in _PORT_SIGNALS for p in ports):
        raise ValueError("port must be 'endpoint' or 'motor'")
    omegas = np.array([snap_omega(w, dt) for w in grid.omegas])
    H = [np.zeros(omegas.size, dtype=complex) for _ in ports]
    valid = [np.ones(omegas.size, dtype=bool) for _ in ports]

    for i, w in enumerate(omegas):
        period = 2.0 * math.pi / w
        n_per = int(round(period / dt))
        base_settle = max(settle_cycles, int(math.ceil(settle_min_time / period)))
        pending = list(range(len(ports)))
        for settle in (base_settle, 2 * base_settle):
            cycles = settle + measure_cycles
            try:
                trace = simulate(
                    params,
                    controller,
                    SineSpec(amplitude, w),
                    None,
                    duration=cycles * period,
                    dt=dt,
                )
            except SimulationDivergedError:
                break
            for j in list(pending):
                f_name, v_name = _PORT_SIGNALS[ports[j]]
                f_sig, v_sig = trace.column(f_name), trace.column(v_name)
                amps = []
                for c in range(measure_cycles):
                    lo = (settle + c) * n_per
                    hi = lo + n_per
                    if hi > len(trace):
                        break
                    amps.append(abs(_phasor(v_sig[lo:hi], trace.t[lo:hi], w)))
                if len(amps) >= 2 and amps[-1] > 0:
                    drift = abs(amps[-1] - amps[-2]) / amps[-1]
                    if drift <= drift_tol:
                        lo = (cycles - 1) * n_per
                        hi = lo + n_per
                        pf = _phasor(f_sig[lo:hi], trace.t[lo:hi], w)
                        pv = _phasor(v_sig[lo:hi], trace.t[lo:hi], w)
                        H[j][i] = pf / pv
                        pending.remove(j)
            if not pending:
                break
        for j in pending:
            valid[j][i] = False

    responses = tuple(
        FrequencyResponse(FrequencyGrid(omegas), h, np.zeros(omegas.size), ok)
        for h, ok in zip(H, valid)
    )
    return responses[0] if isinstance(port, str) else responses


# ---------------------------------------------------------------------------
# Work loops
# ---------------------------------------------------------------------------


@dataclass
class WorkLoop:
    """One steady-state force-versus-displacement cycle.

    area : signed loop integral of F dx_e [J]; positive when traversed in
        the dissipative direction.
    amplitude : half the force spread between the two branches at x_e = 0.
    """

    x_e: np.ndarray
    F: np.ndarray
    area: float
    amplitude: float

    def branches(self):
        """(ascending, descending) branch sample pairs (x, F)."""
        dx = np.gradient(self.x_e)
        up = dx > 0
        return (self.x_e[up], self.F[up]), (self.x_e[~up], self.F[~up])

    def spread_at(self, x0: float) -> float:
        """Force separation between branches at displacement x0."""
        (xu, fu), (xd, fd) = self.branches()
        iu = np.argsort(xu)
        idn = np.argsort(xd)
        f_up = np.interp(x0, xu[iu], fu[iu])
        f_dn = np.interp(x0, xd[idn], fd[idn])
        return abs(f_up - f_dn)

    def amplitude_over(self, lo: float, hi: float, n: int = 41) -> float:
        """Max half-spread over a displacement window."""
        xs = np.linspace(lo, hi, n)
        return 0.5 * max(self.spread_at(x) for x in xs)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("x_e,F\n")
            np.savetxt(fh, np.column_stack([self.x_e, self.F]), fmt="%.9g", delimiter=",")


def work_loop(trace: SimTrace, force_column: str = "F_e") -> WorkLoop:
    """Extract the last full cycle of F against x_e from a trace.

    Cycles are delimited by upward zero crossings of x_e; at least two full
    cycles of steady motion must be present. The extracted samples must
    close on themselves within 1% of the force range.

    Raises
    ------
    WorkLoopError
        If no complete cycle is found or the cycle does not close.
    """
    if force_column not in ("F_e", "F_p"):
        raise ValueError("force_column must be 'F_e' or 'F_p'")
    x = trace.x_e
    f = trace.column(force_column)
    sign = np.signbit(x)
    ups = np.nonzero(sign[:-1] & ~sign[1:])[0]
    if ups.size < 3:
        raise WorkLoopError("need at least two full cycles (three upward crossings)")
    lo, hi = ups[-2] + 1, ups[-1] + 1
    xs = x[lo:hi].copy()
    fs = f[lo:hi].copy()
    frange = float(np.max(fs) - np.min(fs))
    if frange <= 0:
        raise WorkLoopError("flat force signal, no loop")
    if abs(fs[-1] - fs[0]) > 0.01 * frange + 1e-12:
        raise WorkLoopError(
            f"cycle does not close: endpoint force gap {abs(fs[-1] - fs[0]):.3e} "
            f"exceeds 1% of range {frange:.3e}"
        )
    # close the loop for the area integral
    xc = np.append(xs, xs[0])
    fc = np.append(fs, fs[0])
    area = float(np.trapezoid(fc, xc))

    loop = WorkLoop(x_e=xs, F=fs, area=area, amplitude=0.0)
    loop.amplitude = 0.5 * loop.spread_at(0.0)
    return loop


# ---------------------------------------------------------------------------
# Dahl parameter fitting
# ---------------------------------------------------------------------------


@dataclass
class DahlFit:
    F_c: float
    sigma: float
    residual_rms: float


def _dahl_branch(x, x0, f0, s, F_c, sigma):
    return s * F_c + (f0 - s * F_c) * np.exp(-sigma * (x - x0) * s / F_c)


def fit_dahl(loop: WorkLoop, area_floor_rel: float = 1e-3) -> DahlFit:
    """Least-squares fit of the closed-form n = 1 branches to a loop.

    Both branches are fitted jointly for (F_c, sigma); each branch anchors
    at its own first sample (x0, F0) taken from the data. Quasi-static loops
    only: the model is rate independent.

    Raises
    ------
    DahlFitError
        If the loop is non-hysteretic, i.e. its area is below
        ``area_floor_rel`` times the bounding-box area.
    """
    xr = float(np.max(loop.x_e) - np.min(loop.x_e))
    fr = float(np.max(loop.F) - np.min(loop.F))
    box = xr * fr
    if box <= 0 or abs(loop.area) < area_floor_rel * box:
        raise DahlFitError(
            f"loop area {loop.area:.3e} below floor {area_floor_rel:.1e} * box {box:.3e}"
        )
    dx = np.diff(loop.x_e, append=loop.x_e[:1])
    segments = []
    for direction in (1.0, -1.0):
        mask = dx * direction > 0
        if np.sum(mask) < 8:
            raise DahlFitError("branch too short for fitting")
        xs = loop.x_e[mask]
        fs = loop.F[mask]
        order = np.argsort(xs) if direction > 0 else np.argsort(-xs)
        segments.append((xs[order], fs[order], direction))

    f_c0 = max(0.5 * fr, 1e-9)
    # slope near the turnaround approximates sigma
    xs0, fs0, _ = segments[0]
    k0 = abs((fs0[min(5, len(fs0) - 1)] - fs0[0]) / (xs0[min(5, len(xs0) - 1)] - xs0[0] + 1e-30))
    sigma0 = max(k0, f_c0 / max(xr, 1e-9))

    def residuals(theta):
        F_c, sigma = theta
        out = []
        for xs, fs, s in segments:
            out.append(_dahl_branch(xs, xs[0], fs[0], s, F_c, sigma) - fs)
        return np.concatenate(out)

    sol = least_squares(
        residuals,
        x0=[f_c0, sigma0],
        bounds=([1e-12, 1e-9], [np.inf, np.inf]),
        xtol=1e-14,
        ftol=1e-14,
    )
    rms = float(np.sqrt(np.mean(sol.fun**2)))
    return DahlFit(F_c=float(sol.x[0]), sigma=float(sol.x[1]), residual_rms=rms)


# ---------------------------------------------------------------------------
# Z-width
# ---------------------------------------------------------------------------


@dataclass
class ZWidthCurve:
    """Renderable impedance range per frequency, in dB re 1 Nm s/rad."""

    grid: FrequencyGrid
    z_min_db: np.ndarray
    z_max_db: np.ndarray
    width_db: np.ndarray
    valid: np.ndarray

    def to_csv(self, path) -> None:
        data = np.column_stack(
            [self.grid.omegas, self.z_min_db, self.z_max_db, self.width_db]
        )
        with open(path, "w", newline="") as fh:
            fh.write("omega_rad_s,zmin_db,zmax_db,width_db\n")
            np.savetxt(fh, data, fmt="%.9g", delimiter=",")


def zwidth(z_min: FrequencyResponse, z_max: FrequencyResponse) -> ZWidthCurve:
    """Pointwise dB ratio of two impedance measurements on a common grid.

    Where either measurement is invalid, all three dB values are NaN.
    """
    if len(z_min.grid) != len(z_max.grid) or not np.allclose(
        z_min.omegas, z_max.omegas, rtol=1e-9
    ):
        raise ValueError("Z-width inputs must share one frequency grid")
    valid = z_min.valid & z_max.valid
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = 20.0 * np.log10(np.abs(z_min.H))
        hi = 20.0 * np.log10(np.abs(z_max.H))
    lo[~valid] = hi[~valid] = np.nan
    return ZWidthCurve(
        grid=z_min.grid,
        z_min_db=lo,
        z_max_db=hi,
        width_db=hi - lo,
        valid=valid,
    )


# ---------------------------------------------------------------------------
# Supporting experiment machinery
# ---------------------------------------------------------------------------


def max_stable_pd(
    params: PlantParams,
    dt: float = DEFAULT_DT,
    kd_ratio: float = 0.02,
    delay_samples: int = 1,
    kp_start: float = 1.0,
    trial_time: float = 2.0,
    bisect_iters: int = 12,
    decay_factor: float = 0.05,
    backoff: float = 0.8,
) -> PDConfig:
    """Largest robustly stable PD hold gains under a declared deterministic rule.

    Sweeps K_p upward by doubling, then bisects, keeping K_d = kd_ratio K_p,
    with a one-sample computation delay in the loop. A trial releases the
    linearized plant (hysteresis disabled, so the threshold does not depend
    on excitation amplitude) from a small motor offset; a gain passes when
    the response of the last quarter of the trial has decayed below
    ``decay_factor`` times the first quarter. The bisected boundary gain is
    finally multiplied by ``backoff``, because a gain bisected exactly onto
    the decay threshold has no margin left for long excited runs.
    """
    p = params.without_hysteresis()
    from .plant import PlantState

    x0 = PlantState(x=1e-3, x_e=1e-3)

    def stable(kp: float) -> bool:
        cfg = PDConfig(K_p=kp, K_d=kd_ratio * kp, delay_samples=delay_samples)
        try:
            tr = simulate(p, cfg, None, None, duration=trial_time, dt=dt, initial_state=x0)
        except SimulationDivergedError:
            return False
        n = len(tr)
        head = float(np.max(np.abs(tr.x[: n // 4])))
        tail = float(np.max(np.abs(tr.x[3 * n // 4:])))
        return np.isfinite(tail) and tail < decay_factor * head

    if not stable(kp_start):
        raise RuntimeError("PD sweep start gain already unstable")
    lo = kp_start
    hi = None
    kp = kp_start
    for _ in range(40):
        kp *= 2.0
        if stable(kp):
            lo = kp
        else:
            hi = kp
            break
    if hi is None:
        raise RuntimeError("PD sweep failed to find an instability bound")
    for _ in range(bisect_iters):
        mid = math.sqrt(lo * hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    kp_final = backoff * lo
    return PDConfig(K_p=kp_final, K_d=kd_ratio * kp_final, delay_samples=delay_samples)


def quasi_static_backdrive(
    params: PlantParams,
    controller,
    omega: float = 1.0,
    amplitude: float = 0.5,
    cycles: int = 4,
    dt: float = DEFAULT_DT,
) -> SimTrace:
    """Kinematic sinusoidal backdrive of the endpoint, as on the bonded rig.

    The endpoint motion ``x_e = amplitude sin(omega t)`` is imposed and the
    external force is recorded as an output, so work loops are centred and
    their displacement range is exact regardless of the rendered impedance
    (a force source cannot hold a freed endpoint on a fixed swing). The
    frequency is snapped to an integer number of samples per period.
    """
    w = snap_omega(omega, dt)
    period = 2.0 * math.pi / w
    return simulate_backdriven(
        params,
        controller,
        SineMotionSpec(amplitude, w),
        duration=cycles * period,
        dt=dt,
    )

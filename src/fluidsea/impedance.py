"""Endpoint impedance measurement, work loops, Dahl fitting, and Z-width.

Impedance is measured per frequency from closed-loop simulation: a sinusoidal
external force excites the endpoint, the simulation settles for at least one
cycle and at least 5 s, the amplitude drift between the two measured cycles
that follow is checked, and the fundamental phasors of force and velocity are
extracted by single-bin correlation over the last cycle. Requested
frequencies are snapped so a period is an integer number of samples, which
makes the single-bin projection exact for periodic steady state; the snapped
grid is returned.

Work loops are force-versus-endpoint-displacement cycles; their enclosed
area is the energy dissipated per cycle and their half-spread at the loop
center measures friction plus hysteresis. The quasi-static loop of the n = 1
Dahl element follows the closed-form branch

    F(x) = s F_c + (F0 - s F_c) exp(-sigma (x - x0) s / F_c),   s = +/-1,

which is fitted to measured loops for (F_c, sigma).
"""

from __future__ import annotations

import contextlib
import math
import os
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .controllers import PDConfig
from .csvio import write_csv
from .lti import FrequencyGrid
from .plant import (
    DEFAULT_DT,
    PlantParams,
    SimTrace,
    SimulationDivergedError,
    _modal_radius,
    linear_model,
    simulate,
    simulate_backdriven,
)
from .signals import SineMotionSpec, SineSpec
from .sysid import FrequencyResponse

__all__ = [
    "DahlFit",
    "DahlFitError",
    "PDSweepError",
    "WorkLoop",
    "WorkLoopError",
    "ZWidthCurve",
    "fit_dahl",
    "max_stable_pd",
    "measure_impedance",
    "quasi_static_backdrive",
    "snap_grid",
    "snap_omega",
    "work_loop",
    "zwidth",
]


class WorkLoopError(RuntimeError):
    """No complete steady-state cycle could be extracted."""


class DahlFitError(RuntimeError):
    """Loop unsuitable for hysteresis fitting (non-hysteretic or degenerate)."""


class PDSweepError(RuntimeError):
    """The PD gain sweep found no stable start gain or no instability bound."""


def snap_omega(omega: float, dt: float) -> float:
    """Nearest frequency whose period is an integer number of samples."""
    n = max(int(round(2.0 * math.pi / (omega * dt))), 4)
    return 2.0 * math.pi / (n * dt)


def snap_grid(grid: FrequencyGrid, dt: float) -> np.ndarray:
    """``snap_omega`` of each grid point; raises ValueError if two share a period."""
    omegas = np.array([snap_omega(w, dt) for w in grid.omegas])
    if np.any(np.diff(omegas) <= 0):
        raise ValueError(f"grid points snap to the same whole-sample period at dt = {dt}")
    return omegas


def _phasor(sig: np.ndarray, e: np.ndarray) -> complex:
    """Fundamental phasor over an integer number of periods, given
    ``e = exp(-j omega t)`` over the same samples."""
    return 2.0 * np.dot(sig, e) / sig.size


# Trace columns (force, velocity) whose phasor ratio is each port's impedance.
_PORT_SIGNALS = {"endpoint": ("F_e", "v_e"), "motor": ("F_p", "v")}

# Each point settles for at least this long [s], since the slow compensated
# modes settle on an absolute time scale, and for at least one period, since
# the Dahl element reaches its periodic orbit only after a whole cycle.
_SETTLE_TIME = 5.0
# Largest relative change of the velocity amplitude between the two measured
# cycles of a settled point.
_DRIFT_TOL = 5e-3


def _measure_point(params, controller, amplitude, dt, ports, w):
    """One grid point of :func:`measure_impedance`, an (H, reason) pair per port.

    H is the port's impedance; reason is None for a valid point, else why it
    is invalid (H is then 0). A diverged simulation is caught here, so no
    ``SimulationDivergedError`` leaves a worker process.
    """
    period = 2.0 * math.pi / w
    n_per = int(round(period / dt))
    base_settle = max(1, math.ceil(_SETTLE_TIME / period))
    H = [0j] * len(ports)
    pending = list(range(len(ports)))
    drift = [math.inf] * len(ports)  # each port's drift in the latest run
    diverged_at = None
    for settle in (base_settle, 2 * base_settle):
        try:
            trace = simulate(
                params,
                controller,
                SineSpec(amplitude, w),
                None,
                duration=(settle + 2) * period,
                dt=dt,
            )
        except SimulationDivergedError as exc:
            diverged_at = exc.step_index
            break
        first = slice(settle * n_per, (settle + 1) * n_per)
        last = slice((settle + 1) * n_per, (settle + 2) * n_per)
        e_first = np.exp(-1j * w * trace.t[first])  # shared by every port
        e_last = np.exp(-1j * w * trace.t[last])
        for j in list(pending):
            f_name, v_name = _PORT_SIGNALS[ports[j]]
            f_sig, v_sig = trace.column(f_name), trace.column(v_name)
            a_first = abs(_phasor(v_sig[first], e_first))
            pv = _phasor(v_sig[last], e_last)
            drift[j] = abs(abs(pv) - a_first) / abs(pv) if abs(pv) > 0 else math.inf
            if drift[j] <= _DRIFT_TOL:
                H[j] = _phasor(f_sig[last], e_last) / pv
                pending.remove(j)
        if not pending:
            break
    reasons = [None] * len(ports)
    for j in pending:
        if diverged_at is not None:
            reasons[j] = f"the simulation diverged at step {diverged_at}"
        else:
            reasons[j] = (
                f"velocity amplitude drift {drift[j]:.3e} exceeds {_DRIFT_TOL:.1e} after the retry"
            )
    return list(zip(H, reasons))


def _cpu_count() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


# The code of the plant's own ``simulate``. A wrapper bound in its place (a
# tracer, a test spy) has other code; a code object is never rebound with it.
_PLANT_SIMULATE_CODE = simulate.__code__


@contextlib.contextmanager
def _mapped(point, omegas):
    """``point`` mapped over ``omegas``, results in order.

    The points run in min(points, CPUs) forked worker processes, or in this
    process when that is 1, ``fork`` is unavailable or ``simulate`` is not
    the plant's own: a replaced ``simulate`` records its calls in the
    process that makes them, and in a worker they would be lost to it.
    Either way each point is the same computation, so the results are the
    same to the bit. The pool closes on leaving the block, whether it
    returns or raises.
    """
    workers = min(len(omegas), _cpu_count())
    if workers > 1 and getattr(simulate, "__code__", None) is _PLANT_SIMULATE_CODE:
        # imported here, so that a cold ``import fluidsea.cli`` does not pay for them
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            context = multiprocessing.get_context("fork")
            # closing the map first cancels the points not yet started
            with ProcessPoolExecutor(workers, mp_context=context) as pool, contextlib.closing(
                pool.map(point, omegas)
            ) as results:
                yield results
            return
    yield map(point, omegas)


def measure_impedance(
    params: PlantParams,
    controller,
    grid: FrequencyGrid,
    amplitude: float = 0.1,
    dt: float = DEFAULT_DT,
    port: str | tuple[str, ...] = "endpoint",
) -> FrequencyResponse | tuple[FrequencyResponse, ...]:
    """Endpoint (or motor-port) impedance Z(j omega) from simulation.

    Per grid point the plant runs from rest under ``controller`` with
    F_e = amplitude sin(omega t): S settle periods, S = max(1,
    ceil(``_SETTLE_TIME`` / period)) with ``_SETTLE_TIME`` = 5 s, then two
    measured periods. If the fundamental velocity amplitudes of the two
    measured periods differ by more than ``_DRIFT_TOL`` = 5e-3 relative to
    the last, the run is repeated once from rest with 2 S settle periods,
    after which the point is marked invalid. Z is the ratio of force to
    velocity phasors over the last period: F_e/V_e at the endpoint port,
    F_p/V at the motor port.

    ``port`` may also be a tuple of port names; one simulation per point
    then serves every port, and a tuple of responses in the same order is
    returned. Each port keeps its own drift check, and a retry runs only
    while some port is still unsettled, so each response equals the one a
    single-port call gives.

    Points where the simulation diverges are marked invalid rather than
    aborting the sweep. Each invalid point issues a ``UserWarning`` that
    names its snapped omega and why: the step at which the simulation
    diverged, or the drift left after the retry. A grid whose points snap to
    the same period raises ``ValueError`` before any simulation.

    The points are independent runs, so they run in forked worker
    processes, min(points, CPUs) of them, lowest omega (the longest run)
    first; the result and the warnings, in grid order, are the same to the
    bit at any CPU count. Any other error a point raises is raised here.
    When ``simulate`` has been replaced, by a tracer or a test spy, the
    points run in this process, so that the replacement sees every call.
    """
    ports = (port,) if isinstance(port, str) else tuple(port)
    if not ports or any(p not in _PORT_SIGNALS for p in ports):
        raise ValueError("port must be 'endpoint' or 'motor'")
    omegas = snap_grid(grid, dt)
    H = [np.zeros(omegas.size, dtype=complex) for _ in ports]
    valid = [np.ones(omegas.size, dtype=bool) for _ in ports]
    point = partial(_measure_point, params, controller, amplitude, dt, ports)
    with _mapped(point, omegas) as results:
        for i, (w, result) in enumerate(zip(omegas, results)):
            for j, (h, reason) in enumerate(result):
                H[j][i] = h
                if reason is not None:
                    valid[j][i] = False
                    warnings.warn(
                        f"{ports[j]} impedance at omega = {w:.6g} rad/s is invalid: {reason}",
                        stacklevel=2,
                    )

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

    def to_csv(self, path) -> None:
        write_csv(path, "x_e,F", [self.x_e, self.F])


def work_loop(trace: SimTrace, force_column: str = "F_e") -> WorkLoop:
    """Extract the last full cycle of F against x_e from a trace.

    Cycles are delimited by upward zero crossings of x_e; at least two full
    cycles of steady motion must be present. The cycle must close within 1%
    of its force range: F at its first sample and at the first sample of the
    next cycle, one period later at the same phase, may differ by no more.

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
    # hi = ups[-1] + 1 lies in the record: the last crossing's sample pair does.
    gap = abs(f[hi] - f[lo])
    if gap > 0.01 * frange + 1e-12:
        raise WorkLoopError(
            f"cycle does not close: endpoint force gap {gap:.3e} "
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

    @property
    def on_sigma_bound(self) -> bool:
        """Whether sigma ended on its lower bound 1e-9: the model does not describe the loop."""
        return self.sigma <= _SIGMA_MIN


def _dahl_branch(x, x0, f0, s, F_c, sigma):
    return s * F_c + (f0 - s * F_c) * np.exp(-sigma * (x - x0) * s / F_c)


def _dahl_residuals(segments, F_c, sigma):
    """Both branches' model minus data, the residual :func:`fit_dahl` minimizes."""
    return np.concatenate(
        [_dahl_branch(xs, xs[0], fs[0], s, F_c, sigma) - fs for xs, fs, s in segments]
    )


# A loop whose area is below this fraction of its bounding box is not hysteretic.
_AREA_FLOOR_REL = 1e-3


def _dahl_problem(loop: WorkLoop):
    """The fit's branches and start: ``[(x, F, s), (x, F, s)], (F_c0, sigma0)``.

    Each branch holds the samples of one direction s = +1 or -1, sorted
    along it, so that its first sample is its anchor.
    """
    xr = float(np.max(loop.x_e) - np.min(loop.x_e))
    fr = float(np.max(loop.F) - np.min(loop.F))
    box = xr * fr
    if box <= 0 or abs(loop.area) < _AREA_FLOOR_REL * box:
        raise DahlFitError(
            f"loop area {loop.area:.3e} below floor {_AREA_FLOOR_REL:.1e} * box {box:.3e}"
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
    return segments, (f_c0, sigma0)


# Levenberg-Marquardt: the iteration cap, the start damping, the damping above
# which no step is taken, and the relative step that ends the solve.
_LM_MAX_ITER = 200
_LM_MU0 = 1e-3
_LM_MU_MAX = 1e16
_LM_XTOL = 1e-15
# the lower bounds of F_c and sigma
_F_C_MIN = 1e-12
_SIGMA_MIN = 1e-9


def fit_dahl(loop: WorkLoop) -> DahlFit:
    """Least-squares fit of the closed-form n = 1 branches to a loop.

    Both branches are fitted jointly for (F_c, sigma), with F_c >= 1e-12 and
    sigma >= 1e-9; each branch anchors at its own first sample (x0, F0)
    taken from the data. Quasi-static loops only: the model is rate
    independent.

    The solve is Levenberg-Marquardt in (F_c, L), L = F_c / sigma, with the
    analytic Jacobian

        dr/dF_c = s (1 - E),    dr/dL = (F0 - s F_c) E d / L^2,

    where d = (x - x0) s and E = exp(-d / L). The branch is linear in F_c at
    fixed L, so the valley F_c / sigma = const, down which a loop that the
    model fits poorly runs to sigma = 1e-9, is a straight line here. Each
    step solves (J'J + mu diag(J'J)) delta = -J'r, a 2 x 2 system formed
    from sums of elementwise products (no BLAS call). A step is accepted
    if it does not raise the cost; one that would take sigma below 1e-9
    ends on that bound, and from there the steps follow the bound until one
    leaves it. mu starts at 1e-3, falls tenfold after an accepted step and
    rises tenfold after a rejected one. The solve stops when both relative
    steps are at most 1e-15, or when mu passes 1e16 without an accepted step.

    Raises
    ------
    DahlFitError
        If the loop is non-hysteretic, i.e. its area is below
        ``_AREA_FLOOR_REL`` = 1e-3 times the bounding-box area; if a branch
        has fewer than 8 samples; or if the solve has not stopped after
        ``_LM_MAX_ITER`` = 200 iterations.
    """
    segments, (f_c0, sigma0) = _dahl_problem(loop)

    def sigma_of(F_c, L):
        return max(F_c / L, _SIGMA_MIN)

    def cost_of(F_c, L):
        r = _dahl_residuals(segments, F_c, sigma_of(F_c, L))
        return r, (r * r).sum()

    # per sample: the branch direction s, the anchor force f0 and d = (x - x0) s
    s = np.concatenate([np.full(xs.size, s) for xs, _, s in segments])
    f0 = np.concatenate([np.full(xs.size, fs[0]) for xs, fs, _ in segments])
    d = np.concatenate([(xs - xs[0]) * s for xs, _, s in segments])

    F_c, L = f_c0, f_c0 / sigma0
    r, cost = cost_of(F_c, L)
    mu = _LM_MU0
    for _ in range(_LM_MAX_ITER):
        e = np.exp(-d / L)
        j_f = s - s * e
        j_l = (f0 - s * F_c) * e * d / (L * L)
        a_ff, a_fl, a_ll = (j_f * j_f).sum(), (j_f * j_l).sum(), (j_l * j_l).sum()
        g_f, g_l = (j_f * r).sum(), (j_l * r).sum()
        on_bound = F_c <= _SIGMA_MIN * L
        if on_bound:  # the direction along sigma = 1e-9, i.e. F_c = 1e-9 L
            j_b = _SIGMA_MIN * j_f + j_l
            a_bb, g_b = (j_b * j_b).sum(), (j_b * r).sum()
        while mu <= _LM_MU_MAX:
            d_ff, d_ll = a_ff * (1.0 + mu), a_ll * (1.0 + mu)
            det = d_ff * d_ll - a_fl * a_fl
            new_f = F_c + (a_fl * g_l - d_ll * g_f) / det
            new_l = L + (a_fl * g_f - d_ff * g_l) / det
            if on_bound and new_f < _SIGMA_MIN * new_l:
                new_l = L - g_b / (a_bb * (1.0 + mu))
            new_f = max(new_f, _SIGMA_MIN * new_l)
            if new_l > 0 and new_f >= _F_C_MIN:
                r_new, cost_new = cost_of(new_f, new_l)
                if cost_new <= cost:
                    break
            mu *= 10.0
        else:
            break  # no damped step keeps the cost
        rel = max(abs(new_f - F_c) / F_c, abs(new_l - L) / L)
        F_c, L, r, cost = new_f, new_l, r_new, cost_new
        mu /= 10.0
        if rel <= _LM_XTOL:
            break
    else:
        raise DahlFitError(
            f"Dahl fit not converged in {_LM_MAX_ITER} iterations; last relative step {rel:.1e}"
        )
    rms = float(np.sqrt(np.mean(r**2)))
    return DahlFit(F_c=float(F_c), sigma=float(sigma_of(F_c, L)), residual_rms=rms)


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
        write_csv(
            path,
            "omega_rad_s,zmin_db,zmax_db,width_db",
            [self.grid.omegas, self.z_min_db, self.z_max_db, self.width_db],
        )


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


# The PD gain sweep's rule: K_d / K_p, the loop's computation delay
# [samples], the first gain tried [Nm/rad], the relative width the boundary
# is bisected to, and the back-off.
_PD_KD_RATIO = 0.02
_PD_DELAY_SAMPLES = 1
_PD_KP_START = 1.0
_PD_REL_WIDTH = 1e-12
_PD_BACKOFF = 0.8


def max_stable_pd(params: PlantParams, dt: float = DEFAULT_DT) -> PDConfig:
    """Largest stable PD hold gains, backed off, under a declared deterministic rule.

    K_d = ``_PD_KD_RATIO`` K_p = 0.02 K_p, with a ``_PD_DELAY_SAMPLES`` = 1
    sample computation delay. A gain is stable when every eigenvalue of the
    sampled closed loop of the linearized plant (hysteresis disabled, so the
    bound does not depend on amplitude) lies inside the unit circle. That map
    is :func:`~fluidsea.plant.linear_model`'s under the PD configuration, on
    (x, v, x_e, v_e) and the delay line. K_p doubles from ``_PD_KP_START`` = 1
    Nm/rad to an unstable gain, the boundary is bisected geometrically to a
    relative width of ``_PD_REL_WIDTH`` = 1e-12, and the stable end is
    multiplied by ``_PD_BACKOFF`` = 0.8 for margin in long excited runs.
    Raises ``PDSweepError`` if the start gain is unstable or 40 doublings find
    no bound, and ``ValueError`` for a dt outside (0, 1e-2] s.
    """
    p = params.without_hysteresis()

    def pd(kp: float) -> PDConfig:
        return PDConfig(K_p=kp, K_d=_PD_KD_RATIO * kp, delay_samples=_PD_DELAY_SAMPLES)

    def stable(kp: float) -> bool:
        return bool(_modal_radius(linear_model(p, pd(kp), dt)[0]) < 1.0)

    if not stable(_PD_KP_START):
        raise PDSweepError("PD sweep start gain already unstable")
    lo = _PD_KP_START
    for _ in range(40):
        if not stable(2.0 * lo):
            break
        lo *= 2.0
    else:
        raise PDSweepError("PD sweep failed to find an instability bound")
    hi = 2.0 * lo
    while hi > lo * (1.0 + _PD_REL_WIDTH):
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if stable(mid) else (lo, mid)
    return pd(_PD_BACKOFF * lo)


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
    frequency is snapped to an integer number of samples per period, n.

    The record holds (cycles - 1) n + 2 samples. It ends two samples past
    the upward zero crossing of x_e at (cycles - 1) n, which closes the
    cycle :func:`work_loop` reads, cycle cycles - 1; nothing after it is
    simulated. A crossing at k n is the sample pair (k n, k n + 1) when
    ``amplitude sin(w k n dt)`` rounds below zero and (k n - 1, k n)
    otherwise; both pairs lie in the record. Simulating all ``cycles``
    periods would add nothing: that record ends one sample short of the
    crossing at ``cycles`` n, so its last closed cycle is the same one and,
    the run being causal, holds the same samples.

    Raises ``ValueError`` unless ``amplitude > 0``: a negative amplitude
    moves the upward crossings by half a period, and a zero one has no loop.
    """
    if not amplitude > 0:
        raise ValueError(f"amplitude must be > 0, not {amplitude}")
    w = snap_omega(omega, dt)
    n = int(round(2.0 * math.pi / w / dt))
    return simulate_backdriven(
        params,
        controller,
        SineMotionSpec(amplitude, w),
        duration=((cycles - 1) * n + 2) * dt,
        dt=dt,
    )

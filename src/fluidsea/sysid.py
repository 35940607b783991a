"""Nonparametric frequency-response estimation and rational-model fitting.

The identification pipeline mirrors the hardware procedure at desk scale:
excite the passive plant with a logarithmic torque chirp, estimate
frequency-response functions with 1-sigma bands by the Blackman-Tukey method
(windowed sample correlations transformed to the frequency domain), and fit
them all with one Sanathanan-Koerner routine, :func:`fit_tf`: 2 zeros over
4 poles to the endpoint response, and for the lumped parameters 0 over 2 to
the motor and the finger and 1 over 0 to the line. A sub-plant fit's
residual is the 1/sigma^2-weighted RMS of |H_fit - H| / |H_fit|.

Defaults declared here rather than inherited from any experiment: Hann lag
window with maximum lag one eighth of the record, dt = 1/2000 s, evaluation
grid log-spaced 0.01 Hz to 1000 Hz at 60 points per decade. The chirp is
the caller's: :func:`run_sysid` takes it without a default.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .csvio import write_csv
from .lti import FrequencyGrid, Polynomial, RationalTF
from .plant import DEFAULT_DT, PlantParams, simulate
from .signals import ChirpSpec

__all__ = [
    "FrequencyResponse",
    "SubPlantFit",
    "SysIdResult",
    "default_grid",
    "estimate_frf",
    "extract_params",
    "fit_tf",
    "run_sysid",
]


def default_grid() -> FrequencyGrid:
    """Log grid 0.01 Hz to 1000 Hz, 60 points per decade, in rad/s."""
    f = np.logspace(np.log10(0.01), np.log10(1000.0), 301)
    return FrequencyGrid(2.0 * np.pi * f)


@dataclass
class FrequencyResponse:
    """Complex response samples on a frequency grid with 1-sigma bands.

    sigma is a coherence-based one-sigma magnitude band: it includes the lag
    window's bias and the chirp's non-stationarity, not the noise alone, and
    seed-to-seed scatter reads 0.2-0.9 of it. The fits weight by it and do
    not depend on its absolute scale. ``valid`` flags points where the input
    spectrum was above the numerical floor.
    """

    grid: FrequencyGrid
    H: np.ndarray
    sigma: np.ndarray
    valid: np.ndarray = field(default=None)

    def __post_init__(self):
        if not isinstance(self.grid, FrequencyGrid):
            self.grid = FrequencyGrid(self.grid)
        self.H = np.asarray(self.H, dtype=complex)
        self.sigma = np.asarray(self.sigma, dtype=float)
        if self.valid is None:
            self.valid = np.ones(len(self.grid), dtype=bool)
        if not (len(self.grid) == self.H.size == self.sigma.size == self.valid.size):
            raise ValueError("grid/H/sigma/valid lengths differ")
        if np.any(self.sigma[self.valid] < 0):
            raise ValueError("sigma must be >= 0")

    @property
    def omegas(self) -> np.ndarray:
        return self.grid.omegas

    def mag_db(self) -> np.ndarray:
        return 20.0 * np.log10(np.abs(self.H))

    def phase_deg(self) -> np.ndarray:
        return np.degrees(np.unwrap(np.angle(self.H)))

    def to_csv(self, path) -> None:
        with np.errstate(divide="ignore"):
            data = np.column_stack(
                [
                    self.omegas,
                    self.H.real,
                    self.H.imag,
                    self.mag_db(),
                    self.phase_deg(),
                    self.sigma,
                ]
            )
        data[~self.valid, 1:] = np.nan
        write_csv(path, "omega_rad_s,re,im,mag_db,phase_deg,sigma_mag", data.T)

    @classmethod
    def from_tf(cls, tf: RationalTF, grid: FrequencyGrid) -> "FrequencyResponse":
        """``tf`` on ``grid``; a point on a pole is invalid, with H = 0, and warns."""
        H, on_pole = tf.response(grid.omegas)
        for w in grid.omegas[on_pole]:
            warnings.warn(f"response at omega = {w:.6g} rad/s is invalid: a pole lies on it",
                          stacklevel=2)
        return cls(grid, np.where(on_pole, 0.0, H), np.zeros(len(grid)), ~on_pole)


def _next_fast_len(target: int) -> int:
    """Least 5-smooth integer 2^a 3^b 5^c >= target >= 1: a fast real FFT length.

    The same length as ``scipy.fft.next_fast_len(target, real=True)``.
    """
    best = 1 << (target - 1).bit_length()  # the least power of two
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least p35 * 2^a >= target
            candidate = p35 << (-(-target // p35) - 1).bit_length()
            if candidate < best:
                best = candidate
            p35 *= 3
        p5 *= 5
    return best


def estimate_frf(
    u: np.ndarray,
    y: np.ndarray,
    dt: float,
    grid: FrequencyGrid,
    max_lag: int | None = None,
) -> FrequencyResponse:
    """Blackman-Tukey frequency-response estimate H = Phi_yu / Phi_uu.

    Cross- and auto-spectra come from biased sample correlations tapered by
    a Hann lag window of half-width ``max_lag`` (default: one eighth of the
    record length) and transformed at the requested grid frequencies. The
    1-sigma magnitude band uses the standard coherence-based expression

        sigma/|H| = sqrt((1 - gamma^2) / (2 n_eff gamma^2)),

    with the effective number of independent segments n_eff = N / max_lag.
    Grid points where Phi_uu falls below 1e-12 of its peak are marked
    invalid.

    The correlations R_ab(tau) = (1/N) sum a[n+tau] b[n] come from one rfft
    of each signal, zero-padded to the least 2-3-5-smooth length of at least
    N + max_lag + 1 (no circular wrap reaches a kept lag; ``_next_fast_len``,
    scipy's choice without importing scipy), and three irfft.
    The windowed correlations are transformed as a factored DTFT: with
    tau = -max_lag + q B + r, 0 <= r < B ~ sqrt(2 max_lag + 1),

        sum_tau e^{-j w tau dt} c(tau)
            = sum_q e^{-j w (q B - max_lag) dt} sum_r e^{-j w r dt} c(q, r),

    one matrix product per sequence against two small tables of complex
    exponentials, m x B and m x Q for m grid points.
    """
    u = np.asarray(u, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if u.size != y.size:
        raise ValueError("u and y must have equal length")
    n = u.size
    if max_lag is None:
        max_lag = n // 8
    if max_lag < 1:
        raise ValueError("max lag must be >= 1 sample (default: a record of >= 8 samples)")
    if n < 2 * max_lag:
        raise ValueError("record too short for the requested max lag")

    nfft = _next_fast_len(n + max_lag + 1)
    fu = np.fft.rfft(u, nfft)
    fy = np.fft.rfft(y, nfft)
    size = 2 * max_lag + 1
    seqs = np.empty((3, size))
    # each product is formed only for its own irfft, so one is held at a time
    for row, (a, b) in zip(seqs, ((fu, fu), (fy, fu), (fy, fy))):
        full = np.fft.irfft(a * b.conj(), nfft)
        full /= n
        row[:max_lag] = full[nfft - max_lag:]
        row[max_lag:] = full[: max_lag + 1]

    taus = np.arange(-max_lag, max_lag + 1)
    seqs *= 0.5 * (1.0 + np.cos(np.pi * taus / max_lag))
    b = math.isqrt(size - 1) + 1
    q = -(-size // b)
    blocks = np.zeros((3, q * b))
    blocks[:, :size] = seqs
    blocks = blocks.reshape(3, q, b)
    w = grid.omegas[:, None]
    e_r = np.exp(-1j * w * (np.arange(b) * dt))
    e_q = np.exp(-1j * w * ((np.arange(q) * b - max_lag) * dt))
    phi_uu, phi_yu, phi_yy = (np.sum((e_r @ blk.T) * e_q, axis=1) * dt for blk in blocks)
    phi_uu, phi_yy = phi_uu.real, phi_yy.real

    m = len(grid)
    floor = 1e-12 * np.max(np.abs(phi_uu))
    valid = np.abs(phi_uu) > floor
    H = np.zeros(m, dtype=complex)
    H[valid] = phi_yu[valid] / phi_uu[valid]

    n_eff = n / max_lag
    denom = np.where(valid, np.abs(phi_uu * phi_yy), np.inf)
    gamma2 = np.clip(np.abs(phi_yu) ** 2 / np.maximum(denom, 1e-300), 1e-12, 1.0)
    sigma = np.abs(H) * np.sqrt((1.0 - gamma2) / (2.0 * n_eff * gamma2))
    sigma[~valid] = np.inf
    return FrequencyResponse(grid, H, np.where(valid, sigma, 0.0), valid)


# ---------------------------------------------------------------------------
# Rational-model fitting
# ---------------------------------------------------------------------------


# The whole-system endpoint fit: numerator and denominator orders, the band
# [rad/s] of valid points it uses, and its iteration limits.
_FIT_ZEROS = 2
_FIT_POLES = 4
_FIT_BAND = (0.0, 400.0)
_FIT_MAX_ITER = 30
_FIT_REL_TOL = 1e-8


@dataclass
class FitReport:
    residual: float
    iterations: int
    converged: bool


class FitError(RuntimeError):
    """Rational fit failed (rank deficiency or too few valid points)."""


def _in_band(frf: FrequencyResponse, band: tuple[float, float]) -> np.ndarray:
    """The mask of the valid points with band[0] <= omega <= band[1]."""
    return frf.valid & (frf.omegas >= band[0]) & (frf.omegas <= band[1])


def _floored_sigma(frf: FrequencyResponse, sel: np.ndarray) -> np.ndarray:
    """The selected points' sigma, floored at 1e-3 of their median |H|."""
    floor = 1e-3 * np.median(np.abs(frf.H[sel])) + 1e-300
    return np.maximum(frf.sigma[sel], floor)


def fit_tf(frf: FrequencyResponse, n_zeros: int = _FIT_ZEROS, n_poles: int = _FIT_POLES,
           band: tuple[float, float] = _FIT_BAND):
    """Sanathanan-Koerner rational fit: iteratively reweighted linear least squares.

    Fits ``n_zeros`` zeros over ``n_poles`` poles (default 2 over 4, the
    endpoint model) to the valid points in ``band`` [rad/s] (default
    ``_FIT_BAND`` = 0-400 rad/s), with inverse-variance weights 1/sigma^2,
    sigma floored at 1e-3 of the band's median |H|. Each pass solves the
    linearized problem min sum W |N(jw) - D(jw) H|^2 with W divided by
    |D_prev(jw)|^2, so the iteration minimizes the output error N/D - H
    (Sanathanan & Koerner, IEEE TAC 8, 1963); monic highest denominator
    coefficient, frequencies pre-scaled for conditioning. Iteration stops
    after ``_FIT_MAX_ITER`` = 30 passes, when the parameter vector moves less
    than ``_FIT_REL_TOL`` = 1e-8 relative (``converged``), or when the true
    weighted residual stops improving (the best model seen is returned, so
    the reported residual is non-increasing).

    Returns (RationalTF, FitReport).

    Raises
    ------
    FitError
        If fewer than 4 (n_poles + n_zeros) valid points lie in the band or
        the normal equations are rank deficient.
    """
    nz, npo = n_zeros, n_poles
    sel = _in_band(frf, band)
    if np.sum(sel) < 4 * (npo + nz):
        raise FitError(
            f"only {int(np.sum(sel))} valid points in band, need >= {4 * (npo + nz)}"
        )
    w = frf.omegas[sel]
    H = frf.H[sel]
    base_w = 1.0 / _floored_sigma(frf, sel) ** 2  # inverse variance

    scale = np.exp(np.mean(np.log(w)))  # geometric mean for conditioning
    s = 1j * w / scale

    # Unknowns: numerator c_0..c_nz (descending), denominator d_1..d_npo
    # (descending, after the fixed monic leading 1).
    def design(dprev_abs2):
        wt = np.sqrt(base_w / dprev_abs2)
        cols = []
        for i in range(nz + 1):
            cols.append(wt * s ** (nz - i))
        for i in range(1, npo + 1):
            cols.append(-wt * H * s ** (npo - i))
        A = np.column_stack(cols)
        rhs = wt * H * s**npo
        return (
            np.vstack([A.real, A.imag]),
            np.concatenate([rhs.real, rhs.imag]),
        )

    dprev_abs2 = np.ones_like(w)
    theta_prev = None
    best = None
    best_res = np.inf
    iterations = 0
    converged = False
    for it in range(_FIT_MAX_ITER):
        iterations = it + 1
        A, rhs = design(dprev_abs2)
        theta, _, rank, _ = np.linalg.lstsq(A, rhs, rcond=None)
        if rank < A.shape[1]:
            raise FitError(
                f"rank-deficient normal equations (rank {rank} of {A.shape[1]}); "
                "condition the grid or lower the model order"
            )
        num_c = theta[: nz + 1]
        den_c = np.concatenate([[1.0], theta[nz + 1:]])
        dvals = np.polyval(den_c, s)
        res = float(
            np.sqrt(
                np.sum(base_w * np.abs(np.polyval(num_c, s) / dvals - H) ** 2)
                / np.sum(base_w)
            )
        )
        if res < best_res:
            best_res = res
            best = (num_c.copy(), den_c.copy())
        if theta_prev is not None:
            change = np.linalg.norm(theta - theta_prev) / max(
                np.linalg.norm(theta), 1e-300
            )
            if change < _FIT_REL_TOL:
                converged = True
                break
        if res > 1.01 * best_res and it > 2:
            break  # reweighting stopped helping; keep the best model
        theta_prev = theta
        dprev_abs2 = np.maximum(np.abs(dvals) ** 2, 1e-30)

    num_c, den_c = best
    # Undo the frequency scaling: coefficient of s^k gains scale^-k.
    num_u = num_c * scale ** -(np.arange(nz, -1, -1, dtype=float))
    den_u = den_c * scale ** -(np.arange(npo, -1, -1, dtype=float))
    tf = RationalTF(Polynomial(num_u), Polynomial(den_u))

    return tf, FitReport(residual=best_res, iterations=iterations, converged=converged)


# ---------------------------------------------------------------------------
# Sub-plant parameter extraction
# ---------------------------------------------------------------------------


# Sub-plant fits: the band [rad/s] they use and the relative residual above
# which a fit flags the parameter set.
_EXTRACT_BAND = (0.1, 400.0)
_RESIDUAL_THRESHOLD = 0.05


@dataclass
class SubPlantFit:
    """One lumped sub-plant's parameters, relative residual and fit convergence."""

    coeffs: np.ndarray
    residual: float
    converged: bool


@dataclass
class SysIdExtraction:
    params: PlantParams
    motor: SubPlantFit
    finger: SubPlantFit
    line: SubPlantFit
    flagged: bool

    def report_text(self) -> str:
        p = self.params

        def tail(fit: SubPlantFit) -> str:
            return f"resid={fit.residual:.3e}  converged={fit.converged}"

        lines = [
            "sub-plant Sanathanan-Koerner fits",
            f"motor   : m={p.m:.6e}  b={p.b:.6e}  k={p.k:.6e}  {tail(self.motor)}",
            f"finger  : m_e={p.m_e:.6e}  b_e={p.b_e:.6e}  k_e={p.k_e:.6e}  {tail(self.finger)}",
            f"line    : b_s={p.b_s:.6e}  k_s={p.k_s:.6e}  {tail(self.line)}",
            f"flagged : {self.flagged}",
        ]
        return "\n".join(lines)


def extract_params(
    motor: FrequencyResponse,
    finger: FrequencyResponse,
    line: FrequencyResponse,
) -> SysIdExtraction:
    """Lumped parameters from the three sub-plant frequency responses.

    motor : X / F_p, fit to 1/(m s^2 + b s + k)
    finger : X_e / (F_e - F_p), fit to 1/(m_e s^2 + b_e s + k_e)
    line : F_p / (X_e - X), fit to b_s s + k_s

    Each is one :func:`fit_tf` Sanathanan-Koerner fit on the valid points in
    ``_EXTRACT_BAND`` = 0.1-400 rad/s: the motor and the finger as 0 zeros over
    2 poles, c_0 / (s^2 + d_1 s + d_2), so m = 1/c_0, b = d_1/c_0 and
    k = d_2/c_0; the line as 1 zero over 0 poles. A sub-fit's residual is the
    1/sigma^2-weighted RMS (sigma floored as in :func:`fit_tf`) of
    |H_fit - H| / |H_fit|, for the motor and the finger the relative equation
    error (m s^2 + b s + k) H - 1. One above ``_RESIDUAL_THRESHOLD`` = 0.05
    flags the parameter set (nonlinearity or a poor record), without
    blocking the return. A sub-fit :func:`fit_tf` rejects, or a fitted
    parameter outside the domain of :class:`PlantParams`, raises
    :class:`FitError`, the latter naming the parameter and its value.
    """
    fits = []
    for frf, n_zeros, n_poles in ((motor, 0, 2), (finger, 0, 2), (line, 1, 0)):
        tf, rep = fit_tf(frf, n_zeros, n_poles, _EXTRACT_BAND)
        sel = _in_band(frf, _EXTRACT_BAND)
        fit = tf.eval_grid(frf.omegas[sel])
        wts = 1.0 / _floored_sigma(frf, sel) ** 2
        resid = np.sqrt(np.sum(wts * np.abs((fit - frf.H[sel]) / fit) ** 2) / np.sum(wts))
        num = tf.num.coeffs  # Polynomial drops a negligible leading b_s; restore it as 0
        num = np.pad(num, (n_zeros + 1 - num.size, 0))
        coeffs = tf.den.coeffs / num[0] if n_poles else num  # (m, b, k) or (b_s, k_s)
        fits.append(SubPlantFit(coeffs=coeffs, residual=float(resid), converged=rep.converged))
    names = ("m", "b", "k", "m_e", "b_e", "k_e", "b_s", "k_s")
    values = dict(zip(names, (float(v) for fit in fits for v in fit.coeffs)))
    flagged = max(fit.residual for fit in fits) > _RESIDUAL_THRESHOLD
    try:
        params = PlantParams(**values)
    except ValueError as exc:
        raise FitError(f"sub-plant fits give no valid plant: {exc}") from exc
    return SysIdExtraction(params, *fits, flagged=flagged)


# ---------------------------------------------------------------------------
# End-to-end pipeline
# ---------------------------------------------------------------------------


@dataclass
class SysIdResult:
    motor_frf: FrequencyResponse
    finger_frf: FrequencyResponse
    line_frf: FrequencyResponse
    endpoint_frf: FrequencyResponse
    extraction: SysIdExtraction
    whole_fit: RationalTF
    whole_report: FitReport


def run_sysid(
    params: PlantParams,
    spec: ChirpSpec,
    dt: float = DEFAULT_DT,
    noise_std: float = 0.0,
    rng=None,
) -> SysIdResult:
    """Identification of the simulated plant under the chirp ``spec``.

    Runs the passive chirp experiment, estimates the three sub-plant
    responses and the whole endpoint response, extracts the lumped
    parameters, and fits the 2-zero/4-pole endpoint model, all on
    :func:`default_grid`. Optional additive
    measurement noise (standard deviation ``noise_std``, applied to the
    recorded signals) is drawn from the supplied deterministic generator.
    The chirp is not checked against the sampling rate here: the caller
    does that, with :meth:`ChirpSpec.validate_sampling`.

    Only the four measured columns outlive the simulation, and the noise is
    added to them in place, drawn in the order x, x_e, F_p, F_e: the
    spectra run with four records held, not the whole trace.
    """
    if noise_std > 0.0 and rng is None:
        raise ValueError("noise injection requires a generator")
    grid = default_grid()
    trace = simulate(params, None, spec, None, duration=spec.duration, dt=dt)
    measured = [trace.column(name) for name in ("x", "x_e", "F_p", "F_e")]
    del trace  # its other columns go before the copies are made
    x, x_e, f_p, f_e = (sig.copy() for sig in measured)
    del measured  # and with it the state record that x and x_e view
    if noise_std > 0.0:
        for sig in (x, x_e, f_p, f_e):
            sig += noise_std * rng.normal_array(sig.size)

    motor_frf = estimate_frf(f_p, x, dt, grid)
    finger_frf = estimate_frf(f_e - f_p, x_e, dt, grid)
    line_frf = estimate_frf(x_e - x, f_p, dt, grid)
    endpoint_frf = estimate_frf(f_e, x_e, dt, grid)

    extraction = extract_params(motor_frf, finger_frf, line_frf)
    whole_fit, whole_report = fit_tf(endpoint_frf)
    return SysIdResult(
        motor_frf=motor_frf,
        finger_frf=finger_frf,
        line_frf=line_frf,
        endpoint_frf=endpoint_frf,
        extraction=extraction,
        whole_fit=whole_fit,
        whole_report=whole_report,
    )

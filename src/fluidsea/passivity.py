"""Closed-form and numerical passivity analysis of the observer loop.

A linear time-invariant one-port is passive iff its admittance Y(s)

  (i)   has no poles in the open right half plane,
  (ii)  has only simple imaginary-axis poles, each with positive real
        residue, and
  (iii) satisfies Re Y(j omega) >= 0 for all omega.

For the motor plant under a first-order disturbance observer the admittance
is

    Y(s) = s (s + lambda) /
           (m s^3 + (lambda m_n + b) s^2 + (k + lambda b_n) s + lambda k_n)

and the three criteria reduce to closed-form bounds on the nominal-plant
coefficients:

    m_n >= m - b/lambda      and      0 <= k_n <= k + lambda b_n.

This module builds Y(s), evaluates the bounds, runs the three-criteria
numeric test (criterion (iii) from the sign of an exact even-polynomial
certificate, with a grid sweep for the report), and holds the package's one
linear port model, ``endpoint_impedance``: the endpoint impedance under any
controller, whose low edge bounds the Z-width (Colgate & Brown, ICRA 1994).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controllers import CompositeConfig, DOBConfig, PDConfig, ProportionalFFConfig
from .csvio import write_csv
from .lti import (
    AXIS_RTOL,
    FrequencyGrid,
    Polynomial,
    RationalTF,
    residues_at_imag_poles,
)
from .plant import PlantParams

__all__ = [
    "NominalBounds",
    "PassivityReport",
    "check_passive",
    "dob_admittance",
    "endpoint_impedance",
    "nominal_bounds",
    "real_part_certificate",
]


def dob_admittance(params: PlantParams, dob) -> RationalTF:
    """Driving-point admittance V/F_p of the motor plant under the observer.

    ``dob`` is the observer's DOBConfig: its cutoff ``lam`` and its inverse
    nominal plant coefficients m_n, b_n, k_n. Coefficients of the returned
    transfer function are exact in the given parameters (the stored form is
    monic-denominator normalized). With k_n = 0 the origin pole cancels
    against the numerator zero; use ``.reduced()`` for the cancelled form.
    """
    lam, m_n, b_n, k_n = dob.lam, dob.m_n, dob.b_n, dob.k_n
    num = Polynomial([1.0, lam, 0.0])
    den = Polynomial(
        [params.m, lam * m_n + params.b, params.k + lam * b_n, lam * k_n]
    )
    return RationalTF(num, den)


@dataclass(frozen=True)
class NominalBounds:
    """Closed-form passivity bounds on the nominal plant coefficients.

    m_n_min : least passive nominal inertia, m - b/lambda
    b_n_min : least passive nominal damping, -k/lambda
    plus the stiffness cap k_n <= k + lambda b_n (clipped at zero) and the
    auxiliary Routh-Hurwitz cap k_n <= (lambda m_n + b)(lambda b_n + k) /
    (lambda m), which the main bounds imply.
    """

    m: float
    b: float
    k: float
    lam: float
    m_n_min: float
    b_n_min: float

    def k_n_max(self, b_n: float) -> float:
        """Largest passive nominal stiffness for a given nominal damping."""
        return max(self.k + self.lam * b_n, 0.0)

    def k_n_routh_cap(self, m_n: float, b_n: float) -> float:
        """Right-half-plane (Routh-Hurwitz) stiffness cap, for reference."""
        return (self.lam * m_n + self.b) * (self.lam * b_n + self.k) / (
            self.lam * self.m
        )

    def contains(self, m_n: float, b_n: float, k_n: float) -> bool:
        """Membership in the closed passive region."""
        return (
            m_n >= self.m_n_min
            and 0.0 <= k_n <= self.k + self.lam * b_n
        )


def nominal_bounds(m: float, b: float, k: float, lam: float) -> NominalBounds:
    """Passive ranges of (m_n, b_n, k_n) for given motor plant and cutoff."""
    if m <= 0 or lam <= 0:
        raise ValueError("m and lambda must be > 0")
    if b < 0 or k < 0:
        raise ValueError("b and k must be >= 0")
    return NominalBounds(
        m=m, b=b, k=k, lam=lam, m_n_min=m - b / lam, b_n_min=-k / lam
    )


def real_part_certificate(tf: RationalTF) -> Polynomial:
    """Numerator of Re tf(j omega) as a polynomial in u = omega^2.

    Re tf(j w) = N(w) / |den(j w)|^2 with N even in w; this returns N as a
    polynomial in u = w^2, computed exactly from the coefficient products
    Re(j^(k-l)) a_k b_l. Nonnegativity of the returned polynomial on u >= 0
    is equivalent to criterion (iii).
    """
    a = tf.num.coeffs[::-1]  # ascending
    b = tf.den.coeffs[::-1]
    max_u = (len(a) - 1 + len(b) - 1) // 2
    out = np.zeros(max_u + 1)
    for kk, ak in enumerate(a):
        if ak == 0.0:
            continue
        for ll, bl in enumerate(b):
            if bl == 0.0 or (kk - ll) % 2 != 0:
                continue
            sign = -1.0 if ((kk - ll) // 2) % 2 else 1.0
            out[(kk + ll) // 2] += sign * ak * bl
    return Polynomial(out[::-1])


@dataclass(frozen=True)
class PassivityReport:
    """Outcome of the three-criteria test on a tested admittance."""

    rhp_poles: tuple
    imag_pole_issues: tuple
    min_real_part: tuple  # (omega_at_min, min Re Y over candidates)
    verdict: str          # "passive" | "non-passive"
    first_violation: str | None
    sweep: tuple          # (omegas, Re Y) for reporting

    def to_text(self) -> str:
        lines = [
            f"verdict: {self.verdict}",
            f"right-half-plane poles: {list(self.rhp_poles) or 'none'}",
            f"imaginary-pole issues: {list(self.imag_pole_issues) or 'none'}",
            "min Re Y(jw) = {:.6e} at w = {:.6e} rad/s".format(
                self.min_real_part[1], self.min_real_part[0]
            ),
        ]
        if self.first_violation:
            lines.append(f"first violated criterion: {self.first_violation}")
        return "\n".join(lines)

    def sweep_csv(self, path) -> None:
        omegas, re_y = self.sweep
        write_csv(path, "omega,re_Y", [omegas, re_y])


# Relative rounding allowance of a certificate value against the sum of the
# magnitudes of its terms, c_i u^i.
_CERT_RTOL = 1e-9


def _default_grid() -> FrequencyGrid:
    return FrequencyGrid.log_spaced(1e-2, 1e4, 400)


def check_passive(tf: RationalTF, grid: FrequencyGrid | None = None) -> PassivityReport:
    """Apply the three LTI passivity criteria to a transfer function.

    Criterion (i) uses the pole set of the reduced transfer function,
    (ii) the residues at simple imaginary-axis poles, and (iii) the sign of
    the exact even-polynomial certificate on omega^2 >= 0, so neither a
    narrow dip between grid points nor a violation that Re tf shrinks at
    high frequency escapes. The grid gives the reported sweep and, with the
    certificate's roots, the reported minimum of Re tf(j omega); grid points
    that coincide with poles are skipped and reported.
    """
    if grid is None:
        grid = _default_grid()
    red = tf.reduced()
    violations: list[str] = []

    poles = red.poles()
    rhp = tuple(p for p in poles if p.real >= AXIS_RTOL * max(1.0, abs(p)))
    if rhp:
        violations.append("(i) poles in the right half plane")

    issues = []
    for item in residues_at_imag_poles(red):
        if not item.simple:
            issues.append(f"non-simple imaginary pole at {item.pole}")
        elif item.residue.real <= 0.0:
            issues.append(
                f"imaginary pole at {item.pole} with non-positive residue real part "
                f"{item.residue.real:.3e}"
            )
    if issues:
        violations.append("(ii) imaginary poles not simple/positive-residue")

    # Criterion (iii): the certificate's sign on u = w^2 >= 0, read at 0,
    # between its positive real roots and beyond the largest. A value is
    # negative only past _CERT_RTOL times the sum of its terms' magnitudes,
    # so a violation counts however small Re Y is there (it falls as 1/w^2).
    # The reported minimum is over the sweep, the roots and the midpoints
    # around them.
    cert = real_part_certificate(red)
    roots, candidates = [], list(grid.omegas)
    if cert.degree >= 1:
        roots = sorted(
            r.real for r in cert.roots() if abs(r.imag) < 1e-7 * max(1.0, abs(r)) and r.real > 0
        )
        candidates += [float(np.sqrt(u)) for u in roots]
        pos = sorted(c for c in candidates if c > 0)
        candidates += [np.sqrt(w1 * w2) for w1, w2 in zip(pos[:-1], pos[1:])]
    probes = [0.0, *((u1 + u2) / 2 for u1, u2 in zip([0.0, *roots], roots))]
    probes.append(2.0 * roots[-1] if roots else 1.0)
    magnitude = Polynomial(np.abs(cert.coeffs))
    if any(cert(u) < -_CERT_RTOL * magnitude(u) for u in probes):
        violations.append("(iii) Re Y(jw) < 0")

    values, on_pole = red.response(candidates)
    re_y = np.where(on_pole, np.inf, values.real)
    skipped = [candidates[i] for i in np.flatnonzero(on_pole)]
    sweep_re = np.where(on_pole[:len(grid)], np.nan, values.real[:len(grid)])
    lowest = int(np.argmin(re_y))  # the first of equal minima
    min_re = re_y[lowest]
    min_w = candidates[lowest] if min_re < np.inf else np.nan

    verdict = "passive" if not violations else "non-passive"
    if skipped:
        issues = list(issues) + [f"skipped pole-on-grid points: {skipped}"]
    return PassivityReport(
        rhp_poles=rhp,
        imag_pole_issues=tuple(issues),
        min_real_part=(float(min_w), float(min_re)),
        verdict=verdict,
        first_violation=violations[0] if violations else None,
        sweep=(grid.omegas.copy(), sweep_re),
    )


# ---------------------------------------------------------------------------
# Endpoint impedance: the motor side is a one-port behind the line
# ---------------------------------------------------------------------------


def endpoint_impedance(params: PlantParams, controller) -> RationalTF:
    """Endpoint impedance Z_e(s) = F_e / V_e of the plant without hysteresis,
    under a controller configuration or None (passive).

    The motor and its controller form a one-port V/F_p = s A/Q behind the
    line. With E = m_e s^2 + b_e s + k_e, L = b_s s + k_s, M = m s^2 + b s + k
    and D = Q + A L, Z_e = (E D + L Q) / (s D), reduced. (A, Q) is (1, M)
    passive, (1 + K_f, M) under internal feedback, (1, M + K_d s + K_p) under
    PD, and (num / s, den) of ``dob_admittance`` under the observer, which the
    composite's feedforward estimates F = b_e s + k_e and L^ = b_s s + k_s
    turn into (A (L^ + F), L^ (Q - A F)). External feedback keeps its form
    (E (M + L) + L M) / (s (M + (1 + K_f) L)). A PD delay has no rational
    form (ValueError); anything but a configuration or None is a TypeError.
    """
    M = Polynomial([params.m, params.b, params.k])
    E = Polynomial([params.m_e, params.b_e, params.k_e])
    L = Polynomial([params.b_s, params.k_s])
    s, ctrl, A, Q = Polynomial([1.0, 0.0]), controller, 1.0, M
    if isinstance(ctrl, ProportionalFFConfig) and ctrl.source == "external":
        return RationalTF(E * (M + L) + L * M, s * (M + (1.0 + ctrl.K_f) * L)).reduced()
    if isinstance(ctrl, ProportionalFFConfig):
        A = 1.0 + ctrl.K_f
    elif isinstance(ctrl, PDConfig):
        if ctrl.delay_samples:
            raise ValueError("a PD delay has no rational closed form")
        Q = M + Polynomial([ctrl.K_d, ctrl.K_p])
    elif isinstance(ctrl, (DOBConfig, CompositeConfig)):
        # A and Q must share the monic scale of one RationalTF
        Y = dob_admittance(params, ctrl.dob if isinstance(ctrl, CompositeConfig) else ctrl)
        A, Q = Polynomial(Y.num.coeffs[:-1]), Y.den
        if isinstance(ctrl, CompositeConfig):
            ff = ctrl.feedforward
            F, L_hat = Polynomial([ff.b_e, ff.k_e]), Polynomial([ff.b_s, ff.k_s])
            A, Q = A * (L_hat + F), L_hat * (Q - A * F)
    elif ctrl is not None:
        raise TypeError(f"unsupported ctrl configuration: {ctrl!r}")
    D = Q + A * L
    return RationalTF(E * D + L * Q, s * D).reduced()

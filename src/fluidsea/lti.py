"""Real-coefficient polynomial and rational transfer-function arithmetic.

This module is the numerical substrate for the rest of the package: frequency
evaluation of rational transfer functions, pole computation, residues at
imaginary-axis poles, and Tustin (bilinear) discretization into streaming
recurrence filters.

Conventions
-----------
* Polynomial coefficients are stored in descending powers of s, as plain
  1-D float arrays, matching ``numpy.polyval`` / ``numpy.roots``.
* A ``RationalTF`` is normalized on construction: leading near-zero
  coefficients are trimmed and the denominator is made monic, with the shared
  scale folded into the numerator. Pole/zero cancellation is *not* automatic;
  call :meth:`RationalTF.reduced` where cancelled form is required.
* A pole is considered to lie on the imaginary axis when
  ``|Re(p)| < 1e-9 * max(1, |p|)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AXIS_RTOL",
    "DiscreteFilter",
    "EvaluationError",
    "FrequencyGrid",
    "ImagPoleResidue",
    "ImproperTransferFunctionError",
    "MalformedPolynomialError",
    "Polynomial",
    "RationalTF",
    "RootSolveError",
    "discretize_tustin",
    "residues_at_imag_poles",
]

# Relative half-width of the band around the imaginary axis used to classify
# poles as "imaginary". Chosen tight so positive-real testing stays crisp.
AXIS_RTOL = 1e-9

# Backward-error tolerance for accepting a root r of p: |p(r)| must not
# exceed ROOT_RESIDUAL_RTOL times sum_i |c_i| |r|^(n-i).
ROOT_RESIDUAL_RTOL = 1e-8

# RationalTF.reduced cancels a zero z and a pole p within CANCEL_RTOL * max(1, |p|).
CANCEL_RTOL = 1e-8


class MalformedPolynomialError(ValueError):
    """Polynomial input is empty, all-zero, or otherwise unusable."""


class RootSolveError(RuntimeError):
    """Eigenvalue-based root finding failed to converge or verify."""


class EvaluationError(ArithmeticError):
    """Transfer-function evaluation hit a pole (or near-pole) on the grid."""


class ImproperTransferFunctionError(ValueError):
    """Discretization requested for a transfer function with deg(num) > deg(den)."""


def _trim_leading(coeffs: np.ndarray) -> np.ndarray:
    """Drop leading coefficients that are negligible relative to the largest.

    The all-zero input collapses to the zero polynomial ``[0.0]``, kept as an
    additive identity; operations that cannot tolerate it raise explicitly.
    """
    c = np.asarray(coeffs, dtype=float).ravel()
    if c.size == 0:
        raise MalformedPolynomialError("empty coefficient array")
    scale = np.max(np.abs(c))
    if scale == 0.0:
        return np.zeros(1)
    keep = np.abs(c) > 1e-14 * scale
    first = int(np.argmax(keep))
    return c[first:].copy()


@dataclass(frozen=True)
class Polynomial:
    """Real-coefficient polynomial in the Laplace variable, descending order.

    Parameters
    ----------
    coeffs : array_like
        Coefficients ``[c_n, ..., c_1, c_0]`` so that
        ``p(s) = c_n s^n + ... + c_0``. Leading near-zero entries are trimmed
        on construction; the leading coefficient of the stored form is
        nonzero.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim_leading(self.coeffs))

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 1 and self.coeffs[0] == 0.0

    def __call__(self, s):
        return np.polyval(self.coeffs, s)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(np.polyadd(self.coeffs, other.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(np.polysub(self.coeffs, other.coeffs))

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return Polynomial(np.polymul(self.coeffs, other.coeffs))
        return Polynomial(self.coeffs * float(other))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs.shape == other.coeffs.shape and bool(
            np.array_equal(self.coeffs, other.coeffs)
        )

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial([0.0])
        return Polynomial(np.polyder(self.coeffs))

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise MalformedPolynomialError("cannot normalize the zero polynomial")
        return Polynomial(self.coeffs / self.coeffs[0])

    def roots(self) -> np.ndarray:
        """All complex roots, via the companion-matrix eigen-solve.

        Raises
        ------
        RootSolveError
            If the eigen-solve does not converge or any returned root fails
            the backward-error check ``|p(r)| <= tol * sum |c_i||r|^i``, with
            |r| taken at least eps times the largest root's modulus.
        """
        if self.is_zero:
            raise MalformedPolynomialError("zero polynomial has no root set")
        if self.degree < 1:
            return np.array([], dtype=complex)
        try:
            r = np.roots(self.coeffs)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
            raise RootSolveError(f"companion eigen-solve failed: {exc}") from exc
        absc = np.abs(self.coeffs)
        floor = np.finfo(float).eps * float(np.max(np.abs(r)))
        for root in r:
            powers = max(abs(root), floor) ** np.arange(self.degree, -1, -1, dtype=float)
            denom = float(np.dot(absc, powers))
            if denom > 0 and abs(self(root)) > ROOT_RESIDUAL_RTOL * denom:
                raise RootSolveError(
                    f"root {root} has backward error {abs(self(root)) / denom:.3e}"
                )
        return r

    def trailing_zero_count(self) -> int:
        """Number of exactly-zero trailing coefficients (roots at the origin)."""
        n = 0
        for c in self.coeffs[::-1]:
            if c == 0.0:
                n += 1
            else:
                break
        return min(n, self.degree)


def _poly_from_roots(roots, scale: float) -> Polynomial:
    """Real polynomial with the given (conjugate-closed) root set."""
    if len(roots) == 0:
        return Polynomial([scale])
    c = np.poly(np.asarray(roots, dtype=complex))
    return Polynomial(np.real(c) * scale)


@dataclass(frozen=True)
class RationalTF:
    """Ratio of two real polynomials in s, stored with a monic denominator.

    The shared scale removed from the denominator is folded into the
    numerator, so the represented function is unchanged by normalization.
    """

    num: Polynomial
    den: Polynomial

    def __post_init__(self):
        num = self.num if isinstance(self.num, Polynomial) else Polynomial(self.num)
        den = self.den if isinstance(self.den, Polynomial) else Polynomial(self.den)
        if den.is_zero:
            raise MalformedPolynomialError("denominator is identically zero")
        lead = den.coeffs[0]
        object.__setattr__(self, "num", Polynomial(num.coeffs / lead))
        object.__setattr__(self, "den", den.monic())

    @property
    def is_proper(self) -> bool:
        return self.num.degree <= self.den.degree

    def response(self, omegas) -> tuple[np.ndarray, np.ndarray]:
        """Frequency response ``num(j omega) / den(j omega)`` over ``omegas``.

        Returns the complex values and the mask of the points where
        ``den(j omega)`` vanishes to within backward error,
        ``|den(j omega)| <= 1e-13 sum_k |den_k| omega^k``: a pole sits on (or
        numerically on) that frequency, and the value there is NaN. Each
        polynomial is evaluated once over the whole grid. Raises
        ``ValueError`` unless every omega is strictly positive.
        """
        w = np.asarray(omegas, dtype=float)
        if not np.all(w > 0):
            raise ValueError("omega must be > 0")
        s = 1j * w
        d = self.den(s)
        on_pole = np.abs(d) <= 1e-13 * Polynomial(np.abs(self.den.coeffs))(w)
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.num(s) / np.where(on_pole, np.nan, d), on_pole

    def eval_grid(self, omegas) -> np.ndarray:
        """:meth:`response` over ``omegas``; ``EvaluationError`` names the first pole on it."""
        h, on_pole = self.response(omegas)
        if on_pole.any():
            w = np.asarray(omegas, dtype=float).ravel()[np.argmax(on_pole)]
            raise EvaluationError(f"pole on evaluation grid at omega={float(w)!r}")
        return h

    def eval(self, omega: float) -> complex:
        """The response at one angular frequency [rad/s]: :meth:`eval_grid`'s one-point view."""
        return complex(self.eval_grid([omega])[0])

    def poles(self) -> np.ndarray:
        """Roots of the stored denominator (multiplicity included)."""
        return self.den.roots()

    def reduced(self) -> "RationalTF":
        """Cancel common factors between numerator and denominator.

        Exact common powers of s (shared trailing zero coefficients) are
        cancelled first without any root finding. Remaining common roots are
        matched pairwise within ``CANCEL_RTOL * max(1, |root|)`` and removed,
        and the polynomials are rebuilt from the surviving roots. Reduction
        never changes the frequency response beyond root-matching tolerance.
        """
        nz = min(self.num.trailing_zero_count(), self.den.trailing_zero_count())
        num_c = self.num.coeffs[: self.num.coeffs.size - nz] if nz else self.num.coeffs
        den_c = self.den.coeffs[: self.den.coeffs.size - nz] if nz else self.den.coeffs
        num, den = Polynomial(num_c), Polynomial(den_c)
        if num.degree == 0 or den.degree == 0:
            return RationalTF(num, den)
        zeros = list(num.roots())
        poles = list(den.roots())
        kept_zeros = []
        for z in zeros:
            hit = None
            for i, p in enumerate(poles):
                if abs(z - p) <= CANCEL_RTOL * max(1.0, abs(p)):
                    hit = i
                    break
            if hit is None:
                kept_zeros.append(z)
            else:
                poles.pop(hit)
        if len(kept_zeros) == len(zeros):
            return RationalTF(num, den)
        new_num = _poly_from_roots(kept_zeros, float(num.coeffs[0]))
        new_den = _poly_from_roots(poles, float(den.coeffs[0]))
        return RationalTF(new_num, new_den)


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing, strictly positive angular-frequency grid [rad/s]."""

    omegas: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.omegas, dtype=float).ravel()
        if w.size == 0:
            raise ValueError("empty frequency grid")
        if np.any(w <= 0):
            raise ValueError("all grid frequencies must be > 0")
        if np.any(np.diff(w) <= 0):
            raise ValueError("grid frequencies must be strictly increasing")
        object.__setattr__(self, "omegas", w)

    @classmethod
    def log_spaced(cls, w_min: float, w_max: float, n: int) -> "FrequencyGrid":
        return cls(np.logspace(np.log10(w_min), np.log10(w_max), n))

    def __len__(self) -> int:
        return self.omegas.size


# ---------------------------------------------------------------------------
# Residues at imaginary-axis poles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImagPoleResidue:
    """One imaginary-axis pole of a transfer function.

    ``residue`` is ``None`` when the pole is not simple (``simple=False``);
    positive-real testing must then fail criterion (ii).
    """

    pole: complex
    residue: complex | None
    simple: bool


def _cluster_multiplicity(pole: complex, all_poles: np.ndarray) -> int:
    tol = 1e-6 * max(1.0, abs(pole))
    return int(np.sum(np.abs(all_poles - pole) <= tol))


def residues_at_imag_poles(tf: RationalTF) -> list[ImagPoleResidue]:
    """Poles on the imaginary axis with their residues.

    The transfer function is reduced (common factors cancelled) first, so an
    origin pole masked by an origin zero does not appear. For a simple pole p
    the residue is ``num(p) / den'(p)``. Non-simple imaginary poles are
    returned flagged, with no residue.
    """
    red = tf.reduced()
    poles = red.poles()
    out: list[ImagPoleResidue] = []
    seen: list[complex] = []
    dden = red.den.derivative()
    for p in poles:
        if abs(p.real) >= AXIS_RTOL * max(1.0, abs(p)):
            continue
        p_axis = complex(0.0, p.imag)
        if any(abs(p_axis - q) <= 1e-6 * max(1.0, abs(q)) for q in seen):
            continue
        seen.append(p_axis)
        mult = _cluster_multiplicity(p, poles)
        if mult > 1:
            out.append(ImagPoleResidue(p_axis, None, simple=False))
        else:
            res = complex(red.num(p_axis) / dden(p_axis))
            out.append(ImagPoleResidue(p_axis, res, simple=True))
    return out


# ---------------------------------------------------------------------------
# Tustin discretization
# ---------------------------------------------------------------------------


class DiscreteFilter:
    """Streaming IIR filter ``H(z) = b(z^-1) / a(z^-1)`` (direct form II transposed).

    Built by :func:`discretize_tustin`; also usable directly for discrete
    controller blocks. ``step`` consumes one input sample and returns one
    output sample; state persists between calls.
    """

    def __init__(self, b, a, dt: float):
        b = np.asarray(b, dtype=float).ravel()
        a = np.asarray(a, dtype=float).ravel()
        if a[0] == 0:
            raise ValueError("a[0] must be nonzero")
        self.b = b / a[0]
        self.a = a / a[0]
        self.dt = float(dt)
        order = max(self.b.size, self.a.size) - 1
        self.b = np.pad(self.b, (0, order + 1 - self.b.size))
        self.a = np.pad(self.a, (0, order + 1 - self.a.size))
        self._z = np.zeros(order)

    def step(self, u: float) -> float:
        b, a, z = self.b, self.a, self._z
        y = b[0] * u + (z[0] if z.size else 0.0)
        for i in range(z.size - 1):
            z[i] = b[i + 1] * u + z[i + 1] - a[i + 1] * y
        if z.size:
            z[-1] = b[-1] * u - a[-1] * y
        return y


def discretize_tustin(tf: RationalTF, dt: float) -> DiscreteFilter:
    """Bilinear-transform discretization, no pre-warping.

    Substitutes ``s = (2/dt)(z-1)/(z+1)``. DC gain is preserved exactly for
    transfer functions with no pole at the origin (s=0 maps to z=1). The
    frequency response of the recurrence matches the continuous response
    within 1% magnitude for ``omega < 0.1 * pi/dt``.

    Raises
    ------
    ImproperTransferFunctionError
        If deg(num) > deg(den); factor the derivative action out and apply it
        separately before discretizing the proper remainder.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if not tf.is_proper:
        raise ImproperTransferFunctionError(
            "improper transfer function: factor out derivative action first"
        )
    n = tf.den.degree
    K = 2.0 / dt
    zm1 = np.array([1.0, -1.0])
    zp1 = np.array([1.0, 1.0])

    def transform(coeffs: np.ndarray) -> np.ndarray:
        deg = coeffs.size - 1
        out = np.zeros(n + 1)
        for i, c in enumerate(coeffs):
            k = deg - i  # power of s this coefficient multiplies
            term = np.array([c * K**k])
            for _ in range(k):
                term = np.polymul(term, zm1)
            for _ in range(n - k):
                term = np.polymul(term, zp1)
            out = np.polyadd(out, term)
        return out

    b = transform(tf.num.coeffs)
    a = transform(tf.den.coeffs)
    return DiscreteFilter(b, a, dt)

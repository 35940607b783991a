import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluidsea.lti import (
    AXIS_RTOL,
    EvaluationError,
    FrequencyGrid,
    ImproperTransferFunctionError,
    MalformedPolynomialError,
    Polynomial,
    RationalTF,
    discretize_tustin,
    residues_at_imag_poles,
)

M, B, K = 1.1116e-3, 2.9814e-2, 0.1642


def motor_tf():
    return RationalTF(Polynomial([1.0]), Polynomial([M, B, K]))


def filter_response(f, omega):
    """H(e^{j omega dt}) of a DiscreteFilter's coefficients."""
    zinv = np.exp(-1j * omega * f.dt)
    powers = zinv ** np.arange(f.b.size)
    return complex(np.dot(f.b, powers) / np.dot(f.a, powers))


# Stable denominators of order 1 or 2: real poles s = -p, or a damped pair
# s^2 + 2 zeta w s + w^2.
_real_pole = st.floats(0.5, 200.0).map(lambda p: [1.0, p])
_stable_den = st.one_of(
    _real_pole,
    st.tuples(_real_pole, _real_pole).map(lambda pq: np.polymul(*pq)),
    st.tuples(st.floats(0.5, 200.0), st.floats(0.05, 2.0)).map(
        lambda wz: [1.0, 2.0 * wz[1] * wz[0], wz[0] ** 2]
    ),
)
_roots = st.lists(st.floats(0.1, 100.0), max_size=2)


class TestPolynomial:
    def test_trims_leading_zeros(self):
        p = Polynomial([0.0, 0.0, 2.0, 1.0])
        assert p.degree == 1
        np.testing.assert_allclose(p.coeffs, [2.0, 1.0])

    def test_zero_polynomial_is_identity(self):
        z = Polynomial([0.0, 0.0])
        assert z.is_zero
        p = Polynomial([1.0, 2.0])
        assert (p + z) == p

    def test_arithmetic(self):
        p = Polynomial([1.0, 1.0])
        q = Polynomial([1.0, -1.0])
        np.testing.assert_allclose((p * q).coeffs, [1.0, 0.0, -1.0])
        np.testing.assert_allclose((p - q).coeffs, [2.0])
        np.testing.assert_allclose((2.0 * p).coeffs, [2.0, 2.0])

    def test_roots_residual_checked(self):
        r = Polynomial([1.0, 2.0, 1.0]).roots()
        np.testing.assert_allclose(sorted(r.real), [-1.0, -1.0], atol=1e-6)
        assert np.all(np.abs(r.imag) < 1e-6)

    def test_zero_roots_rejected(self):
        with pytest.raises(MalformedPolynomialError):
            Polynomial([0.0]).roots()


class TestEval:
    def test_pure_integrator(self):
        tf = RationalTF(Polynomial([1.0]), Polynomial([1.0, 0.0]))
        assert tf.eval(1.0) == pytest.approx(-1j)

    def test_motor_plant_low_frequency_gain(self):
        # |X/F_p| approaches 1/k = 6.090 rad/Nm (15.69 dB) at low frequency
        h = motor_tf().eval(1e-3)
        assert abs(h) == pytest.approx(1.0 / K, rel=1e-4)
        assert 20 * np.log10(abs(h)) == pytest.approx(15.69, abs=0.01)

    def test_first_order_cutoff(self):
        lam = 20.0
        q = RationalTF(Polynomial([lam]), Polynomial([1.0, lam]))
        assert abs(q.eval(lam)) == pytest.approx(1 / np.sqrt(2), rel=1e-12)

    def test_pole_on_grid_reports_error(self):
        tf = RationalTF(Polynomial([1.0]), Polynomial([1.0, 0.0, 1.0]))
        with pytest.raises(EvaluationError):
            tf.eval(1.0)

    def test_grid_marks_poles_on_it(self):
        # poles at +-j and +-2j; the grid hits both
        tf = RationalTF(Polynomial([1.0, 0.5]), Polynomial(np.polymul([1.0, 0.0, 1.0], [1.0, 0.0, 4.0])))
        grid = np.array([0.5, 1.0, 1.5, 2.0, 3.0])
        h, on_pole = tf.response(grid)
        assert on_pole.tolist() == [False, True, False, True, False]
        assert np.isnan(h[on_pole]).all() and np.isfinite(h[~on_pole]).all()
        with pytest.raises(EvaluationError, match="omega=1.0"):
            tf.eval_grid(grid)
        assert tf.eval_grid(grid[[0, 2, 4]]).tolist() == h[~on_pole].tolist()

    def test_grid_equals_one_polyval_per_point(self):
        # the whole-grid evaluation gives each point's scalar Horner value, bit for bit
        tf = RationalTF(Polynomial([2.0e-3, 0.3, 7.0, 1.0]), Polynomial([M, B, K, 0.2, 0.05]))
        grid = np.logspace(-2, 4, 400)
        got = tf.eval_grid(grid)
        for w, h in zip(grid.tolist(), got.tolist()):
            s = 1j * w
            assert h == complex(np.polyval(tf.num.coeffs, s) / np.polyval(tf.den.coeffs, s))
            assert tf.eval(w) == h

    def test_omega_must_be_positive(self):
        with pytest.raises(ValueError):
            motor_tf().eval(0.0)

    def test_normalization_preserves_response(self):
        raw_num, raw_den = [3.0, 6.0], [2.0, 4.0, 2.0]
        tf = RationalTF(Polynomial(raw_num), Polynomial(raw_den))
        for w in (0.1, 1.0, 10.0):
            direct = np.polyval(raw_num, 1j * w) / np.polyval(raw_den, 1j * w)
            assert abs(tf.eval(w) - direct) <= 1e-10 * abs(direct)

    @settings(max_examples=200, deadline=None)
    @given(
        zeros=_roots,
        poles=st.lists(st.floats(0.1, 100.0), min_size=1, max_size=3),
        common=_roots,
        origin=st.integers(0, 1),
        gain=st.floats(0.01, 100.0),
    )
    def test_reduced_preserves_eval_property(self, zeros, poles, common, origin, gain):
        # zeros at -z, poles at -p, and shared factors (s + c) and s^origin
        num = np.poly([-z for z in zeros + common]) * gain
        den = np.poly([-p for p in poles + common])
        num, den = np.append(num, [0.0] * origin), np.append(den, [0.0] * origin)
        tf = RationalTF(Polynomial(num), Polynomial(den))
        red = tf.reduced()
        for w in np.logspace(-2, 3, 25):
            assert abs(red.eval(w) - tf.eval(w)) <= 1e-6 * abs(tf.eval(w))

    def test_reduction_preserves_response(self):
        # common factor (s+2) shared by numerator and denominator
        num = Polynomial(np.polymul([1.0, 2.0], [1.0, 0.5]))
        den = Polynomial(np.polymul([1.0, 2.0], [1.0, 3.0, 2.5]))
        tf = RationalTF(num, den)
        red = tf.reduced()
        assert red.den.degree == 2
        for w in np.logspace(-2, 2, 20):
            assert abs(red.eval(w) - tf.eval(w)) <= 1e-10 * abs(tf.eval(w))


class TestPoles:
    def test_repeated_real_root(self):
        tf = RationalTF(Polynomial([1.0]), Polynomial([1.0, 2.0, 1.0]))
        np.testing.assert_allclose(np.sort(tf.poles().real), [-1.0, -1.0], atol=1e-7)

    def test_observer_denominator_all_left_half_plane(self):
        lam = 20.0
        den = Polynomial([M, lam * M + B, K, 0.0])
        roots = den.roots()
        assert np.all(roots.real <= AXIS_RTOL)

    def test_triple_origin_pole_flagged_non_simple(self):
        tf = RationalTF(Polynomial([1.0]), Polynomial([1.0, 0.0, 0.0, 0.0]))
        items = residues_at_imag_poles(tf)
        assert len(items) == 1
        assert not items[0].simple and items[0].residue is None


class TestResidues:
    def test_plain_integrator(self):
        tf = RationalTF(Polynomial([1.0]), Polynomial([1.0, 0.0]))
        items = residues_at_imag_poles(tf)
        assert items[0].simple
        assert items[0].residue == pytest.approx(1.0)

    def test_single_origin_pole_of_observer(self):
        # b_n = -k/lambda, k_n = 0: residue at the origin is lambda/(lambda m_n + b)
        lam, m_n = 20.0, M
        Y = RationalTF(
            Polynomial([1.0, lam, 0.0]),
            Polynomial([M, lam * m_n + B, 0.0, 0.0]),
        )
        items = residues_at_imag_poles(Y)
        assert len(items) == 1 and items[0].simple
        assert items[0].pole == 0
        assert items[0].residue.real == pytest.approx(lam / (lam * m_n + B), rel=1e-9)

    def test_conjugate_pole_residue_real_part(self):
        # unit motor inertia: the conjugate-pair residue has real part 0.5;
        # for general inertia it scales as 1/(2 m)
        for m in (1.0, M):
            lam, k = 2.0, 0.1
            Y = RationalTF(
                Polynomial([1.0, lam, 0.0]), Polynomial([m, 0.0, k, 0.0])
            )
            items = residues_at_imag_poles(Y)
            assert len(items) == 2
            for it in items:
                assert it.simple
                assert it.residue.real == pytest.approx(1.0 / (2.0 * m), rel=1e-9)


class TestTustin:
    DT = 1.0 / 2000.0

    def test_unity_passthrough(self):
        f = discretize_tustin(RationalTF(Polynomial([1.0]), Polynomial([1.0])), self.DT)
        for u in (0.0, 1.0, -2.5):
            assert f.step(u) == u

    def test_low_pass_dc_gain_one(self):
        lam = 20.0
        f = discretize_tustin(
            RationalTF(Polynomial([lam]), Polynomial([1.0, lam])), self.DT
        )
        for _ in range(20000):
            y = f.step(1.0)
        assert y == pytest.approx(1.0, abs=1e-12)

    def test_integrator_matches_continuous(self):
        lam = 20.0
        f = discretize_tustin(
            RationalTF(Polynomial([lam]), Polynomial([1.0, 0.0])), self.DT
        )
        want = lam / 1j
        assert abs(filter_response(f, 1.0) - want) <= 1e-3 * abs(want)

    def test_improper_rejected(self):
        with pytest.raises(ImproperTransferFunctionError):
            discretize_tustin(
                RationalTF(Polynomial([1.0, 0.0]), Polynomial([1.0])), self.DT
            )

    @settings(max_examples=200, deadline=None)
    @given(
        den=_stable_den,
        num=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=2),
        num_dc=st.floats(0.5, 2.0),
    )
    def test_dc_gain_preserved_for_random_systems(self, den, num, num_dc):
        # s = 0 maps to z = 1: the filter's sum(b) / sum(a) is num[-1] / den[-1]
        # in exact arithmetic. The coefficient c_k of s^k enters the sums as
        # c_k (2/dt)^k times terms that cancel at z = 1, so the roundoff
        # bound scales with sum_k |c_k| (2/dt)^k / |c_0|, below 1e-6 here.
        den = np.asarray(den, dtype=float)
        num = np.append(num[: den.size - 1], num_dc)
        tf = RationalTF(Polynomial(num), Polynomial(den))
        f = discretize_tustin(tf, self.DT)

        def condition(c):
            powers = (2.0 / self.DT) ** np.arange(c.size - 1, -1, -1)
            return np.sum(np.abs(c) * powers) / abs(c[-1])

        want = tf.num.coeffs[-1] / tf.den.coeffs[-1]
        tol = 16 * np.finfo(float).eps * (condition(tf.num.coeffs) + condition(tf.den.coeffs))
        assert tol < 1e-6
        assert np.sum(f.b) / np.sum(f.a) == pytest.approx(want, rel=tol)

    def test_response_matches_below_tenth_nyquist(self):
        tf = RationalTF(Polynomial([1.0, 50.0]), Polynomial([1e-3, 0.05, 1.5]))
        f = discretize_tustin(tf, self.DT)
        for w in np.logspace(0, np.log10(0.1 * np.pi / self.DT), 20):
            c = tf.eval(w)
            d = filter_response(f, w)
            assert abs(abs(d) / abs(c) - 1.0) < 0.01


class TestFrequencyGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencyGrid([0.0, 1.0])
        with pytest.raises(ValueError):
            FrequencyGrid([1.0, 1.0])
        g = FrequencyGrid.log_spaced(0.1, 100.0, 31)
        assert len(g) == 31
        assert g.omegas[0] == pytest.approx(0.1)

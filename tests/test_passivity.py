import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fluidsea.controllers import (
    CompositeConfig,
    DOBConfig,
    FeedforwardConfig,
    PDConfig,
    ProportionalFFConfig,
)
from fluidsea.impedance import measure_impedance
from fluidsea.lti import FrequencyGrid, Polynomial, RationalTF, residues_at_imag_poles
from fluidsea.passivity import (
    check_passive,
    dob_admittance,
    endpoint_impedance,
    nominal_bounds,
    real_part_certificate,
)
from fluidsea.plant import PlantParams

from conftest import feedforward

LAM = 20.0


def proportional(K_f, source="internal"):
    return ProportionalFFConfig(K_f, source)


def dc_stiffness(tf):
    """Limit of s Z(s) as s -> 0 for an impedance with one origin pole."""
    assert tf.den.coeffs[-1] == pytest.approx(0.0, abs=1e-12)
    return tf.num.coeffs[-1] / tf.den.coeffs[-2]


def internal_dc_stiffness(p, K_f):
    """Closed-form s Z_e(s) at s -> 0 under internal force feedback at gain K_f."""
    return p.k_e + p.k * p.k_s / ((1.0 + K_f) * p.k_s + p.k)


class TestDobAdmittance:
    def test_coefficients_exact(self, gripper_linear):
        p = gripper_linear
        Y = dob_admittance(p, DOBConfig(lam=LAM, m_n=p.m, b_n=0.0, k_n=0.0))
        np.testing.assert_allclose(
            Y.den.coeffs * p.m, [1.1116e-3, 5.2046e-2, 0.1642, 0.0], rtol=1e-12
        )
        np.testing.assert_allclose(Y.num.coeffs * p.m, [1.0, LAM, 0.0], rtol=1e-12)

    def test_observer_off_limit(self, gripper_linear):
        p = gripper_linear
        tiny = 1e-9
        Y = dob_admittance(p, DOBConfig(lam=tiny, m_n=p.m)).reduced()
        passive_motor = RationalTF(Polynomial([1.0, 0.0]), Polynomial([p.m, p.b, p.k]))
        for w in (0.1, 1.0, 10.0, 100.0):
            assert Y.eval(w) == pytest.approx(passive_motor.eval(w), rel=1e-6)

    def test_zero_nominal_stiffness_cancels_origin_pole(self, gripper_linear):
        p = gripper_linear
        Y = dob_admittance(p, DOBConfig(lam=LAM, m_n=p.m, b_n=0.01, k_n=0.0))
        red = Y.reduced()
        assert red.den.coeffs[-1] != 0.0  # no pole left at the origin
        dc = red.num.coeffs[-1] / red.den.coeffs[-1]
        assert dc == pytest.approx(LAM / (p.k + LAM * 0.01), rel=1e-9)


class TestNominalBounds:
    def test_gripper_inertia_bound_is_negative(self, gripper_linear):
        p = gripper_linear
        nb = nominal_bounds(p.m, p.b, p.k, LAM)
        assert nb.m_n_min == pytest.approx(-3.791e-4, rel=1e-3)

    def test_stiffness_cap_at_zero_damping(self, gripper_linear):
        nb = nominal_bounds(gripper_linear.m, gripper_linear.b, gripper_linear.k, LAM)
        assert nb.k_n_max(0.0) == pytest.approx(0.1642)
        assert nb.k_n_max(-1.0) == 0.0

    def test_no_damping_means_no_inertia_reduction(self, gripper_linear):
        nb = nominal_bounds(gripper_linear.m, 0.0, gripper_linear.k, LAM)
        assert nb.m_n_min == gripper_linear.m

    def test_main_bounds_imply_routh_cap(self, gripper_linear):
        p = gripper_linear
        nb = nominal_bounds(p.m, p.b, p.k, LAM)
        rng = np.random.default_rng(2)
        for _ in range(100):
            m_n = nb.m_n_min + rng.uniform(0.0, 4.0) * p.m
            b_n = nb.b_n_min + rng.uniform(0.0, 3.0) * max(p.b, 1e-4)
            k_n = rng.uniform(0.0, 1.0) * nb.k_n_max(b_n)
            assert k_n <= nb.k_n_routh_cap(m_n, b_n) + 1e-12


class TestCheckPassive:
    def test_first_order_lag(self):
        tf = RationalTF(Polynomial([1.0]), Polynomial([1.0, 1.0]))
        assert check_passive(tf).verdict == "passive"

    def test_just_below_inertia_bound_fails_real_part(self, gripper_linear):
        p = gripper_linear
        nb = nominal_bounds(p.m, p.b, p.k, LAM)
        Y = dob_admittance(p, DOBConfig(lam=LAM, m_n=nb.m_n_min - 1e-5, b_n=0.0, k_n=0.0))
        rep = check_passive(Y)
        assert rep.verdict == "non-passive"
        assert "(iii)" in rep.first_violation

    def test_high_frequency_violation_fails_real_part(self):
        # 1e-5 below the inertia bound m - b/lambda = 0: Re Y(jw) turns negative
        # past w = 224 rad/s but only by about 5e-11, as it falls as 1/w^2
        plant = PlantParams(m=1.0, b=1.0, k=1.0, m_e=1.0, b_e=0.0, k_e=0.0, b_s=0.0, k_s=1.0)
        dob = DOBConfig(lam=1.0, m_n=-1e-5, b_n=0.0, k_n=0.5)
        assert not nominal_bounds(1.0, 1.0, 1.0, 1.0).contains(dob.m_n, dob.b_n, dob.k_n)
        rep = check_passive(dob_admittance(plant, dob))
        assert rep.verdict == "non-passive"
        assert "(iii)" in rep.first_violation
        assert -1e-10 < rep.min_real_part[1] < 0.0

    def test_pole_on_grid_is_skipped(self):
        # Y = s / (s^2 + 1): a lossless tank, passive, with its poles on the grid
        Y = RationalTF(Polynomial([1.0, 0.0]), Polynomial([1.0, 0.0, 1.0]))
        grid = FrequencyGrid(np.array([0.5, 1.0, 2.0]))
        rep = check_passive(Y, grid)
        assert rep.verdict == "passive"
        skipped = rep.imag_pole_issues[-1]
        assert skipped.startswith("skipped pole-on-grid points: [") and "1.0" in skipped
        assert "0.5" not in skipped and "2.0" not in skipped
        omegas, re_y = rep.sweep
        assert omegas.tolist() == [0.5, 1.0, 2.0]
        assert np.isnan(re_y[1]) and abs(re_y[0]) < 1e-15 and abs(re_y[2]) < 1e-15

    def test_double_origin_pole_fails_residue_criterion(self, gripper_linear):
        p = gripper_linear
        Y = dob_admittance(p, DOBConfig(lam=LAM, m_n=-p.b / LAM, b_n=-p.k / LAM, k_n=0.0))
        rep = check_passive(Y)
        assert rep.verdict == "non-passive"
        assert "(ii)" in rep.first_violation

    def test_certificate_matches_closed_form(self, gripper_linear):
        # numerator of Re Y(jw) is lam w^2 (k + lam b_n - k_n) + w^4 (b + lam m_n - lam m)
        p = gripper_linear
        m_n, b_n, k_n = 0.8e-3, 5e-3, 0.05
        Y = dob_admittance(p, DOBConfig(lam=LAM, m_n=m_n, b_n=b_n, k_n=k_n))
        cert = real_part_certificate(Y)
        # stored tf is monic-denominator scaled by 1/m in num and den: the
        # certificate then carries 1/m^2.
        want = np.array(
            [(p.b + LAM * m_n - LAM * p.m), LAM * (p.k + LAM * b_n - k_n), 0.0]
        ) / p.m**2
        np.testing.assert_allclose(cert.coeffs, want, rtol=1e-9)

    def test_report_serialization(self, gripper_linear, tmp_path):
        p = gripper_linear
        Y = dob_admittance(p, DOBConfig(lam=LAM, m_n=p.m))
        rep = check_passive(Y)
        text = rep.to_text()
        assert "verdict: passive" in text
        out = tmp_path / "sweep.csv"
        rep.sweep_csv(out)
        header = open(out).readline().strip()
        assert header == "omega,re_Y"

    def test_residue_formula_on_reduced_admittance(self, gripper_linear):
        p = gripper_linear
        cfg = DOBConfig(lam=LAM, m_n=p.m, b_n=-p.k / LAM, k_n=0.0)
        items = residues_at_imag_poles(dob_admittance(p, cfg))
        assert len(items) == 1
        assert items[0].residue.real == pytest.approx(
            LAM / (LAM * p.m + p.b), rel=1e-9
        )

    def test_bounds_agree_with_numeric_test(self, gripper_linear):
        # randomized draws, excluding a relative boundary band
        rng = np.random.default_rng(123)
        band = 1e-6
        grid = FrequencyGrid.log_spaced(1e-2, 1e4, 400)
        for _ in range(60):
            m = 10.0 ** rng.uniform(-4, 0)
            b = 10.0 ** rng.uniform(-3, 1)
            k = 10.0 ** rng.uniform(-2, 1)
            lam = 10.0 ** rng.uniform(0.3, 2.5)
            nb = nominal_bounds(m, b, k, lam)
            m_n = nb.m_n_min + rng.uniform(-0.5, 2.0) * m
            b_n = nb.b_n_min + rng.uniform(-0.5, 2.0) * max(k / lam, 1e-6)
            k_n = rng.uniform(-0.2, 1.5) * max(nb.k_n_max(b_n), k)
            margins = [
                (m_n - nb.m_n_min) / max(m, abs(m_n)),
                k_n / max(k, 1.0),
                (nb.k_n_max(b_n) - k_n) / max(k, 1.0),
            ]
            if min(abs(x) for x in margins) < band:
                continue
            want = nb.contains(m_n, b_n, k_n)
            Y = dob_admittance(
                type("P", (), {"m": m, "b": b, "k": k})(),
                DOBConfig(lam=lam, m_n=m_n, b_n=b_n, k_n=k_n),
            )
            got = check_passive(Y, grid).verdict == "passive"
            assert got == want, (m, b, k, lam, m_n, b_n, k_n)

    @settings(max_examples=100, deadline=None)
    @given(
        m=st.floats(-4.0, 1.0).map(lambda e: 10.0 ** e),
        b=st.floats(-3.0, 1.0).map(lambda e: 10.0 ** e),
        k=st.floats(-2.0, 1.0).map(lambda e: 10.0 ** e),
        lam=st.floats(0.0, 2.5).map(lambda e: 10.0 ** e),
        dm=st.floats(-0.5, 2.0),
        db=st.floats(-0.5, 2.0),
        dk=st.floats(-0.2, 1.5),
    )
    def test_bounds_agree_with_numeric_test_property(self, m, b, k, lam, dm, db, dk):
        # acceptance 2 as a property over its domain widened to m up to 10 and
        # lambda down to 1, edges included: off a relative band of 1e-6 around
        # the bounds, the closed form and the three-criteria test give one verdict
        nb = nominal_bounds(m, b, k, lam)
        m_n = nb.m_n_min + dm * m
        b_n = nb.b_n_min + db * max(k / lam, 1e-6)
        k_n = dk * max(nb.k_n_max(b_n), k)
        margins = (
            (m_n - nb.m_n_min) / max(m, abs(m_n)),
            k_n / max(k, 1.0),
            (nb.k_n_max(b_n) - k_n) / max(k, 1.0),
        )
        assume(min(abs(x) for x in margins) >= 1e-6)
        plant = PlantParams(m=m, b=b, k=k, m_e=1.0, b_e=0.0, k_e=0.0, b_s=0.0, k_s=1.0)
        Y = dob_admittance(plant, DOBConfig(lam=lam, m_n=m_n, b_n=b_n, k_n=k_n))
        got = check_passive(Y).verdict == "passive"
        assert got == nb.contains(m_n, b_n, k_n)


class TestEndpointImpedance:
    def test_passive_dc_stiffness(self, gripper_linear):
        p = gripper_linear
        Z = endpoint_impedance(p, None)
        want = p.k_e + p.k * p.k_s / (p.k + p.k_s)
        assert dc_stiffness(Z) == pytest.approx(want, rel=1e-9)
        assert want == pytest.approx(0.2259, abs=5e-5)

    def test_internal_unit_gain_dc_stiffness(self, gripper_linear):
        Z = endpoint_impedance(gripper_linear, proportional(1.0))
        assert dc_stiffness(Z) == pytest.approx(0.14529, abs=5e-6)

    def test_non_backdrivable_regime(self, gripper_linear):
        from dataclasses import replace

        p = replace(gripper_linear, k=1e4)
        Z = endpoint_impedance(p, proportional(1.0))
        assert dc_stiffness(Z) == pytest.approx(p.k_s + p.k_e, rel=0.01)

    def test_low_freq_limit_consistency_random_params(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            from fluidsea.plant import PlantParams

            p = PlantParams(
                m=10 ** rng.uniform(-4, -2), b=10 ** rng.uniform(-3, -1),
                k=10 ** rng.uniform(-2, 0), m_e=10 ** rng.uniform(-4, -2),
                b_e=10 ** rng.uniform(-3, -1), k_e=10 ** rng.uniform(-3, 0),
                b_s=10 ** rng.uniform(-3, -1), k_s=10 ** rng.uniform(0, 2),
            )
            Z = endpoint_impedance(p, proportional(1.0))
            assert dc_stiffness(Z) == pytest.approx(internal_dc_stiffness(p, 1.0), rel=1e-9)

    def test_source_validation(self, gripper_linear):
        with pytest.raises(ValueError):
            endpoint_impedance(gripper_linear, proportional(1.0, "both"))

    def test_monotone_in_gain(self, gripper_linear):
        gains = np.linspace(0.0, 1.0, 11)
        stiff = [dc_stiffness(endpoint_impedance(gripper_linear, proportional(g))) for g in gains]
        assert np.all(np.diff(stiff) < 0)

    def test_external_beats_internal_at_low_frequency(self, gripper_linear):
        Zi = endpoint_impedance(gripper_linear, proportional(1.0))
        Ze = endpoint_impedance(gripper_linear, proportional(1.0, "external"))
        for w in np.logspace(-2, 0, 15):
            assert abs(Ze.eval(w)) <= abs(Zi.eval(w))


def proportional_only_form(p, K_f, source):
    """The explicit closed form of proportional feedback, written out apart
    from ``endpoint_impedance``: Z_e = (E (M + g L) + L M) / (s (M + (1 + K_f) L))
    with g = 1 + K_f for internal and g = 1 for external feedback."""
    M = Polynomial([p.m, p.b, p.k])
    E = Polynomial([p.m_e, p.b_e, p.k_e])
    L = Polynomial([p.b_s, p.k_s])
    g = 1.0 + K_f if source == "internal" else 1.0
    num = E * (M + g * L) + L * M
    den = Polynomial([1.0, 0.0]) * (M + (1.0 + K_f) * L)
    return RationalTF(num, den).reduced()


def loop_solve_impedance(p, ctrl, w):
    """Z_e(j w) of the composite from the six loop equations, solved numerically.

    Unknowns X, X_e, F_p, F_a, F_cmp, F_e, with X_e = 1:
    M X = F_a + F_p, F_p = L (X_e - X), E X_e = F_e - F_p, the observer
    F_a = F_cmp + (lam/s)(F_cmp + F_p - P_n s X) and the feedforward
    F_cmp = F X + (F / L^) F_p.
    """
    s = 1j * w
    dob, ff = ctrl.dob, ctrl.feedforward
    M, E, L = p.m * s * s + p.b * s + p.k, p.m_e * s * s + p.b_e * s + p.k_e, p.b_s * s + p.k_s
    F, L_hat = ff.b_e * s + ff.k_e, ff.b_s * s + ff.k_s
    P_n = dob.m_n * s + dob.b_n + dob.k_n / s
    q = dob.lam / s
    rows = np.array([
        [M, 0, -1, -1, 0, 0],
        [L, -L, 1, 0, 0, 0],
        [0, E, 1, 0, 0, -1],
        [q * P_n * s, 0, -q, 1, -(1 + q), 0],
        [-F, 0, -F / L_hat, 0, 1, 0],
        [0, 1, 0, 0, 0, 0],
    ], dtype=complex)
    x = np.linalg.solve(rows, np.array([0, 0, 0, 0, 0, 1], dtype=complex))
    return x[5] / (s * x[1])


_coefficient = st.floats(-3.0, 1.0).map(lambda e: 10.0 ** e)


class TestPortModel:
    @settings(max_examples=300, deadline=None)
    @given(
        m=_coefficient, b=_coefficient, k=_coefficient, m_e=_coefficient, b_e=_coefficient,
        k_e=_coefficient, b_s=_coefficient, k_s=_coefficient,
        K_f=st.floats(0.0, 10.0), source=st.sampled_from(["internal", "external"]),
    )
    def test_proportional_is_bit_identical_to_explicit_form(
        self, m, b, k, m_e, b_e, k_e, b_s, k_s, K_f, source
    ):
        p = PlantParams(m=m, b=b, k=k, m_e=m_e, b_e=b_e, k_e=k_e, b_s=b_s, k_s=k_s)
        got = endpoint_impedance(p, proportional(K_f, source))
        want = proportional_only_form(p, K_f, source)
        assert np.array_equal(got.num.coeffs, want.num.coeffs)
        assert np.array_equal(got.den.coeffs, want.den.coeffs)

    def test_passive_is_zero_gain_feedback(self, gripper_linear):
        got = endpoint_impedance(gripper_linear, None)
        want = proportional_only_form(gripper_linear, 0.0, "internal")
        assert got.num == want.num and got.den == want.den

    @pytest.mark.parametrize(
        "scale", [(1.0, 1.0, 1.0, 1.0), (1.5, 0.5, 1.2, 0.9), (0.0, 2.0, 0.7, 1.3)]
    )
    @pytest.mark.parametrize("dob", [
        DOBConfig(lam=20.0, m_n=1.1116e-3),
        DOBConfig(lam=2 * math.pi * 20.0, m_n=0.8e-3, b_n=0.01, k_n=0.05),
    ])
    def test_composite_solves_the_loop_equations(self, gripper_linear, dob, scale):
        # mismatched feedforward estimates too: the form is exact for any of them
        p = gripper_linear
        ff = FeedforwardConfig(b_e=scale[0] * p.b_e, k_e=scale[1] * p.k_e,
                               b_s=scale[2] * p.b_s, k_s=scale[3] * p.k_s)
        ctrl = CompositeConfig(dob, ff)
        Z = endpoint_impedance(p, ctrl)
        for w in (0.1, 3.0, 100.0):
            assert Z.eval(w) == pytest.approx(loop_solve_impedance(p, ctrl, w), rel=1e-9)

    def test_matches_measurement(self, gripper_linear):
        # analog feedback acts inside the RK4 stages, so only the integrator
        # separates the sweep from the closed form; the sampled controllers
        # add the first-order sampled-data gap of the 2 kHz loop
        p = gripper_linear
        dob_rad = DOBConfig(lam=LAM, m_n=p.m)
        analog, sampled = (1e-5, 1e-4), (0.02, 0.2)  # dB, degrees
        cases = [
            (None, analog),
            (proportional(1.0), analog),
            (proportional(1.0, "external"), analog),
            (PDConfig(K_p=88.4, K_d=1.768), sampled),
            (dob_rad, sampled),
            (DOBConfig(lam=2 * math.pi * 20.0, m_n=p.m), sampled),
            (CompositeConfig(dob_rad, feedforward(p)), sampled),
        ]
        grid = FrequencyGrid(np.array([0.3, 3.0, 10.0]))
        for ctrl, (tol_db, tol_deg) in cases:
            fr = measure_impedance(p, ctrl, grid)
            ratio = fr.H / endpoint_impedance(p, ctrl).eval_grid(fr.omegas)
            assert np.all(fr.valid), ctrl
            assert np.max(np.abs(20 * np.log10(np.abs(ratio)))) < tol_db, ctrl
            assert np.max(np.abs(np.degrees(np.angle(ratio)))) < tol_deg, ctrl

    def test_pd_delay_has_no_closed_form(self, gripper_linear):
        with pytest.raises(ValueError, match="delay"):
            endpoint_impedance(gripper_linear, PDConfig(K_p=1.0, K_d=0.1, delay_samples=1))

    def test_rejects_a_non_configuration(self, gripper_linear):
        with pytest.raises(TypeError):
            endpoint_impedance(gripper_linear, "dob")


class TestLowFreqLimits:
    def test_eq_values(self, gripper_linear):
        p = gripper_linear
        general = dc_stiffness(endpoint_impedance(p, proportional(1.0)))
        backdrivable = p.k / 2.0 + p.k_e
        assert general == pytest.approx(0.14529, abs=5e-6)
        assert backdrivable == pytest.approx(0.1458, abs=1e-6)
        assert p.k_s + p.k_e == pytest.approx(13.1419, abs=1e-4)
        # highly stiff line: the approximation is within 0.4% here
        assert backdrivable == pytest.approx(general, rel=4e-3)

    def test_half_driving_point_friction_limit(self):
        from fluidsea.plant import PlantParams

        p = PlantParams(
            m=1e-3, b=1e-2, k=0.2, m_e=1e-3, b_e=0.0, k_e=0.0, b_s=0.0, k_s=1e9
        )
        assert internal_dc_stiffness(p, 1.0) == pytest.approx(p.k / 2, rel=1e-6)
        Z = endpoint_impedance(p, proportional(1.0))
        assert dc_stiffness(Z) == pytest.approx(p.k / 2, rel=1e-6)

import numpy as np
import pytest

from fluidsea.controllers import DOBConfig
from fluidsea.lti import FrequencyGrid, Polynomial, RationalTF, residues_at_imag_poles
from fluidsea.passivity import (
    check_passive,
    dob_admittance,
    endpoint_impedance_ff,
    nominal_bounds,
    real_part_certificate,
)

LAM = 20.0


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


class TestEndpointImpedance:
    def test_passive_dc_stiffness(self, gripper_linear):
        p = gripper_linear
        Z = endpoint_impedance_ff(p, 0.0)
        want = p.k_e + p.k * p.k_s / (p.k + p.k_s)
        assert dc_stiffness(Z) == pytest.approx(want, rel=1e-9)
        assert want == pytest.approx(0.2259, abs=5e-5)

    def test_internal_unit_gain_dc_stiffness(self, gripper_linear):
        Z = endpoint_impedance_ff(gripper_linear, 1.0, "internal")
        assert dc_stiffness(Z) == pytest.approx(0.14529, abs=5e-6)

    def test_non_backdrivable_regime(self, gripper_linear):
        from dataclasses import replace

        p = replace(gripper_linear, k=1e4)
        Z = endpoint_impedance_ff(p, 1.0, "internal")
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
            Z = endpoint_impedance_ff(p, 1.0, "internal")
            assert dc_stiffness(Z) == pytest.approx(internal_dc_stiffness(p, 1.0), rel=1e-9)

    def test_source_validation(self, gripper_linear):
        with pytest.raises(ValueError):
            endpoint_impedance_ff(gripper_linear, 1.0, "both")

    def test_monotone_in_gain(self, gripper_linear):
        gains = np.linspace(0.0, 1.0, 11)
        stiff = [dc_stiffness(endpoint_impedance_ff(gripper_linear, g)) for g in gains]
        assert np.all(np.diff(stiff) < 0)

    def test_external_beats_internal_at_low_frequency(self, gripper_linear):
        Zi = endpoint_impedance_ff(gripper_linear, 1.0, "internal")
        Ze = endpoint_impedance_ff(gripper_linear, 1.0, "external")
        for w in np.logspace(-2, 0, 15):
            assert abs(Ze.eval(w)) <= abs(Zi.eval(w))


class TestLowFreqLimits:
    def test_eq_values(self, gripper_linear):
        p = gripper_linear
        general = dc_stiffness(endpoint_impedance_ff(p, 1.0, "internal"))
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
        Z = endpoint_impedance_ff(p, 1.0, "internal")
        assert dc_stiffness(Z) == pytest.approx(p.k / 2, rel=1e-6)

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluidsea.controllers import PDConfig
from fluidsea.impedance import snap_omega
from fluidsea.lti import FrequencyGrid
from fluidsea.plant import (
    PlantParams,
    PlantState,
    SimTrace,
    SimulationDivergedError,
    _make_stepper,
    dahl_rate,
    internal_force,
    simulate,
    simulate_backdriven,
    step,
)
from fluidsea.signals import SineMotionSpec, SineSpec
from fluidsea.sysid import estimate_frf

DT = 1.0 / 2000.0


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            PlantParams(m=0, b=0, k=0, m_e=1e-3, b_e=0, k_e=0, b_s=0, k_s=1)
        with pytest.raises(ValueError):
            PlantParams(m=1e-3, b=-1, k=0, m_e=1e-3, b_e=0, k_e=0, b_s=0, k_s=1)

    def test_gripper_values(self, gripper):
        assert gripper.m == pytest.approx(1.1116e-3)
        assert gripper.k_s == pytest.approx(13.0782)
        assert gripper.F_c == pytest.approx(0.032)
        assert gripper.sigma == pytest.approx(12.8)


class TestInternalForce:
    def test_no_relative_motion(self, gripper):
        s = PlantState(x=0.3, v=1.1, x_e=0.3, v_e=1.1)
        assert internal_force(s, gripper) == 0.0

    def test_pure_deflection(self, gripper):
        s = PlantState(x_e=0.1)
        assert internal_force(s, gripper) == pytest.approx(1.30782, rel=1e-12)

    def test_pure_rate(self, gripper):
        s = PlantState(v_e=1.0)
        assert internal_force(s, gripper) == pytest.approx(9.2453e-3, rel=1e-12)


class TestDahlRate:
    def test_equilibrium_slope(self, gripper):
        assert dahl_rate(0.0, 1.0, gripper) == pytest.approx(12.8)

    def test_saturation_fixed_point(self, gripper):
        assert dahl_rate(gripper.F_c, 2.0, gripper) == 0.0

    def test_rest_is_fixed_point(self, gripper):
        assert dahl_rate(0.01, 0.0, gripper) == 0.0

    def test_disabled_element(self, gripper_linear):
        assert dahl_rate(0.0, 1.0, gripper_linear) == 0.0

    def test_closed_form_trajectory(self, gripper):
        # constant v_e from rest: F_d(dx) = F_c (1 - exp(-sigma dx / F_c))
        p = gripper
        fd, v, h = 0.0, 1.0, DT
        n = int(round((p.F_c / p.sigma) / (v * h)))
        for _ in range(n):
            k1 = dahl_rate(fd, v, p)
            k2 = dahl_rate(fd + 0.5 * h * k1, v, p)
            k3 = dahl_rate(fd + 0.5 * h * k2, v, p)
            k4 = dahl_rate(fd + h * k3, v, p)
            fd += h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        dx = n * v * h
        want = p.F_c * (1.0 - math.exp(-p.sigma * dx / p.F_c))
        assert fd == pytest.approx(want, rel=1e-4)
        assert fd == pytest.approx(0.02023, abs=2e-5)

    def test_general_exponent_matches_n1_at_one(self, gripper):
        from dataclasses import replace

        pn = replace(gripper, n_dahl=1.0 + 1e-12)
        for fd, v in ((0.01, 0.5), (-0.02, -1.2), (0.03, -0.4)):
            assert dahl_rate(fd, v, pn) == pytest.approx(
                dahl_rate(fd, v, gripper), rel=1e-9
            )


class TestStep:
    def test_equilibrium(self, gripper):
        s = step(PlantState(), gripper, 0.0, 0.0, DT)
        assert s == PlantState()

    def test_dt_domain(self, gripper):
        with pytest.raises(ValueError):
            step(PlantState(), gripper, 0.0, 0.0, 0.02)

    def test_dc_force_balance(self, gripper_linear):
        p = gripper_linear
        tr = simulate(p, None, 0.1, None, duration=30.0, dt=DT)
        k_eq = p.k_e + p.k * p.k_s / (p.k + p.k_s)
        assert k_eq == pytest.approx(0.2259, abs=5e-5)
        assert tr.x_e[-1] == pytest.approx(0.1 / k_eq, rel=1e-3)

    def test_rk4_halving_convergence(self, gripper_linear):
        fe = SineSpec(0.1, 3.0)
        coarse = simulate(gripper_linear, None, fe, None, duration=10.0, dt=DT)
        fine = simulate(gripper_linear, None, fe, None, duration=10.0, dt=DT / 2)
        scale = max(abs(coarse.x_e[-1]), abs(fine.x_e[-2]))
        assert abs(fine.x_e[-2] - coarse.x_e[-1]) / scale < 1e-6
        assert abs(fine.v_e[-2] - coarse.v_e[-1]) / max(abs(coarse.v_e[-1]), 1e-12) < 1e-6

    def test_simulate_matches_repeated_step(self, gripper):
        p = gripper
        tr = simulate(p, None, 0.05, None, duration=0.5, dt=DT)
        s = PlantState()
        for i in range(len(tr) - 1):
            s = step(s, p, 0.0, 0.05, DT)
        assert s.x == pytest.approx(tr.x[-1], abs=1e-15)
        assert s.v_e == pytest.approx(tr.v_e[-1], abs=1e-15)
        assert s.f_d == pytest.approx(tr.F_d[-1], abs=1e-15)


def _reference_rk4(params):
    """RK4 step through a nested right-hand side: the form the stepper inlines."""
    p = params

    def rk4(x, v, xe, ve, fd, fa, kf_int, kf_ext, fe0, feh, fe1, dt):
        def rhs(x, v, xe, ve, fd, fe):
            fp = p.b_s * (ve - v) + p.k_s * (xe - x)
            dv = (fa + kf_int * fp + kf_ext * fe + fp - p.b * v - p.k * x) / p.m
            dve = (fe - fp - p.b_e * ve - p.k_e * xe - fd) / p.m_e
            if p.F_c > 0.0 and ve != 0.0:
                s = 1.0 if ve > 0.0 else -1.0
                g = 1.0 - (fd / p.F_c) * s
                if p.n_dahl != 1.0:
                    dfd = p.sigma * ve * abs(g) ** p.n_dahl * math.copysign(1.0, g)
                else:
                    dfd = p.sigma * ve * g
            else:
                dfd = 0.0
            return v, dv, ve, dve, dfd

        h = dt * 0.5
        k1 = rhs(x, v, xe, ve, fd, fe0)
        k2 = rhs(*(s + h * d for s, d in zip((x, v, xe, ve, fd), k1)), feh)
        k3 = rhs(*(s + h * d for s, d in zip((x, v, xe, ve, fd), k2)), feh)
        k4 = rhs(*(s + dt * d for s, d in zip((x, v, xe, ve, fd), k3)), fe1)
        w = dt / 6.0
        out = [
            s + w * (a + 2.0 * (b + c) + d)
            for s, a, b, c, d in zip((x, v, xe, ve, fd), k1, k2, k3, k4)
        ]
        if p.F_c > 0.0:
            out[4] = min(max(out[4], -p.F_c), p.F_c)
        return tuple(out)

    return rk4


@pytest.mark.parametrize("n_dahl", [1.0, 0.5, 2.0])
@pytest.mark.parametrize("hysteresis", [True, False])
def test_stepper_equals_nested_reference(n_dahl, hysteresis):
    p = replace(PlantParams.gripper(with_hysteresis=hysteresis), n_dahl=n_dahl)
    fast, ref = _make_stepper(p), _reference_rk4(p)
    rng = np.random.default_rng(7)
    for row in rng.uniform(-1.0, 1.0, size=(2000, 11)).tolist():
        x, v, xe, ve, fd, fa, kf_int, kf_ext, fe0, feh, fe1 = row
        if row[0] > 0.8:
            ve = 0.0  # the Dahl rate is zero at rest
        args = (x, v, xe, ve, 0.032 * fd, fa, kf_int, kf_ext, fe0, feh, fe1, DT)
        assert np.array(fast(*args)).tobytes() == np.array(ref(*args)).tobytes()


class TestSimulate:
    def test_zero_excitation_zero_trace(self, gripper):
        from fluidsea.controllers import DOBConfig

        for ctrl in (None, DOBConfig.inertial(gripper.m, 20.0)):
            tr = simulate(gripper, ctrl, None, None, duration=1.0, dt=DT)
            for col in ("x", "v", "x_e", "v_e", "F_p", "F_a", "F_d"):
                assert np.all(tr.column(col) == 0.0)

    def test_superposition(self, gripper_linear):
        fe = lambda t: 0.02 * math.sin(2.0 * t) + 0.01 * math.sin(0.7 * t + 0.3)
        fe3 = lambda t: 3.0 * fe(t)
        a = simulate(gripper_linear, None, fe, None, duration=5.0, dt=DT)
        b = simulate(gripper_linear, None, fe3, None, duration=5.0, dt=DT)
        scale = np.max(np.abs(b.x_e))
        assert np.max(np.abs(b.x_e - 3.0 * a.x_e)) < 1e-9 * scale
        assert np.max(np.abs(b.v - 3.0 * a.v)) < 1e-9 * max(np.max(np.abs(b.v)), 1e-12)

    def test_dahl_state_bounded(self, gripper):
        fe = lambda t: 0.2 * math.sin(5.0 * t) + 0.1 * math.sin(0.9 * t)
        tr = simulate(gripper, None, fe, None, duration=20.0, dt=DT)
        assert np.max(np.abs(tr.F_d)) <= gripper.F_c * (1 + 1e-6)

    @settings(max_examples=40, deadline=None)
    @given(
        amplitude=st.floats(0.01, 2.0),
        omega=st.floats(0.5, 300.0),
        n_dahl=st.sampled_from([1.0, 0.5, 2.0]),
    )
    def test_dahl_state_within_bounds_property(self, amplitude, omega, n_dahl):
        p = replace(PlantParams.gripper(), n_dahl=n_dahl)
        tr = simulate(p, None, SineSpec(amplitude, omega), None, duration=1.0, dt=DT)
        assert np.all(np.abs(tr.F_d) <= p.F_c)

    def test_open_loop_plant_is_passive(self, gripper):
        # net energy delivered at the endpoint port stays nonnegative from rest
        rng = np.random.default_rng(3)
        for _ in range(5):
            w1, w2 = rng.uniform(0.5, 40.0, size=2)
            a1, a2 = rng.uniform(0.02, 0.2, size=2)
            fe = lambda t: a1 * math.sin(w1 * t) + a2 * math.sin(w2 * t + 1.0)
            tr = simulate(gripper, None, fe, None, duration=10.0, dt=DT)
            energy = np.trapezoid(tr.F_e * tr.v_e, dx=DT)
            assert energy >= -1e-9

    def test_linear_frf_consistency(self, gripper_linear):
        # chirp-excited empirical FRF against the closed-form endpoint response
        from fluidsea.passivity import endpoint_impedance_ff
        from fluidsea.signals import ChirpSpec

        p = gripper_linear
        spec = ChirpSpec(0.3, 0.05, 400.0, 180.0)
        tr = simulate(p, None, spec, None, duration=spec.duration, dt=DT)
        grid = FrequencyGrid(np.logspace(np.log10(0.5), 2, 25))
        frf = estimate_frf(tr.F_e, tr.x_e, DT, grid)
        Z = endpoint_impedance_ff(p, 0.0)
        for w, h, ok in zip(grid.omegas, frf.H, frf.valid):
            assert ok
            want = Z.eval(w)  # Z = F_e/(s X_e) so X_e/F_e = 1/(s Z)
            want_h = 1.0 / (1j * w * want)
            assert abs(h - want_h) / abs(want_h) < 0.02

    def test_divergence_reports_step_index(self, gripper_linear):
        cfg = PDConfig(K_p=2e5, K_d=4e3, delay_samples=1)
        with pytest.raises(SimulationDivergedError) as err:
            simulate(
                gripper_linear, cfg, SineSpec(0.5, 5.0), None, duration=5.0, dt=DT,
                initial_state=PlantState(x=1e-3),
            )
        assert err.value.step_index >= 0


class TestBackdriven:
    def test_matches_impedance_phasors(self, gripper_linear):
        from fluidsea.passivity import endpoint_impedance_ff

        p = gripper_linear
        w = snap_omega(2.0, DT)
        tr = simulate_backdriven(
            p, None, SineMotionSpec(0.3, w), duration=4 * 2 * math.pi / w, dt=DT
        )
        n_per = int(round(2 * math.pi / (w * DT)))
        sl = slice(-n_per, None)
        e = np.exp(-1j * w * tr.t[sl])
        z_meas = np.dot(tr.F_e[sl], e) / np.dot(tr.v_e[sl], e)
        z_want = endpoint_impedance_ff(p, 0.0).eval(w)
        assert abs(z_meas - z_want) / abs(z_want) < 5e-3

    def test_prescribed_motion_is_exact(self, gripper):
        w = snap_omega(1.0, DT)
        tr = simulate_backdriven(
            gripper, None, SineMotionSpec(0.5, w), duration=2.0, dt=DT
        )
        np.testing.assert_allclose(tr.x_e, 0.5 * np.sin(w * tr.t), rtol=0, atol=1e-12)


class TestTraceSerialization:
    def test_csv_round_trip(self, gripper, tmp_path):
        tr = simulate(gripper, None, SineSpec(0.1, 3.0), None, duration=0.2, dt=DT)
        path = tmp_path / "trace.csv"
        tr.to_csv(path)
        header = open(path).readline().strip()
        assert header == "t,x,v,x_e,v_e,F_p,F_e,F_a,F_d,F_cmp,F_ref"
        back = SimTrace.from_csv(path)
        np.testing.assert_allclose(back.x_e, tr.x_e, rtol=1e-8, atol=1e-15)
        assert back.dt == pytest.approx(tr.dt)

    def test_column_lookup(self, gripper):
        tr = simulate(gripper, None, None, None, duration=0.01, dt=DT)
        with pytest.raises(KeyError):
            tr.column("bogus")

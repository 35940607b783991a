import math

import numpy as np
import pytest

from fluidsea.controllers import CompositeConfig, DOBConfig, FeedforwardConfig
from fluidsea.impedance import (
    DahlFitError,
    WorkLoopError,
    fit_dahl,
    max_stable_pd,
    measure_impedance,
    quasi_static_backdrive,
    snap_omega,
    work_loop,
    zwidth,
)
from fluidsea.lti import FrequencyGrid
from fluidsea.passivity import endpoint_impedance_ff
from fluidsea.plant import SimTrace, dahl_rate
from fluidsea.sysid import FrequencyResponse

DT = 1.0 / 2000.0
LAM_HZ = 2.0 * math.pi * 20.0


def make_trace(t, x_e, F_e, F_p=None):
    n = t.size
    z = np.zeros(n)
    dt = float(t[1] - t[0])
    return SimTrace(
        dt=dt, t=t, x=z.copy(), v=z.copy(), x_e=x_e,
        v_e=np.gradient(x_e, dt), F_p=F_p if F_p is not None else z.copy(),
        F_e=F_e, F_a=z.copy(), F_d=z.copy(), F_cmp=z.copy(), F_ref=z.copy(),
    )


def synth_dahl_loop(F_c, sigma, amplitude, omega=1.0, cycles=4, dt=DT):
    """Pure hysteresis element driven over a displacement cycle."""
    n = int(round(cycles * 2 * math.pi / (omega * dt)))
    t = np.arange(n) * dt
    x = amplitude * np.sin(omega * t)
    v = amplitude * omega * np.cos(omega * t)

    class P:
        pass

    p = P()
    p.F_c, p.sigma, p.n_dahl = F_c, sigma, 1.0
    f = np.zeros(n)
    fd = 0.0
    for i in range(1, n):
        k1 = dahl_rate(fd, v[i - 1], p)
        k2 = dahl_rate(fd + 0.5 * dt * k1, v[i - 1], p)
        k3 = dahl_rate(fd + 0.5 * dt * k2, v[i - 1], p)
        k4 = dahl_rate(fd + dt * k3, v[i - 1], p)
        fd = min(max(fd + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4), -F_c), F_c)
        f[i] = fd
    return make_trace(t, x, f)


class TestSnap:
    def test_integer_samples_per_period(self):
        w = snap_omega(3.0, DT)
        n = 2 * math.pi / (w * DT)
        assert n == pytest.approx(round(n), abs=1e-9)


class TestMeasureImpedance:
    def test_passive_linear_matches_closed_form(self, gripper_linear):
        grid = FrequencyGrid(np.array([0.5, 5.0, 50.0]))
        fr = measure_impedance(gripper_linear, None, grid)
        Z = endpoint_impedance_ff(gripper_linear, 0.0)
        for w, h, ok in zip(fr.omegas, fr.H, fr.valid):
            assert ok
            want = Z.eval(w)
            assert abs(20 * np.log10(abs(h) / abs(want))) < 0.5
            assert abs(np.degrees(np.angle(h / want))) < 3.0

    def test_divergent_point_marked_invalid(self, gripper_linear):
        from fluidsea.controllers import PDConfig

        bad = PDConfig(K_p=2e5, K_d=4e3, delay_samples=1)
        grid = FrequencyGrid(np.array([1.0]))
        fr = measure_impedance(gripper_linear, bad, grid)
        assert not fr.valid[0]

    def test_port_validation(self, gripper_linear):
        with pytest.raises(ValueError):
            measure_impedance(
                gripper_linear, None, FrequencyGrid(np.array([1.0])), port="elbow"
            )

    @pytest.mark.parametrize(
        "drift_tol, runs, endpoint_valid, motor_valid",
        [
            # at 20 rad/s the endpoint settles at once and only the motor port retries
            (1.5e-4, 3, [True, True], [True, True]),
            # both points retry; the motor port at 20 rad/s never settles
            (1e-7, 4, [True, True], [True, False]),
        ],
    )
    def test_port_tuple_equals_single_ports(
        self, gripper, monkeypatch, drift_tol, runs, endpoint_valid, motor_valid
    ):
        import fluidsea.impedance as imp
        from fluidsea.controllers import PDConfig

        pd = PDConfig(K_p=88.4, K_d=1.768, delay_samples=1)
        kw = dict(
            grid=FrequencyGrid(np.array([2.0, 20.0])), settle_cycles=1,
            settle_min_time=0.3, measure_cycles=2, drift_tol=drift_tol,
        )
        calls = []
        original = imp.simulate

        def counting_simulate(*args, **kwargs):
            calls.append(args[2].omega)
            return original(*args, **kwargs)

        monkeypatch.setattr(imp, "simulate", counting_simulate)
        both = measure_impedance(gripper, pd, port=("endpoint", "motor"), **kw)
        assert len(calls) == runs
        singles = [
            measure_impedance(gripper, pd, port=port, **kw) for port in ("endpoint", "motor")
        ]
        assert [list(r.valid) for r in both] == [endpoint_valid, motor_valid]
        for got, want in zip(both, singles):
            assert np.array_equal(got.H, want.H)
            assert np.array_equal(got.valid, want.valid)
            assert np.array_equal(got.omegas, want.omegas)

    def test_full_feedforward_reduction_profile(self, gripper):
        # the composite controller cuts low-frequency impedance far past the
        # 17 dB seen on hardware (no friction floor in the model) and never
        # raises it by more than a few dB at high frequency
        p = gripper
        comp = CompositeConfig(
            DOBConfig.inertial(p.m, 20.0), FeedforwardConfig.from_params(p)
        )
        grid = FrequencyGrid(np.array([0.2, 50.0, 100.0]))
        passive = measure_impedance(p, None, grid)
        full = measure_impedance(p, comp, grid)
        red = 20 * np.log10(np.abs(passive.H) / np.abs(full.H))
        assert red[0] >= 17.0
        assert np.all(red[1:] >= -8.0)


class TestWorkLoop:
    def test_pure_spring_has_no_area(self):
        t = np.arange(0, 4 * 2 * math.pi, DT)
        x = 0.5 * np.sin(t)
        loop = work_loop(make_trace(t, x, 0.2 * x))
        assert abs(loop.area) < 1e-6
        assert loop.amplitude < 1e-9

    def test_requires_two_cycles(self):
        t = np.arange(0, 2 * math.pi, DT)  # one cycle only
        x = 0.5 * np.sin(t)
        with pytest.raises(WorkLoopError):
            work_loop(make_trace(t, x, 0.2 * x))

    def test_force_column_validation(self, gripper):
        with pytest.raises(ValueError):
            work_loop(make_trace(np.arange(3) * DT, np.zeros(3), np.zeros(3)), "F_x")

    def test_dahl_loop_amplitude_saturates(self):
        # cycle amplitude >= 10 F_c / sigma: loop amplitude within 2% of F_c
        F_c, sigma = 0.032, 12.8
        amp = 10 * F_c / sigma
        loop = work_loop(synth_dahl_loop(F_c, sigma, amp))
        assert loop.amplitude == pytest.approx(F_c, rel=0.02)
        big = work_loop(synth_dahl_loop(F_c, sigma, 0.5))
        assert big.amplitude == pytest.approx(F_c, rel=0.005)

    def test_observer_collapses_internal_loop(self, gripper):
        passive = quasi_static_backdrive(gripper, None)
        li_passive = work_loop(passive, "F_p")
        le_passive = work_loop(passive, "F_e")
        # passive internal loop reflects motor friction
        assert li_passive.amplitude > 0.005
        dob = quasi_static_backdrive(
            gripper, DOBConfig.inertial(gripper.m, LAM_HZ)
        )
        li_dob = work_loop(dob, "F_p")
        le_dob = work_loop(dob, "F_e")
        assert li_dob.amplitude < 0.05 * li_passive.amplitude
        # the endpoint friction stays: external loop barely improves
        assert le_dob.amplitude > 0.5 * le_passive.amplitude

    def test_energy_balance_over_cycle(self, gripper):
        # external loop area equals the energy dissipated per cycle
        tr = quasi_static_backdrive(gripper, None)
        loop = work_loop(tr, "F_e")
        x = tr.x_e
        ups = np.nonzero(np.signbit(x[:-1]) & ~np.signbit(x[1:]))[0]
        lo, hi = ups[-2] + 1, ups[-1] + 1
        p = gripper
        diss = np.trapezoid(
            p.b * tr.v[lo:hi] ** 2
            + p.b_e * tr.v_e[lo:hi] ** 2
            + p.b_s * (tr.v_e[lo:hi] - tr.v[lo:hi]) ** 2
            + tr.F_d[lo:hi] * tr.v_e[lo:hi],
            dx=DT,
        )
        assert loop.area == pytest.approx(diss, rel=0.02)

    def test_spread_window_query(self):
        loop = work_loop(synth_dahl_loop(0.032, 12.8, 0.5))
        assert loop.amplitude_over(-0.2, 0.2) == pytest.approx(0.032, rel=0.01)


class TestFitDahl:
    def test_roundtrip_recovery(self):
        F_c, sigma = 0.032, 12.8
        loop = work_loop(synth_dahl_loop(F_c, sigma, 0.5))
        fit = fit_dahl(loop)
        assert fit.F_c == pytest.approx(F_c, rel=0.01)
        assert fit.sigma == pytest.approx(sigma, rel=0.01)

    def test_zero_area_rejected(self):
        t = np.arange(0, 4 * 2 * math.pi, DT)
        x = 0.5 * np.sin(t)
        loop = work_loop(make_trace(t, x, 0.2 * x + 1e-12 * np.cos(t)))
        with pytest.raises(DahlFitError):
            fit_dahl(loop)

    def test_recovery_from_full_simulation(self, gripper):
        # linear part compensated, Dahl left in: the residual external loop
        # is the hysteresis element, recoverable within 10%
        comp = CompositeConfig(
            DOBConfig.inertial(gripper.m, LAM_HZ),
            FeedforwardConfig.from_params(gripper, include_dahl=False),
        )
        tr = quasi_static_backdrive(gripper, comp)
        fit = fit_dahl(work_loop(tr, "F_e"))
        assert fit.F_c == pytest.approx(gripper.F_c, rel=0.10)
        assert fit.sigma == pytest.approx(gripper.sigma, rel=0.15)


class TestZWidth:
    def _response(self, values):
        grid = FrequencyGrid(np.array([1.0, 10.0]))
        return FrequencyResponse(grid, np.asarray(values, complex), np.zeros(2))

    def test_identical_inputs_give_zero_width(self):
        a = self._response([1.0 + 1j, 2.0])
        b = self._response([1.0 + 1j, 2.0])
        assert np.allclose(zwidth(a, b).width_db, 0.0)

    def test_rescaling_invariance(self):
        a = self._response([0.5, 2.0 + 1j])
        b = self._response([50.0, 100.0])
        w1 = zwidth(a, b).width_db
        a10 = self._response([5.0, 20.0 + 10j])
        b10 = self._response([500.0, 1000.0])
        w2 = zwidth(a10, b10).width_db
        np.testing.assert_allclose(w1, w2, atol=1e-12)

    def test_grid_mismatch_rejected(self):
        a = self._response([1.0, 2.0])
        b = FrequencyResponse(
            FrequencyGrid(np.array([1.0, 20.0])), np.ones(2, complex), np.zeros(2)
        )
        with pytest.raises(ValueError):
            zwidth(a, b)

    def test_invalid_points_propagate(self):
        grid = FrequencyGrid(np.array([1.0, 10.0]))
        a = FrequencyResponse(
            grid, np.ones(2, complex), np.zeros(2), np.array([True, False])
        )
        b = self._response([2.0, 2.0])
        assert list(zwidth(a, b).valid) == [True, False]

    def test_invalid_point_reads_nan(self, tmp_path):
        # an unsettled point keeps H = 0, whose dB is -inf and width +inf
        grid = FrequencyGrid(np.array([1.0, 10.0]))
        a = FrequencyResponse(
            grid, np.array([1.0, 0.0], complex), np.zeros(2), np.array([True, False])
        )
        curve = zwidth(a, self._response([10.0, 10.0]))
        assert curve.width_db[0] == pytest.approx(20.0)
        for db in (curve.z_min_db, curve.z_max_db, curve.width_db):
            assert np.isnan(db[1])
        curve.to_csv(tmp_path / "zw.csv")
        rows = np.loadtxt(tmp_path / "zw.csv", delimiter=",", skiprows=1)
        assert np.isfinite(rows[0]).all() and np.isnan(rows[1, 1:]).all()

    def test_csv(self, tmp_path):
        curve = zwidth(self._response([1.0, 1.0]), self._response([10.0, 10.0]))
        out = tmp_path / "zw.csv"
        curve.to_csv(out)
        assert open(out).readline().strip() == "omega_rad_s,zmin_db,zmax_db,width_db"


class TestMaxStablePd:
    def test_deterministic_and_robust(self, gripper):
        a = max_stable_pd(gripper)
        b = max_stable_pd(gripper)
        assert a == b
        assert a.K_d == pytest.approx(a.K_p / 50.0)
        assert a.delay_samples == 1
        # the returned gains must survive a long excited run
        from fluidsea.signals import SineSpec
        from fluidsea.plant import simulate

        tr = simulate(gripper, a, SineSpec(0.1, 3.0), None, duration=30.0, dt=DT)
        assert np.max(np.abs(tr.x)) < 0.1

import math
import multiprocessing
import os
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fluidsea.impedance
from fluidsea.controllers import CompositeConfig, DOBConfig, PDConfig
from fluidsea.experiments import preset_config
from fluidsea.impedance import (
    _PD_BACKOFF,
    DahlFitError,
    PDSweepError,
    WorkLoopError,
    _dahl_problem,
    _dahl_residuals,
    fit_dahl,
    max_stable_pd,
    measure_impedance,
    quasi_static_backdrive,
    snap_omega,
    work_loop,
    zwidth,
)
from fluidsea.lti import FrequencyGrid
from fluidsea.passivity import endpoint_impedance
from fluidsea.plant import (
    PlantParams,
    PlantState,
    SimTrace,
    SimulationDivergedError,
    simulate,
    simulate_backdriven,
)
from fluidsea.signals import SineMotionSpec, SineSpec
from fluidsea.sysid import FrequencyResponse

from conftest import feedforward, spy_simulate

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


def _dahl_rate(fd, v, F_c, sigma):
    """The n = 1 Dahl law, dF_d/dt = sigma v (1 - (F_d/F_c) sgn(v))."""
    if v == 0.0:
        return 0.0
    return sigma * v * (1.0 - (fd / F_c) * (1.0 if v > 0.0 else -1.0))


def synth_dahl_loop(F_c, sigma, amplitude, omega=1.0, cycles=4, dt=DT):
    """Pure hysteresis element driven over a displacement cycle."""
    n = int(round(cycles * 2 * math.pi / (omega * dt)))
    t = np.arange(n) * dt
    x = amplitude * np.sin(omega * t)
    v = amplitude * omega * np.cos(omega * t)

    f = np.zeros(n)
    fd = 0.0
    for i in range(1, n):
        vi = v[i - 1]
        k1 = _dahl_rate(fd, vi, F_c, sigma)
        k2 = _dahl_rate(fd + 0.5 * dt * k1, vi, F_c, sigma)
        k3 = _dahl_rate(fd + 0.5 * dt * k2, vi, F_c, sigma)
        k4 = _dahl_rate(fd + dt * k3, vi, F_c, sigma)
        fd = min(max(fd + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4), -F_c), F_c)
        f[i] = fd
    return make_trace(t, x, f)


def half_spread_over(loop, lo, hi, n=41):
    """Largest half-spread between a loop's branches over a displacement window."""
    return 0.5 * max(loop.spread_at(x) for x in np.linspace(lo, hi, n))


class TestSnap:
    def test_integer_samples_per_period(self):
        w = snap_omega(3.0, DT)
        n = 2 * math.pi / (w * DT)
        assert n == pytest.approx(round(n), abs=1e-9)

    def test_colliding_grid_rejected_before_any_simulation(self, gripper, monkeypatch):
        import fluidsea.impedance as imp

        def no_simulate(*args, **kwargs):
            raise AssertionError("simulated a grid that cannot be measured")

        monkeypatch.setattr(imp, "simulate", no_simulate)
        # at dt = 0.01 both points round to a 13-sample period
        grid = FrequencyGrid(np.array([49.0, 50.0]))
        with pytest.raises(ValueError, match="same whole-sample period"):
            measure_impedance(gripper, None, grid, dt=0.01)


class TestMeasureImpedance:
    def test_passive_linear_matches_closed_form(self, gripper_linear):
        grid = FrequencyGrid(np.array([0.5, 5.0, 50.0]))
        fr = measure_impedance(gripper_linear, None, grid)
        Z = endpoint_impedance(gripper_linear, None)
        for w, h, ok in zip(fr.omegas, fr.H, fr.valid):
            assert ok
            want = Z.eval(w)
            assert abs(20 * np.log10(abs(h) / abs(want))) < 0.5
            assert abs(np.degrees(np.angle(h / want))) < 3.0

    def test_divergent_point_marked_invalid(self, gripper_linear):
        from fluidsea.controllers import PDConfig

        bad = PDConfig(K_p=2e5, K_d=4e3, delay_samples=1)
        grid = FrequencyGrid(np.array([1.0]))
        with pytest.warns(UserWarning) as caught:
            fr = measure_impedance(gripper_linear, bad, grid)
        assert not fr.valid[0]
        assert len(caught) == 1
        assert re.fullmatch(
            rf"endpoint impedance at omega = {fr.omegas[0]:.6g} rad/s is invalid: "
            r"the simulation diverged at step \d+",
            str(caught[0].message),
        )

    def test_unsettled_point_marked_invalid(self, gripper_linear, monkeypatch):
        import fluidsea.impedance as imp

        monkeypatch.setattr(imp, "_DRIFT_TOL", 0.0)
        grid = FrequencyGrid(np.array([1.0]))
        with pytest.warns(UserWarning) as caught:
            fr = measure_impedance(gripper_linear, None, grid)
        assert not fr.valid[0]
        assert len(caught) == 1
        assert re.fullmatch(
            rf"endpoint impedance at omega = {fr.omegas[0]:.6g} rad/s is invalid: "
            r"velocity amplitude drift \S+ exceeds 0\.0e\+00 after the retry",
            str(caught[0].message),
        )

    def test_settle_schedule(self, gripper_linear, monkeypatch, tmp_path):
        # one period of settling at 0.5 rad/s, ceil(5 s / period) = 16 at
        # 20 rad/s, then the two measured periods
        calls = spy_simulate(monkeypatch, tmp_path)
        fr = measure_impedance(gripper_linear, None, FrequencyGrid(np.array([0.5, 20.0])), dt=DT)
        assert fr.valid.all()
        periods = 2 * math.pi / fr.omegas
        durations = {w: duration for w, duration, _ in calls()}
        assert len(durations) == len(calls()) == 2
        assert [durations[w] for w in fr.omegas] == pytest.approx(
            [3 * periods[0], 18 * periods[1]], rel=1e-12
        )

    def test_settle_floor_of_one_period(self, gripper, monkeypatch, tmp_path):
        # at 0.3 rad/s, 5 s is a quarter period; the hysteretic PD-hold point
        # settles in one run only because it settles for a whole period
        from fluidsea.controllers import PDConfig

        calls = spy_simulate(monkeypatch, tmp_path)
        pd = PDConfig(K_p=88.4, K_d=1.768, delay_samples=1)
        fr = measure_impedance(gripper, pd, FrequencyGrid(np.array([0.3])), dt=DT)
        assert len(calls()) == 1
        assert fr.valid[0]

    def test_port_validation(self, gripper_linear):
        with pytest.raises(ValueError):
            measure_impedance(
                gripper_linear, None, FrequencyGrid(np.array([1.0])), port="elbow"
            )

    @pytest.mark.parametrize(
        "drift_tol, runs, endpoint_valid, motor_valid",
        [
            # both points retry at 2 rad/s; at 20 rad/s only the endpoint retries
            (6.1e-6, 4, [True, True], [True, True]),
            # both points retry; the endpoint at 20 rad/s never settles
            (2.4e-8, 4, [True, False], [True, True]),
        ],
    )
    def test_port_tuple_equals_single_ports(
        self, gripper, monkeypatch, tmp_path, drift_tol, runs, endpoint_valid, motor_valid
    ):
        import fluidsea.impedance as imp

        dob = DOBConfig(lam=20.0, m_n=gripper.m)
        grid = FrequencyGrid(np.array([2.0, 20.0]))
        monkeypatch.setattr(imp, "_DRIFT_TOL", drift_tol)
        calls = spy_simulate(monkeypatch, tmp_path)
        with warnings.catch_warnings(record=True) as both_warned:
            warnings.simplefilter("always")
            both = measure_impedance(gripper, dob, grid, port=("endpoint", "motor"))
        assert len(calls()) == runs
        singles, single_warned = [], []
        for port in ("endpoint", "motor"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                singles.append(measure_impedance(gripper, dob, grid, port=port))
            single_warned += caught
        assert [list(r.valid) for r in both] == [endpoint_valid, motor_valid]
        for got, want in zip(both, singles):
            assert np.array_equal(got.H, want.H)
            assert np.array_equal(got.valid, want.valid)
            assert np.array_equal(got.omegas, want.omegas)
        # only measure_impedance's own warnings: see TestWorkerProcesses
        both_warned = [w for w in both_warned if issubclass(w.category, UserWarning)]
        single_warned = [w for w in single_warned if issubclass(w.category, UserWarning)]
        assert sorted(str(w.message) for w in both_warned) == sorted(
            str(w.message) for w in single_warned
        )
        assert len(both_warned) == endpoint_valid.count(False) + motor_valid.count(False)

    def test_full_feedforward_reduction_profile(self, gripper):
        # the composite controller cuts low-frequency impedance far past the
        # 17 dB seen on hardware (no friction floor in the model) and never
        # raises it by more than a few dB at high frequency
        p = gripper
        comp = CompositeConfig(
            DOBConfig(lam=20.0, m_n=p.m), feedforward(p)
        )
        grid = FrequencyGrid(np.array([0.2, 50.0, 100.0]))
        passive = measure_impedance(p, None, grid)
        full = measure_impedance(p, comp, grid)
        red = 20 * np.log10(np.abs(passive.H) / np.abs(full.H))
        assert red[0] >= 17.0
        assert np.all(red[1:] >= -8.0)


class TestWorkerProcesses:
    """A sweep in worker processes equals the same sweep in this process.

    ``_cpu_count`` is patched to 2 for the pool, so that it runs on a
    one-CPU host too, and to 1 for the serial run. A replaced ``simulate``
    keeps a sweep in this process, so these tests reach into the workers
    through ``imp.SineSpec``, which each run builds once.
    """

    @staticmethod
    def _own_warnings(caught):
        # only measure_impedance's; Python >= 3.12 adds a DeprecationWarning
        # when a process with threads forks
        return [str(w.message) for w in caught if issubclass(w.category, UserWarning)]

    def test_pool_equals_serial(self, gripper, monkeypatch, tmp_path):
        import fluidsea.impedance as imp

        # both points retry, and the endpoint at 20 rad/s never settles
        monkeypatch.setattr(imp, "_DRIFT_TOL", 2.4e-8)
        log = tmp_path / "sine_pids.txt"
        log.touch()

        def recording_sine(amplitude, omega):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return SineSpec(amplitude, omega)

        monkeypatch.setattr(imp, "SineSpec", recording_sine)
        dob = DOBConfig(lam=20.0, m_n=gripper.m)
        grid = FrequencyGrid(np.array([2.0, 20.0]))
        runs = []
        for cpus in (2, 1):
            monkeypatch.setattr(imp, "_cpu_count", lambda: cpus)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = measure_impedance(gripper, dob, grid, port=("endpoint", "motor"))
            assert multiprocessing.active_children() == []
            runs.append((got, self._own_warnings(caught)))
        (pooled, pooled_warned), (serial, serial_warned) = runs
        pids = [int(pid) for pid in log.read_text().split()]
        assert len(pids) == 8
        assert os.getpid() not in pids[:4]  # the pool's runs were in workers
        assert pids[4:] == [os.getpid()] * 4
        assert [list(r.valid) for r in pooled] == [[True, False], [True, True]]
        for got, want in zip(pooled, serial):
            assert got.H.tobytes() == want.H.tobytes()
            assert np.array_equal(got.valid, want.valid)
            assert np.array_equal(got.omegas, want.omegas)
        assert pooled_warned == serial_warned
        assert len(pooled_warned) == 1

    def test_error_in_a_point_is_raised(self, gripper_linear, monkeypatch):
        import fluidsea.impedance as imp

        grid = FrequencyGrid(np.array([2.0, 5.0, 50.0]))
        bad = snap_omega(5.0, DT)

        def failing_sine(amplitude, omega):
            if omega == bad:
                raise ValueError(f"no run at omega = {bad!r}")
            return SineSpec(amplitude, omega)

        monkeypatch.setattr(imp, "SineSpec", failing_sine)
        raised = []
        for cpus in (2, 1):
            monkeypatch.setattr(imp, "_cpu_count", lambda: cpus)
            with pytest.raises(ValueError) as err:
                measure_impedance(gripper_linear, None, grid, dt=DT)
            raised.append((type(err.value), str(err.value)))
            assert multiprocessing.active_children() == []
        assert raised == [(ValueError, f"no run at omega = {bad!r}")] * 2

    def test_replaced_simulate_runs_here(self, gripper_linear, monkeypatch, tmp_path):
        # a tracer or a spy in place of simulate sees every call, on any CPU count
        import fluidsea.impedance as imp

        monkeypatch.setattr(imp, "_cpu_count", lambda: 2)
        calls = spy_simulate(monkeypatch, tmp_path)
        fr = measure_impedance(gripper_linear, None, FrequencyGrid(np.array([2.0, 20.0])), dt=DT)
        assert fr.valid.all()
        assert [pid for _, _, pid in calls()] == [os.getpid()] * 2
        assert multiprocessing.active_children() == []


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

    def test_closure_compares_same_phase(self):
        # 157 samples per period, F steep where x_e crosses zero: the samples
        # either side of a crossing differ by 1.9 % of the range in F, yet
        # the loop is periodic
        n = 157
        t = np.arange(4 * n) * DT
        w = 2 * math.pi / (n * DT)
        loop = work_loop(make_trace(t, 0.5 * np.sin(w * t), np.sin(w * t) + 0.3 * np.cos(w * t)))
        assert loop.x_e.size == n

    def test_closure_fails_on_a_drifting_loop(self):
        n = 157
        t = np.arange(4 * n) * DT
        w = 2 * math.pi / (n * DT)
        drift = 0.2 * t / t[-1]  # about 2.5 % of the range per cycle
        with pytest.raises(WorkLoopError, match="does not close"):
            work_loop(make_trace(t, 0.5 * np.sin(w * t), np.cos(w * t) + drift))

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
            gripper, DOBConfig(lam=LAM_HZ, m_n=gripper.m)
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
        assert half_spread_over(loop, -0.2, 0.2) == pytest.approx(0.032, rel=0.01)


_BACKDRIVE_CONTROLLERS = {
    "none": lambda p: None,
    "dob": lambda p: DOBConfig(lam=LAM_HZ, m_n=p.m),
    "composite": lambda p: CompositeConfig(
        DOBConfig(lam=LAM_HZ, m_n=p.m), feedforward(p, dahl=True)
    ),
}


def _loop_or_error(trace, column):
    """The bytes and figures of ``work_loop(trace, column)``, or its error message.

    At a coarse dt some drawn loops fail the closure check; both records
    must then fail it alike.
    """
    try:
        loop = work_loop(trace, column)
    except WorkLoopError as exc:
        return str(exc)
    return loop.x_e.tobytes(), loop.F.tobytes(), loop.area, loop.amplitude


class TestQuasiStaticBackdrive:
    @pytest.mark.parametrize("amplitude", [0.0, -0.5])
    def test_amplitude_must_be_positive(self, gripper, amplitude):
        with pytest.raises(ValueError, match="amplitude"):
            quasi_static_backdrive(gripper, None, amplitude=amplitude)

    def test_record_ends_past_the_last_closable_crossing(self, gripper):
        # the workloop presets' backdrive: 1 rad/s, 4 cycles of n samples at dt = 0.5 ms
        n = 12566
        tr = quasi_static_backdrive(gripper, None)
        assert len(tr) == 3 * n + 2
        sign = np.signbit(tr.x_e)
        ups = np.nonzero(sign[:-1] & ~sign[1:])[0]
        assert ups.tolist() == [n, 2 * n, 3 * n]

    @settings(max_examples=20, deadline=None)
    @given(
        omega=st.floats(0.5, 1.5),
        amplitude=st.floats(0.05, 1.0),
        cycles=st.integers(4, 6),
        dt=st.floats(8e-3, 1e-2),
        controller=st.sampled_from(sorted(_BACKDRIVE_CONTROLLERS)),
    )
    def test_loops_equal_whole_period_record(
        self, gripper, omega, amplitude, cycles, dt, controller
    ):
        ctrl = _BACKDRIVE_CONTROLLERS[controller](gripper)
        w = snap_omega(omega, dt)
        n = int(round(2 * math.pi / (w * dt)))
        short = quasi_static_backdrive(
            gripper, ctrl, omega=omega, amplitude=amplitude, cycles=cycles, dt=dt
        )
        whole = simulate_backdriven(
            gripper, ctrl, SineMotionSpec(amplitude, w), duration=cycles * n * dt, dt=dt
        )
        assert len(short) == (cycles - 1) * n + 2
        assert len(whole) == cycles * n
        for column in ("F_e", "F_p"):
            assert _loop_or_error(short, column) == _loop_or_error(whole, column)


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
            DOBConfig(lam=LAM_HZ, m_n=gripper.m),
            feedforward(gripper, dahl=False),
        )
        tr = quasi_static_backdrive(gripper, comp)
        fit = fit_dahl(work_loop(tr, "F_e"))
        assert fit.F_c == pytest.approx(gripper.F_c, rel=0.10)
        assert fit.sigma == pytest.approx(gripper.sigma, rel=0.15)

    @pytest.mark.parametrize("name", ["fig7", "passive", "synthetic"])
    def test_equals_least_squares(self, name):
        least_squares = pytest.importorskip("scipy.optimize").least_squares
        loop = _FIT_LOOPS[name]()
        ref = _reference_fit(least_squares, loop)
        fit = fit_dahl(loop)
        assert fit.F_c == pytest.approx(ref[0], rel=1e-6)
        assert fit.sigma == pytest.approx(ref[1], rel=1e-6)
        assert _fit_cost(loop, fit.F_c, fit.sigma) <= _fit_cost(loop, *ref)

    @settings(max_examples=20, deadline=None)
    @given(F_c=st.floats(0.005, 0.1), sigma=st.floats(2.0, 50.0), spread=st.floats(5.0, 100.0))
    def test_synthetic_loops_property(self, F_c, sigma, spread):
        least_squares = pytest.importorskip("scipy.optimize").least_squares
        loop = work_loop(synth_dahl_loop(F_c, sigma, spread * F_c / sigma, dt=1e-3))
        fit = fit_dahl(loop)
        assert fit.F_c == pytest.approx(F_c, rel=0.02)
        assert fit.sigma == pytest.approx(sigma, rel=0.02)
        # least_squares may stop short by more than 1e-6 here; the cost may
        # differ by the rounding of a sum of some 12,000 squares
        ref = _reference_fit(least_squares, loop)
        assert _fit_cost(loop, fit.F_c, fit.sigma) <= (1.0 + 1e-12) * _fit_cost(loop, *ref)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(fluidsea.impedance, "_LM_MAX_ITER", 1)
        with pytest.raises(DahlFitError, match="not converged in 1 iterations"):
            fit_dahl(work_loop(synth_dahl_loop(0.032, 12.8, 0.5)))


def _fig7_loop():
    cfg = preset_config("fig7-dahl-fit")
    a = cfg.analysis
    trace = quasi_static_backdrive(
        cfg.plant, cfg.controller, omega=a.backdrive_omega, amplitude=a.backdrive_amplitude,
        cycles=a.backdrive_cycles, dt=cfg.dt,
    )
    return work_loop(trace, "F_e")


_FIT_LOOPS = {
    "fig7": _fig7_loop,
    "passive": lambda: work_loop(quasi_static_backdrive(PlantParams.gripper(), None)),
    "synthetic": lambda: work_loop(synth_dahl_loop(0.032, 12.8, 0.5)),
}


def _reference_fit(least_squares, loop):
    """(F_c, sigma) from scipy's least_squares on the fit's problem, as the fit once solved it."""
    segments, start = _dahl_problem(loop)
    sol = least_squares(
        lambda theta: _dahl_residuals(segments, *theta),
        x0=start,
        bounds=([1e-12, 1e-9], [np.inf, np.inf]),
        xtol=1e-14,
        ftol=1e-14,
    )
    return sol.x


def _fit_cost(loop, F_c, sigma):
    segments, _ = _dahl_problem(loop)
    return float(np.sum(_dahl_residuals(segments, F_c, sigma) ** 2))


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

    def test_backed_off_from_the_boundary_the_loop_confirms(self, gripper, gripper_linear):
        kp = max_stable_pd(gripper).K_p
        assert kp == pytest.approx(88.3674, abs=1e-3)
        boundary = kp / _PD_BACKOFF

        def release(kp):
            cfg = PDConfig(K_p=kp, K_d=0.02 * kp, delay_samples=1)
            s0 = PlantState(x=1e-3, x_e=1e-3)
            return simulate(gripper_linear, cfg, None, None, duration=5.0, dt=DT, initial_state=s0)

        x = release(0.95 * boundary).x
        assert np.max(np.abs(x[-len(x) // 4:])) < 1e-6 * np.max(np.abs(x[:len(x) // 4]))
        with pytest.raises(SimulationDivergedError):
            release(1.05 * boundary)

    def test_unstable_start_gain_is_a_sweep_error(self, gripper):
        # a sampled plant so unstable that a 2^-30 probe passes the divergence
        # guard in two steps: one probe step keeps the sweep's own error
        p = replace(gripper, m_e=16.42, b_s=310.6, k_s=158.2, sigma=544.2, n_dahl=1000.0)
        with pytest.raises(PDSweepError, match="start gain already unstable"):
            max_stable_pd(p, 5.73e-3)

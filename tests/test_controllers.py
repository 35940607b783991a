import math
from dataclasses import replace

import numpy as np
import pytest

from fluidsea.controllers import (
    CompositeConfig,
    DOBConfig,
    DahlEstimate,
    FeedforwardCompensator,
    FeedforwardConfig,
    PDConfig,
    ProportionalFFConfig,
    make_controller,
    pd_command,
    proportional_ff,
)
from fluidsea.impedance import measure_impedance
from fluidsea.lti import FrequencyGrid, Polynomial, RationalTF, discretize_tustin
from fluidsea.passivity import nominal_bounds
from fluidsea.plant import PlantParams, simulate
from fluidsea.signals import SineSpec

DT = 1.0 / 2000.0


class TestProportionalFF:
    def test_zero_gain(self):
        assert proportional_ff(0.0, 123.4) == 0.0

    def test_unit_gain(self):
        assert proportional_ff(1.0, 0.2) == pytest.approx(0.2)

    @pytest.mark.parametrize("k_f", [1.0, 0.5])
    def test_internal_feedback_equals_scaled_plant(self, gripper_linear, k_f):
        # closed loop with internal gain K_f behaves as the motor plant with
        # (m, b, k) divided by (K_f + 1), driven by the same external force
        p = gripper_linear
        fe = lambda t: 0.05 * math.sin(2.0 * t) + 0.02 * math.sin(0.31 * t)
        closed = simulate(
            p, ProportionalFFConfig(k_f, "internal"), fe, None, duration=6.0, dt=DT
        )
        scaled = replace(p, m=p.m / (k_f + 1), b=p.b / (k_f + 1), k=p.k / (k_f + 1))
        ref = simulate(scaled, None, fe, None, duration=6.0, dt=DT)
        scale = np.max(np.abs(ref.x_e))
        assert np.max(np.abs(closed.x_e - ref.x_e)) < 1e-6 * scale
        assert np.max(np.abs(closed.x - ref.x)) < 1e-6 * max(np.max(np.abs(ref.x)), 1e-12)

    def test_source_validation(self):
        with pytest.raises(ValueError):
            ProportionalFFConfig(1.0, "sideways")


class TestPDCommand:
    def test_at_target(self):
        cfg = PDConfig(K_p=50.0, K_d=1.0)
        assert pd_command(cfg, 0.0, 0.0) == 0.0

    def test_definition(self):
        cfg = PDConfig(K_p=50.0, K_d=1.0, x_target=0.01)
        assert pd_command(cfg, 0.0, 0.0) == pytest.approx(0.5)

    def test_clamped_motor_endpoint_stiffness(self, gripper_linear):
        # series network: stiffness seen at the endpoint with the motor held
        # by gain K_p is k_e + k_s (k + K_p) / (k_s + k + K_p); pinning the
        # motor leaves k_s + k_e = 13.1419
        p = gripper_linear

        def dc_stiffness(K_p):
            return p.k_e + p.k_s * (p.k + K_p) / (p.k_s + p.k + K_p)

        assert dc_stiffness(1e12) == pytest.approx(13.1419, abs=1e-4)
        cfg = PDConfig(K_p=2000.0, K_d=4.0)
        tr = simulate(p, cfg, 0.5, None, duration=20.0, dt=DT)
        assert 0.5 / tr.x_e[-1] == pytest.approx(dc_stiffness(2000.0), rel=1e-3)

    def test_delay_queue(self):
        cfg = PDConfig(K_p=1.0, K_d=0.0, delay_samples=2)
        ctrl = make_controller(cfg, DT)
        outs = [ctrl.step(0.0, 0.0, -x, 0.0, 0.0) for x in (1.0, 2.0, 3.0, 4.0)]
        assert outs == [0.0, 0.0, 1.0, 2.0]


class TestDOB:
    def test_vanishing_cutoff_passes_reference(self, gripper):
        ctrl = make_controller(DOBConfig(lam=1e-12, m_n=gripper.m), DT)
        for k in range(100):
            fa = ctrl.step(1.0, 0.5, 0.1, 0.0, 0.25)
        assert fa == pytest.approx(0.25, abs=1e-9)

    def test_integral_ramp(self):
        # F_ref = 0, constant F_p, v = 0: F_a(t) = lambda * t
        lam = 20.0
        ctrl = make_controller(DOBConfig(lam=lam, m_n=1.1116e-3), DT)
        n = int(round(1.0 / DT))
        for k in range(n):
            fa = ctrl.step(1.0, 0.0, 0.0, 0.0, 0.0)
        t = n * DT
        assert fa / t == pytest.approx(lam, rel=1e-3)

    def test_closed_loop_approaches_nominal_plant(self):
        # requires friction small against observer authority: b << lambda m
        lam = 20.0
        p = PlantParams(
            m=1.1116e-3, b=0.1 * lam * 1.1116e-3, k=1e-4,
            m_e=0.7089e-3, b_e=3.3879e-2, k_e=0.0637,
            b_s=9.2453e-3, k_s=13.0782,
        )
        grid = FrequencyGrid(np.array([0.2, 1.0, 5.0]))  # up to lambda/4
        fr = measure_impedance(p, DOBConfig.inertial(p.m, lam), grid, port="motor")
        for w, z in zip(fr.omegas, fr.H):
            y_meas = 1.0 / z
            y_nominal = 1.0 / (1j * w * p.m)
            err_db = 20 * np.log10(abs(y_meas) / abs(y_nominal))
            assert abs(err_db) < 1.0

    def test_exact_nominal_makes_estimate_vanish(self, gripper_linear):
        # P_n = P: disturbance estimate converges to zero, F_a to F_ref
        p = gripper_linear
        lam = 20.0
        cfg = DOBConfig(lam=lam, m_n=p.m, b_n=p.b, k_n=p.k)
        ctrl = make_controller(cfg, DT)
        horizon = 50.0 / lam
        tr = simulate(p, ctrl, SineSpec(0.05, 2.0), 0.3, duration=horizon + 2.0, dt=DT)
        tail = tr.F_a[int(horizon / DT):]
        assert np.max(np.abs(tail - 0.3)) < 1e-6
        assert abs(ctrl.disturbance_estimate) < 1e-6

    def test_non_finite_input_rejected(self):
        ctrl = make_controller(DOBConfig(lam=20.0), DT)
        with pytest.raises(ValueError):
            ctrl.step(float("nan"), 0.0, 0.0, 0.0, 0.0)

    def test_windup_guard_optional(self):
        lam = 20.0
        guarded = make_controller(DOBConfig(lam=lam, m_n=0.0, windup_limit=0.5), DT)
        free = make_controller(DOBConfig(lam=lam, m_n=0.0), DT)
        for _ in range(4000):
            fa_g = guarded.step(1.0, 0.0, 0.0, 0.0, 0.0)
            fa_f = free.step(1.0, 0.0, 0.0, 0.0, 0.0)
        assert fa_g == pytest.approx(lam * 0.5)
        assert fa_f > fa_g

    def test_determinism(self, gripper):
        cfg = DOBConfig.inertial(gripper.m, 20.0)
        fe = SineSpec(0.1, 3.0)
        a = simulate(gripper, cfg, fe, None, duration=2.0, dt=DT)
        b = simulate(gripper, cfg, fe, None, duration=2.0, dt=DT)
        assert np.array_equal(a.F_a, b.F_a)

    def test_bounded_outputs_inside_passivity_region(self, gripper):
        # randomized nominal coefficients inside the closed-form bounds
        p = gripper
        lam = 20.0
        nb = nominal_bounds(p.m, p.b, p.k, lam)
        rng = np.random.default_rng(11)
        for _ in range(20):
            m_n = max(nb.m_n_min, 0.0) + rng.uniform(0.0, 3.0) * p.m
            b_n = rng.uniform(0.0, 2.0) * p.b
            k_n = rng.uniform(0.0, 1.0) * nb.k_n_max(b_n)
            cfg = DOBConfig(lam=lam, m_n=m_n, b_n=b_n, k_n=k_n)
            tr = simulate(p, cfg, SineSpec(0.1, 1.5), None, duration=8.0, dt=DT)
            assert np.all(np.isfinite(tr.F_a))
            assert np.max(np.abs(tr.F_a)) < 50.0


class TestFeedforward:
    def test_rest_gives_zero(self, gripper):
        ff = FeedforwardCompensator(FeedforwardConfig.from_params(gripper), DT)
        for _ in range(100):
            out = ff.step(0.0, 0.0)
        assert out == 0.0

    def test_static_deflection_converges_to_endpoint_spring_force(self, gripper):
        # motor clamped, constant line force F_p = k_s x_e: the compensation
        # settles to k_e x_e (DC gain of the line-force branch is k_e / k_s)
        p = gripper
        ff = FeedforwardCompensator(FeedforwardConfig.from_params(p, include_dahl=False), DT)
        x_e = 0.1
        for _ in range(int(2.0 / DT)):
            out = ff.step(p.k_s * x_e, 0.0)
        assert out == pytest.approx(p.k_e * x_e, rel=1e-6)

    def test_velocity_estimate_exposed(self, gripper):
        ff = FeedforwardCompensator(FeedforwardConfig.from_params(gripper), DT)
        ff.step(0.0, 0.7)
        assert ff.last_vhat_e == pytest.approx(0.7)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FeedforwardConfig(b_e=0.1, k_e=0.1, b_s=0.1, k_s=0.0)
        with pytest.raises(ValueError):
            DahlEstimate(F_c=0.0, sigma=1.0)

    def test_dahl_estimate_tracks_exact_map(self):
        cfg = FeedforwardConfig(
            b_e=0.0, k_e=0.0, b_s=1e-9, k_s=13.0782,
            dahl=DahlEstimate(F_c=0.032, sigma=12.8),
        )
        ff = FeedforwardCompensator(cfg, DT)
        v = 1.0
        n = int(round(0.0025 / (v * DT)))  # travel F_c / sigma
        for _ in range(n):
            out = ff.step(0.0, v)
        want = 0.032 * (1.0 - math.exp(-12.8 * (n * v * DT - 0.5 * v * DT) / 0.032))
        # half-sample offset from the trapezoidal displacement update
        assert out == pytest.approx(want, rel=1e-3)


def _reference_feedforward(cfg, dt, samples):
    """The feedforward law stepped through two DiscreteFilter objects."""
    line = Polynomial([cfg.b_s, cfg.k_s])
    fp_branch = discretize_tustin(RationalTF(Polynomial([cfg.b_e, cfg.k_e]), line), dt)
    vhat_branch = discretize_tustin(RationalTF(Polynomial([1.0, 0.0]), line), dt)
    half = 0.5 * dt
    i_v = v_prev = vhat_prev = fd_hat = 0.0
    out, vhats = [], []
    for F_p, v in samples:
        i_v += half * (v + v_prev)
        v_prev = v
        linear = cfg.b_e * v + cfg.k_e * i_v + fp_branch.step(F_p)
        vhat = v + vhat_branch.step(F_p)
        dx = half * (vhat + vhat_prev)
        vhat_prev = vhat
        if cfg.dahl is not None and dx != 0.0:
            s = 1.0 if dx > 0.0 else -1.0
            decay = math.exp(-cfg.dahl.sigma * abs(dx) / cfg.dahl.F_c)
            fd_hat = s * cfg.dahl.F_c + (fd_hat - s * cfg.dahl.F_c) * decay
        out.append(linear + (fd_hat if cfg.dahl is not None else 0.0))
        vhats.append(vhat)
    return out, vhats


@pytest.mark.parametrize("include_dahl", [True, False])
def test_feedforward_equals_discrete_filter_reference(gripper, include_dahl):
    cfg = FeedforwardConfig.from_params(gripper, include_dahl=include_dahl)
    assert (cfg.dahl is not None) == include_dahl
    rng = np.random.default_rng(11)
    samples = list(zip(rng.uniform(-1.0, 1.0, 10_000).tolist(),
                       rng.uniform(-0.5, 0.5, 10_000).tolist()))
    samples[100:200] = [(0.0, 0.0)] * 100  # rests, where the Dahl estimate holds
    want, want_vhat = _reference_feedforward(cfg, DT, samples)
    ff = FeedforwardCompensator(cfg, DT)
    got, got_vhat = [], []
    for F_p, v in samples:
        got.append(ff.step(F_p, v))
        got_vhat.append(ff.last_vhat_e)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert np.array(got_vhat).tobytes() == np.array(want_vhat).tobytes()


class TestComposite:
    def test_zero_compensation_reduces_to_plain_dob(self, gripper):
        dob_cfg = DOBConfig.inertial(gripper.m, 20.0)
        ff_cfg = FeedforwardConfig(b_e=0.0, k_e=0.0, b_s=1e-6, k_s=1.0, dahl=None)
        comp = make_controller(CompositeConfig(dob_cfg, ff_cfg), DT)
        dob = make_controller(dob_cfg, DT)
        rng = np.random.default_rng(5)
        for _ in range(500):
            fp, v, x = rng.uniform(-0.1, 0.1, size=3)
            assert comp.step(fp, v, x, 0.0, 0.0) == dob.step(fp, v, x, 0.0, 0.0)
        assert comp.last_f_cmp == 0.0

    def test_reset_restores_initial_output(self, gripper):
        cfg = CompositeConfig(
            DOBConfig.inertial(gripper.m, 20.0), FeedforwardConfig.from_params(gripper)
        )
        ctrl = make_controller(cfg, DT)
        first = ctrl.step(0.5, 0.1, 0.02, 0.0, 0.0)
        ctrl.reset()
        again = ctrl.step(0.5, 0.1, 0.02, 0.0, 0.0)
        assert first == again

import math
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from fluidsea.controllers import (
    CompositeConfig,
    DOBConfig,
    DahlEstimate,
    FeedforwardConfig,
    PDConfig,
    ProportionalFFConfig,
    make_controller,
)
from fluidsea.impedance import measure_impedance
from fluidsea.lti import FrequencyGrid, Polynomial, RationalTF, discretize_tustin
from fluidsea.passivity import nominal_bounds
from fluidsea.plant import PlantParams, simulate
from fluidsea.signals import SineSpec

from conftest import feedforward

DT = 1.0 / 2000.0


class TestProportionalFF:
    def test_zero_gain(self, gripper):
        # K_f = 0 renders the passive plant, bit for bit
        fe = SineSpec(0.05, 3.0)
        passive = simulate(gripper, None, fe, None, duration=0.5, dt=DT)
        for source in ("internal", "external"):
            cfg = ProportionalFFConfig(0.0, source)
            closed = simulate(gripper, cfg, fe, None, duration=0.5, dt=DT)
            for col in ("x", "v", "x_e", "v_e", "F_d"):
                assert closed.column(col).tobytes() == passive.column(col).tobytes()

    def test_unit_gain(self, gripper):
        # F_a = K_f F_meas, recorded from the stage gain of each source
        fe = SineSpec(0.05, 3.0)
        internal = simulate(
            gripper, ProportionalFFConfig(1.0, "internal"), fe, None, duration=0.5, dt=DT
        )
        external = simulate(
            gripper, ProportionalFFConfig(1.0, "external"), fe, None, duration=0.5, dt=DT
        )
        np.testing.assert_array_equal(internal.F_a, internal.F_p)
        np.testing.assert_array_equal(external.F_a, external.F_e)

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
        ctrl = make_controller(PDConfig(K_p=50.0, K_d=1.0), DT)
        assert ctrl.step(0.0, 0.0, 0.0, 0.0) == 0.0

    def test_definition(self):
        ctrl = make_controller(PDConfig(K_p=50.0, K_d=1.0, x_target=0.01), DT)
        assert ctrl.step(0.0, 0.0, 0.0, 0.0) == pytest.approx(0.5)

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
        outs = [ctrl.step(0.0, 0.0, -x, 0.0) for x in (1.0, 2.0, 3.0, 4.0)]
        assert outs == [0.0, 0.0, 1.0, 2.0]


class TestDOB:
    def test_vanishing_cutoff_passes_reference(self, gripper):
        ctrl = make_controller(DOBConfig(lam=1e-12, m_n=gripper.m), DT)
        for k in range(100):
            fa = ctrl.step(1.0, 0.5, 0.1, 0.25)
        assert fa == pytest.approx(0.25, abs=1e-9)

    def test_integral_ramp(self):
        # F_ref = 0, constant F_p, v = 0: F_a(t) = lambda * t
        lam = 20.0
        ctrl = make_controller(DOBConfig(lam=lam, m_n=1.1116e-3), DT)
        n = int(round(1.0 / DT))
        for k in range(n):
            fa = ctrl.step(1.0, 0.0, 0.0, 0.0)
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
        fr = measure_impedance(p, DOBConfig(lam=lam, m_n=p.m), grid, port="motor")
        for w, z in zip(fr.omegas, fr.H):
            y_meas = 1.0 / z
            y_nominal = 1.0 / (1j * w * p.m)
            err_db = 20 * np.log10(abs(y_meas) / abs(y_nominal))
            assert abs(err_db) < 1.0

    def test_exact_nominal_makes_estimate_vanish(self, gripper_linear):
        # P_n = P: the disturbance estimate F_ref - F_a converges to zero
        p = gripper_linear
        lam = 20.0
        cfg = DOBConfig(lam=lam, m_n=p.m, b_n=p.b, k_n=p.k)
        horizon = 50.0 / lam
        tr = simulate(p, cfg, SineSpec(0.05, 2.0), 0.3, duration=horizon + 2.0, dt=DT)
        tail = tr.F_a[int(horizon / DT):]
        assert np.max(np.abs(tail - 0.3)) < 1e-6

    def test_non_finite_input_rejected(self):
        ctrl = make_controller(DOBConfig(lam=20.0), DT)
        with pytest.raises(ValueError):
            ctrl.step(float("nan"), 0.0, 0.0, 0.0)

    def test_determinism(self, gripper):
        cfg = DOBConfig(lam=20.0, m_n=gripper.m)
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


def _feedforward(cfg):
    """``step(F_p, v) -> F_cmp`` of the feedforward ``cfg``, read off a composite runtime.

    The composite runs the feedforward first, on F_p and v alone, and
    records its force as ``last_f_cmp`` before the observer runs.
    """
    ctrl = make_controller(CompositeConfig(DOBConfig(), cfg), DT)

    def step(F_p, v):
        ctrl.step(F_p, v, 0.0, 0.0)
        return ctrl.last_f_cmp

    return step


class TestFeedforward:
    def test_rest_gives_zero(self, gripper):
        step = _feedforward(feedforward(gripper))
        for _ in range(100):
            out = step(0.0, 0.0)
        assert out == 0.0

    def test_static_deflection_converges_to_endpoint_spring_force(self, gripper):
        # motor clamped, constant line force F_p = k_s x_e: the compensation
        # settles to k_e x_e (DC gain of the line-force branch is k_e / k_s)
        p = gripper
        step = _feedforward(feedforward(p, dahl=False))
        x_e = 0.1
        for _ in range(int(2.0 / DT)):
            out = step(p.k_s * x_e, 0.0)
        assert out == pytest.approx(p.k_e * x_e, rel=1e-6)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FeedforwardConfig(b_e=0.1, k_e=0.1, b_s=0.1, k_s=0.0)
        with pytest.raises(ValueError):
            FeedforwardConfig(b_e=0.1, k_e=0.1, b_s=0.0, k_s=1.0)
        with pytest.raises(ValueError):
            DahlEstimate(F_c=0.0, sigma=1.0)

    def test_dahl_estimate_tracks_exact_map(self):
        cfg = FeedforwardConfig(
            b_e=0.0, k_e=0.0, b_s=1e-9, k_s=13.0782,
            dahl=DahlEstimate(F_c=0.032, sigma=12.8),
        )
        step = _feedforward(cfg)
        v = 1.0
        n = int(round(0.0025 / (v * DT)))  # travel F_c / sigma
        for _ in range(n):
            out = step(0.0, v)
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
    out = []
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
    return out


@pytest.mark.parametrize("include_dahl", [True, False])
def test_feedforward_equals_discrete_filter_reference(gripper, include_dahl):
    cfg = feedforward(gripper, dahl=include_dahl)
    assert (cfg.dahl is not None) == include_dahl
    rng = np.random.default_rng(11)
    samples = list(zip(rng.uniform(-1.0, 1.0, 10_000).tolist(),
                       rng.uniform(-0.5, 0.5, 10_000).tolist()))
    samples[100:200] = [(0.0, 0.0)] * 100  # rests, where the Dahl estimate holds
    want = _reference_feedforward(cfg, DT, samples)
    step = _feedforward(cfg)
    got = [step(F_p, v) for F_p, v in samples]
    assert np.array(got).tobytes() == np.array(want).tobytes()


def _reference_pd(cfg, samples):
    """The PD hold with its delay line as a deque, one output per (v, x) sample."""
    queue = deque([0.0] * cfg.delay_samples)
    out = []
    for v, x in samples:
        queue.append(cfg.K_p * (cfg.x_target - x) - cfg.K_d * v)
        out.append(queue.popleft())
    return out


def _reference_dob(cfg, dt, samples):
    """The integrator-form observer, trapezoidal integrals, per (F_p, v, x, F_ref) sample."""
    half = 0.5 * dt
    i_fp = u_prev = i_x = x_prev = 0.0
    out = []
    for F_p, v, x, F_ref in samples:
        u = F_ref + F_p
        i_fp += half * (u + u_prev)
        u_prev = u
        i_x += half * (x + x_prev)
        x_prev = x
        out.append(F_ref + cfg.lam * (i_fp - cfg.m_n * v - cfg.b_n * x - cfg.k_n * i_x))
    return out


def _random_samples(seed, n=5_000):
    """(F_p, v, x, F_ref) samples with a stretch of rest, as Python floats."""
    rng = np.random.default_rng(seed)
    cols = [rng.uniform(-1.0, 1.0, n), rng.uniform(-0.5, 0.5, n),
            rng.uniform(-0.1, 0.1, n), rng.uniform(-0.2, 0.2, n)]
    samples = list(zip(*(c.tolist() for c in cols)))
    samples[100:200] = [(0.0, 0.0, 0.0, 0.0)] * 100
    return samples


def _bytes(values):
    return np.array(values).tobytes()


@pytest.mark.parametrize("delay", [0, 1, 2, 3])
def test_pd_equals_reference(delay):
    cfg = PDConfig(K_p=88.4, K_d=1.768, x_target=0.01, delay_samples=delay)
    samples = _random_samples(delay)
    ctrl = make_controller(cfg, DT)
    got = [ctrl.step(*s) for s in samples]
    assert _bytes(got) == _bytes(_reference_pd(cfg, [(v, x) for _, v, x, _ in samples]))


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_dob_equals_reference(gripper, seed):
    rng = np.random.default_rng(seed)
    cfg = DOBConfig(
        lam=rng.uniform(1.0, 200.0), m_n=rng.uniform(0.1, 3.0) * gripper.m,
        b_n=rng.uniform(0.0, 2.0) * gripper.b, k_n=rng.uniform(0.0, 1.0) * gripper.k,
    )
    samples = _random_samples(seed)
    ctrl = make_controller(cfg, DT)
    got = [ctrl.step(*s) for s in samples]
    assert _bytes(got) == _bytes(_reference_dob(cfg, DT, samples))


@pytest.mark.parametrize("include_dahl", [True, False])
def test_composite_equals_reference(gripper, include_dahl):
    cfg = CompositeConfig(
        DOBConfig(lam=125.0, m_n=gripper.m, b_n=0.5 * gripper.b, k_n=0.01),
        feedforward(gripper, dahl=include_dahl),
    )
    samples = _random_samples(7)
    f_cmp = _reference_feedforward(cfg.feedforward, DT, [(F_p, v) for F_p, v, _, _ in samples])
    want = _reference_dob(
        cfg.dob, DT, [(F_p, v, x, F_ref + c) for (F_p, v, x, F_ref), c in zip(samples, f_cmp)]
    )
    ctrl = make_controller(cfg, DT)
    got, got_cmp = [], []
    for s in samples:
        got.append(ctrl.step(*s))
        got_cmp.append(ctrl.last_f_cmp)
    assert _bytes(got_cmp) == _bytes(f_cmp)
    assert _bytes(got) == _bytes(want)


class TestComposite:
    def test_zero_compensation_reduces_to_plain_dob(self, gripper):
        dob_cfg = DOBConfig(lam=20.0, m_n=gripper.m)
        ff_cfg = FeedforwardConfig(b_e=0.0, k_e=0.0, b_s=1e-6, k_s=1.0, dahl=None)
        comp = make_controller(CompositeConfig(dob_cfg, ff_cfg), DT)
        dob = make_controller(dob_cfg, DT)
        rng = np.random.default_rng(5)
        for _ in range(500):
            fp, v, x = rng.uniform(-0.1, 0.1, size=3)
            assert comp.step(fp, v, x, 0.0) == dob.step(fp, v, x, 0.0)
        assert comp.last_f_cmp == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(4))
    def test_non_finite_input_rejected(self, gripper, slot, bad):
        # as the observer alone rejects them
        cfg = CompositeConfig(DOBConfig(lam=20.0, m_n=gripper.m), feedforward(gripper))
        for ctrl in (make_controller(cfg, DT), make_controller(cfg.dob, DT)):
            ctrl.step(0.01, 0.02, 0.003, 0.0)
            args = [0.01, 0.02, 0.003, 0.0]
            args[slot] = bad
            with pytest.raises(ValueError, match="non-finite controller input"):
                ctrl.step(*args)


def test_make_controller_rejects_runtime_controller():
    # a runtime carries state from its last run; only configs build one
    ctrl = make_controller(DOBConfig(lam=20.0), DT)
    with pytest.raises(TypeError):
        make_controller(ctrl, DT)

import math
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fluidsea.impedance
import fluidsea.plant
from fluidsea.controllers import (
    CompositeConfig,
    DOBConfig,
    PDConfig,
    ProportionalFFConfig,
    make_controller,
)
from fluidsea.impedance import measure_impedance, snap_omega
from fluidsea.lti import FrequencyGrid
from fluidsea.passivity import endpoint_impedance
from fluidsea.plant import (
    TRACE_COLUMNS,
    PlantParams,
    PlantState,
    SimulationDivergedError,
    linear_model,
    simulate,
    simulate_backdriven,
)
from fluidsea.signals import as_signal
from fluidsea.signals import ChirpSpec, ConstantSpec, SineMotionSpec, SineSpec
from fluidsea.sysid import estimate_frf

from conftest import feedforward

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


def _line_force(params, state):
    """F_p of ``state``, read from the first row of a one-step trace."""
    return simulate(params, None, None, None, duration=DT, dt=DT, initial_state=state).F_p[0]


class TestInternalForce:
    def test_no_relative_motion(self, gripper):
        s = PlantState(x=0.3, v=1.1, x_e=0.3, v_e=1.1)
        assert _line_force(gripper, s) == 0.0

    def test_pure_deflection(self, gripper):
        s = PlantState(x_e=0.1)
        assert _line_force(gripper, s) == pytest.approx(1.30782, rel=1e-12)

    def test_pure_rate(self, gripper):
        s = PlantState(v_e=1.0)
        assert _line_force(gripper, s) == pytest.approx(9.2453e-3, rel=1e-12)


def _dahl_step(params, fd, ve, dt=DT, f_ext=None):
    """The Dahl state after one step of the passive plant from v_e = ve, F_d = fd."""
    s0 = PlantState(v_e=ve, f_d=fd)
    return simulate(params, None, f_ext, None, duration=2 * dt, dt=dt, initial_state=s0).F_d[1]


class TestDahlRate:
    def test_equilibrium_slope(self, gripper):
        h = 1e-7
        assert _dahl_step(gripper, 0.0, 1.0, h) / h == pytest.approx(12.8, rel=1e-4)

    def test_saturation_fixed_point(self, gripper):
        assert _dahl_step(gripper, gripper.F_c, 2.0) == gripper.F_c

    def test_rest_is_fixed_point(self, gripper):
        # f_ext = F_d balances the endpoint at rest, so every stage rate is exactly 0
        assert _dahl_step(gripper, 0.01, 0.0, f_ext=0.01) == 0.01

    def test_disabled_element(self, gripper_linear):
        assert _dahl_step(gripper_linear, 0.0, 1.0) == 0.0

    def test_closed_form_trajectory(self, gripper):
        # the n = 1 law is rate independent: along the rising first quarter of a
        # sine from rest, F_d(x_e) = F_c (1 - exp(-sigma x_e / F_c))
        p = gripper
        n = 100  # x_e reaches F_c / sigma at step n, a sixth of the period
        omega = (math.pi / 6.0) / (n * DT)
        motion = SineMotionSpec(2.0 * p.F_c / p.sigma, omega)
        tr = simulate_backdriven(p, None, motion, duration=(n + 1) * DT, dt=DT)
        fd = tr.F_d[n]
        dx = tr.x_e[n]
        want = p.F_c * (1.0 - math.exp(-p.sigma * dx / p.F_c))
        assert fd == pytest.approx(want, rel=1e-4)
        assert fd == pytest.approx(0.02023, abs=2e-5)

    def test_general_exponent_matches_n1_at_one(self, gripper):
        pn = replace(gripper, n_dahl=1.0 + 1e-12)
        for fd, v in ((0.01, 0.5), (-0.02, -1.2), (0.03, -0.4)):
            assert _dahl_step(pn, fd, v) - fd == pytest.approx(
                _dahl_step(gripper, fd, v) - fd, rel=1e-9
            )


class TestStep:
    def test_equilibrium(self, gripper):
        tr = simulate(gripper, None, 0.0, None, duration=2 * DT, dt=DT)
        after = PlantState(tr.x[1], tr.v[1], tr.x_e[1], tr.v_e[1], tr.F_d[1])
        assert after == PlantState()

    def test_dt_domain(self, gripper):
        with pytest.raises(ValueError):
            simulate(gripper, None, None, None, duration=0.1, dt=0.02)
        with pytest.raises(ValueError):
            simulate_backdriven(gripper, None, SineMotionSpec(0.5, 1.0), duration=0.1, dt=0.02)

    def test_motion_must_be_sine(self, gripper):
        with pytest.raises(TypeError, match="SineMotionSpec"):
            simulate_backdriven(gripper, None, SineSpec(0.5, 1.0), duration=0.1)

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


def _loop(params, controller=None, f_ext=None, f_ref=None, duration=1.0, dt=DT,
          initial_state=None):
    """``simulate`` through the per-step loop, which linear runs otherwise leave for the map."""
    return fluidsea.plant._run(
        params, make_controller(controller, dt), as_signal(f_ext), None, as_signal(f_ref),
        int(round(duration / dt)), dt, initial_state or PlantState(),
    )[0]


def _reference_rk4(params):
    """RK4 step through a nested right-hand side: the form the loop inlines."""
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


def _reference_simulate(params, controller, f_ext, f_ref, duration, initial_state, dt=DT):
    """Force-source loop over the nested-rhs RK4 step: the form the shared loop replaces."""
    ctrl = make_controller(controller, dt)
    fe_fn, fref_fn = as_signal(f_ext), as_signal(f_ref)
    kf_int = ctrl.stage_gain_internal
    kf_ext = ctrl.stage_gain_external
    p = params
    rk4 = _reference_rk4(p)
    s0 = initial_state
    state = (s0.x, s0.v, s0.x_e, s0.v_e, s0.f_d)
    n = int(round(duration / dt))
    cols = np.empty((n, 11))
    for i in range(n):
        t = i * dt
        x, v, xe, ve, fd = state
        fp = p.b_s * (ve - v) + p.k_s * (xe - x)
        fe, fref = fe_fn(t), fref_fn(t)
        fa = ctrl.step(fp, v, x, fref)
        cols[i] = (t, x, v, xe, ve, fp, fe, fa + kf_int * fp + kf_ext * fe, fd,
                   ctrl.last_f_cmp, fref)
        state = rk4(*state, fa, kf_int, kf_ext, fe, fe_fn(t + 0.5 * dt), fe_fn(t + dt), dt)
    return {name: cols[:, i].copy() for i, name in enumerate(TRACE_COLUMNS)}


def _reference_backdriven(params, controller, motion, duration, dt=DT, f_ref=None):
    """Motion-source loop with its own nested-rhs RK4: the form the shared loop replaces."""
    ctrl = make_controller(controller, dt)
    fref_fn = as_signal(f_ref)
    kf_int = ctrl.stage_gain_internal
    kf_ext = ctrl.stage_gain_external
    p = params
    pos, vel, acc = motion.position, motion.velocity, motion.acceleration

    def rhs(x, v, fd, fa, xe, ve):
        fp = p.b_s * (ve - v) + p.k_s * (xe - x)
        dv = (fa + kf_int * fp + fp - p.b * v - p.k * x) / p.m
        if p.F_c > 0.0 and ve != 0.0:
            s = 1.0 if ve > 0.0 else -1.0
            g = 1.0 - (fd / p.F_c) * s
            if p.n_dahl != 1.0:
                dfd = p.sigma * ve * abs(g) ** p.n_dahl * math.copysign(1.0, g)
            else:
                dfd = p.sigma * ve * g
        else:
            dfd = 0.0
        return v, dv, dfd

    n = int(round(duration / dt))
    x = v = fd = 0.0
    half = 0.5 * dt
    cols = np.empty((n, 11))
    for i in range(n):
        t = i * dt
        xe0, ve0 = float(pos(t)), float(vel(t))
        fp = p.b_s * (ve0 - v) + p.k_s * (xe0 - x)
        fe = p.m_e * float(acc(t)) + p.b_e * ve0 + p.k_e * xe0 + fd + fp
        fref = fref_fn(t)
        fa = ctrl.step(fp, v, x, fref) + kf_ext * fe
        cols[i] = (t, x, v, xe0, ve0, fp, fe, fa + kf_int * fp, fd, ctrl.last_f_cmp, fref)
        xeh, veh = float(pos(t + half)), float(vel(t + half))
        xe1, ve1 = float(pos(t + dt)), float(vel(t + dt))
        k1 = rhs(x, v, fd, fa, xe0, ve0)
        k2 = rhs(x + half * k1[0], v + half * k1[1], fd + half * k1[2], fa, xeh, veh)
        k3 = rhs(x + half * k2[0], v + half * k2[1], fd + half * k2[2], fa, xeh, veh)
        k4 = rhs(x + dt * k3[0], v + dt * k3[1], fd + dt * k3[2], fa, xe1, ve1)
        w = dt / 6.0
        x += w * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
        v += w * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
        fd += w * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2])
        if p.F_c > 0.0:
            fd = min(max(fd, -p.F_c), p.F_c)
    return {name: cols[:, i].copy() for i, name in enumerate(TRACE_COLUMNS)}


def _backdrive_controllers(m):
    dob = DOBConfig(lam=2.0 * math.pi * 20.0, m_n=m)
    return {
        "passive": None,
        "dob": dob,
        "pd": PDConfig(K_p=20.0, K_d=0.4, delay_samples=1),
        "composite_dahl": CompositeConfig(
            dob, feedforward(PlantParams.gripper(), dahl=True)
        ),
        "composite": CompositeConfig(
            dob, feedforward(PlantParams.gripper(), dahl=False)
        ),
        "internal": ProportionalFFConfig(0.5, "internal"),
        "external": ProportionalFFConfig(0.5, "external"),
    }


_PLANTS = {
    "n_dahl=1": PlantParams.gripper(),
    "n_dahl=0.5": replace(PlantParams.gripper(), n_dahl=0.5),
    "n_dahl=2": replace(PlantParams.gripper(), n_dahl=2.0),
    "linear": PlantParams.gripper().without_hysteresis(),
}


@pytest.mark.parametrize("kind", list(_backdrive_controllers(1.0)))
@pytest.mark.parametrize("plant", list(_PLANTS))
def test_simulate_equals_nested_reference(plant, kind):
    p = _PLANTS[plant]
    ctrl = _backdrive_controllers(p.m)[kind]
    f_ext = SineSpec(0.05, 3.0)
    f_ref = SineSpec(0.01, 2.0)
    s0 = PlantState(x=0.01, v=-0.2, x_e=0.02, v_e=0.3, f_d=0.005)
    got = _loop(p, ctrl, f_ext, f_ref, duration=1.0, dt=DT, initial_state=s0)
    want = _reference_simulate(p, ctrl, f_ext, f_ref, duration=1.0, initial_state=s0)
    for name in TRACE_COLUMNS:
        assert getattr(got, name).tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize(
    "kind, f_ext",
    [("passive", ChirpSpec(0.3, 0.05, 400.0, 2.5)), ("composite_dahl", SineSpec(0.05, 3.0))],
)
def test_sampling_blocks_equal_nested_reference(kind, f_ext):
    # the loop samples its forces a block of steps at a time; a run over more
    # than two blocks equals the reference, which evaluates them per step
    p = PlantParams.gripper()
    ctrl = _backdrive_controllers(p.m)[kind]
    f_ref = SineSpec(0.01, 2.0)
    s0 = PlantState(x=0.01, v=-0.2, x_e=0.02, v_e=0.3, f_d=0.005)
    got = simulate(p, ctrl, f_ext, f_ref, duration=2.5, dt=DT, initial_state=s0)
    want = _reference_simulate(p, ctrl, f_ext, f_ref, duration=2.5, initial_state=s0)
    assert len(got) > 2 * fluidsea.plant._SAMPLE_BLOCK
    for name in TRACE_COLUMNS:
        assert getattr(got, name).tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("n_dahl", [1.0, 0.5, 2.0])
@pytest.mark.parametrize("hysteresis", [True, False])
def test_stepper_equals_nested_reference(n_dahl, hysteresis):
    # one step of the loop from random states, actuator forces, stage gains and
    # external forces with distinct values at the three stage times
    p = PlantParams.gripper() if hysteresis else PlantParams.gripper().without_hysteresis()
    p = replace(p, n_dahl=n_dahl)
    rng = np.random.default_rng(7)
    for i, row in enumerate(rng.uniform(-1.0, 1.0, size=(600, 10)).tolist()):
        x, v, xe, ve, fd, gain, target, fe0, c1, c2 = row
        if row[0] > 0.8:
            ve = 0.0  # the Dahl rate is zero at rest
        s0 = PlantState(x=x, v=v, x_e=xe, v_e=ve, f_d=0.032 * fd)
        ctrl = (
            PDConfig(K_p=20.0 * abs(gain), K_d=abs(gain), x_target=target),
            ProportionalFFConfig(gain, "internal"),
            ProportionalFFConfig(gain, "external"),
        )[i % 3]
        f_ext = lambda t: fe0 + t * (1e3 * c1 + t * 1e6 * c2)  # noqa: E731
        got = _loop(p, ctrl, f_ext, None, duration=2 * DT, dt=DT, initial_state=s0)
        want = _reference_simulate(p, ctrl, f_ext, None, duration=2 * DT, initial_state=s0)
        for name in TRACE_COLUMNS:
            assert getattr(got, name).tobytes() == want[name].tobytes(), (i, name)


@pytest.mark.parametrize("kind", list(_backdrive_controllers(1.0)))
@pytest.mark.parametrize("plant", list(_PLANTS))
def test_backdriven_equals_nested_reference(plant, kind):
    p = _PLANTS[plant]
    ctrl = _backdrive_controllers(p.m)[kind]
    motion = SineMotionSpec(0.5, snap_omega(3.0, DT))
    f_ref = SineSpec(0.01, 2.0)
    got = simulate_backdriven(p, ctrl, motion, duration=1.0, dt=DT, f_ref=f_ref)
    want = _reference_backdriven(p, ctrl, motion, duration=1.0, dt=DT, f_ref=f_ref)
    for name in TRACE_COLUMNS:
        assert getattr(got, name).tobytes() == want[name].tobytes(), name


_STATELESS = {
    "passive": None,
    "internal": ProportionalFFConfig(0.5, "internal"),
    "external": ProportionalFFConfig(0.5, "external"),
}
_FORCES = {
    "sine": SineSpec(0.05, 3.0),
    "chirp": ChirpSpec(0.3, 0.05, 400.0, 2.0),
    "constant": ConstantSpec(0.02),
    "callable": lambda t: 0.03 * math.cos(40.0 * t) - 0.01,
    "none": None,
}


def _assert_columns_close(got, want, rel):
    """Each column of ``got`` within ``rel`` of the largest magnitude in ``want``'s."""
    assert len(got) == len(want)
    for name in TRACE_COLUMNS:
        a, b = got.column(name), want.column(name)
        assert np.max(np.abs(a - b)) <= rel * np.max(np.abs(b)), name


@pytest.mark.parametrize("force", list(_FORCES))
@pytest.mark.parametrize("kind", list(_STATELESS))
def test_linear_run_equals_loop(kind, force):
    args = (_PLANTS["linear"], _STATELESS[kind], _FORCES[force], SineSpec(0.01, 2.0))
    s0 = PlantState(x=0.01, v=-0.2, x_e=0.02, v_e=0.3, f_d=0.005)
    got = simulate(*args, duration=2.0, dt=DT, initial_state=s0)
    want = _loop(*args, duration=2.0, dt=DT, initial_state=s0)
    _assert_columns_close(got, want, 1e-12)
    for name in ("t", "F_e", "F_ref"):
        assert got.column(name).tobytes() == want.column(name).tobytes(), name


def test_linear_runs_skip_the_loop(monkeypatch):
    steps = []
    run = fluidsea.plant._run

    def counting_run(*args):
        steps.append(args[5])
        return run(*args)

    monkeypatch.setattr(fluidsea.plant, "_run", counting_run)
    simulate(_PLANTS["linear"], _STATELESS["internal"], SineSpec(0.05, 3.0), duration=1.0)
    assert steps == [1] * 8  # the probes of linear_model, one step each
    steps.clear()
    simulate(_PLANTS["n_dahl=1"], _STATELESS["internal"], SineSpec(0.05, 3.0), duration=1.0)
    assert steps == [2000]


def test_linear_model_scope():
    phi, *gammas = linear_model(_PLANTS["linear"], None, DT)
    assert phi[4].tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]
    assert [g[4] for g in gammas] == [0.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="F_c"):
        linear_model(_PLANTS["n_dahl=1"], None, DT)
    # the plant's five states, then the delay line, the observer's four and
    # the feedforward's five
    for kind, n in (("pd", 6), ("dob", 9), ("composite", 14)):
        phi, *gammas = linear_model(_PLANTS["linear"], _backdrive_controllers(1e-3)[kind], DT)
        assert phi.shape == (n, n) and all(g.shape == (n,) for g in gammas), kind
    with pytest.raises(ValueError, match="Dahl"):
        linear_model(_PLANTS["linear"], _backdrive_controllers(1e-3)["composite_dahl"], DT)
    with pytest.raises(ValueError, match="target"):
        linear_model(_PLANTS["linear"], PDConfig(K_p=20.0, K_d=0.4, x_target=0.1), DT)


@pytest.mark.parametrize("dt", [0.0, -5e-4, 0.5])
@pytest.mark.parametrize(
    "fn", [lambda p, dt: linear_model(p, None, dt), fluidsea.impedance.max_stable_pd],
    ids=["linear_model", "max_stable_pd"],
)
def test_linear_model_rejects_dt_as_simulate_does(fn, dt):
    with pytest.raises(ValueError, match=re.escape("dt must lie in (0, 1e-2] s")):
        fn(_PLANTS["linear"], dt)


_MAP_CONTROLLERS = {
    **_STATELESS,
    "dob": DOBConfig(lam=20.0, m_n=PlantParams.gripper().m),
    "dob_hz": DOBConfig(lam=2.0 * math.pi * 20.0, m_n=PlantParams.gripper().m),
    "pd0": PDConfig(K_p=88.4, K_d=1.768),
    "pd1": PDConfig(K_p=88.4, K_d=1.768, delay_samples=1),
    "pd2": PDConfig(K_p=40.0, K_d=0.8, delay_samples=2),  # 88.4 is unstable at 2 samples
    "composite": CompositeConfig(
        DOBConfig(lam=20.0, m_n=PlantParams.gripper().m),
        feedforward(PlantParams.gripper(), dahl=False),
    ),
}


@pytest.mark.parametrize("kind", list(_MAP_CONTROLLERS))
def test_linear_model_probes_are_exact(kind):
    p, cfg = _PLANTS["linear"], _MAP_CONTROLLERS[kind]
    phi, *gammas = linear_model(p, cfg, DT)
    n = phi.shape[0]
    for j, unit in enumerate(np.eye(n).tolist()):
        assert phi[:, j].tolist() == _one_step(p, cfg, None, unit), j
    for at, g in zip((0.0, 0.5 * DT, DT), gammas):
        assert g.tolist() == _one_step(p, cfg, lambda t: 1.0 if t == at else 0.0, [0.0] * n), at


def _one_step(p, cfg, f_ext, s):
    """The state one loop step after ``s``: a one-step run's end state, then its runtime's."""
    ctrl = make_controller(cfg, DT)
    ctrl.set_state(s[5:])
    end = fluidsea.plant._run(p, ctrl, as_signal(f_ext), None, as_signal(None), 1, DT,
                              PlantState(*s[:5]))[1]
    return [*end, *ctrl.state()]


@pytest.mark.parametrize("source", ["force", "motion"])
def test_run_returns_its_end_state(source):
    # the end state of n steps is row n of a run one step longer, bit for bit
    p, cfg = _PLANTS["n_dahl=1"], _backdrive_controllers(1e-3)["composite_dahl"]
    fe = as_signal(SineSpec(0.05, 3.0)) if source == "force" else None
    motion = SineMotionSpec(0.5, 3.0) if source == "motion" else None

    def run(steps):
        return fluidsea.plant._run(p, make_controller(cfg, DT), fe, motion, as_signal(None),
                                   steps, DT, PlantState(x_e=0.01, f_d=0.01))

    longer, (_, end) = run(301)[0], run(300)
    assert list(end) == [longer.x[300], longer.v[300], longer.x_e[300], longer.v_e[300],
                         longer.F_d[300]]


@pytest.mark.parametrize("kind", ["pd1", "pd2", "dob", "dob_hz", "composite"])
def test_linear_model_equals_the_loop_over_a_sweep_point(kind):
    # the map iterated from rest over one sweep point's S + 2 periods at
    # 3 rad/s, against the loop: equal to roundoff
    p = _PLANTS["linear"]
    cfg = _MAP_CONTROLLERS[kind]
    w = snap_omega(3.0, DT)
    period = 2.0 * math.pi / w
    force = SineSpec(0.1, w)
    want = simulate(p, cfg, force, duration=(math.ceil(5.0 / period) + 2) * period, dt=DT)
    phi, g0, gh, g1 = linear_model(p, cfg, DT)
    f, t = as_signal(force), want.t
    inputs = np.outer(f(t), g0) + np.outer(f(t + 0.5 * DT), gh) + np.outer(f(t + DT), g1)
    got = np.empty((len(t), 4))
    s = np.zeros(phi.shape[0])
    for k, u in enumerate(inputs):
        got[k] = s[:4]
        s = phi @ s + u
    for j, name in enumerate(("x", "v", "x_e", "v_e")):
        col = want.column(name)
        assert np.max(np.abs(got[:, j] - col)) <= 1e-10 * np.max(np.abs(col)), name


# Relative gaps allowed between the map's periodic steady state and the
# sweep at 0.3, 3 and 10 rad/s, each at most 10x the gap measured. They are
# the transient the 5 s settle leaves: the observer's slowest mode has
# tau = 0.58 s at 20 rad/s (0.49 s at 20 Hz), the composite's near-unit modes
# barely decay, and at 0.3 rad/s one 21 s settle period leaves only roundoff.
_PERIODIC_GAPS = {
    "pd1": (5e-12, 2e-13, 1e-13),
    "dob": (5e-12, 5e-7, 2e-5),
    "dob_hz": (5e-12, 5e-8, 5e-6),
    "composite": (2e-7, 3e-9, 5e-7),
}


def _periodic_impedance(p, cfg, w, dt):
    """Z = 1/X[v_e] of the map's periodic steady state under f = e^{j w t}:
    the state settles to X z^k, z = e^{j w dt}, where
    z X = phi X + gamma_0 + gamma_h z^(1/2) + gamma_1 z."""
    phi, g0, gh, g1 = linear_model(p, cfg, dt)
    z = np.exp(1j * w * dt)
    return 1.0 / np.linalg.solve(z * np.eye(len(phi)) - phi, g0 + gh * np.sqrt(z) + g1 * z)[3]


@pytest.mark.parametrize("kind", list(_PERIODIC_GAPS))
def test_linear_model_periodic_steady_state_equals_the_sweep(kind):
    p, cfg = _PLANTS["linear"], _MAP_CONTROLLERS[kind]
    want = measure_impedance(p, cfg, FrequencyGrid(np.array([0.3, 3.0, 10.0])), dt=DT)
    for w, Z, bound in zip(want.grid.omegas, want.H, _PERIODIC_GAPS[kind]):
        assert abs(Z / _periodic_impedance(p, cfg, w, DT) - 1.0) <= bound, w


@pytest.mark.parametrize("w", [3.0, 10.0])
@pytest.mark.parametrize("kind", ["dob", "dob_hz", "composite"])
def test_sampled_data_gap_is_first_order_in_dt(kind, w):
    # the dB gap between the sampled loop and the continuous closed form
    # halves with dt: it is the sampling, not a modelling error
    p, cfg = _PLANTS["linear"], _MAP_CONTROLLERS[kind]
    Z = abs(endpoint_impedance(p, cfg).eval(w))
    gaps = [20.0 * math.log10(abs(_periodic_impedance(p, cfg, w, dt)) / Z) for dt in (DT, DT / 2)]
    assert 1.9 <= gaps[0] / gaps[1] <= 2.1, gaps


def test_stiff_linear_run_diverges_at_the_loops_step():
    p = replace(_PLANTS["linear"], m=1e-6)
    linear_model(p, None, DT)  # the probe steps stay finite
    steps = []
    for run in (simulate, _loop):
        with pytest.raises(SimulationDivergedError) as err:
            run(p, None, SineSpec(0.1, 3.0), None, duration=5.0, dt=DT)
        steps.append(err.value.step_index)
    assert steps == [4, 4]


def _map_radius(p):
    return fluidsea.plant._modal_radius(linear_model(p, None, DT)[0])


def test_unstable_linear_map_steps_the_loop(monkeypatch):
    # at rest under no force the loop stays at zero, where the scan of an
    # unstable map overflows (inf * 0) and reported a divergence
    p = replace(_PLANTS["linear"], m=1e-6)
    assert _map_radius(p) > 1e3
    assert _map_radius(_PLANTS["linear"]) <= 1.0
    want = _loop(p, duration=1.0)
    steps = []
    run = fluidsea.plant._run

    def counting_run(*args):
        steps.append(args[5])
        return run(*args)

    monkeypatch.setattr(fluidsea.plant, "_run", counting_run)
    got = simulate(p, None, None, None, duration=1.0, dt=DT)
    assert steps == [1] * 8 + [2000]  # the probes, then the loop
    for name in TRACE_COLUMNS:
        assert got.column(name).tobytes() == want.column(name).tobytes(), name
    assert not np.any(got.x_e)


@pytest.mark.parametrize("K_f", [-3.0, -10.0])
def test_linear_divergence_equals_loop(K_f, monkeypatch):
    p, ctrl = _PLANTS["linear"], ProportionalFFConfig(K_f, "internal")
    steps = []
    for run in (simulate, _loop):
        with pytest.raises(SimulationDivergedError) as err:
            run(p, ctrl, SineSpec(0.1, 3.0), None, duration=5.0, dt=DT)
        steps.append(err.value.step_index)
    assert steps[0] == steps[1]

    def warnings_of_sweep():
        with pytest.warns(UserWarning) as record:
            measure_impedance(p, ctrl, FrequencyGrid(np.array([3.0])), dt=DT)
        return [str(w.message) for w in record]

    got = warnings_of_sweep()
    monkeypatch.setattr(fluidsea.impedance, "simulate", _loop)
    assert got == warnings_of_sweep()
    assert "diverged at step" in got[0]


_scale = st.floats(-1.0, 1.0).map(lambda e: 10.0 ** e)


@settings(max_examples=60, deadline=None)
@given(
    scale=st.tuples(*[_scale] * 8),
    K_f=st.floats(-0.9, 10.0),
    source=st.sampled_from(["internal", "external"]),
    omega=st.floats(0.5, 500.0),
)
def test_linear_run_property(scale, K_f, source, omega):
    # random positive linear plants around the gripper, under proportional feedback
    names = ("m", "b", "k", "m_e", "b_e", "k_e", "b_s", "k_s")
    g = PlantParams.gripper()
    p = PlantParams(**{n: getattr(g, n) * c for n, c in zip(names, scale)})
    ctrl = ProportionalFFConfig(K_f, source)
    fe = as_signal(SineSpec(0.05, omega))
    run = dict(duration=400 * DT, dt=DT)
    try:
        want = _loop(p, ctrl, fe, None, **run)
    except SimulationDivergedError as exc:
        with pytest.raises(SimulationDivergedError) as err:
            simulate(p, ctrl, fe, None, **run)
        assert err.value.step_index == exc.step_index
        return
    got = simulate(p, ctrl, fe, None, **run)
    _assert_columns_close(got, want, 1e-10)
    tripled = simulate(p, ctrl, lambda t: 3.0 * fe(t), None, **run)
    for name in ("x", "v", "x_e", "v_e"):
        a, b = tripled.column(name), got.column(name)
        assert np.max(np.abs(a - 3.0 * b)) <= 1e-12 * np.max(np.abs(a)), name


class TestSimulate:
    def test_zero_excitation_zero_trace(self, gripper):
        from fluidsea.controllers import DOBConfig

        for ctrl in (None, DOBConfig(lam=20.0, m_n=gripper.m)):
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
        from fluidsea.passivity import endpoint_impedance
        from fluidsea.signals import ChirpSpec

        p = gripper_linear
        spec = ChirpSpec(0.3, 0.05, 400.0, 180.0)
        tr = simulate(p, None, spec, None, duration=spec.duration, dt=DT)
        grid = FrequencyGrid(np.logspace(np.log10(0.5), 2, 25))
        frf = estimate_frf(tr.F_e, tr.x_e, DT, grid)
        Z = endpoint_impedance(p, None)
        for w, h, ok in zip(grid.omegas, frf.H, frf.valid):
            assert ok
            want = Z.eval(w)  # Z = F_e/(s X_e) so X_e/F_e = 1/(s Z)
            want_h = 1.0 / (1j * w * want)
            assert abs(h - want_h) / abs(want_h) < 0.02

    def test_divergence_reports_step_index(self, gripper):
        # the stiff delayed PD blows up at the same step with or without hysteresis
        cfg = PDConfig(K_p=2e5, K_d=4e3, delay_samples=1)
        for params in (gripper.without_hysteresis(), gripper):
            with pytest.raises(SimulationDivergedError) as err:
                simulate(
                    params, cfg, SineSpec(0.5, 5.0), None, duration=5.0, dt=DT,
                    initial_state=PlantState(x=1e-3),
                )
            assert err.value.step_index == 6

    def test_divergence_survives_pickling(self):
        err = pickle.loads(pickle.dumps(SimulationDivergedError(5)))
        assert type(err) is SimulationDivergedError
        assert err.step_index == 5
        assert str(err) == str(SimulationDivergedError(5)) == "simulation diverged at step 5"

    @pytest.mark.parametrize("step", [0, 1, 37, 2047, 2048, 3000])
    def test_non_finite_force_reports_its_step(self, gripper, step):
        # NaN from the midpoint stage of `step` on: the steps before it read
        # finite forces only (their last stage is at step * DT at the latest)
        def f_ext(t):
            return math.nan if t > (step + 0.25) * DT else 0.05 * math.sin(3.0 * t)

        with pytest.raises(SimulationDivergedError) as err:
            simulate(gripper, None, f_ext, None, duration=2.0, dt=DT)
        assert err.value.step_index == step


class TestBackdriven:
    def test_matches_impedance_phasors(self, gripper_linear):
        from fluidsea.passivity import endpoint_impedance

        p = gripper_linear
        w = snap_omega(2.0, DT)
        tr = simulate_backdriven(
            p, None, SineMotionSpec(0.3, w), duration=4 * 2 * math.pi / w, dt=DT
        )
        n_per = int(round(2 * math.pi / (w * DT)))
        sl = slice(-n_per, None)
        e = np.exp(-1j * w * tr.t[sl])
        z_meas = np.dot(tr.F_e[sl], e) / np.dot(tr.v_e[sl], e)
        z_want = endpoint_impedance(p, None).eval(w)
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
        back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert back.shape == (len(tr), len(TRACE_COLUMNS))
        np.testing.assert_allclose(back[:, 3], tr.x_e, rtol=1e-8, atol=1e-15)
        np.testing.assert_allclose(back[:, 0], tr.t, rtol=1e-8, atol=1e-15)

    def test_column_lookup(self, gripper):
        tr = simulate(gripper, None, None, None, duration=0.01, dt=DT)
        with pytest.raises(KeyError):
            tr.column("bogus")


def test_dahl_power_overflow_is_a_divergence():
    # abs(g) ** n raises OverflowError for a large exponent, where the guard
    # would see inf; the loop reports it as a divergence at that step
    p = replace(PlantParams.gripper(), n_dahl=98.0)
    with pytest.raises(SimulationDivergedError) as err:
        simulate(p, None, SineSpec(200.0, 900.0), duration=0.1, dt=DT)
    assert err.value.step_index == 1

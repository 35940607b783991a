import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluidsea import sysid
from fluidsea.lti import FrequencyGrid, Polynomial, RationalTF
from fluidsea.plant import simulate
from fluidsea.rng import Xorshift64Star
from fluidsea.signals import ChirpSpec, NyquistViolationError, as_signal
from fluidsea.sysid import (
    FitError,
    FrequencyResponse,
    _next_fast_len,
    default_grid,
    estimate_frf,
    extract_params,
    fit_tf,
    run_sysid,
)

DT = 1.0 / 2000.0


class TestChirp:
    def test_phase_starts_at_zero_and_frequency_sweeps(self):
        # A phase 2 pi f0 tau (exp(t/tau) - 1), tau = T / ln(f1/f0), has the
        # instantaneous frequency f0 (f1/f0)^(t/T); its n-th upward zero
        # crossing falls at t_n = tau ln(1 + n / (f0 tau)).
        f0, f1, T, h = 1.0, 50.0, 10.0, 1e-5
        force = as_signal(ChirpSpec(0.3, f0, f1, T))
        assert force(0.0) == 0.0
        t = np.arange(0.0, T, h)
        y = np.array([force(ti) for ti in t])
        i = np.nonzero((y[:-1] < 0.0) & (y[1:] >= 0.0))[0]
        ups = t[i] - y[i] * h / (y[i + 1] - y[i])  # linear interpolation
        tau = T / np.log(f1 / f0)
        n = np.arange(1, ups.size + 1)
        np.testing.assert_allclose(ups, tau * np.log1p(n / (f0 * tau)), rtol=0, atol=1e-7)
        assert 1.0 / (ups[-1] - ups[-2]) == pytest.approx(f1, rel=0.05)

    def test_zero_amplitude(self):
        force = as_signal(ChirpSpec(0.0, 0.1, 10.0, 5.0))
        assert all(force(i * DT) == 0.0 for i in range(int(round(5.0 / DT))))

    def test_band_ordering_rejected(self):
        with pytest.raises(ValueError):
            ChirpSpec(0.3, 10.0, 10.0, 5.0)

    def test_nyquist_guard(self):
        spec = ChirpSpec(0.3, 0.01, 1000.0, 10.0)
        with pytest.raises(NyquistViolationError):
            spec.validate_sampling(DT)
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            spec.validate_sampling(DT, allow_nyquist=True)
        assert any("Nyquist" in str(x.message) for x in w)

    def test_warning_above_80_percent_nyquist(self):
        spec = ChirpSpec(0.3, 0.01, 900.0, 10.0)
        with pytest.warns(UserWarning):
            spec.validate_sampling(DT)


def _loop_frf(u, y, dt, omegas, max_lag):
    """H as the per-frequency loop computed it before the factored DTFT:
    correlations by a power-of-two FFT of at least 2N points, then one
    complex exponential of length 2 max_lag + 1 per grid frequency."""
    n = u.size
    nfft = 1 << int(np.ceil(np.log2(2 * n)))

    def corr(a, b):
        fa, fb = np.fft.rfft(a, nfft), np.fft.rfft(b, nfft)
        full = np.fft.irfft(fa * np.conj(fb), nfft) / n
        return np.concatenate([full[nfft - max_lag:], full[: max_lag + 1]])

    taus = np.arange(-max_lag, max_lag + 1)
    window = 0.5 * (1.0 + np.cos(np.pi * taus / max_lag))
    wu, wyu = window * corr(u, u), window * corr(y, u)
    tgrid = taus * dt
    H = []
    for w in omegas:
        e = np.exp(-1j * w * tgrid)
        H.append((np.dot(e, wyu) * dt) / (np.real(np.dot(e, wu)) * dt))
    return np.array(H)


def _longdouble_frf(u, y, dt, omegas, max_lag):
    """H from direct correlation sums and a direct DTFT in extended precision."""
    u, y = u.astype(np.longdouble), y.astype(np.longdouble)
    n = u.size
    taus = np.arange(-max_lag, max_lag + 1)

    def corr(a, b):
        return np.array([
            np.dot(a[max(t, 0):n + min(t, 0)], b[max(-t, 0):n - max(t, 0)]) for t in taus
        ]) / n

    pi = 4 * np.arctan(np.longdouble(1))
    window = 0.5 * (1 + np.cos(pi * taus.astype(np.longdouble) / max_lag))
    wu, wyu = window * corr(u, u), window * corr(y, u)
    tgrid = taus.astype(np.longdouble) * np.longdouble(dt)
    H = []
    for w in omegas.astype(np.longdouble):
        e = np.exp(-1j * w * tgrid)
        H.append(np.sum(e * wyu) / np.sum(e * wu).real)
    return np.array(H)


class TestNextFastLen:
    # the FFT length is scipy's, so the spectra do not depend on which picks it
    def test_equals_scipy(self):
        next_fast_len = pytest.importorskip("scipy.fft").next_fast_len
        for n in [*range(1, 2**17 + 1), 270_001]:
            assert _next_fast_len(n) == next_fast_len(n, real=True), n
        assert _next_fast_len(270_001) == 273_375

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 10**8))
    def test_equals_scipy_property(self, n):
        next_fast_len = pytest.importorskip("scipy.fft").next_fast_len
        assert _next_fast_len(n) == next_fast_len(n, real=True)


class TestEstimateFrf:
    def test_identity_system(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(20000)
        grid = FrequencyGrid.log_spaced(1.0, 500.0, 30)
        fr = estimate_frf(u, u.copy(), DT, grid)
        assert np.max(np.abs(fr.H - 1.0)) < 1e-12
        assert np.max(fr.sigma) < 1e-6

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(16000)
        y = np.convolve(u, [0.3, 0.5, 0.2])[: u.size]
        grid = FrequencyGrid.log_spaced(1.0, 300.0, 20)
        max_lag = 1500
        a = estimate_frf(u, y, DT, grid, max_lag=max_lag)
        d = 7
        ud = np.concatenate([np.zeros(d), u])
        yd = np.concatenate([np.zeros(d), y])
        b = estimate_frf(ud, yd, DT, grid, max_lag=max_lag)
        assert np.max(np.abs(a.H - b.H) / np.abs(a.H)) < 1e-9

    def test_matches_analytic_motor_response(self, gripper_linear):
        p = gripper_linear
        spec = ChirpSpec(0.3, 0.05, 400.0, 240.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tr = simulate(p, None, spec, None, duration=spec.duration, dt=DT)
        grid = FrequencyGrid.log_spaced(0.5, 100.0, 30)
        fr = estimate_frf(tr.F_p, tr.x, DT, grid)
        motor = RationalTF(Polynomial([1.0]), Polynomial([p.m, p.b, p.k]))
        for w, h in zip(grid.omegas, fr.H):
            want = motor.eval(w)
            assert abs(abs(h) / abs(want) - 1.0) < 0.02
            dphi = np.angle(h / want)
            assert abs(np.degrees(dphi)) < 2.0

    def test_noise_widens_bands_at_edges(self, gripper_linear):
        p = gripper_linear
        spec = ChirpSpec(0.3, 0.05, 400.0, 120.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tr = simulate(p, None, spec, None, duration=spec.duration, dt=DT)
        rng = Xorshift64Star(99)
        snr_std = np.sqrt(np.mean(tr.x**2)) / 100.0  # 40 dB SNR
        y = tr.x + snr_std * rng.normal_array(tr.x.size)
        grid = FrequencyGrid.log_spaced(1.0, 400.0, 40)
        fr = estimate_frf(tr.F_p, y, DT, grid)
        rel = fr.sigma / np.abs(fr.H)
        mid = np.median(rel[(grid.omegas > 1) & (grid.omegas < 50)])
        edge = np.median(rel[grid.omegas > 150])
        assert edge > 3.0 * mid

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps,
        reason="long double is no wider than double here",
    )
    def test_matches_extended_precision_reference(self):
        rng = np.random.default_rng(1)
        n, max_lag = 8000, 1000
        u = rng.standard_normal(n)
        y = np.convolve(u, [0.3, 0.5, 0.2, -0.1])[:n] + 0.01 * rng.standard_normal(n)
        grid = FrequencyGrid(2 * np.pi * np.logspace(-1, np.log10(999.0), 40))
        want = _longdouble_frf(u, y, DT, grid.omegas, max_lag)

        def rel_err(H):
            return np.abs(H.astype(np.clongdouble) - want) / np.abs(want)

        got = rel_err(estimate_frf(u, y, DT, grid, max_lag=max_lag).H)
        loop = rel_err(_loop_frf(u, y, DT, grid.omegas, max_lag))
        assert np.max(got) <= np.max(loop)
        assert np.sqrt(np.mean(got**2)) <= np.sqrt(np.mean(loop**2))
        assert np.max(got) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            estimate_frf(np.zeros(100), np.zeros(99), DT, FrequencyGrid([1.0]))

    def test_lag_window_of_at_least_one_sample(self):
        # a record of 7 samples gets the default max_lag = 7 // 8 = 0
        with pytest.raises(ValueError, match="max lag"):
            estimate_frf(np.ones(7), np.ones(7), DT, FrequencyGrid([1.0]))
        with pytest.raises(ValueError, match="max lag"):
            estimate_frf(np.ones(100), np.ones(100), DT, FrequencyGrid([1.0]), max_lag=0)


# A 2-zero/4-pole response of the endpoint fit's shape, and its grid.
_ENDPOINT = RationalTF(Polynomial([2.0, 3.0, 4.0]), Polynomial([1e-3, 0.05, 1.2, 0.4, 0.2]))
_ENDPOINT_GRID = FrequencyGrid.log_spaced(0.05, 390.0, 160)


def _perturbed(frf: FrequencyResponse, rel_sigma: float) -> FrequencyResponse:
    """frf with a sigma profile rising with omega, 1e-2 of the median |H| and
    ``rel_sigma`` |H| (1 + omega / 100), and seeded complex noise of that sigma."""
    mag = np.abs(frf.H)
    sigma = 1e-2 * np.median(mag) + rel_sigma * mag * (1.0 + frf.omegas / 100.0)
    rng = np.random.default_rng(3)
    noise = rng.standard_normal(mag.size) + 1j * rng.standard_normal(mag.size)
    return FrequencyResponse(frf.grid, frf.H + sigma * noise / np.sqrt(2.0), sigma)


class TestFitTf:
    def test_exact_model_recovery(self):
        true = _ENDPOINT
        frf = FrequencyResponse.from_tf(true, _ENDPOINT_GRID)
        tf, rep = fit_tf(frf)
        np.testing.assert_allclose(tf.den.coeffs, true.den.coeffs, rtol=1e-6)
        np.testing.assert_allclose(
            tf.num.coeffs, true.num.coeffs / true.den.coeffs[0] * tf.den.coeffs[0],
            rtol=1e-6,
        )
        assert rep.residual < 1e-9

    def test_default_orders_and_band_are_the_endpoint_fit(self):
        frf = _perturbed(FrequencyResponse.from_tf(_ENDPOINT, _ENDPOINT_GRID), 0.05)
        tf, rep = fit_tf(frf)
        tf2, rep2 = fit_tf(frf, 2, 4, (0.0, 400.0))
        assert np.array_equal(tf.num.coeffs, tf2.num.coeffs)
        assert np.array_equal(tf.den.coeffs, tf2.den.coeffs)
        assert rep == rep2

    def test_too_few_points(self):
        grid = FrequencyGrid.log_spaced(1.0, 10.0, 5)
        frf = FrequencyResponse(grid, np.ones(5), np.zeros(5))
        with pytest.raises(FitError):
            fit_tf(frf)

    def test_degenerate_grid_raises(self):
        base = 1.0 + 1e-9 * np.arange(40)
        grid = FrequencyGrid(base)
        frf = FrequencyResponse(grid, np.ones(40) * (1 + 0.5j), np.zeros(40))
        with pytest.raises(FitError):
            fit_tf(frf)

    def test_hysteresis_raises_fit_residual(self, gripper, gripper_linear):
        spec = ChirpSpec(0.3, 0.05, 400.0, 120.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lin = run_sysid(gripper_linear, spec, dt=DT)
            nl = run_sysid(gripper, spec, dt=DT)
        assert nl.whole_report.residual > lin.whole_report.residual


def _analytic_sub_responses(m, b, k, m_e, b_e, k_e, b_s, k_s):
    """Noiseless motor, finger and line responses of the given coefficients."""
    grid = FrequencyGrid.log_spaced(0.1, 390.0, 80)
    return (
        FrequencyResponse.from_tf(RationalTF(Polynomial([1.0]), Polynomial([m, b, k])), grid),
        FrequencyResponse.from_tf(
            RationalTF(Polynomial([1.0]), Polynomial([m_e, b_e, k_e])), grid
        ),
        FrequencyResponse.from_tf(RationalTF(Polynomial([b_s, k_s]), Polynomial([1.0])), grid),
    )


class TestExtractParams:
    def test_exact_analytic_sub_responses(self, gripper_linear):
        p = gripper_linear
        ext = extract_params(*_analytic_sub_responses(
            p.m, p.b, p.k, p.m_e, p.b_e, p.k_e, p.b_s, p.k_s
        ))
        for name in ("m", "b", "k", "m_e", "b_e", "k_e", "b_s", "k_s"):
            assert getattr(ext.params, name) == pytest.approx(
                getattr(p, name), rel=1e-9
            ), name
        assert not ext.flagged

    @pytest.mark.parametrize("name", ["k", "k_e"])
    def test_fit_outside_plant_domain_raises_fit_error(self, gripper_linear, name):
        # a stiffness fitted below zero is a failed fit, not a bad argument
        coeffs = {n: getattr(gripper_linear, n)
                  for n in ("m", "b", "k", "m_e", "b_e", "k_e", "b_s", "k_s")}
        coeffs[name] = -0.01
        with pytest.raises(FitError, match=rf"\b{name} must be >= 0, got -0\.01$"):
            extract_params(*_analytic_sub_responses(**coeffs))

    def test_too_few_points_in_band_raise_fit_error(self, gripper_linear):
        # 0 zeros over 2 poles need 4 (0 + 2) = 8 valid points in 0.1-400 rad/s
        p = gripper_linear
        _, finger, line = _analytic_sub_responses(
            p.m, p.b, p.k, p.m_e, p.b_e, p.k_e, p.b_s, p.k_s
        )
        grid = FrequencyGrid.log_spaced(1.0, 100.0, 5)
        motor = FrequencyResponse.from_tf(
            RationalTF(Polynomial([1.0]), Polynomial([p.m, p.b, p.k])), grid
        )
        with pytest.raises(FitError, match=r"only 5 valid points in band, need >= 8"):
            extract_params(motor, finger, line)

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_sigma_scale_leaves_the_fits_unchanged(self, gripper_linear, factor):
        # The weights are 1/sigma^2: a common factor on every sigma leaves
        # the least-squares solutions as they are, while the profile above
        # the 1e-3 median |H| floor still shapes them.
        p = gripper_linear
        frfs = [_perturbed(f, 0.02) for f in _analytic_sub_responses(
            p.m, p.b, p.k, p.m_e, p.b_e, p.k_e, p.b_s, p.k_s
        )]
        frfs.append(_perturbed(FrequencyResponse.from_tf(_ENDPOINT, _ENDPOINT_GRID), 0.02))

        def scaled(f):
            assert np.min(factor * f.sigma) > 1e-3 * np.median(np.abs(f.H))
            return FrequencyResponse(f.grid, f.H, factor * f.sigma)

        base = extract_params(*frfs[:3])
        other = extract_params(*(scaled(f) for f in frfs[:3]))
        names = ("m", "b", "k", "m_e", "b_e", "k_e", "b_s", "k_s")
        want = [getattr(base.params, n) for n in names]
        got = [getattr(other.params, n) for n in names]
        np.testing.assert_allclose(got, want, rtol=1e-9)
        assert max(abs(w / getattr(p, n) - 1.0) for w, n in zip(want, names)) > 1e-4
        tf, _ = fit_tf(frfs[3])
        tf2, _ = fit_tf(scaled(frfs[3]))
        np.testing.assert_allclose(tf2.num.coeffs, tf.num.coeffs, rtol=1e-9)
        np.testing.assert_allclose(tf2.den.coeffs, tf.den.coeffs, rtol=1e-9)

    def test_roundtrip_on_simulated_record(self, gripper_linear):
        p = gripper_linear
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = run_sysid(p, ChirpSpec(0.3, 0.01, 1000.0, 120.0), dt=DT)
        for name in ("m", "k", "k_s", "m_e", "k_e"):
            assert getattr(res.extraction.params, name) == pytest.approx(
                getattr(p, name), rel=0.05
            ), name
        for name in ("b", "b_e", "b_s"):
            assert getattr(res.extraction.params, name) == pytest.approx(
                getattr(p, name), rel=0.10
            ), name
        assert not res.extraction.flagged

    def test_noisy_records_give_unbiased_motor_and_finger(self, gripper_linear):
        # Derandomized Monte Carlo on the bench chirp at noise_std 2.9e-3. An
        # equation-error fit, with the measured H in its regressors, is biased
        # by the noise in H (m about 12 % and k about 17 % low at this level);
        # the output-error fit must hold 1 % on every seed. The line's b_s and
        # k_s are left out: its input x_e - x carries a bias of its own.
        p = gripper_linear
        spec = ChirpSpec(0.3, 0.01, 1000.0, 120.0)
        names = ("m", "b", "k", "m_e", "b_e", "k_e")
        errs = []
        for seed in (1, 2, 3, 4):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                q = run_sysid(p, spec, dt=5e-4, noise_std=2.9e-3,
                              rng=Xorshift64Star(seed)).extraction.params
            errs.append([getattr(q, n) / getattr(p, n) - 1.0 for n in names])
        worst = dict(zip(names, np.max(np.abs(errs), axis=0)))
        assert max(worst.values()) < 0.01, worst

    def test_hysteresis_inflates_endpoint_fit_residual(self, gripper, gripper_linear):
        # the hysteresis element lives at the endpoint, so the finger fit
        # degrades and flags the set; the line model is linear by design and
        # its fit stays clean
        spec = ChirpSpec(0.3, 0.05, 400.0, 120.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lin = run_sysid(gripper_linear, spec, dt=DT)
            nl = run_sysid(gripper, spec, dt=DT)
        assert nl.extraction.finger.residual > 10.0 * lin.extraction.finger.residual
        assert nl.extraction.flagged and not lin.extraction.flagged
        assert nl.extraction.line.residual < 1e-3

    def test_csv_format(self, gripper_linear, tmp_path):
        grid = FrequencyGrid.log_spaced(0.1, 10.0, 12)
        fr = FrequencyResponse.from_tf(
            RationalTF(Polynomial([1.0]), Polynomial([1.0, 1.0])), grid
        )
        out = tmp_path / "frf.csv"
        fr.to_csv(out)
        header = open(out).readline().strip()
        assert header == "omega_rad_s,re,im,mag_db,phase_deg,sigma_mag"
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape == (12, 6)


class TestRunSysid:
    SPEC = ChirpSpec(0.3, 0.05, 400.0, 20.0)
    NOISE = 1e-6

    def test_noise_without_generator_raises_before_simulating(self, gripper_linear, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulate ran before the generator was checked")

        monkeypatch.setattr(sysid, "simulate", no_simulation)
        with pytest.raises(ValueError, match="requires a generator"):
            run_sysid(gripper_linear, self.SPEC, dt=DT, noise_std=self.NOISE, rng=None)

    def test_equals_its_parts_byte_for_byte(self, gripper_linear):
        # the pipeline, rebuilt from its public parts: simulate, the noise
        # drawn in the order x, x_e, F_p, F_e, four spectra and the fits
        spec = ChirpSpec(0.3, 0.05, 400.0, 10.0)
        got = run_sysid(gripper_linear, spec, dt=DT, noise_std=self.NOISE, rng=Xorshift64Star(5))

        trace = simulate(gripper_linear, None, spec, None, duration=spec.duration, dt=DT)
        rng = Xorshift64Star(5)
        x = trace.x + self.NOISE * rng.normal_array(len(trace))
        x_e = trace.x_e + self.NOISE * rng.normal_array(len(trace))
        f_p = trace.F_p + self.NOISE * rng.normal_array(len(trace))
        f_e = trace.F_e + self.NOISE * rng.normal_array(len(trace))
        grid = default_grid()
        want = [
            estimate_frf(f_p, x, DT, grid),
            estimate_frf(f_e - f_p, x_e, DT, grid),
            estimate_frf(x_e - x, f_p, DT, grid),
            estimate_frf(f_e, x_e, DT, grid),
        ]
        frfs = [got.motor_frf, got.finger_frf, got.line_frf, got.endpoint_frf]
        for a, b in zip(frfs, want):
            for name in ("H", "sigma", "valid"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name

        extraction = extract_params(*want[:3])
        for name in ("motor", "finger", "line"):
            assert np.array_equal(
                getattr(got.extraction, name).coeffs, getattr(extraction, name).coeffs
            ), name
        whole, _ = fit_tf(want[3])
        assert np.array_equal(got.whole_fit.num.coeffs, whole.num.coeffs)
        assert np.array_equal(got.whole_fit.den.coeffs, whole.den.coeffs)

    def test_peak_heap_drops_the_trace_before_the_spectra(self, gripper_linear):
        # The trace is dropped before the noise and the spectra, and each
        # spectrum product lives only for its own transform. A pipeline that
        # keeps the trace through the spectra peaks near 27.5 record lengths
        # (8 n bytes) here; this one near 15.4, set by the simulation's own
        # record and its sampled-force blocks.
        n = round(self.SPEC.duration / DT)

        def run():
            run_sysid(gripper_linear, self.SPEC, dt=DT, noise_std=self.NOISE,
                      rng=Xorshift64Star(7))

        run()  # warm-up: first-call caches are not the pipeline's record
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 18 * 8 * n, f"peak heap {peak / (8 * n):.1f} record lengths"

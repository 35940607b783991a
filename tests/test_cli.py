import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluidsea.cli import main
from fluidsea.controllers import CompositeConfig
from fluidsea.experiments import (
    ArtifactWriter,
    ConfigError,
    parse_config,
    preset_config,
    presets,
    run_experiment,
    run_preset,
    serialize_config,
)

WORKLOOP_CFG = """
[controller]
type = composite
lambda_hz = 20

[analysis]
type = workloop
backdrive_cycles = 4
fit_dahl = true
"""

PASSIVITY_CFG = """
[controller]
type = dob
lambda = 20

[analysis]
type = passivity
"""


class TestConfigParsing:
    def test_defaults(self):
        cfg = parse_config("")
        assert cfg.plant.m == pytest.approx(1.1116e-3)
        assert cfg.controller is None
        assert cfg.analysis.kind == "simulate"

    def test_round_trip(self):
        cfg = parse_config(WORKLOOP_CFG)
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_round_trip_all_controllers(self):
        for block in (
            "type = none",
            "type = proportional\nK_f = 0.7\nsource = external",
            "type = dob\nlambda = 30\nm_n = 1e-3\nb_n = 1e-4\nk_n = 0.01",
            "type = pd\nK_p = 50\nK_d = 1\ndelay_samples = 1",
            "type = composite\nlambda = 20\nff_dahl = false",
        ):
            text = f"[controller]\n{block}\n\n[analysis]\ntype = simulate\n"
            cfg = parse_config(text)
            assert parse_config(serialize_config(cfg)) == cfg

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="banana"):
            parse_config("[plant]\nbanana = 1\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="motor"):
            parse_config("[motor]\nm = 1\n")

    def test_bad_number_named(self):
        with pytest.raises(ConfigError, match="m"):
            parse_config("[plant]\nm = fast\n")

    def test_lambda_units_exclusive(self):
        with pytest.raises(ConfigError, match="lambda"):
            parse_config("[controller]\ntype = dob\nlambda = 20\nlambda_hz = 20\n")

    def test_lambda_hz_converted(self):
        cfg = parse_config("[controller]\ntype = dob\nlambda_hz = 20\n")
        assert cfg.controller.lam == pytest.approx(2 * np.pi * 20.0)

    def test_invalid_plant_value(self):
        with pytest.raises(ConfigError, match="plant"):
            parse_config("[plant]\nm = -1\n")

    def test_dt_domain(self):
        with pytest.raises(ConfigError, match="dt"):
            parse_config("[run]\ndt = 0.5\n")


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


@st.composite
def config_texts(draw):
    """INI text over every section; optional keys are left out at random."""
    pos, nonneg, real = _floats(1e-4, 1e3), _floats(0.0, 1e3), _floats(-1e3, 1e3)
    sections = {"plant": {}, "controller": {}, "excitation": {}, "analysis": {}, "run": {}}

    def maybe(section, **keys):
        for key, strategy in keys.items():
            if draw(st.booleans()):
                sections[section][key] = draw(strategy)

    maybe("plant", m=pos, b=nonneg, k=nonneg, m_e=pos, b_e=nonneg, k_e=nonneg,
          b_s=nonneg, k_s=pos, F_c=nonneg, sigma=nonneg, n_dahl=pos)
    ctrl = sections["controller"]
    ctrl["type"] = draw(st.sampled_from(["none", "proportional", "dob", "pd", "composite"]))
    if ctrl["type"] == "proportional":
        ctrl["K_f"] = draw(real)
        maybe("controller", source=st.sampled_from(["internal", "external"]))
    elif ctrl["type"] == "pd":
        ctrl["K_p"], ctrl["K_d"] = draw(nonneg), draw(nonneg)
        maybe("controller", x_target=real, delay_samples=st.integers(0, 3).map(str))
    elif ctrl["type"] in ("dob", "composite"):
        maybe("controller", **{draw(st.sampled_from(["lambda", "lambda_hz"])): pos})
        maybe("controller", m_n=pos, b_n=nonneg, k_n=nonneg)
    if ctrl["type"] == "composite":
        maybe("controller", ff_b_e=nonneg, ff_k_e=nonneg, ff_b_s=nonneg, ff_k_s=pos,
              ff_dahl=st.sampled_from(["true", "false"]))
        if ctrl.get("ff_dahl") == "true":
            maybe("controller", ff_F_c=pos, ff_sigma=pos)
    exc = sections["excitation"]
    exc["type"] = draw(st.sampled_from(["none", "chirp", "sine", "constant"]))
    if exc["type"] == "chirp":
        f0 = draw(st.floats(1e-3, 10.0))
        exc["f0"], exc["f1"] = repr(f0), repr(f0 * draw(st.floats(1.5, 1e3)))
        maybe("excitation", amplitude=real, duration=pos)
    elif exc["type"] == "sine":
        exc["amplitude"], exc["omega"] = draw(real), draw(pos)
    elif exc["type"] == "constant":
        exc["value"] = draw(real)
    maybe("excitation", noise_std=nonneg)
    grid_min = draw(st.floats(1e-3, 10.0))
    sections["analysis"].update(grid_min=repr(grid_min), grid_max=repr(grid_min * 10.0))
    maybe("analysis", type=st.sampled_from(["simulate", "sysid", "impedance", "workloop",
                                            "zwidth", "passivity"]),
          grid_points=st.integers(1, 200).map(str), force_amplitude=pos,
          method=st.sampled_from(["measured", "closed_form"]),
          include_motor_port=st.sampled_from(["true", "false"]),
          fit_dahl=st.sampled_from(["yes", "no"]), backdrive_omega=pos,
          backdrive_amplitude=pos, backdrive_cycles=st.integers(4, 10).map(str))
    maybe("run", duration=pos, dt=_floats(1e-6, 1e-2), seed=st.integers(0, 2**32).map(str),
          output_dir=st.text("abcXYZ019_-./%", min_size=1, max_size=12),
          allow_nyquist=st.sampled_from(["on", "off"]))
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
        for name, keys in sections.items()
    )


@settings(max_examples=300, deadline=None)
@given(config_texts())
def test_parse_serialize_round_trip(text):
    cfg = parse_config(text)
    assert parse_config(serialize_config(cfg)) == cfg


class TestPresets:
    def test_seven_presets(self):
        names = presets()
        assert len(names) == 7
        assert set(names) == {
            "fig3-chirp", "fig4-sysid", "fig5-ff-compare", "fig6a-workloop",
            "fig6b-feedforward", "fig6c-zwidth", "fig7-dahl-fit",
        }

    def test_configs_build(self):
        for name in presets():
            cfg = preset_config(name)
            assert cfg.analysis.kind in (
                "simulate", "sysid", "impedance", "workloop", "zwidth"
            )

    def test_feedforward_presets_use_hz_reading(self):
        cfg = preset_config("fig6b-feedforward")
        assert isinstance(cfg.controller, CompositeConfig)
        assert cfg.controller.dob.lam == pytest.approx(2 * np.pi * 20.0)
        zcfg = preset_config("fig6c-zwidth")
        assert zcfg.controller.dob.lam == pytest.approx(20.0)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset_config("fig9-nope")

    def test_fig5_preset_runs(self, tmp_path):
        files = run_preset("fig5-ff-compare", str(tmp_path))
        assert "impedance_passive.csv" in files
        assert "impedance_internal.csv" in files
        assert "impedance_external.csv" in files
        assert "manifest.txt" in files
        data = np.loadtxt(tmp_path / "impedance_internal.csv", delimiter=",", skiprows=1)
        assert data.shape[1] == 3

    def test_fig7_preset_runs(self, tmp_path):
        files = run_preset("fig7-dahl-fit", str(tmp_path))
        assert "loop_external.csv" in files
        report = open(tmp_path / "workloop_report.txt").read()
        assert "dahl fit" in report
        assert "0.032" in report and "12.8" in report


class TestRunExperiment:
    def test_manifest_hashes(self, tmp_path):
        cfg = parse_config(PASSIVITY_CFG)
        files = run_experiment(cfg, str(tmp_path))
        manifest = {}
        for line in open(tmp_path / "manifest.txt"):
            digest, name = line.strip().split("  ", 1)
            manifest[name] = digest
        for name in files:
            if name == "manifest.txt":
                continue
            digest = hashlib.sha256(open(tmp_path / name, "rb").read()).hexdigest()
            assert manifest[name] == digest

    def test_deterministic_outputs(self, tmp_path):
        cfg = parse_config(WORKLOOP_CFG)
        run_experiment(cfg, str(tmp_path / "a"))
        run_experiment(cfg, str(tmp_path / "b"))
        for name in ("loop_external.csv", "workloop_report.txt", "manifest.txt"):
            assert (
                open(tmp_path / "a" / name, "rb").read()
                == open(tmp_path / "b" / name, "rb").read()
            )

    def test_failed_write_leaves_no_tmp(self, tmp_path):
        art = ArtifactWriter(str(tmp_path))

        def writer(path):
            with open(path, "w") as fh:
                fh.write("partial")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            art.write("trace.csv", writer)
        assert list(tmp_path.iterdir()) == []
        assert art.files == []

    def test_noise_is_seeded(self, tmp_path):
        text = """
[excitation]
type = chirp
amplitude = 0.3
f0 = 0.05
f1 = 400
duration = 60
noise_std = 1e-5

[analysis]
type = sysid

[run]
seed = 7
"""
        import warnings

        cfg = parse_config(text)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_experiment(cfg, str(tmp_path / "a"))
            run_experiment(cfg, str(tmp_path / "b"))
        assert (
            open(tmp_path / "a" / "frf_motor.csv", "rb").read()
            == open(tmp_path / "b" / "frf_motor.csv", "rb").read()
        )


class TestCli:
    def test_passivity_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(PASSIVITY_CFG)
        rc = main(["passivity", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "passivity_report.txt").exists()

    def test_command_analysis_mismatch(self, tmp_path):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(PASSIVITY_CFG)
        rc = main(["simulate", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_validation_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text("[plant]\nbanana = 1\n")
        rc = main(["simulate", str(cfg_path)])
        assert rc == 2
        assert "banana" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(
            """
[controller]
type = pd
K_p = 2e5
K_d = 4e3
delay_samples = 1

[excitation]
type = sine
amplitude = 0.5
omega = 5

[plant]
m = 1.1116e-3
b = 0

[analysis]
type = simulate

[run]
duration = 5
"""
        )
        out = tmp_path / "out"
        rc = main(["simulate", str(cfg_path), "--out", str(out)])
        assert rc == 3
        assert (out / "manifest.txt").exists()  # partial manifest

    @pytest.mark.parametrize(
        "text, key",
        [
            ("[analysis]\ngrid_points = abc\n", "grid_points"),
            ("[run]\nseed = x\n", "seed"),
            ("[analysis]\nfit_dahl = maybe\n", "fit_dahl"),
            ("[run]\nallow_nyquist = sure\n", "allow_nyquist"),
            ("[controller]\ntype = pd\nK_p = 1\n", "K_d"),
            ("[plant]\nm = nan\n", "m"),
            ("[run]\nduration = inf\n", "duration"),
            ("[excitation]\ntype = chirp\nnoise_std = -1e-5\n", "noise_std"),
            ("[controller]\ntype = dob\nK_p = 50\n", "K_p"),
            ("[excitation]\ntype = constant\nvalue = 0.1\nomega = 3\n", "omega"),
            ("[controller]\ntype = composite\nff_dahl = no\nff_F_c = 0.03\n", "ff_F_c"),
            ("[analysis]\nbackdrive_cycles = 3\n", "backdrive_cycles"),
            ("[analysis]\nbackdrive_omega = 0\n", "backdrive_omega"),
        ],
    )
    def test_malformed_value_exit_code(self, tmp_path, capsys, text, key):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(text)
        assert main(["simulate", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        section = text[1:text.index("]")]
        assert re.search(rf"\b{key}\b", err)
        assert err.count(f"[{section}]") == 1

    @pytest.mark.parametrize(
        "command, option, value",
        [
            (["passivity", "{cfg}"], "--dt", "0"),
            (["passivity", "{cfg}"], "--dt", "0.5"),
            (["preset", "fig5-ff-compare"], "--dt", "0"),
            (["passivity", "{cfg}"], "--lambda", "0"),
        ],
    )
    def test_override_out_of_range_exit_code(self, tmp_path, capsys, command, option, value):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(PASSIVITY_CFG)
        argv = [a.format(cfg=cfg_path) for a in command]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out), option, value]) == 2
        assert f"{option} must" in capsys.readouterr().err
        assert not out.exists()

    def test_workloop_command(self, tmp_path):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text("[controller]\ntype = dob\n\n[analysis]\ntype = workloop\n")
        out = tmp_path / "wl"
        assert main(["workloop", str(cfg_path), "--out", str(out)]) == 0
        report = (out / "workloop_report.txt").read_text().splitlines()
        assert report[0].startswith("external loop: amplitude")
        assert report[1].startswith("internal loop: amplitude")

    def test_missing_config_file(self, tmp_path):
        rc = main(["simulate", str(tmp_path / "nope.ini")])
        assert rc == 2

    def test_lambda_override(self, tmp_path):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(PASSIVITY_CFG)
        rc = main(
            ["passivity", str(cfg_path), "--out", str(tmp_path / "o"), "--lambda", "40"]
        )
        assert rc == 0
        assert "lambda 40.0" in open(tmp_path / "o" / "passivity_report.txt").read()

    def test_presets_listing(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "fig6c-zwidth" in out and out.count("fig") == 7

    def test_zwidth_command_small_grid(self, gripper, tmp_path):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(
            """
[controller]
type = composite
lambda = 20

[analysis]
type = zwidth
grid_min = 3
grid_max = 10
grid_points = 2
"""
        )
        out = tmp_path / "zw"
        rc = main(["zwidth", str(cfg_path), "--out", str(out)])
        assert rc == 0
        data = np.loadtxt(out / "zwidth.csv", delimiter=",", skiprows=1)
        assert data.shape == (2, 4)
        assert np.all(data[:, 3] > 20.0)  # healthy width on both points

import ast
import contextlib
import dataclasses
import hashlib
import io
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fluidsea
from fluidsea.cli import main
from fluidsea.controllers import (
    CompositeConfig,
    DOBConfig,
    FeedforwardConfig,
    PDConfig,
    ProportionalFFConfig,
)
from fluidsea.experiments import (
    _SECTIONS,
    ArtifactWriter,
    ConfigError,
    ExperimentConfig,
    parse_config,
    preset_config,
    presets,
    run_experiment,
    run_preset,
)
from fluidsea.lti import FrequencyGrid, Polynomial, RootSolveError
from fluidsea.passivity import endpoint_impedance
from fluidsea.plant import PlantParams
from fluidsea.sysid import FrequencyResponse

from conftest import spy_simulate

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

    def test_workloop_config_builds(self):
        cfg = parse_config(WORKLOOP_CFG)
        assert isinstance(cfg.controller, CompositeConfig)
        assert cfg.controller.dob.lam == pytest.approx(2 * np.pi * 20.0)
        assert cfg.analysis.kind == "workloop"
        assert cfg.analysis.backdrive_cycles == 4 and cfg.analysis.fit_dahl is True

    def test_each_controller_block_builds_its_config(self):
        g = PlantParams.gripper()
        for block, want in (
            ("type = none", None),
            ("type = proportional\nK_f = 0.7\nsource = external",
             ProportionalFFConfig(0.7, "external")),
            ("type = dob\nlambda = 30\nm_n = 1e-3\nb_n = 1e-4\nk_n = 0.01",
             DOBConfig(lam=30.0, m_n=1e-3, b_n=1e-4, k_n=0.01)),
            ("type = pd\nK_p = 50\nK_d = 1\ndelay_samples = 1",
             PDConfig(K_p=50.0, K_d=1.0, delay_samples=1)),
            ("type = composite\nlambda = 20\nff_dahl = false",
             CompositeConfig(DOBConfig(lam=20.0, m_n=g.m),
                             FeedforwardConfig(g.b_e, g.k_e, g.b_s, g.k_s))),
        ):
            text = f"[controller]\n{block}\n\n[analysis]\ntype = simulate\n"
            assert parse_config(text).controller == want

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

    def test_table_defaults_do_not_restate_a_field(self):
        # a key without a table default leaves its field's own default; the
        # [plant] defaults are the gripper's values, not restated field defaults
        restated = set()

        def walk(section, group):
            cls = ExperimentConfig if group.cls is dict else group.cls
            own = {f.name: f.default for f in dataclasses.fields(cls)} if group.keys else {}
            for name, key in group.keys.items():
                attr = key.attr or name
                if not callable(key.default) and attr in own and key.default == own[attr]:
                    restated.add(f"[{section}] {name}")
                for part in key.kind.values() if isinstance(key.kind, dict) else ():
                    walk(section, part)
            for part in group.parts.values():
                walk(section, part)

        for section, group in _SECTIONS.items():
            if section != "plant":
                walk(section, group)
        assert restated == set()

    def test_readme_example_parses(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = re.findall(r"```ini\n(.*?)```", readme, re.S)
        assert len(blocks) == 1
        cfg = parse_config(blocks[0])
        assert isinstance(cfg.controller, CompositeConfig)
        assert cfg.analysis.kind == "sysid"


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


@st.composite
def config_texts(draw, bounded=False):
    """INI text over every section; optional keys are left out at random.

    ``bounded`` caps what running the config costs: a grid from 3 rad/s of
    at most 3 points, a run of at most 2 s, a chirp of at most 4 s, a dt of
    at least 5e-4 s and a backdrive at 3 rad/s or faster.
    """
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
        maybe("controller", ff_b_e=nonneg, ff_k_e=nonneg, ff_b_s=pos, ff_k_s=pos,
              ff_dahl=st.sampled_from(["true", "false"]))
        if "ff_b_s" not in ctrl and float(sections["plant"].get("b_s", 1.0)) == 0.0:
            ctrl["ff_b_s"] = draw(pos)  # the feedforward needs b_s > 0
        if ctrl.get("ff_dahl") == "true":
            maybe("controller", ff_F_c=pos, ff_sigma=pos)
    exc = sections["excitation"]
    exc["type"] = draw(st.sampled_from(["none", "chirp", "sine", "constant"]))
    if exc["type"] == "chirp":
        f0 = draw(st.floats(1e-3, 10.0))
        exc["f0"], exc["f1"] = repr(f0), repr(f0 * draw(st.floats(1.5, 1e3)))
        maybe("excitation", amplitude=real)
        if bounded:
            exc["duration"] = draw(_floats(1e-3, 4.0))
        else:
            maybe("excitation", duration=pos)
    elif exc["type"] == "sine":
        exc["amplitude"], exc["omega"] = draw(real), draw(pos)
    elif exc["type"] == "constant":
        exc["value"] = draw(real)
    maybe("excitation", noise_std=nonneg)
    grid_min = draw(st.floats(3.0 if bounded else 1e-3, 10.0))
    sections["analysis"].update(grid_min=repr(grid_min), grid_max=repr(grid_min * 10.0))
    kinds = st.sampled_from(["simulate", "sysid", "impedance", "workloop", "zwidth", "passivity"])
    if bounded:
        sections["analysis"].update(type=draw(kinds), grid_points=str(draw(st.integers(1, 3))),
                                    backdrive_omega=draw(_floats(3.0, 1e3)))
    else:
        maybe("analysis", type=kinds, grid_points=st.integers(1, 200).map(str),
              backdrive_omega=pos)
    maybe("analysis", force_amplitude=pos, method=st.sampled_from(["measured", "closed_form"]),
          include_motor_port=st.sampled_from(["true", "false"]),
          fit_dahl=st.sampled_from(["yes", "no"]),
          backdrive_amplitude=pos, backdrive_cycles=st.integers(4, 10).map(str))
    maybe("run", duration=_floats(1e-4, 2.0) if bounded else pos,
          dt=_floats(5e-4 if bounded else 1e-6, 1e-2), seed=st.integers(0, 2**32).map(str),
          output_dir=st.text("abcXYZ019_-./%", min_size=1, max_size=12),
          allow_nyquist=st.sampled_from(["on", "off"]))
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
        for name, keys in sections.items()
    )


@settings(max_examples=300, deadline=None)
@given(config_texts())
def test_drawn_configs_parse(text):
    assert isinstance(parse_config(text), ExperimentConfig)


# An observer whose k_n puts a pole within roundoff of the origin.
TINY_K_N_CFG = """
[controller]
type = dob
lambda = 1
m_n = 0.005
k_n = 1e-100

[analysis]
type = passivity
"""


# An undamped plant whose endpoint impedance has a pole at the grid's one
# point, omega = 1 rad/s: the closed form writes the point as invalid.
POLE_ON_GRID_CFG = """
[plant]
m = 1
b = 0
k = 0
b_e = 0
b_s = 0
k_s = 1

[analysis]
type = impedance
method = closed_form
grid_min = 1
grid_max = 10
grid_points = 1
"""


@settings(max_examples=80, deadline=None, derandomize=True)
@example(TINY_K_N_CFG)
@example(POLE_ON_GRID_CFG)
@given(config_texts(bounded=True))
def test_drawn_configs_run_from_the_cli(text):
    # every config runs, or exits 2 naming a section or key, or exits 3 on
    # a numerical failure; no other exception escapes main
    try:
        kind = parse_config(text).analysis.kind
    except ConfigError:
        kind = "simulate"
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as d, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # invalid sweep points warn
        path = os.path.join(d, "exp.ini")
        with open(path, "w") as f:
            f.write(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([kind, path, "--out", os.path.join(d, "out")])
    assert rc in (0, 2, 3), err.getvalue()
    if rc == 2:
        assert re.search(r"\[(plant|controller|excitation|analysis|run)\] ", err.getvalue())


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
        assert "lower bound" not in report


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

    def test_boundary_dahl_fit_flagged(self, tmp_path):
        # the composite with the Dahl estimate leaves a loop the model does
        # not describe: its fit ends on sigma's lower bound
        run_experiment(parse_config(WORKLOOP_CFG), str(tmp_path))
        report = (tmp_path / "workloop_report.txt").read_text().splitlines()
        assert "sigma 1.000000e-09 Nm/rad" in report[2]
        assert report[3] == ("dahl fit: sigma 1.0e-09 Nm/rad is its lower bound; "
                             "the Dahl model does not describe this loop")
        assert report[4].startswith("reference values")

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
            ("[analysis]\nbackdrive_amplitude = 0\n", "backdrive_amplitude"),
            ("[analysis]\ntype = impedance\nforce_amplitude = 0\n", "force_amplitude"),
            ("[controller]\ntype = composite\nff_b_s = 0\n", "ff_b_s"),
            ("[controller]\ntype = composite\n\n[plant]\nb_s = 0\n", "ff_b_s"),
            ("[excitation]\ntype = chirp\nf1 = 100\nduration = 0.003\n\n[analysis]\ntype = sysid\n",
             "duration"),
            # grids whose points snap to one whole-sample period at dt = 0.01
            ("[analysis]\ntype = impedance\ngrid_min = 50\ngrid_max = 100\ngrid_points = 30\n"
             "\n[run]\ndt = 0.01\n", "grid_points"),
            ("[analysis]\ntype = zwidth\ngrid_min = 50\ngrid_max = 100\ngrid_points = 30\n"
             "\n[run]\ndt = 0.01\n", "grid_max"),
            # runs shorter than one step
            ("[run]\nduration = 0.0001\n", "duration"),
            ("[excitation]\ntype = chirp\nf1 = 100\nduration = 0.0001\n", "duration"),
            # a chirp reaching Nyquist at the default dt, with the guard on
            ("[excitation]\ntype = chirp\nf1 = 1000\n\n[run]\nallow_nyquist = false\n", "f1"),
            ("[excitation]\ntype = chirp\nf1 = 1000\n\n[analysis]\ntype = sysid\n"
             "\n[run]\nallow_nyquist = false\n", "f1"),
            # a delay has no rational closed form
            ("[controller]\ntype = pd\nK_p = 1\nK_d = 0.1\ndelay_samples = 1\n"
             "\n[analysis]\ntype = impedance\nmethod = closed_form\n", "delay_samples"),
        ],
    )
    def test_malformed_value_exit_code(self, tmp_path, capsys, text, key):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(text)
        # the subcommand is the config's [analysis] type, as the CLI requires
        command = re.search(r"\[analysis\]\ntype = (\w+)", text)
        command = command.group(1) if command else "simulate"
        assert main([command, str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        section = text[1:text.index("]")]
        assert re.search(rf"\b{key}\b", err)
        assert err.count(f"[{section}]") == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[controller]\ntype = pd\nK_p = -1\nK_d = 1\n", "K_p must be >= 0, got -1"),
            ("[controller]\ntype = composite\nff_k_e = -1\n", "ff_k_e must be >= 0, got -1"),
            ("[controller]\ntype = composite\nff_F_c = -1\n", "ff_F_c must be > 0, got -1"),
            ("[controller]\ntype = composite\nff_k_s = 0\n", "ff_k_s must be > 0, got 0"),
            ("[controller]\ntype = dob\nlambda = -3\n", "lambda must be > 0, got -3"),
            # the key and the value as the file wrote them, not the rad/s field
            ("[controller]\ntype = dob\nlambda_hz = -3\n", "lambda_hz must be > 0, got -3"),
            ("[controller]\ntype = pd\nK_p = 1\n", "missing required key 'K_d'"),
            ("[run]\nduration = -1\n", "duration must be > 0, got -1"),  # a table's own check
            ("[analysis]\ngrid_points = 0\n", "grid_points must be >= 1, got 0"),
            # a type takes only its listed choices
            ("[analysis]\ntype = passivity-report\n", "type must be one of simulate, sysid, "
             "impedance, workloop, zwidth, passivity, got 'passivity-report'"),
            ("[controller]\ntype = proportional_ff\n", "type must be one of none, proportional, "
             "dob, pd, composite, got 'proportional_ff'"),
        ],
    )
    def test_rejected_value_names_its_key(self, tmp_path, capsys, text, message):
        # a dataclass's own check names its field; the reader names the key it came from
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(text)
        assert main(["simulate", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert f"{text[:text.index(']') + 1]} {message}" in capsys.readouterr().err

    def test_sysid_warns_about_nyquist_once(self, tmp_path):
        # f1 = 1000 Hz is above 80 % of the 1000 Hz Nyquist frequency at the default dt
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(
            "[excitation]\ntype = chirp\nf1 = 1000\nduration = 2\n\n[analysis]\ntype = sysid\n"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["sysid", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        assert sum("Nyquist" in str(w.message) for w in caught) == 1

    def test_duration_checked_after_dt_override(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text("[run]\nduration = 0.004\n")  # 8 steps at the default dt
        out = tmp_path / "out"
        assert main(["simulate", str(cfg_path), "--out", str(out), "--dt", "0.01"]) == 2
        assert "[run] duration" in capsys.readouterr().err

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

    def test_noisy_sysid_manifest_repeats(self, tmp_path):
        text = (
            "[excitation]\ntype = chirp\nf0 = 0.5\nf1 = 400\nduration = 10\nnoise_std = 1e-4\n"
            "\n[analysis]\ntype = sysid\n\n[run]\nseed = {seed}\n"
        )
        manifests = []
        for run, seed in (("a", 7), ("b", 7), ("c", 8)):
            cfg_path = tmp_path / f"{run}.ini"
            cfg_path.write_text(text.format(seed=seed))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert main(["sysid", str(cfg_path), "--out", str(tmp_path / run)]) == 0
            manifests.append((tmp_path / run / "manifest.txt").read_bytes())
        assert manifests[0] == manifests[1]
        assert manifests[0] != manifests[2]

    def test_workloop_command(self, tmp_path):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text("[controller]\ntype = dob\n\n[analysis]\ntype = workloop\n")
        out = tmp_path / "wl"
        assert main(["workloop", str(cfg_path), "--out", str(out)]) == 0
        report = (out / "workloop_report.txt").read_text().splitlines()
        assert report[0].startswith("external loop: amplitude")
        assert report[1].startswith("internal loop: amplitude")

    @pytest.mark.parametrize("cycles, rc", [(8, 0), (4, 3)])
    def test_fast_workloop_closes_when_settled(self, tmp_path, capsys, cycles, rc):
        # 157 samples per period at 80 rad/s: after 7 cycles F recurs to 2e-5 of
        # its range, after 3 it still drifts by 1.9 %, which the check rejects
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(
            f"[analysis]\ntype = workloop\nbackdrive_omega = 80\nbackdrive_cycles = {cycles}\n"
        )
        assert main(["workloop", str(cfg_path), "--out", str(tmp_path / "wl")]) == rc
        assert ("cycle does not close" in capsys.readouterr().err) == (rc == 3)

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

    def test_passive_impedance_sweeps_once(self, tmp_path, monkeypatch):
        # without a [controller] the configured sweep is the passive one
        calls = spy_simulate(monkeypatch, tmp_path)
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text("[analysis]\ntype = impedance\ngrid_min = 3\ngrid_max = 10\n"
                            "grid_points = 2\n")
        out = tmp_path / "imp"
        assert main(["impedance", str(cfg_path), "--out", str(out)]) == 0
        assert len(calls()) == 2
        assert (out / "impedance.csv").read_bytes() == (out / "impedance_passive.csv").read_bytes()

    @pytest.mark.parametrize(
        "controller, config",
        [
            ("type = dob\nlambda = 20\n", DOBConfig(lam=20.0, m_n=PlantParams.gripper().m)),
            ("type = proportional\nK_f = 3\n", ProportionalFFConfig(3.0, "internal")),
        ],
        ids=["dob", "internal-K_f-3"],
    )
    def test_closed_form_writes_configured_controller(self, tmp_path, controller, config):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(f"[controller]\n{controller}\n[analysis]\ntype = impedance\n"
                            "method = closed_form\ngrid_points = 7\n")
        out = tmp_path / "imp"
        assert main(["impedance", str(cfg_path), "--out", str(out)]) == 0
        grid = FrequencyGrid.log_spaced(0.1, 100.0, 7)  # the [analysis] defaults, 7 points
        fr = FrequencyResponse.from_tf(endpoint_impedance(PlantParams.gripper(), config), grid)
        want = np.column_stack([fr.omegas, 20 * np.log10(np.abs(fr.H)), np.degrees(np.angle(fr.H))])
        got = np.loadtxt(out / "impedance.csv", delimiter=",", skiprows=1)
        np.testing.assert_allclose(got, want, rtol=1e-8)
        # the three reference curves stay at K_f = 1, whatever is configured
        internal = np.loadtxt(out / "impedance_internal.csv", delimiter=",", skiprows=1)
        assert not np.allclose(got[:, 1], internal[:, 1])
        assert (out / "impedance_passive.csv").exists()
        assert (out / "impedance_external.csv").exists()

    def test_closed_form_pole_on_grid_written_invalid(self, tmp_path):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(POLE_ON_GRID_CFG)
        out = tmp_path / "imp"
        with pytest.warns(UserWarning, match=r"omega = 1 rad/s is invalid"):
            assert main(["impedance", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "impedance_passive.csv").read_text().splitlines()[1] == "1,nan,nan"

    def test_composite_passivity_report_names_what_was_tested(self, tmp_path):
        for kind in ("dob", "composite"):
            cfg_path = tmp_path / f"{kind}.ini"
            cfg_path.write_text(PASSIVITY_CFG.replace("type = dob", f"type = {kind}"))
            out = tmp_path / kind
            assert main(["passivity", str(cfg_path), "--out", str(out)]) == 0
            report = (out / "passivity_report.txt").read_text()
            assert ("feedforward is not part of Y" in report) == (kind == "composite")

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

    def test_pole_within_roundoff_of_origin_runs(self, tmp_path):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(TINY_K_N_CFG)
        assert main(["passivity", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        report = (tmp_path / "out" / "passivity_report.txt").read_text()
        assert "closed-form verdict: passive\n" in report
        assert "\nverdict: passive\n" in report

    def test_root_solve_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def fail(poly):
            raise RootSolveError("root 0.0 has backward error 1.000e+00")

        monkeypatch.setattr(Polynomial, "roots", fail)
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(PASSIVITY_CFG)
        assert main(["passivity", str(cfg_path), "--out", str(tmp_path / "out")]) == 3
        assert "numerical failure: root 0.0 has backward error" in capsys.readouterr().err

    @pytest.mark.parametrize("m", ["1e-6", "3e-6"])
    def test_zwidth_pd_sweep_failure_exit_code(self, tmp_path, capsys, m):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(f"[plant]\nm = {m}\n\n[analysis]\ntype = zwidth\n")
        rc = main(["zwidth", str(cfg_path), "--out", str(tmp_path / "zw")])
        assert rc == 3
        assert "numerical failure: PD sweep start gain" in capsys.readouterr().err


# Run in a fresh interpreter: no command of the CLI, the Dahl fit of fig7
# included, and no direct fit loads a scipy module.
_NO_SCIPY_SCRIPT = """
import sys

import fluidsea, fluidsea.cli

# measure_impedance imports the worker-pool modules only when a sweep uses them
pool = [m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules]
assert not pool, pool

d = sys.argv[1]
assert fluidsea.cli.main(["simulate", d + "/simulate.ini", "--out", d + "/sim"]) == 0
assert fluidsea.cli.main(["passivity", d + "/passivity.ini", "--out", d + "/pas"]) == 0
assert fluidsea.cli.main(["preset", "fig7-dahl-fit", "--out", d + "/fig7"]) == 0

from fluidsea.impedance import fit_dahl, quasi_static_backdrive, work_loop
from fluidsea.plant import PlantParams

fit = fit_dahl(work_loop(quasi_static_backdrive(PlantParams.gripper(), None)))
assert fit.F_c > 0 and fit.sigma > 0, fit
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def test_cli_runs_load_no_scipy(tmp_path):
    (tmp_path / "simulate.ini").write_text("[run]\nduration = 0.05\n")
    (tmp_path / "passivity.ini").write_text(PASSIVITY_CFG)
    src = os.path.dirname(os.path.dirname(fluidsea.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_package_imports_no_scipy():
    paths = [
        os.path.join(d, name)
        for d, _, names in os.walk(os.path.dirname(fluidsea.__file__))
        for name in names
        if name.endswith(".py")
    ]
    found = []
    for path in sorted(paths):
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [(path, m) for m in modules if m.split(".")[0] == "scipy"]
    assert len(paths) > 1
    assert not found

"""Experiment orchestration: parse configs, run analyses, emit artifacts.

A config file is sectioned key=value text (INI form) with sections
``[plant]``, ``[controller]``, ``[excitation]``, ``[analysis]`` and
``[run]``; all numbers are SI units in the motor rotation frame. Missing
sections fall back to the identified gripper plant, no controller, no
excitation. One table per section (see "Config schema") drives both
parsing and serialization. Unknown keys, and keys the chosen controller or
excitation type does not take, are rejected so typos fail loudly.

Every run writes its artifacts atomically into the output directory and
finishes with ``manifest.txt`` listing each file with its SHA-256 content
hash. Identical config and seed give byte-identical artifacts.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
import os
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from . import impedance as imp
from . import passivity as pas
from . import sysid as sid
from .controllers import (
    CompositeConfig,
    DOBConfig,
    DahlEstimate,
    FeedforwardConfig,
    PDConfig,
    ProportionalFFConfig,
)
from .lti import FrequencyGrid
from .plant import DEFAULT_DT, PlantParams, simulate
from .rng import Xorshift64Star
from .signals import ChirpSpec, ConstantSpec, SineSpec

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "apply_overrides",
    "parse_config",
    "parse_config_file",
    "presets",
    "run_experiment",
    "run_preset",
    "serialize_config",
]

TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    """Invalid experiment configuration; message names key and constraint."""


# ---------------------------------------------------------------------------
# Config model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalysisSpec:
    """Analysis selection and its parameters."""

    kind: str = "simulate"
    grid_min: float = 0.1
    grid_max: float = 100.0
    grid_points: int = 20
    force_amplitude: float = 0.1
    method: str = "measured"        # impedance: measured | closed_form
    include_motor_port: bool = False
    fit_dahl: bool = False
    backdrive_omega: float = 1.0
    backdrive_amplitude: float = 0.5
    backdrive_cycles: int = 4

    def __post_init__(self):
        if self.grid_points < 1 or self.grid_min <= 0 or self.grid_max <= self.grid_min:
            raise ValueError("grid requires 0 < grid_min < grid_max, points >= 1")

    def grid(self) -> FrequencyGrid:
        return FrequencyGrid.log_spaced(self.grid_min, self.grid_max, self.grid_points)


@dataclass(frozen=True)
class ExperimentConfig:
    plant: PlantParams = field(default_factory=PlantParams.gripper)
    controller: object = None
    excitation: object = None
    analysis: AnalysisSpec = field(default_factory=AnalysisSpec)
    duration: float = 10.0
    dt: float = DEFAULT_DT
    seed: int = 1
    noise_std: float = 0.0
    allow_nyquist: bool = True
    output_dir: str = "out"


# ---------------------------------------------------------------------------
# Artifact helpers
# ---------------------------------------------------------------------------


class ArtifactWriter:
    """Atomic artifact writes plus a SHA-256 manifest."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.files: list[str] = []

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def write(self, name: str, writer) -> str:
        """Run ``writer(tmp_path)`` then atomically move into place."""
        final = self.path(name)
        tmp = final + ".tmp"
        try:
            writer(tmp)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise
        os.replace(tmp, final)
        self.files.append(name)
        return final

    def write_text(self, name: str, text: str) -> str:
        def write(path):
            with open(path, "w") as fh:
                fh.write(text)

        return self.write(name, write)

    def finish(self) -> str:
        lines = []
        for name in self.files:
            with open(self.path(name), "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append(f"{digest}  {name}")
        return self.write_text("manifest.txt", "\n".join(lines) + "\n")


def _impedance_csv(path: str, fr: sid.FrequencyResponse) -> None:
    with np.errstate(divide="ignore", invalid="ignore"):
        mag = 20.0 * np.log10(np.abs(fr.H))
        ph = np.degrees(np.angle(fr.H))
    data = np.column_stack([fr.omegas, mag, ph])
    data[~fr.valid, 1:] = np.nan
    with open(path, "w", newline="") as fh:
        fh.write("omega_rad_s,mag_db,phase_deg\n")
        np.savetxt(fh, data, fmt="%.9g", delimiter=",")


# ---------------------------------------------------------------------------
# Analysis runners
# ---------------------------------------------------------------------------


def _run_simulate(cfg: ExperimentConfig, art: ArtifactWriter) -> None:
    if isinstance(cfg.excitation, ChirpSpec):
        cfg.excitation.validate_sampling(cfg.dt, cfg.allow_nyquist)
        duration = cfg.excitation.duration
    else:
        duration = cfg.duration
    trace = simulate(
        cfg.plant, cfg.controller, cfg.excitation, None, duration=duration, dt=cfg.dt
    )
    art.write("trace.csv", trace.to_csv)


def _run_sysid(cfg: ExperimentConfig, art: ArtifactWriter) -> None:
    spec = cfg.excitation
    if not isinstance(spec, ChirpSpec):
        raise ConfigError("[analysis] sysid requires a chirp excitation")
    spec.validate_sampling(cfg.dt, cfg.allow_nyquist)
    rng = Xorshift64Star(cfg.seed) if cfg.noise_std > 0 else None
    result = sid.run_sysid(
        cfg.plant, spec, dt=cfg.dt, noise_std=cfg.noise_std, rng=rng
    )
    art.write("frf_motor.csv", result.motor_frf.to_csv)
    art.write("frf_finger.csv", result.finger_frf.to_csv)
    art.write("frf_line.csv", result.line_frf.to_csv)
    art.write("frf_endpoint.csv", result.endpoint_frf.to_csv)
    wf = result.whole_fit
    report = (
        result.extraction.report_text()
        + "\n\nwhole-system endpoint fit (2 zeros / 4 poles)\n"
        + f"num: {wf.num.coeffs.tolist()}\n"
        + f"den: {wf.den.coeffs.tolist()}\n"
        + f"weighted residual: {result.whole_report.residual:.6e} "
        + f"({result.whole_report.iterations} iterations)\n"
    )
    art.write_text("params_report.txt", report)


def _run_impedance(cfg: ExperimentConfig, art: ArtifactWriter) -> None:
    grid = cfg.analysis.grid()
    if cfg.analysis.method == "closed_form":
        curves = {
            "impedance_passive.csv": pas.endpoint_impedance_ff(cfg.plant, 0.0),
            "impedance_internal.csv": pas.endpoint_impedance_ff(cfg.plant, 1.0, "internal"),
            "impedance_external.csv": pas.endpoint_impedance_ff(
                cfg.plant,
                cfg.controller.K_f
                if isinstance(cfg.controller, ProportionalFFConfig)
                and cfg.controller.source == "external"
                else 1.0,
                "external",
            ),
        }
        for name, tf in curves.items():
            fr = sid.FrequencyResponse.from_tf(tf, grid)
            art.write(name, lambda p: _impedance_csv(p, fr))
        return
    fr = imp.measure_impedance(
        cfg.plant, cfg.controller, grid, amplitude=cfg.analysis.force_amplitude, dt=cfg.dt
    )
    base = imp.measure_impedance(
        cfg.plant, None, grid, amplitude=cfg.analysis.force_amplitude, dt=cfg.dt
    )
    art.write("impedance.csv", lambda p: _impedance_csv(p, fr))
    art.write("impedance_passive.csv", lambda p: _impedance_csv(p, base))


def _run_workloop(cfg: ExperimentConfig, art: ArtifactWriter) -> None:
    a = cfg.analysis
    trace = imp.quasi_static_backdrive(
        cfg.plant,
        cfg.controller,
        omega=a.backdrive_omega,
        amplitude=a.backdrive_amplitude,
        cycles=a.backdrive_cycles,
        dt=cfg.dt,
    )
    ext = imp.work_loop(trace, "F_e")
    internal = imp.work_loop(trace, "F_p")
    art.write("loop_external.csv", ext.to_csv)
    art.write("loop_internal.csv", internal.to_csv)
    lines = [
        f"external loop: amplitude {ext.amplitude:.6e} Nm, area {ext.area:.6e} J",
        f"internal loop: amplitude {internal.amplitude:.6e} Nm, area {internal.area:.6e} J",
    ]
    if a.fit_dahl:
        fit = imp.fit_dahl(ext)
        lines += [
            f"dahl fit: F_c {fit.F_c:.6e} Nm, sigma {fit.sigma:.6e} Nm/rad, "
            f"rms residual {fit.residual_rms:.3e}",
            "reference values: F_c 0.032 Nm, sigma 12.8 Nm/rad",
        ]
    art.write_text("workloop_report.txt", "\n".join(lines) + "\n")


def _run_zwidth(cfg: ExperimentConfig, art: ArtifactWriter) -> None:
    a = cfg.analysis
    grid = a.grid()
    min_ctrl = cfg.controller
    pd_cfg = imp.max_stable_pd(cfg.plant, dt=cfg.dt)
    z_min = imp.measure_impedance(
        cfg.plant, min_ctrl, grid, amplitude=a.force_amplitude, dt=cfg.dt
    )
    # One PD simulation per point serves both ports.
    ports = ("endpoint", "motor") if a.include_motor_port else ("endpoint",)
    z_pd = imp.measure_impedance(
        cfg.plant, pd_cfg, grid, amplitude=a.force_amplitude, dt=cfg.dt, port=ports
    )
    z_max = z_pd[0]
    curve = imp.zwidth(z_min, z_max)
    art.write("zmin.csv", lambda p: _impedance_csv(p, z_min))
    art.write("zmax.csv", lambda p: _impedance_csv(p, z_max))
    art.write("zwidth.csv", curve.to_csv)
    summary = [
        f"max-impedance PD gains: K_p {pd_cfg.K_p:.4f} Nm/rad, K_d {pd_cfg.K_d:.4f} Nm s/rad"
    ]
    if a.include_motor_port:
        z_motor = z_pd[1]
        curve_m = imp.zwidth(z_min, z_motor)
        art.write("zmax_motor.csv", lambda p: _impedance_csv(p, z_motor))
        art.write("zwidth_motor.csv", curve_m.to_csv)
    art.write_text("zwidth_report.txt", "\n".join(summary) + "\n")


def _run_passivity(cfg: ExperimentConfig, art: ArtifactWriter) -> None:
    ctrl = cfg.controller
    if isinstance(ctrl, CompositeConfig):
        ctrl = ctrl.dob
    if not isinstance(ctrl, DOBConfig):
        raise ConfigError("[controller] passivity analysis requires a dob or composite type")
    p = cfg.plant
    bounds = pas.nominal_bounds(p.m, p.b, p.k, ctrl.lam)
    Y = pas.dob_admittance(p, ctrl, ctrl.lam)
    report = pas.check_passive(Y)
    text = [
        "observer admittance passivity report",
        f"plant: m {p.m}, b {p.b}, k {p.k}",
        f"nominal: m_n {ctrl.m_n}, b_n {ctrl.b_n}, k_n {ctrl.k_n}, lambda {ctrl.lam} rad/s",
        "",
        "closed-form bounds:",
        f"  m_n >= {bounds.m_n_min:.6e}",
        f"  b_n >= {bounds.b_n_min:.6e}",
        f"  0 <= k_n <= {bounds.k_n_max(ctrl.b_n):.6e} (at configured b_n)",
        f"  auxiliary RHP cap: k_n <= {bounds.k_n_routh_cap(ctrl.m_n, ctrl.b_n):.6e}",
        f"  closed-form verdict: "
        f"{'passive' if bounds.contains(ctrl.m_n, ctrl.b_n, ctrl.k_n) else 'non-passive'}",
        "",
        "numeric three-criteria test:",
        report.to_text(),
    ]
    art.write_text("passivity_report.txt", "\n".join(text) + "\n")
    art.write("re_y_sweep.csv", report.sweep_csv)


_RUNNERS = {
    "simulate": _run_simulate,
    "sysid": _run_sysid,
    "impedance": _run_impedance,
    "workloop": _run_workloop,
    "zwidth": _run_zwidth,
    "passivity": _run_passivity,
}


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> list[str]:
    """Run the configured analysis; returns the artifact names written.

    The manifest is written last; on numerical failure the exception
    propagates and the manifest covers the artifacts completed so far.
    """
    art = ArtifactWriter(out_dir or cfg.output_dir)
    runner = _RUNNERS[cfg.analysis.kind]
    try:
        runner(cfg, art)
    finally:
        art.finish()
    return art.files


# ---------------------------------------------------------------------------
# Config schema: one table per section drives parsing and serialization
# ---------------------------------------------------------------------------

_REQUIRED = object()
_BOOL = (True, False)  # a bool is a choice; configparser's spellings map to it
_ALIASES = {
    **configparser.ConfigParser.BOOLEAN_STATES,
    "passivity-report": "passivity",
    "proportional_ff": "proportional",
}
_KINDS = {float: "a finite number", int: "an integer"}


class _Key(NamedTuple):
    """One INI key of a section table."""

    kind: object = float            # float, int, str, a tuple of choices, or
                                    # {choice: _Group it builds}
    default: object = _REQUIRED     # a value or a function of the plant
    attr: str | None = None         # the field filled, when not named like the key
    check: tuple = ()               # (test, text): a range no dataclass checks
    hz: str | None = None           # a second key giving the same value in Hz


class _Group(NamedTuple):
    """Keys of one section that build ``cls(**fields)``; ``parts`` maps
    fields to nested groups read from the same section."""

    cls: type
    keys: dict
    parts: dict = {}


_NONE = _Group(type(None), {})  # builds None
_DOB = _Group(DOBConfig, {
    "lambda": _Key(default=20.0, attr="lam", hz="lambda_hz"),
    "m_n": _Key(default=lambda plant: plant.m),
    "b_n": _Key(default=0.0),
    "k_n": _Key(default=0.0),
})
_DAHL = _Group(DahlEstimate, {
    "ff_F_c": _Key(default=lambda plant: plant.F_c or 0.032, attr="F_c"),
    "ff_sigma": _Key(default=lambda plant: plant.sigma or 12.8, attr="sigma"),
})
_FEEDFORWARD = _Group(FeedforwardConfig, {
    "ff_b_e": _Key(default=lambda plant: plant.b_e, attr="b_e"),
    "ff_k_e": _Key(default=lambda plant: plant.k_e, attr="k_e"),
    "ff_b_s": _Key(default=lambda plant: plant.b_s, attr="b_s"),
    "ff_k_s": _Key(default=lambda plant: plant.k_s, attr="k_s"),
    "ff_dahl": _Key({True: _DAHL, False: _NONE}, lambda plant: plant.F_c > 0, attr="dahl"),
})
_CONTROLLERS = {
    "none": _NONE,
    "proportional": _Group(ProportionalFFConfig, {"K_f": _Key(), "source": _Key(str, "internal")}),
    "dob": _DOB,
    "pd": _Group(PDConfig, {
        "K_p": _Key(),
        "K_d": _Key(),
        "x_target": _Key(default=0.0),
        "delay_samples": _Key(int, 0),
    }),
    "composite": _Group(CompositeConfig, {}, {"dob": _DOB, "feedforward": _FEEDFORWARD}),
}
_EXCITATIONS = {
    "none": _NONE,
    "chirp": _Group(ChirpSpec, {
        "amplitude": _Key(default=0.3),
        "f0": _Key(default=0.01),
        "f1": _Key(default=1000.0),
        "duration": _Key(default=600.0),
    }),
    "sine": _Group(SineSpec, {"amplitude": _Key(), "omega": _Key()}),
    "constant": _Group(ConstantSpec, {"value": _Key()}),
}
_ANALYSIS = _Group(AnalysisSpec, {
    "type": _Key(tuple(_RUNNERS), "simulate", attr="kind"),
    "grid_min": _Key(default=0.1),
    "grid_max": _Key(default=100.0),
    "grid_points": _Key(int, 20),
    "force_amplitude": _Key(default=0.1),
    "method": _Key(("measured", "closed_form"), "measured"),
    "include_motor_port": _Key(_BOOL, False),
    "fit_dahl": _Key(_BOOL, False),
    "backdrive_omega": _Key(default=1.0, check=(lambda v: v > 0, "must be > 0")),
    "backdrive_amplitude": _Key(default=0.5),
    # n cycles give n - 1 upward crossings of x_e; the work loop needs three
    "backdrive_cycles": _Key(int, 4, check=(lambda v: v >= 4, "must be >= 4")),
})
_GRIPPER = PlantParams.gripper()

# Each section fills fields of ExperimentConfig. [plant] comes first: the
# defaults of other sections are functions of the plant.
_SECTIONS = {
    "plant": _Group(dict, {}, {"plant": _Group(PlantParams, {
        f.name: _Key(default=getattr(_GRIPPER, f.name)) for f in fields(PlantParams)
    })}),
    "controller": _Group(dict, {"type": _Key(_CONTROLLERS, "none", attr="controller")}),
    "excitation": _Group(dict, {
        "type": _Key(_EXCITATIONS, "none", attr="excitation"),
        "noise_std": _Key(default=0.0, check=(lambda v: v >= 0, "must be >= 0")),
    }),
    "analysis": _Group(dict, {}, {"analysis": _ANALYSIS}),
    "run": _Group(dict, {
        "duration": _Key(default=10.0, check=(lambda v: v > 0, "must be > 0")),
        "dt": _Key(default=DEFAULT_DT, check=(lambda v: 0 < v <= 1e-2, "must lie in (0, 1e-2]")),
        "seed": _Key(int, 1),
        "output_dir": _Key(str, "out"),
        "allow_nyquist": _Key(_BOOL, True),
    }),
}


class _SectionReader:
    """Reads one section against its table; every error names the key.
    ``taken`` collects the keys offered on the way: a key left over is one
    the section, with the types chosen, does not take."""

    def __init__(self, section: str, values, plant: PlantParams | None):
        self.section, self.values, self.plant = section, values, plant
        self.taken: set[str] = set()
        self.chosen: list[str] = []

    def error(self, text) -> ConfigError:
        return ConfigError(f"[{self.section}] {text}")

    def convert(self, name: str, key: _Key, raw: str):
        kind, choices = key.kind, isinstance(key.kind, (tuple, dict))
        try:
            if choices:
                value = _ALIASES.get(raw.lower(), raw.lower())
                if value not in kind:
                    raise ValueError(value)
            else:
                value = kind(raw)
                if kind is float and not math.isfinite(value):
                    raise ValueError(value)
        except ValueError:
            what = "one of " + ", ".join(map(str, kind)) if choices else _KINDS[kind]
            raise self.error(f"{name} must be {what}, got {raw!r}") from None
        if key.check and not key.check[0](value):
            raise self.error(f"{name} {key.check[1]}")
        return value

    def value(self, name: str, key: _Key):
        self.taken.update(filter(None, (name, key.hz)))
        raw, hz = self.values.get(name), key.hz and self.values.get(key.hz)
        if raw is not None and hz is not None:
            raise self.error(f"give {name} (rad/s) or {key.hz} (Hz), not both")
        if hz is not None:
            return TWO_PI * self.convert(key.hz, key, hz)
        if raw is not None:
            value = self.convert(name, key, raw)
        elif key.default is _REQUIRED:
            raise self.error(f"missing required key {name!r}")
        else:
            value = key.default(self.plant) if callable(key.default) else key.default
        if not isinstance(key.kind, dict):
            return value
        self.chosen.append(f"{name} = {value}")
        return self.build(key.kind[value])

    def build(self, group: _Group):
        kwargs = {key.attr or name: self.value(name, key) for name, key in group.keys.items()}
        kwargs.update((attr, self.build(part)) for attr, part in group.parts.items())
        try:
            return group.cls(**kwargs)
        except ValueError as exc:
            raise self.error(exc) from exc

    def read(self, group: _Group) -> dict:
        kwargs = self.build(group)
        for name in self.values:
            if name not in self.taken:
                chosen = f" with {', '.join(self.chosen)}" if self.chosen else ""
                raise self.error(f"unknown key {name!r}{chosen}; allowed: {sorted(self.taken)}")
        return kwargs


def _flatten(obj, group: _Group) -> dict[str, str]:
    """The INI text of each key of ``group`` in ``obj``; the inverse of reading."""
    out = {}
    for name, key in group.keys.items():
        value = getattr(obj, key.attr or name)
        if isinstance(key.kind, dict):
            choice = next((c for c, part in key.kind.items() if isinstance(value, part.cls)), None)
            if choice is None:
                raise ConfigError(f"cannot serialize {value!r}")
            out[name] = str(choice)
            out.update(_flatten(value, key.kind[choice]))
        else:
            out[name] = str(value)
    for attr, part in group.parts.items():
        out.update(_flatten(getattr(obj, attr), part))
    return out


def parse_config(text: str) -> ExperimentConfig:
    """Parse INI-form experiment text into a validated ExperimentConfig."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    cp.optionxform = str  # keys are case sensitive (K_p vs k_p)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from exc
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
    kwargs = {}
    for section, group in _SECTIONS.items():
        values = cp[section] if cp.has_section(section) else {}
        kwargs.update(_SectionReader(section, values, kwargs.get("plant")).read(group))
    return ExperimentConfig(**kwargs)


def parse_config_file(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def serialize_config(cfg: ExperimentConfig) -> str:
    """Render a config back to INI text; parse(serialize(c)) == c."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    for section, group in _SECTIONS.items():
        cp[section] = _flatten(cfg, group)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Presets: one per reproduced figure pipeline
# ---------------------------------------------------------------------------

LAMBDA_20_RAD = 20.0
LAMBDA_20_HZ = TWO_PI * 20.0  # the text's cutoff reading; reproduces the
                              # reported quasi-static compensation quality

_CHIRP = ChirpSpec(amplitude=0.3, f0=0.01, f1=1000.0, duration=600.0)


def _preset_fig3(plant: PlantParams) -> ExperimentConfig:
    return ExperimentConfig(
        plant=plant, excitation=_CHIRP, analysis=AnalysisSpec(kind="simulate")
    )


def _preset_fig4(plant: PlantParams) -> ExperimentConfig:
    return ExperimentConfig(
        plant=plant, excitation=_CHIRP, analysis=AnalysisSpec(kind="sysid")
    )


def _preset_fig5(plant: PlantParams) -> ExperimentConfig:
    return ExperimentConfig(
        plant=plant,
        controller=ProportionalFFConfig(K_f=1.0, source="external"),
        analysis=AnalysisSpec(
            kind="impedance", method="closed_form",
            grid_min=1e-2, grid_max=1e3, grid_points=181,
        ),
    )


def _preset_fig6a(plant: PlantParams) -> ExperimentConfig:
    return ExperimentConfig(
        plant=plant,
        controller=DOBConfig.inertial(plant.m, LAMBDA_20_RAD),
        analysis=AnalysisSpec(kind="workloop"),
    )


def _composite(plant: PlantParams, lam: float, include_dahl: bool) -> CompositeConfig:
    return CompositeConfig(
        dob=DOBConfig.inertial(plant.m, lam),
        feedforward=FeedforwardConfig.from_params(plant, include_dahl=include_dahl),
    )


def _preset_fig6b(plant: PlantParams) -> ExperimentConfig:
    return ExperimentConfig(
        plant=plant,
        controller=_composite(plant, LAMBDA_20_HZ, include_dahl=True),
        analysis=AnalysisSpec(kind="workloop"),
    )


def _preset_fig6c(plant: PlantParams) -> ExperimentConfig:
    return ExperimentConfig(
        plant=plant,
        controller=_composite(plant, LAMBDA_20_RAD, include_dahl=True),
        analysis=AnalysisSpec(
            kind="zwidth", grid_min=0.1, grid_max=100.0, grid_points=25,
            include_motor_port=True,
        ),
    )


def _preset_fig7(plant: PlantParams) -> ExperimentConfig:
    return ExperimentConfig(
        plant=plant,
        controller=_composite(plant, LAMBDA_20_HZ, include_dahl=False),
        analysis=AnalysisSpec(kind="workloop", fit_dahl=True),
    )


_PRESETS = {
    "fig3-chirp": (_preset_fig3, "passive chirp backdrive trace for identification"),
    "fig4-sysid": (_preset_fig4, "chirp identification: sub-plant FRFs, fits, parameters"),
    "fig5-ff-compare": (_preset_fig5, "closed-form endpoint impedance: passive vs internal vs external feedback"),
    "fig6a-workloop": (_preset_fig6a, "quasi-static work loops, passive vs observer"),
    "fig6b-feedforward": (_preset_fig6b, "work loops under observer plus full friction feedforward"),
    "fig6c-zwidth": (_preset_fig6c, "rendered impedance range against the stiff PD hold"),
    "fig7-dahl-fit": (_preset_fig7, "hysteresis-model fit of the residual external loop"),
}


def presets() -> dict[str, str]:
    """Built-in experiment presets, name to one-line description."""
    return {name: desc for name, (_, desc) in _PRESETS.items()}


def preset_config(name: str, plant: PlantParams | None = None) -> ExperimentConfig:
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(_PRESETS)}")
    builder, _ = _PRESETS[name]
    return builder(plant or PlantParams.gripper())


def run_preset(name: str, out_dir: str, dt: float | None = None,
               seed: int | None = None, lam: float | None = None) -> list[str]:
    """Build and run a preset; fig6a additionally emits the passive loops."""
    cfg = apply_overrides(preset_config(name), dt=dt, seed=seed, lam=lam)
    files = run_experiment(cfg, out_dir)
    if name == "fig6a-workloop":
        passive_cfg = replace(cfg, controller=None)
        sub = os.path.join(out_dir, "passive")
        files += [os.path.join("passive", f) for f in run_experiment(passive_cfg, sub)]
    return files


def apply_overrides(cfg: ExperimentConfig, dt: float | None = None,
                    seed: int | None = None, lam: float | None = None) -> ExperimentConfig:
    """``cfg`` with the command-line overrides --dt, --seed and --lambda applied.

    --dt takes the range check of ``[run] dt``. --lambda [rad/s] sets the
    observer cutoff of a dob or composite controller and leaves any other
    controller as it is.
    """
    if dt is not None:
        test, text = _SECTIONS["run"].keys["dt"].check
        if not test(dt):
            raise ConfigError(f"--dt {text}, got {dt!r}")
        cfg = replace(cfg, dt=dt)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if lam is not None:
        if not (math.isfinite(lam) and lam > 0):
            raise ConfigError(f"--lambda must be a finite number > 0, got {lam!r}")
        ctrl = cfg.controller
        if isinstance(ctrl, DOBConfig):
            cfg = replace(cfg, controller=replace(ctrl, lam=lam))
        elif isinstance(ctrl, CompositeConfig):
            cfg = replace(cfg, controller=replace(ctrl, dob=replace(ctrl.dob, lam=lam)))
    return cfg

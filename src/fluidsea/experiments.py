"""Experiment orchestration: parse configs, run analyses, emit artifacts.

A config file is sectioned key=value text (INI form) with sections
``[plant]``, ``[controller]``, ``[excitation]``, ``[analysis]`` and
``[run]``; all numbers are SI units in the motor rotation frame. Missing
sections fall back to the identified gripper plant, no controller, no
excitation. One table per section (see "Config schema") drives parsing:
unknown keys, and keys the chosen controller or excitation type does not
take, are rejected so typos fail loudly.

Every run writes its artifacts atomically into the output directory and
finishes with ``manifest.txt`` listing each file with its SHA-256 content
hash. Identical config and seed give byte-identical artifacts.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os
from dataclasses import MISSING, dataclass, field, fields, replace
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
from .csvio import write_csv
from .lti import FrequencyGrid
from .plant import DEFAULT_DT, MAX_DT, PlantParams, simulate
from .rng import Xorshift64Star
from .signals import ChirpSpec, ConstantSpec, NyquistViolationError, SineSpec

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "apply_overrides",
    "parse_config",
    "parse_config_file",
    "presets",
    "run_experiment",
    "run_preset",
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
        if self.grid_min <= 0:
            raise ValueError(f"grid_min must be > 0, got {self.grid_min:.6g}")
        if self.grid_max <= self.grid_min:
            raise ValueError(f"grid_max must be > grid_min = {self.grid_min:.6g}, "
                             f"got {self.grid_max:.6g}")
        if self.grid_points < 1:
            raise ValueError(f"grid_points must be >= 1, got {self.grid_points}")

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


_HASH_BLOCK = 1 << 20  # manifest hashing reads each artifact 1 MiB at a time


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
            # newline="" keeps "\n" on every platform, so the hashes do too
            with open(path, "w", newline="") as fh:
                fh.write(text)

        return self.write(name, write)

    def finish(self) -> str:
        lines = []
        for name in self.files:
            digest = hashlib.sha256()
            with open(self.path(name), "rb") as fh:
                while block := fh.read(_HASH_BLOCK):
                    digest.update(block)
            lines.append(f"{digest.hexdigest()}  {name}")
        return self.write_text("manifest.txt", "\n".join(lines) + "\n")


def _impedance_csv(path: str, fr: sid.FrequencyResponse) -> None:
    with np.errstate(divide="ignore", invalid="ignore"):
        mag = 20.0 * np.log10(np.abs(fr.H))
        ph = np.degrees(np.angle(fr.H))
    data = np.column_stack([fr.omegas, mag, ph])
    data[~fr.valid, 1:] = np.nan
    write_csv(path, "omega_rad_s,mag_db,phase_deg", data.T)


# ---------------------------------------------------------------------------
# Analysis runners
# ---------------------------------------------------------------------------


def _measured_grid(cfg: ExperimentConfig) -> FrequencyGrid:
    """The analysis grid, checked to keep distinct points once snapped to dt."""
    a = cfg.analysis
    grid = a.grid()
    try:
        imp.snap_grid(grid, cfg.dt)
    except ValueError as exc:
        raise ConfigError(f"[analysis] grid_points = {a.grid_points} up to grid_max = "
                          f"{a.grid_max} with [run] dt = {cfg.dt}: {exc}") from exc
    return grid


def _check_chirp_sampling(cfg: ExperimentConfig) -> None:
    """Check the chirp's end frequency against Nyquist, once per run."""
    spec = cfg.excitation
    try:
        spec.validate_sampling(cfg.dt, cfg.allow_nyquist)
    except NyquistViolationError as exc:
        raise ConfigError(f"[excitation] f1 = {spec.f1} Hz reaches the Nyquist frequency "
                          f"{0.5 / cfg.dt} Hz of [run] dt = {cfg.dt}; set [run] "
                          "allow_nyquist = true to run it anyway") from exc


def _run_simulate(cfg: ExperimentConfig, art: ArtifactWriter) -> None:
    if isinstance(cfg.excitation, ChirpSpec):
        _check_chirp_sampling(cfg)
        duration, key = cfg.excitation.duration, "[excitation] duration"
    else:
        duration, key = cfg.duration, "[run] duration"
    if round(duration / cfg.dt) < 1:
        raise ConfigError(f"{key} must span at least one step of dt = {cfg.dt}, got {duration}")
    trace = simulate(
        cfg.plant, cfg.controller, cfg.excitation, None, duration=duration, dt=cfg.dt
    )
    art.write("trace.csv", trace.to_csv)


def _run_sysid(cfg: ExperimentConfig, art: ArtifactWriter) -> None:
    spec = cfg.excitation
    if not isinstance(spec, ChirpSpec):
        raise ConfigError("[analysis] sysid requires a chirp excitation")
    _check_chirp_sampling(cfg)
    if round(spec.duration / cfg.dt) < 8:  # the spectra's lag window is 1/8 of the record
        raise ConfigError(
            f"[excitation] duration must span at least 8 samples of dt = {cfg.dt} "
            f"for sysid, got {spec.duration}"
        )
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
        + f"converged: {result.whole_report.converged}\n"
    )
    art.write_text("params_report.txt", report)


def _run_impedance(cfg: ExperimentConfig, art: ArtifactWriter) -> None:
    grid = cfg.analysis.grid()
    if cfg.analysis.method == "closed_form":
        ctrls = {} if cfg.controller is None else {"impedance.csv": cfg.controller}
        ctrls.update({"impedance_passive.csv": None,
                      "impedance_internal.csv": ProportionalFFConfig(1.0, "internal"),
                      "impedance_external.csv": ProportionalFFConfig(1.0, "external")})
        try:
            curves = {name: pas.endpoint_impedance(cfg.plant, c) for name, c in ctrls.items()}
        except ValueError as exc:  # a PD delay, the one config without a closed form
            raise ConfigError(f"[controller] delay_samples = {cfg.controller.delay_samples} "
                              f"under [analysis] method = closed_form: {exc}") from exc
        for name, tf in curves.items():
            fr = sid.FrequencyResponse.from_tf(tf, grid)
            art.write(name, lambda p: _impedance_csv(p, fr))
        return
    grid = _measured_grid(cfg)
    fr = imp.measure_impedance(
        cfg.plant, cfg.controller, grid, amplitude=cfg.analysis.force_amplitude, dt=cfg.dt
    )
    # Without a [controller] the configured sweep is already the passive one.
    base = fr if cfg.controller is None else imp.measure_impedance(
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
        lines.append(f"dahl fit: F_c {fit.F_c:.6e} Nm, sigma {fit.sigma:.6e} Nm/rad, "
                     f"rms residual {fit.residual_rms:.3e}")
        if fit.on_sigma_bound:
            lines.append(f"dahl fit: sigma {fit.sigma:.1e} Nm/rad is its lower bound; "
                         "the Dahl model does not describe this loop")
        lines.append(f"reference values: F_c {_GRIPPER.F_c} Nm, sigma {_GRIPPER.sigma} Nm/rad")
    art.write_text("workloop_report.txt", "\n".join(lines) + "\n")


def _run_zwidth(cfg: ExperimentConfig, art: ArtifactWriter) -> None:
    a = cfg.analysis
    grid = _measured_grid(cfg)
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
    ctrl, note = cfg.controller, []
    if isinstance(ctrl, CompositeConfig):
        ctrl = ctrl.dob
        note = ["composite: only the observer admittance Y is tested; the feedforward "
                "is not part of Y"]
    if not isinstance(ctrl, DOBConfig):
        raise ConfigError("[controller] passivity analysis requires a dob or composite type")
    p = cfg.plant
    bounds = pas.nominal_bounds(p.m, p.b, p.k, ctrl.lam)
    Y = pas.dob_admittance(p, ctrl)
    report = pas.check_passive(Y)
    text = [
        "observer admittance passivity report",
        *note,
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
# Config schema: one table per section drives parsing
# ---------------------------------------------------------------------------

_GRIPPER = PlantParams.gripper()
_BOOL = (True, False)  # a bool is a choice; configparser's spellings map to it
_KINDS = {float: "a finite number", int: "an integer"}


class _Key(NamedTuple):
    """One INI key of a section table."""

    kind: object = float            # float, int, str, a tuple of choices, or
                                    # {choice: _Group it builds}
    default: object = None          # a value or a function of the plant; None
                                    # leaves the field's own default, and a key
                                    # whose field has none is required
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
    "lambda": _Key(attr="lam", hz="lambda_hz"),
    "m_n": _Key(default=lambda plant: plant.m),
    "b_n": _Key(),
    "k_n": _Key(),
})
_DAHL = _Group(DahlEstimate, {
    "ff_F_c": _Key(default=lambda plant: plant.F_c or _GRIPPER.F_c, attr="F_c"),
    "ff_sigma": _Key(default=lambda plant: plant.sigma or _GRIPPER.sigma, attr="sigma"),
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
    "proportional": _Group(ProportionalFFConfig, {"K_f": _Key(), "source": _Key(str)}),
    "dob": _DOB,
    "pd": _Group(PDConfig, {"K_p": _Key(), "K_d": _Key(), "x_target": _Key(),
                            "delay_samples": _Key(int)}),
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
_POSITIVE = (lambda v: v > 0, "must be > 0")
_ANALYSIS = _Group(AnalysisSpec, {
    "type": _Key(tuple(_RUNNERS), attr="kind"),
    "grid_min": _Key(),
    "grid_max": _Key(),
    "grid_points": _Key(int),
    "force_amplitude": _Key(check=_POSITIVE),
    "method": _Key(("measured", "closed_form")),
    "include_motor_port": _Key(_BOOL),
    "fit_dahl": _Key(_BOOL),
    "backdrive_omega": _Key(check=_POSITIVE),
    "backdrive_amplitude": _Key(check=_POSITIVE),
    # n cycles give n - 1 upward crossings of x_e; the work loop needs three
    "backdrive_cycles": _Key(int, check=(lambda v: v >= 4, "must be >= 4")),
})

# Each section fills fields of ExperimentConfig. [plant] comes first: the
# defaults of other sections are functions of the plant.
_SECTIONS = {
    "plant": _Group(dict, {}, {"plant": _Group(PlantParams, {
        f.name: _Key(default=getattr(_GRIPPER, f.name)) for f in fields(PlantParams)
    })}),
    "controller": _Group(dict, {"type": _Key(_CONTROLLERS, "none", attr="controller")}),
    "excitation": _Group(dict, {
        "type": _Key(_EXCITATIONS, "none", attr="excitation"),
        "noise_std": _Key(check=(lambda v: v >= 0, "must be >= 0")),
    }),
    "analysis": _Group(dict, {}, {"analysis": _ANALYSIS}),
    "run": _Group(dict, {
        "duration": _Key(check=_POSITIVE),
        "dt": _Key(check=(lambda v: 0 < v <= MAX_DT, "must lie in (0, 1e-2]")),
        "seed": _Key(int),
        "output_dir": _Key(str),
        "allow_nyquist": _Key(_BOOL),
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
                value = configparser.ConfigParser.BOOLEAN_STATES.get(raw.lower(), raw.lower())
                if value not in kind:
                    raise ValueError(value)
            else:
                value = kind(raw)
                if kind is float and not math.isfinite(value):
                    raise ValueError(value)
        except ValueError:
            what = "one of " + ", ".join(map(str, kind)) if choices else _KINDS[kind]
            raise self.error(f"{name} must be {what}, got {raw!r}") from None
        return value

    def field_values(self, group: _Group):
        """(field, value) for each key given or defaulted by the table; a key
        left out leaves its field's own default."""
        for name, key in group.keys.items():
            self.taken.update(filter(None, (name, key.hz)))
            raw, hz = self.values.get(name), key.hz and self.values.get(key.hz)
            if raw is not None and hz is not None:
                raise self.error(f"give {name} (rad/s) or {key.hz} (Hz), not both")
            if hz is not None:
                value = TWO_PI * self.convert(key.hz, key, hz)
            elif raw is not None:
                value = self.convert(name, key, raw)
            elif key.default is not None:
                value = key.default(self.plant) if callable(key.default) else key.default
            elif (key.attr or name) in _required(group.cls):
                raise self.error(f"missing required key {name!r}")
            else:
                continue
            if key.check and not key.check[0](value):
                given, written = (key.hz, hz) if hz is not None else (name, raw)
                raise self.error(f"{given} {key.check[1]}, got {written or value}")
            if isinstance(key.kind, dict):
                self.chosen.append(f"{name} = {value}")
                value = self.build(key.kind[value])
            yield key.attr or name, value

    def build(self, group: _Group):
        kwargs = dict(self.field_values(group))
        kwargs.update((attr, self.build(part)) for attr, part in group.parts.items())
        try:
            return group.cls(**kwargs)
        except ValueError as exc:  # a field's check, named as the key and value written
            field, sep, text = str(exc).partition(" ")
            for name, key in group.keys.items():
                if (key.attr or name) == field:
                    field = key.hz if key.hz and key.hz in self.values else name
                    break
            head, got, _ = text.rpartition(", got ")
            if got and field in self.values:
                text = head + got + self.values[field]
            raise self.error(field + sep + text) from exc

    def read(self, group: _Group) -> dict:
        kwargs = self.build(group)
        for name in self.values:
            if name not in self.taken:
                chosen = f" with {', '.join(self.chosen)}" if self.chosen else ""
                raise self.error(f"unknown key {name!r}{chosen}; allowed: {sorted(self.taken)}")
        return kwargs


def _required(cls) -> set[str]:
    """The fields of ``cls`` without a default; a section's ``dict`` fills
    ExperimentConfig."""
    return {f.name for f in fields(ExperimentConfig if cls is dict else cls)
            if f.default is MISSING and f.default_factory is MISSING}


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


# ---------------------------------------------------------------------------
# Presets: one per reproduced figure pipeline
# ---------------------------------------------------------------------------

# name -> (config text, one-line description); preset_config reads the text
# with parse_config, as it reads a user's file, on the identified gripper plant
_PRESETS = {
    "fig3-chirp": (
        "[excitation]\ntype = chirp\n[analysis]\ntype = simulate",
        "passive chirp backdrive trace for identification"),
    "fig4-sysid": (
        "[excitation]\ntype = chirp\n[analysis]\ntype = sysid",
        "chirp identification: sub-plant FRFs, fits, parameters"),
    "fig5-ff-compare": (
        "[analysis]\ntype = impedance\nmethod = closed_form\n"
        "grid_min = 1e-2\ngrid_max = 1e3\ngrid_points = 181",
        "closed-form endpoint impedance: passive vs internal vs external feedback"),
    "fig6a-workloop": (
        "[controller]\ntype = dob\nlambda = 20\n[analysis]\ntype = workloop",
        "quasi-static work loops, passive vs observer"),
    "fig6b-feedforward": (
        # lambda_hz = 20 is the text's cutoff reading; it reproduces the
        # reported quasi-static compensation quality
        "[controller]\ntype = composite\nlambda_hz = 20\nff_dahl = true\n"
        "[analysis]\ntype = workloop",
        "work loops under observer plus full friction feedforward"),
    "fig6c-zwidth": (
        "[controller]\ntype = composite\nlambda = 20\nff_dahl = true\n"
        "[analysis]\ntype = zwidth\ngrid_min = 0.1\ngrid_max = 100\ngrid_points = 25\n"
        "include_motor_port = true",
        "rendered impedance range against the stiff PD hold"),
    "fig7-dahl-fit": (
        "[controller]\ntype = composite\nlambda_hz = 20\nff_dahl = false\n"
        "[analysis]\ntype = workloop\nfit_dahl = true",
        "hysteresis-model fit of the residual external loop"),
}


def presets() -> dict[str, str]:
    """Built-in experiment presets, name to one-line description."""
    return {name: desc for name, (_, desc) in _PRESETS.items()}


def preset_config(name: str) -> ExperimentConfig:
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(_PRESETS)}")
    return parse_config(_PRESETS[name][0])


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

"""The three benchmark workloads: generated configs, CLI invocations, output checks.

Each workload is a fixed list of ``fluidsea`` command lines, run one after
another through ``fluidsea.cli.main``. A *pass* runs the whole list once.
Every invocation has an output check; a non-zero exit code or a failed check
counts the invocation as failed.

Only ``chirp-sysid`` takes the benchmark seed, as ``[run] seed`` of its sysid
config (the measurement-noise stream). The other two workloads are
deterministic: their inputs do not depend on the seed.
"""

from __future__ import annotations

import os
import re

import numpy as np

DT = 5e-4
CHIRP_DURATION = 120.0
NOISE_STD = 1e-4

# Identified desk-rig plant (PlantParams.gripper) and the criterion-3 tolerances.
TRUE_PARAMS = {
    "m": 1.1116e-3, "b": 2.9814e-2, "k": 0.1642,
    "m_e": 0.7089e-3, "b_e": 3.3879e-2, "k_e": 0.0637,
    "b_s": 9.2453e-3, "k_s": 13.0782,
}
PARAM_TOL = {
    "m": 0.05, "k": 0.05, "k_s": 0.05, "m_e": 0.05, "k_e": 0.05,
    "b": 0.10, "b_e": 0.10, "b_s": 0.10,
}
F_C, SIGMA = 0.032, 12.8
KP_EXPECTED = 88.40           # max_stable_pd on the gripper plant [Nm/rad]
ZWIDTH_FLOORS = ((3.0, 40.0), (10.0, 30.0))   # (rad/s, dB), criterion 7

_CHIRP = f"""[excitation]
type = chirp
amplitude = 0.3
f0 = 0.01
f1 = 1000
duration = {CHIRP_DURATION!r}
"""


def _chirp_configs(seed: int) -> dict[str, str]:
    return {
        # fig3: passive chirp backdrive of the hysteretic gripper plant
        "simulate.ini": _CHIRP + f"\n[analysis]\ntype = simulate\n\n[run]\ndt = {DT!r}\n",
        # fig4: identification of the linear plant with seeded measurement noise
        "sysid.ini": (
            "[plant]\nF_c = 0\nsigma = 0\n\n"
            + _CHIRP + f"noise_std = {NOISE_STD!r}\n"
            + f"\n[analysis]\ntype = sysid\n\n[run]\ndt = {DT!r}\nseed = {seed}\n"
        ),
    }


def _zwidth_configs(seed: int) -> dict[str, str]:
    return {
        "zwidth.ini": """[controller]
type = composite
lambda = 20
ff_dahl = true

[analysis]
type = zwidth
grid_min = 0.3
grid_max = 30
grid_points = 5
include_motor_port = true
"""
    }


_PASSIVITY = """[controller]
type = dob
lambda = 20
m_n = 1.1116e-3
b_n = 0
k_n = {k_n}

[analysis]
type = passivity
"""


def _workloop_configs(seed: int) -> dict[str, str]:
    # Closed-form bounds at lambda = 20 rad/s: m_n >= m - b/lambda < 0 and
    # 0 <= k_n <= k = 0.1642, so k_n = 0 lies inside and k_n = 0.5 outside.
    return {
        "passivity_inside.ini": _PASSIVITY.format(k_n=0),
        "passivity_outside.ini": _PASSIVITY.format(k_n=0.5),
    }


class Workload:
    """A named list of invocations with the check that applies to each."""

    def __init__(self, name, seeded, make_configs, invocations):
        self.name = name
        self.seeded = seeded
        self.make_configs = make_configs
        # (label, argv template, check); "{cfg}" and "{out}" are filled in
        self.invocations = invocations

    def write_configs(self, cfg_dir: str, seed: int) -> None:
        os.makedirs(cfg_dir, exist_ok=True)
        for name, text in self.make_configs(seed).items():
            with open(os.path.join(cfg_dir, name), "w") as fh:
                fh.write(text)

    def argv(self, label: str, cfg_dir: str, out_dir: str) -> list[str]:
        template = next(a for lab, a, _ in self.invocations if lab == label)
        return [a.format(cfg=cfg_dir, out=out_dir) for a in template]

    def check(self, label: str, out_dir: str) -> list[str]:
        """Problems found in one invocation's outputs; empty when it passed."""
        check = next(c for lab, _, c in self.invocations if lab == label)
        try:
            return invalid_points(out_dir) + check(out_dir)
        except (OSError, ValueError) as exc:
            return [f"{label}: unreadable output: {exc}"]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

_PUBLISHED = re.compile(r"^(frf_.*|impedance.*|zmin|zmax.*|zwidth.*)\.csv$")


def invalid_points(out_dir: str) -> list[str]:
    """Published FRF or impedance points the pipeline marked invalid (NaN rows)."""
    problems = []
    for root, _, files in os.walk(out_dir):
        for name in sorted(files):
            if not _PUBLISHED.match(name):
                continue
            data = _load_csv(os.path.join(root, name))
            bad = int(np.sum(~np.all(np.isfinite(data), axis=1)))
            if bad:
                problems.append(f"{name}: {bad} invalid points")
    return problems


def _load_csv(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _read(out_dir: str, name: str) -> str:
    with open(os.path.join(out_dir, name)) as fh:
        return fh.read()


def _word(text: str, pattern: str) -> str:
    m = re.search(pattern, text, re.MULTILINE)
    if m is None:
        raise ValueError(f"no match for {pattern!r}")
    return m.group(1)


def _number(text: str, pattern: str) -> float:
    return float(_word(text, pattern))


def check_trace_rows(out_dir: str) -> list[str]:
    with open(os.path.join(out_dir, "trace.csv")) as fh:
        rows = sum(1 for _ in fh) - 1
    want = int(round(CHIRP_DURATION / DT))
    return [] if rows == want else [f"trace.csv has {rows} rows, expected {want}"]


def check_sysid_params(out_dir: str) -> list[str]:
    text = _read(out_dir, "params_report.txt")
    problems = []
    for name, tol in PARAM_TOL.items():
        got = _number(text, rf"\b{name}=([-+0-9.eE]+)")
        rel = abs(got - TRUE_PARAMS[name]) / TRUE_PARAMS[name]
        if not rel <= tol:
            problems.append(f"sysid {name}={got:.6e} is {rel:.2%} off (tolerance {tol:.0%})")
    return problems


def check_zwidth(out_dir: str) -> list[str]:
    problems = []
    kp = _number(_read(out_dir, "zwidth_report.txt"), r"K_p ([-+0-9.eE]+)")
    if not abs(kp - KP_EXPECTED) <= 0.01 * KP_EXPECTED:
        problems.append(f"K_p {kp:.4f} not within 1% of {KP_EXPECTED}")
    data = _load_csv(os.path.join(out_dir, "zwidth.csv"))
    omegas, width = data[:, 0], data[:, 3]
    for omega, floor in ZWIDTH_FLOORS:
        i = int(np.argmin(np.abs(np.log(omegas / omega))))
        if not width[i] >= floor:
            problems.append(
                f"Z-width {width[i]:.2f} dB at {omegas[i]:.3f} rad/s below {floor} dB"
            )
    return problems


def check_feedforward_loop(out_dir: str) -> list[str]:
    text = _read(out_dir, "workloop_report.txt")
    amp = _number(text, r"^external loop: amplitude ([-+0-9.eE]+)")
    if not amp <= 0.10 * F_C:
        return [f"fig6b external loop amplitude {amp:.4e} Nm above 10% of F_c"]
    return []


def check_dahl_fit(out_dir: str) -> list[str]:
    text = _read(out_dir, "workloop_report.txt")
    problems = []
    for name, pattern, truth in (
        ("F_c", r"dahl fit: F_c ([-+0-9.eE]+)", F_C),
        ("sigma", r"sigma ([-+0-9.eE]+) Nm/rad", SIGMA),
    ):
        got = _number(text, pattern)
        if not abs(got - truth) <= 0.10 * truth:
            problems.append(f"fig7 Dahl fit {name} {got:.4e} not within 10% of {truth}")
    return problems


def check_passivity(expected: str):
    def check(out_dir: str) -> list[str]:
        text = _read(out_dir, "passivity_report.txt")
        closed = _word(text, r"closed-form verdict: (\S+)")
        numeric = _word(text, r"^verdict: (\S+)")
        if closed == numeric == expected:
            return []
        return [
            f"passivity verdicts closed-form {closed}, numeric {numeric}; "
            f"expected {expected}"
        ]
    return check


def check_files(*names: str):
    def check(out_dir: str) -> list[str]:
        missing = [n for n in names if not os.path.isfile(os.path.join(out_dir, n))]
        return [f"missing {n}" for n in missing]
    return check


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "chirp-sysid", True, _chirp_configs,
            [
                ("simulate", ["simulate", "{cfg}/simulate.ini", "--out", "{out}"],
                 check_trace_rows),
                ("sysid", ["sysid", "{cfg}/sysid.ini", "--out", "{out}"],
                 check_sysid_params),
            ],
        ),
        Workload(
            "zwidth-sweep", False, _zwidth_configs,
            [
                ("zwidth", ["zwidth", "{cfg}/zwidth.ini", "--out", "{out}"], check_zwidth),
            ],
        ),
        Workload(
            "workloop-presets", False, _workloop_configs,
            [
                ("fig5", ["preset", "fig5-ff-compare", "--out", "{out}"],
                 check_files("impedance_passive.csv", "impedance_internal.csv",
                             "impedance_external.csv")),
                ("fig6a", ["preset", "fig6a-workloop", "--out", "{out}"],
                 check_files("workloop_report.txt", "passive/workloop_report.txt")),
                ("fig6b", ["preset", "fig6b-feedforward", "--out", "{out}"],
                 check_feedforward_loop),
                ("fig7", ["preset", "fig7-dahl-fit", "--out", "{out}"], check_dahl_fit),
                ("passivity-inside",
                 ["passivity", "{cfg}/passivity_inside.ini", "--out", "{out}"],
                 check_passivity("passive")),
                ("passivity-outside",
                 ["passivity", "{cfg}/passivity_outside.ini", "--out", "{out}"],
                 check_passivity("non-passive")),
            ],
        ),
    )
}


def manifests(out_dir: str) -> dict[str, bytes]:
    """Every manifest.txt under an invocation's output directory, by relative path."""
    found = {}
    for root, _, files in os.walk(out_dir):
        if "manifest.txt" in files:
            path = os.path.join(root, "manifest.txt")
            with open(path, "rb") as fh:
                found[os.path.relpath(path, out_dir)] = fh.read()
    return found

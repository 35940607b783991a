"""Self-test of the benchmark; run from the repository root:

    python3 bench/selftest.py

It checks that
1. the metric names a run emits equal the names BENCHMARK.json declares,
   untraced and traced;
2. every output check passes on fresh outputs and fails on a deliberately
   corrupted copy of them, so the checks are not vacuous; a corrupted
   reference manifest fails every invocation of a pass;
3. two traced runs give identical counts (every per-layer metric with unit
   ``count`` or ``bytes``).

It takes a few minutes: each workload runs once in this process and twice
traced through run.py. Exit code 0 means every check held.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _edit(path: str, pattern: str, repl) -> None:
    with open(path) as fh:
        text = fh.read()
    new, n = re.subn(pattern, repl, text, count=1, flags=re.MULTILINE)
    if n != 1:
        raise RuntimeError(f"corruption pattern {pattern!r} not found in {path}")
    with open(path, "w") as fh:
        fh.write(new)


def _scale(factor: float):
    return lambda m: m.group(1) + repr(float(m.group(2)) * factor)


def _drop_last_line(path: str) -> None:
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(lines[:-1])


# label -> list of (what, corrupt(out_dir)); each must make that label's check fail
CORRUPTIONS = {
    "simulate": [("trace.csv one row short", lambda d: _drop_last_line(f"{d}/trace.csv"))],
    "sysid": [
        ("params_report m +20%",
         lambda d: _edit(f"{d}/params_report.txt", r"(\bm=)([-+0-9.eE]+)", _scale(1.2))),
        ("frf_motor.csv point marked invalid",
         lambda d: _edit(f"{d}/frf_motor.csv", r"^([0-9.eE+-]+,)([^,\n]+)", r"\1nan")),
    ],
    "zwidth": [
        ("K_p +5%", lambda d: _edit(f"{d}/zwidth_report.txt", r"(K_p )([-+0-9.eE]+)", _scale(1.05))),
        ("zmax.csv point marked invalid",
         lambda d: _edit(f"{d}/zmax.csv", r"^([0-9.eE+-]+,)([^,\n]+)", r"\1nan")),
    ],
    "fig5": [("impedance_external.csv missing", lambda d: os.remove(f"{d}/impedance_external.csv"))],
    "fig6a": [("passive loops missing", lambda d: shutil.rmtree(f"{d}/passive"))],
    "fig6b": [
        ("loop amplitude x10",
         lambda d: _edit(f"{d}/workloop_report.txt", r"(^external loop: amplitude )([-+0-9.eE]+)",
                         _scale(10.0))),
    ],
    "fig7": [
        ("Dahl F_c +50%",
         lambda d: _edit(f"{d}/workloop_report.txt", r"(dahl fit: F_c )([-+0-9.eE]+)", _scale(1.5))),
    ],
    "passivity-inside": [
        ("numeric verdict flipped",
         lambda d: _edit(f"{d}/passivity_report.txt", r"^(verdict: )(passive)", r"\1non-passive")),
    ],
    "passivity-outside": [
        ("closed-form verdict flipped",
         lambda d: _edit(f"{d}/passivity_report.txt", r"(closed-form verdict: )(non-passive)",
                         r"\1passive")),
    ],
}


def check_outputs(name: str, work: str) -> list[str]:
    """Run one pass in-process; fresh outputs must pass, corrupted ones must fail."""
    wl = WORKLOADS[name]
    cfg, out = os.path.join(work, "configs"), os.path.join(work, "out")
    wl.write_configs(cfg, 1)
    *_, problems = worker.run_pass(wl, cfg, out, {})
    errors = [f"{name}: fresh outputs failed: {p}" for p in problems]
    for label, _, _ in wl.invocations:
        fresh = os.path.join(out, label)
        for what, corrupt in CORRUPTIONS[label]:
            copy = os.path.join(work, "corrupt", label)
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(fresh, copy)
            corrupt(copy)
            if not wl.check(label, copy):
                errors.append(f"{name}/{label}: check passed on corrupted output ({what})")
            else:
                print(f"  {name}/{label}: corruption caught ({what})")
    if name == "workloop-presets":
        bad_ref = {label: {"manifest.txt": b"corrupt\n"} for label, _, _ in wl.invocations}
        _, _, attempted, failed, _ = worker.run_pass(wl, cfg, out, bad_ref)
        if failed != attempted:
            errors.append(f"{name}: {attempted - failed} invocations passed a corrupted manifest")
        else:
            print(f"  {name}: corrupted reference manifest fails all {attempted} invocations")
    return errors


def bench_run(name: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if out.returncode != 0:
        raise RuntimeError(f"run.py failed for {name}: {out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    end_to_end, per_layer = run.declared()
    counted = [k for k, unit in per_layer.items() if unit in ("count", "bytes")]
    errors = []
    work = os.path.join(ROOT, ".bench_work", f"selftest-{os.getpid()}")
    try:
        for name in WORKLOADS:
            print(f"{name}: output checks")
            errors += check_outputs(name, os.path.join(work, name))
            print(f"{name}: two traced runs")
            first, second = bench_run(name, 1), bench_run(name, 1)
            for res in (first, second):
                if sorted(res["metrics"]) != sorted(per_layer):
                    errors.append(f"{name}: traced metric names differ from BENCHMARK.json")
                if not res["correct"]:
                    errors.append(f"{name}: traced run not correct")
            diff = [k for k in counted
                    if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
            errors += [f"{name}: count {k} differs between traced runs" for k in diff]
            if not diff:
                print(f"  {len(counted)} counts identical")
        res = bench_run("workloop-presets", 0)
        if sorted(res["metrics"]) != sorted(end_to_end):
            errors.append("untraced metric names differ from BENCHMARK.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

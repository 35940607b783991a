"""Benchmark entry point: one run of one workload, from the repository root.

    python3 bench/run.py --workload chirp-sysid --seed 1 --seconds 40 --trace 0

The run takes ``setup_s`` as the median of several fresh-interpreter set-ups
(start, ``import fluidsea``, config generation), then starts the workload
process (bench/worker.py), which repeats passes of the workload for
``--seconds`` and times them on the reference clock of clock.py. The last line of stdout is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The line
before it records the environment. Spans of a traced run are written to
``.bench_work/spans-<workload>-seed<seed>.json``.

The package is imported from ``src/`` of the checkout only; without it the run
fails with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import clock

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
WORKLOADS = ("chirp-sysid", "zwidth-sweep", "workloop-presets")


def declared() -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer metrics declared in BENCHMARK.json, name to unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def source_digest() -> str:
    """SHA-256 over the package sources, identifying the code measured."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "fluidsea")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return out.stdout.strip() or None


class Worker:
    """One workload process; ``ready_s`` is the wall time from spawn to end of set-up."""

    def __init__(self, argv, env, deadline):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "worker.py")] + argv,
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        )
        self._timer = threading.Timer(max(deadline - time.monotonic(), 0.0), self.proc.kill)
        self._timer.start()
        line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - t0
        self.ready = line.strip() == "ready"

    def wait(self) -> int:
        try:
            self.proc.stdout.read()
            return self.proc.wait()
        finally:
            self._timer.cancel()
            self.proc.stdout.close()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "fluidsea", "__init__.py")):
        print(f"error: no fluidsea package under {SRC}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)

    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    spans = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.json")
    result_path = os.path.join(work, "result.json")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work", work]
    os.makedirs(work, exist_ok=True)
    try:
        setup = []
        for _ in range(SETUP_SAMPLES - 1):
            w = Worker(common + ["--setup-only"], env, deadline)
            if w.wait() != 0 or not w.ready:
                print("error: set-up failed", file=sys.stderr)
                return 1
            setup.append(w.ready_s)
        w = Worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--result", result_path, "--spans", spans],
            env, deadline,
        )
        code = w.wait()
        if code != 0 or not w.ready or time.monotonic() > deadline:
            print(f"error: workload process failed (exit code {code})", file=sys.stderr)
            return 1
        setup.append(w.ready_s)
        with open(result_path) as fh:
            res = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values = res["layers"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "pipeline_s": res["pipeline_s"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
    unit = declared()[args.trace]
    if sorted(values) != sorted(unit):
        print("error: emitted metric names differ from BENCHMARK.json", file=sys.stderr)
        return 1
    for p in res["problems"]:
        print(f"check failed: {p}", file=sys.stderr)

    print(json.dumps({"env": {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": res["seed_used"],
        "nproc": nproc,
        "blas_threads": nproc,
        **res["versions"],
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "passes": len(res["pass_s"]) + len(res["traced_pass_s"]),
        "clock_reference_s": clock.REFERENCE_S,
        "raw_pipeline_s": res["raw_pipeline_s"],
        "pass_s": res["pass_s"],
        "traced_pass_s": res["traced_pass_s"],
        "setup_samples_s": setup,
    }}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

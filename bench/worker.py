"""Workload process of one benchmark run; started by run.py in a fresh interpreter.

Set-up is the interpreter start, ``import fluidsea.cli`` (mostly the
numpy/scipy import) and writing the workload's config files. When set-up
ends the process prints ``ready`` on stdout; with ``--setup-only`` it then
exits. Otherwise it runs passes of the workload until ``--seconds`` would be
exceeded (at least one pass), checks every invocation's outputs, and writes
its result as JSON to ``--result``.

With ``--trace 1`` the first pass runs untraced, the tracer is installed, and
the remaining passes (at least one) run traced. Per-layer metrics are the
median over the traced passes; ``trace.overhead_s`` is the traced pass time
minus the untraced pass time.

Each invocation's wall time is put on the reference clock (see clock.py)
with probes taken before and after it. A pass time is summed over the
invocations from each invocation's median time across the passes, which is
steadier than the median of whole passes. The raw wall times are reported too.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import clock


def run_pass(workload, cfg_dir, out_root, reference):
    """Run every invocation once.

    Returns (reference-clock seconds by invocation, raw wall seconds by
    invocation, attempted, failed, problems). ``reference`` maps each
    invocation to the manifests of its first repetition; later repetitions
    must reproduce them byte for byte.
    """
    import fluidsea.cli
    from workloads import manifests

    seconds, raw = {}, {}
    failed = 0
    problems = []
    before = clock.probe()
    for label, _, _ in workload.invocations:
        out = os.path.join(out_root, label)
        shutil.rmtree(out, ignore_errors=True)
        argv = workload.argv(label, cfg_dir, out)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = fluidsea.cli.main(argv)
        except Exception:  # an uncaught error fails this invocation, not the run
            traceback.print_exc()
            code = "exception"
        raw[label] = time.perf_counter() - t0
        after = clock.probe()
        seconds[label] = clock.on_reference_clock(raw[label], before, after)
        before = after
        found = [] if code == 0 else [f"{label}: exit code {code}"]
        found += workload.check(label, out)
        got = manifests(out)
        if not got:
            found.append(f"{label}: no manifest.txt")
        elif reference.setdefault(label, got) != got:
            found.append(f"{label}: manifest differs from the first repetition")
        if found:
            failed += 1
            problems += found
    return seconds, raw, len(workload.invocations), failed, problems


def pass_seconds(passes: list[dict]) -> float:
    """Each invocation's median time across passes, summed over the invocations."""
    return sum(statistics.median(p[label] for p in passes) for label in passes[0])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True, help="working directory for configs and outputs")
    ap.add_argument("--result", help="where to write the JSON result")
    ap.add_argument("--spans", help="where to write the traced spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import fluidsea.cli  # noqa: F401  (set-up: the import is what is timed)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    cfg_dir = os.path.join(args.work, "configs")
    workload.write_configs(cfg_dir, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    out_root = os.path.join(args.work, "out")
    reference: dict = {}
    tracer = None
    untraced, traced, raw, layer_runs, spans = [], [], [], [], []
    attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    while True:
        if args.trace and untraced:
            if tracer is None:
                from tracing import Tracer

                tracer = Tracer()
                tracer.install()
            tracer.reset()
        gc.collect()
        pass_start = time.perf_counter()
        seconds, wall, n, f, p = run_pass(workload, cfg_dir, out_root, reference)
        attempted, failed, problems = attempted + n, failed + f, problems + p
        if tracer is None:
            untraced.append(seconds)
            raw.append(wall)
        else:
            traced.append(seconds)
            layer_runs.append(tracer.metrics())
            spans.append(tracer.spans)
        pass_wall = time.perf_counter() - pass_start
        if args.trace and not traced:
            continue
        if time.perf_counter() - start + pass_wall > args.seconds:
            break
    shutil.rmtree(out_root, ignore_errors=True)

    import numpy
    import scipy

    result = {
        "seed_used": workload.seeded,
        "pipeline_s": pass_seconds(untraced),
        "raw_pipeline_s": pass_seconds(raw),
        "pass_s": [sum(p.values()) for p in untraced],
        "traced_pass_s": [sum(p.values()) for p in traced],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        layers = {k: statistics.median(r[k] for r in layer_runs) for k in layer_runs[0]}
        layers["trace.overhead_s"] = pass_seconds(traced) - pass_seconds(untraced)
        layers["failed_frac"] = failed / attempted
        result["layers"] = layers
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed, "passes": spans}, fh)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Alternating benchmark pairs of two checkouts, summarized into one BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --pairs zwidth-sweep=10 --pairs chirp-sysid=5 --pairs workloop-presets=5 \\
        --claim zwidth-sweep:pipeline_s --seed 29 --out BENCH_29.json \\
        --title "..." --layer "..." --note "..."

Each side is a checkout root holding ``bench/run.py`` and ``src/``. A pair
runs ``bench/run.py --trace 0`` once on each side, back to back; the parent
runs first in even pairs and the change first in odd ones. Pairs of the
workloads are interleaved round-robin, so a drift of the host's speed falls
on every workload alike. ``--traced`` adds one ``--trace 1`` pair per named
workload before the untraced pairs.

Per workload and end-to-end metric the summary gives both sides' values in
pair order, their medians, the pairs the change wins, the interquartile
ranges and the change of the median. For the ``--claim`` metric it also
states whether the change won at least nine pairs in ten and moved the
median by more than the parent's interquartile range. Figures measured
outside the benchmark go into the report as ``--note`` lines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import time

METRICS = ("setup_s", "pipeline_s", "peak_rss_mb")

def run_bench(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``bench/run.py`` run from ``root``; its env and result lines and wall time."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=False,
    )
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    run = {"workload": workload, "trace": trace, "rc": proc.returncode,
           "wall_s": round(time.monotonic() - t0, 1)}
    if proc.returncode == 0 and len(lines) >= 2:
        run["env"] = json.loads(lines[-2])["env"]
        run["result"] = json.loads(lines[-1])
    else:  # the error lines, without the traceback's file lines
        run["errors"] = [ln for ln in proc.stderr.splitlines()
                         if ln[:1].strip() and not ln.startswith("Traceback")]
    return run


def iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(runs: list[dict], claim: tuple[str, str] | None) -> dict:
    """Per workload: paired values of each end-to-end metric, medians, wins and spreads."""
    summary: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs if r["trace"] == 0):
        mine = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        ok = all("result" in r for r in mine)
        entry = {
            "pairs": len(mine) // 2,
            "all_correct": ok and all(r["result"]["correct"] for r in mine),
            "failed": sum(r["result"]["failed"] for r in mine) if ok else None,
        }
        if not ok:
            summary[workload] = entry
            continue
        for metric in METRICS:
            side = {s: [r["result"]["metrics"][metric]["value"] for r in mine if r["side"] == s]
                    for s in ("parent", "change")}
            pm, cm = statistics.median(side["parent"]), statistics.median(side["change"])
            entry[metric] = {
                "parent": [round(v, 4) for v in side["parent"]],
                "change": [round(v, 4) for v in side["change"]],
                "parent_median": round(pm, 4),
                "change_median": round(cm, 4),
                "change_wins": sum(c < p for p, c in zip(side["parent"], side["change"])),
                "parent_iqr": round(iqr(side["parent"]), 4),
                "change_iqr": round(iqr(side["change"]), 4),
                "change_vs_parent": f"{100.0 * (cm - pm) / pm:+.1f} %",
            }
            if claim == (workload, metric):
                n = entry["pairs"]
                entry[metric]["claim_holds"] = bool(
                    entry[metric]["change_wins"] >= 0.9 * n and pm - cm > iqr(side["parent"])
                )
        summary[workload] = entry
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout root of the parent")
    ap.add_argument("--change", required=True, help="checkout root of the change")
    ap.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N")
    ap.add_argument("--traced", action="append", default=[], metavar="WORKLOAD")
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC")
    ap.add_argument("--seed", type=int, required=True, help="passed to bench/run.py")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--title", default="")
    ap.add_argument("--layer", default="")
    ap.add_argument("--parent-commit", default="")
    ap.add_argument("--note", action="append", default=[], help="a line for the report")
    args = ap.parse_args()
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    counts = {w: int(n) for w, n in (p.split("=") for p in args.pairs)}
    claim = tuple(args.claim.split(":")) if args.claim else None

    runs = []

    def pair(workload: str, index: int, trace: int) -> None:
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_bench(roots[side], workload, args.seed, args.seconds, trace)
            runs.append({"side": side, "pair": index, **run})
            print(f"{workload} pair {index} {side}: rc {run['rc']}, {run['wall_s']} s",
                  file=sys.stderr, flush=True)

    for workload in args.traced:
        pair(workload, 0, 1)
    for index in range(max(counts.values())):
        for workload, n in counts.items():
            if index < n:
                pair(workload, index, 0)

    report = {
        "title": args.title,
        "layer": args.layer,
        "claim": " ".join(claim) if claim else None,
        "command": f"python3 bench/run.py --workload <workload> --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace <0|1>, run from the root of each side",
        "script": shlex.join(["tools/bench_pairs.py"] + sys.argv[1:]),
        "host": f"{platform.machine()}, {len(os.sched_getaffinity(0))} CPUs, "
                f"Python {platform.python_version()} (see each env line)",
        "parent": args.parent_commit,
        "notes": args.note,
        "summary": summarize(runs, claim),
        "traced": {
            w: {r["side"]: r.get("result", {}).get("metrics") for r in runs
                if r["workload"] == w and r["trace"] == 1}
            for w in args.traced
        },
        "runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0 if all(r["rc"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())

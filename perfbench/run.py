#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the repository root. The first run configures the repository
as a Release (LTO) build under .bench_build/perfbench with the
benchmark added by perfbench/perfbench.cmake, and builds only the
ppa_perfbench binary; later runs rebuild incrementally. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1 (see perfbench/README.md).

--repeat N runs the workload N times with seeds seed..seed+N-1 and
prints, per metric, the median and the interquartile spread as a share
of the median; BENCHMARK.json's bounds were set from these.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SCRATCH = ROOT / ".bench_build" / "perfbench-scratch"
WORKLOADS = ("sweep", "serve-crash", "crash-check", "tp-replay")
RUN_TIMEOUT_S = 170
# Host worker threads per workload. One: on the 4-vCPU reference host
# two busy threads often share a physical core, so a second worker made
# host times depend on where the scheduler put it.
WORKERS = 1


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def build():
    """Configure (first time) and build the benchmark binary."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("repository sources (CMakeLists.txt, src/) are missing; "
            "nothing to build")
        return None
    if not (BUILD / "build.ninja").is_file():
        cmd = ["cmake", "-S", str(ROOT), "-B", str(BUILD), "-G", "Ninja",
               "-DCMAKE_BUILD_TYPE=Release",
               "-DCMAKE_PROJECT_INCLUDE="
               + str(ROOT / "perfbench" / "perfbench.cmake")]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD), "--target", "ppa_perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return None
    return BUILD / "ppa_perfbench"


def provenance():
    """git describe when available, plus a digest of the sources."""
    describe = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "describe", "--always",
                            "--dirty"], capture_output=True, text=True)
        if r.returncode == 0:
            describe = r.stdout.strip()
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for p in files:
        digest.update(str(p.relative_to(ROOT)).encode())
        digest.update(p.read_bytes())
    return {"git_describe": describe, "source_sha256": digest.hexdigest()[:16]}


def declared_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json declares for a mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def validate(doc, trace):
    """Problems with the binary's metrics against BENCHMARK.json."""
    want = declared_metrics(trace)
    got = doc["metrics"]
    problems = []
    for name in sorted(set(want) ^ set(got)):
        problems.append(f"metric {name} is declared or printed, not both")
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            continue
        if m["unit"] != unit:
            problems.append(f"{name}: unit {m['unit']} != declared {unit}")
        v = m["value"]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{name}: value {v!r} is not a finite number")
        elif not trace and v <= 0:
            problems.append(f"{name}: end-to-end value {v} is not positive")
    return problems


def run_once(binary, args, seed):
    """One benchmark run; returns the final result object (or None)."""
    spans = ROOT / ".bench_build" / "perfbench-spans"
    spans.mkdir(parents=True, exist_ok=True)
    SCRATCH.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workers", str(WORKERS),
           "--scratch", str(SCRATCH / args.workload),
           "--spans", str(spans / f"{args.workload}.json")]
    if args.tiny:
        cmd.append("--tiny")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return None
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        log(f"benchmark binary exited with {r.returncode}")
        return None
    doc = json.loads(lines[-1])
    problems = validate(doc, args.trace)
    for p in problems:
        log(p)
    doc["provenance"].update(provenance())
    print("perfbench: detail " + json.dumps(doc["detail"], sort_keys=True))
    print("perfbench: provenance " + json.dumps(doc["provenance"],
                                               sort_keys=True))
    return {
        "correct": doc["failed"] == 0 and not problems,
        "attempted": doc["attempted"],
        "failed": doc["failed"] + len(problems),
        "metrics": doc["metrics"],
    }


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test scale: same code paths, tiny inputs")
    ap.add_argument("--repeat", type=int, default=0,
                    help="run N seeds and print each metric's spread")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 2

    if args.repeat <= 0:
        result = run_once(binary, args, args.seed)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    series, all_correct = {}, True
    for k in range(args.repeat):
        result = run_once(binary, args, args.seed + k)
        if result is None:
            return 1
        all_correct = all_correct and result["correct"]
        for name, m in result["metrics"].items():
            series.setdefault(name, []).append(m["value"])
        print(json.dumps(result), flush=True)
    summary = {}
    for name, values in series.items():
        med, rel = spread(values) if len(values) > 1 else (values[0], 0.0)
        summary[name] = {"median": med, "spread": rel,
                         "min": min(values), "max": max(values)}
        print(f"{name:40s} median {med:14.6g}  spread {rel:8.4f}  "
              f"min {min(values):12.6g}  max {max(values):12.6g}")
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "correct": all_correct, "summary": summary}))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())

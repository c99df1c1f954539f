#!/usr/bin/env python3
"""Argument-validation conformance test for ppa_cli.

Drives the binary with malformed or out-of-range arguments and asserts
each invocation exits nonzero with a diagnostic that names the
offending flag. This pins the CLI's error contract: garbage numerics
must never be silently coerced (the old ``std::stoul``-based parsing
accepted ``12x`` as 12 and aborted on ``abc``), zero must be rejected
where a count is structurally positive, and every rejection must point
the user at ``--help``.

Stdlib only; no third-party packages. Usage:

    python3 tools/cli_errors_test.py --cli build/tools/ppa_cli

Exit status 0 when every case rejects as specified, 1 otherwise.
"""

import argparse
import subprocess
import sys

# (argv suffix, required diagnostic substring). Every case must exit
# nonzero and print the substring on stdout or stderr.
CASES = [
    # fuzz campaign numerics: zero and garbage.
    (["fuzz", "run", "--programs", "0"], "--programs must be positive"),
    (["fuzz", "run", "--programs", "abc"],
     "--programs wants an unsigned integer"),
    (["fuzz", "run", "--schedules", "0"], "--schedules must be positive"),
    (["fuzz", "run", "--seed", "12x"], "--seed wants an unsigned integer"),
    (["fuzz", "run", "--max-findings", "zz"],
     "--max-findings wants an unsigned integer"),
    # trailing garbage and negatives must not be coerced.
    (["run", "--app", "gcc", "--fail-at-cycle", "0"],
     "--fail-at-cycle must be positive"),
    (["run", "--app", "gcc", "--fail-at-cycle", "-5"],
     "--fail-at-cycle wants an unsigned integer"),
    (["run", "--app", "gcc", "--fail-at-cycle", "10garbage"],
     "--fail-at-cycle wants an unsigned integer"),
    # --tp-fail SEGMENT:CYCLE: each half validated, colon required.
    (["run", "--app", "gcc", "--time-parallel", "2",
      "--tp-fail", "2:x"], "--tp-fail cycle wants an unsigned integer"),
    (["run", "--app", "gcc", "--time-parallel", "2",
      "--tp-fail", "y:100"],
     "--tp-fail segment wants an unsigned integer"),
    (["run", "--app", "gcc", "--time-parallel", "2",
      "--tp-fail", "nope"], "--tp-fail wants SEGMENT:CYCLE"),
    # cycle 0 is valid (exactly at the segment join); negatives are not.
    (["run", "--app", "gcc", "--time-parallel", "2",
      "--tp-fail", "2:-1"], "--tp-fail cycle wants an unsigned integer"),
    # sweep numerics: trailing garbage must not be coerced.
    (["sweep", "fig11", "--jobs", "4x"], "--jobs wants an unsigned integer"),
    (["sweep", "fig11", "--insts", "abc"],
     "--insts wants an unsigned integer"),
    (["sweep", "fig11", "--seed", "12x"], "--seed wants an unsigned integer"),
    # litmus numerics share the same parser.
    (["litmus", "run", "--schedules", "0"], "--schedules must be positive"),
    (["litmus", "run", "--seed", ""], "--seed wants an unsigned integer"),
    # structural errors: unknown verbs, unreadable reproducers.
    (["fuzz", "bogus"], "unknown fuzz subcommand"),
    (["fuzz", "repro", "/nonexistent/ppa-fuzz-missing.litmus"],
     "cannot open"),
    # serve: a vacuous request count, malformed reals, negative or
    # garbage numerics, and structural token/range errors.
    (["serve", "--ops", "0"], "--ops must be positive"),
    (["serve", "--ops", "100x"], "--ops wants an unsigned integer"),
    (["serve", "--skew", "-1"], "--skew wants a non-negative number"),
    (["serve", "--skew", "0.9oops"], "--skew wants a non-negative number"),
    (["serve", "--burst-period", "-5"],
     "--burst-period wants an unsigned integer"),
    (["serve", "--burst-period", "0"], "--burst-period must be positive"),
    (["serve", "--variant", "eadr"], "unknown serve variant"),
    (["serve", "--arrival", "pareto"], "unknown arrival process"),
    (["serve", "--keys", "1000"], "--keys must be a power of two"),
    (["serve", "--keys", "131072"], "--keys must be at most 65536"),
    (["serve", "--read-pct", "101"], "--read-pct must be at most 100"),
    (["serve", "--arrival", "bursty", "--on-fraction", "1.5"],
     "--on-fraction wants a fraction in (0, 1)"),
    (["serve", "--arrival", "bursty", "--burst-factor", "8",
      "--on-fraction", "0.5"],
     "--burst-factor times --on-fraction must be at most 1"),
    (["serve", "--telemetry-trace", "/tmp/x.json"],
     "--telemetry-trace requires --telemetry"),
]


def run_case(cli, argv, needle):
    proc = subprocess.run(
        [cli] + argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=60,
    )
    if proc.returncode == 0:
        return f"{' '.join(argv)}: expected nonzero exit, got 0"
    if needle not in proc.stdout:
        head = proc.stdout.splitlines()[:2]
        return (
            f"{' '.join(argv)}: diagnostic missing {needle!r} "
            f"(got {head})"
        )
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cli", required=True, help="path to ppa_cli")
    args = ap.parse_args()

    problems = []
    for argv, needle in CASES:
        err = run_case(args.cli, argv, needle)
        if err:
            problems.append(err)

    for p in problems:
        print(f"cli_errors_test: {p}", file=sys.stderr)
    if problems:
        return 1
    print(f"cli_errors_test: OK — {len(CASES)} malformed invocations "
          "all rejected with diagnostics")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Argument-validation conformance test for ppa_cli.

Drives the binary with malformed or out-of-range arguments and asserts
each invocation exits nonzero with a diagnostic that names the
offending flag. This pins the CLI's error contract: garbage numerics
must never be silently coerced (the old ``std::stoul``-based parsing
accepted ``12x`` as 12 and aborted on ``abc``), zero must be rejected
where a count is structurally positive, and every rejection must point
the user at ``--help``. The garbage and negative cases of every
numeric flag are derived from the ``--help`` listing, so a new flag is
covered without a new line here. It also checks that every command
answers ``--help`` with exit 0 and its help block.

Stdlib only; no third-party packages. Usage:

    python3 tools/cli_errors_test.py --cli build/tools/ppa_cli

Exit status 0 when every case behaves as specified, 1 otherwise.
"""

import argparse
import re
import subprocess
import sys

# (argv suffix, required diagnostic substring). Every case must exit
# nonzero and print the substring on stdout or stderr. Garbage and
# negative values of each numeric flag come from numeric_cases(); these
# are the cases the --help listing cannot derive.
CASES = [
    # fuzz campaign numerics: zero and garbage.
    (["fuzz", "run", "--programs", "0"], "--programs must be positive"),
    (["fuzz", "run", "--schedules", "0"], "--schedules must be positive"),
    (["fuzz", "run", "--seed", "12x"], "--seed wants an unsigned integer"),
    # trailing garbage must not be coerced.
    (["run", "--app", "gcc", "--fail-at-cycle", "0"],
     "--fail-at-cycle must be positive"),
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
    # run numerics: trailing garbage was dropped, and zero passed.
    (["run", "--app", "gcc", "--insts", "0"], "--insts must be positive"),
    (["run", "--app", "gcc", "--wpq", "4x"],
     "--wpq wants an unsigned integer"),
    (["run", "--app", "gcc", "--csq", "0"], "--csq must be positive"),
    # a value above UINT_MAX must not wrap to 0 past that check.
    (["run", "--app", "gcc", "--csq", "4294967296"],
     "--csq is out of range"),
    (["run", "--app", "gcc", "--bw", "0"], "--bw must be positive"),
    (["run", "--app", "gcc", "--seed", "7x"],
     "--seed wants an unsigned integer"),
    (["run", "--app", "gcc", "--telemetry-sample", "0"],
     "--telemetry-sample must be positive"),
    # profile and trace numerics share the same parser.
    (["profile", "gcc", "--insts", "12x"],
     "--insts wants an unsigned integer"),
    (["trace", "record", "--app", "gcc", "--out",
      "/nonexistent/ppa-trace", "--insts", "0"],
     "--insts must be positive"),
    (["trace", "cat", "/nonexistent/ppa-trace", "--limit", "x"],
     "--limit wants an unsigned integer"),
    # sweep numerics: trailing garbage must not be coerced.
    (["sweep", "fig11", "--jobs", "4x"], "--jobs wants an unsigned integer"),
    (["sweep", "fig11", "--seed", "12x"], "--seed wants an unsigned integer"),
    # litmus numerics share the same parser; --schedules and --seed
    # belong to explore only.
    (["litmus", "explore", "--schedules", "0"],
     "--schedules must be positive"),
    (["litmus", "explore", "--seed", ""], "--seed wants an unsigned integer"),
    (["litmus", "run", "mp", "--schedules", "5"],
     "unknown litmus run option '--schedules'"),
    (["litmus", "run", "mp", "--seed", "9"],
     "unknown litmus run option '--seed'"),
    (["litmus", "run", "mp", "--all"],
     "name tests or pass --all, not both"),
    # structural errors: unknown verbs, unreadable reproducers.
    (["fuzz", "bogus"], "unknown fuzz subcommand"),
    (["fuzz", "repro", "/nonexistent/ppa-fuzz-missing.litmus"],
     "cannot open"),
    # serve: a vacuous request count, malformed reals, and structural
    # token/range errors.
    (["serve", "--ops", "0"], "--ops must be positive"),
    (["serve", "--ops", "100x"], "--ops wants an unsigned integer"),
    (["serve", "--skew", "0.9oops"], "--skew wants a non-negative number"),
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
    # the bursty-only knobs are rejected, not ignored, under Poisson.
    (["serve", "--ops", "200", "--failures", "1", "--workers", "1",
      "--on-fraction", "7", "--burst-factor", "9"],
     "--on-fraction applies only to --arrival bursty"),
    (["serve", "--telemetry-trace", "/tmp/x.json"],
     "--telemetry-trace requires --telemetry"),
    # stray positionals are rejected, not ignored.
    (["trace", "info", "/nonexistent/ppa-trace", "extra"],
     "unexpected argument 'extra'"),
    (["trace", "verify", "/nonexistent/ppa-trace", "extra"],
     "unexpected argument 'extra'"),
    (["litmus", "list", "extra"], "unexpected argument 'extra'"),
    # a flag at the end of the line without its value.
    (["run", "--app"], "missing value for --app"),
    (["serve", "--ops"], "missing value for --ops"),
]

# Help invocations the --help listing cannot name: a verb's --help
# after its positional. The rest come from help_cases().
EXTRA_HELP_CASES = [
    (["trace", "cat", "/nonexistent/ppa-trace", "--help"],
     "subcommand: trace"),
]


def help_cases(cli):
    """(argv suffix, required header) for every subcommand and verb that
    `ppa_cli --help` lists: each must answer --help with exit 0 and its
    subcommand's help block. A new command is covered automatically."""
    proc = subprocess.run([cli, "--help"], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=60)
    cases = []
    for line in proc.stdout.splitlines():
        m = re.match(r"subcommand: (\S+)", line)
        if m:
            group = m.group(1)
            cases.append(([group, "--help"], f"subcommand: {group}"))
            continue
        m = re.match(r"  ppa_cli (\S+) ([a-z]+)\b", line)
        if m and cases and m.group(1) == cases[-1][0][0]:
            cases.append(([m.group(1), m.group(2), "--help"],
                          f"subcommand: {m.group(1)}"))
    return cases + EXTRA_HELP_CASES


# --help metavars of the numeric flags, and what each parser says to a
# value it rejects.
NUMERIC_METAVARS = {
    "N": "wants an unsigned integer",
    "K": "wants an unsigned integer",
    "T": "wants an unsigned integer",
    "I": "wants an unsigned integer",
    "G": "wants a non-negative number",
    "S": "wants a non-negative number",
    "F": "wants a non-negative number",
}


def numeric_cases(cli):
    """(argv suffix, required diagnostic) for every numeric flag that
    `ppa_cli --help` lists: garbage (`abc`) and a negative (`-1`) must
    be rejected by the flag's parser. A flag whose help starts with
    "VERB:" goes to that verb of its group, any other to the group's
    first verb. A new numeric flag is covered automatically."""
    proc = subprocess.run([cli, "--help"], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=60)
    cases = []
    group, verbs = None, []
    for line in proc.stdout.splitlines():
        m = re.match(r"subcommand: (\S+)", line)
        if m:
            group, verbs = m.group(1), []
            continue
        m = re.match(r"  ppa_cli (\S+) ([a-z]+)\b", line)
        if m and m.group(1) == group:
            verbs.append(m.group(2))
            continue
        m = re.match(r"  (--[a-z-]+) ([A-Z]) +(?:([a-z]+):)?", line)
        if not m or m.group(2) not in NUMERIC_METAVARS:
            continue
        flag, metavar, verb = m.groups()
        argv = [group]
        if verbs:
            argv.append(verb if verb in verbs else verbs[0])
        for bad in ("abc", "-1"):
            cases.append((argv + [flag, bad],
                          f"{flag} {NUMERIC_METAVARS[metavar]}"))
    return cases


def run_case(cli, argv, needle, want_success=False):
    try:
        proc = subprocess.run(
            [cli] + argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=60,
        )
    except subprocess.TimeoutExpired:
        return f"{' '.join(argv)}: still running after 60 s"
    if want_success and proc.returncode != 0:
        return f"{' '.join(argv)}: expected exit 0, got {proc.returncode}"
    if not want_success and proc.returncode == 0:
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
    numeric = numeric_cases(args.cli)
    if not numeric:
        problems.append("ppa_cli --help lists no numeric flag")
    for argv, needle in CASES + numeric:
        err = run_case(args.cli, argv, needle)
        if err:
            problems.append(err)
    helps = help_cases(args.cli)
    if len(helps) == len(EXTRA_HELP_CASES):
        problems.append("ppa_cli --help lists no subcommand")
    for argv, header in helps:
        err = run_case(args.cli, argv, header, want_success=True)
        if err:
            problems.append(err)

    for p in problems:
        print(f"cli_errors_test: {p}", file=sys.stderr)
    if problems:
        return 1
    print(f"cli_errors_test: OK — {len(CASES) + len(numeric)} malformed "
          "invocations "
          f"all rejected with diagnostics, {len(helps)} --help "
          "invocations answered")
    return 0


if __name__ == "__main__":
    sys.exit(main())

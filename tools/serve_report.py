#!/usr/bin/env python3
"""Render serve-study JSON into a per-variant comparison table.

Consumes one or more documents produced by ``ppa_cli serve --json``
(schemaVersion 2, kind "serve") and prints, per durability variant:
completed requests, achieved vs offered throughput, tail latency
(p50/p95/p99/p99.9/p99.99), and the failure study's recovery-time,
data-loss-window, and lost-request medians/maxima.

Sanity checks (any failure exits 1 with a diagnostic):

* every variant completed its configured request count;
* latency percentiles are monotone (p50 <= p95 <= ... <= max);
* durable + lost == completed at every injected failure point;
* the per-point loss windows never exceed the crash cycle.

Stdlib only; no third-party packages. Usage:

    python3 tools/serve_report.py results/serve_*.json

Exit status 0 when every document is consistent, 1 otherwise.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"serve_report: cannot read {path}: {exc}")
    if doc.get("schemaVersion") != 2:
        sys.exit(
            f"serve_report: {path}: unsupported schemaVersion "
            f"{doc.get('schemaVersion')!r}"
        )
    if doc.get("kind") != "serve" or "serve" not in doc:
        sys.exit(f"serve_report: {path}: not a serve document")
    for key in ("config", "variants"):
        if key not in doc["serve"]:
            sys.exit(f"serve_report: {path}: missing serve.{key}")
    return doc


def check_variant(path, variant, problems):
    tag = f"{path}: {variant['variant']}"
    s = variant["stats"]["serve"]
    if s["completed"] != s["requests"]:
        problems.append(
            f"{tag}: completed {s['completed']} of {s['requests']} requests"
        )
    lat = s["latency"]
    quantiles = [lat[k] for k in ("p50", "p95", "p99", "p999", "p9999")]
    quantiles.append(lat["max"])
    if quantiles != sorted(quantiles):
        problems.append(f"{tag}: latency percentiles not monotone {quantiles}")
    for point in s["failures"]["points"]:
        if (
            point["durableRequests"] + point["lostRequests"]
            != point["completedRequests"]
        ):
            problems.append(
                f"{tag}: cycle {point['cycle']}: durable "
                f"{point['durableRequests']} + lost {point['lostRequests']} "
                f"!= completed {point['completedRequests']}"
            )
        if point["lossWindow"] > point["cycle"]:
            problems.append(
                f"{tag}: cycle {point['cycle']}: loss window "
                f"{point['lossWindow']} exceeds the crash cycle"
            )


def rows_for(doc, path, problems):
    rows = []
    for variant in doc["serve"]["variants"]:
        check_variant(path, variant, problems)
        s = variant["stats"]["serve"]
        fails = s["failures"]
        lat = s["latency"]
        rows.append(
            [
                variant["variant"],
                s["workload"] if "workload" in s
                else doc["serve"]["config"]["workload"],
                str(s["completed"]),
                f"{s['achievedPerKcycle']:.2f}",
                f"{s['offeredPerKcycle']:.2f}",
                str(lat["p50"]),
                str(lat["p95"]),
                str(lat["p99"]),
                str(lat["p999"]),
                str(lat["p9999"]),
                str(fails["recovery"]["p50"]),
                str(fails["lossWindow"]["max"]),
                str(fails["lostRequests"]["max"]),
            ]
        )
    return rows


HEADERS = [
    "variant", "workload", "completed", "ach/kcyc", "off/kcyc",
    "p50", "p95", "p99", "p99.9", "p99.99",
    "recovery p50", "loss max", "lost max",
]


def render(rows):
    widths = [
        max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
        for i, h in enumerate(HEADERS)
    ]
    lines = [
        "| " + " | ".join(h.ljust(w) for h, w in zip(HEADERS, widths)) + " |",
        "|-" + "-|-".join("-" * w for w in widths) + "-|",
    ]
    for row in rows:
        lines.append(
            "| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |"
        )
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+", help="serve_*.json documents")
    args = ap.parse_args()

    problems = []
    rows = []
    points = 0
    for path in args.files:
        doc = load(path)
        rows.extend(rows_for(doc, path, problems))
        for variant in doc["serve"]["variants"]:
            points += len(variant["stats"]["serve"]["failures"]["points"])
    print(render(rows))

    for p in problems:
        print(f"serve_report: {p}", file=sys.stderr)
    if problems:
        return 1
    print(
        f"serve_report: OK — {len(rows)} variant row(s), "
        f"{points} injected failure point(s), all checks pass"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

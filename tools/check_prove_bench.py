#!/usr/bin/env python3
"""CI regression gate for BENCH_prove.json (written by bench/perf_prove).

Enforces, in order of severity:

 1. Identity (always, on any machine): every circuit must report
    "identical": true — the prove report and every refined analyzer
    report are byte-identical across perf_prove's repeated calls.  A
    divergent refinement is a determinism bug in the proof tier, never a
    perf tradeoff.

 2. Verdict-mix floors (always): the paper set must yield at least
    --min-confirmed confirmed findings AND --min-refuted refutations
    (defaults 1/1, per the acceptance bar: the exact tier both upholds
    real hazards and retires false positives).  A run where every
    verdict is "unknown" passes the identity gate while proving
    nothing; this catches it.

 3. Budget hygiene (always): summary-wide budget hits may not exceed
    --max-budget-hits (default 0).  The committed node budget is sized
    so the paper-table cones all resolve; a hit means a cone blew up.

 4. Throughput floor (always, on any machine): every circuit's
    run_prove call must prove at least MIN_TARGETS_PER_SEC (500) targets
    per second.  A proof target builds one short-lived BDD manager; the
    floor sits well below what any current machine reaches (about 3k/s
    on the slowest circuit) and far above the ~60/s a manager that
    allocates its full computed table up front reaches, so it catches
    set-up cost creeping back in without needing a matched machine.

 5. Baseline verdicts (only with --baseline, typically the committed
    BENCH_prove.json): verdict counts (total_targets / total_confirmed /
    total_refuted) must EQUAL the baseline's — proofs are deterministic
    functions of the code, so any change is a semantic change that
    should be reviewed and the baseline regenerated, not absorbed
    silently.

Exit codes: 0 pass, 1 gate failure, 2 bad invocation / unreadable input.
"""

import argparse
import json
import sys

MIN_TARGETS_PER_SEC = 500.0


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"check_prove_bench: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def check_identity(report, failures):
    for circuit in report.get("circuits", []):
        if not circuit.get("identical", False):
            failures.append(
                f"circuit '{circuit.get('name', '?')}' produced a "
                f"DIFFERENT refinement on a repeated call"
            )
    summary = report.get("summary", {})
    if "all_identical" in summary and not summary["all_identical"]:
        failures.append("summary.all_identical is false")


def check_verdicts(report, args, failures, notices):
    summary = report.get("summary", {})
    for key, floor in [
        ("total_confirmed", args.min_confirmed),
        ("total_refuted", args.min_refuted),
    ]:
        value = summary.get(key)
        if value is None:
            failures.append(f"summary is missing {key}")
        elif value < floor:
            failures.append(f"{key} = {value} is below the floor {floor}")
        else:
            notices.append(f"verdict floor ok: {key} = {value} >= {floor}")
    hits = sum(c.get("budget_hits", 0) for c in report.get("circuits", []))
    if hits > args.max_budget_hits:
        failures.append(
            f"{hits} budget hit(s) across the suite "
            f"(allowed <= {args.max_budget_hits}): a cone exceeded the "
            f"node budget the suite is sized for"
        )
    else:
        notices.append(f"budget ok: {hits} hit(s)")


def check_throughput(report, failures, notices):
    for circuit in report.get("circuits", []):
        name = circuit.get("name", "?")
        rate = circuit.get("targets_per_sec")
        if rate is None:
            failures.append(f"circuit '{name}' has no targets_per_sec")
        elif rate < MIN_TARGETS_PER_SEC:
            failures.append(
                f"circuit '{name}' proves {rate:.1f} targets/s, "
                f"below the floor {MIN_TARGETS_PER_SEC:g}"
            )
        else:
            notices.append(
                f"throughput ok: {name} {rate:.1f} targets/s"
            )


def check_baseline(report, baseline, failures, notices):
    if baseline.get("bench") != report.get("bench"):
        notices.append(
            f"baseline schema '{baseline.get('bench')}' != current "
            f"'{report.get('bench')}': skipping verdict comparison"
        )
        return
    # Verdict counts are deterministic in the code, not the machine:
    # exact equality or the baseline needs regenerating.
    for key in ("total_targets", "total_confirmed", "total_refuted"):
        cur = report.get("summary", {}).get(key)
        base = baseline.get("summary", {}).get(key)
        if cur is None or base is None:
            notices.append(f"skipping verdict diff for {key}: value missing")
            continue
        if cur != base:
            failures.append(
                f"{key} = {cur} != baseline {base}: proof semantics "
                f"changed — review and regenerate the baseline"
            )
        else:
            notices.append(f"verdicts match baseline: {key} = {cur}")


def main():
    parser = argparse.ArgumentParser(
        description="Gate BENCH_prove.json against identity, verdict-mix "
        "and throughput floors, and a committed baseline."
    )
    parser.add_argument("current", help="BENCH_prove.json from this run")
    parser.add_argument(
        "--baseline", help="committed BENCH_prove.json to diff against"
    )
    parser.add_argument(
        "--min-confirmed",
        type=int,
        default=1,
        help="floor for summary.total_confirmed (default 1)",
    )
    parser.add_argument(
        "--min-refuted",
        type=int,
        default=1,
        help="floor for summary.total_refuted (default 1)",
    )
    parser.add_argument(
        "--max-budget-hits",
        type=int,
        default=0,
        help="allowed budget hits across the suite (default 0)",
    )
    args = parser.parse_args()

    report = load(args.current)
    if report.get("bench") != "prove":
        print(
            f"check_prove_bench: {args.current} has bench="
            f"'{report.get('bench')}', expected 'prove'",
            file=sys.stderr,
        )
        sys.exit(2)

    failures, notices = [], []
    check_identity(report, failures)
    check_verdicts(report, args, failures, notices)
    check_throughput(report, failures, notices)
    if args.baseline:
        check_baseline(report, load(args.baseline), failures, notices)

    for line in notices:
        print(f"  note: {line}")
    for line in failures:
        print(f"  FAIL: {line}")
    if failures:
        print(f"check_prove_bench: {len(failures)} failure(s)")
        return 1
    print("check_prove_bench: pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())

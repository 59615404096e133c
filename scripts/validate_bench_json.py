#!/usr/bin/env python3
"""Validate a benchmark JSON document (schema oceanstore-bench-v1).

Used two ways:
  - ctest `bench_smoke_schema.*`: validate one per-bench smoke JSON;
  - scripts/bench.sh: validate every per-bench JSON before merging
    them into BENCH_oceanstore.json.

A metric named claim_* is a paper check (1 holds, 0 fails); a claim
that failed in any repeat makes the document invalid.  A case carries
its counter deltas as either "counters" (exact) or "wall_counters"
(wall-clock paced), never both.

Exit code 0 when valid, 1 with a diagnostic on stderr otherwise.
"""

import json
import sys

SCHEMA = "oceanstore-bench-v1"
STAT_KEYS = {"unit", "repeats", "mean", "min", "max", "p50", "p95"}


def fail(path, msg):
    print(f"{path}: {msg}", file=sys.stderr)
    return 1


def validate(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(path, f"unreadable or malformed JSON: {e}")

    if doc.get("schema") != SCHEMA:
        return fail(path, f"schema != {SCHEMA!r}: {doc.get('schema')!r}")
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        return fail(path, "missing bench name")
    for key in ("smoke",):
        if not isinstance(doc.get(key), bool):
            return fail(path, f"missing boolean field {key!r}")
    for key in ("repeats", "warmup"):
        if not isinstance(doc.get(key), int) or doc[key] < 0:
            return fail(path, f"missing non-negative int field {key!r}")

    cases = doc.get("cases")
    if not isinstance(cases, dict) or not cases:
        return fail(path, "cases must be a non-empty object")
    for cname, case in cases.items():
        metrics = case.get("metrics") if isinstance(case, dict) else None
        if not isinstance(metrics, dict) or not metrics:
            return fail(path, f"case {cname!r}: missing metrics")
        if "wall_ms" not in metrics:
            return fail(path, f"case {cname!r}: missing wall_ms metric")
        if "counters" in case and "wall_counters" in case:
            return fail(path, f"case {cname!r}: both counters and "
                              "wall_counters")
        for mname, st in metrics.items():
            if not isinstance(st, dict):
                return fail(path, f"{cname}/{mname}: not an object")
            missing = STAT_KEYS - st.keys()
            if missing:
                return fail(
                    path, f"{cname}/{mname}: missing {sorted(missing)}")
            if not isinstance(st["unit"], str):
                return fail(path, f"{cname}/{mname}: unit not a string")
            if not isinstance(st["repeats"], int) or st["repeats"] < 1:
                return fail(path, f"{cname}/{mname}: bad repeats")
            for k in ("mean", "min", "max", "p50", "p95"):
                if not isinstance(st[k], (int, float)):
                    return fail(path, f"{cname}/{mname}: {k} not numeric")
            if st["min"] > st["max"]:
                return fail(path, f"{cname}/{mname}: min > max")
            if mname.startswith("claim_") and st["min"] < 1:
                return fail(path, f"{cname}/{mname}: failed")
    return 0


def main(argv):
    if len(argv) < 2:
        print("usage: validate_bench_json.py FILE...", file=sys.stderr)
        return 2
    rc = 0
    for path in argv[1:]:
        rc |= validate(path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))

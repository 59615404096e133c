#!/usr/bin/env python3
"""Merge per-bench runner JSONs into BENCH_oceanstore.json.

usage: merge_bench_json.py OUTPUT INPUT...

Each INPUT is one bench binary's --json output (schema
oceanstore-bench-v1, already validated by validate_bench_json.py).
"""

import json
import sys


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    out_path = argv[1]

    benches = {}
    for path in argv[2:]:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        name = doc["bench"]
        benches[name] = {
            "smoke": doc["smoke"],
            "repeats": doc["repeats"],
            "warmup": doc["warmup"],
            "cases": doc["cases"],
        }

    merged = {
        "schema": "oceanstore-bench-merged-v1",
        "benches": benches,
    }
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(merged, f, indent=2, sort_keys=True)
        f.write("\n")

    for name in sorted(benches):
        for cname, case in sorted(benches[name]["cases"].items()):
            wall = case["metrics"]["wall_ms"]
            print(f"{name}/{cname}: wall p50 {wall['p50']:.4g} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

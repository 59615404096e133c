#!/usr/bin/env python3
"""Print every exact bench counter that differs between two merged
bench JSONs (schema oceanstore-bench-merged-v1, as scripts/bench.sh
writes BENCH_oceanstore.json).

usage: counters_diff.py A.json B.json

Compares each case's "counters" object, counter by counter; a counter
(or a whole case or bench) present on one side only is a difference.
"wall_counters" (wall-clock paced cases, which move between two runs
of one commit) and metrics are ignored.  Each difference prints as
`bench/case/counter: A -> B`.

Exit code 0 when every counter matches, 1 on any difference, 2 on a
usage error or an unreadable input.
"""

import json
import sys

SCHEMA = "oceanstore-bench-merged-v1"


def load_counters(path):
    """{(bench, case, counter): value} of @p path's exact counters."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"schema != {SCHEMA!r}: {doc.get('schema')!r}")
    out = {}
    for bench, b in doc["benches"].items():
        for case, c in b["cases"].items():
            for counter, value in c.get("counters", {}).items():
                out[(bench, case, counter)] = value
    return out


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        a = load_counters(argv[1])
        b = load_counters(argv[2])
    except (OSError, ValueError, KeyError, AttributeError) as e:
        print(f"counters_diff: {e}", file=sys.stderr)
        return 2

    differ = 0
    for key in sorted(a.keys() | b.keys()):
        va, vb = a.get(key, "absent"), b.get(key, "absent")
        if va != vb:
            print(f"{'/'.join(key)}: {va} -> {vb}")
            differ += 1
    if differ:
        print(f"counters_diff: {differ} of {len(a.keys() | b.keys())} "
              "counters differ", file=sys.stderr)
        return 1
    print(f"counters_diff: all {len(a)} counters match")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""Compare two commits on the end-to-end benchmark in alternating pairs.

Usage, from anywhere inside a git checkout of the repository:

    python3 scripts/bench_pairs.py --workloads geo_sim,serve_small \\
        --seeds 701-706 [--seconds 10] [--trace 0|1] [--base HEAD~1] \\
        [--head HEAD] [--workdir DIR] [--keep] [--jsonl FILE]

The base and head commits are checked out into two `git worktree`s
under DIR (default: .bench_pairs/ at the repository root); worktrees
left there by an earlier --keep run are reused, builds included.  A
reused tree with uncommitted changes stops the script (exit 2) rather
than having them overwritten by the checkout.  For each
workload and seed the script runs `python3 perfbench/run.py` once in
each worktree, alternating which side goes first, so slow drift of the
machine falls on both sides.  `--trace 1` passes `--trace 1` to every
run, so the pairs compare the per-layer metrics a traced run reports
(`pbft.msgs_per_write`, `obs.trace_overhead_frac`, ...) instead of the
end-to-end ones.  Each worktree builds its own Release
binary on first use (perfbench/run.py does that); the build is not part
of any timed number.

For every metric it prints the base and head medians, the change, the
base interquartile range and in how many pairs head was better ("same"
when every pair was bit-identical; "-" for metrics whose direction
BENCHMARK.json declares in neither `end_to_end` nor `per_layer`).  Extras printed by the benchmark
(e.g. `counts_digest`) are compared too.

After each workload's table it prints, for each side, the `attempted`
and `failed` operation counts summed over that side's runs and the
failed share.

Exit status: 0 when every run completed and was correct; 1 when a run
failed, reported incorrect bytes, failed a larger share of its
operations on head than on base (summed over a workload's runs), or,
on geo_sim, printed a different `counts_digest` for base and head on
any seed (geo_sim is deterministic per seed, so a digest change means
the change altered behaviour); 2 on usage errors.  The worktrees are removed at the end unless --keep.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def fail(msg):
    print("bench_pairs.py: " + msg, file=sys.stderr)
    sys.exit(2)


def git(*args, cwd=None):
    out = subprocess.run(["git", *args], cwd=cwd, capture_output=True,
                         text=True)
    if out.returncode != 0:
        fail("git " + " ".join(args) + ": " + out.stderr.strip())
    return out.stdout.strip()


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        elif part:
            seeds.append(int(part))
    if not seeds:
        fail("no seeds in " + repr(text))
    return seeds


def run_once(tree, workload, seed, seconds, trace):
    """One perfbench run; returns (metrics, extras, ok, counts), where
    counts is (attempted, failed) from the run's JSON."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return {}, {}, False, (0, 0)
    doc = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in doc["metrics"].items()}
    extras = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 3 and fields[0] == "extra":
            extras[fields[1]] = float(fields[2])
    counts = (int(doc.get("attempted", 0)), int(doc.get("failed", 0)))
    return metrics, extras, bool(doc.get("correct")), counts


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def report(workload, pairs, better):
    """Print one table per workload from [(base, head)] dicts."""
    names = []
    for base, head in pairs:
        for k in list(base) + list(head):
            if k not in names:
                names.append(k)
    print(f"\n{workload}: {len(pairs)} pairs")
    print(f"  {'metric':<28} {'base':>12} {'head':>12} {'change':>8} "
          f"{'base IQR':>10} {'better':>7}")
    for name in names:
        both = [(b[name], h[name]) for b, h in pairs
                if name in b and name in h]
        if not both:
            continue
        bs = [b for b, _ in both]
        hs = [h for _, h in both]
        mb, mh = statistics.median(bs), statistics.median(hs)
        q1, q3 = quartiles(bs)
        change = f"{(mh - mb) / mb * 100:+.1f}%" if mb else "-"
        if bs == hs:
            tally = "same"
        elif name in better:
            sign = 1 if better[name] == "higher" else -1
            wins = sum(1 for b, h in both if sign * (h - b) > 0)
            tally = f"{wins}/{len(both)}"
        else:
            tally = "-"
        print(f"  {name:<28} {mb:>12.6g} {mh:>12.6g} {change:>8} "
              f"{q3 - q1:>10.4g} {tally:>7}")


def failed_share(workload, counts):
    """Print each side's summed attempted/failed counts and failed
    share; return False when head fails a larger share than base."""
    share = {}
    for side in ("base", "head"):
        attempted, failed = counts[side]
        share[side] = failed / attempted if attempted else 0.0
        print(f"  {side} ops: attempted {attempted} failed {failed} "
              f"failed share {share[side]:.6f}")
    if share["head"] > share["base"]:
        print(f"{workload}: head fails a larger share of operations "
              f"({share['head']:.6f} vs {share['base']:.6f})",
              file=sys.stderr)
        return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True,
                    help="comma-separated perfbench workloads")
    ap.add_argument("--seeds", required=True,
                    help="seeds, e.g. 701-706 or 1,5,9")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0,
                    help="1: traced runs, which report per-layer metrics")
    ap.add_argument("--base", default="HEAD~1")
    ap.add_argument("--head", default="HEAD")
    ap.add_argument("--workdir", default=None)
    ap.add_argument("--keep", action="store_true",
                    help="leave the worktrees (and their builds) in place")
    ap.add_argument("--jsonl", default=None,
                    help="also append every run, one JSON line each")
    args = ap.parse_args()

    root = git("rev-parse", "--show-toplevel")
    workdir = os.path.abspath(args.workdir or
                              os.path.join(root, ".bench_pairs"))
    workloads = [w for w in args.workloads.split(",") if w]
    seeds = parse_seeds(args.seeds)

    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    better = {m["name"]: m["better"]
              for group in ("end_to_end", "per_layer")
              for m in declared.get(group, [])}

    sides = {}
    for side, rev in (("base", args.base), ("head", args.head)):
        sha = git("rev-parse", "--verify", rev + "^{commit}", cwd=root)
        tree = os.path.join(workdir, side)
        if os.path.isdir(tree):
            # Kept by an earlier --keep run: reuse it and its build,
            # but never force a checkout over uncommitted edits.
            dirty = git("status", "--porcelain", cwd=tree)
            if dirty:
                fail(f"{tree} has uncommitted changes; commit or "
                     f"discard them first:\n{dirty}")
            git("checkout", "--detach", "--force", sha, cwd=tree)
        else:
            os.makedirs(workdir, exist_ok=True)
            git("worktree", "add", "--detach", tree, sha, cwd=root)
        sides[side] = tree
        print(f"{side}: {sha[:12]} in {tree}", file=sys.stderr)

    ok = True
    try:
        for workload in workloads:
            pairs = []
            counts = {"base": (0, 0), "head": (0, 0)}
            for i, seed in enumerate(seeds):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                got = {}
                for side in order:
                    metrics, extras, correct, (tried, failed) = run_once(
                        sides[side], workload, seed, args.seconds,
                        args.trace)
                    counts[side] = (counts[side][0] + tried,
                                    counts[side][1] + failed)
                    if not metrics or not correct:
                        print(f"{workload} seed {seed}: {side} run failed",
                              file=sys.stderr)
                        ok = False
                    got[side] = (metrics, extras)
                    if args.jsonl:
                        with open(args.jsonl, "a", encoding="utf-8") as f:
                            f.write(json.dumps({
                                "workload": workload, "seed": seed,
                                "side": side, "correct": correct,
                                "attempted": tried, "failed": failed,
                                "metrics": metrics, "extras": extras}) + "\n")
                    print(f"{workload} seed {seed} {side}: "
                          f"ops_per_s={metrics.get('ops_per_s')} "
                          f"failed={failed}/{tried}", file=sys.stderr)
                (bm, bx), (hm, hx) = got["base"], got["head"]
                if workload == "geo_sim" and \
                        bx.get("counts_digest") != hx.get("counts_digest"):
                    print(f"geo_sim seed {seed}: counts_digest differs "
                          f"({bx.get('counts_digest')} vs "
                          f"{hx.get('counts_digest')})", file=sys.stderr)
                    ok = False
                pairs.append(({**bm, **{"extra." + k: v
                                         for k, v in bx.items()}},
                              {**hm, **{"extra." + k: v
                                        for k, v in hx.items()}}))
            report(workload, pairs, better)
            ok = failed_share(workload, counts) and ok
    finally:
        if not args.keep:
            for tree in sides.values():
                git("worktree", "remove", "--force", tree, cwd=root)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

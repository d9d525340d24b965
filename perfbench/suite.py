#!/usr/bin/env python3
"""Runs the benchmark over several workloads and seeds, and compares two
result sets.

    python3 perfbench/suite.py run --label NAME [--workloads uploads,routed,release]
                                   [--seeds 1-10] [--seconds 10] [--trace 0|1]
    python3 perfbench/suite.py spread NAME
    python3 perfbench/suite.py compare BASE CHANGE

`run` builds and runs the benchmark once per (workload, seed), prints each
run's table, keeps each run record under perfbench/out/runs/NAME/, and
exits non-zero when any run fails a correctness gate. `spread` prints, per
(metric, workload), the median, the quartiles and the interquartile range
as a share of the median. `compare` pairs the runs of two result sets by
(workload, seed) and prints a verdict for every (metric, workload):

  improved    the change wins at least 9 of 10 pairs and the medians differ
              by more than the parent's interquartile range
  worse       the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the parent's own spread is wider than the bound, and not
              every change run reads better than every parent run
  no worse    otherwise

Bounds come from BENCHMARK.json for the metrics it gates and from
perfbench/metrics.json for the rest.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "out" / "runs"
WORKLOADS = ["uploads", "routed", "release"]


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def catalog():
    """name -> {"unit", "better", "bound"} for every end-to-end metric."""
    out = {}
    for m in json.loads((HERE / "metrics.json").read_text())["end_to_end"]:
        out[m["name"]] = m
    bench = ROOT / "BENCHMARK.json"
    if bench.exists():
        for m in json.loads(bench.read_text())["end_to_end"]:
            out[m["name"]] = m
    return out


def cmd_run(args):
    dest = RUNS / args.label
    dest.mkdir(parents=True, exist_ok=True)
    ok = True
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            cmd = ["cargo", "run", "--release", "--quiet", "--offline",
                   "--manifest-path", str(HERE / "Cargo.toml"), "--",
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            stem = f"{workload}-s{seed}-t{args.trace}"
            record = HERE / "out" / f"{stem}.json"
            if proc.returncode != 0 or not record.exists():
                print(f"run {stem}: FAILED (exit {proc.returncode})")
                ok = False
                continue
            shutil.copy(record, dest / record.name)
            spans = HERE / "out" / f"{stem}.spans.tsv"
            if spans.exists():
                shutil.copy(spans, dest / spans.name)
    if not ok:
        sys.exit(1)


def load(label):
    runs = {}
    for path in sorted((RUNS / label).glob("*.json")):
        r = json.loads(path.read_text())
        runs[(r["workload"], r["seed"], r["trace"])] = r
    if not runs:
        sys.exit(f"no run records under {RUNS / label}")
    return runs


def values(runs):
    """(workload, metric) -> {seed: value} over the untraced runs."""
    out = {}
    for (workload, seed, traced), r in runs.items():
        if traced:
            continue
        for group in ("e2e", "common"):
            for name, m in r[group].items():
                out.setdefault((workload, name), {})[seed] = m["value"]
    return out


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, med, q3 = statistics.quantiles(v, n=4)
    return q1, med, q3


def cmd_spread(args):
    runs = load(args.label)
    cat = catalog()
    print(f"{'workload':<9} {'metric':<22} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'iqr/med':>8} {'bound':>6} runs")
    for (workload, name), by_seed in sorted(values(runs).items()):
        v = list(by_seed.values())
        q1, med, q3 = quartiles(v)
        if med:
            rel = (q3 - q1) / abs(med)
        else:
            rel = 0.0 if q3 == q1 else float("inf")
        bound = cat.get(name, {}).get("bound")
        flag = ""
        if bound is not None and name != "setup_s" and rel > bound / 3:
            flag = "  > bound/3"
        print(f"{workload:<9} {name:<22} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} "
              f"{rel:>8.4f} {bound if bound is not None else '-':>6} {len(v)}{flag}")


def verdict(parent, change, better, bound):
    seeds = sorted(set(parent) & set(change))
    if not seeds:
        return "no pairs", 0, 0
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    pv, cv = list(parent.values()), list(change.values())
    pq1, pmed, pq3 = quartiles(pv)
    _, cmed, _ = quartiles(cv)
    gain = sign * (cmed - pmed)
    if wins >= 0.9 * len(seeds) and gain > pq3 - pq1:
        return "improved", wins, len(seeds)
    scale = abs(pmed) if pmed else 1.0
    all_better = all(sign * (c - p) > 0 for c in cv for p in pv)
    if (pq3 - pq1) / scale > bound and not all_better:
        return "unresolved", wins, len(seeds)
    if -gain / scale > bound:
        return "worse", wins, len(seeds)
    return "no worse", wins, len(seeds)


def cmd_compare(args):
    base, change = load(args.base), load(args.change)
    cat = catalog()
    bv, cv = values(base), values(change)
    print(f"{'workload':<9} {'metric':<22} {'base median [q1, q3]':>40} "
          f"{'change median [q1, q3]':>40}  wins  verdict")
    for key in sorted(set(bv) & set(cv)):
        workload, name = key
        m = cat.get(name)
        if m is None:
            continue
        b = quartiles(list(bv[key].values()))
        c = quartiles(list(cv[key].values()))
        v, wins, n = verdict(bv[key], cv[key], m["better"], m["bound"])
        fmt = lambda q: f"{q[1]:.4f} [{q[0]:.4f}, {q[2]:.4f}]"
        print(f"{workload:<9} {name:<22} {fmt(b):>40} {fmt(c):>40}  {wins:>2}/{n:<2} {v}")
    for label, runs in ((args.base, base), (args.change, change)):
        attempted = sum(r["attempted"] for r in runs.values() if not r["trace"])
        failed = sum(r["failed"] for r in runs.values() if not r["trace"])
        print(f"failed_frac {label}: {failed}/{attempted} = "
              f"{failed / attempted if attempted else 0.0:.6f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--label", required=True)
    r.add_argument("--workloads", default=",".join(WORKLOADS))
    r.add_argument("--seeds", default="1")
    r.add_argument("--seconds", type=int, default=10)
    r.add_argument("--trace", type=int, choices=[0, 1], default=0)
    s = sub.add_parser("spread")
    s.add_argument("label")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("change")
    args = ap.parse_args()
    {"run": cmd_run, "spread": cmd_spread, "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    main()

"""Steadiness check: runs sets of benchmark runs of one commit and reports
whether they agree within the bounds in BENCHMARK.json.

    python3 bench/steady.py --workload mdl --runs 10 --sets 2
    python3 bench/steady.py --workload all --runs 5 --sets 1     # spreads only

Each set runs `--runs` seeds, one process each, one after another; every set
uses the same seeds.  For each end-to-end metric it reports the median and
the spread (distance between the first and third quartile as a share of the
median) of every set.  Every run measures for BENCHMARK.json's run_seconds.
A set agrees when every spread stays within the metric's bound; two sets
agree when, in addition, no median is worse than the first set's by more
than the bound, the share of failed operations is the same, and
queries_per_trial and samples_per_trial are identical seed by seed.  Exit
code 0 when everything agrees, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT = ("queries_per_trial", "samples_per_trial")


def run_once(workload, seed, seconds) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    # the unscaled wall-time figures, for comparison with the scaled ones
    res["unscaled"] = {k: float(v) for line in lines if line.startswith("unscaled ")
                       for k, v in (kv.split("=") for kv in line.split()[1:])}
    return res


def spread(values) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def check_workload(workload, spec, args) -> bool:
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    sets = []
    for s in range(args.sets):
        runs = []
        for seed in seeds:
            res = run_once(workload, seed, spec["run_seconds"])
            runs.append(res)
            print(f"{workload} set {s + 1} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)
        sets.append(runs)

    ok = True
    for s, runs in enumerate(sets):
        if not all(r["correct"] for r in runs):
            print(f"{workload} set {s + 1}: a run reported correct=false")
            ok = False
    shares = [[r["failed"] / r["attempted"] for r in runs] for runs in sets]
    if len({x for share in shares for x in share}) > 1:
        print(f"{workload}: failed shares differ between runs: {shares}")
        ok = False

    print(f"{'metric':<20} {'bound':>6} " + " ".join(f"{'median' + str(i + 1):>12} "
                                                   f"{'spread' + str(i + 1):>8}"
                                                   for i in range(len(sets))) + "  verdict")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
        meds = [statistics.median(v) for v in values]
        spreads = [spread(v) for v in values]
        verdict = []
        if any(sp > bound for sp in spreads):
            verdict.append("spread over bound")
        for med in meds[1:]:
            worse = (med - meds[0]) / meds[0]
            if m["better"] == "higher":
                worse = -worse
            if worse > bound:
                verdict.append(f"median worse by {worse:.1%}")
        if name in EXACT and len(values) > 1 and any(v != values[0] for v in values[1:]):
            verdict.append("counts differ seed by seed")
        ok = ok and not verdict
        print(f"{name:<20} {bound:>6.3f} " + " ".join(f"{med:>12.6g} {sp:>8.2%}"
                                                     for med, sp in zip(meds, spreads))
              + "  " + ("; ".join(verdict) if verdict else "ok"))
    for name in sets[0][0]["unscaled"]:
        values = [[r["unscaled"][name] for r in runs] for runs in sets]
        print(f"{'unscaled ' + name:<27} " + " ".join(
            f"{statistics.median(v):>12.6g} {spread(v):>8.2%}" for v in values))
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        ok = check_workload(name, spec, args) and ok
    print("AGREE" if ok else "DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

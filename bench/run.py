"""Fixed-seed benchmark of the sublintest testers and the exact/collision lab.

    python3 bench/run.py --workload order|mdl|dl|lab --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --smoke --seconds 1   # every workload, small sizes

Builds the workload's corpus from the seed (several times, to time set-up),
then repeats whole rounds of the same operations until S seconds have passed
(default: `run_seconds` in BENCHMARK.json).
Each round is identical, so every round's verdicts and ledgers must repeat
exactly.  Prints every metric by name with its unit and the result of every
check; the last line is one JSON object with `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with --trace 0, per-layer metrics
with --trace 1).  The program is imported from src/ next to this directory;
without it the command exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("core", "oracles", "dlmodel", "instances", "total_order", "mdl", "dl",
           "exact", "birthday", "harness")

# Machine-speed calibration.  On a shared virtual machine the same interpreter
# work runs up to half again as slow for seconds to minutes at a time, which
# moves every wall time of a run together.  A fixed pure-Python loop is timed
# between operations (at most every CAL_EVERY_S); the median time of the
# CAL_NEAR loops before an operation and the CAL_NEAR after it, against
# CAL_REF_S, is the speed factor around that operation, and its time is divided
# by it.  The program never runs inside the loop, so a change to the program
# moves the scaled figures as it moves the raw ones.
CAL_ITERS = 100_000
CAL_REF_S = 0.010
CAL_EVERY_S = 0.2
CAL_NEAR = 5
# Set-up: SETUP_CAL calibration loops run before each timed import and corpus
# build and after the last; each is divided by the speed factor around it, and
# setup_s is the median of IMPORT_REPEATS scaled imports plus the median of
# SETUP_REPEATS scaled builds.
SETUP_REPEATS = 7
IMPORT_REPEATS = 5
SETUP_CAL = 3
# Times the program's import in a fresh interpreter: argv is src/, this
# directory, then the modules to import.
IMPORT_PROBE = """
import importlib, sys, time
t = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
for name in sys.argv[3:]:
    importlib.import_module(name)
print(time.perf_counter() - t)
"""


class Speed:
    """Calibration samples of one run."""

    def __init__(self):
        self.samples: list[float] = []
        self.times: list[float] = []   # when each sample ended
        self.last = float("-inf")

    def sample(self, force=False):
        if force or time.perf_counter() - self.last >= CAL_EVERY_S:
            t = time.perf_counter()
            acc = 0
            for i in range(CAL_ITERS):
                acc += i * i % 7
            self.last = time.perf_counter()
            self.samples.append(self.last - t)
            self.times.append(self.last)

    def burst(self, n: int) -> None:
        for _ in range(n):
            self.sample(force=True)

    def factor(self) -> float:
        return statistics.median(self.samples) / CAL_REF_S

    def near(self, t: float) -> float:
        """The speed factor around time t."""
        i = bisect.bisect(self.times, t)
        return statistics.median(self.samples[max(0, i - CAL_NEAR):i + CAL_NEAR]) / CAL_REF_S


def load_program():
    """Import sublintest from this checkout's src/, or return None."""
    if not (SRC / "sublintest" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"sublintest.{name}") for name in MODULES}
    origin = Path(modules["core"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        return None
    return modules


def freeze_heap():
    """Move everything alive now (the corpus above all) out of the collector's
    reach, so collections in the timed phase walk only what the operations
    allocate rather than the benchmark's own long-lived corpus."""
    gc.collect()
    gc.freeze()


def run_op(op):
    """Run one operation: (seconds, result or None, failure messages)."""
    t0 = time.perf_counter()
    try:
        res = op.run()
    except Exception as exc:  # a failing operation is recorded, not fatal
        return time.perf_counter() - t0, None, [f"{op.label} raised {type(exc).__name__}: {exc}"]
    dt = time.perf_counter() - t0
    return dt, res, op.check(res)


class Tally:
    """Operation outcomes of one phase."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.op_seconds = 0.0
        self.timed: list[tuple[float, float, str | None]] = []   # (start, seconds, side)
        self.trial_ms = {"yes": [], "far": []}
        self.witness_kinds: dict = {}
        self.failures: list[str] = []

    def add(self, op, start, dt, res, fails):
        n = op.count(res) if res is not None else op.nominal
        self.attempted += n
        self.op_seconds += dt
        self.timed.append((start, dt, op.side))
        if fails:
            self.failed += n
            if len(self.failures) < 20:
                self.failures.extend(fails[:3])
        if op.side is not None:
            self.trial_ms[op.side].append(dt * 1000.0)
            verdict = res[1] if res is not None else None
            if verdict is not None and verdict.witness:
                kind = f"{op.label}:{verdict.witness[0]}"
                self.witness_kinds[kind] = self.witness_kinds.get(kind, 0) + 1


def run_round(ops, tally, reference, speed):
    """One pass over the corpus.  `reference` maps op index to the signature
    seen first; later passes must repeat it exactly."""
    results = []
    for i, op in enumerate(ops):
        speed.sample()
        start = time.perf_counter()
        dt, res, fails = run_op(op)
        if res is not None:
            sig = op.signature(res)
            if i not in reference:
                reference[i] = sig
            elif sig != reference[i]:
                fails = fails + [f"{op.label} op {i}: verdict/witness/ledger differ from "
                                 f"the first run of this operation"]
        tally.add(op, start, dt, res, fails)
        results.append(res)
    return results


def rate_checks(ops, results) -> list[tuple[str, bool, str]]:
    """2/3 guarantee on each side's tester trials of one round."""
    out = []
    for side, want in (("yes", "accept"), ("far", "reject")):
        rows = [r[0] for op, r in zip(ops, results) if op.side == side and r is not None]
        if not rows:
            continue
        hits = sum(1 for row in rows if row["verdict"] == want)
        out.append((f"{side} {want} rate >= 2/3", hits * 3 >= 2 * len(rows),
                    f"{hits}/{len(rows)}"))
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(correct, attempted, failed, metrics, units):
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(f"operations attempted={attempted} failed={failed}")
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed),
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bench_units():
    spec = bench_spec()
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def set_up(args, program, build, first_import_s):
    """Set-up, timed several times: the import (this process's, plus
    IMPORT_REPEATS - 1 in fresh interpreters) and SETUP_REPEATS corpus builds,
    each divided by the speed factor around it.  Returns the last corpus,
    setup_s (median scaled import plus median scaled build) and the same
    figure unscaled."""
    speed = Speed()
    names = [f"sublintest.{name}" for name in MODULES] + ["workloads"]
    # (start, seconds); the in-process import is placed just before the first loops
    imports = [(time.perf_counter(), first_import_s)]
    for _ in range(IMPORT_REPEATS - 1):
        speed.burst(SETUP_CAL)
        t = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE), *names],
                             capture_output=True, text=True, check=True, cwd=ROOT)
        imports.append((t, float(out.stdout)))
    builds = []
    for _ in range(SETUP_REPEATS):
        corpus = None  # drop the previous corpus: builds never overlap in memory
        speed.burst(SETUP_CAL)
        t = time.perf_counter()
        corpus = build(program, args.seed, args.smoke)
        builds.append((t, time.perf_counter() - t))
    speed.burst(SETUP_CAL)
    imports = [(dt, speed.near(t)) for t, dt in imports]
    builds = [(dt, speed.near(t)) for t, dt in builds]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
          f"{' smoke' if args.smoke else ''}: {len(corpus.ops)} operations per round")
    for note in corpus.notes:
        print(f"corpus {note}")
    print("set-up (seconds/speed factor): imports "
          + " ".join(f"{t:.3f}/{f:.3f}" for t, f in imports)
          + "; corpus builds " + " ".join(f"{t:.3f}/{f:.3f}" for t, f in builds))
    scaled = (statistics.median(t / f for t, f in imports)
              + statistics.median(t / f for t, f in builds))
    raw = statistics.median(t for t, _ in imports) + statistics.median(t for t, _ in builds)
    return corpus, scaled, raw


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("order", "mdl", "dl", "lab", "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench_spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small sizes, same checks")
    args = ap.parse_args(argv)

    if args.workload == "all":
        return run_all(args)

    t0 = time.perf_counter()
    modules = load_program()
    if modules is None:
        print(f"sublintest sources not found under {SRC}", file=sys.stderr)
        return 2
    import workloads
    import_s = time.perf_counter() - t0
    e2e_units, layer_units = bench_units()

    program = workloads.Program(modules)
    build = workloads.WORKLOADS[args.workload]
    corpus, setup_s, setup_raw = set_up(args, program, build, import_s)
    ops = corpus.ops
    freeze_heap()

    speed = Speed()
    if args.trace:
        return traced_run(args, modules, program, build, ops, layer_units, speed)

    tally, reference, first_results, round_s = timed_rounds(ops, args.seconds, speed)
    checks = rate_checks(ops, first_results)
    scaled_s = [dt / speed.near(t) for t, dt, _ in tally.timed]
    scaled_ms = {side: [1000.0 * x for x, (_, _, s) in zip(scaled_s, tally.timed) if s == side]
                 for side in ("yes", "far")}
    trial_all = scaled_ms["yes"] + scaled_ms["far"]
    print(f"{sum(round_s):.3f} s inside operations over {len(round_s)} rounds, "
          f"{len(trial_all)} tester trials; machine speed factor {speed.factor():.4f} "
          f"(median of {len(speed.samples)} calibration loops)")
    if len(trial_all) >= 100:
        p90 = statistics.quantiles(trial_all, n=10)[-1]
        print(f"trial_ms_p90 = {p90:.6g} ms over {len(trial_all)} trials")
    report_checks(checks, tally)

    trial_rows = [r[0] for op, r in zip(ops, first_results) if op.kind == "trial" and r]
    raw = {
        "setup_s": setup_raw,
        "ops_per_s": (tally.attempted - tally.failed) / tally.op_seconds,
        "yes_trial_ms_p50": statistics.median(tally.trial_ms["yes"]),
        "far_trial_ms_p50": statistics.median(tally.trial_ms["far"]),
    }
    print("unscaled " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": (tally.attempted - tally.failed) / sum(scaled_s),
        "yes_trial_ms_p50": statistics.median(scaled_ms["yes"]),
        "far_trial_ms_p50": statistics.median(scaled_ms["far"]),
        "queries_per_trial": statistics.fmean(r["queries"] for r in trial_rows),
        "samples_per_trial": statistics.fmean(r["samples"] for r in trial_rows),
        "peak_rss_mb": peak_rss_mb(),
    }
    emit(all(ok for _, ok, _ in checks), tally.attempted, tally.failed, metrics, e2e_units)
    return 0


def timed_rounds(ops, seconds, speed):
    """Whole rounds until `seconds` have passed (at least one).  Returns the
    tally, the reference signatures, the first round's results and the time
    each round spent inside operations."""
    tally = Tally()
    reference: dict = {}
    first_results = None
    round_s = []
    start = time.perf_counter()
    while not round_s or time.perf_counter() - start < seconds:
        before = tally.op_seconds
        results = run_round(ops, tally, reference, speed)
        round_s.append(tally.op_seconds - before)
        if first_results is None:
            first_results = results
    return tally, reference, first_results, round_s


def report_checks(checks, *tallies):
    for name, ok, detail in checks:
        print(f"check {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    print(f"check operations without failure: {'PASS' if not failed else 'FAIL'} "
          f"({attempted - failed}/{attempted})")
    kinds: dict = {}
    for t in tallies:
        for kind, n in t.witness_kinds.items():
            kinds[kind] = kinds.get(kind, 0) + n
    if kinds:
        print("rejection witnesses: " + ", ".join(f"{k} {n}" for k, n in sorted(kinds.items())))
    for t in tallies:
        for msg in t.failures:
            print(f"failure: {msg}")


def distinct(ops):
    """Each operation once, in round order (a round may repeat an operation)."""
    seen = set()
    return [op for op in ops if not (id(op) in seen or seen.add(id(op)))]


def traced_run(args, modules, program, build, ops, layer_units, speed) -> int:
    """Untraced rounds of the distinct operations, as in the untraced run (the
    first is the reference), then the corpus rebuilt and each operation run
    once more with every boundary wrapped.  The traced round must reproduce
    the reference's verdicts, witnesses and ledgers exactly; its wall time
    against the median untraced round is the tracing overhead."""
    import tracer as tracing

    ops = distinct(ops)
    ref_tally, reference, ref_results, round_s = timed_rounds(ops, args.seconds, speed)

    tr = tracing.Tracer()
    tracing.install(tr, type("Modules", (), modules))
    traced_ops = distinct(build(program, args.seed, args.smoke).ops)
    freeze_heap()
    gen = list(tr.acc["instances.gen"])
    for acc in tr.acc.values():  # the wrappers hold these lists: reset in place
        acc[:] = [0, 0]
    tr.spans.clear()
    tr.acc["instances.gen"][:] = gen

    tally = Tally()
    mismatches = 0
    span_fails = []
    for i, op in enumerate(traced_ops):
        root = len(tr.spans)
        token = tr.begin_op(i, op.label)
        start = time.perf_counter()
        dt, res, fails = run_op(op)
        tr.end_op(token)
        if (op.signature(res) if res is not None else None) != reference.get(i):
            mismatches += 1
            fails = fails + [f"{op.label} op {i}: traced run differs from the untraced run"]
        if res is not None:
            if op.kind == "trial":
                row = res[0]
                sf = tracing.ledger_check(tr, i, root, (row["queries"], row["samples"]))
                span_fails.extend(sf)
                fails = fails + sf
        tally.add(op, start, dt, res, fails)

    untraced_s = statistics.median(round_s)
    overhead = tally.op_seconds / untraced_s
    other = tuple(tr.acc["trace.other"])
    metrics = tracing.layer_metrics(tr, overhead, other)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tr.write(trace_path, {"workload": args.workload, "seed": args.seed,
                          "untraced_round_s": untraced_s, "traced_round_s": tally.op_seconds})

    checks = rate_checks(ops, ref_results)
    checks.append(("traced run reproduces the untraced run", mismatches == 0,
                   f"{len(traced_ops) - mismatches}/{len(traced_ops)} operations identical"))
    checks.append(("span deltas sum to trial ledgers", not span_fails,
                   f"other remainder {other[0]} queries, {other[1]} samples"))
    print(f"traced round {tally.op_seconds:.3f} s against untraced {untraced_s:.3f} s "
          f"(median of {len(round_s)} rounds; overhead x{overhead:.3f}); {len(tr.spans)} "
          f"spans written to {trace_path.relative_to(ROOT)}")
    names = [rec[tracing.NAME] for rec in tr.spans]
    print(f"per-trial base: {sum(names.count(n) for n in tracing.TESTER_SPANS)} tester calls, "
          f"of which {names.count('harness.run_one_trial')} through run_one_trial")
    report_checks(checks, ref_tally, tally)
    emit(all(ok for _, ok, _ in checks), ref_tally.attempted + tally.attempted,
         ref_tally.failed + tally.failed, metrics, layer_units)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in ("order", "mdl", "dl", "lab"):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        t = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            print(f"[{name}] exit {proc.returncode}: {proc.stderr.strip()}")
            status = 1
            continue
        res = json.loads(lines[-1])
        ok = res["correct"] and res["failed"] == 0
        status |= 0 if ok else 1
        print(f"[{name}] {'OK' if ok else 'FAILED'} in {time.perf_counter() - t:.1f} s: "
              f"attempted={res['attempted']} failed={res['failed']} correct={res['correct']}")
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Trial orchestration: instance construction, per-trial seeding, budget
auditing, statistical aggregation and CSV/JSON reporting."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
import traceback
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

from .core import SeededRng
from .exact import dist_mdl
# the family table and the file format live in instances, and stay importable here
from .instances import InstanceBundle, generate, load_bundle, lookup_family, save_bundle
from .mdl import MdlConstants, budget_mdl, monotone_dl_tester
from .dl import DlConstants, budget_dl, decision_list_tester, round_profile
from .oracles import BudgetExhausted, QueryLedger
from .total_order import TotalConstants, budget_total, test_total_ordering

CSV_COLUMNS = ["family", "n", "eps", "delta", "trial", "seed", "verdict", "error",
               "queries", "samples", "runtime_ms", "witness"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_TRIAL_ERROR = 4


def wilson_interval(successes: int, trials: int, z: float = 2.576) -> tuple[float, float]:
    """Two-sided Wilson score interval (default 99% confidence)."""
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1 + z * z / trials
    centre = phat + z * z / (2 * trials)
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    # at the edges the closed form leaves rounding residue instead of 0 or 1
    lo = 0.0 if successes == 0 else (centre - half) / denom
    hi = 1.0 if successes == trials else (centre + half) / denom
    return (lo, hi)


@dataclass
class RunConfig:
    tester: str               # "total" | "mdl" | "dl"
    family: str
    n: int
    eps: float
    trials: int = 1
    seed: int = 1
    delta: float = 1.0 / 6.0
    budget: int | None = None
    consts: dict = field(default_factory=dict)
    instance_path: str | None = None
    support_size: int | None = None
    jobs: int = 1

    def validate(self, width: int | None = None):
        """Refuse a config that no trial could run.  The DL round profile is
        checked at width: self.n for a generated family, and an instance
        file's own width once the file is read (until then it is skipped)."""
        if not 0 < self.eps < 1:
            raise ValueError("eps must lie in (0,1)")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0,1)")
        if self.budget is not None and self.budget < 0:
            raise ValueError("budget must not be negative")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        _tester(self)
        self.constants  # resolving it checks every --const
        if width is None and self.instance_path is None:
            width = self.n
        if self.tester == "dl" and width is not None:
            round_profile(width, self.eps, self.constants)

    @cached_property
    def constants(self):
        """The constants of this config's tester, resolved on first read.  Every
        --const name and value is checked, those of the other testers included.
        Copy a config with dataclasses.replace, which leaves the cache behind."""
        chosen = {cls: {} for cls in (TotalConstants, MdlConstants, DlConstants)}
        for name, value in self.consts.items():
            value = _const_value(name, value)
            cls, fld = CONSTS[name]
            chosen[cls][fld.name] = value
        mdl = MdlConstants(delta=self.delta, **chosen[MdlConstants])
        dl = DlConstants(mdl=mdl, **chosen[DlConstants])
        return {"total": TotalConstants(**chosen[TotalConstants]), "mdl": mdl,
                "dl": dl}[self.tester]


@dataclass
class TrialReport:
    rows: list
    accepts: int
    rejects: int
    overbudget: int
    errors: int

    @property
    def trials(self) -> int:
        return len(self.rows)

    def accept_rate(self) -> float:
        return self.accepts / max(1, self.trials)

    def wilson(self) -> tuple[float, float]:
        return wilson_interval(self.accepts, self.trials)

    def total_queries(self) -> int:
        return sum(r["queries"] for r in self.rows)

    def total_samples(self) -> int:
        return sum(r["samples"] for r in self.rows)


def read_instance_file(path: str):
    """The JSON document in the --instance file at path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8 text
            raise ValueError(f"--instance {path} is not JSON: {exc}") from None


def build_instance(cfg: RunConfig) -> InstanceBundle:
    if cfg.instance_path:
        return load_bundle(read_instance_file(cfg.instance_path))
    return generate(cfg.family, cfg.n, cfg.support_size, cfg.seed)


# --const name -> (constants class, field), read from the fields' metadata
CONSTS = {f.metadata["const"]: (cls, f) for cls in (TotalConstants, MdlConstants, DlConstants)
          for f in fields(cls) if "const" in f.metadata}


def _const_value(name: str, value):
    """value (text or number) as the type of the field it sets; a number finite and positive."""
    if name not in CONSTS:
        raise ValueError(f"unknown constant {name!r} (accepted: {', '.join(CONSTS)})")
    kind = CONSTS[name][1].type.split(" ")[0]  # "int | None" -> "int"
    try:
        value = {"int": int, "float": float, "str": str}[kind](value)
    except (TypeError, ValueError):
        raise ValueError(f"constant {name} expects {kind}, got {value!r}") from None
    if kind != "str" and not 0 < value < math.inf:
        raise ValueError(f"constant {name} must be finite and positive, got {value!r}")
    return value


def _tester(cfg: RunConfig):
    """(tester, its oracle on a bundle, its budget) for cfg.tester.  Read from
    this module's globals on every call, so a wrapper that rebinds a tester
    name here (as bench/workloads.py and bench/tracer.py do) sees every trial."""
    table = {"total": (test_total_ordering, InstanceBundle.comparison_oracle, budget_total),
             "mdl": (monotone_dl_tester, InstanceBundle.function_oracle, budget_mdl),
             "dl": (decision_list_tester, InstanceBundle.function_oracle, budget_dl)}
    if cfg.tester not in table:
        raise ValueError(f"unknown tester {cfg.tester!r} (accepted: {', '.join(table)})")
    return table[cfg.tester]


def run_one_trial(cfg: RunConfig, bundle: InstanceBundle, trial: int):
    tester, oracle_of, _ = _tester(cfg)
    ledger = QueryLedger(query_budget=cfg.budget)
    trial_rng = SeededRng(cfg.seed, 0).derive(trial + 1)
    start = time.perf_counter()
    error = witness = ""
    try:
        verdict = tester(oracle_of(bundle, ledger), bundle.dist, cfg.eps, trial_rng,
                         cfg.constants)
        decision = verdict.decision
        if verdict.witness is not None:
            witness = json.dumps(verdict.witness)
    except BudgetExhausted:
        decision = "overbudget"
    except Exception as exc:
        # one failing trial is reported in its row; the run goes on
        traceback.print_exc()
        decision, error = "error", type(exc).__name__
    runtime_ms = (time.perf_counter() - start) * 1000.0
    fq, samples = ledger.snapshot()
    return {
        "family": bundle.family, "n": bundle.n, "eps": cfg.eps, "delta": cfg.delta,
        "trial": trial, "seed": cfg.seed, "verdict": decision, "error": error,
        "queries": fq, "samples": samples, "runtime_ms": round(runtime_ms, 3),
        "witness": witness,
    }


_WORKER_CACHE: dict = {}


def _pool_task(args):
    cfg, trial = args
    key = (cfg.family, cfg.n, cfg.seed, cfg.support_size, cfg.instance_path)
    bundle = _WORKER_CACHE.get(key)
    if bundle is None:
        bundle = build_instance(cfg)
        _WORKER_CACHE[key] = bundle
    return run_one_trial(cfg, bundle, trial)


def _checked_instance(cfg: RunConfig) -> InstanceBundle:
    """cfg's instance, once every check that needs no trial has passed."""
    cfg.validate()
    bundle = build_instance(cfg)
    _tester(cfg)[1](bundle)  # raises ValueError when the tester cannot query this kind
    if cfg.instance_path:
        cfg.validate(bundle.n)
    return bundle


def run_trials(cfg: RunConfig) -> TrialReport:
    return _run_trials(cfg, _checked_instance(cfg))


def _run_trials(cfg: RunConfig, bundle: InstanceBundle) -> TrialReport:
    jobs = min(cfg.jobs, cfg.trials, os.cpu_count() or 1)
    if jobs > 1:
        # per-trial seeds make scheduling irrelevant; rows come back by index
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_pool_task, [(cfg, t) for t in range(cfg.trials)]))
    else:
        rows = [run_one_trial(cfg, bundle, t) for t in range(cfg.trials)]
    count = lambda verdict: sum(1 for r in rows if r["verdict"] == verdict)
    return TrialReport(rows=rows, accepts=count("accept"), rejects=count("reject"),
                       overbudget=count("overbudget"), errors=count("error"))


def _csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def report_csv(report: TrialReport) -> str:
    return _csv_text(report.rows)


def scaling_experiment(cfg: RunConfig, n_list: list[int]) -> tuple[str, list[dict]]:
    """One row per (n, trial) plus a mean-queries summary per n.  Every width's
    instance is built and checked before the first trial runs."""
    cfgs = [replace(cfg, n=n) for n in n_list]
    bundles = [_checked_instance(c) for c in cfgs]
    reports = [_run_trials(c, bundle) for c, bundle in zip(cfgs, bundles)]
    summaries = [{"n": c.n, "mean_queries": r.total_queries() / r.trials,
                  "mean_samples": r.total_samples() / r.trials, "trials": r.trials}
                 for c, r in zip(cfgs, reports)]
    return _csv_text([row for r in reports for row in r.rows]), summaries


def budget_for(cfg: RunConfig) -> tuple[int, int]:
    """(query ceiling, sample ceiling) of one trial of cfg's tester."""
    _, _, budget = _tester(cfg)
    return budget(cfg.n, cfg.eps, cfg.constants)


def oracle_check(bundles: list[InstanceBundle], eps: float, trials_per_stratum: int,
                 seed: int) -> dict:
    """Cross-tabulate monotone-tester verdict rates against exact distances on
    a tiny corpus.  Returns the stratified rates and any contract violations
    (close instances accepted too rarely / far ones rejected too rarely)."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    if trials_per_stratum < 1:
        raise ValueError("trials_per_stratum must be at least 1")
    strata = {"zero": [], "far": [], "middle": []}
    for b in bundles:
        report = dist_mdl(b.n, b.target, b.dist)
        if report.distance <= 1e-12:
            strata["zero"].append(b)
        elif report.distance >= eps:
            strata["far"].append(b)
        else:
            strata["middle"].append(b)
    out = {"eps": eps, "violations": [], "strata": {}}
    for name in ("zero", "far"):
        group = strata[name]
        if not group:
            out["strata"][name] = {"bundles": 0, "trials": 0, "rate": None, "wilson99": None}
            continue
        per = max(1, math.ceil(trials_per_stratum / len(group)))
        accepts = rejects = total = 0
        for i, b in enumerate(group):
            for t in range(per):
                ledger = QueryLedger()
                oracle = b.function_oracle(ledger)
                rng = SeededRng(seed, (i << 16) | t)
                v = monotone_dl_tester(oracle, b.dist, eps, rng)
                accepts += v.accepted
                rejects += v.rejected
                total += 1
        hits = accepts if name == "zero" else rejects
        rate = hits / total
        out["strata"][name] = {"bundles": len(group), "trials": total, "rate": rate,
                               "wilson99": list(wilson_interval(hits, total))}
        if rate < 2.0 / 3.0 - 0.05:
            out["violations"].append((name, rate))
    out["strata"]["middle"] = {"bundles": len(strata["middle"])}
    return out


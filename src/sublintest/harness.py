"""Trial orchestration: instance construction, per-trial seeding, budget
auditing, statistical aggregation and CSV/JSON reporting."""

from __future__ import annotations

import csv
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

from .core import BitString, FiniteDistribution, PairDistribution, SeededRng
from .dlmodel import GeneralDLRep, MonotoneDLRep, table_target
from .exact import dist_mdl
from .instances import (InstanceBundle, gen_dl_yes, gen_groups4, gen_mdl_yes, gen_pentagon,
                        gen_total_yes, groups4_from_pi, ordering_less, pentagon_less)
from .mdl import MdlConstants, budget_mdl, monotone_dl_tester
from .dl import DlConstants, budget_dl, decision_list_tester
from .oracles import BudgetExhausted, QueryLedger
from .total_order import TotalConstants, budget_total, test_total_ordering

CSV_COLUMNS = ["family", "n", "eps", "delta", "trial", "seed", "verdict", "error",
               "queries", "samples", "runtime_ms"]

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

    def validate(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")
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


def default_support(n: int) -> int:
    return max(4, min(2048, n // 2))


# the tester each generated family is an instance for
FAMILY_TESTER = {"total-yes": "total", "pentagon": "total", "mdl-yes": "mdl",
                 "groups4-yes": "mdl", "groups4-no": "mdl", "dl-yes": "dl"}


def build_instance(cfg: RunConfig) -> InstanceBundle:
    if cfg.instance_path:
        with open(cfg.instance_path, "r", encoding="utf-8") as fh:
            return load_bundle(json.load(fh))
    rng = SeededRng(cfg.seed, 0xB00)
    support = default_support(cfg.n) if cfg.support_size is None else cfg.support_size
    fam = cfg.family
    if fam == "total-yes":
        return gen_total_yes(cfg.n, min(support, cfg.n * (cfg.n - 1) // 2), rng)
    if fam == "pentagon":
        return gen_pentagon(cfg.n, rng)
    if fam == "mdl-yes":
        return gen_mdl_yes(cfg.n, support, rng)
    if fam == "dl-yes":
        return gen_dl_yes(cfg.n, support, rng)
    if fam == "groups4-yes":
        return gen_groups4(cfg.n, rng, "yes")
    if fam == "groups4-no":
        return gen_groups4(cfg.n, rng, "no")
    raise ValueError(f"unknown family {fam!r}")


# --const name -> (constants class, field), read from the fields' metadata
CONSTS = {f.metadata["const"]: (cls, f) for cls in (TotalConstants, MdlConstants, DlConstants)
          for f in fields(cls) if "const" in f.metadata}


def _const_value(name: str, value):
    """value (text or number) converted to the type of the field it sets."""
    if name not in CONSTS:
        raise ValueError(f"unknown constant {name!r} (accepted: {', '.join(CONSTS)})")
    kind = CONSTS[name][1].type.split(" ")[0]  # "int | None" -> "int"
    try:
        return {"int": int, "float": float, "str": str}[kind](value)
    except (TypeError, ValueError):
        raise ValueError(f"constant {name} expects {kind}, got {value!r}") from None


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
    error = ""
    try:
        verdict = tester(oracle_of(bundle, ledger), bundle.dist, cfg.eps, trial_rng,
                         cfg.constants)
        decision = verdict.decision
    except BudgetExhausted:
        decision = "overbudget"
    except Exception as exc:
        # one failing trial is reported in its row; the run goes on
        traceback.print_exc()
        decision, error = "error", type(exc).__name__
    runtime_ms = (time.perf_counter() - start) * 1000.0
    fq, samples = ledger.snapshot()
    return {
        "family": bundle.family, "n": cfg.n, "eps": cfg.eps, "delta": cfg.delta,
        "trial": trial, "seed": cfg.seed, "verdict": decision, "error": error,
        "queries": fq, "samples": samples, "runtime_ms": round(runtime_ms, 3),
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


def run_trials(cfg: RunConfig, bundle: InstanceBundle | None = None) -> TrialReport:
    cfg.validate()
    explicit = bundle is not None
    if bundle is None:
        bundle = build_instance(cfg)
    if cfg.jobs > 1 and not explicit:
        # per-trial seeds make scheduling irrelevant; rows come back by index
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
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
    """One row per (n, trial) plus a mean-queries summary per n."""
    rows = []
    summaries = []
    for n in n_list:
        report = run_trials(replace(cfg, n=n))
        rows.extend(report.rows)
        mean_q = report.total_queries() / report.trials
        summaries.append({"n": n, "mean_queries": mean_q,
                          "mean_samples": report.total_samples() / report.trials,
                          "trials": report.trials})
    return _csv_text(rows), summaries


def budget_for(cfg: RunConfig) -> tuple[int, int]:
    """(query ceiling, sample ceiling) of one trial of cfg's tester."""
    _, _, budget = _tester(cfg)
    return budget(cfg.n, cfg.eps, cfg.constants)


def oracle_check(bundles: list[InstanceBundle], eps: float, trials_per_stratum: int,
                 seed: int) -> dict:
    """Cross-tabulate monotone-tester verdict rates against exact distances on
    a tiny corpus.  Returns the stratified rates and any contract violations
    (close instances accepted too rarely / far ones rejected too rarely)."""
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


# -- instance file format ----------------------------------------------------

def save_bundle(bundle: InstanceBundle) -> dict:
    doc = {"version": 1, "n": bundle.n}
    fam = bundle.family
    params = bundle.params
    if fam == "mdl-yes":
        rep: MonotoneDLRep = params["rep"]
        doc["function"] = {"type": "mdl", "pi": list(rep.pi), "nu": list(rep.nu)}
    elif fam == "dl-yes":
        rep: GeneralDLRep = params["rep"]
        doc["function"] = {"type": "dl", "pi": list(rep.pi), "mu": list(rep.mu),
                           "nu": list(rep.nu)}
    elif fam in ("groups4-yes", "groups4-no"):
        doc["function"] = {"type": fam, "pi": list(params["pi"])}
    elif fam == "pentagon":
        doc["function"] = {"type": "pentagon", "order": list(params["order"])}
    elif fam == "total-yes":
        doc["function"] = {"type": "ordering", "order": list(params["order"])}
    elif fam == "table":
        doc["function"] = {"type": "table", "bits": params["bits"]}
    else:
        raise ValueError(f"family {fam!r} has no serialized form")
    if bundle.kind == "boolean":
        doc["distribution"] = [{"x": x.to_hex(), "p": float(w)}
                               for x, w in zip(bundle.dist.atoms, bundle.dist.weights)]
    else:
        doc["distribution"] = {"pairs": [{"u": u, "v": v, "p": float(w)}
                                         for (u, v), w in zip(bundle.dist.pairs,
                                                              bundle.dist.weights)]}
    return doc


def load_bundle(doc: dict) -> InstanceBundle:
    if doc.get("version") != 1:
        raise ValueError("unsupported instance file version")
    n = doc["n"]
    fn = doc["function"]
    kind = fn["type"]
    dist_doc = doc["distribution"]
    if isinstance(dist_doc, dict):
        dist = PairDistribution(n, [((e["u"], e["v"]), e["p"]) for e in dist_doc["pairs"]])
    else:
        dist = FiniteDistribution(n, [(BitString.from_hex(n, e["x"]), e["p"])
                                      for e in dist_doc])
    if kind == "mdl":
        rep = MonotoneDLRep(n, fn["pi"], fn["nu"])
        return InstanceBundle(kind="boolean", family="mdl-yes", n=n, seed=0,
                              params={"rep": rep}, dist=dist, ground_truth=("yes",),
                              target=rep.target())
    if kind == "dl":
        rep = GeneralDLRep(n, fn["pi"], fn["mu"], fn["nu"])
        return InstanceBundle(kind="boolean", family="dl-yes", n=n, seed=0,
                              params={"rep": rep}, dist=dist, ground_truth=("yes",),
                              target=rep.target())
    if kind == "table":
        bits = fn["bits"]
        return InstanceBundle(kind="boolean", family="table", n=n, seed=0,
                              params={"bits": bits}, dist=dist,
                              ground_truth=("unknown",), target=table_target(bits))
    if kind in ("groups4-yes", "groups4-no"):
        side = kind.split("-")[1]
        bundle = groups4_from_pi(n, fn["pi"], side)
        bundle.dist = dist
        return bundle
    if kind in ("pentagon", "ordering"):
        order = fn["order"]
        if kind == "ordering":
            fam, truth, less = "total-yes", ("yes",), ordering_less(order)
        else:
            fam, truth, less = "pentagon", ("far", 0.2), pentagon_less(order)
        return InstanceBundle(kind="comparison", family=fam, n=n, seed=0,
                              params={"order": tuple(order)}, dist=dist,
                              ground_truth=truth, less=less)
    raise ValueError(f"unknown function type {kind!r}")

"""Spans and counters at the program's module boundaries, installed from the
benchmark's side by replacing module attributes and class methods, so nothing
under src/ changes.

Coarse stages (tester entry points, MDL/ordering stages, check_dl phases,
exact distances, collision experiments) become spans: name, start, end,
parent span, operation id and the trial ledger's query and sample deltas.
Per-query and per-string functions (oracle queries, ledger charges, target
evaluation, OR-tree steps, block location) are too frequent for one record
per call; they get call counters and time accumulators instead.  Spans stay
in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

now = time.perf_counter_ns

TESTER_SPANS = ("total_order.test_total_ordering", "mdl.monotone_dl_tester",
                "dl.decision_list_tester")

# span record fields
NAME, START, END, PARENT, OP, DQ, DS = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.ledger = None          # the ledger of the trial in progress
        self.op_ledgers: list = []  # ledgers created since the operation began
        self.acc = defaultdict(lambda: [0, 0])

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> tuple:
        rec = [name, now(), 0, self.stack[-1] if self.stack else -1, self.op, 0, 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        led = self.ledger
        start = (led.function_queries, led.samples_drawn) if led is not None else None
        return rec, led, start, len(self.op_ledgers)

    def _close(self, token):
        rec, led, start, n_ledgers = token
        rec[END] = now()
        self.stack.pop()
        if led is None and len(self.op_ledgers) == n_ledgers + 1:
            # the span created the one ledger it charged (run_one_trial does)
            led, start = self.op_ledgers[-1], (0, 0)
        if led is not None:
            rec[DQ] = led.function_queries - start[0]
            rec[DS] = led.samples_drawn - start[1]

    def begin_op(self, index: int, label: str):
        self.op = index
        self.ledger = None
        self.op_ledgers = []
        return self._open("op:" + label)

    def end_op(self, token):
        self._close(token)

    def span(self, name: str, fn):
        tr = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            token = tr._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tr._close(token)
        return wrapped

    def timer(self, key: str, fn, depth: list | None = None):
        """Count calls and accumulate wall time; with a shared depth cell only
        the outermost call of a family of mutually nested functions counts."""
        acc = self.acc[key]
        depth = depth if depth is not None else [0]

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] = 0
                acc[0] += 1
                acc[1] += now() - t0
        return wrapped

    # -- output --------------------------------------------------------------

    def write(self, path, extra: dict):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps({"name": rec[NAME], "start_ns": rec[START],
                                     "end_ns": rec[END], "parent": rec[PARENT],
                                     "op": rec[OP], "queries": rec[DQ],
                                     "samples": rec[DS]}) + "\n")
            fh.write(json.dumps({"counters": {k: v for k, v in sorted(self.acc.items())},
                                 **extra}) + "\n")


def _replace(name: str, old, new):
    """Point every sublintest module that binds `name` to `old` at `new`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "sublintest" and getattr(mod, name, None) is old:
            setattr(mod, name, new)


def install(tr: Tracer, sl) -> None:
    """Wrap the program's boundaries.  `sl` holds the imported modules
    (core, oracles, dlmodel, instances, total_order, mdl, dl, exact, birthday,
    harness).  Wrappers only observe; arguments, results and exceptions pass
    through unchanged."""
    core, oracles, dlmodel, instances = sl.core, sl.oracles, sl.dlmodel, sl.instances
    total_order, mdl, dl, exact, birthday, harness = (
        sl.total_order, sl.mdl, sl.dl, sl.exact, sl.birthday, sl.harness)

    def span_fn(mod, name, span_name):
        old = getattr(mod, name)
        _replace(name, old, tr.span(span_name, old))

    def span_method(cls, name, span_name):
        setattr(cls, name, tr.span(span_name, getattr(cls, name)))

    # trial ledgers: every ledger run_one_trial and oracle_check create
    base_ledger = oracles.QueryLedger

    class TracedLedger(base_ledger):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tr.ledger = self
            tr.op_ledgers.append(self)

    harness.QueryLedger = TracedLedger

    # harness and tester entry points
    harness.run_one_trial = tr.span("harness.run_one_trial", harness.run_one_trial)
    for name, span_name in zip(("test_total_ordering", "monotone_dl_tester",
                                "decision_list_tester"), TESTER_SPANS):
        setattr(harness, name, tr.span(span_name, getattr(harness, name)))

    # core: sampling and stream derivation
    sample_depth = [0]
    for cls, name in ((core.FiniteDistribution, "sample_indices"),
                      (core.PairDistribution, "sample_indices"),
                      (core.SeededRng, "random_block"), (core.SeededRng, "multinomial")):
        setattr(cls, name, tr.timer("core.sample", getattr(cls, name), sample_depth))
    derive = tr.acc["core.derive"]
    orig_derive = core.SeededRng.derive

    def counted_derive(self, tag):
        derive[0] += 1
        return orig_derive(self, tag)
    core.SeededRng.derive = counted_derive

    # oracles: queries, ledger charges, sampling handles
    for cls, name in ((oracles.FunctionOracle, "query"), (oracles.FunctionOracle, "query_raw"),
                      (oracles.ComparisonOracle, "less")):
        setattr(cls, name, tr.timer("oracles.query", getattr(cls, name)))
    charge = tr.acc["oracles.charge"]
    orig_charge = base_ledger.charge_queries

    def counted_charge(self, c=1):
        charge[0] += 1
        charge[1] += c
        return orig_charge(self, c)
    base_ledger.charge_queries = counted_charge

    core_sample = tr.acc["core.sample"]
    sampler = tr.acc["oracles.sampler"]
    sampler_depth = [0]

    def sampler_self(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if sampler_depth[0]:
                return fn(*args, **kwargs)
            sampler_depth[0] = 1
            c0 = core_sample[1]
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                sampler_depth[0] = 0
                sampler[0] += 1
                sampler[1] += now() - t0 - (core_sample[1] - c0)
        return wrapped

    for cls in (oracles.DistSampler, oracles.ShiftedSampler, oracles.PairSampler,
                oracles.MarginalSampler):
        for name in ("draw", "draw_list", "draw_set"):
            setattr(cls, name, sampler_self(getattr(cls, name)))

    # dlmodel: target evaluation (GeneralDLRep evaluates through this too)
    evals = tr.acc["dlmodel.eval"]
    wide = tr.acc["dlmodel.wide"]
    cutoff = dlmodel._INT_SCAN_CUTOFF
    orig_rank = dlmodel.MonotoneDLRep.min_rank_raw

    def timed_rank(self, v):
        t0 = now()
        try:
            return orig_rank(self, v)
        finally:
            evals[0] += 1
            evals[1] += now() - t0
            if v.bit_count() > cutoff:
                wide[0] += 1
    dlmodel.MonotoneDLRep.min_rank_raw = timed_rank

    # instances: memoised function targets, comparison targets, generation
    lookups = tr.acc["instances.lookup"]
    misses = tr.acc["instances.target"]
    cmp_calls = tr.acc["instances.cmp_target"]
    orig_cached = instances._cached

    def traced_cached(target, cap=1 << 18):
        def counted(v):
            misses[0] += 1
            return target(v)
        inner = orig_cached(counted, cap)

        def wrapped(v):
            t0 = now()
            try:
                return inner(v)
            finally:
                lookups[0] += 1
                lookups[1] += now() - t0
        return wrapped
    instances._cached = traced_cached

    orig_cmp = instances.InstanceBundle.comparison_oracle

    def comparison_oracle(self, ledger=None):
        oracle = orig_cmp(self, ledger)
        target = oracle.target

        def timed(u, v):
            t0 = now()
            try:
                return target(u, v)
            finally:
                cmp_calls[0] += 1
                cmp_calls[1] += now() - t0
        oracle.target = timed
        return oracle
    instances.InstanceBundle.comparison_oracle = comparison_oracle

    gen_depth = [0]
    for name in ("gen_total_yes", "gen_pentagon", "gen_mdl_yes", "gen_dl_yes", "gen_groups4"):
        old = getattr(instances, name)
        _replace(name, old, tr.timer("instances.gen", old, gen_depth))

    # total_order stages
    span_fn(total_order, "sketch_total", "total_order.sketch")
    span_fn(total_order, "test_long_cycles", "total_order.long")
    span_fn(total_order, "test_local_cycles", "total_order.local")
    fb_total = tr.acc["total_order.find_block"]
    orig_fbt = total_order.find_block_total

    def counted_fbt(*args):
        fb_total[0] += 1
        return orig_fbt(*args)
    _replace("find_block_total", orig_fbt, counted_fbt)

    # mdl stages, replay caches and the OR-tree
    span_method(mdl.MdlRun, "execute", "mdl.execute")
    span_method(mdl.MdlRun, "preprocess", "mdl.preprocess")
    span_method(mdl.MdlRun, "_find_big_blocks", "mdl.big_blocks")
    for c in range(1, 6):
        span_method(mdl.MdlRun, f"test_type{c}", f"mdl.type{c}")
    for name, key, cache in (("find_block_ex", "mdl.find_block", "_fb_cache"),
                             ("max_index", "mdl.max_index", "_mi_cache")):
        acc = tr.acc[key]
        orig = getattr(mdl.MdlRun, name)

        def replayed(self, x, _orig=orig, _acc=acc, _cache=cache):
            _acc[0] += 1
            _acc[1] += x.v in getattr(self, _cache)
            return _orig(self, x)
        setattr(mdl.MdlRun, name, replayed)
    tree_depth = [0]
    for name in ("__init__", "remove", "kth_alive", "or_range", "or_all"):
        setattr(mdl._OrTree, name, tr.timer("mdl.ortree", getattr(mdl._OrTree, name),
                                            tree_depth))
    or_range = tr.acc["mdl.or_range"]
    timed_or_range = mdl._OrTree.or_range

    def counted_or_range(self, a, b):
        or_range[0] += 1
        return timed_or_range(self, a, b)
    mdl._OrTree.or_range = counted_or_range

    # dl phases
    span_fn(dl, "check_dl", "dl.check_dl")
    span_fn(dl, "monotone_dl_amplified", "dl.amplified")
    span_fn(dl, "_extraction_replay", "dl.replay")
    span_fn(dl, "index_search", "dl.index_search")
    span_fn(dl, "test_dl", "dl.test_dl")

    # exact distances, with their enumeration sizes
    enumerated = tr.acc["exact.enumerated"]
    for name, span_name in (("dist_total_orderings", "exact.orderings"),
                            ("dist_mdl", "exact.mdl"), ("dist_dl", "exact.dl")):
        traced = tr.span(span_name, getattr(exact, name))

        def sized(*args, _fn=traced, **kwargs):
            report = _fn(*args, **kwargs)
            enumerated[0] += 1
            enumerated[1] += report.enumeration_size
            return report
        _replace(name, getattr(exact, name), functools.wraps(traced)(sized))

    # birthday experiments, cover certificates and draws
    span_fn(birthday, "run_bipartite_birthday", "birthday.bipartite")
    span_fn(birthday, "run_hypergraph_birthday", "birthday.hypergraph")
    span_method(birthday.CollisionExperiment, "certified_epsilon", "birthday.cover")
    draws = tr.acc["birthday.draws"]
    orig_draw_sets = birthday._draw_sets

    def counted_draw_sets(weight_map, m, trials, rng):
        draws[0] += 1
        draws[1] += m * trials
        return orig_draw_sets(weight_map, m, trials, rng)
    birthday._draw_sets = counted_draw_sets


# -- per-layer metrics ---------------------------------------------------------

def _ms(ns: float) -> float:
    return ns / 1e6


def layer_metrics(tr: Tracer, overhead_ratio: float, other: tuple[int, int]) -> dict:
    """Per-layer metrics of one traced round.  Per tester call (every
    tester span: the round's run_one_trial trials plus, on lab, the trials
    oracle_check runs inside itself) unless the name says otherwise:
    harness.trial_overhead_ms and trace.other_* per run_one_trial trial (the
    only trials whose spans are checked against their ledger), exact.* per
    exact-distance computation, birthday.* per collision experiment,
    instances.gen_ms per corpus build."""
    spans = tr.spans
    incl = defaultdict(int)
    count = defaultdict(int)
    dq = defaultdict(int)
    ds = defaultdict(int)
    child_ns = [0] * len(spans)
    child_q = [0] * len(spans)
    for rec in spans:
        name = rec[NAME]
        incl[name] += rec[END] - rec[START]
        count[name] += 1
        dq[name] += rec[DQ]
        ds[name] += rec[DS]
        if rec[PARENT] >= 0:
            child_ns[rec[PARENT]] += rec[END] - rec[START]
            child_q[rec[PARENT]] += rec[DQ]
    self_ns = defaultdict(int)
    self_q = defaultdict(int)
    amplified_direct = 0
    mdl_runs = 0
    for i, rec in enumerate(spans):
        self_ns[rec[NAME]] += rec[END] - rec[START] - child_ns[i]
        self_q[rec[NAME]] += rec[DQ] - child_q[i]
        parent = spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else None
        if rec[NAME] == "dl.amplified" and parent == "dl.check_dl":
            amplified_direct += rec[END] - rec[START]
        if rec[NAME] == "mdl.execute" and parent == "dl.amplified":
            mdl_runs += 1

    acc = tr.acc
    trials = sum(count[n] for n in TESTER_SPANS)
    per = 1.0 / trials if trials else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    run_trials = count["harness.run_one_trial"]
    tester_in_run = sum(rec[END] - rec[START] for rec in spans
                        if rec[NAME] in TESTER_SPANS and rec[PARENT] >= 0
                        and spans[rec[PARENT]][NAME] == "harness.run_one_trial")
    exact_ops = acc["exact.enumerated"][0]
    experiments = count["birthday.bipartite"] + count["birthday.hypergraph"]
    target_ns = acc["instances.lookup"][1] + acc["instances.cmp_target"][1]
    fb, mi = acc["mdl.find_block"], acc["mdl.max_index"]
    lookups = acc["instances.lookup"][0]

    m = {
        "core.sample_ms": _ms(acc["core.sample"][1]) * per,
        "core.rng_derives": acc["core.derive"][0] * per,
        "oracles.query_self_ms": _ms(acc["oracles.query"][1] - target_ns) * per,
        "oracles.sampler_ms": _ms(acc["oracles.sampler"][1]) * per,
        "oracles.queries_per_charge": ratio(acc["oracles.charge"][1], acc["oracles.charge"][0]),
        "oracles.charge_calls": acc["oracles.charge"][0] * per,
        "dlmodel.evals": acc["dlmodel.eval"][0] * per,
        "dlmodel.eval_ms": _ms(acc["dlmodel.eval"][1]) * per,
        "dlmodel.wide_evals": acc["dlmodel.wide"][0] * per,
        "instances.target_calls": (acc["instances.target"][0] + acc["instances.cmp_target"][0]) * per,
        "instances.memo_hit_ratio": ratio(lookups - acc["instances.target"][0], lookups),
        "instances.memo_lookups": lookups * per,
        "instances.gen_ms": _ms(acc["instances.gen"][1]),
        "total_order.sketch_ms": _ms(incl["total_order.sketch"]) * per,
        "total_order.long_ms": _ms(incl["total_order.long"]) * per,
        "total_order.local_ms": _ms(incl["total_order.local"]) * per,
        "total_order.sketch_queries": dq["total_order.sketch"] * per,
        "total_order.long_queries": dq["total_order.long"] * per,
        "total_order.local_queries": dq["total_order.local"] * per,
        "total_order.find_block_calls": acc["total_order.find_block"][0] * per,
        "mdl.sketch_ms": _ms(incl["mdl.preprocess"] - incl["mdl.big_blocks"]) * per,
        "mdl.sketch_queries": (dq["mdl.preprocess"] - dq["mdl.big_blocks"]) * per,
        "mdl.big_blocks_ms": _ms(incl["mdl.big_blocks"]) * per,
        "mdl.big_blocks_queries": dq["mdl.big_blocks"] * per,
        "mdl.nil_ms": _ms(self_ns["mdl.execute"]) * per,
        "mdl.nil_queries": self_q["mdl.execute"] * per,
    }
    for c in range(1, 6):
        m[f"mdl.type{c}_ms"] = _ms(incl[f"mdl.type{c}"]) * per
    for c in range(1, 6):
        m[f"mdl.type{c}_queries"] = dq[f"mdl.type{c}"] * per
    m.update({
        "mdl.type2_samples": ds["mdl.type2"] * per,
        "mdl.find_block_calls": fb[0] * per,
        "mdl.max_index_calls": mi[0] * per,
        "mdl.replay_hit_ratio": ratio(fb[1] + mi[1], fb[0] + mi[0]),
        "mdl.replay_lookups": (fb[0] + mi[0]) * per,
        "mdl.ortree_ms": _ms(acc["mdl.ortree"][1]) * per,
        "mdl.or_range_calls": acc["mdl.or_range"][0] * per,
        "dl.check_dl_calls": count["dl.check_dl"] * per,
        "dl.mdl_runs": mdl_runs * per,
        "dl.amplified_ms": _ms(amplified_direct) * per,
        "dl.replay_ms": _ms(incl["dl.replay"]) * per,
        "dl.replay_queries": dq["dl.replay"] * per,
        "dl.index_search_ms": _ms(incl["dl.index_search"]) * per,
        "dl.test_dl_ms": _ms(incl["dl.test_dl"]) * per,
        "dl.test_dl_queries": dq["dl.test_dl"] * per,
        "exact.orderings_ms": ratio(_ms(incl["exact.orderings"]), count["exact.orderings"]),
        "exact.mdl_ms": ratio(_ms(incl["exact.mdl"]), count["exact.mdl"]),
        "exact.dl_ms": ratio(_ms(incl["exact.dl"]), count["exact.dl"]),
        "exact.enumerated": ratio(acc["exact.enumerated"][1], exact_ops),
        "birthday.experiment_ms": ratio(_ms(incl["birthday.bipartite"] + incl["birthday.hypergraph"]),
                                        experiments),
        "birthday.cover_ms": ratio(_ms(incl["birthday.cover"]), experiments),
        "birthday.draws": ratio(acc["birthday.draws"][1], experiments),
        "harness.trial_overhead_ms": ratio(_ms(incl["harness.run_one_trial"] - tester_in_run),
                                           run_trials),
        "trace.overhead_ratio": overhead_ratio,
        "trace.other_queries": ratio(other[0], run_trials),
        "trace.other_samples": ratio(other[1], run_trials),
    })
    return m


def ledger_check(tr: Tracer, op_index: int, root: int, totals: tuple[int, int]) -> list[str]:
    """The spans of one tester trial must account for its whole ledger: the
    root span's deltas equal the trial totals, no span's self delta is
    negative, and the self deltas sum to the totals.  Queries charged outside
    every layer span (the operation root and run_one_trial itself) add to the
    `other` remainder.  Returns failure messages."""
    spans = tr.spans
    members = [i for i in range(root, len(spans)) if spans[i][OP] == op_index]
    fails = []
    if (spans[root][DQ], spans[root][DS]) != tuple(totals):
        fails.append(f"span deltas {spans[root][DQ]}/{spans[root][DS]} != ledger {totals}")
    child_q = defaultdict(int)
    child_s = defaultdict(int)
    for i in members:
        p = spans[i][PARENT]
        if p >= 0:
            child_q[p] += spans[i][DQ]
            child_s[p] += spans[i][DS]
    self_sum = [0, 0]
    other = tr.acc["trace.other"]
    for i in members:
        sq = spans[i][DQ] - child_q[i]
        ss = spans[i][DS] - child_s[i]
        if sq < 0 or ss < 0:
            fails.append(f"span {spans[i][NAME]} has a negative self delta")
            break
        self_sum[0] += sq
        self_sum[1] += ss
        if i == root or spans[i][NAME] == "harness.run_one_trial":
            other[0] += sq
            other[1] += ss
    if tuple(self_sum) != tuple(totals):
        fails.append(f"self deltas sum to {self_sum}, ledger {totals}")
    return fails

"""The four workloads: how each builds its corpus from the seed, which
operations one round runs, and how each operation's output is checked.

An operation is one tester trial, one exact-distance computation or one
collision experiment.  `oracle_check` runs a whole cross-tabulation in one
call; it is one entry in the round and counts as the exact distances and
tester trials it performs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import checks

# The DL tester's desk profile of the acceptance suite.
DL_DESK = {"t_amplify": 3, "outer_rounds": 6, "inner_rounds": 8,
           "c_accept_threshold": 3, "sketch_source": "light"}

# dl-yes trials split by instance into a fast path (about 0.2 s) and a slow
# one (1.5 s to 15 s, varying trial to trial), so the yes median of a corpus
# small enough for one run jumps between the two from seed to seed.  The
# dl-yes side therefore always runs the corpus of this seed; --seed drives the
# groups4-no side.  The machine's speed drifts by a third within seconds, so
# the short yes trials run DL_YES_REPEATS times, spread between the far trials
# across the round, rather than in one burst.
DL_YES_SEED = 1
DL_YES_REPEATS = 3


@dataclass
class Op:
    kind: str                         # "trial" | "exact" | "collision" | "oracle_check"
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]   # failure messages for a result
    signature: Callable[[object], tuple]
    side: str | None = None           # "yes" | "far" for tester trials
    count: Callable[[object], int] = lambda res: 1
    nominal: int = 1                  # operations counted when run() raises


@dataclass
class Corpus:
    ops: list = field(default_factory=list)
    notes: list = field(default_factory=list)   # corpus make-up, printed once


class Program:
    """The imported sublintest modules plus a capture of the last tester
    verdict that run_one_trial produced (its row carries no witness)."""

    def __init__(self, modules):
        self.__dict__.update(modules)
        self.last_verdict = None
        harness = self.harness
        for name in ("test_total_ordering", "monotone_dl_tester", "decision_list_tester"):
            setattr(harness, name, self._capturing(getattr(harness, name)))

    def _capturing(self, fn):
        def captured(*args, **kwargs):
            verdict = fn(*args, **kwargs)
            self.last_verdict = verdict
            return verdict
        return captured


def _trial_op(p: Program, cfg, bundle, trial: int, side: str, cert: list,
              extra: Callable | None = None) -> Op:
    q_budget, s_budget = p.harness.budget_for(cfg)

    def run():
        p.last_verdict = None
        row = p.harness.run_one_trial(cfg, bundle, trial)
        return row, p.last_verdict

    def check(res):
        row, verdict = res
        fails = list(cert)
        if row["verdict"] not in ("accept", "reject") or verdict is None:
            fails.append(f"verdict {row['verdict']}")
            return fails
        if row["queries"] > q_budget or row["samples"] > s_budget:
            fails.append(f"ledger {row['queries']}/{row['samples']} over budget")
        if (verdict.queries, verdict.samples) != (row["queries"], row["samples"]):
            fails.append("verdict cost differs from the trial ledger")
        if extra is not None:
            fails.extend(extra(bundle, verdict))
        return fails

    def signature(res):
        row, verdict = res
        witness = verdict.witness if verdict is not None else None
        return (row["verdict"], witness, row["queries"], row["samples"])

    return Op("trial", bundle.family, run, check, signature, side=side)


def _seed(seed: int, stream: int, i: int) -> int:
    """Per-instance master seed: distinct for every (seed, stream, i < 64)."""
    return (seed << 12) | (stream << 6) | i


# -- order ---------------------------------------------------------------------

def _ordering_witness(p: Program):
    """Witness check with the tester's per-block crowd cap for the instance's n."""
    crowd = p.total_order.DEFAULT_TOTAL.crowd_factor
    return lambda b, v: checks.ordering_witness(b, v, crowd * p.core.clamped_log2(b.n))


def build_order(p: Program, seed: int, smoke: bool) -> Corpus:
    n_yes, n_far = (1024, 1020) if smoke else (16384, 16380)
    instances, trials = (2, 2) if smoke else (4, 3)
    eps = 0.1
    witness = _ordering_witness(p)
    corpus = Corpus()
    for side, family, n, stream in (("yes", "total-yes", n_yes, 1), ("far", "pentagon", n_far, 2)):
        for i in range(instances):
            cfg = p.harness.RunConfig(tester="total", family=family, n=n, eps=eps,
                                      seed=_seed(seed, stream, i))
            bundle = p.harness.build_instance(cfg)
            cert = checks.certify_ordering(bundle, eps)
            corpus.ops += [_trial_op(p, cfg, bundle, t, side, cert, witness)
                           for t in range(trials)]
        corpus.notes.append(f"{family} n={n} eps={eps}: {instances} instances x {trials} "
                            f"trials, support {len(bundle.dist.pairs)} pairs")
    return corpus


# -- mdl -----------------------------------------------------------------------

def build_mdl(p: Program, seed: int, smoke: bool) -> Corpus:
    n, support, instances = (256, 64, 2) if smoke else (4096, 1024, 6)
    eps = 0.1
    corpus = Corpus()
    for side, family, stream in (("yes", "mdl-yes", 1), ("far", "groups4-no", 2)):
        for i in range(instances):
            cfg = p.harness.RunConfig(tester="mdl", family=family, n=n, eps=eps,
                                      seed=_seed(seed, stream, i), support_size=support)
            bundle = p.harness.build_instance(cfg)
            cert = checks.certify_list(bundle, eps)
            corpus.ops.append(_trial_op(p, cfg, bundle, 0, side, cert))
        corpus.notes.append(f"{family} n={n} eps={eps}: {instances} instances x 1 trial, "
                            f"support {len(bundle.dist.atoms)} strings")
    return corpus


# -- dl ------------------------------------------------------------------------

def build_dl(p: Program, seed: int, smoke: bool) -> Corpus:
    n, support, yes_instances, far_instances = (64, 24, 2, 2) if smoke else (1024, 256, 6, 8)
    eps = 0.2
    corpus = Corpus()
    sides = {}
    for side, family, stream, fam_seed, instances in (
            ("yes", "dl-yes", 1, DL_YES_SEED, yes_instances),
            ("far", "groups4-no", 2, seed, far_instances)):
        sides[side] = []
        for i in range(instances):
            cfg = p.harness.RunConfig(tester="dl", family=family, n=n, eps=eps,
                                      seed=_seed(fam_seed, stream, i), support_size=support,
                                      consts=dict(DL_DESK))
            bundle = p.harness.build_instance(cfg)
            cert = checks.certify_list(bundle, eps, p.dlmodel.monotonize)
            sides[side].append(_trial_op(p, cfg, bundle, 0, side, cert))
        corpus.notes.append(f"{family} n={n} eps={eps} (seed {fam_seed}): {instances} "
                            f"instances x 1 trial, support {len(bundle.dist.atoms)} strings")
    far = sides["far"]
    for r in range(DL_YES_REPEATS):
        corpus.ops += sides["yes"]
        corpus.ops += far[r * len(far) // DL_YES_REPEATS:(r + 1) * len(far) // DL_YES_REPEATS]
    corpus.notes.append(f"round: the dl-yes trials {DL_YES_REPEATS} times, between thirds "
                        f"of the groups4-no trials")
    return corpus


# -- lab -----------------------------------------------------------------------

def _table_bundle(p: Program, n: int, size: int | None, rng):
    """Random truth table on a random support, as acceptance criterion 5
    builds it; `size` fixes the support size instead of drawing it."""
    bits = [rng.coin() for _ in range(1 << n)]
    if size is None:
        size = 2 + int(rng.integer(0, (1 << n) - 1))
    chosen = set()
    while len(chosen) < size:
        chosen.add(int(rng.integer(0, 1 << n)))
    atoms = [p.core.BitString(n, v) for v in sorted(chosen)]
    return p.instances.InstanceBundle(
        kind="boolean", family="table", n=n, seed=rng.stream_id, params={"bits": bits},
        dist=p.core.FiniteDistribution.uniform(atoms), ground_truth=("unknown",),
        target=p.dlmodel.table_target(bits))


def _exact_order_op(p: Program, bundle) -> Op:
    want = 0.0 if bundle.family == "total-yes" else 0.2

    def run():
        return p.exact.dist_total_orderings(bundle.n, bundle.less, bundle.dist)

    def check(rep):
        return ([] if checks.close(rep.distance, want) else
                [f"dist_total_orderings {rep.distance!r} on {bundle.family}, want {want}"])

    return Op("exact", "dist_total_orderings", run, check,
              lambda rep: (rep.distance, rep.witness, rep.enumeration_size))


def _exact_lists_op(p: Program, bundle) -> Op:
    """dist_mdl and dist_dl on one bundle: two exact-distance computations."""
    def run():
        return (p.exact.dist_mdl(bundle.n, bundle.target, bundle.dist),
                p.exact.dist_dl(bundle.n, bundle.target, bundle.dist))

    def check(res):
        mdl_rep, dl_rep = res
        fails = []
        if dl_rep.distance > mdl_rep.distance + 1e-12:
            fails.append(f"dist_dl {dl_rep.distance} > dist_mdl {mdl_rep.distance}")
        if bundle.family == "mdl-yes" and not (checks.close(mdl_rep.distance, 0.0)
                                               and checks.close(dl_rep.distance, 0.0)):
            fails.append(f"mdl-yes at distance {mdl_rep.distance}/{dl_rep.distance}")
        return fails

    return Op("exact", "dist_mdl+dist_dl", run, check,
              lambda res: tuple((r.distance, r.witness, r.enumeration_size) for r in res),
              count=lambda res: 2, nominal=2)


def _oracle_check_op(p: Program, bundles, seed: int, trials: int) -> Op:
    def run():
        return p.harness.oracle_check(bundles, eps=0.2, trials_per_stratum=trials, seed=seed)

    def check(out):
        fails = [f"oracle_check violation {v}" for v in out["violations"]]
        for name in ("zero", "far"):
            if not out["strata"][name]["bundles"]:
                fails.append(f"oracle_check stratum {name} is empty")
        return fails

    def count(out):
        return len(bundles) + out["strata"]["zero"]["trials"] + out["strata"]["far"]["trials"]

    return Op("oracle_check", "oracle_check", run, check,
              lambda out: (repr(out["violations"]), repr(sorted(out["strata"].items()))),
              count=count, nominal=len(bundles))


def _collision_ops(p: Program, rng, trials: int) -> list:
    bd = p.birthday
    ops = []
    verts_u = [f"u{i}" for i in range(8)]
    verts_v = [f"v{i}" for i in range(8)]
    left = {v: 1.0 / 32 for v in verts_u}
    right = {v: 1.0 / 32 for v in verts_v}
    edges = [(a, b) for a in verts_u for b in verts_v]
    eps = checks.cover_mass(bd.CollisionExperiment(edges=edges, left=left, right=right))
    m = max(math.ceil(100 / eps), math.ceil(math.sqrt(100 * 8 / eps ** 2)))
    exps = [("bipartite", bd.CollisionExperiment(edges=edges, left=left, right=right, m=m,
                                                 m_prime=m, trials=trials), 1)]
    for k, groups in ((3, 8), (4, 6)):
        verts = [f"w{i}" for i in range(k * groups)]
        weights = {v: 1.0 / len(verts) for v in verts}
        h_edges = [tuple(verts[k * g + j] for j in range(k)) for g in range(groups)]
        h_eps = checks.cover_mass(bd.CollisionExperiment(edges=h_edges, left=weights))
        m_h = math.ceil(10 * k * k * len(verts) ** ((k - 1) / k) / h_eps) + 1
        exps.append((f"{k}-uniform", bd.CollisionExperiment(edges=h_edges, left=weights,
                                                            m=m_h, trials=trials), k))
    for label, exp, tag in exps:
        def run(_exp=exp, _tag=tag, _bip=label == "bipartite"):
            regime = _exp.in_regime_bipartite() if _bip else _exp.in_regime_hypergraph()
            runner = bd.run_bipartite_birthday if _bip else bd.run_hypergraph_birthday
            return regime, _exp.certified_epsilon(), runner(_exp, rng.derive(_tag))

        def check(res, _exp=exp, _label=label):
            regime, certified, rate = res
            fails = []
            if not regime:
                fails.append(f"{_label} experiment is not in its regime")
            if not checks.close(certified, checks.cover_mass(_exp)):
                fails.append(f"{_label} cover mass {certified} != {checks.cover_mass(_exp)}")
            if rate < 2.0 / 3.0:
                fails.append(f"{_label} collision rate {rate} < 2/3")
            return fails

        ops.append(Op("collision", label, run, check, lambda res: res))
    return ops


def build_lab(p: Program, seed: int, smoke: bool) -> Corpus:
    SeededRng = p.core.SeededRng
    order_n, list_n = (5, 5) if smoke else (10, 6)
    oc_bundles, oc_trials, bd_trials = (20, 80, 200) if smoke else (100, 400, 1000)
    instances, trials = (2, 4) if smoke else (8, 8)
    eps = 0.1
    corpus = Corpus()
    witness = _ordering_witness(p)
    for side, family, stream in (("yes", "total-yes", 1), ("far", "pentagon", 2)):
        for i in range(instances):
            cfg = p.harness.RunConfig(tester="total", family=family, n=order_n, eps=eps,
                                      seed=_seed(seed, stream, i),
                                      support_size=2 * order_n)
            bundle = p.harness.build_instance(cfg)
            cert = checks.certify_ordering(bundle, eps)
            corpus.ops.append(_exact_order_op(p, bundle))
            corpus.ops += [_trial_op(p, cfg, bundle, t, side, cert, witness)
                           for t in range(trials)]
    corpus.notes.append(f"orderings n={order_n} eps={eps}: {instances} total-yes + {instances} "
                        f"pentagon, each 1 exact distance + {trials} tester trials")

    rng = SeededRng(seed, 0x1AB)
    lists = [p.instances.gen_mdl_yes(list_n, 2 * list_n, rng.derive(0)),
             _table_bundle(p, list_n, 2 * list_n, rng.derive(1))]
    corpus.ops += [_exact_lists_op(p, b) for b in lists]
    corpus.notes.append(f"lists n={list_n}: 1 mdl-yes + 1 random table, "
                        f"{2 * list_n} atoms each, dist_mdl and dist_dl on both")

    rng5 = SeededRng(seed, 0xC5)
    bundles = [p.instances.gen_mdl_yes(4, 3, rng5.derive(i)) for i in range(oc_bundles)]
    bundles += [_table_bundle(p, 4, None, rng5.derive(1000 + i)) for i in range(oc_bundles)]
    corpus.ops.append(_oracle_check_op(p, bundles, _seed(seed, 3, 0), oc_trials))
    corpus.notes.append(f"oracle_check n=4: {oc_bundles} mdl-yes (support 3) + {oc_bundles} "
                        f"random tables, {oc_trials} trials per stratum")

    corpus.ops += _collision_ops(p, SeededRng(seed, 0xC6), bd_trials)
    corpus.notes.append(f"collisions: bipartite K8,8, 3-uniform 8 groups, 4-uniform 6 groups, "
                        f"{bd_trials} trials each")
    return corpus


WORKLOADS = {"order": build_order, "mdl": build_mdl, "dl": build_dl, "lab": build_lab}

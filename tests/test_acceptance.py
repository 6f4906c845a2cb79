"""Statistical acceptance gate: one test per criterion, each printing a
PASS/FAIL line with the measured quantities behind it."""

import concurrent.futures
import math
import multiprocessing
import time

import pytest

from sublintest.core import BitString, FiniteDistribution, SeededRng, bit_or, unit
from sublintest.dlmodel import eval_mdl, min_index, random_dl, random_mdl
from sublintest.dl import DlConstants, decision_list_tester, index_search
from sublintest.exact import min_vertex_cover_weight
from sublintest.birthday import (CollisionExperiment, run_bipartite_birthday,
                                 run_hypergraph_birthday)
from sublintest.harness import RunConfig, budget_for, oracle_check, run_trials
from sublintest.instances import (gen_dl_yes, gen_groups4, gen_mdl_yes, gen_pentagon,
                                  gen_random_table, gen_total_yes)
from sublintest.mdl import (BigBlockSet, MdlConstants, MdlRun, _find_block_ex, budget_mdl,
                            monotone_dl_tester, sketch_mdl)
from sublintest.oracles import (FunctionOracle, MarginalSampler, PairSampler, QueryLedger,
                               Verdict)
from sublintest.total_order import TotalSketch, sketch_total
from sublintest.total_order import test_long_cycles as long_stage
from sublintest.total_order import test_total_ordering as run_total_tester

from helpers import find_rep, mdl_run

pytestmark = pytest.mark.acceptance

DL_DESK = DlConstants(t_amplify=3, outer_rounds=6, inner_rounds=8, accept_threshold=3,
                      sketch_source="light")


def report(criterion, ok, detail):
    print(f"\nCRITERION {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_total_ordering_contract():
    start = time.time()
    rng = SeededRng(0xC1)
    accepts = 0
    for i in range(100):
        n = 64 + 16 * int(rng.integer(0, 61))  # up to 1024
        bundle = gen_total_yes(n, min(4 * n, n * (n - 1) // 2), rng.derive(i))
        for t in range(2):
            v = run_total_tester(bundle.comparison_oracle(), bundle.dist, 0.1,
                                 rng.derive(10_000 + 2 * i + t))
            accepts += v.accepted
    rejects = 0
    for i in range(100):
        n = 5 * (10 + int(rng.integer(0, 191)))  # multiples of 5 up to 1000
        bundle = gen_pentagon(n, rng.derive(20_000 + i))
        for t in range(2):
            v = run_total_tester(bundle.comparison_oracle(), bundle.dist, 0.1,
                                 rng.derive(30_000 + 2 * i + t))
            rejects += v.rejected
    elapsed = time.time() - start
    ok = accepts >= 150 and rejects >= 150 and elapsed < 600
    report(1, ok, f"yes accept {accepts}/200, pentagon reject {rejects}/200, "
                  f"{elapsed:.0f}s (< 600s)")


def test_criterion_2_one_sided_stages():
    rng = SeededRng(0xC2)
    order_rejects = 0
    for i in range(500):
        n = 64 + 8 * int(rng.integer(0, 121))
        bundle = gen_total_yes(n, min(3 * n, n * (n - 1) // 2), rng.derive(i))
        cmp = bundle.comparison_oracle()
        sk = sketch_total(cmp, MarginalSampler(bundle.dist, rng.derive(1000 + i), cmp.ledger), 0.2)
        if not isinstance(sk, TotalSketch):
            order_rejects += 1
            continue
        v = long_stage(cmp, PairSampler(bundle.dist, rng.derive(2000 + i), cmp.ledger), 0.2, sk)
        order_rejects += v.rejected

    stage_rejects = 0
    ran = 0
    i = 0
    while ran < 500:
        i += 1
        bundle = gen_mdl_yes(256, 96, rng.derive(50_000 + i))
        f = bundle.function_oracle()
        run = mdl_run(f, bundle.dist, 0.2, rng.derive(60_000 + i))
        out = run.preprocess()
        if isinstance(out, Verdict):
            continue  # single-valued support: the stages never ran
        sk, L = run.sk, run.L
        ran += 1
        for c in (1, 3, 4, 5):
            stage = mdl_run(f, bundle.dist, 0.2, rng.derive(70_000 + 8 * i + c),
                            MdlConstants(), sk, L)
            v = stage.test_type(c)
            stage_rejects += v.rejected
    ok = order_rejects == 0 and stage_rejects == 0
    report(2, ok, f"ordering-stage rejections {order_rejects}/500, "
                  f"list-stage rejections {stage_rejects}/500 runs")


def test_criterion_3_mdl_contract_desk_scale():
    start = time.time()
    n, eps = 4096, 0.1
    rng = SeededRng(0xC3)
    accepts = 0
    for t in range(200):
        bundle = gen_mdl_yes(n, 1024, rng.derive(t))
        ledger = QueryLedger()
        v = monotone_dl_tester(bundle.function_oracle(ledger), bundle.dist, eps,
                               rng.derive(1000 + t))
        accepts += v.accepted
        assert ledger.function_queries <= budget_mdl(n, eps)[0]
        assert ledger.samples_drawn <= budget_mdl(n, eps)[1]
    rejects = 0
    for t in range(200):
        bundle = gen_groups4(n, rng.derive(2000 + t), "no")
        v = monotone_dl_tester(bundle.function_oracle(), bundle.dist, eps,
                               rng.derive(3000 + t))
        rejects += v.rejected
    elapsed = time.time() - start
    ok = accepts >= 150 and rejects >= 150 and elapsed < 1800
    report(3, ok, f"yes accept {accepts}/200, groups4-no reject {rejects}/200, "
                  f"{elapsed:.0f}s (< 1800s)")


def _criterion_4_trial(task) -> bool:
    """Whether criterion 4's trial t on side ("yes" or "no") decides as that side
    should; a pure function of (side, t), so a worker process can run it."""
    side, t = task
    rng = SeededRng(0xC4)
    if side == "yes":
        bundle, trial_rng = gen_dl_yes(1024, 256, rng.derive(t)), rng.derive(1000 + t)
    else:
        bundle, trial_rng = gen_groups4(1024, rng.derive(2000 + t), "no"), rng.derive(3000 + t)
    v = decision_list_tester(bundle.function_oracle(), bundle.dist, 0.2, trial_rng, DL_DESK)
    return v.accepted if side == "yes" else v.rejected


def test_criterion_4_dl_contract():
    # the 200 seeded trials are independent and the criterion has no time
    # bound, so two worker processes share them
    tasks = [("yes", t) for t in range(100)] + [("no", t) for t in range(100)]
    spawn = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(2, mp_context=spawn) as pool:
        hits = list(pool.map(_criterion_4_trial, tasks))
    accepts, rejects = sum(hits[:100]), sum(hits[100:])
    ok = accepts >= 75 and rejects >= 75
    report(4, ok, f"dl-yes accept {accepts}/100, groups4-no reject {rejects}/100 "
                  f"(desk round profile, see README)")


def test_criterion_5_exact_oracle_equivalence_tiny():
    rng = SeededRng(0xC5)
    bundles = [gen_mdl_yes(4, 3, rng.derive(i)) for i in range(100)]
    bundles += [gen_random_table(4, rng.derive(1000 + i)) for i in range(100)]
    out = oracle_check(bundles, eps=0.2, trials_per_stratum=400, seed=0x51ED)
    zero = out["strata"]["zero"]
    far = out["strata"]["far"]
    ok = (not out["violations"] and zero["trials"] >= 400 and far["trials"] >= 400)
    report(5, ok, f"zero-distance accept rate {zero['rate']:.3f} over {zero['trials']}, "
                  f"far reject rate {far['rate']:.3f} over {far['trials']}, "
                  f"violations {out['violations']}")


def test_criterion_6_birthday_regimes():
    rng = SeededRng(0xC6)
    verts_u = [f"u{i}" for i in range(8)]
    verts_v = [f"v{i}" for i in range(8)]
    left = {v: 1.0 / 32 for v in verts_u}
    right = {v: 1.0 / 32 for v in verts_v}
    edges = [(a, b) for a in verts_u for b in verts_v]
    eps = min_vertex_cover_weight(verts_u + verts_v, edges,
                                  {**left, **right})
    m = max(math.ceil(100 / eps), math.ceil(math.sqrt(100 * 8 / eps ** 2)))
    exp = CollisionExperiment(edges=edges, left=left, right=right, m=m, m_prime=m,
                              trials=1000)
    assert exp.in_regime_bipartite()
    bip = run_bipartite_birthday(exp, rng.derive(1))

    rates = {"bipartite": bip}
    for k, groups in ((3, 8), (4, 6)):
        verts = [f"w{i}" for i in range(k * groups)]
        weights = {v: 1.0 / len(verts) for v in verts}
        h_edges = [tuple(verts[k * g + j] for j in range(k)) for g in range(groups)]
        h_eps = min_vertex_cover_weight(verts, h_edges, weights)
        m_h = math.ceil(10 * k * k * len(verts) ** ((k - 1) / k) / h_eps) + 1
        exp_h = CollisionExperiment(edges=h_edges, left=weights, m=m_h, trials=1000)
        assert exp_h.in_regime_hypergraph()
        rates[f"{k}-uniform"] = run_hypergraph_birthday(exp_h, rng.derive(k))
    ok = all(r >= 0.97 for r in rates.values())
    report(6, ok, "collision rates " +
           ", ".join(f"{k}={v:.3f}" for k, v in rates.items()) + " (all >= 0.97)")


def _weight2_set(n, count, rng):
    out, seen = [], set()
    while len(out) < count:
        a, b = int(rng.integer(1, n + 1)), int(rng.integer(1, n + 1))
        if a != b:
            v = (1 << (a - 1)) | (1 << (b - 1))
            if v not in seen:
                seen.add(v)
                out.append(BitString(n, v))
    return out


def _expected_blocks(rep, sk, x):
    b = eval_mdl(rep, x)
    rx = min_index(rep, x)
    k = sk.k
    ranks = [min_index(rep, s) for s in sk.strings]
    vals = sk.values
    out = []
    for ell in range(0, k + 2):
        if 2 <= ell <= k - 1:
            if vals[ell - 2] != b and vals[ell] != b and ranks[ell - 2] < rx < ranks[ell]:
                out.append(ell)
        elif ell in (0, 1):
            if vals[ell] != b and rx < ranks[ell]:
                out.append(ell)
        else:
            if vals[ell - 2] != b and ranks[ell - 2] < rx:
                out.append(ell)
    return out


def test_criterion_7_deterministic_postconditions():
    rng = SeededRng(0xC7)
    failures = []

    # halving-extraction goal equation
    for i in range(500):
        n = 2 + int(rng.integer(0, 63))
        rep = random_mdl(n, rng.derive(i))
        f = FunctionOracle(n, rep.target())
        xs = [rng.bit_string(n) for _ in range(1 + int(rng.integer(0, 6)))]
        xs = [x if x.v else unit(1, n) for x in xs]
        ys = [rng.bit_string(n) for _ in range(int(rng.integer(0, 4)))]
        xstar = find_rep(f, xs, ys)
        acc = 0
        for y in ys:
            acc |= y.v
        lhs = rep.target()(xstar.v | acc)
        for z in xs:
            acc |= z.v
        if lhs != rep.target()(acc):
            failures.append(("find_rep", i))

    # block-location three-case contract
    done = 0
    i = 0
    while done < 500:
        i += 1
        n = 6 + int(rng.integer(0, 58))
        rep = random_mdl(n, rng.derive(10_000 + i))
        T = _weight2_set(n, min(12, n - 1), rng.derive(20_000 + i))
        if len({eval_mdl(rep, x) for x in T}) < 2:
            continue
        f = FunctionOracle(n, rep.target())
        sk = sketch_mdl(f, T)
        x = rng.bit_string(n)
        x = x if x.v else unit(1, n)
        want = _expected_blocks(rep, sk, x)
        got = _find_block_ex(f, sk, x)[0]
        if len(want) != 1 or got != want[0]:
            failures.append(("find_block", i))
        done += 1

    # highest-index domination
    done = 0
    i = 0
    while done < 500:
        i += 1
        n = 6 + int(rng.integer(0, 58))
        rep = random_mdl(n, rng.derive(30_000 + i))
        T = _weight2_set(n, min(12, n - 1), rng.derive(40_000 + i))
        if len({eval_mdl(rep, x) for x in T}) < 2:
            continue
        f = FunctionOracle(n, rep.target())
        sk = sketch_mdl(f, T)
        supp = {int(rng.integer(1, n + 1)) for _ in range(3)}
        x = BitString.from_support(n, supp)
        run = MdlRun.from_parts(f, None, 0.2, None, MdlConstants(), sk,
                                BigBlockSet(frozenset(), sk.k))
        mi = run.max_index(x)
        if mi is None:
            failures.append(("max_index_nil", i))
        else:
            fmi = rep.target()(1 << (mi - 1))
            for j in x.support():
                if rep.target()((1 << (mi - 1)) | (1 << (j - 1))) != fmi:
                    failures.append(("max_index_dom", i))
                    break
        done += 1

    # pivot-relative index search
    deep = shallow = 0
    i = 0
    while deep + shallow < 500:
        i += 1
        n = 4 + int(rng.integer(0, 60))
        rep = random_dl(n, rng.derive(50_000 + i))
        t = rep.target()
        r = rng.bit_string(n)
        y = rng.bit_string(n)
        if t(r.v) == t(y.v):
            continue
        f = FunctionOracle(n, rep.target())
        out = index_search(f, r, y)
        mr, my = min_index(rep, r), min_index(rep, y)
        if mr > my:
            deep += 1
            if out is None or rep.pi.index(out) + 1 > mr or t(r.v ^ (1 << (out - 1))) == t(r.v):
                failures.append(("index_search_deep", i))
        else:
            shallow += 1
            if out is not None and out != rep.pi[mr - 1]:
                failures.append(("index_search_shallow", i))
    ok = not failures
    report(7, ok, f"zero contract failures across 4x500 randomized cases "
                  f"(failures: {failures[:5]})")


def test_criterion_8_query_accounting_and_scaling(tmp_path):
    # the support scales with sqrt(n) so the drawn sets never saturate the
    # vertex space: at eps = 0.1 the sketch stage draws more samples than
    # n itself at the low end of the range, and costs measured through that
    # saturation regime reflect coupon collection rather than the tester
    start = time.time()
    means = []
    rows_all = []
    for n in (1024, 4096, 16384, 65536):
        cfg = RunConfig(tester="total", family="total-yes", n=n, eps=0.1, trials=6,
                        seed=0xC8, support_size=4 * int(math.isqrt(n)))
        bq, bs = budget_for(cfg)
        rep = run_trials(cfg)
        for row in rep.rows:
            assert row["verdict"] == "accept"
            assert row["queries"] <= bq and row["samples"] <= bs
        rows_all.extend(rep.rows)
        means.append(rep.total_queries() / rep.trials)
    ratios = [b / a for a, b in zip(means, means[1:])]
    csv_path = tmp_path / "scaling.csv"
    import csv as csvmod
    with open(csv_path, "w", newline="") as fh:
        w = csvmod.DictWriter(fh, fieldnames=list(rows_all[0]))
        w.writeheader()
        w.writerows(rows_all)
    elapsed = time.time() - start
    ok = all(r <= 2.5 for r in ratios) and elapsed < 3600 and csv_path.exists()
    report(8, ok, f"mean queries {['%.0f' % m for m in means]}, growth per 4x "
                  f"{['%.2f' % r for r in ratios]} (<= 2.5), {elapsed:.0f}s (< 3600s)")


def test_criterion_9_reproducibility():
    def strip(rows):
        return [(r["trial"], r["verdict"], r["queries"], r["samples"]) for r in rows]

    configs = [
        RunConfig(tester="total", family="pentagon", n=100, eps=0.1, trials=5, seed=31),
        RunConfig(tester="mdl", family="mdl-yes", n=256, eps=0.2, trials=3, seed=32,
                  support_size=64),
        RunConfig(tester="dl", family="dl-yes", n=64, eps=0.25, trials=2, seed=33,
                  support_size=24,
                  consts={"t_amplify": 1, "outer_rounds": 3, "inner_rounds": 4,
                          "c_accept_threshold": 2, "sketch_source": "light"}),
    ]
    ok = True
    detail = []
    for cfg in configs:
        a = strip(run_trials(cfg).rows)
        b = strip(run_trials(cfg).rows)
        same = a == b
        ok = ok and same
        detail.append(f"{cfg.tester}:{'=' if same else '!='}")
    report(9, ok, "verdict/ledger columns identical on replay: " + " ".join(detail))

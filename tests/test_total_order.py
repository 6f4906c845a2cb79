import pytest

from sublintest.core import PairDistribution, SeededRng
from sublintest.instances import gen_pentagon, gen_total_yes
from sublintest.oracles import ComparisonOracle, QueryLedger, Verdict
from sublintest.total_order import (TotalSketch, budget_total, find_block_total, sketch_total,
                                    verify_total_witness)
from sublintest.total_order import test_local_cycles as local_stage
from sublintest.total_order import test_long_cycles as long_stage
from sublintest.total_order import test_total_ordering as run_total_tester


def natural_oracle(n, ledger=None):
    return ComparisonOracle(n, lambda u, v: u < v, ledger)


def test_sketch_never_rejects_total_ordering():
    rng = SeededRng(100)
    cmp = natural_oracle(64)
    d = PairDistribution.uniform(64, [(i, i + 1) for i in range(1, 64)])
    for trial in range(20):
        out = sketch_total(cmp, d, 0.3, rng.derive(trial))
        assert isinstance(out, TotalSketch)
        assert out.elements == sorted(out.elements)


def test_sketch_on_triangle_stays_consistent_but_tester_rejects():
    # 1 < 2, 2 < 3, 3 < 1: every rotation of the cycle passes the adjacent
    # check, so the sketch itself stays consistent; the backward edge is then
    # a long edge and the full tester still rejects
    orient = {(1, 2): True, (2, 3): True, (1, 3): False}
    cmp = ComparisonOracle(3, lambda u, v: orient[(u, v)])
    d = PairDistribution.uniform(3, [(1, 2), (2, 3), (1, 3)])
    for trial in range(20):
        out = sketch_total(cmp, d, 0.2, SeededRng(7, trial))
        assert isinstance(out, TotalSketch)
        for a, b in zip(out.elements, out.elements[1:]):
            assert cmp.less(a, b)
    rejects = sum(run_total_tester(cmp, d, 0.3, SeededRng(8, t)).rejected
                  for t in range(20))
    assert rejects == 20


def test_find_block_contract_cases():
    cmp = natural_oracle(10)
    sk = TotalSketch([3, 7])
    assert find_block_total(cmp, sk, 5) == 1
    assert find_block_total(cmp, sk, 2) == 0
    assert find_block_total(cmp, sk, 9) == 2
    assert find_block_total(cmp, sk, 3) == 1
    assert find_block_total(cmp, sk, 7) == 2


def test_find_block_matches_linear_scan():
    rng = SeededRng(3)
    for trial in range(30):
        n = 8 + rng.integer(0, 57)
        perm = rng.permutation(n)
        pos = {v: i for i, v in enumerate(perm)}
        cmp = ComparisonOracle(n, lambda u, v, _p=pos: _p[u] < _p[v])
        size = 1 + rng.integer(0, min(10, n - 1))
        chosen = sorted(rng.shuffle(list(range(1, n + 1)))[:size], key=lambda v: pos[v])
        sk = TotalSketch(chosen)
        for u in range(1, n + 1):
            got = find_block_total(cmp, sk, u)
            if u in chosen:
                expect = min(chosen.index(u) + 1, sk.k)
            else:
                expect = sum(1 for s in chosen if pos[s] < pos[u])
            assert got == expect


def test_find_block_query_bound():
    cmp = natural_oracle(512)
    sk = TotalSketch(list(range(2, 512, 2)))
    import math
    bound = 2 * math.ceil(math.log2(sk.k)) + 2
    for u in (1, 5, 101, 301, 511):
        before = cmp.ledger.function_queries
        find_block_total(cmp, sk, u)
        assert cmp.ledger.function_queries - before <= bound


def test_long_stage_one_sided():
    rng = SeededRng(44)
    for trial in range(25):
        bundle = gen_total_yes(128, 100, rng.derive(trial))
        cmp = bundle.comparison_oracle()
        sk = sketch_total(cmp, bundle.dist, 0.2, rng.derive(1000 + trial))
        assert isinstance(sk, TotalSketch)
        v = long_stage(cmp, bundle.dist, 0.2, rng.derive(2000 + trial), sk)
        assert v.accepted


def test_long_cycle_witness_detected():
    # order graph: 1 < 2 < ... < 10 except the pair {1, 10} points backwards
    def base(u, v):
        if (u, v) == (1, 10):
            return False
        return u < v

    cmp = ComparisonOracle(10, base)
    sk = TotalSketch([2, 5, 8])
    d = PairDistribution.uniform(10, [(1, 10)])
    v = long_stage(cmp, d, 0.5, SeededRng(1), sk)
    assert v.rejected and v.witness[0] == "long_edge"
    assert verify_total_witness(cmp, sk, v.witness)


def test_local_cycles_triangle_detected():
    # single block everything; 4 < 5 < 6 < 4 cycle inside
    orient = {}
    for u in range(1, 11):
        for v in range(u + 1, 11):
            orient[(u, v)] = True
    orient[(4, 6)] = False  # 6 < 4

    cmp = ComparisonOracle(10, lambda u, v: orient[(u, v)])
    sk = TotalSketch([1, 10])
    d = PairDistribution.uniform(10, [(4, 5), (5, 6), (4, 6)])
    hits = 0
    for trial in range(30):
        v = local_stage(cmp, d, 0.4, SeededRng(9, trial), sk)
        if v.rejected:
            assert v.witness[0] == "triangle"
            assert verify_total_witness(cmp, sk, v.witness)
            hits += 1
    assert hits >= 25


def test_total_ordering_accepts_yes_instances():
    rng = SeededRng(55)
    accepts = 0
    for trial in range(30):
        bundle = gen_total_yes(256, 200, rng.derive(trial))
        ledger = QueryLedger()
        cmp = bundle.comparison_oracle(ledger)
        v = run_total_tester(cmp, bundle.dist, 0.15, rng.derive(500 + trial))
        accepts += v.accepted
        assert v.queries == ledger.function_queries
        assert v.queries <= budget_total(256, 0.15)[0]
        assert v.samples <= budget_total(256, 0.15)[1]
    assert accepts == 30


def test_total_ordering_rejects_pentagon():
    rng = SeededRng(66)
    rejects = 0
    for trial in range(30):
        bundle = gen_pentagon(100, rng.derive(trial))
        cmp = bundle.comparison_oracle()
        v = run_total_tester(cmp, bundle.dist, 0.1, rng.derive(700 + trial))
        rejects += v.rejected
    assert rejects >= 27


def test_budget_holds_on_pentagon_runs():
    rng = SeededRng(77)
    bundle = gen_pentagon(50, rng)
    for trial in range(10):
        ledger = QueryLedger()
        cmp = bundle.comparison_oracle(ledger)
        run_total_tester(cmp, bundle.dist, 0.1, rng.derive(trial))
        assert ledger.function_queries <= budget_total(50, 0.1)[0]
        assert ledger.samples_drawn <= budget_total(50, 0.1)[1]


def test_certified_far_corpus_reject_rate_small_n():
    # exact distance 0.2 certified by enumeration at this width; the tester
    # must reject at the contract rate with slack
    from sublintest.exact import dist_total_orderings
    bundle = gen_pentagon(10, SeededRng(88))
    assert dist_total_orderings(10, bundle.less, bundle.dist).distance == pytest.approx(0.2)
    rejects = 0
    for t in range(400):
        cmp = bundle.comparison_oracle()
        rejects += run_total_tester(cmp, bundle.dist, 0.1, SeededRng(89, t)).rejected
    assert rejects / 400 >= 2 / 3 - 0.05

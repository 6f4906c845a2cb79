import pytest

from sublintest.core import PairDistribution, SeededRng
from sublintest.harness import wilson_interval
from sublintest.instances import gen_pentagon, gen_total_yes, pentagon_less
from sublintest.oracles import BudgetExhausted, ComparisonOracle, QueryLedger, Verdict
from sublintest.total_order import (TotalSketch, budget_total, find_block_total, order_sketch,
                                    sketch_total, verify_total_witness)
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


# -- the per-query reference for the fused sort and search passes -------------

def reference_merge_sort(items, less):
    """The merge sort with one oracle call per comparison."""
    if len(items) <= 1:
        return items
    mid = len(items) // 2
    a = reference_merge_sort(items[:mid], less)
    b = reference_merge_sort(items[mid:], less)
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        if less(b[j], a[i]):
            out.append(b[j])
            j += 1
        else:
            out.append(a[i])
            i += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out


def reference_order_sketch(cmp, items):
    ordered = reference_merge_sort(items, cmp.less)
    for a, b in zip(ordered, ordered[1:]):
        if not cmp.less(a, b):
            return Verdict("reject", witness=("adjacent_inversion", a, b))
    return TotalSketch(ordered)


def reference_find_block(cmp, sk, u):
    pos = sk.position(u)
    if pos is not None:
        return pos if pos < sk.k else sk.k
    els = sk.elements
    if cmp.less(u, els[0]):
        return 0
    if sk.k == 1 or cmp.less(els[-1], u):
        return sk.k
    lower, upper = 1, sk.k
    while upper - lower > 1:
        mid = (upper + lower) // 2
        if cmp.less(u, els[mid - 1]):
            upper = mid
        else:
            lower = mid
    return lower


REF_N = 72


def make_target(kind, seed):
    """A fresh target(u, v), u < v, on [1..REF_N]: a transitive, pentagon or
    random tournament, or a noisy one whose every call is a new coin, which
    makes the adjacent check find inversions.  Equal arguments make targets
    that answer an equal call sequence equally."""
    rng = SeededRng(seed)
    if kind == "noisy":
        return lambda u, v: rng.coin()
    if kind == "random":
        pairs = [(u, v) for u in range(1, REF_N) for v in range(u + 1, REF_N + 1)]
        bits = dict(zip(pairs, rng.integer_block(0, 2, len(pairs)).tolist()))
        return lambda u, v: bits[(u, v)]
    order = rng.permutation(REF_N)
    if kind == "pentagon":
        return pentagon_less(order)
    pos = {v: i for i, v in enumerate(order)}
    return lambda u, v: pos[u] < pos[v]


def logged(target, log):
    """An oracle whose target calls are appended to log."""
    def call(u, v):
        log.append((u, v))
        return target(u, v)
    return ComparisonOracle(REF_N, call)


def outcome(out):
    return out.elements if isinstance(out, TotalSketch) else out.witness


def corpus(seed):
    """(kind, target seed, items) for every kind and every size 0-70."""
    rng = SeededRng(seed)
    for kind in ("transitive", "pentagon", "random", "noisy"):
        for size in range(71):
            yield kind, seed * 1000 + size, list(rng.derive(size).permutation(REF_N)[:size])


def test_order_sketch_matches_per_query_reference():
    rejects = 0
    for kind, seed, items in corpus(31):
        ref_log, log = [], []
        ref_cmp = logged(make_target(kind, seed), ref_log)
        cmp = logged(make_target(kind, seed), log)
        ref = reference_order_sketch(ref_cmp, list(items))
        got = order_sketch(cmp, list(items))
        assert type(got) is type(ref)
        assert outcome(got) == outcome(ref)
        assert cmp.ledger.snapshot() == ref_cmp.ledger.snapshot()
        assert log == ref_log
        rejects += isinstance(got, Verdict)
    assert rejects > 30  # the early return of the adjacent check is covered


def test_find_block_matches_per_query_reference():
    for kind, seed, items in corpus(32):
        if not items:
            continue
        sk = TotalSketch(reference_merge_sort(items, ComparisonOracle(REF_N, make_target(
            kind, seed)).less))
        ref_log, log = [], []
        ref_cmp = logged(make_target(kind, seed), ref_log)
        cmp = logged(make_target(kind, seed), log)
        for u in range(1, REF_N + 1):
            assert find_block_total(cmp, sk, u) == reference_find_block(ref_cmp, sk, u)
            assert cmp.ledger.snapshot() == ref_cmp.ledger.snapshot()
        assert log == ref_log


def spend(pass_fn, kind, budget=None):
    """Queries the pass charges on a fresh target, or at exhaustion."""
    ledger = QueryLedger(query_budget=budget)
    try:
        pass_fn(ComparisonOracle(REF_N, make_target(kind, 33), ledger))
    except BudgetExhausted:
        return "exhausted", ledger.function_queries
    return "done", ledger.function_queries


@pytest.mark.parametrize("kind", ["transitive", "random", "noisy"])
def test_fused_passes_exhaust_the_budget_where_the_reference_does(kind):
    items = list(SeededRng(34).permutation(REF_N)[:60])
    sk = TotalSketch(reference_merge_sort(items[:40], ComparisonOracle(
        REF_N, make_target(kind, 33)).less))
    # the vertex whose search costs most
    u = max(items[40:], key=lambda w: spend(lambda c: reference_find_block(c, sk, w), kind))
    passes = [(lambda c: order_sketch(c, list(items)),
               lambda c: reference_order_sketch(c, list(items))),
              (lambda c: find_block_total(c, sk, u),
               lambda c: reference_find_block(c, sk, u))]
    for fused, ref in passes:
        status, spent = spend(fused, kind)
        assert status == "done" and spent > 2
        for budget in range(spent):
            assert spend(fused, kind, budget) == spend(ref, kind, budget) == ("exhausted", budget)
        assert spend(fused, kind, spent) == ("done", spent)


def test_fused_passes_reject_vertices_outside_the_range():
    cmp = ComparisonOracle(10, lambda u, v: u < v)
    for items in ([1, 11, 2], [0, 3], [4, 12]):
        with pytest.raises(ValueError):
            order_sketch(cmp, items)
        with pytest.raises(ValueError):
            reference_order_sketch(cmp, items)
    for sk, u in ((TotalSketch([3, 7]), 11), (TotalSketch([3, 7]), 0),
                  (TotalSketch([3, 17]), 5), (TotalSketch([0, 7]), 5)):
        with pytest.raises(ValueError):
            find_block_total(cmp, sk, u)
        with pytest.raises(ValueError):
            reference_find_block(cmp, sk, u)


# -- cross-check against the exact distance ----------------------------------

def random_pair_instance(rng, n, transitive):
    """A tournament on [1..n] (transitive or uniform) with a random pair
    support of random weights."""
    if transitive:
        pos = {v: i for i, v in enumerate(rng.permutation(n))}
        less = lambda u, v: pos[u] < pos[v]  # noqa: E731
    else:
        bits = {(u, v): rng.coin() for u in range(1, n) for v in range(u + 1, n + 1)}
        less = lambda u, v: bits[(u, v)] if u < v else not bits[(v, u)]  # noqa: E731
    pairs = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]
    chosen = rng.shuffle(pairs)[:2 + rng.integer(0, len(pairs) - 1)]
    weights = [0.5 + rng.random() for _ in chosen]
    total = sum(weights)
    return less, PairDistribution(n, [(p, w / total) for p, w in zip(chosen, weights)])


def test_tester_against_exact_distance_on_random_tournaments():
    """Transitive tournaments are accepted on every trial; over the instances
    at exact distance >= eps the reject rate is at least 2/3 (Wilson lower
    bound).  A non-transitive instance at distance 0 may still be rejected on
    a true cycle, so nothing is asserted for it."""
    from sublintest.exact import dist_total_orderings
    eps, trials = 0.1, 20
    rng = SeededRng(4242)
    far_rejects = far_trials = 0
    for i in range(200):
        inst = rng.derive(i)
        n = 4 + inst.integer(0, 4)
        transitive = i % 4 == 0
        less, d = random_pair_instance(inst, n, transitive)
        distance = dist_total_orderings(n, less, d).distance
        if transitive:
            assert distance == 0
        elif distance < eps:
            continue
        for t in range(trials):
            cmp = ComparisonOracle(n, lambda u, v, _l=less: _l(u, v))
            v = run_total_tester(cmp, d, eps, inst.derive(100 + t))
            if transitive:
                assert v.accepted
            else:
                far_trials += 1
                far_rejects += v.rejected
    assert far_trials >= 400
    assert wilson_interval(far_rejects, far_trials)[0] >= 2 / 3

import pytest

from sublintest.core import BitString, FiniteDistribution, SeededRng, bit_or, clamped_log2, unit
from sublintest.dl import HybridFunction, _extraction_replay, _RecordingOracle
from sublintest.dlmodel import MonotoneDLRep, eval_mdl, min_index, monotonize, random_mdl
from sublintest.harness import RunConfig, build_instance
from sublintest.instances import gen_groups4, gen_mdl_yes, gen_planted_violation
from sublintest.mdl import (DEFAULT_MDL, BigBlockSet, MdlConstants, MdlRun, MdlSketch,
                            _extract, _find_block_ex, _or_all, _OrTree, _runs, budget_mdl,
                            monotone_dl_tester, sketch_mdl)
from sublintest.oracles import BudgetExhausted, DistSampler, FunctionOracle, QueryLedger, Verdict

from helpers import find_rep, mdl_run


def oracle_for(rep, ledger=None):
    return FunctionOracle(rep.n, rep.target(), ledger)


def goal_equation_holds(rep, xstar, xs, ys):
    f = rep.target()
    acc = 0
    for y in ys:
        acc |= y.v
    lhs = f(xstar.v | acc)
    for z in xs:
        acc |= z.v
    return lhs == f(acc)


def test_find_rep_singleton():
    rep = random_mdl(6, SeededRng(1))
    f = oracle_for(rep)
    x = BitString(6, 0b101)
    assert find_rep(f, [x], [BitString(6, 0b10)]) == x


def test_find_rep_top_priority_example():
    rep = MonotoneDLRep(3, (2, 1, 3), (1, 0, 1, 0))
    f = oracle_for(rep)
    out = find_rep(f, [unit(1, 3), unit(2, 3), unit(3, 3)], [])
    assert out == unit(2, 3)


def test_find_rep_goal_equation_randomized():
    rng = SeededRng(2)
    for trial in range(300):
        n = 2 + rng.integer(0, 30)
        rep = random_mdl(n, rng)
        f = oracle_for(rep)
        xs = [rng.bit_string(n) for _ in range(1 + rng.integer(0, 6))]
        xs = [x if x.v else unit(1, n) for x in xs]
        ys = [rng.bit_string(n) for _ in range(rng.integer(0, 4))]
        xstar = find_rep(f, xs, ys)
        assert xstar in xs
        assert goal_equation_holds(rep, xstar, xs, ys)


def _or_tree_arrays(values):
    """The tree's count and OR arrays built one leaf at a time: the reference
    for the sliced build in _OrTree.__init__."""
    size = 1
    while size < max(1, len(values)):
        size *= 2
    cnt = [0] * (2 * size)
    orv = [0] * (2 * size)
    for i, v in enumerate(values):
        cnt[size + i] = 1
        orv[size + i] = v
    for i in range(size - 1, 0, -1):
        cnt[i] = cnt[2 * i] + cnt[2 * i + 1]
        orv[i] = orv[2 * i] | orv[2 * i + 1]
    return size, cnt, orv


def test_or_tree_matches_list_model():
    # the alive strings in position order are the model; every window of
    # alive ranks, clamped ones included, must OR the same model slice
    rng = SeededRng(4)
    for m in range(0, 71):
        values = [1 + rng.integer(0, 1 << 20) for _ in range(m)]
        tree = _OrTree(values)
        assert (tree.size, tree.cnt, tree.orv) == _or_tree_arrays(values)
        alive = list(range(m))
        while True:
            assert tree.alive == len(alive)
            assert tree.or_all() == _or_all(values[p] for p in alive)
            assert tree.alive_positions() == alive
            for r in range(len(alive)):
                assert tree.kth_alive(r) == alive[r]
            k = len(alive)
            for a in range(-2, k + 3):
                want = 0  # OR of the alive strings of rank in [a, b)
                for b in range(-2, k + 3):
                    if 0 <= b - 1 < k and b - 1 >= a:
                        want |= values[alive[b - 1]]
                    assert tree.or_range(a, b) == want, (m, alive, a, b)
            if not alive:
                break
            r = rng.integer(0, len(alive))
            tree.remove(tree.kth_alive(r))
            del alive[r]


def sketch_for(rep, T):
    f = oracle_for(rep)
    return sketch_mdl(f, T)


def weight2_set(n, count, rng):
    out = []
    seen = set()
    while len(out) < count:
        a, b = rng.integer(1, n + 1), rng.integer(1, n + 1)
        if a == b:
            continue
        v = (1 << (a - 1)) | (1 << (b - 1))
        if v not in seen:
            seen.add(v)
            out.append(BitString(n, v))
    return out


def test_sketch_consistent_for_true_lists():
    rng = SeededRng(3)
    for trial in range(40):
        n = 6 + rng.integer(0, 40)
        rep = random_mdl(n, rng)
        T = weight2_set(n, min(12, n), rng)
        vals = {eval_mdl(rep, x) for x in T}
        if len(vals) < 2:
            continue
        sk = sketch_for(rep, T)
        assert sk is not None
        f = oracle_for(rep)
        for ell in range(sk.k):
            assert sk.strings[ell].v != 0
            assert f.query(sk.strings[ell]) == sk.values[ell]
        for ell in range(sk.k - 1):
            assert sk.values[ell] != sk.values[ell + 1]
            assert f.query(bit_or(sk.strings[ell], sk.strings[ell + 1])) == sk.values[ell]
        # extraction respects priority: chain ranks strictly increase
        ranks = [min_index(rep, s) for s in sk.strings]
        assert ranks == sorted(ranks)


def test_sketch_nil_on_xor():
    # parity of two relevant variables admits no consistent chain over a
    # support seeing all four value patterns
    n = 4
    f = FunctionOracle(n, lambda v: (v ^ (v >> 1)) & 1)
    T = [BitString(n, v) for v in (0b0001, 0b0010, 0b0011, 0b0111, 0b1101, 0b1110)]
    assert sketch_mdl(f, T) is None


def expected_blocks(rep, sk, x):
    """All block indices satisfying the three-case contract, by rank scan."""
    b = eval_mdl(rep, x)
    rx = min_index(rep, x)
    k = sk.k
    ranks = [min_index(rep, s) for s in sk.strings]
    vals = sk.values
    out = []
    for ell in range(0, k + 2):
        if 2 <= ell <= k - 1:
            if (vals[ell - 2] != b and vals[ell] != b
                    and ranks[ell - 2] < rx < ranks[ell]):
                out.append(ell)
        elif ell in (0, 1):
            if vals[ell] != b and rx < ranks[ell]:
                out.append(ell)
        elif ell in (k, k + 1):
            if vals[ell - 2] != b and ranks[ell - 2] < rx:
                out.append(ell)
    return out


def test_find_block_matches_contract_exhaustively():
    rng = SeededRng(4)
    checked = 0
    for trial in range(60):
        n = 4 + rng.integer(0, 6)
        rep = random_mdl(n, rng)
        T = weight2_set(n, min(8, n - 1), rng)
        if len({eval_mdl(rep, x) for x in T}) < 2:
            continue
        sk = sketch_for(rep, T)
        f = oracle_for(rep)
        for v in range(1, 1 << n):
            x = BitString(n, v)
            want = expected_blocks(rep, sk, x)
            assert len(want) == 1
            got = _find_block_ex(f, sk, x)[0]
            assert got == want[0]
            checked += 1
    assert checked > 1000


def test_find_block_parity_and_membership():
    rng = SeededRng(5)
    rep = random_mdl(24, rng)
    T = weight2_set(24, 12, rng)
    if len({eval_mdl(rep, x) for x in T}) < 2:
        pytest.skip("degenerate draw")
    sk = sketch_for(rep, T)
    f = oracle_for(rep)
    for ell in range(sk.k):
        assert _find_block_ex(f, sk, sk.strings[ell])[0] == ell + 1
    for v in (1, 5, 9):
        x = BitString(24, v)
        got = _find_block_ex(f, sk, x)[0]
        if eval_mdl(rep, x) == sk.values[0]:
            assert got % 2 == 1
        else:
            assert got % 2 == 0


def test_find_block_deterministic_and_bounded():
    import math
    rng = SeededRng(6)
    rep = random_mdl(64, rng)
    T = weight2_set(64, 30, rng)
    if len({eval_mdl(rep, x) for x in T}) < 2:
        pytest.skip("degenerate draw")
    sk = sketch_for(rep, T)
    bound = math.ceil(math.log2(max(2, sk.k))) + 4
    for v in (3, 70, 129, 1 << 63):
        f = oracle_for(rep)
        a = _find_block_ex(f, sk, BitString(64, v))[0]
        cost = f.ledger.function_queries
        f2 = oracle_for(rep)
        assert _find_block_ex(f2, sk, BitString(64, v))[0] == a
        assert f2.ledger.function_queries == cost <= bound


def test_max_index_singleton_and_domination():
    rng = SeededRng(7)
    good = 0
    for trial in range(200):
        n = 6 + rng.integer(0, 58)
        rep = random_mdl(n, rng)
        T = weight2_set(n, min(14, n - 1), rng)
        if len({eval_mdl(rep, x) for x in T}) < 2:
            continue
        sk = sketch_for(rep, T)
        f = oracle_for(rep)
        L = BigBlockSet(frozenset(), sk.k)
        i = rng.integer(1, n + 1)
        run = MdlRun.from_parts(f, None, 0.2, None, MdlConstants(), sk, L)
        assert run.max_index(unit(i, n)) == i
        # weight-3 string: returned index must dominate the whole support
        supp = {rng.integer(1, n + 1) for _ in range(3)}
        x = BitString.from_support(n, supp)
        if x.v == 0:
            continue
        mi = MdlRun.from_parts(f, None, 0.2, None, MdlConstants(), sk, L).max_index(x)
        assert mi is not None and mi in x.support()
        fmi = f.query(unit(mi, n))
        assert fmi == eval_mdl(rep, x)
        for j in x.support():
            assert f.query(bit_or(unit(mi, n), unit(j, n))) == fmi
        good += 1
    assert good > 120


def test_max_index_nil_on_crafted_table():
    # n = 4 truth table where both branch checks fail for x = 1111
    n = 4
    table = [0] * 16
    # singletons: e1,e2 -> 1; e3,e4 -> 0; x=1111 -> 1 but every candidate is
    # placed in a different block by flipping pair values
    table[0b0001] = 1
    table[0b0010] = 1
    table[0b1111] = 1
    table[0b0111] = 0
    table[0b1011] = 0
    table[0b0011] = 1
    f = FunctionOracle(n, lambda v: table[v])
    strings = [BitString(4, 0b0011), BitString(4, 0b1100)]
    if f.query(strings[0]) == f.query(strings[1]):
        pytest.skip("crafted table degenerate")
    sk = sketch_mdl(f, strings)
    if sk is None:
        pytest.skip("crafted chain inconsistent")
    L = BigBlockSet(frozenset(), sk.k)
    run = MdlRun.from_parts(f, None, 0.5, None, MdlConstants(), sk, L)
    out = run.max_index(BitString(4, 0b1111))
    assert out is None or f.query(unit(out, 4)) == 1


def test_preprocess_point_mass_on_zero_accepts():
    rep = random_mdl(8, SeededRng(9))
    d = FiniteDistribution.point_mass(BitString.zeros(8))
    f = oracle_for(rep)
    run = mdl_run(f, d, 0.3, SeededRng(10))
    out = run.preprocess()
    assert isinstance(out, Verdict) and out.accepted


def test_preprocess_single_valued_accepts():
    rep = MonotoneDLRep(6, tuple(range(1, 7)), (1,) * 7)
    d = FiniteDistribution.uniform(weight2_set(6, 5, SeededRng(11)))
    f = oracle_for(rep)
    run = mdl_run(f, d, 0.3, SeededRng(12))
    out = run.preprocess()
    assert isinstance(out, Verdict) and out.accepted


def test_preprocess_returns_pair_for_true_lists():
    rng = SeededRng(13)
    for trial in range(10):
        bundle = gen_mdl_yes(64, 32, rng.derive(trial))
        f = bundle.function_oracle()
        run = mdl_run(f, bundle.dist, 0.2, rng.derive(100 + trial))
        out = run.preprocess()
        if isinstance(out, Verdict):
            assert out.accepted  # single-valued support can legally early-accept
        else:
            sk, L = run.sk, run.L
            assert isinstance(sk, MdlSketch) and isinstance(L, BigBlockSet)
            assert L.neighbors().isdisjoint(L.members)


def test_big_blocks_flag_conjunction_block():
    # one variable decides everything, so nearly all of [n] shares one block;
    # the uniform probe count only clears the flag threshold once n is large
    # relative to 4 log2(n) / eps, hence the wide instance
    n, eps = 4096, 0.5
    rep = MonotoneDLRep(n, tuple(range(1, n + 1)), (0,) + (1,) * n)
    rng = SeededRng(14)
    atoms = [bit_or(unit(1, n), unit(i, n)) for i in range(2, 80)]
    atoms += [bit_or(unit(i, n), unit(i + 1, n)) for i in range(2, 80, 2)]
    d = FiniteDistribution.uniform(atoms)
    f = oracle_for(rep)
    run = mdl_run(f, d, eps, rng)
    out = run.preprocess()
    assert not isinstance(out, Verdict)
    sk, L = run.sk, run.L
    blocks = {_find_block_ex(oracle_for(rep), sk, unit(i, n))[0] for i in (300, 900, 2100)}
    assert any(b in L for b in blocks)


def test_big_blocks_empty_for_scattered_lists():
    # every block tiny: nothing reaches the flag threshold
    rng = SeededRng(141)
    bundle = gen_mdl_yes(512, 200, rng)
    f = bundle.function_oracle()
    run = mdl_run(f, bundle.dist, 0.25, rng.derive(1))
    out = run.preprocess()
    if not isinstance(out, Verdict):
        L = run.L
        assert len(L.members) == 0


def test_type_stages_accept_true_lists():
    rng = SeededRng(15)
    for trial in range(10):
        bundle = gen_mdl_yes(128, 64, rng.derive(trial))
        f = bundle.function_oracle()
        run = mdl_run(f, bundle.dist, 0.15, rng.derive(300 + trial))
        out = run.preprocess()
        if isinstance(out, Verdict):
            assert out.accepted
            continue
        sk, L = run.sk, run.L
        for c in (1, 3, 4, 5):
            stage = mdl_run(f, bundle.dist, 0.15, rng.derive(400 + 10 * trial + c),
                            MdlConstants(), sk, L)
            v = stage.test_type(c)
            assert v.accepted, f"stage {c} rejected a true list"


@pytest.mark.parametrize("c", [1, 3, 4, 5])
def test_planted_violation_detected(c):
    rng = SeededRng(160 + c)
    consts = MdlConstants()
    hits = 0
    trials = 12
    for trial in range(trials):
        base = gen_mdl_yes(256, 64, rng.derive(trial))
        bundle = gen_planted_violation(base, c, 0.3, rng.derive(700 + trial))
        f = bundle.function_oracle()
        run = mdl_run(f, bundle.dist, 0.15, rng.derive(800 + trial), consts)
        out = run.preprocess()
        if isinstance(out, Verdict):
            hits += out.rejected
            continue
        sk, L = run.sk, run.L
        stage = mdl_run(f, bundle.dist, 0.15, rng.derive(900 + trial), consts, sk, L)
        v = stage.test_type(c)
        hits += v.rejected
    assert hits >= 0.8 * trials


def test_planted_type3_stage_detected_on_base_sketch():
    # the type-3 plant is caught by preprocessing on its own sample (see
    # test_planted_violation_detected), so the stage runs on the sketch of
    # the untouched base list, as the golden corpus does
    rng = SeededRng(163)
    consts = MdlConstants()
    trials = 12
    hits = 0
    for trial in range(trials):
        base = gen_mdl_yes(256, 64, rng.derive(trial))
        bundle = gen_planted_violation(base, 3, 0.3, rng.derive(700 + trial))
        run = mdl_run(base.function_oracle(), base.dist, 0.15, rng.derive(800 + trial), consts)
        assert run.preprocess() is None
        stage = mdl_run(bundle.function_oracle(), bundle.dist, 0.15,
                        rng.derive(900 + trial), consts, run.sk, run.L)
        v = stage.test_type(3)
        hits += v.rejected and v.witness[0] == "type3"
    assert hits >= 0.8 * trials


def test_planted_type2_detected():
    # the default first sample set of the type-2 stage is a couple of
    # draws at desk widths, so the detection run boosts it through the
    # exposed constant; the carrier mass is tiny by design (see the plant)
    rng = SeededRng(162)
    consts = MdlConstants(t2_factor=2.0e6)
    hits = 0
    trials = 10
    for trial in range(trials):
        base = gen_mdl_yes(1024, 64, rng.derive(trial))
        bundle = gen_planted_violation(base, 2, 0.9, rng.derive(700 + trial))
        f = bundle.function_oracle()
        run = mdl_run(f, bundle.dist, 0.45, rng.derive(800 + trial), consts)
        out = run.preprocess()
        if isinstance(out, Verdict):
            hits += out.rejected
            continue
        sk, L = run.sk, run.L
        stage = mdl_run(f, bundle.dist, 0.45, rng.derive(900 + trial), consts, sk, L)
        v = stage.test_type(2)
        hits += v.rejected
    assert hits >= 0.8 * trials


def test_planted_base_untouched_outside_subsupport():
    rng = SeededRng(21)
    base = gen_mdl_yes(128, 48, rng)
    for c in (1, 3, 4, 5):
        bundle = gen_planted_violation(base, c, 0.25, rng.derive(c))
        agree = 0
        for _ in range(400):
            x = rng.bit_string(128)
            if bundle.target(x.v) == base.target(x.v):
                agree += 1
        assert agree >= 380  # edits live on a vanishing corner of the cube


def test_planted_distance_certified_small_n():
    # a dominance cycle on four supported pairs forces every list to err on
    # at least one of them, so a quarter of the planted mass is the floor
    found = 0
    for seed in range(60):
        rng = SeededRng(22, seed)
        base = gen_mdl_yes(6, 2, rng)
        try:
            bundle = gen_planted_violation(base, 1, 0.4, rng.derive(1))
        except Exception:
            continue
        assert bundle.ground_truth[0] == "far"
        assert bundle.ground_truth[1] >= 0.4 / 4 - 1e-9
        found += 1
        if found >= 3:
            return
    assert found > 0, "no feasible tiny plant found"


def test_full_tester_accepts_and_ledger_within_budget():
    rng = SeededRng(23)
    accepts = 0
    for trial in range(10):
        bundle = gen_mdl_yes(128, 64, rng.derive(trial))
        ledger = QueryLedger()
        f = bundle.function_oracle(ledger)
        v = monotone_dl_tester(f, bundle.dist, 0.2, rng.derive(50 + trial))
        accepts += v.accepted
        assert ledger.function_queries <= budget_mdl(128, 0.2)[0]
        assert ledger.samples_drawn <= budget_mdl(128, 0.2)[1]
        assert v.queries == ledger.function_queries
    assert accepts >= 9


def test_full_tester_rejects_groups4_no():
    rng = SeededRng(24)
    rejects = 0
    for trial in range(10):
        bundle = gen_groups4(128, rng.derive(trial), "no")
        f = bundle.function_oracle()
        v = monotone_dl_tester(f, bundle.dist, 0.15, rng.derive(60 + trial))
        rejects += v.rejected
    assert rejects >= 8


def test_groups4_no_pair_constraints():
    bundle = gen_groups4(32, SeededRng(25), "no")
    pi = bundle.params["pi"]
    n = 32
    for j0 in range(n // 2, n, 4):
        g = [pi[j0 + i] for i in range(4)]
        e = [1 << (i - 1) for i in g]
        assert bundle.target(e[3] | e[0]) == 1
        assert bundle.target(e[1] | e[2]) == 1
        assert bundle.target(e[0] | e[1]) == 0
        assert bundle.target(e[2] | e[3]) == 0


def test_tester_determinism_same_seed():
    bundle = gen_mdl_yes(64, 32, SeededRng(26))
    runs = []
    for _ in range(2):
        ledger = QueryLedger()
        f = bundle.function_oracle(ledger)
        v = monotone_dl_tester(f, bundle.dist, 0.2, SeededRng(99, 1))
        runs.append((v.decision, ledger.snapshot()))
    assert runs[0] == runs[1]


def test_type5_witness_reverifies_with_fresh_queries():
    rng = SeededRng(165)
    for trial in range(20):
        base = gen_mdl_yes(256, 64, rng.derive(trial))
        bundle = gen_planted_violation(base, 5, 0.3, rng.derive(700 + trial))
        f = bundle.function_oracle()
        run = mdl_run(f, bundle.dist, 0.15, rng.derive(800 + trial))
        out = run.preprocess()
        if isinstance(out, Verdict):
            continue
        sk, L = run.sk, run.L
        stage = mdl_run(f, bundle.dist, 0.15, rng.derive(900 + trial), MdlConstants(), sk, L)
        v = stage.test_type(5)
        if not v.rejected:
            continue
        _, _, (u1, u2, u3, u4) = v.witness
        fresh = bundle.function_oracle()
        e = lambda i: unit(i, 256)
        assert fresh.query(bit_or(e(u1), e(u2))) == 0
        assert fresh.query(bit_or(e(u3), e(u4))) == 0
        assert fresh.query(bit_or(e(u2), e(u3))) == 1
        assert fresh.query(bit_or(e(u4), e(u1))) == 1
        # the square cannot extend to a consistent list: the four-way join
        # contradicts whichever side it lands on
        joined = fresh.query(BitString(256, e(u1).v | e(u2).v | e(u3).v | e(u4).v))
        assert joined in (0, 1)
        return
    pytest.fail("no stage-5 rejection observed across plants")


# (k, f(x)) -> per cut c = 0..k: (block, chain positions probed after x itself)
FIND_BLOCK_LOGS = {
    (2, 0): [(1, (1,)), (1, (1,)), (3, (1,))],
    (2, 1): [(0, (0,)), (2, (0,)), (2, (0,))],
    (3, 0): [(1, (1,)), (1, (1,)), (3, (1,)), (3, (1,))],
    (3, 1): [(0, (0,)), (2, (0, 2)), (2, (0, 2)), (4, (0, 2))],
    (4, 0): [(1, (1,)), (1, (1,)), (3, (1, 3)), (3, (1, 3)), (5, (1, 3))],
    (4, 1): [(0, (0,)), (2, (0, 2)), (2, (0, 2)), (4, (0, 2)), (4, (0, 2))],
    (5, 0): [(1, (1,)), (1, (1,)), (3, (1, 3)), (3, (1, 3)), (5, (1, 3)), (5, (1, 3))],
    (5, 1): [
        (0, (0,)), (2, (0, 4, 2)), (2, (0, 4, 2)), (4, (0, 4, 2)), (4, (0, 4, 2)), (6, (0, 4))],
    (6, 0): [
        (1, (1,)), (1, (1,)), (3, (1, 5, 3)), (3, (1, 5, 3)), (5, (1, 5, 3)), (5, (1, 5, 3)),
        (7, (1, 5))],
    (6, 1): [
        (0, (0,)), (2, (0, 4, 2)), (2, (0, 4, 2)), (4, (0, 4, 2)), (4, (0, 4, 2)), (6, (0, 4)),
        (6, (0, 4))],
    (7, 0): [
        (1, (1,)), (1, (1,)), (3, (1, 5, 3)), (3, (1, 5, 3)), (5, (1, 5, 3)), (5, (1, 5, 3)),
        (7, (1, 5)), (7, (1, 5))],
    (7, 1): [
        (0, (0,)), (2, (0, 6, 2)), (2, (0, 6, 2)), (4, (0, 6, 2, 4)), (4, (0, 6, 2, 4)),
        (6, (0, 6, 2, 4)), (6, (0, 6, 2, 4)), (8, (0, 6))],
}


def test_find_block_query_log_is_pinned():
    """Chain element i is bit i+1 with value i mod 2, and x is bit 8.  f(x) is
    fixed, and f(s_i | x) equals f(x) exactly when i >= c."""
    x = BitString(8, 1 << 7)
    for (k, fx), expected in FIND_BLOCK_LOGS.items():
        sk = MdlSketch([unit(i + 1, 8) for i in range(k)], [i % 2 for i in range(k)])
        got = []
        for cut in range(k + 1):
            log = []

            def target(v, cut=cut, log=log):
                i = (v & 0x7F).bit_length() - 1  # -1 for x itself
                log.append(i)
                return fx if i < 0 or i >= cut else 1 - fx

            block, value = _find_block_ex(FunctionOracle(8, target), sk, x)
            assert value == fx and log[0] == -1
            got.append((block, tuple(log[1:])))
        assert got == expected, (k, fx)


def _grow_per_draw(run: MdlRun):
    """Big-block discovery with one find-block search per drawn string, the
    reference for MdlRun._find_big_blocks.  Returns the big-block set and the
    ledger's query count at the start of each growth round."""
    n, eps, sz = run.f.n, run.eps, run.sz
    k = run.sk.k
    counters = {}
    for _ in range(sz.probes):
        ell, _ = run.find_block_ex(unit(run.rng.integer(1, n + 1), n))
        counters[ell] = counters.get(ell, 0) + 1
    thresh = 4.0 * clamped_log2(n) / eps
    big = BigBlockSet({ell for ell, cnt in counters.items() if cnt >= thresh}, k)
    exit_thresh = 5.0 * clamped_log2(n / eps)
    starts = []
    for _ in range(sz.rounds):
        starts.append(run.f.ledger.function_queries)
        nl = big.neighbors()
        hits = sum(run.find_block_ex(x)[0] in nl for x in run.sampler.draw_list(sz.inner))
        if hits < exit_thresh:
            break
        big = BigBlockSet(big.members | nl, k)
    return big, starts


# (family, n, eps, seed, support): small instances whose big blocks grow, in
# the DL tester's shifted and recording view for dl-yes; the last grows four
# times
GROWTH_TWINS = [("mdl-yes", 1024, 0.3, 1, 8), ("dl-yes", 256, 0.6, 3, 8),
                ("dl-yes", 1024, 0.3, 4, 16)]


def _growth_run(family, n, eps, seed, support, query_budget=None) -> MdlRun:
    """A run on a fresh ledger, ready to find its big blocks.  It sees the
    target through the recording view, shifted for dl-yes by the string that
    makes the list monotone (as check_dl sees it with the right pivot) and by
    zero for mdl-yes."""
    bundle = build_instance(RunConfig(tester="mdl", family=family, n=n, eps=eps, seed=seed,
                                      support_size=support))
    r = monotonize(bundle.params["rep"])[1] if family == "dl-yes" else BitString.zeros(n)

    def handles(budget):
        ledger = QueryLedger(query_budget=budget)
        rng = SeededRng(1)
        return (_RecordingOracle(bundle.function_oracle(ledger), r),
                DistSampler(bundle.dist, rng, ledger).shifted(r), eps, rng)

    first = MdlRun(*handles(None))
    assert first.preprocess() is None
    return MdlRun.from_parts(*handles(query_budget), DEFAULT_MDL, first.sk, None)


@pytest.mark.parametrize("case", GROWTH_TWINS, ids=lambda c: f"{c[0]}-n{c[1]}-seed{c[3]}")
def test_find_big_blocks_matches_per_draw_growth(case):
    run, ref = _growth_run(*case), _growth_run(*case)
    big = run._find_big_blocks()
    ref_big, starts = _grow_per_draw(ref)
    assert len(starts) >= 2
    assert big.members == ref_big.members and big.k == ref_big.k
    assert run.f.ledger.snapshot() == ref.f.ledger.snapshot()
    assert list(run.f.seen.items()) == list(ref.f.seen.items())


def test_find_big_blocks_exhausts_a_budget_mid_round_like_per_draw_growth():
    case = GROWTH_TWINS[-1]
    _, starts = _grow_per_draw(_growth_run(*case))
    assert len(starts) >= 4
    budget = (starts[2] + starts[3]) // 2
    run, ref = _growth_run(*case, query_budget=budget), _growth_run(*case, query_budget=budget)
    with pytest.raises(BudgetExhausted):
        run._find_big_blocks()
    with pytest.raises(BudgetExhausted):
        _grow_per_draw(ref)
    assert run.f.ledger.function_queries == ref.f.ledger.function_queries == budget
    # repeats are charged at their first draw, so no later search is reached
    seen, ref_seen = list(run.f.seen), list(ref.f.seen)
    assert seen == ref_seen[:len(seen)]


def _extract_per_step(g, vs, vals, repeats=None):
    """The extraction one step per string: a step with both values alive
    queries the union twice (the halving search recomputes its own reference
    value), and once one value is left each step emits its next string with
    kth_alive(0).  The reference for _extract's order, ledger and queries;
    repeats, when given, gets the ledger before and after each repeated union
    query."""
    lists = ([v for v, b in zip(vs, vals) if b == 0], [v for v, b in zip(vs, vals) if b == 1])
    trees = (_OrTree(lists[0]), _OrTree(lists[1]))
    query = g.query_raw
    extracted = []
    for _ in range(len(vs)):
        if trees[0].alive and trees[1].alive:
            union_v = trees[0].or_all() | trees[1].or_all()
            b = query(union_v)
            tree = trees[b]
            or_range = tree.or_range
            other_v = trees[1 - b].or_all()
            before = g.ledger.function_queries
            query(union_v)
            if repeats is not None:
                repeats.append((before, g.ledger.function_queries))
            a, c = 0, tree.alive
            while c > 1:
                half = c // 2
                if query(or_range(a, a + half) | other_v) == b:
                    c = half
                else:
                    a += half
                    c -= half
        else:
            b = 0 if trees[0].alive else 1
            tree, a = trees[b], 0
        pos = tree.kth_alive(a)
        extracted.append((lists[b][pos], b))
        tree.remove(pos)
    return extracted


def _sparse(n, rng):
    """A random string of one or two set bits."""
    return BitString(n, (1 << rng.integer(0, n)) | (1 << rng.integer(0, n)))


# the views the extraction runs through: a plain oracle, the recording view of
# check_dl and the hybrid view of test_dl, whose queries cost 1 or 2.  The
# shifts are sparse, so that the views of a list keep both values.
WRAPS = {
    "function": lambda f, rng: f,
    "recording": lambda f, rng: _RecordingOracle(f, _sparse(f.n, rng)),
    "hybrid": lambda f, rng: HybridFunction(f, _sparse(f.n, rng), _sparse(f.n, rng)),
}


class _Viewed:
    """A wrapped oracle over target on a ledger with the given budget;
    `evaluated` lists the strings the target evaluated, in first evaluation
    order, whichever view asked."""

    def __init__(self, wrap, n, target, rng, budget=None):
        self.evaluated = {}

        def logged(v):
            self.evaluated.setdefault(v, None)
            return target(v)

        self.ledger = QueryLedger(query_budget=budget)
        self.g = WRAPS[wrap](FunctionOracle(n, logged, self.ledger), rng)
        self.rng = rng

    def state(self):
        return (self.ledger.function_queries, list(self.evaluated),
                list(getattr(self.g, "seen", {}).items()))


def _list_view(wrap, seed, budget=None) -> _Viewed:
    """The view of a random monotone list of random width."""
    rng = SeededRng(seed, 0x5E)
    n = 8 + rng.integer(0, 33)
    return _Viewed(wrap, n, random_mdl(n, rng).target(), rng, budget)


def _extraction_input(seed, wrap):
    """Distinct nonzero strings of both values under the view, with values."""
    probe = _list_view(wrap, seed)
    n = probe.g.n
    vs = list(dict.fromkeys(probe.rng.bit_string(n).v | 1 << probe.rng.integer(0, n)
                            for _ in range(2 + probe.rng.integer(0, 40))))
    vals = [probe.g.query_raw(v) for v in vs]
    return vs, vals


@pytest.mark.parametrize("wrap", WRAPS)
def test_extract_matches_per_step_extraction(wrap):
    for seed in range(40):
        vs, vals = _extraction_input(seed, wrap)
        new, ref = _list_view(wrap, seed), _list_view(wrap, seed)
        assert _extract(new.g, vs, vals) == _extract_per_step(ref.g, vs, vals), seed
        assert new.state() == ref.state(), seed


@pytest.mark.parametrize("wrap", WRAPS)
def test_extract_exhausts_a_budget_on_a_recharged_query_like_per_step(wrap):
    for seed in range(6):
        vs, vals = _extraction_input(seed, wrap)
        if len(set(vals)) < 2:
            continue
        repeats = []
        _extract_per_step(_list_view(wrap, seed).g, vs, vals, repeats)
        for before, after in repeats[::3]:
            for budget in range(before, after):  # inside the repeat's charge
                new, ref = _list_view(wrap, seed, budget), _list_view(wrap, seed, budget)
                with pytest.raises(BudgetExhausted):
                    _extract(new.g, vs, vals)
                with pytest.raises(BudgetExhausted):
                    _extract_per_step(ref.g, vs, vals)
                assert new.ledger.function_queries == budget
                assert new.state() == ref.state(), (seed, budget)


def _preprocess_querying_twice(run: MdlRun):
    """MdlRun.preprocess with every query evaluated: T is queried once for the
    mixed-value test and once more inside sketch_mdl.  The reference for
    preprocess's ledger; returns the verdict and the ledger before and after
    the first pass."""
    T = [x for x in run.sampler.draw_set(run.sz.pre) if x.v != 0]
    start = run.f.ledger.function_queries
    vals = [run.f.query(x) for x in T]
    first_pass = (start, run.f.ledger.function_queries)
    if len(set(vals)) < 2:
        return Verdict("accept"), first_pass
    run.sk = sketch_mdl(run.f, T)
    if run.sk is None:
        return Verdict("reject", witness=("sketch_nil",)), first_pass
    run.L = run._find_big_blocks()
    return None, first_pass


def _preprocess_run(wrap, family, seed, budget=None):
    bundle = build_instance(RunConfig(tester="mdl", family=family, n=64, eps=0.3, seed=seed,
                                      support_size=24))
    view = _Viewed(wrap, bundle.n, bundle.target, SeededRng(seed, 0x5F), budget)
    rng = SeededRng(seed, 0x60)
    return view, MdlRun(view.g, DistSampler(bundle.dist, rng, view.ledger), 0.3, rng)


# every view of these instances has both values on T, so the sketch is built
PREPROCESS_CASES = [("mdl-yes", 1), ("mdl-yes", 3), ("groups4-no", 4)]


@pytest.mark.parametrize("wrap", WRAPS)
def test_preprocess_charges_its_second_pass_like_querying_twice(wrap):
    for family, seed in PREPROCESS_CASES:
        new, run = _preprocess_run(wrap, family, seed)
        ref, ref_run = _preprocess_run(wrap, family, seed)
        got = run.preprocess()
        want, (start, mark) = _preprocess_querying_twice(ref_run)
        assert got == want and want != Verdict("accept")
        if want is None:
            assert (run.sk.strings, run.sk.values) == (ref_run.sk.strings, ref_run.sk.values)
            assert run.L.members == ref_run.L.members
        assert new.state() == ref.state()
        pass_cost = mark - start
        for budget in (mark, mark + pass_cost // 2, mark + pass_cost - 1):
            new, run = _preprocess_run(wrap, family, seed, budget)
            ref, ref_run = _preprocess_run(wrap, family, seed, budget)
            with pytest.raises(BudgetExhausted):
                run.preprocess()
            with pytest.raises(BudgetExhausted):
                _preprocess_querying_twice(ref_run)
            assert new.ledger.function_queries == budget
            assert new.state() == ref.state(), (family, seed, budget)


def _replay_input(seed, budget=None):
    """A recording view that has seen some strings, and its sketch inputs."""
    view = _list_view("recording", seed, budget)
    n = view.g.n
    for _ in range(2 + view.rng.integer(0, 40)):
        view.g.query_raw(view.rng.bit_string(n).v)
    return view, [v for v in view.g.seen if v]


def test_extraction_replay_charges_like_querying_every_string():
    for seed in range(30):
        new, vs = _replay_input(seed)
        ref, ref_vs = _replay_input(seed)
        extracted, runs = _extraction_replay(new.g, vs)
        want = _extract_per_step(ref.g, ref_vs, [ref.g.query_raw(v) for v in ref_vs])
        assert extracted == want and runs == _runs(want)
        assert new.state() == ref.state()
        start = _replay_input(seed)[0].ledger.function_queries
        for budget in (start, start + len(vs) // 2, start + len(vs) - 1):
            new, vs = _replay_input(seed, budget)
            ref, _ = _replay_input(seed, budget)
            with pytest.raises(BudgetExhausted):
                _extraction_replay(new.g, vs)
            with pytest.raises(BudgetExhausted):
                _extract_per_step(ref.g, vs, [ref.g.query_raw(v) for v in vs])
            assert new.ledger.function_queries == budget
            assert new.state() == ref.state()

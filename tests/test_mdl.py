from functools import partial

import pytest

from sublintest.core import BitString, FiniteDistribution, SeededRng, bit_or, unit
from sublintest.dl import HybridFunction, _extraction_replay, _RecordingOracle
from sublintest.dlmodel import MonotoneDLRep, eval_mdl, min_index, monotonize, random_mdl
from sublintest.harness import RunConfig, build_instance
from sublintest.instances import (_weight2_atoms, gen_groups4, gen_mdl_yes,
                                  gen_planted_violation, groups4_from_pi, list_bundle,
                                  table_bundle)
from sublintest.mdl import (BigBlockSet, MdlConstants, MdlRun, MdlSketch, _extract,
                            _find_block_ex, _halving, _log2_floor_sum, _or_all, _OrTree,
                            budget_mdl, monotone_dl_tester, sketch_mdl)
from sublintest.oracles import BudgetExhausted, DistSampler, FunctionOracle, QueryLedger, Verdict

from helpers import (GROWTH_TWINS, ChargeLog, expected_blocks, find_rep, goal_equation_holds,
                     mdl_run, oracle_for)
from reference import (STAGE_REFS, extract_per_step, extraction_replay, grow_per_draw,
                       halving_per_level, preprocess_querying_twice)


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


def test_sketch_consistent_for_true_lists():
    rng = SeededRng(3)
    for trial in range(40):
        n = 6 + rng.integer(0, 40)
        rep = random_mdl(n, rng)
        T = _weight2_atoms(n, min(12, n), rng)
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


def test_sketch_nil_on_a_failed_join():
    """f = x1 and not (x2 and x3) on the three unit strings: the chain e3, e1, e2
    alternates 0, 1, 0, but e3 | e1 takes e1's value, so the first join check,
    the last query, fails."""
    queried = []

    def target(v):
        queried.append(v)
        return int(v & 1 and v & 6 != 6)

    f = FunctionOracle(3, target)
    assert sketch_mdl(f, [unit(i, 3) for i in (1, 2, 3)]) is None
    assert queried == [1, 2, 4, 7, 3, 3, 4, 1, 2, 5]
    assert f.ledger.function_queries == 12


def test_find_block_matches_contract_exhaustively():
    rng = SeededRng(4)
    checked = 0
    for trial in range(60):
        n = 4 + rng.integer(0, 6)
        rep = random_mdl(n, rng)
        T = _weight2_atoms(n, min(8, n - 1), rng)
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
    T = _weight2_atoms(24, 12, rng)
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
    T = _weight2_atoms(64, 30, rng)
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
        T = _weight2_atoms(n, min(14, n - 1), rng)
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
    d = FiniteDistribution.uniform(_weight2_atoms(6, 5, SeededRng(11)))
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
    """A wrapped oracle over target on a charge log with the given budget;
    `evaluated` lists the strings the target evaluated, in first evaluation
    order, whichever view asked."""

    def __init__(self, wrap, n, target, rng, budget=None):
        self.evaluated = {}

        def logged(v):
            self.evaluated.setdefault(v, None)
            return target(v)

        self.ledger = ChargeLog(budget)
        self.g = WRAPS[wrap](FunctionOracle(n, logged, self.ledger), rng)
        self.rng = rng

    def state(self):
        return (self.ledger.snapshot(), list(self.evaluated),
                list(getattr(self.g, "seen", {}).items()))


def _outcome(run, handle):
    try:
        return run(handle)
    except BudgetExhausted:
        return BudgetExhausted


def _twins(build, program, reference, label=None):
    """Run a shortcut on the view build() makes and its reference on a twin:
    both return the same, or both run out of the view's budget with the
    ledger at it, and the views end in the same state.  Returns the program's
    result and the two views."""
    new, ref = build(), build()
    got = _outcome(program, new)
    assert got == _outcome(reference, ref), label
    budget = new.ledger.query_budget
    if budget is not None:
        assert got is BudgetExhausted and new.ledger.function_queries == budget, label
    assert new.state() == ref.state(), label
    return got, new, ref


def _growth_view(case) -> _Viewed:
    """A view whose `run` is ready to find its big blocks.  It sees the target
    through the recording view, shifted for dl-yes by the string that makes
    the list monotone (as check_dl sees it with the right pivot) and by zero
    for mdl-yes; its sketch comes from a twin run on a ledger of its own."""
    family, n, eps, seed, support = case
    bundle = build_instance(RunConfig(tester="mdl", family=family, n=n, eps=eps, seed=seed,
                                      support_size=support))
    r = monotonize(bundle.params["rep"])[1] if family == "dl-yes" else BitString.zeros(n)

    def view():
        out = _Viewed("function", n, bundle.target, SeededRng(1))
        out.g = _RecordingOracle(out.g, r)
        out.run = MdlRun(out.g, DistSampler(bundle.dist, out.rng, out.ledger).shifted(r), eps,
                         out.rng)
        return out

    first, out = view(), view()
    assert first.run.preprocess() is None
    out.run.sk = first.run.sk
    return out


@pytest.mark.parametrize("case", GROWTH_TWINS, ids=lambda c: f"{c[0]}-n{c[1]}-seed{c[3]}")
def test_find_big_blocks_matches_per_draw_growth(case):
    blocks = lambda big: (big.members, big.k)  # noqa: E731
    _, new, _ = _twins(partial(_growth_view, case), lambda v: blocks(v.run._find_big_blocks()),
                       lambda v: blocks(grow_per_draw(v.run)))
    assert new.ledger.samples_drawn >= 2 * new.run.sz.inner  # a second growth round drew


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


def _groups4_view(wrap, seed) -> _Viewed:
    """The view of a groups4-no instance at n = 16 or 32; `atoms` holds its
    support."""
    rng = SeededRng(seed, 0x61)
    n = 16 << (seed % 2)
    bundle = groups4_from_pi(n, rng.permutation(n), "no")
    view = _Viewed(wrap, n, bundle.target, rng)
    view.atoms = [x.v for x in bundle.dist.atoms]
    return view


def _covered_inputs(seed, wrap):
    """The groups4-no atoms, as they are and xor the view's own shift (as the
    shifted samplers of check_dl and test_dl hand them over), with their
    values under the view.  Each value's atoms cover every group variable, so
    most of these extractions reach a run that one value's strings cover."""
    probe = _groups4_view(wrap, seed)
    # read by name, so that a view that loses its shift fails here
    shift = {"function": lambda g: 0, "recording": lambda g: g.shift_v,
             "hybrid": lambda g: g.z_v}[wrap](probe.g)
    for s in dict.fromkeys((0, shift)):
        vs = [v ^ s for v in probe.atoms if v != s]
        yield vs, [probe.g.query_raw(v) for v in vs]


def _extractions(vs, vals):
    """_extract of vs on a view, and its per-step reference."""
    return (lambda v: _extract(v.g, vs, vals)), (lambda v: extract_per_step(v.g, vs, vals))


@pytest.mark.parametrize("wrap", WRAPS)
def test_extract_matches_per_step_extraction(wrap):
    for seed in range(40):
        vs, vals = _extraction_input(seed, wrap)
        _twins(partial(_list_view, wrap, seed), *_extractions(vs, vals), label=seed)
    covered = 0
    for seed in range(12):
        for vs, vals in _covered_inputs(seed, wrap):
            _, new, ref = _twins(partial(_groups4_view, wrap, seed),
                                 *_extractions(vs, vals), label=seed)
            assert new.ledger.charge_calls <= ref.ledger.charge_calls
            covered += new.ledger.charge_calls < ref.ledger.charge_calls
    assert covered  # a covered run skipped its searches


def _counted_query_raw(monkeypatch):
    """Count FunctionOracle.query_raw calls, through every view, in calls[0]."""
    calls = [0]
    query_raw = FunctionOracle.query_raw

    def counted(self, v):
        calls[0] += 1
        return query_raw(self, v)

    monkeypatch.setattr(FunctionOracle, "query_raw", counted)
    return calls


def _halving_input(seed, wrap):
    """Sparse nonzero strings vs, a union y_v and the answer b on vs | y_v
    under the view, as _rep_search asks it.  y_v holds a random prefix of vs
    (none, part or all of it), so that some searches keep a half inside y_v at
    their first level, some deeper and some never."""
    probe = _list_view(wrap, seed)
    rng, n = probe.rng, probe.g.n
    vs = [_sparse(n, rng).v for _ in range(1 + rng.integer(0, 40))]
    y_v = _or_all(vs[:rng.integer(0, len(vs) + 1)]) | _sparse(n, rng).v
    return vs, y_v, probe.g.query_raw(_or_all(vs) | y_v)


@pytest.mark.parametrize("wrap", WRAPS)
def test_halving_matches_per_level_search(wrap, monkeypatch):
    calls = _counted_query_raw(monkeypatch)
    fewer = 0
    for seed in range(80):
        vs, y_v, b = _halving_input(seed, wrap)
        new, ref = _list_view(wrap, seed), _list_view(wrap, seed)
        start = calls[0]
        got = _halving(new.g, _OrTree(vs).or_range, len(vs), y_v, b)
        mid = calls[0]
        assert got == halving_per_level(ref.g, _OrTree(vs).or_range, len(vs), y_v, b)
        assert new.state() == ref.state(), seed
        # only the queries after a kept half inside y_v are charged unasked
        assert mid - start == calls[0] - mid or new.ledger.recharges, seed
        fewer += mid - start < calls[0] - mid
    assert fewer


@pytest.mark.parametrize("wrap", WRAPS)
def test_halving_exhausts_a_budget_inside_its_summed_charge_like_per_level(wrap):
    """Searches as _rep_search asks them, which in whole trials never sum
    (test_reference.py covers the sums under _extract)."""
    inside = 0
    for seed in range(80):
        vs, y_v, b = _halving_input(seed, wrap)
        search = lambda v: _halving(v.g, _OrTree(vs).or_range, len(vs), y_v, b)  # noqa: E731
        probe = _list_view(wrap, seed)
        search(probe)
        for rec in probe.ledger.recharges:
            for budget in range(rec.before, rec.before + rec.amount):  # inside the sum
                _twins(partial(_list_view, wrap, seed, budget), search,
                       lambda v: halving_per_level(v.g, _OrTree(vs).or_range, len(vs), y_v, b),
                       (seed, budget))
                inside += 1
    assert inside


def _pivoted_groups4_view(seed) -> _Viewed:
    """A groups4-no instance at n=32 through the hybrid view as test_dl builds
    it: the pivot r is an atom, and so is the shift z (the last opposite-value
    string of a replay, shifted back by r).  `atoms` holds the support xor z,
    as test_dl's shifted sampler hands it over.  Unlike _covered_inputs, many
    of these extractions end without a covered run."""
    rng = SeededRng(seed, 0x62)
    n = 32
    bundle = groups4_from_pi(n, rng.permutation(n), "no")
    atoms = [x.v for x in bundle.dist.atoms]
    r, z = (atoms[rng.integer(0, len(atoms))] for _ in range(2))
    view = _Viewed("function", n, bundle.target, rng)
    view.g = HybridFunction(view.g, BitString(n, r), BitString(n, z))
    view.atoms = list(dict.fromkeys(v ^ z for v in atoms if v != z))
    return view


def _pivoted_input(seed):
    probe = _pivoted_groups4_view(seed)
    return probe.atoms, [probe.g.query_raw(v) for v in probe.atoms]


def _ends_in_covered_run(extracted) -> bool:
    """Whether an extraction reaches a step whose searched value's alive
    strings the other value's alive strings cover (the covered run that
    _extract settles in one sum)."""
    for i, (_, b) in enumerate(extracted):
        rest = extracted[i:]
        other = _or_all(v for v, c in rest if c != b)
        if not other:
            return False
        if _or_all(v for v, c in rest if c == b) | other == other:
            return True
    return False


def test_extract_asks_fewer_queries_than_per_step_without_a_covered_run(monkeypatch):
    """On groups4-no extractions through test_dl's hybrid view that end without
    a covered run, _extract asks fewer queries than the per-step reference asks
    besides its repeated union queries: a search whose kept half lies inside
    the other value's union stops there."""
    calls = _counted_query_raw(monkeypatch)
    open_runs = fewer = 0
    for seed in range(20):
        vs, vals = _pivoted_input(seed)
        if len(set(vals)) < 2:
            continue
        new, ref = _pivoted_groups4_view(seed), _pivoted_groups4_view(seed)
        start = calls[0]
        got = _extract(new.g, vs, vals)
        mid = calls[0]
        assert got == extract_per_step(ref.g, vs, vals), seed
        assert new.state() == ref.state(), seed
        if _ends_in_covered_run(got):
            continue
        # the reference asks again each union query that _extract recharges
        repeats = sum(rec.function == "_extract" for rec in new.ledger.recharges)
        asked, ref_asked = mid - start, calls[0] - mid - repeats
        assert asked <= ref_asked, seed
        open_runs += 1
        fewer += asked < ref_asked
    assert fewer >= open_runs // 2 > 0


def test_log2_floor_sum_matches_the_loop():
    total = 0
    for c in range(1, 1025):
        total += c.bit_length() - 1
        assert _log2_floor_sum(c) == total, c


def _preprocess_view(wrap, family, seed) -> _Viewed:
    """A view whose `run` is ready to preprocess."""
    bundle = build_instance(RunConfig(tester="mdl", family=family, n=64, eps=0.3, seed=seed,
                                      support_size=24))
    view = _Viewed(wrap, bundle.n, bundle.target, SeededRng(seed, 0x5F))
    rng = SeededRng(seed, 0x60)
    view.run = MdlRun(view.g, DistSampler(bundle.dist, rng, view.ledger), 0.3, rng)
    return view


# every view of these instances has both values on T, so the sketch is built
PREPROCESS_CASES = [("mdl-yes", 1), ("mdl-yes", 3), ("groups4-no", 4)]


@pytest.mark.parametrize("wrap", WRAPS)
def test_preprocess_charges_its_second_pass_like_querying_twice(wrap):
    for family, seed in PREPROCESS_CASES:
        got, new, ref = _twins(partial(_preprocess_view, wrap, family, seed),
                               lambda v: v.run.preprocess(),
                               lambda v: preprocess_querying_twice(v.run))
        assert got != Verdict("accept")
        if got is None:
            run, ref_run = new.run, ref.run
            assert (run.sk.strings, run.sk.values) == (ref_run.sk.strings, ref_run.sk.values)
            assert (run.L.members, run.NL) == (ref_run.L.members, ref_run.NL)


def _replay_view(seed) -> _Viewed:
    """A recording view that has seen some strings; `vs` holds its sketch
    inputs."""
    view = _list_view("recording", seed)
    n = view.g.n
    for _ in range(2 + view.rng.integer(0, 40)):
        view.g.query_raw(view.rng.bit_string(n).v)
    view.vs = [v for v in view.g.seen if v]
    return view


def test_extraction_replay_charges_like_querying_every_string():
    runs = (lambda v: _extraction_replay(v.g, v.vs)), (lambda v: extraction_replay(v.g, v.vs))
    for seed in range(30):
        _twins(partial(_replay_view, seed), *runs)


# -- the five cycle-pattern stages against reference.STAGE_REFS --------------

# pair_cap 1, so that the caps bind, and a type-2 first sample set of about 17
# strings at n = 256 and eps = 0.15, so that type 2 finds pairs
TIGHT = MdlConstants(pair_cap_factor=1e-9, t2_factor=100.0)


def _stage_cases():
    """(name, sketch source, stage bundle, eps, constants): every stage runs on
    the source's preprocessed sketch against the stage bundle."""
    rng = SeededRng(0x57A6E)
    base = gen_mdl_yes(1024, 64, rng.derive(200))
    plant = gen_planted_violation(base, 2, 0.9, rng.derive(201))
    yield "plant2", plant, plant, 0.45, MdlConstants(t2_factor=2.0e6)
    for trial in range(3):
        groups4 = gen_groups4(256, rng.derive(10 + trial), "yes")
        for consts in (MdlConstants(), TIGHT):
            yield f"groups4-yes/{trial}", groups4, groups4, 0.15, consts
    for trial in range(6):
        # flipping the values of three fired rules breaks the list under the
        # base's sketch
        base = gen_mdl_yes(256, (64, 8)[trial % 2], rng.derive(trial))
        rep = base.params["rep"]
        nu = list(rep.nu)
        fired = sorted({rep.min_rank_raw(a.v) for a in base.dist.atoms})
        for _ in range(3):
            nu[fired[rng.integer(0, len(fired))]] ^= 1
        flipped = list_bundle("mdl-yes", MonotoneDLRep(base.n, rep.pi, nu), base.dist)
        for consts in (MdlConstants(), TIGHT):
            yield f"mdl-yes/{trial}", base, base, 0.15, consts
            yield f"flipped/{trial}", base, flipped, 0.15, consts
    for trial in range(4):  # a tiny list with a tenth of its truth table flipped
        base = gen_mdl_yes(12, 16, rng.derive(60 + trial))
        noise = rng.derive(70 + trial)
        bits = [base.target(v) ^ (noise.integer(0, 10) == 0) for v in range(1 << 12)]
        for consts in (MdlConstants(), TIGHT):
            yield f"noisy/{trial}", base, table_bundle(12, bits, base.dist), 0.15, consts
    for c in (1, 3, 4, 5):
        for trial in range(2):
            base = gen_mdl_yes(256, 64, rng.derive(100 * c + trial))
            plant = gen_planted_violation(base, c, 0.3, rng.derive(100 * c + 50 + trial))
            for consts in (MdlConstants(), TIGHT):
                yield f"plant{c}/{trial}", base, plant, 0.15, consts
                yield f"plant{c}/{trial}/own", plant, plant, 0.15, consts


def _logged_stage(bundle, eps, consts, seed, sk, L):
    """A run on bundle starting from sk and L, with its ledger and the list
    of strings its target evaluated, in order."""
    log = []

    def target(v):
        log.append(v)
        return bundle.target(v)

    ledger = QueryLedger()
    run = mdl_run(FunctionOracle(bundle.n, target, ledger), bundle.dist, eps,
                  SeededRng(seed, 0x5A), consts, sk, L)
    return run, ledger, log


def test_stages_match_their_one_by_one_references():
    rejected = set()
    for seed, (name, source, bundle, eps, consts) in enumerate(_stage_cases()):
        pre = mdl_run(source.function_oracle(), source.dist, eps, SeededRng(seed, 0x5B), consts)
        if pre.preprocess() is not None:
            continue
        # the big blocks found, and a middle block made big, so that big,
        # neighbouring and small blocks all occur
        k = pre.sk.k
        for L in (pre.L, BigBlockSet({k // 2}, k)):
            for c, ref_stage in STAGE_REFS.items():
                new, new_ledger, new_log = _logged_stage(bundle, eps, consts, seed, pre.sk, L)
                ref, ref_ledger, ref_log = _logged_stage(bundle, eps, consts, seed, pre.sk, L)
                got, want = new.test_type(c), ref_stage(ref)
                assert got == want, (name, c)
                assert new_ledger.snapshot() == ref_ledger.snapshot(), (name, c)
                assert new_log == ref_log, (name, c)
                if want.rejected:
                    rejected.add(c)
    assert rejected == {1, 2, 3, 4, 5}  # every stage's rejecting path is compared

import pytest

from sublintest.core import BitString, FiniteDistribution, SeededRng, bit_xor, unit
from sublintest.dlmodel import (GeneralDLRep, eval_dl, eval_mdl, min_index, monotonize,
                                random_dl)
from sublintest.dl import (DlConstants, HybridFunction, _RecordingOracle, budget_dl,
                           budget_dl_samples, check_dl, decision_list_tester, index_search,
                           monotone_dl_amplified)
from sublintest.instances import gen_dl_yes, gen_groups4
from sublintest.mdl import monotone_dl_tester
from sublintest.oracles import (BudgetExhausted, DistSampler, FunctionOracle,
                                PreconditionViolated, QueryLedger)

DESK = DlConstants(t_amplify=1, outer_rounds=4, inner_rounds=5, accept_threshold=2,
                   sketch_source="light")


def oracle_for(rep, ledger=None):
    return FunctionOracle(rep.n, rep.target(), ledger)


def test_index_search_singleton_flip():
    rep = random_dl(8, SeededRng(1))
    f = oracle_for(rep)
    _, r = monotonize(rep)
    # y differs from r in one position; flipping it must change the value
    for i in range(1, 9):
        y = bit_xor(r, unit(i, 8))
        if rep.target()(y.v) == rep.target()(r.v):
            continue
        out = index_search(f, r, y)
        assert out == i
        return
    pytest.skip("degenerate list")


def test_index_search_precondition():
    rep = random_dl(6, SeededRng(2))
    f = oracle_for(rep)
    x = BitString(6, 0b1)
    with pytest.raises(PreconditionViolated):
        index_search(f, x, x)


def test_index_search_contract_randomized():
    rng = SeededRng(3)
    deep, shallow = 0, 0
    while deep < 250 or shallow < 250:
        n = 4 + rng.integer(0, 60)
        rep = random_dl(n, rng)
        t = rep.target()
        r = rng.bit_string(n)
        y = rng.bit_string(n)
        if t(r.v) == t(y.v):
            continue
        mr, my = min_index(rep, r), min_index(rep, y)
        f = oracle_for(rep)
        before = f.ledger.function_queries
        out = index_search(f, r, y)
        cost = f.ledger.function_queries - before
        import math
        assert cost <= 4 * math.ceil(math.log2(n)) + 6
        if mr > my and deep < 250:
            deep += 1
            assert out is not None
            assert rep.pi.index(out) + 1 <= mr
            assert t(r.v ^ (1 << (out - 1))) != t(r.v)
        elif mr < my and shallow < 250:
            shallow += 1
            assert out is None or out == rep.pi[mr - 1]


def test_hybrid_function_cases():
    rng = SeededRng(4)
    for trial in range(40):
        n = 4 + rng.integer(0, 8)
        rep = random_dl(n, rng)
        base = oracle_for(rep)
        r = rng.bit_string(n)
        z = rng.bit_string(n)
        h = HybridFunction(base, r, z)
        b = h.pivot_value
        t = rep.target()
        for _ in range(40):
            x = rng.bit_string(n)
            before = base.ledger.function_queries
            hx = h.query(x)
            assert base.ledger.function_queries - before <= 2
            gx = t(x.v ^ z.v)
            if gx == b:
                assert hx == b
            else:
                # kept only when x's rule outranks the pivot image's rule
                dominated = t((x.v | (r.v ^ z.v)) ^ z.v) == gx
                assert hx == (gx if dominated else b)


def test_recording_oracle_keeps_first_queries_in_order():
    rep = random_dl(6, SeededRng(11))
    t = rep.target()
    base = oracle_for(rep)
    r = BitString(6, 0b100101)
    rec = _RecordingOracle(base, r)
    queries = [5, 0, 9, 5, 63, 0, 9, 17]
    for i, v in enumerate(queries):
        assert rec.query_raw(v) == t(v ^ r.v)
        assert base.ledger.function_queries == i + 1
    assert list(rec.seen.items()) == [(v, t(v ^ r.v)) for v in (5, 0, 9, 63, 17)]


def _calls_until_exhausted(wrap, budget, strings):
    """Wrap a budgeted oracle and query it on the strings until the budget
    runs out; returns the ledger and the number of calls that completed
    (None when building the wrapper already ran out)."""
    ledger = QueryLedger(query_budget=budget)
    done = None
    try:
        oracle = wrap(FunctionOracle(8, random_dl(8, SeededRng(12)).target(), ledger))
        done = 0
        for v in strings:
            oracle.query_raw(v)
            done += 1
    except BudgetExhausted:
        pass
    return ledger, done


@pytest.mark.parametrize("wrap", [
    lambda f: f,
    lambda f: _RecordingOracle(f, BitString(8, 0b10110001)),
    lambda f: HybridFunction(f, BitString(8, 0b10110001), BitString(8, 0b01100110)),
], ids=["function", "recording", "hybrid"])
def test_budget_exhausted_at_exactly_the_budget_through_wrappers(wrap):
    strings = list(range(0, 256, 7))
    setup = _calls_until_exhausted(wrap, None, [])[0].function_queries
    ledger, done = _calls_until_exhausted(wrap, None, strings)
    total = ledger.function_queries
    assert done == len(strings)
    for budget in range(total):
        ledger, done = _calls_until_exhausted(wrap, budget, strings)
        assert ledger.function_queries == budget
        if budget < setup:
            assert done is None
            continue
        # the completed calls fit the budget and the next one does not
        fit = _calls_until_exhausted(wrap, None, strings[:done])[0].function_queries
        more = _calls_until_exhausted(wrap, None, strings[:done + 1])[0].function_queries
        assert fit <= budget < more


def test_hybrid_with_true_minimum_matches_monotonized():
    rng = SeededRng(5)
    for trial in range(25):
        n = 2 + rng.integer(0, 4)
        rep = random_dl(n, rng)
        mono, r = monotonize(rep)
        base = oracle_for(rep)
        h = HybridFunction(base, r, r)
        for v in range(1 << n):
            assert h.query(BitString(n, v)) == eval_mdl(mono, BitString(n, v))


def test_amplified_majority_improves_and_t1_degenerates():
    bundle = gen_dl_yes(64, 24, SeededRng(6))
    rep = bundle.params["rep"]
    mono, r = monotonize(rep)
    # shifted view is a monotone list; both testers must accept
    ledger1 = QueryLedger()
    f1 = FunctionOracle(64, mono.target(), ledger1)
    rng = SeededRng(7, 3)
    v1 = monotone_dl_amplified(f1, bundle.dist, 0.2, rng, DlConstants(t_amplify=1))
    ledger2 = QueryLedger()
    f2 = FunctionOracle(64, mono.target(), ledger2)
    v2 = monotone_dl_tester(f2, bundle.dist, 0.2, SeededRng(7, 3).derive(0))
    assert v1.decision == v2.decision
    assert ledger1.snapshot() == ledger2.snapshot()


def test_check_dl_accepts_monotonized_pivot():
    rng = SeededRng(8)
    hits = 0
    for trial in range(10):
        bundle = gen_dl_yes(64, 24, rng.derive(trial))
        rep = bundle.params["rep"]
        _, r = monotonize(rep)
        f = bundle.function_oracle()
        v = check_dl(f, bundle.dist, 0.2, r, rng.derive(100 + trial), DESK)
        hits += v.accepted
    assert hits >= 8


def test_decision_list_tester_accepts_yes():
    rng = SeededRng(9)
    accepts = 0
    for trial in range(10):
        bundle = gen_dl_yes(64, 24, rng.derive(trial))
        f = bundle.function_oracle()
        v = decision_list_tester(f, bundle.dist, 0.25, rng.derive(200 + trial), DESK)
        accepts += v.accepted
    assert accepts >= 8


def test_decision_list_tester_rejects_groups4_no():
    rng = SeededRng(10)
    rejects = 0
    for trial in range(10):
        bundle = gen_groups4(64, rng.derive(trial), "no")
        f = bundle.function_oracle()
        v = decision_list_tester(f, bundle.dist, 0.25, rng.derive(300 + trial), DESK)
        rejects += v.rejected
    assert rejects >= 8


def test_decision_list_tester_default_constants_smoke():
    # published loop counts; tiny width so the accepting path stays fast
    rng = SeededRng(11)
    accepts = 0
    for trial in range(3):
        bundle = gen_dl_yes(16, 6, rng.derive(trial))
        f = bundle.function_oracle()
        v = decision_list_tester(f, bundle.dist, 0.3, rng.derive(400 + trial))
        accepts += v.accepted
    assert accepts >= 2


def test_dl_ledger_within_budget():
    bundle = gen_dl_yes(64, 24, SeededRng(12))
    ledger = QueryLedger()
    f = bundle.function_oracle(ledger)
    decision_list_tester(f, bundle.dist, 0.25, SeededRng(13), DESK)
    assert ledger.function_queries <= budget_dl(64, 0.25, DESK)
    assert ledger.samples_drawn <= budget_dl_samples(64, 0.25, DESK)


def test_flip_semantics_match_definition():
    rng = SeededRng(14)
    rep = random_dl(32, rng)
    t = rep.target()
    r = rng.bit_string(32)
    for i in range(1, 33):
        assert t(r.v ^ (1 << (i - 1))) == t(bit_xor(r, unit(i, 32)).v)

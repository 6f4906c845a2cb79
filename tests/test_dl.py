import math
from collections import Counter

import pytest

from sublintest.core import BitString, FiniteDistribution, SeededRng, bit_xor, unit
from sublintest.dlmodel import GeneralDLRep, eval_mdl, min_index, monotonize, random_dl
from sublintest import dl
from sublintest.dl import (DlConstants, HybridFunction, _RecordingOracle, budget_dl, check_dl,
                           decision_list_tester, index_search, monotone_dl_amplified,
                           round_profile)
from sublintest.instances import gen_dl_yes, gen_groups4
from sublintest.mdl import MdlConstants, MdlRun
from sublintest.oracles import (BudgetExhausted, DistSampler, FunctionOracle, Memo,
                                PreconditionViolated, QueryLedger, Verdict)

from helpers import oracle_for
from reference import own_index_table

DESK = DlConstants(t_amplify=1, outer_rounds=4, inner_rounds=5, accept_threshold=2,
                   sketch_source="light")


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
        assert cost <= 4 * math.ceil(math.log2(n)) + 6
        if mr > my and deep < 250:
            deep += 1
            assert out is not None
            assert rep.pi.index(out) + 1 <= mr
            assert t(r.v ^ (1 << (out - 1))) != t(r.v)
        elif mr < my and shallow < 250:
            shallow += 1
            assert out is None or out == rep.pi[mr - 1]


def _index_search_by_trail(f, r, y):
    """The reference for index_search: the halving phase keeps the trail of
    sets it descended into, and the fallback rescans that trail for the half
    left behind at each level.  Returns the index (or None) and whether the
    fallback ran."""
    fr = f.query(r)
    if fr == f.query(y):
        raise PreconditionViolated("index_search needs f(r) != f(y)")
    rv = r.v

    def _or_bits(idxs):
        v = 0
        for i in idxs:
            v |= 1 << (i - 1)
        return v

    def halving(idxs):
        cur = idxs
        trail = [cur]
        while len(cur) > 1:
            half = (len(cur) + 1) // 2
            first, second = cur[:half], cur[half:]
            if f.query_raw(_or_bits(first) ^ rv) != fr:
                cur = first
            elif f.query_raw(_or_bits(second) ^ rv) != fr:
                cur = second
            else:
                return None, trail
            trail.append(cur)
        return cur[0], trail

    found, trail = halving(BitString(f.n, y.v ^ rv).support())
    if found is not None:
        return found, False
    for prev, cur in zip(trail, trail[1:]):
        gap = [i for i in prev if i not in cur]
        if gap and f.query_raw(_or_bits(gap) ^ rv) != fr:
            return halving(gap)[0], True
    return None, True


def _noisy_oracle(rep, rate, salt, log):
    """rep's target with the value flipped on a pseudo-random share `rate` of
    the strings (fixed per string), logging each evaluated string."""
    t = rep.target()
    cut = int(rate * (1 << 16))

    def noisy(v):
        log.append(v)
        return t(v) ^ ((((v ^ salt) * 0x9E3779B97F4A7C15) >> 20) & 0xFFFF < cut)

    return FunctionOracle(rep.n, noisy)


def test_index_search_matches_trail_reference_on_noisy_targets():
    rng = SeededRng(31)
    outcomes = set()
    for trial in range(600):
        n = 4 + rng.integer(0, 40)
        rep = random_dl(n, rng)
        rate = (0.0, 0.1, 0.3)[trial % 3]
        salt = rng.integer(0, 1 << 30)
        r, y = rng.bit_string(n), rng.bit_string(n)
        new_log, ref_log = [], []
        new, ref = _noisy_oracle(rep, rate, salt, new_log), _noisy_oracle(rep, rate, salt, ref_log)
        if new.target(r.v) == new.target(y.v):
            continue
        new_log.clear()
        ref_log.clear()
        out = index_search(new, r, y)
        ref_out, fell_back = _index_search_by_trail(ref, r, y)
        assert out == ref_out, trial
        assert new.ledger.snapshot() == ref.ledger.snapshot(), trial
        assert new_log == ref_log, trial
        outcomes.add((fell_back, out is None))
    # the fallback ran, and both found an index and came back empty
    assert {(True, False), (True, True), (False, False)} <= outcomes


# an 8-bit oracle as it is and through the two views
VIEWS = {
    "function": lambda f: f,
    "recording": lambda f: _RecordingOracle(f, BitString(8, 0b10110001)),
    "hybrid": lambda f: HybridFunction(f, BitString(8, 0b10110001), BitString(8, 0b01100110)),
}


@pytest.mark.parametrize("wrap", VIEWS.values(), ids=VIEWS)
def test_views_refuse_a_string_of_the_wrong_width(wrap):
    view = wrap(oracle_for(random_dl(8, SeededRng(32))))
    before = view.ledger.snapshot()
    for width in (7, 9):
        with pytest.raises(ValueError, match="width"):
            view.query(BitString(width, 1))
    assert view.ledger.snapshot() == before
    assert view.query(BitString(8, 1)) in (0, 1)


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
    evaluated = []

    def logged(v):
        evaluated.append(v)
        return t(v)

    base = FunctionOracle(6, logged)
    r = BitString(6, 0b100101)
    rec = _RecordingOracle(base, r)
    queries = [5, 0, 9, 5, 63, 0, 9, 17]
    for i, v in enumerate(queries):
        assert rec.query_raw(v) == t(v ^ r.v)
        assert base.ledger.function_queries == i + 1
    assert list(rec.seen.items()) == [(v, t(v ^ r.v)) for v in (5, 0, 9, 63, 17)]
    # a repeat is answered from the record: the base target runs once per string
    assert evaluated == [v ^ r.v for v in (5, 0, 9, 63, 17)]


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


@pytest.mark.parametrize("wrap", VIEWS.values(), ids=VIEWS)
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
    # with t = 1 the amplifier is one plain run: the shared sampler, and
    # probes on the first stream derived from its rng
    ledger1 = QueryLedger()
    f1 = FunctionOracle(64, mono.target(), ledger1)
    v1 = monotone_dl_amplified(f1, DistSampler(bundle.dist, SeededRng(7, 4), ledger1), 0.2,
                               SeededRng(7, 3), DlConstants(t_amplify=1))
    ledger2 = QueryLedger()
    f2 = FunctionOracle(64, mono.target(), ledger2)
    v2 = MdlRun(f2, DistSampler(bundle.dist, SeededRng(7, 4), ledger2), 0.2,
                SeededRng(7, 3).derive(0)).execute()
    assert v1.decision == v2.decision
    assert ledger1.snapshot() == ledger2.snapshot()


def test_amplified_majority_errs_less_than_single_runs():
    """groups4-no at n=16 with preprocessing starved of samples (delta 1.6),
    so that single runs accept some far instances: a majority of three errs
    on fewer of them."""
    constants = {t: DlConstants(t_amplify=t, mdl=MdlConstants(delta=1.6)) for t in (1, 3)}
    errors = {1: 0, 3: 0}
    for i in range(30):
        bundle = gen_groups4(16, SeededRng(300 + i), "no")
        for t in errors:
            ledger = QueryLedger()
            rng = SeededRng(77, i)
            v = monotone_dl_amplified(bundle.function_oracle(ledger),
                                      DistSampler(bundle.dist, rng.derive(1), ledger), 0.3,
                                      rng.derive(2), constants[t])
            errors[t] += v.accepted
    assert 0 < errors[1]
    assert errors[3] < errors[1]


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


def test_check_dl_no_mixed_values_on_wide_strings():
    """Parity on e1 and the strings of weight 7 and 8 of width 8: the monotone
    run rejects its sketch having queried e1 and strings of weight 7 or more.
    The light sketch source keeps only e1, of one value, so no mixed values
    remain; the full source keeps them all and goes on."""
    n = 8
    d = FiniteDistribution.uniform([BitString(n, 0xFF ^ (1 << i)) for i in range(n)]
                                   + [BitString(n, 0xFF), unit(1, n)])
    verdicts = {}
    for source in ("light", "full"):
        f = FunctionOracle(n, lambda v: v.bit_count() & 1)
        verdicts[source] = check_dl(f, d, 0.3, BitString(n, 0), SeededRng(0, 1),
                                    DlConstants(t_amplify=1, sketch_source=source))
    v = verdicts["light"]
    assert (v.decision, v.witness, v.queries, v.samples) == \
        ("reject", ("no_mixed_values",), 25, 23)
    assert verdicts["full"].witness[0] != "no_mixed_values"


def test_check_dl_no_candidate_shift(monkeypatch):
    """f = x1 with the zero pivot, and a stub monotone tester that queries e1
    and e2 and rejects: e1 is the last string of the opposite value, its index
    search finds bit 1, and e2, the last same-value run, does not hold bit 1."""
    def amplified(g, sampler, eps, rng, constants):
        for v in (1, 2):
            g.query_raw(v)
        return Verdict("reject", witness=("stub",))

    monkeypatch.setattr("sublintest.dl.monotone_dl_amplified", amplified)
    f = FunctionOracle(2, lambda v: v & 1)
    d = FiniteDistribution.uniform([unit(1, 2), unit(2, 2)])
    v = check_dl(f, d, 0.3, BitString(2, 0), SeededRng(0, 1))
    assert (v.decision, v.witness, v.queries, v.samples) == \
        ("reject", ("no_candidate_shift",), 35, 34)


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


@pytest.mark.parametrize("family", ["dl-yes", "groups4-no"])
def test_decision_list_tester_memo_evaluates_each_string_once(family):
    """Given a bare oracle, a trial evaluates each distinct base string once,
    and decides, charges and evaluates as on an oracle that the caller
    memoises."""
    rng = SeededRng(24)
    for trial in range(3):
        bundle = (gen_dl_yes(64, 24, rng.derive(trial)) if family == "dl-yes" else
                  gen_groups4(64, rng.derive(trial), "no"))
        bare_calls, memo_calls = Counter(), Counter()

        def counting(calls, _target=bundle.target):
            def target(v):
                calls[v] += 1
                return _target(v)
            return target

        runs = [decision_list_tester(FunctionOracle(64, target), bundle.dist, 0.25,
                                     rng.derive(100 + trial), DESK)
                for target in (counting(bare_calls),
                               Memo(counting(memo_calls)).__getitem__)]
        bare, memoised = [(v.decision, v.witness, v.queries, v.samples) for v in runs]
        assert bare == memoised, trial
        assert bare_calls == memo_calls, trial
        assert set(bare_calls.values()) == {1}, trial


def test_dl_ledger_within_budget():
    bundle = gen_dl_yes(64, 24, SeededRng(12))
    ledger = QueryLedger()
    f = bundle.function_oracle(ledger)
    decision_list_tester(f, bundle.dist, 0.25, SeededRng(13), DESK)
    assert ledger.function_queries <= budget_dl(64, 0.25, DESK)[0]
    assert ledger.samples_drawn <= budget_dl(64, 0.25, DESK)[1]


def test_flip_semantics_match_definition():
    rng = SeededRng(14)
    rep = random_dl(32, rng)
    t = rep.target()
    r = rng.bit_string(32)
    for i in range(1, 33):
        assert t(r.v ^ (1 << (i - 1))) == t(bit_xor(r, unit(i, 32)).v)


def test_round_profile_refuses_a_threshold_above_the_attempts():
    assert round_profile(256, 0.25, DlConstants(outer_rounds=2, inner_rounds=10)) == (2, 10, 10.0)
    assert round_profile(64, 0.2, DESK) == (4, 5, 2)
    for constants in (DlConstants(outer_rounds=2, inner_rounds=9),  # log2(256/0.25) = 10
                      DlConstants(inner_rounds=5, accept_threshold=5.5)):
        with pytest.raises(ValueError, match="no round could accept"):
            round_profile(256, 0.25, constants)
        bundle = gen_dl_yes(256, 16, SeededRng(15))
        ledger = QueryLedger()
        with pytest.raises(ValueError, match="no round could accept"):
            decision_list_tester(bundle.function_oracle(ledger), bundle.dist, 0.25,
                                 SeededRng(16), constants)
        assert ledger.snapshot() == (0, 0)


def test_round_profile_refuses_more_attempts_than_the_streams_number():
    """Attempt j of round rd draws from rng.derive((rd << 20) | j), so attempt
    2**20 of round 0 would draw the stream of attempt 0 of round 1."""
    assert round_profile(64, 0.2, DlConstants(inner_rounds=1 << 20))[1] == 1 << 20
    with pytest.raises(ValueError, match="streams would repeat"):
        round_profile(64, 0.2, DlConstants(inner_rounds=(1 << 20) + 1))


def _full_round_tester(f, d, eps, rng, constants, rounds):
    """decision_list_tester as it was before rounds stopped early: a round
    that does not accept runs every attempt.  Appends each round's accepted
    flags, one per attempt run, to rounds."""
    outer, inner, threshold = round_profile(f.n, eps, constants)
    sampler = DistSampler(d, rng, f.ledger)
    for rd in range(outer):
        r = sampler.draw()
        count = 0
        flags = []
        rounds.append(flags)
        for j in range(inner):
            flags.append(dl.check_dl(f, d, eps, r, rng.derive((rd << 20) | j),
                                     constants).accepted)
            count += flags[-1]
            if count >= threshold:
                break
        if count >= threshold:
            return Verdict("accept")
    return Verdict("reject", witness=("no_accepting_round",))


FRACTIONAL = DlConstants(t_amplify=1, outer_rounds=4, inner_rounds=5, accept_threshold=2.5,
                         sketch_source="light")


@pytest.mark.parametrize("family", ["dl-yes", "groups4-no"])
@pytest.mark.parametrize("constants", [DESK, FRACTIONAL], ids=["desk", "fractional"])
def test_full_round_reference_on_seeded_trials(family, constants):
    """Same verdict and witness as the reference on every trial; the ledger
    no larger, equal when no round fails, and smaller when a failing round of
    the reference ran a last attempt that could not reach the threshold."""
    threshold = constants.accept_threshold
    rng = SeededRng(17)
    failing = shorter = 0
    for trial in range(6):
        bundle = (gen_dl_yes(64, 24, rng.derive(trial)) if family == "dl-yes" else
                  gen_groups4(64, rng.derive(trial), "no"))
        ledger, ref_ledger, rounds = QueryLedger(), QueryLedger(), []
        v = decision_list_tester(bundle.function_oracle(ledger), bundle.dist, 0.25,
                                 rng.derive(100 + trial), constants)
        ref = _full_round_tester(bundle.function_oracle(ref_ledger), bundle.dist, 0.25,
                                 rng.derive(100 + trial), constants, rounds)
        assert (v.decision, v.witness) == (ref.decision, ref.witness), trial
        got, want = ledger.snapshot(), ref_ledger.snapshot()
        assert got[0] <= want[0] and got[1] <= want[1], trial
        failed = rounds if ref.rejected else rounds[:-1]
        if not failed:
            assert got == want, trial
        if any(sum(flags[:-1]) + 1 < threshold for flags in failed):
            assert got[0] < want[0], trial
            shorter += 1
        failing += bool(failed)
    # the trials reach failing rounds, and rounds the early stop shortens
    assert failing and shorter


def _scripted(tester, script, threshold, monkeypatch):
    """Run tester with each attempt replaced by script[rd][j] (1 accepts);
    returns the verdict and the (rd, j) of the attempts run, in order."""
    outer, inner = len(script), len(script[0])
    rng = SeededRng(18)
    slots = {rng.derive((rd << 20) | j).stream_id: (rd, j)
             for rd in range(outer) for j in range(inner)}
    ran = []

    def attempt(f, d, eps, r, attempt_rng, constants, searches=None):
        rd, j = slots[attempt_rng.stream_id]
        ran.append((rd, j))
        return Verdict("accept" if script[rd][j] else "reject")

    monkeypatch.setattr(dl, "check_dl", attempt)
    bundle = gen_dl_yes(8, 4, SeededRng(19))
    constants = DlConstants(outer_rounds=outer, inner_rounds=inner, accept_threshold=threshold)
    return tester(bundle.function_oracle(), bundle.dist, 0.25, rng, constants), ran


def _reference(*args):
    return _full_round_tester(*args, [])


# (threshold, one round's attempts, attempts the program runs, decision)
SCRIPTED_ROUNDS = [
    (2, [0, 1, 0, 1], 4, "accept"),    # reaches the threshold on its last attempt
    (2, [0, 0, 0, 1], 3, "reject"),    # after three rejections one attempt cannot make 2
    (2, [1, 0, 0, 0], 4, "reject"),
    (1.5, [0, 0, 0, 1], 3, "reject"),  # a fractional threshold needs 2
    (1.5, [0, 0, 1, 1], 4, "accept"),
    (2.5, [1, 0, 1, 1], 4, "accept"),  # needs 3, the last on the last attempt
    (2.5, [0, 1, 0, 1], 3, "reject"),
    (2.5, [0, 0, 1, 1], 2, "reject"),
    (4, [0, 1, 1, 1], 1, "reject"),    # the threshold equals the attempts
    (4, [1, 1, 1, 1], 4, "accept"),
    (1, [0, 0, 0, 0], 4, "reject"),    # a round of threshold 1 can stop only at its end
]


@pytest.mark.parametrize("threshold, script, runs, decision", SCRIPTED_ROUNDS)
def test_full_round_reference_on_scripted_rounds(threshold, script, runs, decision,
                                                 monkeypatch):
    v, ran = _scripted(decision_list_tester, [script], threshold, monkeypatch)
    ref, ref_ran = _scripted(_reference, [script], threshold, monkeypatch)
    assert (v.decision, ref.decision) == (decision, decision)
    assert ran == ref_ran[:runs] == [(0, j) for j in range(runs)]
    assert len(ref_ran) == (len(script) if decision == "reject" else runs)


@pytest.mark.parametrize("threshold", [1, 1.5, 2, 2.5, 3, 4])
def test_full_round_reference_on_seeded_scripts(threshold, monkeypatch):
    """Over 200 seeded scripts of three rounds, each round one of the 16
    accept/reject patterns of four attempts: the same verdict and witness as
    the reference; in each round the program runs a prefix of the reference's
    attempts, skips only attempts that could not take the round to its
    threshold, and runs none after the round is decided."""
    patterns = [[(bits >> j) & 1 for j in range(4)] for bits in range(16)]
    rng = SeededRng(20)
    for case in range(200):
        script = [patterns[int(rng.integer(0, 16))] for _ in range(3)]
        v, ran = _scripted(decision_list_tester, script, threshold, monkeypatch)
        ref, ref_ran = _scripted(_reference, script, threshold, monkeypatch)
        assert (v.decision, v.witness) == (ref.decision, ref.witness), script
        for rd in range(3):
            got = [j for r, j in ran if r == rd]
            want = [j for r, j in ref_ran if r == rd]
            assert got == want[:len(got)], script
            count = sum(script[rd][j] for j in got)
            if len(got) < len(want):  # skipped: even all accepts would fall short
                assert count + len(want) - len(got) < threshold, script
            if got:  # the last attempt run could still decide the round
                before = count - script[rd][got[-1]]
                assert before < threshold <= before + 4 - got[-1], script


# -- the round's index-search table ------------------------------------------

def _logged_searches(monkeypatch, rng, n, eps, constants):
    """Log each index search a run on rng makes as (round, string); the round
    is read from the attempt's rng stream."""
    outer, inner, _ = round_profile(n, eps, constants)
    rounds = {rng.derive((rd << 20) | j).stream_id: rd
              for rd in range(outer) for j in range(inner)}
    log, current = [], [None]
    check, search = dl.check_dl, dl.index_search

    def attempt(*args):
        current[0] = rounds[args[4].stream_id]
        return check(*args)

    def logged(f, r, y):
        log.append((current[0], y.v))
        return search(f, r, y)

    monkeypatch.setattr(dl, "check_dl", attempt)
    monkeypatch.setattr(dl, "index_search", logged)
    return log


def test_round_replays_its_index_searches(monkeypatch):
    """A round runs each index search once per string; with a table per
    attempt the same searches repeat, and the verdict, witness and ledger are
    the same."""
    repeated = 0
    for seed in range(4):
        bundle = gen_groups4(64, SeededRng(21, seed), "no")
        runs = []
        for fresh in (False, True):
            with monkeypatch.context() as m:
                if fresh:
                    m.setattr(dl, "check_dl", own_index_table(dl.check_dl))
                log = _logged_searches(m, SeededRng(22, seed), 64, 0.25, DESK)
                v = decision_list_tester(bundle.function_oracle(), bundle.dist, 0.25,
                                         SeededRng(22, seed), DESK)
            runs.append(((v.decision, v.witness, v.queries, v.samples),
                         Counter(log)))
        (got, once), (want, each) = runs
        assert got == want, seed
        assert set(once.values()) <= {1} and once.keys() == each.keys(), seed
        repeated += sum(each.values()) - len(each)
    assert repeated

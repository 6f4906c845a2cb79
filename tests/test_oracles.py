from collections import Counter

import pytest

from sublintest.core import BitString, FiniteDistribution, PairDistribution, SeededRng, unit
from sublintest.oracles import (BudgetExhausted, ComparisonOracle, DistSampler,
                                FunctionOracle, MarginalSampler, PairSampler,
                                PreconditionViolated, QueryLedger)

from helpers import ChargeLog


def test_constant_target_counts():
    f = FunctionOracle(4, lambda v: 1)
    assert f.query(BitString.zeros(4)) == 1
    f.query(unit(2, 4))
    f.query(unit(3, 4))
    assert f.ledger.function_queries == 3


def test_mdl_target_through_oracle():
    from sublintest.dlmodel import MonotoneDLRep
    rep = MonotoneDLRep(3, (2, 1, 3), (1, 0, 1, 0))
    f = FunctionOracle(3, rep.target())
    # bits (x1,x2,x3) = 011 -> highest-priority rule is variable 2
    assert f.query(BitString(3, 0b110)) == 1
    assert f.ledger.function_queries == 1


def test_fresh_ledger_report():
    f = FunctionOracle(2, lambda v: 0)
    assert f.ledger.snapshot() == (0, 0)
    d = FiniteDistribution.point_mass(unit(1, 2))
    s = DistSampler(d, SeededRng(1), f.ledger)
    f.query(BitString.zeros(2))
    for _ in range(5):
        f.query(unit(1, 2))
    s.draw()
    s.draw()
    assert f.ledger.snapshot() == (6, 2)


def test_budget_exhaustion_counter_stops_at_budget():
    ledger = QueryLedger(query_budget=3)
    f = FunctionOracle(2, lambda v: 0, ledger)
    for _ in range(3):
        f.query(BitString.zeros(2))
    with pytest.raises(BudgetExhausted):
        f.query(BitString.zeros(2))
    assert ledger.function_queries == 3


def test_repeat_exhaustion_stops_at_budget():
    ledger = ChargeLog(query_budget=3)
    ledger.repeat(0, 4)
    ledger.repeat(3, 0)
    assert ledger.charge_calls == 0  # nothing to repeat, no charge
    with pytest.raises(BudgetExhausted):
        ledger.repeat(2, 2)
    assert ledger.function_queries == 3


def test_replay_hit_exhaustion_stops_at_budget_without_computing():
    ledger, cache, asked = QueryLedger(query_budget=7), {}, []
    f = FunctionOracle(2, asked.append, ledger)
    search = lambda v: [f.query_raw(v) for _ in range(3)]  # noqa: E731
    assert ledger.replay(cache, 3, search, 3) == ledger.replay(cache, 3, search, 3) == [None] * 3
    assert ledger.function_queries == 6  # the hit repeats the miss's three queries
    with pytest.raises(BudgetExhausted):
        ledger.replay(cache, 3, search, 3)
    assert asked == [3] * 3 and ledger.function_queries == 7


@pytest.mark.parametrize("budgets", [{"query_budget": -1}])
def test_negative_budget_is_rejected(budgets):
    with pytest.raises(ValueError, match="negative"):
        QueryLedger(**budgets)
    # a zero budget is valid: the first charge runs out
    with pytest.raises(BudgetExhausted):
        QueryLedger(query_budget=0).charge_queries()


def test_cached_target_evaluates_each_string_once():
    from sublintest.instances import _cached
    calls = []

    def target(v):
        calls.append(v)
        return v & 1

    f = FunctionOracle(3, _cached(target))
    queries = [0, 2, 1, 2, 0, 3, 1, 0]
    assert [f.query_raw(v) for v in queries] == [v & 1 for v in queries]
    assert calls == [0, 2, 1, 3]  # value-0 strings are kept too
    assert f.ledger.function_queries == len(queries)


def test_cached_target_stops_storing_at_cap():
    from sublintest.instances import _cached
    calls = []

    def target(v):
        calls.append(v)
        return 0

    cached = _cached(target, cap=2)
    for v in (1, 2, 3, 1, 2, 3):
        cached(v)
    assert calls == [1, 2, 3, 3]


def test_oracle_purity_repeated_queries():
    calls = []

    def target(v):
        calls.append(v)
        return v & 1

    f = FunctionOracle(4, target)
    x = unit(1, 4)
    results = {f.query(x) for _ in range(1000)}
    assert results == {1}
    assert f.ledger.function_queries == 1000


def test_comparison_oracle_consistency():
    cmp = ComparisonOracle(10, lambda u, v: u < v)  # natural order
    assert cmp.less(3, 7)
    assert not cmp.less(7, 3)
    assert cmp.ledger.function_queries == 2
    with pytest.raises(PreconditionViolated):
        cmp.less(4, 4)


def test_draw_counts_duplicates():
    d = FiniteDistribution.point_mass(unit(1, 3))
    ledger = QueryLedger()
    s = DistSampler(d, SeededRng(0), ledger)
    out = s.draw_set(50)
    assert len(out) == 1
    assert ledger.samples_drawn == 50


def test_draw_set_first_occurrence_order_matches_sequential():
    atoms = [unit(i, 6) for i in range(1, 7)]
    d = FiniteDistribution.uniform(atoms)
    s1 = DistSampler(d, SeededRng(5, 77), QueryLedger())
    batched = [x.v for x in s1.draw_set(40)]
    rng = SeededRng(5, 77)
    idx = d.sample_indices(rng, 40)
    seen, seq = set(), []
    for i in idx:
        if i not in seen:
            seen.add(i)
            seq.append(atoms[i].v)
    assert batched == seq


def test_seeded_replay_identical_sequences():
    d = FiniteDistribution.uniform([unit(i, 5) for i in range(1, 6)])
    s1 = DistSampler(d, SeededRng(9, 1), QueryLedger())
    s2 = DistSampler(d, SeededRng(9, 1), QueryLedger())
    assert [s1.draw().v for _ in range(200)] == [s2.draw().v for _ in range(200)]


def test_shifted_sampler_is_exact_shift():
    from sublintest.core import xor_shift
    base = FiniteDistribution.uniform([unit(i, 4) for i in range(1, 5)])
    r = BitString(4, 0b1010)
    shifted_lazy = DistSampler(base, SeededRng(4, 2), QueryLedger()).shifted(r)
    explicit = xor_shift(base, r)
    support = {a.v for a in explicit.atoms}
    assert all(x.v in support for x in shifted_lazy.draw_list(200))



# 40 atoms of width 12 with unequal weights; 70000 draws take the multinomial
# branch of draw_set
SHIFT_BASE = FiniteDistribution(12, [(BitString(12, 97 * i + 5), (i + 1) / 820)
                                     for i in range(40)])
SHIFT_R = BitString(12, 0b101100111010)


def per_call_shift(base: DistSampler, method: str, m: int):
    """The shifted draw built anew for every outcome from the base's draw."""
    rv = SHIFT_R.v
    if method == "draw_counts":
        return [(BitString(x.n, x.v ^ rv), c) for x, c in base.draw_counts(m)]
    return [BitString(x.n, x.v ^ rv) for x in getattr(base, method)(m)]


@pytest.mark.parametrize("method", ["draw_list", "draw_set", "draw_counts"])
@pytest.mark.parametrize("m", [1, 7, 300, 70000])
def test_shifted_sampler_matches_per_call_construction(method, m):
    """Values, order, ledger and the rng left behind equal shifting each base
    outcome on every call; equal atoms come back as one object."""
    shifted = DistSampler(SHIFT_BASE, SeededRng(6, 1), QueryLedger()).shifted(SHIFT_R)
    base = DistSampler(SHIFT_BASE, SeededRng(6, 1), QueryLedger())
    for _ in range(2):
        got = getattr(shifted, method)(m)
        assert got == per_call_shift(base, method, m)
        assert shifted.ledger.samples_drawn == base.ledger.samples_drawn
        assert [shifted.draw() for _ in range(3)] == [
            BitString(12, base.draw().v ^ SHIFT_R.v) for _ in range(3)]
    outs = shifted.draw_list(300)
    assert len({id(x) for x in outs}) == len({x.v for x in outs})


def test_shifted_sampler_shifts_compose():
    r2 = BitString(12, 0b000011110000)
    twice = DistSampler(SHIFT_BASE, SeededRng(6, 2), QueryLedger()).shifted(SHIFT_R).shifted(r2)
    once = DistSampler(SHIFT_BASE, SeededRng(6, 2), QueryLedger()).shifted(
        BitString(12, SHIFT_R.v ^ r2.v))
    assert twice.draw_list(50) == once.draw_list(50)

PAIRS = PairDistribution(6, [((1, 2), 0.3), ((2, 5), 0.25), ((3, 4), 0.2), ((6, 1), 0.15),
                             ((4, 5), 0.1)])


def test_pair_sampler_fixed_seed_outputs():
    ledger = QueryLedger()
    s = PairSampler(PAIRS, SeededRng(12, 3), ledger)
    assert [s.draw() for _ in range(3)] == [(3, 4), (4, 5), (2, 5)]
    assert s.draw_list(8) == [(2, 5), (4, 5), (1, 2), (2, 5), (1, 2), (2, 5), (3, 4), (3, 4)]
    assert s.draw_set(12) == [(1, 2), (2, 5), (3, 4)]
    assert ledger.samples_drawn == 23


def test_marginal_sampler_fixed_seed_outputs():
    ledger = QueryLedger()
    s = MarginalSampler(PAIRS, SeededRng(12, 3), ledger)
    assert [s.draw() for _ in range(3)] == [3, 5, 2]
    assert s.draw_list(8) == [2, 2, 1, 2, 3, 4, 1, 5]
    assert s.draw_set(12) == [2, 1, 5, 3]
    assert ledger.samples_drawn == 23


def test_dist_sampler_draw_set_fixed_seed_outputs():
    # m = 10 dedupes the drawn batch; m = 70000 on 4 atoms samples hit counts
    d = FiniteDistribution(3, [(unit(1, 3), 0.5), (unit(2, 3), 0.3),
                               (unit(3, 3), 0.2 - 1e-5), (BitString(3, 7), 1e-5)])
    ledger = QueryLedger()
    s = DistSampler(d, SeededRng(8, 1), ledger)
    assert [x.v for x in s.draw_set(10)] == [2, 1, 4]
    assert [x.v for x in s.draw_set(70000)] == [1, 2, 4, 7]
    assert s.draw().v == 1
    assert ledger.samples_drawn == 70011


# sampler kind -> build(rng, ledger)
COUNTING_SAMPLERS = {
    "dist": lambda rng, ledger: DistSampler(
        FiniteDistribution(3, [(unit(1, 3), 0.5), (unit(2, 3), 0.3), (unit(3, 3), 0.15),
                               (BitString(3, 7), 0.05)]), rng, ledger),
    "shifted": lambda rng, ledger: DistSampler(
        FiniteDistribution.uniform([unit(i, 5) for i in range(1, 6)]), rng,
        ledger).shifted(BitString(5, 0b10110)),
    "marginal": lambda rng, ledger: MarginalSampler(PAIRS, rng, ledger),
}


@pytest.mark.parametrize("kind", COUNTING_SAMPLERS)
@pytest.mark.parametrize("m", [1, 7, 300])
def test_draw_counts_is_counted_draw_list(kind, m):
    """draw_counts(m) is the first-occurrence count of draw_list(m) on a twin
    rng, charges m samples and leaves the rng where draw_list leaves it."""
    build = COUNTING_SAMPLERS[kind]
    counted = build(SeededRng(21, 4), QueryLedger())
    listed = build(SeededRng(21, 4), QueryLedger())
    assert counted.draw_counts(m) == list(Counter(listed.draw_list(m)).items())
    assert counted.ledger.samples_drawn == listed.ledger.samples_drawn == m
    assert [counted.draw() for _ in range(5)] == [listed.draw() for _ in range(5)]

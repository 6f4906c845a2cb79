import pytest

from sublintest.core import BitString, FiniteDistribution, SeededRng, unit
from sublintest.oracles import (BudgetExhausted, ComparisonOracle, DistSampler,
                                FunctionOracle, PreconditionViolated, QueryLedger)


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


def test_sample_budget():
    ledger = QueryLedger(sample_budget=2)
    d = FiniteDistribution.point_mass(unit(1, 2))
    s = DistSampler(d, SeededRng(1), ledger)
    s.draw()
    s.draw()
    with pytest.raises(BudgetExhausted):
        s.draw()
    assert ledger.samples_drawn == 2


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

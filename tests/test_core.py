import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sublintest.core import (BitString, FiniteDistribution, PairDistribution, SeededRng,
                             bit_or, bit_xor, clamped_log2, unit, xor_shift)
from sublintest.oracles import DistSampler, MarginalSampler, QueryLedger


def bits(n, s):
    """Little helper: 'ab' with bit 1 = first char."""
    return BitString(n, int(s[::-1], 2))


def test_bit_or_examples():
    assert bit_or(bits(4, "0101"), bits(4, "0011")) == bits(4, "0111")
    x = bits(4, "1101")
    assert bit_or(x, BitString.zeros(4)) == x
    assert bit_or(unit(2, 5), unit(4, 5)) == bits(5, "01010")


def test_bit_xor_examples():
    assert bit_xor(bits(4, "0101"), bits(4, "0011")) == bits(4, "0110")
    x = bits(4, "1011")
    assert bit_xor(x, x) == BitString.zeros(4)
    assert bit_xor(x, BitString.zeros(4)) == x


def test_unit_examples():
    assert unit(1, 4) == bits(4, "1000")
    assert unit(4, 4) == bits(4, "0001")
    assert unit(3, 8).support() == [3]
    with pytest.raises(ValueError):
        unit(0, 4)
    with pytest.raises(ValueError):
        unit(5, 4)


def test_width_mismatch_rejected():
    with pytest.raises(ValueError):
        bit_or(BitString.zeros(4), BitString.zeros(5))
    with pytest.raises(ValueError):
        bit_xor(BitString.zeros(4), BitString.zeros(5))


def test_bits_beyond_width_rejected():
    with pytest.raises(ValueError):
        BitString(3, 0b1000)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.data())
def test_support_identities_exhaustive_small(n, data):
    xv = data.draw(st.integers(0, (1 << n) - 1))
    yv = data.draw(st.integers(0, (1 << n) - 1))
    x, y = BitString(n, xv), BitString(n, yv)
    assert set(bit_or(x, y).support()) == set(x.support()) | set(y.support())
    assert set(bit_xor(x, y).support()) == set(x.support()) ^ set(y.support())
    assert bit_xor(x, x).v == 0
    assert bit_or(x, x) == x


@settings(max_examples=20, deadline=None)
@given(st.integers(11, 200), st.data())
def test_support_identities_large(n, data):
    xv = data.draw(st.integers(0, (1 << n) - 1))
    yv = data.draw(st.integers(0, (1 << n) - 1))
    x, y = BitString(n, xv), BitString(n, yv)
    assert set(bit_or(x, y).support()) == set(x.support()) | set(y.support())
    assert set(bit_xor(x, y).support()) == set(x.support()) ^ set(y.support())


def test_hex_roundtrip():
    x = bits(12, "101100010011")
    assert BitString.from_hex(12, x.to_hex()) == x


def test_sampler_point_mass():
    x = bits(3, "010")
    d = FiniteDistribution.point_mass(x)
    s = DistSampler(d, SeededRng(7), QueryLedger())
    assert all(s.draw() == x for _ in range(20))


def test_sampler_uniform_frequency():
    a, b = BitString.zeros(2), bits(2, "11")
    d = FiniteDistribution.uniform([a, b])
    s = DistSampler(d, SeededRng(11), QueryLedger())
    hits = sum(s.draw() == a for _ in range(100_000))
    assert abs(hits / 100_000 - 0.5) < 0.01


def test_sampler_support_closure():
    d = FiniteDistribution(3, [(bits(3, "100"), 0.25), (bits(3, "010"), 0.75)])
    s = DistSampler(d, SeededRng(3), QueryLedger())
    supp = {x.v for x in d.support()}
    assert all(s.draw().v in supp for _ in range(200))


def test_sampler_determinism():
    d = FiniteDistribution.uniform([unit(i, 8) for i in range(1, 9)])
    s1 = DistSampler(d, SeededRng(5, 9), QueryLedger())
    s2 = DistSampler(d, SeededRng(5, 9), QueryLedger())
    assert [s1.draw().v for _ in range(10_000)] == [s2.draw().v for _ in range(10_000)]
    assert SeededRng(5, 10).random() != pytest.approx(SeededRng(5, 9).random())


def test_distribution_validation():
    x = bits(2, "10")
    with pytest.raises(ValueError, match="atoms must be distinct"):
        FiniteDistribution(2, [(x, 0.5), (x, 0.5)])
    with pytest.raises(ValueError, match="weights sum to"):
        FiniteDistribution(2, [(x, 0.7)])  # mass deficit
    with pytest.raises(ValueError, match=r"weights must lie in \(0,1\]"):
        FiniteDistribution(2, [(x, 0.0), (bits(2, "01"), 1.0)])  # zero weight
    with pytest.raises(ValueError, match="atom width mismatch"):
        FiniteDistribution(3, [(x, 1.0)])
    with pytest.raises(ValueError, match="pairs must be distinct"):
        PairDistribution(3, [((1, 2), 0.5), ((2, 1), 0.5)])
    with pytest.raises(ValueError, match="two distinct indices"):
        PairDistribution(3, [((2, 2), 1.0)])


def test_empty_support_is_rejected():
    for make in (lambda: FiniteDistribution(2, []), lambda: FiniteDistribution.uniform([]),
                 lambda: PairDistribution(3, []), lambda: PairDistribution.uniform(3, [])):
        with pytest.raises(ValueError, match="at least one outcome"):
            make()


def test_xor_shift_examples():
    d = FiniteDistribution(4, [(bits(4, "0101"), 0.5), (bits(4, "0011"), 0.5)])
    r0 = BitString.zeros(4)
    shifted = xor_shift(d, r0)
    assert {a.v for a in shifted.atoms} == {a.v for a in d.atoms}

    pm = FiniteDistribution.point_mass(bits(4, "0101"))
    out = xor_shift(pm, bits(4, "1111"))
    assert out.atoms[0] == bits(4, "1010")

    r = bits(4, "1001")
    twice = xor_shift(xor_shift(d, r), r)
    assert sorted(a.v for a in twice.atoms) == sorted(a.v for a in d.atoms)
    for a in d.atoms:
        assert twice.mass(a) == pytest.approx(d.mass(a))


def test_vertex_marginal_sampler_matches_weights():
    rng = SeededRng(2024)
    pairs = [(1, 2), (2, 3), (3, 4), (1, 4)]
    d = PairDistribution(4, [(p, w) for p, w in zip(pairs, (0.4, 0.3, 0.2, 0.1))])
    sampler = MarginalSampler(d, rng, QueryLedger())
    draws = sampler.draw_list(100_000)
    for i in range(1, 5):
        mass = 0.5 * sum(w for p, w in zip(d.pairs, d.weights) if i in p)
        freq = draws.count(i) / 100_000
        sigma = (mass * (1 - mass) / 100_000) ** 0.5
        assert abs(freq - mass) < 3 * sigma + 1e-4


def test_clamped_log2():
    assert clamped_log2(1) == 1.0
    assert clamped_log2(2) == 1.0
    assert clamped_log2(8) == 3.0


def test_rng_derive_stability():
    a = SeededRng(42, 0).derive(3)
    b = SeededRng(42, 0).derive(3)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]
    c = SeededRng(42, 0).derive(4)
    assert a.random() != c.random()


# permutation(k) from SeededRng(2024, 7) and the random() drawn after it, as
# the one-draw-per-position Fisher-Yates produced them
PERMUTATION_PINS = {
    0: ((), 0.2624038764256238),
    1: ((1,), 0.2624038764256238),
    2: ((1, 2), 0.020703424212016874),
    3: ((3, 1, 2), 0.020703424212016874),
    17: ((3, 8, 17, 10, 6, 7, 9, 4, 2, 16, 12, 15, 13, 1, 14, 5, 11), 0.7586371107157242),
}


@pytest.mark.parametrize("k", sorted(PERMUTATION_PINS))
def test_permutation_is_pinned(k):
    rng = SeededRng(2024, 7)
    assert (rng.permutation(k), rng.random()) == PERMUTATION_PINS[k]


def test_permutation_is_pinned_large():
    import hashlib
    rng = SeededRng(2024, 7)
    perm = rng.permutation(16384)
    assert sorted(perm) == list(range(1, 16385))
    assert hashlib.sha256(",".join(map(str, perm)).encode()).hexdigest() == (
        "a866342f20be1211ecf88623e04618351b87bed853df34c176b5cb4f656b5ee2")
    assert rng.random() == 0.4135723634550167


def test_permutation_uniform_chi_square():
    import itertools
    rng = SeededRng(99)
    counts = {p: 0 for p in itertools.permutations((1, 2, 3, 4))}
    trials = 24_000
    for _ in range(trials):
        counts[rng.permutation(4)] += 1
    expected = trials / 24
    sigma = (trials * (1 / 24) * (23 / 24)) ** 0.5
    for p, c in counts.items():
        assert abs(c - expected) < 5 * sigma

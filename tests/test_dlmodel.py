import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sublintest.core import BitString, SeededRng, bit_or, bit_xor
from sublintest.dlmodel import (_INT_SCAN_CUTOFF, GeneralDLRep, MonotoneDLRep, dominates,
                                eval_dl, eval_mdl, min_index, monotonize, random_dl,
                                random_mdl)
from sublintest.oracles import FunctionOracle, PreconditionViolated


def brute_min_index(pi, x):
    """Independent positional scan used as the reference oracle."""
    for j, var in enumerate(pi, start=1):
        if x.bit(var):
            return j
    return len(pi) + 1


REP = MonotoneDLRep(3, (2, 1, 3), (1, 0, 1, 0))


def xbits(n, s):
    # s written as x1 x2 ... xn
    return BitString(n, int(s[::-1], 2))


def test_eval_mdl_examples():
    assert eval_mdl(REP, xbits(3, "011")) == 1
    assert eval_mdl(REP, xbits(3, "000")) == 0
    assert eval_mdl(REP, xbits(3, "100")) == 0


def test_min_index_examples():
    assert min_index(REP, xbits(3, "001")) == 3
    assert min_index(REP, BitString.zeros(3)) == 4
    rng = SeededRng(17)
    for _ in range(300):
        n = 1 + rng.integer(1, 8)
        rep = random_mdl(n, rng)
        x = BitString(n, rng.integer(0, 1 << n))
        j = min_index(rep, x)
        assert j == brute_min_index(rep.pi, x)
        assert eval_mdl(rep, x) == rep.nu[j - 1]


def test_large_support_eval_matches_scan():
    rng = SeededRng(23)
    rep = random_mdl(300, rng)
    for _ in range(20):
        x = rng.bit_string(300)
        assert min_index(rep, x) == brute_min_index(rep.pi, x)


def _rank_probes(n, pi, rng):
    """Strings whose firing rank is worth checking: a random string of every
    weight 0..n, a single bit at every rank, and at every rank that bit plus
    enough deeper ranks to pass the scan cutoff."""
    probes = []
    for w in range(n + 1):
        chosen = np.argsort(rng.random_block(n))[:w]
        probes.append(sum(1 << int(i) for i in chosen))
    for j, var in enumerate(pi):
        probes.append(1 << (var - 1))
        deeper = pi[j + 1:j + 2 + 2 * _INT_SCAN_CUTOFF]
        probes.append(sum(1 << (i - 1) for i in (var,) + deeper))
    return probes


@pytest.mark.parametrize("n", [1, 15, 16, 17, 31, 33, 300, 1024])
def test_min_rank_matches_positional_scan(n):
    rng = SeededRng(29, n)
    rep = random_mdl(n, rng)
    probes = _rank_probes(n, rep.pi, rng)
    assert {v.bit_count() > _INT_SCAN_CUTOFF for v in probes} == ({False, True} if n > 4
                                                                  else {False})
    for v in probes:
        assert rep.min_rank_raw(v) + 1 == brute_min_index(rep.pi, BitString(n, v))


def test_prefix_table_waits_for_a_wide_string():
    rep = random_mdl(64, SeededRng(37))
    for j in range(_INT_SCAN_CUTOFF + 1):
        rep.min_rank_raw(sum(1 << (var - 1) for var in rep.pi[-j:]) if j else 0)
    assert rep._prefix is None
    wide = sum(1 << (var - 1) for var in rep.pi[-_INT_SCAN_CUTOFF - 1:])
    assert rep.min_rank_raw(wide) == 64 - _INT_SCAN_CUTOFF - 1
    assert rep._prefix is not None


@pytest.mark.parametrize("n", [1, 15, 16, 17, 31, 33, 300, 1024])
def test_general_min_rank_matches_positional_scan(n):
    rng = SeededRng(31, n)
    rep = random_dl(n, rng)
    r = monotonize(rep)[1].v
    # the probes as firing patterns (u xor r fires where the probe is set) and
    # as raw strings
    for u in [p ^ r for p in _rank_probes(n, rep.pi, rng)] + _rank_probes(n, rep.pi, rng):
        x = BitString(n, u)
        first = next((j for j, var in enumerate(rep.pi) if x.bit(var) == rep.mu[var - 1]), n)
        assert rep.min_rank_raw(u) == first


def test_eval_dl_reduces_to_mdl_when_all_positive():
    rng = SeededRng(5)
    for _ in range(50):
        n = 1 + rng.integer(1, 7)
        mono = random_mdl(n, rng)
        dl = GeneralDLRep(n, mono.pi, [1] * n, mono.nu)
        for v in range(1 << n):
            x = BitString(n, v)
            assert eval_dl(dl, x) == eval_mdl(mono, x)


def test_dl_monotonizes_by_the_unmatched_string():
    rng = SeededRng(6)
    for _ in range(40):
        n = 1 + rng.integer(1, 6)
        rep = random_dl(n, rng)
        mono, r = monotonize(rep)
        assert min_index(rep, r) == n + 1
        for v in range(1 << n):
            x = BitString(n, v)
            assert eval_dl(rep, x) == eval_mdl(mono, bit_xor(x, r))


def test_first_rule_fires_regardless_of_rest():
    rep = GeneralDLRep(4, (3, 1, 2, 4), (0, 1, 0, 1), (1, 0, 0, 1, 0))
    # rule 1 tests variable 3 against polarity 0
    for v in range(16):
        x = BitString(4, v)
        if x.bit(3) == 0:
            assert eval_dl(rep, x) == 1


def test_dominates_direct_example():
    f = FunctionOracle(3, REP.target())
    x, y = xbits(3, "100"), xbits(3, "001")
    assert f.query(x) == 0 and f.query(y) == 1
    assert dominates(f, x, y)
    assert not dominates(f, y, x)
    assert f.ledger.function_queries == 2 + 3 + 3


def test_dominates_requires_opposite_values():
    f = FunctionOracle(3, REP.target())
    with pytest.raises(PreconditionViolated):
        dominates(f, xbits(3, "100"), xbits(3, "000"))


def test_dominates_iff_smaller_min_index_exhaustive():
    rng = SeededRng(8)
    for _ in range(30):
        n = 1 + rng.integer(1, 6)
        rep = random_mdl(n, rng)
        f = FunctionOracle(n, rep.target())
        for xv, yv in itertools.product(range(1 << n), repeat=2):
            x, y = BitString(n, xv), BitString(n, yv)
            if eval_mdl(rep, x) == eval_mdl(rep, y):
                continue
            assert dominates(f, x, y) == (min_index(rep, x) < min_index(rep, y))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.data())
def test_exactly_one_direction_dominates(n, data):
    seed = data.draw(st.integers(0, 2**32))
    rng = SeededRng(seed)
    table = [rng.coin() for _ in range(1 << n)]
    f = FunctionOracle(n, lambda v: table[v])
    xv = data.draw(st.integers(0, (1 << n) - 1))
    yv = data.draw(st.integers(0, (1 << n) - 1))
    x, y = BitString(n, xv), BitString(n, yv)
    if table[xv] == table[yv]:
        return
    assert dominates(f, x, y) != dominates(f, y, x)


def test_random_reps_deterministic_and_valid():
    a = random_mdl(9, SeededRng(3, 4))
    b = random_mdl(9, SeededRng(3, 4))
    assert a.pi == b.pi and a.nu == b.nu
    assert sorted(a.pi) == list(range(1, 10))
    g1 = random_dl(7, SeededRng(3, 5))
    g2 = random_dl(7, SeededRng(3, 5))
    assert (g1.pi, g1.mu, g1.nu) == (g2.pi, g2.mu, g2.nu)

"""The guided batch lookup and every sampler method against the expressions
they replace: searchsorted plus clip for indices, dict.fromkeys for first
occurrences, Counter for multiplicities and the row-by-row searchsorted loop
of the collision experiments.  Outcomes, their order, the samples charged and
the rng left behind must all be equal."""

from collections import Counter

import numpy as np
import pytest

from sublintest import birthday
from sublintest.core import (BATCH_CUTOFF, BitString, FiniteDistribution, GuidedSearch,
                             PairDistribution, SeededRng)
from sublintest.oracles import DistSampler, MarginalSampler, PairSampler, QueryLedger

BATCHES = [1, 7, BATCH_CUTOFF - 1, BATCH_CUTOFF, 5000]


def _normalised(raw) -> np.ndarray:
    w = np.asarray(raw, dtype=float)
    return w / w.sum()


# weight vectors, each summing to 1 within the tolerance of WeightedSupport
WEIGHTS = {
    "one": _normalised([1.0]),
    "uniform3": _normalised([1, 1, 1]),
    "uniform1024": _normalised(np.ones(1024)),
    "heavy": _normalised(1.0 / np.arange(1, 3001) ** 2),
    "tiny": _normalised([0.5] + [1e-15] * 200 + [0.3, 0.2] + [1e-15] * 50),
    "random": _normalised(np.random.default_rng(5).random(777) + 0.01),
    # more entries than the guide has buckets, so buckets hold several entries
    "wide": _normalised(np.random.default_rng(6).random(40000) + 0.5),
}


def ref_search(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    return np.searchsorted(cum, u, side="right")


def forced_cum(w: np.ndarray) -> np.ndarray:
    """The cumulative weights WeightedSupport keeps."""
    cum = np.cumsum(w)
    cum[-1] = 1.0
    return cum


def edge_uniforms(cum: np.ndarray) -> np.ndarray:
    """u equal to each entry of cum below 1, just below each entry, on every
    bucket end of a guide of up to 2^15 buckets and at both ends of [0, 1)."""
    g = 1 << 15
    ends = np.arange(g) / g
    below = np.nextafter(cum, 0.0)
    u = np.concatenate([cum, below, ends, [0.0, np.nextafter(1.0, 0.0)]])
    return u[(u >= 0.0) & (u < 1.0)]


@pytest.mark.parametrize("name", WEIGHTS)
def test_guided_search_equals_searchsorted(name):
    cum = forced_cum(WEIGHTS[name])
    search = GuidedSearch(cum)
    rng = np.random.default_rng(11)
    for m in BATCHES:
        u = rng.random(m)
        assert np.array_equal(search(u), ref_search(cum, u))
    u = edge_uniforms(cum)
    assert len(u) >= BATCH_CUTOFF
    assert np.array_equal(search(u), ref_search(cum, u))
    for chunk in np.array_split(u[:4 * BATCH_CUTOFF], 8):  # below the cutoff
        assert len(chunk) < BATCH_CUTOFF
        assert np.array_equal(search(chunk), ref_search(cum, chunk))


@pytest.mark.parametrize("total", [0.0, 0.3, 0.999999, 1.0])
def test_guided_search_with_a_null_entry_past_a_sub_one_total(total):
    """The collision experiments' layout: listed weights (zeros among them)
    summing to total, then +inf, whose index takes every u past the total."""
    w = np.random.default_rng(2).random(300)
    w[::7] = 0.0
    w = w / w.sum() * total
    cum = np.append(np.cumsum(w), np.inf)
    search = GuidedSearch(cum)
    for u in (np.random.default_rng(3).random(5000), edge_uniforms(cum[:-1])):
        got = search(u)
        assert np.array_equal(got, ref_search(cum, u))
        assert np.array_equal(got, ref_search(cum[:-1], u))


class Uniforms:
    """Stub rng whose random_block hands out the given uniforms in turn."""

    def __init__(self, u: np.ndarray):
        self.u = iter(u)

    def random_block(self, m: int) -> np.ndarray:
        return np.array([next(self.u) for _ in range(m)])


@pytest.mark.parametrize("name", WEIGHTS)
def test_index_of_equals_the_clipped_search(name):
    """The outcome index of a single draw on uniform u is the clipped search's."""
    w = WEIGHTS[name]
    d = FiniteDistribution(20, [(BitString(20, i), x) for i, x in enumerate(w)])
    cum = forced_cum(w)
    us = edge_uniforms(cum)[::97]
    s = DistSampler(d, Uniforms(us), QueryLedger())
    for u in us:
        assert s.draw().v == min(int(ref_search(cum, u)), len(w) - 1)
    assert s.ledger.samples_drawn == len(us)


# -- samplers ------------------------------------------------------------------

def ref_indices(weights: np.ndarray, rng: SeededRng, m: int) -> np.ndarray:
    idx = ref_search(forced_cum(weights), rng.random_block(m))
    np.clip(idx, 0, len(weights) - 1, out=idx)
    return idx


PAIR_DIST = PairDistribution(
    300, [((i, i + 1 + (i * 7) % 5), w) for i, w in
          enumerate(_normalised(1.0 / np.arange(1, 251) ** 1.5), start=1)])
ATOM_DIST = FiniteDistribution(12, [(BitString(12, 13 * i + 1), w)
                                    for i, w in enumerate(WEIGHTS["random"][:300] /
                                                          WEIGHTS["random"][:300].sum())])
SHIFT = BitString(12, 0b101101001110)


class Reference:
    """Each sampler's draws through the replaced expressions."""

    def __init__(self, kind: str, rng: SeededRng):
        self.kind, self.rng = kind, rng
        self.dist = PAIR_DIST if kind in ("pair", "marginal") else ATOM_DIST

    def keys(self, m: int) -> list:
        idx = ref_indices(self.dist.weights, self.rng, m).tolist()
        if self.kind != "marginal":
            return idx
        coins = self.rng.integer_block(0, 2, m).tolist()
        return [self.dist.pairs[i][c] for i, c in zip(idx, coins)]

    def outcome(self, key):
        if self.kind == "marginal":
            return key
        x = self.dist.outcomes[key]
        return BitString(x.n, x.v ^ SHIFT.v) if self.kind == "shifted" else x

    def draw(self):
        if self.kind == "marginal":
            return self.draw_list(1)[0]
        return self.outcome(min(int(ref_search(forced_cum(self.dist.weights),
                                               self.rng.random())), len(self.dist.outcomes) - 1))

    def draw_list(self, m: int) -> list:
        return [self.outcome(k) for k in self.keys(m)]

    def draw_set(self, m: int) -> list:
        return [self.outcome(k) for k in dict.fromkeys(self.keys(m))]

    def draw_counts(self, m: int) -> list:
        return [(self.outcome(k), c) for k, c in Counter(self.keys(m)).items()]


SAMPLERS = {
    "dist": lambda rng, ledger: DistSampler(ATOM_DIST, rng, ledger),
    "shifted": lambda rng, ledger: DistSampler(ATOM_DIST, rng, ledger).shifted(SHIFT),
    "pair": lambda rng, ledger: PairSampler(PAIR_DIST, rng, ledger),
    "marginal": lambda rng, ledger: MarginalSampler(PAIR_DIST, rng, ledger),
}


@pytest.mark.parametrize("kind", SAMPLERS)
@pytest.mark.parametrize("method", ["draw_list", "draw_set", "draw_counts"])
def test_sampler_batches_equal_their_references(kind, method):
    ledger = QueryLedger()
    s = SAMPLERS[kind](SeededRng(17, 3), ledger)
    ref = Reference(kind, SeededRng(17, 3))
    charged = 0
    for m in BATCHES:
        got = getattr(s, method)(m)
        assert got == getattr(ref, method)(m)
        if kind == "marginal":  # vertices come back as Python ints
            vertices = [k for k, _ in got] if method == "draw_counts" else got
            assert all(type(v) is int for v in vertices)
        charged += m
        assert ledger.samples_drawn == charged
        assert [s.draw() for _ in range(3)] == [ref.draw() for _ in range(3)]
        charged += 3
    assert np.array_equal(s.rng.random_block(8), ref.rng.random_block(8))


# -- collision experiments -------------------------------------------------------

def ref_draw_sets(weight_map: dict, m: int, trials: int, rng: SeededRng):
    verts = sorted(weight_map)
    cum = np.cumsum(np.array([weight_map[v] for v in verts], dtype=float))
    member = np.zeros((trials, len(verts) + 1), dtype=bool)
    for row in member:
        row[np.searchsorted(cum, rng.random_block(m), side="right")] = True
    return verts, member[:, :-1]


WEIGHT_MAPS = {
    "full": {f"v{i}": 1.0 / 40 for i in range(40)},
    "sub_one": {i: w for i, w in enumerate(0.6 * _normalised(1.0 / np.arange(1, 301)))},
    "zeros": {i: (0.0 if i % 3 == 0 else 1.0 / 200) for i in range(300)},
    "all_null": {"a": 0.0, "b": 0.0},
    "empty": {},
}


@pytest.mark.parametrize("name", WEIGHT_MAPS)
@pytest.mark.parametrize("m", [3, BATCH_CUTOFF - 1, BATCH_CUTOFF, 3000])
def test_draw_sets_equal_the_row_by_row_search(name, m):
    got_rng, ref_rng = SeededRng(4, 0xB1), SeededRng(4, 0xB1)
    verts, member = birthday._draw_sets(WEIGHT_MAPS[name], m, 5, got_rng)
    ref_verts, ref_member = ref_draw_sets(WEIGHT_MAPS[name], m, 5, ref_rng)
    assert verts == ref_verts
    assert np.array_equal(member, ref_member)
    assert np.array_equal(got_rng.random_block(8), ref_rng.random_block(8))

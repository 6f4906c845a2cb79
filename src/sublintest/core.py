"""Packed bitstrings, seeded randomness, and finite-support distributions.

Everything downstream (oracles, testers, generators) builds on the value
types in this module.  All of them are immutable after construction and
safe to share across concurrent trials; per-trial mutable state lives in
the sampler handles of :mod:`sublintest.oracles`.
"""

from __future__ import annotations

import math
from dataclasses import field

import numpy as np

WORD_MASK = (1 << 64) - 1
_MIX = 0x9E3779B97F4A7C15
_MIX2 = 0xBF58476D1CE4E5B9

WEIGHT_TOL = 1e-9
EMPTY_SUPPORT = "a distribution needs at least one outcome"

# Batches of fewer draws than this take one plain searchsorted, and their
# dedupe one dict: below it the guide's and the array dedupe's extra passes
# over the batch cost more than they save.
BATCH_CUTOFF = 512
# Guide buckets per cumulative entry (rounded up to a power of two), and the
# most buckets one guide holds.
GUIDE_BUCKETS_PER_ENTRY = 2
GUIDE_MAX_BUCKETS = 1 << 14


def clamped_log2(x: float) -> float:
    """log2(x) clamped below at 1; the logarithm used by every budget formula."""
    if x <= 2.0:
        return 1.0
    return math.log2(x)


def ceil_pos(x: float) -> int:
    """Ceiling as a positive integer count."""
    return max(1, math.ceil(x))


def const(default, name: str):
    """Dataclass field for a tuning constant that `--const name=value` sets."""
    return field(default=default, metadata={"const": name})


def check_permutation(seq, n: int, name: str) -> tuple:
    """seq as a tuple, after checking that it lists each of 1..n once."""
    seq = tuple(seq)
    if len(seq) != n or sorted(seq) != list(range(1, n + 1)):
        raise ValueError(f"{name} must be a permutation of [1..n]")
    return seq


class BitString:
    """Immutable n-bit string.  Bit i (1-based, i in [1..n]) is the i-th least
    significant bit of the backing integer."""

    __slots__ = ("n", "v")

    def __init__(self, n: int, v: int = 0):
        if n < 1:
            raise ValueError("width must be positive")
        if v < 0 or v >> n:
            raise ValueError("bits beyond width must be zero")
        self.n = n
        self.v = v

    @classmethod
    def zeros(cls, n: int) -> "BitString":
        return cls(n, 0)

    @classmethod
    def from_support(cls, n: int, indices) -> "BitString":
        v = 0
        for i in indices:
            if not 1 <= i <= n:
                raise ValueError("support index out of range")
            v |= 1 << (i - 1)
        return cls(n, v)

    @classmethod
    def from_hex(cls, n: int, hx: str) -> "BitString":
        nbytes = (n + 7) // 8
        raw = bytes.fromhex(hx)
        if len(raw) != nbytes:
            raise ValueError("hex payload has wrong length for width")
        return cls(n, int.from_bytes(raw, "little"))

    def to_hex(self) -> str:
        nbytes = (self.n + 7) // 8
        return self.v.to_bytes(nbytes, "little").hex()

    def bit(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError("index out of range")
        return (self.v >> (i - 1)) & 1

    def support(self) -> list[int]:
        """Sorted 1-based indices of set bits."""
        out = []
        v = self.v
        while v:
            lsb = v & -v
            out.append(lsb.bit_length())
            v ^= lsb
        return out

    def weight(self) -> int:
        return self.v.bit_count()

    def __eq__(self, other):
        return isinstance(other, BitString) and self.n == other.n and self.v == other.v

    def __hash__(self):
        return hash((self.n, self.v))

    def __repr__(self):
        bits = "".join(str((self.v >> i) & 1) for i in range(self.n))
        return f"BitString({bits})" if self.n <= 32 else f"BitString(n={self.n}, w={self.weight()})"


def _check_same_width(x: BitString, y: BitString):
    if x.n != y.n:
        raise ValueError(f"width mismatch: {x.n} vs {y.n}")


def bit_or(x: BitString, y: BitString) -> BitString:
    _check_same_width(x, y)
    return BitString(x.n, x.v | y.v)


def bit_xor(x: BitString, y: BitString) -> BitString:
    _check_same_width(x, y)
    return BitString(x.n, x.v ^ y.v)


def unit(i: int, n: int) -> BitString:
    if not 1 <= i <= n:
        raise ValueError("unit index out of range")
    return BitString(n, 1 << (i - 1))


def _mix64(a: int, b: int) -> int:
    z = (a * _MIX + b * _MIX2 + 0x94D049BB133111EB) & WORD_MASK
    z ^= z >> 31
    z = (z * _MIX2) & WORD_MASK
    z ^= z >> 29
    return z


class SeededRng:
    """Counter-based random stream (Philox).  Equal (master_seed, stream_id)
    pairs replay identical draw sequences on any platform."""

    __slots__ = ("master_seed", "stream_id", "_gen")

    def __init__(self, master_seed: int, stream_id: int = 0):
        self.master_seed = master_seed & WORD_MASK
        self.stream_id = stream_id & WORD_MASK
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def derive(self, tag: int) -> "SeededRng":
        """Independent child stream; deterministic in (stream_id, tag)."""
        return SeededRng(self.master_seed, _mix64(self.stream_id, tag & WORD_MASK))

    def random(self) -> float:
        return float(self._gen.random())

    def random_block(self, m: int) -> np.ndarray:
        return self._gen.random(m)

    def integer(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi)."""
        return int(self._gen.integers(lo, hi))

    def integer_block(self, lo: int, hi: int, m: int) -> np.ndarray:
        return self._gen.integers(lo, hi, size=m)

    def coin(self) -> int:
        return int(self._gen.integers(0, 2))

    def bit_string(self, n: int) -> "BitString":
        """Uniform n-bit string."""
        nbytes = (n + 7) // 8
        raw = self._gen.integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()
        return BitString(n, int.from_bytes(raw, "little") & ((1 << n) - 1))

    def multinomial(self, m: int, pvals: np.ndarray) -> np.ndarray:
        return self._gen.multinomial(m, pvals)

    def shuffle(self, items: list) -> list:
        """In-place Fisher-Yates; returns the list for chaining.  Position i,
        from the last down to 1, swaps with a uniform j in [0, i]; all the j
        come from one vectorised draw, which moves the stream as one draw
        per position would."""
        n = len(items)
        js = self._gen.integers(0, np.arange(n, 1, -1)).tolist()
        for i, j in zip(range(n - 1, 0, -1), js):
            items[i], items[j] = items[j], items[i]
        return items

    def permutation(self, n: int) -> tuple[int, ...]:
        """Uniform permutation of [1..n], as the tuple (pi(1),...,pi(n))."""
        items = list(range(1, n + 1))
        self.shuffle(items)
        return tuple(items)


class GuidedSearch:
    """np.searchsorted(cum, u, side="right") for batches of u in [0, 1), equal
    to it element for element.  cum is non-decreasing and its last entry is at
    least 1, so every answer lies below len(cum).

    [0, 1) is cut into g = 2^k buckets, so u*g and b/g are exact in floating
    point and a draw in bucket b = floor(u*g) has b/g <= u < (b+1)/g.  The
    guide table keeps, for each bucket whose interior holds at most one entry
    of cum, the answer at its left end, lo; a draw there is answered by lo,
    plus one when it reaches cum[lo].  Only the draws in the other buckets
    (marked -1) are searched.  The table is built on the first batch of
    BATCH_CUTOFF draws or more."""

    __slots__ = ("cum", "_guide")

    def __init__(self, cum: np.ndarray):
        self.cum = cum
        self._guide = None

    def _build(self) -> np.ndarray:
        want = min(GUIDE_BUCKETS_PER_ENTRY * len(self.cum), GUIDE_MAX_BUCKETS)
        g = 1 << max(0, want - 1).bit_length()
        # the answers at the bucket ends; their differences also count an
        # entry lying exactly on a bucket's right end, which can only send
        # that bucket's draws to the search
        lo = np.searchsorted(self.cum, np.arange(g + 1) / g, side="right")
        guide = lo[:-1].astype(np.int32)
        guide[np.diff(lo) > 1] = -1
        self._guide = guide
        return guide

    def __call__(self, u: np.ndarray) -> np.ndarray:
        if len(u) < BATCH_CUTOFF:
            return np.searchsorted(self.cum, u, side="right")
        guide = self._guide if self._guide is not None else self._build()
        idx = guide[(u * len(guide)).astype(np.intp)]
        idx += self.cum[idx] <= u  # at -1, cum[-1] >= 1 > u adds nothing
        miss = np.flatnonzero(idx < 0)
        if miss.size:
            idx[miss] = np.searchsorted(self.cum, u[miss], side="right")
        return idx


class WeightedSupport:
    """Distinct outcomes with weights in (0, 1] that sum to 1.  Validation,
    the cumulative weights and index sampling live here.  A subclass names
    its outcomes and defines `_check(n, item)`, which rejects a malformed
    item and returns (item as stored, its mass-table key)."""

    __slots__ = ("n", "outcomes", "weights", "_search", "_mass")
    _noun = "outcomes"

    def __init__(self, n: int, entries):
        outcomes = []
        weights = []
        mass = {}
        for item, w in entries:
            item, key = self._check(n, item)
            if not 0 < w <= 1 + WEIGHT_TOL:
                raise ValueError("weights must lie in (0,1]")
            if key in mass:
                raise ValueError(f"{self._noun} must be distinct")
            w = float(w)
            outcomes.append(item)
            weights.append(w)
            mass[key] = w
        if not outcomes:
            raise ValueError(EMPTY_SUPPORT)
        total = sum(weights)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights sum to {total}, not 1")
        self.n = n
        self.outcomes = outcomes
        self.weights = np.asarray(weights)
        cum = np.cumsum(self.weights)
        cum[-1] = 1.0
        self._search = GuidedSearch(cum)
        self._mass = mass

    @staticmethod
    def _uniform_entries(items) -> list:
        items = list(items)
        if not items:
            raise ValueError(EMPTY_SUPPORT)
        w = 1.0 / len(items)
        return [(x, w) for x in items]

    def support(self) -> list:
        return list(self.outcomes)

    def sample_indices(self, rng: SeededRng, m: int) -> np.ndarray:
        return self._search(rng.random_block(m))


class FiniteDistribution(WeightedSupport):
    """Explicit finite-support distribution over n-bit strings."""

    __slots__ = ()
    _noun = "atoms"

    @staticmethod
    def _check(n: int, x: BitString):
        if x.n != n:
            raise ValueError("atom width mismatch")
        return x, x.v

    @classmethod
    def point_mass(cls, x: BitString) -> "FiniteDistribution":
        return cls(x.n, [(x, 1.0)])

    @classmethod
    def uniform(cls, strings) -> "FiniteDistribution":
        entries = cls._uniform_entries(strings)
        return cls(entries[0][0].n, entries)

    @property
    def atoms(self) -> list[BitString]:
        return self.outcomes

    def mass(self, x: BitString) -> float:
        return self._mass.get(x.v, 0.0)


def xor_shift(d: FiniteDistribution, r: BitString) -> FiniteDistribution:
    """The distribution placing d's weight of x on x xor r."""
    if d.n != r.n:
        raise ValueError("width mismatch")
    return FiniteDistribution(d.n, [(bit_xor(x, r), w) for x, w in zip(d.atoms, d.weights)])


class PairDistribution(WeightedSupport):
    """Distribution over unordered pairs {u,v} of distinct indices in [1..n]."""

    __slots__ = ("_ends",)
    _noun = "pairs"

    def __init__(self, n: int, entries):
        super().__init__(n, entries)
        self._ends = None

    @staticmethod
    def _check(n: int, pair):
        u, v = pair
        if not (isinstance(u, int) and isinstance(v, int)) or u == v \
                or not (1 <= u <= n and 1 <= v <= n):
            raise ValueError("pair must be two distinct indices in [1..n]")
        pair = (u, v) if u < v else (v, u)
        return pair, pair

    @classmethod
    def uniform(cls, n: int, pairs) -> "PairDistribution":
        return cls(n, cls._uniform_entries(pairs))

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return self.outcomes

    def endpoints(self) -> np.ndarray:
        """The pairs as a (pairs, 2) array of the narrowest unsigned type that
        holds n, built on first use."""
        if self._ends is None:
            self._ends = np.array(self.outcomes, dtype=np.min_scalar_type(self.n))
        return self._ends

    def mass(self, u: int, v: int) -> float:
        if u > v:
            u, v = v, u
        return self._mass.get((u, v), 0.0)

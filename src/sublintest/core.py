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

    def is_zero(self) -> bool:
        return self.v == 0

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
        """In-place Fisher-Yates; returns the list for chaining."""
        for i in range(len(items) - 1, 0, -1):
            j = int(self._gen.integers(0, i + 1))
            items[i], items[j] = items[j], items[i]
        return items

    def permutation(self, n: int) -> tuple[int, ...]:
        """Uniform permutation of [1..n], as the tuple (pi(1),...,pi(n))."""
        items = list(range(1, n + 1))
        self.shuffle(items)
        return tuple(items)


class FiniteDistribution:
    """Explicit finite-support distribution over n-bit strings."""

    __slots__ = ("n", "atoms", "weights", "_cum", "_mass")

    def __init__(self, n: int, pairs):
        atoms = []
        weights = []
        seen = set()
        for x, w in pairs:
            if x.n != n:
                raise ValueError("atom width mismatch")
            if not 0 < w <= 1 + WEIGHT_TOL:
                raise ValueError("weights must lie in (0,1]")
            if x.v in seen:
                raise ValueError("atoms must be distinct")
            seen.add(x.v)
            atoms.append(x)
            weights.append(float(w))
        total = sum(weights)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights sum to {total}, not 1")
        self.n = n
        self.atoms = atoms
        self.weights = np.asarray(weights)
        self._cum = np.cumsum(self.weights)
        self._cum[-1] = 1.0
        self._mass = {a.v: w for a, w in zip(atoms, weights)}

    @classmethod
    def point_mass(cls, x: BitString) -> "FiniteDistribution":
        return cls(x.n, [(x, 1.0)])

    @classmethod
    def uniform(cls, strings) -> "FiniteDistribution":
        strings = list(strings)
        w = 1.0 / len(strings)
        return cls(strings[0].n, [(x, w) for x in strings])

    def support(self) -> list[BitString]:
        return list(self.atoms)

    def mass(self, x: BitString) -> float:
        return self._mass.get(x.v, 0.0)

    def index_of(self, u: float) -> int:
        return min(int(np.searchsorted(self._cum, u, side="right")), len(self.atoms) - 1)

    def sample_indices(self, rng: SeededRng, m: int) -> np.ndarray:
        u = rng.random_block(m)
        idx = np.searchsorted(self._cum, u, side="right")
        np.clip(idx, 0, len(self.atoms) - 1, out=idx)
        return idx


def sample(d: FiniteDistribution, rng: SeededRng) -> BitString:
    """One unweighted-ledger draw from d (samplers in oracles.py charge ledgers)."""
    return d.atoms[d.index_of(rng.random())]


def xor_shift(d: FiniteDistribution, r: BitString) -> FiniteDistribution:
    """The distribution placing d's weight of x on x xor r."""
    if d.n != r.n:
        raise ValueError("width mismatch")
    return FiniteDistribution(d.n, [(bit_xor(x, r), w) for x, w in zip(d.atoms, d.weights)])


class PairDistribution:
    """Distribution over unordered pairs {u,v} of distinct indices in [1..n]."""

    __slots__ = ("n", "pairs", "weights", "_cum", "_mass")

    def __init__(self, n: int, entries):
        pairs = []
        weights = []
        seen = set()
        for (u, v), w in entries:
            if u == v or not (1 <= u <= n and 1 <= v <= n):
                raise ValueError("pair must be two distinct indices in [1..n]")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise ValueError("pairs must be distinct")
            if not 0 < w <= 1 + WEIGHT_TOL:
                raise ValueError("weights must lie in (0,1]")
            seen.add((u, v))
            pairs.append((u, v))
            weights.append(float(w))
        total = sum(weights)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights sum to {total}, not 1")
        self.n = n
        self.pairs = pairs
        self.weights = np.asarray(weights)
        self._cum = np.cumsum(self.weights)
        self._cum[-1] = 1.0
        self._mass = {p: w for p, w in zip(pairs, weights)}

    @classmethod
    def uniform(cls, n: int, pairs) -> "PairDistribution":
        pairs = list(pairs)
        w = 1.0 / len(pairs)
        return cls(n, [(p, w) for p in pairs])

    def support(self) -> list[tuple[int, int]]:
        return list(self.pairs)

    def mass(self, u: int, v: int) -> float:
        if u > v:
            u, v = v, u
        return self._mass.get((u, v), 0.0)

    def index_of(self, u: float) -> int:
        return min(int(np.searchsorted(self._cum, u, side="right")), len(self.pairs) - 1)

    def sample_indices(self, rng: SeededRng, m: int) -> np.ndarray:
        u = rng.random_block(m)
        idx = np.searchsorted(self._cum, u, side="right")
        np.clip(idx, 0, len(self.pairs) - 1, out=idx)
        return idx


class VertexMarginal:
    """The vertex marginal of a pair distribution: mass(i) = half the total
    mass of pairs containing i.  Sampling draws a pair, then one endpoint
    uniformly, which realizes the marginal exactly."""

    __slots__ = ("n", "weights", "pair_dist")

    def __init__(self, d: PairDistribution):
        w = np.zeros(d.n)
        for (u, v), p in zip(d.pairs, d.weights):
            w[u - 1] += 0.5 * p
            w[v - 1] += 0.5 * p
        self.n = d.n
        self.weights = w
        self.pair_dist = d

    def mass(self, i: int) -> float:
        return float(self.weights[i - 1])


def vertex_marginal(d: PairDistribution) -> VertexMarginal:
    return VertexMarginal(d)

"""Query-counted black-box access to functions, comparisons and samplers.

Every trial owns exactly one QueryLedger.  The function/comparison oracles
and the sampling handles all charge the same ledger, so the per-trial cost
report is just the ledger's two counters.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import BATCH_CUTOFF, BitString, SeededRng, WeightedSupport, bit_xor


class BudgetExhausted(RuntimeError):
    """Raised when a charge would push the query count past its budget."""


class PreconditionViolated(ValueError):
    """Raised when a caller-checked precondition fails on re-verification."""


class QueryLedger:
    __slots__ = ("function_queries", "samples_drawn", "query_budget")

    def __init__(self, query_budget: int | None = None):
        if query_budget is not None and query_budget < 0:
            raise ValueError("a budget must not be negative")
        self.function_queries = 0
        self.samples_drawn = 0
        self.query_budget = query_budget

    def charge_queries(self, c: int = 1):
        if self.query_budget is not None and self.function_queries + c > self.query_budget:
            self.function_queries = self.query_budget
            raise BudgetExhausted("function query budget exhausted")
        self.function_queries += c

    def repeat(self, cost: int, times: int = 1):
        """Charge for asking again, times over, queries whose answers are
        already known and which cost `cost` when they were asked.  One charge,
        and none of 0, leaves the ledger where the repeats would, also when
        it runs out of budget."""
        c = cost * times
        if c:
            self.charge_queries(c)

    def replay(self, cache: dict, key, compute, *args):
        """compute(*args), a deterministic procedure, through cache under key: a
        miss keeps the result with the queries it charged, and a hit repeats
        that cost, so the ledger is the one repeated calls would leave."""
        hit = cache.get(key)
        if hit is not None:
            res, cost = hit
            self.repeat(cost)
            return res
        before = self.function_queries
        res = compute(*args)
        cache[key] = (res, self.function_queries - before)
        return res

    def charge_samples(self, c: int = 1):
        self.samples_drawn += c

    def snapshot(self) -> tuple[int, int]:
        return (self.function_queries, self.samples_drawn)


@dataclass
class Verdict:
    """Tester outcome plus the ledger cost attributable to that run and, on
    rejection, the structured evidence that triggered it."""

    decision: str  # "accept" | "reject"
    witness: tuple | None = None
    queries: int = 0
    samples: int = 0

    @property
    def accepted(self) -> bool:
        return self.decision == "accept"

    @property
    def rejected(self) -> bool:
        return self.decision == "reject"


class Memo(dict):
    """Answers by key; a miss computes the answer and keeps it while fewer
    than cap are stored.  A hit through __getitem__ runs no Python frame."""

    __slots__ = ("compute", "cap")

    def __init__(self, compute, cap: float = math.inf):
        self.compute = compute
        self.cap = cap

    def __missing__(self, key):
        out = self.compute(key)
        if len(self) < self.cap:
            self[key] = out
        return out


def accounted(tester):
    """Decorate a tester whose first argument is its oracle: the returned
    Verdict's queries and samples become what the call charged to that
    oracle's ledger."""

    @functools.wraps(tester)
    def run(oracle, *args, **kwargs) -> Verdict:
        before = oracle.ledger.snapshot()
        out = tester(oracle, *args, **kwargs)
        after = oracle.ledger.snapshot()
        out.queries = after[0] - before[0]
        out.samples = after[1] - before[1]
        return out

    return run


class FunctionOracle:
    """Black-box boolean function; every evaluation charges one query."""

    __slots__ = ("n", "target", "ledger")

    def __init__(self, n: int, target, ledger: QueryLedger | None = None):
        # target maps the raw backing integer of an n-bit string to 0/1
        self.n = n
        self.target = target
        self.ledger = ledger if ledger is not None else QueryLedger()

    def query(self, x: BitString) -> int:
        if x.n != self.n:
            raise ValueError("query width mismatch")
        return self.query_raw(x.v)

    def query_raw(self, v: int) -> int:
        self.ledger.charge_queries()
        return self.target(v)


class ComparisonOracle:
    """Black-box comparison over [1..n].

    Orientation rule: u precedes v iff target(u, v) when u < v, and iff
    not target(v, u) when u > v; so both query directions agree.  `less`
    applies it per query; the ordering tester's sort and search passes
    apply it inline to cmp.target and charge each pass's count at once."""

    __slots__ = ("n", "target", "ledger")

    def __init__(self, n: int, target, ledger: QueryLedger | None = None):
        self.n = n
        self.target = target
        self.ledger = ledger if ledger is not None else QueryLedger()

    def less(self, u: int, v: int) -> bool:
        """True iff u precedes v.  Charges one query."""
        if u == v:
            raise PreconditionViolated("comparison requires distinct indices")
        if not (1 <= u <= self.n and 1 <= v <= self.n):
            raise ValueError("index out of range")
        self.ledger.charge_queries()
        if u < v:
            return bool(self.target(u, v))
        return not self.target(v, u)


def _distinct(keys: np.ndarray) -> list[int]:
    """dict.fromkeys(keys): the distinct keys in first-occurrence order.  A
    batch of BATCH_CUTOFF keys or more finds each key's first position with
    one np.minimum.at over the key range and keeps the keys at those
    positions."""
    m = len(keys)
    if m < BATCH_CUTOFF:
        return list(dict.fromkeys(keys.tolist()))
    first = np.full(int(keys.max()) + 1, m, dtype=np.intp)
    np.minimum.at(first, keys, np.arange(m))
    is_first = np.zeros(m + 1, dtype=bool)  # slot m takes the keys never drawn
    is_first[first] = True
    return keys[is_first[:m]].tolist()


class SupportSampler:
    """Sampling handle over a WeightedSupport; each drawn outcome charges one
    sample to the ledger.  Batches are drawn as an array of int keys, which
    are deduplicated and counted as arrays, and then mapped to the outcomes
    they name."""

    __slots__ = ("dist", "rng", "ledger")

    def __init__(self, dist: WeightedSupport, rng: SeededRng, ledger: QueryLedger):
        self.dist = dist
        self.rng = rng
        self.ledger = ledger

    def draw(self):
        return self.draw_list(1)[0]

    def draw_list(self, m: int) -> list:
        self.ledger.charge_samples(m)
        return self._outcomes(self._keys(m).tolist())

    def draw_counts(self, m: int) -> list[tuple]:
        """m charged draws as (outcome, multiplicity) pairs in first-occurrence
        order; the rng moves exactly as in draw_list(m)."""
        self.ledger.charge_samples(m)
        keys = self._keys(m)
        distinct = _distinct(keys)
        return list(zip(self._outcomes(distinct), np.bincount(keys)[distinct].tolist()))

    def draw_set(self, m: int) -> list:
        """m charged draws, deduplicated in first-occurrence order."""
        self.ledger.charge_samples(m)
        return self._outcomes(_distinct(self._keys(m)))

    def _keys(self, m: int) -> np.ndarray:
        """m uncharged draws, as support indices."""
        return self.dist.sample_indices(self.rng, m)

    def _outcomes(self, keys) -> list:
        outcomes = self.dist.outcomes
        return [outcomes[i] for i in keys]


class DistSampler(SupportSampler):
    """Sampling handle over a FiniteDistribution."""

    __slots__ = ()

    def draw_set(self, m: int) -> list[BitString]:
        """As SupportSampler.draw_set, except that for very large batches only
        the hit counts are sampled (the resulting set has exactly the right
        distribution) and the set comes back in atom order."""
        if m > (1 << 16) and m > 4 * len(self.dist.atoms):
            self.ledger.charge_samples(m)
            counts = self.rng.multinomial(m, self.dist.weights)
            return self._outcomes(np.flatnonzero(counts).tolist())
        return super().draw_set(m)

    def shifted(self, r: BitString) -> "ShiftedSampler":
        return ShiftedSampler(self, r)


class ShiftedSampler(DistSampler):
    """Lazy xor-shift of a base sampler: draws x from the base's distribution,
    rng and ledger and returns x xor r, which samples the shifted
    distribution exactly.  Each shifted atom is built on its first draw and
    then reused."""

    __slots__ = ("r", "_atoms")

    def __init__(self, base: DistSampler, r: BitString):
        super().__init__(base.dist, base.rng, base.ledger)
        self.r = r
        atoms = base.dist.atoms
        self._atoms = Memo(lambda i: BitString(atoms[i].n, atoms[i].v ^ r.v))

    def shifted(self, r: BitString) -> "ShiftedSampler":
        return ShiftedSampler(self, bit_xor(self.r, r))

    def _outcomes(self, keys) -> list[BitString]:
        atoms = self._atoms
        return [atoms[i] for i in keys]


class PairSampler(SupportSampler):
    """Sampling handle over a PairDistribution."""

    __slots__ = ()


class MarginalSampler(SupportSampler):
    """Vertex marginal of a PairDistribution, mass(i) = half the mass of the
    pairs containing i: draws a pair, then one endpoint uniformly.  Each draw
    charges one sample."""

    __slots__ = ()

    def _keys(self, m: int) -> np.ndarray:
        """m uncharged draws, as vertices."""
        idx = super()._keys(m)
        return self.dist.endpoints()[idx, self.rng.integer_block(0, 2, m)]

    def _outcomes(self, keys: list[int]) -> list[int]:
        return keys

"""Query-counted black-box access to functions, comparisons and samplers.

Every trial owns exactly one QueryLedger.  The function/comparison oracles
and the sampling handles all charge the same ledger, so the per-trial cost
report is just the ledger's two counters.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import BitString, SeededRng, WeightedSupport


class BudgetExhausted(RuntimeError):
    """Raised when an access would push a counter past its budget ceiling."""


class PreconditionViolated(ValueError):
    """Raised when a caller-checked precondition fails on re-verification."""


class QueryLedger:
    __slots__ = ("function_queries", "samples_drawn", "query_budget", "sample_budget")

    def __init__(self, query_budget: int | None = None, sample_budget: int | None = None):
        self.function_queries = 0
        self.samples_drawn = 0
        self.query_budget = query_budget
        self.sample_budget = sample_budget

    def charge_queries(self, c: int = 1):
        if self.query_budget is not None and self.function_queries + c > self.query_budget:
            self.function_queries = self.query_budget
            raise BudgetExhausted("function query budget exhausted")
        self.function_queries += c

    def charge_samples(self, c: int = 1):
        if self.sample_budget is not None and self.samples_drawn + c > self.sample_budget:
            self.samples_drawn = self.sample_budget
            raise BudgetExhausted("sample budget exhausted")
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
        self.ledger.charge_queries()
        return self.target(x.v)

    def query_raw(self, v: int) -> int:
        self.ledger.charge_queries()
        return self.target(v)


class ComparisonOracle:
    """Black-box comparison over [1..n]; target(u, v) with u < v tells whether
    u precedes v, which fixes both query directions consistently."""

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


class SupportSampler:
    """Sampling handle over a WeightedSupport; each drawn outcome charges one
    sample to the ledger.  Batches are drawn as int keys, which are cheap to
    deduplicate, and then mapped to the outcomes they name."""

    __slots__ = ("dist", "rng", "ledger")

    def __init__(self, dist: WeightedSupport, rng: SeededRng, ledger: QueryLedger):
        self.dist = dist
        self.rng = rng
        self.ledger = ledger

    def draw(self):
        self.ledger.charge_samples()
        return self.dist.outcomes[self.dist.index_of(self.rng.random())]

    def draw_list(self, m: int) -> list:
        self.ledger.charge_samples(m)
        return self._outcomes(self._keys(m))

    def draw_counts(self, m: int) -> list[tuple]:
        """m charged draws as (outcome, multiplicity) pairs in first-occurrence
        order; the rng moves exactly as in draw_list(m)."""
        self.ledger.charge_samples(m)
        counts = Counter(self._keys(m))
        return list(zip(self._outcomes(counts), counts.values()))

    def draw_set(self, m: int) -> list:
        """m charged draws, deduplicated in first-occurrence order."""
        self.ledger.charge_samples(m)
        return self._outcomes(dict.fromkeys(self._keys(m)))

    def _keys(self, m: int) -> list[int]:
        """m uncharged draws, as support indices."""
        return self.dist.sample_indices(self.rng, m).tolist()

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
        atoms = self.dist.atoms
        if m > (1 << 16) and m > 4 * len(atoms):
            self.ledger.charge_samples(m)
            counts = self.rng.multinomial(m, self.dist.weights)
            return [atoms[i] for i in np.flatnonzero(counts)]
        return super().draw_set(m)

    def shifted(self, r: BitString) -> "ShiftedSampler":
        return ShiftedSampler(self, r)


class ShiftedSampler:
    """Lazy xor-shift of a base sampler: draws x from the base and returns
    x xor r, which samples the shifted distribution exactly."""

    __slots__ = ("base", "r", "ledger")

    def __init__(self, base, r: BitString):
        self.base = base
        self.r = r
        self.ledger = base.ledger

    def draw(self) -> BitString:
        x = self.base.draw()
        return BitString(x.n, x.v ^ self.r.v)

    def draw_list(self, m: int) -> list[BitString]:
        rv = self.r.v
        return [BitString(x.n, x.v ^ rv) for x in self.base.draw_list(m)]

    def draw_set(self, m: int) -> list[BitString]:
        rv = self.r.v
        return [BitString(x.n, x.v ^ rv) for x in self.base.draw_set(m)]

    def draw_counts(self, m: int) -> list[tuple[BitString, int]]:
        """As the base's draw_counts; only the distinct atoms are shifted."""
        rv = self.r.v
        return [(BitString(x.n, x.v ^ rv), c) for x, c in self.base.draw_counts(m)]


class PairSampler(SupportSampler):
    """Sampling handle over a PairDistribution."""

    __slots__ = ()


class MarginalSampler(SupportSampler):
    """Vertex marginal of a PairDistribution, mass(i) = half the mass of the
    pairs containing i: draws a pair, then one endpoint uniformly.  Each draw
    charges one sample."""

    __slots__ = ()

    def draw(self) -> int:
        u, v = super().draw()
        return u if self.rng.coin() == 0 else v

    def _keys(self, m: int) -> list[int]:
        """m uncharged draws, as vertices."""
        pairs = self.dist.pairs
        idx = super()._keys(m)
        coins = self.rng.integer_block(0, 2, m).tolist()
        return [pairs[i][c] for i, c in zip(idx, coins)]

    def _outcomes(self, keys) -> list[int]:
        return list(keys)

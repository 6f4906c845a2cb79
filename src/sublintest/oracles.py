"""Query-counted black-box access to functions, comparisons and samplers.

Every trial owns exactly one QueryLedger.  The function/comparison oracles
and the sampling handles all charge the same ledger, so the per-trial cost
report is just the ledger's two counters.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import BitString, FiniteDistribution, PairDistribution, SeededRng, VertexMarginal


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


def _dedupe_first_occurrence(idx: np.ndarray) -> np.ndarray:
    _, first = np.unique(idx, return_index=True)
    return idx[np.sort(first)]


class DistSampler:
    """Sampling handle over a FiniteDistribution; every draw charges the ledger."""

    __slots__ = ("dist", "rng", "ledger")

    def __init__(self, dist: FiniteDistribution, rng: SeededRng, ledger: QueryLedger):
        self.dist = dist
        self.rng = rng
        self.ledger = ledger

    def draw(self) -> BitString:
        self.ledger.charge_samples()
        return self.dist.atoms[self.dist.index_of(self.rng.random())]

    def draw_list(self, m: int) -> list[BitString]:
        self.ledger.charge_samples(m)
        idx = self.dist.sample_indices(self.rng, m)
        atoms = self.dist.atoms
        return [atoms[i] for i in idx]

    def draw_set(self, m: int) -> list[BitString]:
        """m charged draws, deduplicated.  Small batches keep first-occurrence
        order; for very large batches only the hit counts are sampled (the
        resulting set has exactly the right distribution) and the set comes
        back in atom order."""
        self.ledger.charge_samples(m)
        atoms = self.dist.atoms
        if m > (1 << 16) and m > 4 * len(atoms):
            counts = self.rng.multinomial(m, self.dist.weights)
            return [atoms[i] for i in np.flatnonzero(counts)]
        idx = self.dist.sample_indices(self.rng, m)
        return [atoms[i] for i in _dedupe_first_occurrence(idx)]

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

    def shifted(self, r: BitString) -> "ShiftedSampler":
        return ShiftedSampler(self, r)


class PairSampler:
    """Sampling handle over a PairDistribution."""

    __slots__ = ("dist", "rng", "ledger")

    def __init__(self, dist: PairDistribution, rng: SeededRng, ledger: QueryLedger):
        self.dist = dist
        self.rng = rng
        self.ledger = ledger

    def draw(self) -> tuple[int, int]:
        self.ledger.charge_samples()
        return self.dist.pairs[self.dist.index_of(self.rng.random())]

    def draw_list(self, m: int) -> list[tuple[int, int]]:
        self.ledger.charge_samples(m)
        idx = self.dist.sample_indices(self.rng, m)
        pairs = self.dist.pairs
        return [pairs[i] for i in idx]

    def draw_set(self, m: int) -> list[tuple[int, int]]:
        self.ledger.charge_samples(m)
        idx = self.dist.sample_indices(self.rng, m)
        pairs = self.dist.pairs
        return [pairs[i] for i in _dedupe_first_occurrence(idx)]


class MarginalSampler:
    """Vertex-marginal handle: draws a pair from the underlying distribution
    then one endpoint uniformly.  Each draw charges one sample."""

    __slots__ = ("marginal", "rng", "ledger")

    def __init__(self, marginal: VertexMarginal, rng: SeededRng, ledger: QueryLedger):
        self.marginal = marginal
        self.rng = rng
        self.ledger = ledger

    def draw(self) -> int:
        self.ledger.charge_samples()
        d = self.marginal.pair_dist
        u, v = d.pairs[d.index_of(self.rng.random())]
        return u if self.rng.coin() == 0 else v

    def draw_list(self, m: int) -> list[int]:
        self.ledger.charge_samples(m)
        d = self.marginal.pair_dist
        idx = d.sample_indices(self.rng, m)
        coins = self.rng.integer_block(0, 2, m)
        pairs = d.pairs
        return [pairs[i][c] for i, c in zip(idx, coins)]

    def draw_set(self, m: int) -> list[int]:
        drawn = self.draw_list(m)
        seen = set()
        out = []
        for x in drawn:
            if x not in seen:
                seen.add(x)
                out.append(x)
        return out

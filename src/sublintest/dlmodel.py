"""Decision-list semantics: evaluation, firing index, and the queryable
dominance relation between strings of opposite value."""

from __future__ import annotations

import numpy as np

from .core import BitString, SeededRng, bit_or
from .oracles import FunctionOracle, PreconditionViolated

_INT_SCAN_CUTOFF = 32


class MonotoneDLRep:
    """Monotone decision list (pi, nu): rules are positive literals in priority
    order pi, rule j outputs nu[j], default nu[n+1]."""

    __slots__ = ("n", "pi", "nu", "_rank_list", "_rank_arr", "_nbytes")

    def __init__(self, n: int, pi, nu):
        pi = tuple(pi)
        nu = tuple(int(b) for b in nu)
        if sorted(pi) != list(range(1, n + 1)):
            raise ValueError("pi must be a permutation of [1..n]")
        if len(nu) != n + 1:
            raise ValueError("nu must have length n+1")
        self.n = n
        self.pi = pi
        self.nu = nu
        rank = [0] * n  # rank of variable i (0-based position in the priority order)
        for j, var in enumerate(pi):
            rank[var - 1] = j
        self._rank_list = rank
        self._rank_arr = np.asarray(rank, dtype=np.int32)
        self._nbytes = (n + 7) // 8

    def min_rank_raw(self, v: int) -> int:
        """0-based rank of the firing rule; n when nothing fires."""
        n = self.n
        if v == 0:
            return n
        if v.bit_count() <= _INT_SCAN_CUTOFF:
            best = n
            rank = self._rank_list
            while v:
                lsb = v & -v
                r = rank[lsb.bit_length() - 1]
                if r < best:
                    best = r
                v ^= lsb
            return best
        buf = np.frombuffer(v.to_bytes(self._nbytes, "little"), dtype=np.uint8)
        bits = np.unpackbits(buf, bitorder="little", count=n)
        return int(self._rank_arr[bits != 0].min())

    def target(self):
        """Raw evaluation closure for a FunctionOracle."""
        nu = self.nu
        min_rank = self.min_rank_raw
        return lambda v: nu[min_rank(v)]


class GeneralDLRep:
    """Decision list (pi, mu, nu): rule j fires on x when x agrees with mu at
    variable pi(j)."""

    __slots__ = ("n", "pi", "mu", "nu", "_mono", "_mu_v", "_mask")

    def __init__(self, n: int, pi, mu, nu):
        mu = tuple(int(b) for b in mu)
        if len(mu) != n:
            raise ValueError("mu must have length n")
        self.n = n
        self.mu = mu
        self._mono = MonotoneDLRep(n, pi, nu)
        self.pi = self._mono.pi
        self.nu = self._mono.nu
        self._mu_v = sum(b << i for i, b in enumerate(mu))
        self._mask = (1 << n) - 1

    def min_rank_raw(self, v: int) -> int:
        # rule j fires iff bit pi(j) of x matches mu, i.e. the complement of
        # x xor mu has that bit set
        match = (v ^ self._mu_v) ^ self._mask
        return self._mono.min_rank_raw(match)

    def target(self):
        nu = self.nu
        min_rank = self.min_rank_raw
        return lambda v: nu[min_rank(v)]


def min_index(rep, x: BitString) -> int:
    """1-based firing position in [1..n+1] (n+1 when no rule fires)."""
    if x.n != rep.n:
        raise ValueError("width mismatch")
    return rep.min_rank_raw(x.v) + 1


def eval_mdl(rep: MonotoneDLRep, x: BitString) -> int:
    if x.n != rep.n:
        raise ValueError("width mismatch")
    return rep.nu[rep.min_rank_raw(x.v)]


def eval_dl(rep: GeneralDLRep, x: BitString) -> int:
    if x.n != rep.n:
        raise ValueError("width mismatch")
    return rep.nu[rep.min_rank_raw(x.v)]


def monotonize(rep: GeneralDLRep) -> tuple[MonotoneDLRep, BitString]:
    """(g, r) with g a monotone list such that rep(x) = g(x xor r) for all x;
    r is the unique string matching no rule (the complement of mu)."""
    r = BitString(rep.n, rep._mu_v ^ rep._mask)
    return MonotoneDLRep(rep.n, rep.pi, rep.nu), r


def dominates(f: FunctionOracle, x: BitString, y: BitString) -> bool:
    """True iff x's firing rule outranks y's, decided by querying f(x or y).

    Re-verifies the f(x) != f(y) precondition with two queries rather than
    trusting the caller; costs exactly 3 queries on the happy path.
    """
    fx = f.query(x)
    fy = f.query(y)
    if fx == fy:
        raise PreconditionViolated("dominance needs strings of opposite value")
    return f.query(bit_or(x, y)) == fx


def random_mdl(n: int, rng: SeededRng) -> MonotoneDLRep:
    pi = rng.permutation(n)
    nu = [rng.coin() for _ in range(n + 1)]
    return MonotoneDLRep(n, pi, nu)


def random_dl(n: int, rng: SeededRng) -> GeneralDLRep:
    pi = rng.permutation(n)
    mu = [rng.coin() for _ in range(n)]
    nu = [rng.coin() for _ in range(n + 1)]
    return GeneralDLRep(n, pi, mu, nu)


def table_target(bits):
    """Truth-table closure: bits[v] is the value on the string with backing
    integer v.  Only sensible for small widths."""
    bits = list(bits)
    return lambda v: bits[v]

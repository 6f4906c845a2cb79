"""Decision-list semantics: evaluation, firing index, and the queryable
dominance relation between strings of opposite value."""

from __future__ import annotations

from .core import BitString, SeededRng, bit_or, check_permutation
from .oracles import FunctionOracle, PreconditionViolated

# a string with at most this many set bits is scanned bit by bit from its
# highest (two big-int allocations a bit), which up to here costs less than the
# prefix-table search (8, 12 and 16 time alike on the MDL tester's queries); a
# wider one first narrows to one block of the table
_INT_SCAN_CUTOFF = 8
_BLOCK = 16  # ranks per block of MonotoneDLRep's prefix table


def _bits(values, length: int, name: str) -> tuple:
    """values as a tuple of ints, after checking that it holds length bits."""
    out = tuple(int(b) for b in values)
    if len(out) != length or not set(out) <= {0, 1}:
        raise ValueError(f"{name} must hold {length} values in {{0, 1}}")
    return out


class MonotoneDLRep:
    """Monotone decision list (pi, nu): rules are positive literals in priority
    order pi, rule j outputs nu[j], default nu[n+1]."""

    __slots__ = ("n", "pi", "nu", "_rank_list", "_prefix")

    def __init__(self, n: int, pi, nu):
        pi = check_permutation(pi, n, "pi")
        nu = _bits(nu, n + 1, "nu")
        self.n = n
        self.pi = pi
        self.nu = nu
        rank = [0] * n  # rank of variable i (0-based position in the priority order)
        for j, var in enumerate(pi):
            rank[var - 1] = j
        self._rank_list = rank
        self._prefix = None

    def _prefix_table(self) -> list[int]:
        """_prefix[k] is the OR of the variables at ranks below k * _BLOCK, for
        k = 0..ceil(n / _BLOCK); built on the first wide evaluation."""
        pi = self.pi
        table = [0]
        acc = 0
        for start in range(0, self.n, _BLOCK):
            for var in pi[start:start + _BLOCK]:
                acc |= 1 << (var - 1)
            table.append(acc)
        self._prefix = table
        return table

    def min_rank_raw(self, v: int) -> int:
        """0-based rank of the firing rule; n when nothing fires: the least rank
        among v's set bits, scanned from the highest bit down once a string
        wider than _INT_SCAN_CUTOFF bits is narrowed to one prefix-table block."""
        if v.bit_count() > _INT_SCAN_CUTOFF:
            # binary search for the first block whose prefix meets v, then keep
            # only v's bits in that block: O(log(n / _BLOCK)) big-int ANDs
            prefix = self._prefix or self._prefix_table()
            lo, hi = 1, len(prefix) - 1
            while lo < hi:
                mid = (lo + hi) >> 1
                if prefix[mid] & v:
                    hi = mid
                else:
                    lo = mid + 1
            v &= prefix[lo]
        best = self.n
        rank = self._rank_list
        while v:
            top = v.bit_length() - 1
            r = rank[top]
            if r < best:
                best = r
            v ^= 1 << top
        return best

    def target(self):
        """Raw evaluation closure for a FunctionOracle."""
        nu = self.nu
        min_rank = self.min_rank_raw
        return lambda v: nu[min_rank(v)]


class GeneralDLRep:
    """Decision list (pi, mu, nu): rule j fires on x when x agrees with mu at
    variable pi(j)."""

    __slots__ = ("n", "pi", "mu", "nu", "_mono", "_flip")

    def __init__(self, n: int, pi, mu, nu):
        mu = _bits(mu, n, "mu")
        self.n = n
        self.mu = mu
        self._mono = MonotoneDLRep(n, pi, nu)
        self.pi = self._mono.pi
        self.nu = self._mono.nu
        # the complement of mu: rule j fires iff bit pi(j) of x xor _flip is set
        self._flip = sum((1 - b) << i for i, b in enumerate(mu))

    def min_rank_raw(self, v: int) -> int:
        return self._mono.min_rank_raw(v ^ self._flip)

    target = MonotoneDLRep.target


def min_index(rep, x: BitString) -> int:
    """1-based firing position in [1..n+1] (n+1 when no rule fires)."""
    if x.n != rep.n:
        raise ValueError("width mismatch")
    return rep.min_rank_raw(x.v) + 1


def eval_mdl(rep, x: BitString) -> int:
    """Value of the list rep, monotone or general, on x."""
    return rep.nu[min_index(rep, x) - 1]


def monotonize(rep: GeneralDLRep) -> tuple[MonotoneDLRep, BitString]:
    """(g, r) with g a monotone list such that rep(x) = g(x xor r) for all x;
    r is the unique string matching no rule (the complement of mu)."""
    r = BitString(rep.n, rep._flip)
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

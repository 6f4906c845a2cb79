"""Tester for monotone decision lists: preprocessing and sketching, block
machinery over singletons, highest-priority index extraction, and the five
cycle-pattern sub-testers."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import add, or_
from typing import NamedTuple

from .core import (BitString, FiniteDistribution, SeededRng, ceil_pos, clamped_log2, const,
                   unit)
from .oracles import DistSampler, FunctionOracle, Verdict, accounted


@dataclass(frozen=True)
class MdlConstants:
    delta: float = 1.0 / 6.0
    # per-point partner cap in types 3-5, as a multiple of the small-block bound
    pair_cap_factor: float = const(2.0, "c_paircap")
    t2_factor: float = const(1.0, "c_t2")         # boost for the tiny type-2 first sample set


DEFAULT_MDL = MdlConstants()


class MdlSizes(NamedTuple):
    """Every sample and probe count of one tester run: the stages draw these
    and budget_mdl bounds them."""
    pre: int          # preprocessing sample set
    probes: int       # big-block unit probes
    rounds: int       # big-block growth rounds
    inner: int        # draws per growth round
    block_cap: int    # small-block size bound in max-index
    pair_cap: int     # per-point partner cap in types 3-5
    nil: int          # nil probes
    m1: int           # each type-1 and type-3 sample set
    p2: int           # type-2 first sample set
    q2: int           # type-2 second sample set
    m4: int           # type-4 sample set
    m5: int           # type-5 sample set


def mdl_sizes(n: int, eps: float, c: MdlConstants = DEFAULT_MDL) -> MdlSizes:
    lg = clamped_log2(n)
    return MdlSizes(
        pre=ceil_pos(n ** (1 - c.delta / 2) / eps),
        probes=ceil_pos(n ** (1 - c.delta)),
        rounds=ceil_pos(200.0 / eps),
        inner=ceil_pos((100.0 / eps) * clamped_log2(n / eps)),
        block_cap=ceil_pos(16.0 * (n ** c.delta) * lg / eps),
        pair_cap=ceil_pos(c.pair_cap_factor * 16.0 * (n ** c.delta) * lg / eps),
        nil=ceil_pos(8.0 / eps),
        m1=ceil_pos(8.0 * (n ** 0.5) / eps),
        p2=ceil_pos(c.t2_factor * n ** (c.delta / 2) / (eps * lg * lg)),
        q2=ceil_pos(n ** (1 - c.delta / 2) * lg * lg * lg / eps),
        m4=ceil_pos(8.0 * (n ** (2.0 / 3.0)) / eps),
        m5=ceil_pos(8.0 * (n ** 0.75) / eps))


class MdlSketch:
    """Chain of strings with alternating values, each dominating the next.
    The constructor only stores them: _sketch checks all three properties
    with fresh queries before it builds one."""

    __slots__ = ("strings", "values")

    def __init__(self, strings, values):
        self.strings = list(strings)
        self.values = list(values)

    @property
    def k(self) -> int:
        return len(self.strings)

    def next_of(self, ell: int) -> int:
        """Backing int of the chain element after block ell (0 past the end)."""
        return self.strings[ell].v if ell <= self.k - 1 else 0


class BigBlockSet:
    """Block indices flagged as big, plus their derived neighbor set."""

    __slots__ = ("members", "k")

    def __init__(self, members, k: int):
        self.members = frozenset(members)
        self.k = k

    def neighbors(self) -> frozenset:
        out = set()
        for ell in self.members:
            for nb in (ell - 1, ell + 1):
                if 0 <= nb <= self.k + 1 and nb not in self.members:
                    out.add(nb)
        return frozenset(out)

    def __contains__(self, ell: int) -> bool:
        return ell in self.members


class _OrTree:
    """Binary tree over a fixed string list supporting deletion, k-th alive
    selection and OR over alive-rank ranges, all in O(log m) without
    recursion.  Node i has children 2i and 2i+1; cnt holds each subtree's
    alive count and orv the OR of its alive strings."""

    __slots__ = ("size", "cnt", "orv")

    def __init__(self, values):
        m = len(values)
        size = 1
        while size < m:
            size *= 2
        self.size = size
        pad = [0] * (size - m)
        cnt = self.cnt = [0] * size + [1] * m + pad
        orv = self.orv = [0] * size + list(values) + pad
        i = size
        while i > 1:  # nodes [i/2, i) from their children [i, 2i)
            j = i // 2
            cnt[j:i] = map(add, cnt[i:2 * i:2], cnt[i + 1:2 * i:2])
            orv[j:i] = map(or_, orv[i:2 * i:2], orv[i + 1:2 * i:2])
            i = j

    @property
    def alive(self) -> int:
        return self.cnt[1]

    def or_all(self) -> int:
        return self.orv[1]

    def remove(self, pos: int):
        cnt, orv = self.cnt, self.orv
        i = self.size + pos
        cnt[i] = 0
        orv[i] = 0
        i >>= 1
        while i:
            left = 2 * i
            cnt[i] = cnt[left] + cnt[left + 1]
            orv[i] = orv[left] | orv[left + 1]
            i >>= 1

    def alive_positions(self) -> list[int]:
        """Positions of the alive leaves, in position order."""
        return list(compress(range(self.size), self.cnt[self.size:]))

    def kth_alive(self, k: int) -> int:
        cnt, size = self.cnt, self.size
        node = 1
        while node < size:
            node *= 2
            if k >= cnt[node]:
                k -= cnt[node]
                node += 1
        return node - size

    def or_range(self, a: int, b: int) -> int:
        """OR of alive elements with alive-rank in [a, b), the window clamped
        to [0, alive).  One top-down walk: descend while the window lies in
        one child; at the split node, walk the left child's suffix from rank
        a OR-ing in right siblings, then the right child's prefix up to rank
        b OR-ing in left siblings.  Dead leaves hold 0, so whole subtrees
        can be OR-ed in."""
        cnt, orv = self.cnt, self.orv
        if a < 0:
            a = 0
        if b > cnt[1]:
            b = cnt[1]
        if a >= b:
            return 0
        node = 1
        while True:
            if a == 0 and b == cnt[node]:
                return orv[node]
            left = 2 * node
            lc = cnt[left]
            if b <= lc:
                node = left
            elif a >= lc:
                a -= lc
                b -= lc
                node = left + 1
            else:
                break
        out = 0
        node = left  # suffix [a, lc) of the left child
        while a:
            child = 2 * node
            c = cnt[child]
            if a < c:
                out |= orv[child + 1]
                node = child
            else:
                a -= c
                node = child + 1
        out |= orv[node]
        node = left + 1  # prefix [0, b - lc) of the right child
        b -= lc
        while b < cnt[node]:
            child = 2 * node
            c = cnt[child]
            if b > c:
                out |= orv[child]
                b -= c
                node = child + 1
            else:
                node = child
        return out | orv[node]


def _or_all(vs) -> int:
    out = 0
    for v in vs:
        out |= v
    return out


def _halving(g: FunctionOracle, or_range, c: int, y_v: int, b: int) -> int:
    """Rank that a halving search over ranks 0..c-1 keeps: a window keeps its left
    half when g answers b on or_range(left half) | y_v, else its right half.

    Once a kept half adds nothing to y_v, every later window lies inside it,
    so each later query asks y_v again, answers b and keeps the left half.
    The search returns there and charges those repeats in one sum, each at
    the cost the query of y_v just had."""
    query, ledger = g.query_raw, g.ledger
    a = 0
    while c > 1:
        half = c // 2
        w = or_range(a, a + half) | y_v
        before = ledger.function_queries
        if query(w) == b:
            c = half
            if w == y_v:
                ledger.repeat(ledger.function_queries - before, c.bit_length() - 1)
                return a
        else:
            a += half
            c -= half
    return a


def _rep_search(f: FunctionOracle, vs: list[int], y_v: int) -> int:
    """Halving search returning some v in vs; when the target is a monotone
    list, v's rule outranks every other rule fired in vs or in the union y_v.
    On the run's own sketch, MdlRun._max_index never meets _halving's summed return,
    which needs f(y_v) == b: y_v, the chain element after x's block, has the checked
    value opposite to f(x), while b is f(x), got on the same string by block location
    or the small-block loop just before; past the chain's end y_v is 0, which no
    nonempty half of vs ORs to."""
    b = f.query_raw(_or_all(vs) | y_v)
    return vs[_halving(f, lambda lo, hi: _or_all(vs[lo:hi]), len(vs), y_v, b)]


def _log2_floor_sum(c: int) -> int:
    """Sum of floor(log2 k) over k = 1..c: the queries of halving searches over
    c, c-1, ..., 1 ranks that always keep their left half."""
    lg = c.bit_length() - 1
    return (c + 1) * lg - (1 << (lg + 1)) + 2


def _extract(g: FunctionOracle, vs: list[int], vals: list[int]) -> list[tuple[int, int]]:
    """Order the strings vs (with values vals) by priority, highest first:
    each step queries the union of the alive strings, then halving-searches
    the alive strings of that value for the one whose rule fires on it.  Once
    one value is left, its strings follow in list order.  Returns (backing
    int, value) pairs in extraction order.

    When the other value's strings cover the searched ones, every later query
    is the union again: each search keeps rank 0 and each step leaves the
    union as it was.  The searched strings then follow in list order, and the
    repeats of those steps are charged in one sum."""
    lists = ([v for v, b in zip(vs, vals) if b == 0], [v for v, b in zip(vs, vals) if b == 1])
    trees = (_OrTree(lists[0]), _OrTree(lists[1]))
    query = g.query_raw
    ledger = g.ledger
    extracted = []
    b = 0
    while trees[0].alive and trees[1].alive:
        union_v = trees[0].or_all() | trees[1].or_all()
        before = ledger.function_queries
        b = query(union_v)
        cost = ledger.function_queries - before
        ledger.repeat(cost)  # the halving search's own reference query
        tree = trees[b]
        y_v = trees[1 - b].or_all()
        if union_v == y_v:
            c = tree.alive
            ledger.repeat(cost, _log2_floor_sum(c) + 2 * (c - 1))
            break
        pos = tree.kth_alive(_halving(g, tree.or_range, tree.alive, y_v, b))
        extracted.append((lists[b][pos], b))
        tree.remove(pos)
    for t in (b, 1 - b):  # a covered run's strings first; otherwise one tree is empty
        extracted += [(lists[t][pos], t) for pos in trees[t].alive_positions()]
    return extracted


def _runs(extracted: list[tuple[int, int]]) -> list[tuple[list[int], int]]:
    """Maximal same-value runs of an extraction sequence."""
    runs = []
    for v, b in extracted:
        if runs and runs[-1][1] == b:
            runs[-1][0].append(v)
        else:
            runs.append(([v], b))
    return runs


def sketch_mdl(f: FunctionOracle, T: list[BitString]) -> MdlSketch | None:
    """Extract T in priority order, group into maximal same-value runs, OR
    each run into a chain element, and verify chain consistency.  Returns
    None when verification fails (so the target is not a monotone list)."""
    vals = [f.query(x) for x in T]
    if all(v == 0 for v in vals) or all(v == 1 for v in vals):
        raise ValueError("T must contain strings of both values")
    if any(x.v == 0 for x in T):
        raise ValueError("T must not contain the all-zero string")
    return _sketch(f, T, vals)


def _sketch(f: FunctionOracle, T: list[BitString], vals: list[int]) -> MdlSketch | None:
    """sketch_mdl on T, whose values vals are already known.  Both callers
    hand over a T that holds both values and no zero string, and _extract
    emits each string once, so there are at least two runs and none ORs to 0."""
    strings = [_or_all(members) for members, _ in _runs(_extract(f, [x.v for x in T], vals))]
    checked = [f.query_raw(s) for s in strings]
    for ell in range(len(strings) - 1):
        if checked[ell] == checked[ell + 1]:
            return None
        if f.query_raw(strings[ell] | strings[ell + 1]) != checked[ell]:
            return None
    return MdlSketch([BitString(f.n, s) for s in strings], checked)


def _find_block_ex(f: FunctionOracle, sk: MdlSketch, x: BitString) -> tuple[int, int]:
    """(block index in [0..k+1], f(x)).  The J chain elements of value
    opposite to f(x) sit at positions p, p+2, ..., p+2(J-1); binary search
    for the first whose OR with x takes f(x), probing the first, then the
    last, then bisecting.  The result is its position, or p+2J if none does."""
    fx = f.query_raw(x.v)
    xs = x.v
    strings = sk.strings
    p = 1 if fx == sk.values[0] else 0
    J = (sk.k - p + 1) // 2
    if f.query_raw(strings[p].v | xs) == fx:
        return p, fx
    if J == 1 or f.query_raw(strings[p + 2 * (J - 1)].v | xs) != fx:
        return p + 2 * J, fx
    lo, hi = 0, J - 1  # probe t at position p + 2t; lo does not take f(x), hi does
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if f.query_raw(strings[p + 2 * mid].v | xs) == fx:
            hi = mid
        else:
            lo = mid
    return p + 2 * hi, fx


def _first_per_index(recs, cap: int) -> list[tuple[int, BitString]]:
    """(max index, string) for the first string of recs with each max index,
    the first cap of them."""
    firsts: dict[int, BitString] = {}
    for x, _, _, mi in recs:
        firsts.setdefault(mi, x)
    return list(firsts.items())[:cap]


class MdlRun:
    """One tester run on the sampler it is handed: owns the sketch, the
    big-block set and the replay caches.  Block location and max index are
    cached per input string through QueryLedger.replay, whose hits repeat the
    recorded query count, so ledgers match a cache-free execution exactly."""

    def __init__(self, f: FunctionOracle, sampler, eps: float, rng: SeededRng | None,
                 constants: MdlConstants = DEFAULT_MDL):
        self.f = f
        self.eps = eps
        self.rng = rng
        self.sz = mdl_sizes(f.n, eps, constants)
        self.sampler = sampler
        self.sk: MdlSketch | None = None
        self.L: BigBlockSet | None = None
        self.NL: frozenset = frozenset()
        self._fb_cache: dict[int, tuple[tuple[int, int], int]] = {}
        self._mi_cache: dict[int, tuple[int | None, int]] = {}

    @classmethod
    def from_parts(cls, f, sampler, eps, rng, constants, sk, L):
        run = cls(f, sampler, eps, rng, constants)
        run.sk = sk
        run.L = L
        run.NL = L.neighbors() if L is not None else frozenset()
        return run

    def find_block_ex(self, x: BitString) -> tuple[int, int]:
        return self.f.ledger.replay(self._fb_cache, x.v, _find_block_ex, self.f, self.sk, x)

    def max_index(self, x: BitString) -> int | None:
        """Highest-priority same-value index of x's support, or None when the
        consistency checks fail.  Deterministic."""
        return self.f.ledger.replay(self._mi_cache, x.v, self._max_index, x)

    def _max_index(self, x: BitString) -> int | None:
        f, sk, L = self.f, self.sk, self.L
        n = f.n
        ell, fx = self.find_block_ex(x)
        s_next_v = sk.next_of(ell)
        units = [1 << (i - 1) for i in x.support()]
        if ell in L:
            e = _rep_search(f, units, s_next_v)
            le, fe = self.find_block_ex(BitString(n, e))
            return e.bit_length() if (le == ell and fe == fx) else None
        U = []
        while len(U) < self.sz.block_cap and units:
            if f.query_raw(s_next_v | _or_all(units)) != fx:
                break
            z = _rep_search(f, units, s_next_v)
            U.append(z)
            units.remove(z)
        rest_v = _or_all(units)
        for e in U:
            le, fe = self.find_block_ex(BitString(n, e))
            if le == ell and fe == fx and f.query_raw(e | rest_v) == fx:
                return e.bit_length()
        return None

    # -- preprocessing ------------------------------------------------------

    def preprocess(self) -> Verdict | None:
        T = self._draw_strings(self.sz.pre)
        if not T:
            return Verdict("accept")
        ledger = self.f.ledger
        before = ledger.function_queries
        vals = [self.f.query_raw(x.v) for x in T]
        if all(v == 0 for v in vals) or all(v == 1 for v in vals):
            return Verdict("accept")
        ledger.repeat(ledger.function_queries - before)  # the sketch's own pass over T
        sk = _sketch(self.f, T, vals)
        if sk is None:
            return Verdict("reject", witness=("sketch_nil",))
        self.sk = sk
        self.L = self._find_big_blocks()
        self.NL = self.L.neighbors()
        return None

    def _find_big_blocks(self) -> BigBlockSet:
        n, eps, sz, ledger = self.f.n, self.eps, self.sz, self.f.ledger
        k = self.sk.k
        counters: dict[int, int] = {}
        for _ in range(sz.probes):
            i = self.rng.integer(1, n + 1)
            ell, _ = self.find_block_ex(unit(i, n))
            counters[ell] = counters.get(ell, 0) + 1
        thresh = 4.0 * clamped_log2(n) / eps
        members = {ell for ell, cnt in counters.items() if cnt >= thresh}
        big = BigBlockSet(members, k)
        exit_thresh = 5.0 * clamped_log2(n / eps)
        for _ in range(sz.rounds):
            nl = big.neighbors()
            hits = 0
            # one search per distinct draw; its other draws repeat what the
            # search just charged, so each round charges what per-draw searches would
            for x, mult in self.sampler.draw_counts(sz.inner):
                before = ledger.function_queries
                ell, _ = self.find_block_ex(x)
                ledger.repeat(ledger.function_queries - before, mult - 1)
                if ell in nl:
                    hits += mult
            if hits < exit_thresh:
                return big
            big = BigBlockSet(big.members | nl, k)
        return big

    # -- type stages --------------------------------------------------------

    def _draw_strings(self, m: int) -> list[BitString]:
        return [x for x in self.sampler.draw_set(m) if x.v != 0]

    def _info(self, xs, mi_only_big=False):
        """(x, block, f(x), max index) per distinct string of xs, in draw order;
        with mi_only_big, only strings in big blocks get a max index."""
        out = {}
        for x in xs:
            if x.v in out:
                continue
            ell, fx = self.find_block_ex(x)
            mi = None
            if not mi_only_big or ell in self.L:
                mi = self.max_index(x)
            out[x.v] = (x, ell, fx, mi)
        return out

    def _small(self, ell: int) -> bool:
        return ell not in self.L and ell not in self.NL

    def _crossings(self, mp: int, mq: int, mi_only_big=False):
        """Draws P (mp strings) and Q (mq strings); for each y in Q with a max
        index, in draw order, yields y's record and the records, in draw order,
        of the strings of P whose support holds that index."""
        P = self._draw_strings(mp)
        Q = self._draw_strings(mq)
        info = self._info(P + Q, mi_only_big)
        p_by_bit: dict[int, list] = {}
        for x in P:
            for j in x.support():
                p_by_bit.setdefault(j, []).append(info[x.v])
        for y in Q:
            rec = info[y.v]
            if rec[3] is not None:
                yield rec, p_by_bit.get(rec[3], ())

    def _small_blocks(self, m: int) -> dict[int, list]:
        """Records of m drawn strings that have a max index in a small block,
        bucketed by block, in draw order."""
        buckets: dict[int, list] = {}
        for rec in self._info(self._draw_strings(m)).values():
            if rec[3] is not None and self._small(rec[1]):
                buckets.setdefault(rec[1], []).append(rec)
        return buckets

    def test_type1(self) -> Verdict:
        for (y, ly, fy, mi), xs in self._crossings(self.sz.m1, self.sz.m1):
            for x, lx, fx, _ in xs:
                if fx != fy and ly <= lx - 2:
                    return Verdict("reject", witness=("type1", x.v, y.v, lx, ly, mi))
        return Verdict("accept")

    def test_type2(self) -> Verdict:
        # only strings in big blocks get a max index here, so y's block is big
        for (y, ly, _, mi), xs in self._crossings(self.sz.p2, self.sz.q2, True):
            for x, lx, _, _ in xs:
                if lx in self.L and ly == lx - 1:
                    return Verdict("reject", witness=("type2", x.v, y.v, lx, ly, mi))
        return Verdict("accept")

    def test_type3(self) -> Verdict:
        cap = self.sz.pair_cap
        partners: dict[int, int] = {}
        for (y, ly, _, v), xs in self._crossings(self.sz.m1, self.sz.m1):
            if not self._small(ly):
                continue
            for x, lx, fx, u in xs:
                if u is None or abs(lx - ly) != 1 or not self._small(lx):
                    continue
                if partners.get(x.v, 0) >= cap:
                    continue
                partners[x.v] = partners.get(x.v, 0) + 1
                # f(e_u) equals fx by the max-index postcondition
                if self.f.query_raw((1 << (u - 1)) | (1 << (v - 1))) != fx:
                    return Verdict("reject", witness=("type3", x.v, y.v, u, v))
        return Verdict("accept")

    def test_type4(self) -> Verdict:
        buckets = self._small_blocks(self.sz.m4)
        cap = self.sz.pair_cap
        for ell in sorted(buckets):
            mids = buckets.get(ell - 1)
            bots = buckets.get(ell - 2)
            if not (mids and bots):
                continue
            tops, bots = buckets[ell][:cap], bots[:cap]
            for y, _, fy, v in mids:
                up = None
                for x, _, fx, u in tops:
                    if self.f.query_raw((1 << (u - 1)) | (1 << (v - 1))) == fx:
                        up = (x, u)
                        break
                if up is None:
                    continue
                for z, _, fz, w in bots:
                    if self.f.query_raw((1 << (v - 1)) | (1 << (w - 1))) == fy:
                        return Verdict("reject",
                                       witness=("type4", up[0].v, y.v, z.v, up[1], v, w))
        return Verdict("accept")

    def test_type5(self) -> Verdict:
        buckets = self._small_blocks(self.sz.m5)
        cap = self.sz.pair_cap
        for ell in sorted(buckets):
            if ell - 1 not in buckets:
                continue
            tops = _first_per_index(buckets[ell], cap)
            bots = _first_per_index(buckets[ell - 1], cap)
            # bit j of zeros[i] is set when tops[i] and bots[j] join to 0, else they join to 1
            zeros = []
            for u, _ in tops:
                z_mask = 0
                for j, (w, _) in enumerate(bots):
                    if self.f.query_raw((1 << (u - 1)) | (1 << (w - 1))) == 0:
                        z_mask |= 1 << j
                zeros.append(z_mask)
            for i1, z1 in enumerate(zeros):
                for i3 in range(i1 + 1, len(zeros)):
                    m24 = z1 & ~zeros[i3]
                    m42 = zeros[i3] & ~z1
                    if m24 and m42:
                        (u1, x1), (u3, x3) = tops[i1], tops[i3]
                        u2, x2 = bots[(m24 & -m24).bit_length() - 1]
                        u4, x4 = bots[(m42 & -m42).bit_length() - 1]
                        return Verdict("reject", witness=("type5", (x1.v, x2.v, x3.v, x4.v),
                                                          (u1, u2, u3, u4)))
        return Verdict("accept")

    def test_type(self, c: int) -> Verdict:
        return getattr(self, f"test_type{c}")()

    # -- full tester --------------------------------------------------------

    def execute(self) -> Verdict:
        early = self.preprocess()
        if early is not None:
            return early
        for _ in range(self.sz.nil):
            x = self.sampler.draw()
            if x.v == 0:
                continue
            if self.max_index(x) is None:
                return Verdict("reject", witness=("nil_probe", x.v))
        for c in (1, 2, 3, 4, 5):
            v = self.test_type(c)
            if v.rejected:
                return v
        return Verdict("accept")


@accounted
def monotone_dl_tester(f: FunctionOracle, d: FiniteDistribution, eps: float,
                       rng: SeededRng, constants: MdlConstants = DEFAULT_MDL) -> Verdict:
    """Full monotone-decision-list tester; accepts iff no stage rejects."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    return MdlRun(f, DistSampler(d, rng, f.ledger), eps, rng, constants).execute()


def budget_mdl(n: int, eps: float, constants: MdlConstants = DEFAULT_MDL) -> tuple[int, int]:
    """Closed-form ceilings on function queries and on samples for one tester run:
    one (draws, queries per draw) row per stage, plus the sample-free unit probes."""
    sz = mdl_sizes(n, eps, constants)
    lg_m = ceil_pos(clamped_log2(max(sz.pre, 2)))
    fb = lg_m + 5
    mi = fb + (sz.block_cap + 1) * (ceil_pos(clamped_log2(n)) + 3) + sz.block_cap * (fb + 2) + 4
    per = 1 + fb + mi
    rows = ((sz.pre, lg_m + 7),                     # preprocessing: value, extraction, chain
            (sz.rounds * sz.inner, fb),             # big-block growth
            (sz.nil, mi),                           # nil probes
            (2 * sz.m1, per),                       # type 1: P and Q
            (sz.p2 + sz.q2, per),                   # type 2
            (2 * sz.m1, per + sz.pair_cap),         # type 3: P and Q, one pair query per partner
            (sz.m4, per + 2 * sz.pair_cap),         # type 4
            (sz.m5, per + sz.pair_cap))             # type 5
    return sz.probes * fb + sum(d * c for d, c in rows), sum(d for d, _ in rows)

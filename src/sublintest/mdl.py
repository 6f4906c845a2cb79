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
from .oracles import DistSampler, FunctionOracle, QueryLedger, Verdict, accounted


@dataclass(frozen=True)
class MdlConstants:
    delta: float = 1.0 / 6.0
    type_factor: float = const(8.0, "c_type")     # sample factor for the type-1/3/4/5 stages
    nil_factor: float = const(8.0, "c_nil")       # nil-probe count: ceil(nil_factor / eps)
    # small-block size bound: 16 n^delta log2(n) / eps
    block_cap_factor: float = const(16.0, "c_blockcap")
    # per-point partner cap multiplier in types 3-5
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
        block_cap=ceil_pos(c.block_cap_factor * (n ** c.delta) * lg / eps),
        pair_cap=ceil_pos(c.pair_cap_factor * c.block_cap_factor * (n ** c.delta) * lg / eps),
        nil=ceil_pos(c.nil_factor / eps),
        m1=ceil_pos(c.type_factor * (n ** 0.5) / eps),
        p2=ceil_pos(c.t2_factor * n ** (c.delta / 2) / (eps * lg * lg)),
        q2=ceil_pos(n ** (1 - c.delta / 2) * lg * lg * lg / eps),
        m4=ceil_pos(c.type_factor * (n ** (2.0 / 3.0)) / eps),
        m5=ceil_pos(c.type_factor * (n ** 0.75) / eps))


class MdlSketch:
    """Chain of strings with alternating values, each dominating the next;
    all three properties are verified with fresh queries at construction."""

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


def _halving(query, or_range, c: int, y_v: int, b: int) -> int:
    """Rank that a halving search over ranks 0..c-1 keeps: a window keeps its left
    half when query(or_range(left half) | y_v) answers b, else its right half."""
    a = 0
    while c > 1:
        half = c // 2
        if query(or_range(a, a + half) | y_v) == b:
            c = half
        else:
            a += half
            c -= half
    return a


def _rep_search(f: FunctionOracle, vs: list[int], y_v: int) -> int:
    """Halving search returning some v in vs; when the target is a monotone
    list, v's rule outranks every other rule fired in vs or in the union y_v."""
    b = f.query_raw(_or_all(vs) | y_v)
    return vs[_halving(f.query_raw, lambda lo, hi: _or_all(vs[lo:hi]), len(vs), y_v, b)]


def _recharge(ledger: QueryLedger, before: int):
    """Charge again what the ledger gained since it read `before`: the cost of
    repeating queries whose answers are already known.  One charge leaves the
    ledger where the repeats would, also when it runs out of budget."""
    ledger.charge_queries(ledger.function_queries - before)


def _extract(g: FunctionOracle, vs: list[int], vals: list[int]) -> list[tuple[int, int]]:
    """Order the strings vs (with values vals) by priority, highest first:
    each step queries the union of the alive strings, then halving-searches
    the alive strings of that value for the one whose rule fires on it.  Once
    one value is left, its strings follow in list order.  Returns (backing
    int, value) pairs in extraction order."""
    lists = ([v for v, b in zip(vs, vals) if b == 0], [v for v, b in zip(vs, vals) if b == 1])
    trees = (_OrTree(lists[0]), _OrTree(lists[1]))
    query = g.query_raw
    ledger = g.ledger
    extracted = []
    while trees[0].alive and trees[1].alive:
        union_v = trees[0].or_all() | trees[1].or_all()
        before = ledger.function_queries
        b = query(union_v)
        _recharge(ledger, before)  # the halving search's own reference query
        tree = trees[b]
        pos = tree.kth_alive(_halving(query, tree.or_range, tree.alive, trees[1 - b].or_all(), b))
        extracted.append((lists[b][pos], b))
        tree.remove(pos)
    for b, tree in enumerate(trees):
        extracted += [(lists[b][pos], b) for pos in tree.alive_positions()]
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
    """sketch_mdl on T, whose values vals are already known."""
    strings = [_or_all(members) for members, _ in _runs(_extract(f, [x.v for x in T], vals))]
    if len(strings) < 2:
        return None
    if any(s == 0 for s in strings):
        return None
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
    fx = f.query(x)
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


class MdlRun:
    """One tester run on the sampler it is handed: owns the sketch, the
    big-block set and the replay caches.  The deterministic sub-procedures
    are cached per input string; a cache hit recharges the recorded query
    count, so ledgers match a cache-free execution exactly."""

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

    def _replayed(self, cache: dict, x: BitString, compute):
        """compute(x) through cache: a hit recharges the recorded query cost."""
        hit = cache.get(x.v)
        if hit is not None:
            res, cost = hit
            self.f.ledger.charge_queries(cost)
            return res
        before = self.f.ledger.function_queries
        res = compute(x)
        cache[x.v] = (res, self.f.ledger.function_queries - before)
        return res

    def find_block_ex(self, x: BitString) -> tuple[int, int]:
        return self._replayed(self._fb_cache, x, lambda x: _find_block_ex(self.f, self.sk, x))

    def max_index(self, x: BitString) -> int | None:
        """Highest-priority same-value index of x's support, or None when the
        consistency checks fail.  Deterministic."""
        return self._replayed(self._mi_cache, x, self._max_index)

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
        T = [x for x in self.sampler.draw_set(self.sz.pre) if x.v != 0]
        if not T:
            return Verdict("accept")
        before = self.f.ledger.function_queries
        vals = [self.f.query(x) for x in T]
        if all(v == 0 for v in vals) or all(v == 1 for v in vals):
            return Verdict("accept")
        _recharge(self.f.ledger, before)  # the sketch's own pass over T
        sk = _sketch(self.f, T, vals)
        if sk is None:
            return Verdict("reject", witness=("sketch_nil",))
        self.sk = sk
        self.L = self._find_big_blocks()
        self.NL = self.L.neighbors()
        return None

    def _find_big_blocks(self) -> BigBlockSet:
        n, eps, sz = self.f.n, self.eps, self.sz
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
            # one search per distinct draw; its repeats recharge the recorded
            # cost in one go, so each round charges what per-draw searches would
            for x, mult in self.sampler.draw_counts(sz.inner):
                ell, _ = self.find_block_ex(x)
                if mult > 1:
                    self.f.ledger.charge_queries(self._fb_cache[x.v][1] * (mult - 1))
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

    def _by_bit(self, info, keys):
        buckets: dict[int, list] = {}
        for v in keys:
            rec = info[v]
            for j in rec[0].support():
                buckets.setdefault(j, []).append(rec)
        return buckets

    def test_type1(self) -> Verdict:
        P = self._draw_strings(self.sz.m1)
        Q = self._draw_strings(self.sz.m1)
        info = self._info(P + Q)
        p_by_bit = self._by_bit(info, [x.v for x in P])
        for y in Q:
            _, ly, fy, mi = info[y.v]
            if mi is None:
                continue
            for x, lx, fx, _ in p_by_bit.get(mi, ()):
                if fx != fy and ly <= lx - 2:
                    return Verdict("reject", witness=("type1", x.v, y.v, lx, ly, mi))
        return Verdict("accept")

    def test_type2(self) -> Verdict:
        P = self._draw_strings(self.sz.p2)
        Q = self._draw_strings(self.sz.q2)
        info = self._info(P + Q, mi_only_big=True)
        p_by_bit = self._by_bit(info, [x.v for x in P])
        for y in Q:
            _, ly, _, mi = info[y.v]
            if mi is None or ly not in self.L:
                continue
            for x, lx, _, _ in p_by_bit.get(mi, ()):
                if lx in self.L and ly == lx - 1:
                    return Verdict("reject", witness=("type2", x.v, y.v, lx, ly, mi))
        return Verdict("accept")

    def test_type3(self) -> Verdict:
        P = self._draw_strings(self.sz.m1)
        Q = self._draw_strings(self.sz.m1)
        info = self._info(P + Q)
        p_by_bit = self._by_bit(info, [x.v for x in P])
        small = lambda ell: ell not in self.L and ell not in self.NL
        cap = self.sz.pair_cap
        partners: dict[int, int] = {}
        for y in Q:
            _, ly, fy, v = info[y.v]
            if v is None or not small(ly):
                continue
            for x, lx, fx, u in p_by_bit.get(v, ()):
                if u is None or abs(lx - ly) != 1 or not small(lx):
                    continue
                if partners.get(x.v, 0) >= cap:
                    continue
                partners[x.v] = partners.get(x.v, 0) + 1
                # f(e_u) equals fx by the max-index postcondition
                if self.f.query_raw((1 << (u - 1)) | (1 << (v - 1))) != fx:
                    return Verdict("reject", witness=("type3", x.v, y.v, u, v))
        return Verdict("accept")

    def test_type4(self) -> Verdict:
        P = self._draw_strings(self.sz.m4)
        info = self._info(P)
        small = lambda ell: ell not in self.L and ell not in self.NL
        buckets: dict[int, list] = {}
        for rec in info.values():
            if rec[3] is not None and small(rec[1]):
                buckets.setdefault(rec[1], []).append(rec)
        cap = self.sz.pair_cap
        for ell in sorted(buckets):
            tops = buckets.get(ell)
            mids = buckets.get(ell - 1)
            bots = buckets.get(ell - 2)
            if not (tops and mids and bots):
                continue
            for y, _, fy, v in mids:
                up = None
                for x, _, fx, u in tops[:cap]:
                    if self.f.query_raw((1 << (u - 1)) | (1 << (v - 1))) == fx:
                        up = (x, u)
                        break
                if up is None:
                    continue
                for z, _, fz, w in bots[:cap]:
                    if self.f.query_raw((1 << (v - 1)) | (1 << (w - 1))) == fy:
                        return Verdict("reject",
                                       witness=("type4", up[0].v, y.v, z.v, up[1], v, w))
        return Verdict("accept")

    def test_type5(self) -> Verdict:
        P = self._draw_strings(self.sz.m5)
        info = self._info(P)
        small = lambda ell: ell not in self.L and ell not in self.NL
        buckets: dict[int, dict[int, object]] = {}
        for rec in info.values():
            if rec[3] is not None and small(rec[1]):
                buckets.setdefault(rec[1], {}).setdefault(rec[3], rec[0])
        cap = self.sz.pair_cap
        for ell in sorted(buckets):
            top = buckets.get(ell)
            bot = buckets.get(ell - 1)
            if not top or not bot:
                continue
            a_items = list(top.items())[:cap]
            b_items = list(bot.items())[:cap]
            zeros = []
            ones = []
            for u, _ in a_items:
                z_mask = o_mask = 0
                for idx, (w, _) in enumerate(b_items):
                    if self.f.query_raw((1 << (u - 1)) | (1 << (w - 1))) == 0:
                        z_mask |= 1 << idx
                    else:
                        o_mask |= 1 << idx
                zeros.append(z_mask)
                ones.append(o_mask)
            for i1 in range(len(a_items)):
                for i3 in range(i1 + 1, len(a_items)):
                    m24 = zeros[i1] & ones[i3]
                    m42 = zeros[i3] & ones[i1]
                    if m24 and m42:
                        u1 = a_items[i1][0]
                        u3 = a_items[i3][0]
                        u2 = b_items[(m24 & -m24).bit_length() - 1][0]
                        u4 = b_items[(m42 & -m42).bit_length() - 1][0]
                        return Verdict("reject", witness=(
                            "type5",
                            (a_items[i1][1].v, b_items[(m24 & -m24).bit_length() - 1][1].v,
                             a_items[i3][1].v, b_items[(m42 & -m42).bit_length() - 1][1].v),
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
    """Closed-form ceilings on function queries and on samples for one tester run."""
    sz = mdl_sizes(n, eps, constants)
    lg_m = ceil_pos(clamped_log2(max(sz.pre, 2)))
    fb = lg_m + 5
    pre = sz.pre + sz.pre * (lg_m + 2) + 4 * sz.pre
    fbb = sz.probes * fb + sz.rounds * sz.inner * fb
    mi = fb + (sz.block_cap + 1) * (ceil_pos(clamped_log2(n)) + 3) + sz.block_cap * (fb + 2) + 4
    nil = sz.nil * mi
    per = 1 + fb + mi
    t1 = 2 * sz.m1 * per
    t2 = (sz.p2 + sz.q2) * per
    t3 = 2 * sz.m1 * per + 2 * sz.m1 * sz.pair_cap
    t4 = sz.m4 * per + 2 * sz.m4 * sz.pair_cap
    t5 = sz.m5 * per + sz.m5 * sz.pair_cap
    samples = (sz.pre + sz.rounds * sz.inner + sz.nil
               + 4 * sz.m1 + sz.p2 + sz.q2 + sz.m4 + sz.m5)
    return pre + fbb + nil + t1 + t2 + t3 + t4 + t5, samples

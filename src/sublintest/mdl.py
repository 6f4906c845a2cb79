"""Tester for monotone decision lists: preprocessing and sketching, block
machinery over singletons, highest-priority index extraction, and the five
cycle-pattern sub-testers."""

from __future__ import annotations

from dataclasses import dataclass

from .core import (BitString, FiniteDistribution, SeededRng, ceil_pos, clamped_log2, const,
                   unit)
from .oracles import DistSampler, FunctionOracle, Verdict, accounted


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
        m = max(1, len(values))
        size = 1
        while size < m:
            size *= 2
        self.size = size
        self.cnt = [0] * (2 * size)
        self.orv = [0] * (2 * size)
        for i, v in enumerate(values):
            self.cnt[size + i] = 1
            self.orv[size + i] = v
        for i in range(size - 1, 0, -1):
            self.cnt[i] = self.cnt[2 * i] + self.cnt[2 * i + 1]
            self.orv[i] = self.orv[2 * i] | self.orv[2 * i + 1]

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


def _rep_search(f: FunctionOracle, vs: list[int], y_v: int) -> int:
    """find_rep over backing ints: some v in vs, found against the union y_v."""
    b = f.query_raw(_or_all(vs) | y_v)
    while len(vs) > 1:
        left, right = vs[:len(vs) // 2], vs[len(vs) // 2:]
        vs = left if f.query_raw(_or_all(left) | y_v) == b else right
    return vs[0]


def find_rep(f: FunctionOracle, xs: list[BitString], ys: list[BitString]) -> BitString:
    """Halving search returning some x in xs; when the target is a monotone
    list, the result's rule outranks every other rule fired in xs or ys."""
    if not xs:
        raise ValueError("xs must be nonempty")
    return BitString(f.n, _rep_search(f, [x.v for x in xs], _or_all(y.v for y in ys)))


def _extract(g: FunctionOracle, vs: list[int], vals: list[int]) -> list[tuple[int, int]]:
    """Order the strings vs (with values vals) by priority, highest first:
    each step queries the union of the alive strings, then halving-searches
    the alive strings of that value for the one whose rule fires on it.
    Returns (backing int, value) pairs in extraction order."""
    lists = ([v for v, b in zip(vs, vals) if b == 0], [v for v, b in zip(vs, vals) if b == 1])
    trees = (_OrTree(lists[0]), _OrTree(lists[1]))
    query = g.query_raw
    extracted = []
    for _ in range(len(vs)):
        if trees[0].alive and trees[1].alive:
            union_v = trees[0].or_all() | trees[1].or_all()
            b = query(union_v)
            tree = trees[b]
            or_range = tree.or_range
            other_v = trees[1 - b].or_all()
            # inner halving search over the alive prefix order
            query(union_v)  # the search recomputes its own reference value
            a, c = 0, tree.alive
            while c > 1:
                half = c // 2
                if query(or_range(a, a + half) | other_v) == b:
                    c = half
                else:
                    a += half
                    c -= half
        else:
            b = 0 if trees[0].alive else 1
            tree, a = trees[b], 0
        pos = tree.kth_alive(a)
        extracted.append((lists[b][pos], b))
        tree.remove(pos)
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
    n = f.n
    vals = [f.query(x) for x in T]
    if all(v == 0 for v in vals) or all(v == 1 for v in vals):
        raise ValueError("T must contain strings of both values")
    if any(x.v == 0 for x in T):
        raise ValueError("T must not contain the all-zero string")
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
    return MdlSketch([BitString(n, s) for s in strings], checked)


def _find_block_ex(f: FunctionOracle, sk: MdlSketch, x: BitString) -> tuple[int, int]:
    """(block index in [0..k+1], f(x)).  Binary search over the chain elements
    of value opposite to f(x)."""
    k = sk.k
    fx = f.query(x)
    xs = x.v
    strings = sk.strings
    if fx == sk.values[0]:
        # result is odd; probe even positions
        if f.query_raw(strings[1].v | xs) == fx:
            return 1, fx
        last = 2 * (k // 2)
        if last != 2 and f.query_raw(strings[last - 1].v | xs) != fx:
            return last + 1, fx
        if last == 2:
            return 3, fx
        t_lo, t_hi = 1, last // 2  # probe position 2t; P(lo) false, P(hi) true
        while t_hi - t_lo > 1:
            t_mid = (t_lo + t_hi) // 2
            if f.query_raw(strings[2 * t_mid - 1].v | xs) == fx:
                t_hi = t_mid
            else:
                t_lo = t_mid
        return 2 * t_lo + 1, fx
    # result is even; probe odd positions
    if f.query_raw(strings[0].v | xs) == fx:
        return 0, fx
    last = 2 * ((k + 1) // 2) - 1
    if last != 1 and f.query_raw(strings[last - 1].v | xs) != fx:
        return last + 1, fx
    if last == 1:
        return 2, fx
    t_lo, t_hi = 1, (last + 1) // 2  # probe position 2t-1
    while t_hi - t_lo > 1:
        t_mid = (t_lo + t_hi) // 2
        if f.query_raw(strings[2 * t_mid - 2].v | xs) == fx:
            t_hi = t_mid
        else:
            t_lo = t_mid
    return 2 * t_lo, fx


def find_block_mdl(f: FunctionOracle, sk: MdlSketch, x: BitString) -> int:
    return _find_block_ex(f, sk, x)[0]


class MdlRun:
    """One tester run: owns the sketch, the big-block set and the replay
    caches.  The deterministic sub-procedures are cached per input string;
    a cache hit recharges the recorded query count, so ledgers match a
    cache-free execution exactly."""

    def __init__(self, f: FunctionOracle, d: FiniteDistribution | None, eps: float,
                 rng: SeededRng | None, constants: MdlConstants = DEFAULT_MDL):
        self.f = f
        self.d = d
        self.eps = eps
        self.rng = rng
        self.c = constants
        self.sampler = DistSampler(d, rng, f.ledger) if d is not None else None
        self.sk: MdlSketch | None = None
        self.L: BigBlockSet | None = None
        self.NL: frozenset = frozenset()
        self._fb_cache: dict[int, tuple[tuple[int, int], int]] = {}
        self._mi_cache: dict[int, tuple[int | None, int]] = {}

    @classmethod
    def from_parts(cls, f, d, eps, rng, constants, sk, L):
        run = cls(f, d, eps, rng, constants)
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
        cap = ceil_pos(self.c.block_cap_factor * (n ** self.c.delta) * clamped_log2(n) / self.eps)
        U = []
        while len(U) < cap and units:
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
        n = self.f.n
        m_pre = ceil_pos(n ** (1 - self.c.delta / 2) / self.eps)
        T = [x for x in self.sampler.draw_set(m_pre) if x.v != 0]
        if not T:
            return Verdict("accept")
        vals = [self.f.query(x) for x in T]
        if all(v == 0 for v in vals) or all(v == 1 for v in vals):
            return Verdict("accept")
        sk = sketch_mdl(self.f, T)
        if sk is None:
            return Verdict("reject", witness=("sketch_nil",))
        self.sk = sk
        self.L = self._find_big_blocks()
        self.NL = self.L.neighbors()
        return None

    def _find_big_blocks(self) -> BigBlockSet:
        n, eps, c = self.f.n, self.eps, self.c
        k = self.sk.k
        counters: dict[int, int] = {}
        for _ in range(ceil_pos(n ** (1 - c.delta))):
            i = self.rng.integer(1, n + 1)
            ell, _ = self.find_block_ex(unit(i, n))
            counters[ell] = counters.get(ell, 0) + 1
        thresh = 4.0 * clamped_log2(n) / eps
        members = {ell for ell, cnt in counters.items() if cnt >= thresh}
        big = BigBlockSet(members, k)
        inner = ceil_pos((100.0 / eps) * clamped_log2(n / eps))
        exit_thresh = 5.0 * clamped_log2(n / eps)
        for _ in range(ceil_pos(200.0 / eps)):
            nl = big.neighbors()
            hits = 0
            for x in self.sampler.draw_list(inner):
                ell, _ = self.find_block_ex(x)
                if ell in nl:
                    hits += 1
            if hits < exit_thresh:
                return big
            big = BigBlockSet(big.members | nl, k)
        return big

    # -- type stages --------------------------------------------------------

    def _draw_strings(self, m: int) -> list[BitString]:
        return [x for x in self.sampler.draw_set(m) if x.v != 0]

    def _info(self, xs, want_mi=True, mi_only_big=False):
        out = {}
        for x in xs:
            if x.v in out:
                continue
            ell, fx = self.find_block_ex(x)
            mi = None
            if want_mi and (not mi_only_big or ell in self.L):
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

    def _pair_cap(self) -> int:
        n = self.f.n
        return ceil_pos(self.c.pair_cap_factor * self.c.block_cap_factor
                        * (n ** self.c.delta) * clamped_log2(n) / self.eps)

    def test_type1(self) -> Verdict:
        m = ceil_pos(self.c.type_factor * (self.f.n ** 0.5) / self.eps)
        P = self._draw_strings(m)
        Q = self._draw_strings(m)
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
        n = self.f.n
        lg = clamped_log2(n)
        p_m = ceil_pos(self.c.t2_factor * n ** (self.c.delta / 2) / (self.eps * lg * lg))
        q_m = ceil_pos(n ** (1 - self.c.delta / 2) * lg * lg * lg / self.eps)
        P = self._draw_strings(p_m)
        Q = self._draw_strings(q_m)
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
        m = ceil_pos(self.c.type_factor * (self.f.n ** 0.5) / self.eps)
        P = self._draw_strings(m)
        Q = self._draw_strings(m)
        info = self._info(P + Q)
        p_by_bit = self._by_bit(info, [x.v for x in P])
        small = lambda ell: ell not in self.L and ell not in self.NL
        cap = self._pair_cap()
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
        n = self.f.n
        m = ceil_pos(self.c.type_factor * (n ** (2.0 / 3.0)) / self.eps)
        P = self._draw_strings(m)
        info = self._info(P)
        small = lambda ell: ell not in self.L and ell not in self.NL
        buckets: dict[int, list] = {}
        for rec in info.values():
            if rec[3] is not None and small(rec[1]):
                buckets.setdefault(rec[1], []).append(rec)
        cap = self._pair_cap()
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
        n = self.f.n
        m = ceil_pos(self.c.type_factor * (n ** 0.75) / self.eps)
        P = self._draw_strings(m)
        info = self._info(P)
        small = lambda ell: ell not in self.L and ell not in self.NL
        buckets: dict[int, dict[int, object]] = {}
        for rec in info.values():
            if rec[3] is not None and small(rec[1]):
                buckets.setdefault(rec[1], {}).setdefault(rec[3], rec[0])
        cap = self._pair_cap()
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
        for _ in range(ceil_pos(self.c.nil_factor / self.eps)):
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
    return MdlRun(f, d, eps, rng, constants).execute()


def budget_mdl(n: int, eps: float, constants: MdlConstants = DEFAULT_MDL) -> int:
    """Closed-form ceiling on function queries for one tester run."""
    c = constants
    m_pre = ceil_pos(n ** (1 - c.delta / 2) / eps)
    lg_m = ceil_pos(clamped_log2(max(m_pre, 2)))
    fb = lg_m + 5
    pre = m_pre + m_pre * (lg_m + 2) + 4 * m_pre
    fbb = (ceil_pos(n ** (1 - c.delta)) * fb
           + ceil_pos(200.0 / eps) * ceil_pos((100.0 / eps) * clamped_log2(n / eps)) * fb)
    cap_u = ceil_pos(c.block_cap_factor * (n ** c.delta) * clamped_log2(n) / eps)
    mi = fb + (cap_u + 1) * (ceil_pos(clamped_log2(n)) + 3) + cap_u * (fb + 2) + 4
    nil = ceil_pos(c.nil_factor / eps) * mi
    cap_pair = ceil_pos(c.pair_cap_factor * c.block_cap_factor
                        * (n ** c.delta) * clamped_log2(n) / eps)
    m1 = ceil_pos(c.type_factor * (n ** 0.5) / eps)
    lg = clamped_log2(n)
    p2 = ceil_pos(n ** (c.delta / 2) / (eps * lg * lg))
    q2 = ceil_pos(n ** (1 - c.delta / 2) * lg ** 3 / eps)
    m4 = ceil_pos(c.type_factor * (n ** (2.0 / 3.0)) / eps)
    m5 = ceil_pos(c.type_factor * (n ** 0.75) / eps)
    per = 1 + fb + mi
    t1 = 2 * m1 * per
    t2 = (p2 + q2) * per
    t3 = 2 * m1 * per + 2 * m1 * cap_pair
    t4 = m4 * per + 2 * m4 * cap_pair
    t5 = m5 * per + m5 * cap_pair
    return pre + fbb + nil + t1 + t2 + t3 + t4 + t5


def budget_mdl_samples(n: int, eps: float, constants: MdlConstants = DEFAULT_MDL) -> int:
    c = constants
    lg = clamped_log2(n)
    m_pre = ceil_pos(n ** (1 - c.delta / 2) / eps)
    fbb = ceil_pos(200.0 / eps) * ceil_pos((100.0 / eps) * clamped_log2(n / eps))
    m1 = ceil_pos(c.type_factor * (n ** 0.5) / eps)
    p2 = ceil_pos(n ** (c.delta / 2) / (eps * lg * lg))
    q2 = ceil_pos(n ** (1 - c.delta / 2) * lg ** 3 / eps)
    m4 = ceil_pos(c.type_factor * (n ** (2.0 / 3.0)) / eps)
    m5 = ceil_pos(c.type_factor * (n ** 0.75) / eps)
    return (m_pre + fbb + ceil_pos(c.nil_factor / eps)
            + 4 * m1 + p2 + q2 + m4 + m5)

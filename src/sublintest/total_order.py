"""Distribution-free tester for total orderings: sketch building, block
location, long-edge detection and in-block triangle search."""

from __future__ import annotations

from dataclasses import dataclass

from .core import PairDistribution, SeededRng, ceil_pos, clamped_log2, const
from .oracles import ComparisonOracle, MarginalSampler, PairSampler, Verdict, accounted


@dataclass(frozen=True)
class TotalConstants:
    crowd_factor: float = const(1000.0, "c_crowd")  # per-block cap: crowd_factor * log2(n)


DEFAULT_TOTAL = TotalConstants()


# draw counts of the sketch and local stage (as many edges as vertices) and of
# the long-edge stage, and the per-block crowd cap; budget_total reads them too
def _sqrt_draws(n: int, eps: float) -> int:
    return ceil_pos(8.0 * (n ** 0.5) / eps)


def _long_draws(eps: float) -> int:
    return ceil_pos(100.0 / eps)


def _crowd_cap(n: int, c: TotalConstants) -> float:
    return c.crowd_factor * clamped_log2(n)


class TotalSketch:
    """Sorted list of distinct indices whose adjacent pairs were verified
    against the oracle at construction."""

    __slots__ = ("elements", "_pos", "bounds")

    def __init__(self, elements):
        self.elements = list(elements)
        self._pos = {e: i + 1 for i, e in enumerate(self.elements)}
        if len(self._pos) != len(self.elements):
            raise ValueError("sketch elements must be distinct")
        # smallest and largest index, so block search checks the range once
        self.bounds = (min(self.elements, default=1), max(self.elements, default=1))

    @property
    def k(self) -> int:
        return len(self.elements)

    def position(self, u: int) -> int | None:
        return self._pos.get(u)


# The passes below call cmp.target directly under ComparisonOracle's
# orientation rule, count their comparisons in a local and charge them once
# per pass, also on an early return.  Each pass reads cmp.target when it
# starts, so a target swapped onto the oracle sees every call.

def _merge_sort(items: list[int], target) -> tuple[list[int], int]:
    """Top-down merge sort of distinct indices; returns the sorted list and the
    number of comparisons, i.e. the queries the pass costs."""
    n = len(items)
    if n <= 2:
        if n < 2:
            return items, 0
        y, x = items
        if target(x, y) if x < y else not target(y, x):  # x precedes y
            return [x, y], 1
        return items, 1
    mid = n // 2
    a, ca = _merge_sort(items[:mid], target)
    b, cb = _merge_sort(items[mid:], target)
    na, nb = len(a), len(b)
    out = []
    push = out.append
    i = j = 0
    y, x = a[0], b[0]
    while True:
        if target(x, y) if x < y else not target(y, x):
            push(x)
            j += 1
            if j == nb:
                break
            x = b[j]
        else:
            push(y)
            i += 1
            if i == na:
                break
            y = a[i]
    # one comparison per element emitted in the loop
    c = ca + cb + i + j
    out.extend(a[i:])
    out.extend(b[j:])
    return out, c


def order_sketch(cmp: ComparisonOracle, items: list[int]):
    """Merge-sort distinct indices with the oracle and verify adjacent pairs.
    Returns a TotalSketch, or a rejecting Verdict whose witness is the
    inverted adjacent pair."""
    if items and (min(items) < 1 or max(items) > cmp.n):
        raise ValueError("index out of range")
    target = cmp.target
    ordered, c = _merge_sort(items, target)
    cmp.ledger.charge_queries(c)
    c = 0
    for a, b in zip(ordered, ordered[1:]):
        c += 1
        if not (target(a, b) if a < b else not target(b, a)):  # a precedes b
            cmp.ledger.charge_queries(c)
            return Verdict("reject", witness=("adjacent_inversion", a, b))
    cmp.ledger.charge_queries(c)
    return TotalSketch(ordered)


def sketch_total(cmp: ComparisonOracle, verts: MarginalSampler, eps: float):
    """Sample the vertex marginal and order the distinct draws into a sketch
    (see order_sketch)."""
    return order_sketch(cmp, verts.draw_set(_sqrt_draws(cmp.n, eps)))


def find_block_total(cmp: ComparisonOracle, sk: TotalSketch, u: int) -> int:
    """Block index of u in [0..k]: 0 left of the sketch, k at or right of the
    last element, i when u equals the i-th element or falls between i and i+1.
    Deterministic; at most 2 + ceil(log2 k) comparisons."""
    pos = sk.position(u)
    if pos is not None:
        return pos
    # u is not a sketch element, so every comparison below has distinct sides
    lo, hi = sk.bounds
    n = cmp.n
    if not (1 <= u <= n and 1 <= lo and hi <= n):
        raise ValueError("index out of range")
    target = cmp.target
    els = sk.elements
    k = len(els)
    # each probe x asks whether u precedes x
    x = els[0]
    if target(u, x) if u < x else not target(x, u):
        cmp.ledger.charge_queries(1)
        return 0
    if k == 1:
        cmp.ledger.charge_queries(1)
        return k
    x = els[-1]
    if not (target(u, x) if u < x else not target(x, u)):
        cmp.ledger.charge_queries(2)
        return k
    c = 2
    lower, upper = 1, k
    while upper - lower > 1:
        mid = (upper + lower) // 2
        x = els[mid - 1]
        c += 1
        if target(u, x) if u < x else not target(x, u):
            upper = mid
        else:
            lower = mid
    cmp.ledger.charge_queries(c)
    return lower


def test_long_cycles(cmp: ComparisonOracle, pairs: PairSampler, eps: float,
                     sk: TotalSketch) -> Verdict:
    """Reject iff a sampled edge points from a later block into an earlier one."""
    for u, v in pairs.draw_list(_long_draws(eps)):
        if not cmp.less(u, v):
            u, v = v, u
        bu = find_block_total(cmp, sk, u)
        bv = find_block_total(cmp, sk, v)
        if bu > bv:
            return Verdict("reject", witness=("long_edge", u, v, bu, bv))
    return Verdict("accept")


def test_local_cycles(cmp: ComparisonOracle, pairs: PairSampler, verts: MarginalSampler,
                      eps: float, sk: TotalSketch,
                      constants: TotalConstants = DEFAULT_TOTAL) -> Verdict:
    """Reject on an overcrowded block, or on a directed triangle formed by a
    sampled edge and a sampled vertex inside one block."""
    m = _sqrt_draws(cmp.n, eps)
    edges = pairs.draw_set(m)
    vertices = verts.draw_set(m)

    block = {}
    for u in vertices:
        block[u] = find_block_total(cmp, sk, u)
    for u, v in edges:
        for w in (u, v):
            if w not in block:
                block[w] = find_block_total(cmp, sk, w)

    cap = _crowd_cap(cmp.n, constants)
    per_block = {}
    for u in vertices:
        per_block.setdefault(block[u], []).append(u)
    for b, members in per_block.items():
        if len(members) > cap:
            return Verdict("reject", witness=("overcrowded_block", b, len(members)))

    for u, v in edges:
        if not cmp.less(u, v):
            u, v = v, u
        b = block[u]
        if block[v] != b:
            continue
        for w in per_block.get(b, ()):
            if w == u or w == v:
                continue
            # triangle u -> v -> w -> u
            if cmp.less(v, w) and cmp.less(w, u):
                return Verdict("reject", witness=("triangle", u, v, w))
    return Verdict("accept")


@accounted
def test_total_ordering(cmp: ComparisonOracle, d: PairDistribution, eps: float,
                        rng: SeededRng,
                        constants: TotalConstants = DEFAULT_TOTAL) -> Verdict:
    """Sketch, then long-edge and local-triangle stages, all drawing from the
    two samplers built here on rng; accept iff all pass."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    pairs = PairSampler(d, rng, cmp.ledger)
    verts = MarginalSampler(d, rng, cmp.ledger)
    sk = sketch_total(cmp, verts, eps)
    if isinstance(sk, Verdict):
        return sk
    v = test_long_cycles(cmp, pairs, eps, sk)
    if v.rejected:
        return v
    return test_local_cycles(cmp, pairs, verts, eps, sk, constants)


def verify_total_witness(cmp: ComparisonOracle, sk, witness) -> bool:
    """Re-check a rejection witness with fresh queries (at most 6)."""
    kind = witness[0]
    if kind == "adjacent_inversion":
        _, a, b = witness
        return not cmp.less(a, b)
    if kind == "triangle":
        _, u, v, w = witness
        return cmp.less(u, v) and cmp.less(v, w) and cmp.less(w, u)
    if kind == "long_edge":
        # u precedes v yet u sits right of the sketch element that v precedes,
        # so u, v and the verified sketch chain close a cycle
        _, u, v, bu, bv = witness
        ok = cmp.less(u, v) and bu > bv
        if not ok:
            return False
        if bv < sk.k:
            ok = ok and cmp.less(v, sk.elements[bv])
        if bu >= 1:
            ok = ok and cmp.less(sk.elements[bu - 1], u) if sk.elements[bu - 1] != u else ok
        return ok
    if kind == "overcrowded_block":
        return True  # statistical evidence, nothing to re-query
    raise ValueError(f"unknown witness {kind!r}")


def budget_total(n: int, eps: float, constants: TotalConstants = DEFAULT_TOTAL) -> tuple[int, int]:
    """Closed-form query and sample ceilings: one (draws, queries per draw) row per stage."""
    m = _sqrt_draws(n, eps)
    lg = ceil_pos(clamped_log2(max(m, 2)))
    fb = lg + 2  # find_block_total ceiling
    crowd = ceil_pos(_crowd_cap(n, constants))
    rows = ((m, lg + 2),                        # sketch: sort, then one adjacent check
            (_long_draws(eps), 1 + 2 * fb),     # long edges: orient, locate both ends
            (m, fb),                            # local vertices: locate
            (m, 1 + 2 * fb + 2 * crowd))        # local edges: orient, locate, two per triangle
    return sum(d * c for d, c in rows), sum(d for d, _ in rows)

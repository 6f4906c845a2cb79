"""Distribution-free tester for total orderings: sketch building, block
location, long-edge detection and in-block triangle search."""

from __future__ import annotations

from dataclasses import dataclass

from .core import PairDistribution, SeededRng, ceil_pos, clamped_log2, const
from .oracles import ComparisonOracle, MarginalSampler, PairSampler, Verdict, accounted


@dataclass(frozen=True)
class TotalConstants:
    sketch_factor: float = const(8.0, "c_sk")  # sketch draws: ceil(factor * sqrt(n) / eps)
    # long/local stage draws: ceil(factor * sqrt(n) / eps)
    local_factor: float = const(8.0, "c_lc")
    long_samples: float = const(100.0, "c_long")  # long-edge stage draws: ceil(long_samples / eps)
    crowd_factor: float = const(1000.0, "c_crowd")  # per-block cap: crowd_factor * log2(n)


DEFAULT_TOTAL = TotalConstants()


# draw counts of the sketch, the long-edge stage and the local stage (that
# many edges and as many vertices); budget_total reads the same helpers
def _sketch_draws(n: int, eps: float, c: TotalConstants) -> int:
    return ceil_pos(c.sketch_factor * (n ** 0.5) / eps)


def _long_draws(eps: float, c: TotalConstants) -> int:
    return ceil_pos(c.long_samples / eps)


def _local_draws(n: int, eps: float, c: TotalConstants) -> int:
    return ceil_pos(c.local_factor * (n ** 0.5) / eps)


class TotalSketch:
    """Sorted tuple of distinct indices whose adjacent pairs were verified
    against the oracle at construction."""

    __slots__ = ("elements", "_pos")

    def __init__(self, elements):
        self.elements = list(elements)
        self._pos = {e: i + 1 for i, e in enumerate(self.elements)}
        if len(self._pos) != len(self.elements):
            raise ValueError("sketch elements must be distinct")

    @property
    def k(self) -> int:
        return len(self.elements)

    def position(self, u: int) -> int | None:
        return self._pos.get(u)


def _merge_sort(items: list[int], less) -> list[int]:
    if len(items) <= 1:
        return items
    mid = len(items) // 2
    a = _merge_sort(items[:mid], less)
    b = _merge_sort(items[mid:], less)
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        if less(b[j], a[i]):
            out.append(b[j])
            j += 1
        else:
            out.append(a[i])
            i += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out


def sketch_total(cmp: ComparisonOracle, d: PairDistribution, eps: float,
                 rng: SeededRng, constants: TotalConstants = DEFAULT_TOTAL):
    """Sample the vertex marginal, merge-sort the set with the oracle, verify
    adjacent pairs.  Returns a TotalSketch, or a rejecting Verdict whose
    witness is the inverted adjacent pair."""
    m = _sketch_draws(cmp.n, eps, constants)
    sampler = MarginalSampler(d, rng, cmp.ledger)
    seen = sampler.draw_set(m)
    ordered = _merge_sort(seen, cmp.less)
    for a, b in zip(ordered, ordered[1:]):
        if not cmp.less(a, b):
            return Verdict("reject", witness=("adjacent_inversion", a, b))
    return TotalSketch(ordered)


def find_block_total(cmp: ComparisonOracle, sk: TotalSketch, u: int) -> int:
    """Block index of u in [0..k]: 0 left of the sketch, k at or right of the
    last element, i when u equals the i-th element or falls between i and i+1.
    Deterministic; at most 2 + ceil(log2 k) comparisons."""
    pos = sk.position(u)
    if pos is not None:
        return pos if pos < sk.k else sk.k
    els = sk.elements
    if cmp.less(u, els[0]):
        return 0
    if sk.k == 1 or cmp.less(els[-1], u):
        return sk.k
    lower, upper = 1, sk.k
    while upper - lower > 1:
        mid = (upper + lower) // 2
        if cmp.less(u, els[mid - 1]):
            upper = mid
        else:
            lower = mid
    return lower


def test_long_cycles(cmp: ComparisonOracle, d: PairDistribution, eps: float,
                     rng: SeededRng, sk: TotalSketch,
                     constants: TotalConstants = DEFAULT_TOTAL) -> Verdict:
    """Reject iff a sampled edge points from a later block into an earlier one."""
    sampler = PairSampler(d, rng, cmp.ledger)
    for u, v in sampler.draw_list(_long_draws(eps, constants)):
        if not cmp.less(u, v):
            u, v = v, u
        bu = find_block_total(cmp, sk, u)
        bv = find_block_total(cmp, sk, v)
        if bu > bv:
            return Verdict("reject", witness=("long_edge", u, v, bu, bv))
    return Verdict("accept")


def test_local_cycles(cmp: ComparisonOracle, d: PairDistribution, eps: float,
                      rng: SeededRng, sk: TotalSketch,
                      constants: TotalConstants = DEFAULT_TOTAL) -> Verdict:
    """Reject on an overcrowded block, or on a directed triangle formed by a
    sampled edge and a sampled vertex inside one block."""
    n = cmp.n
    m = _local_draws(n, eps, constants)
    edge_sampler = PairSampler(d, rng, cmp.ledger)
    vertex_sampler = MarginalSampler(d, rng, cmp.ledger)
    edges = edge_sampler.draw_set(m)
    verts = vertex_sampler.draw_set(m)

    block = {}
    for u in verts:
        block[u] = find_block_total(cmp, sk, u)
    for u, v in edges:
        for w in (u, v):
            if w not in block:
                block[w] = find_block_total(cmp, sk, w)

    cap = constants.crowd_factor * clamped_log2(n)
    per_block = {}
    for u in verts:
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
    """Sketch, then long-edge and local-triangle stages; accept iff all pass."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    sk = sketch_total(cmp, d, eps, rng, constants)
    if isinstance(sk, Verdict):
        return sk
    v = test_long_cycles(cmp, d, eps, rng, sk, constants)
    if v.rejected:
        return v
    return test_local_cycles(cmp, d, eps, rng, sk, constants)


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
    """Closed-form ceilings on comparison queries and on samples for one tester run."""
    m = _sketch_draws(n, eps, constants)
    m_long = _long_draws(eps, constants)
    m_lc = _local_draws(n, eps, constants)
    lg = ceil_pos(clamped_log2(max(m, 2)))
    fb = lg + 2  # find_block_total ceiling
    sketch = m * (lg + 1) + m
    long_stage = m_long * (1 + 2 * fb)
    crowd = ceil_pos(constants.crowd_factor * clamped_log2(n))
    local = 3 * m_lc * fb + m_lc + 2 * m_lc * crowd
    return sketch + long_stage + local, m + m_long + 2 * m_lc

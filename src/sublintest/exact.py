"""Brute-force ground truth: exact class distances and exact weighted vertex
covers on instances small enough to enumerate."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import PairDistribution, FiniteDistribution

MAX_ORDER_N = 10
MAX_DL_N = 6
MAX_COVER_V = 24


class SizeRefusal(ValueError):
    """Instance exceeds the enumeration ceiling; no silent approximation."""


@dataclass
class DistanceReport:
    distance: float
    witness: object
    enumeration_size: int


def dist_total_orderings(n: int, less, d: PairDistribution) -> DistanceReport:
    """Exact distance from the comparison function to total orderings.

    `less(u, v)` must answer consistently for every pair.  Runs a subset DP
    over prefixes of the ordering being built (each state: minimum violated
    mass with that set placed first), so cost is O(2^n * n^2).
    """
    if n > MAX_ORDER_N:
        raise SizeRefusal(f"n={n} exceeds the exact-ordering ceiling {MAX_ORDER_N}")
    # viol[v][w]: mass charged if v is placed before w, i.e. the pair mass when
    # the oracle says w precedes v
    viol = [[0.0] * (n + 1) for _ in range(n + 1)]
    for (u, w), p in zip(d.pairs, d.weights):
        p = float(p)
        if less(u, w):
            viol[w][u] += p  # placing w before u violates u<w
        else:
            viol[u][w] += p
    size = 1 << n
    INF = float("inf")
    dp = [INF] * size
    parent = [0] * size
    dp[0] = 0.0
    for s in range(size):
        base = dp[s]
        if base == INF:
            continue
        for v in range(1, n + 1):
            bit = 1 << (v - 1)
            if s & bit:
                continue
            cost = base
            row = viol[v]
            for w in range(1, n + 1):
                if w != v and not (s & (1 << (w - 1))):
                    cost += row[w]
            t = s | bit
            if cost < dp[t]:
                dp[t] = cost
                parent[t] = v
    order = []
    s = size - 1
    while s:
        v = parent[s]
        order.append(v)
        s ^= 1 << (v - 1)
    order.reverse()
    return DistanceReport(distance=dp[size - 1], witness=tuple(order), enumeration_size=size)


def _value_buckets(n, pi, atom_vs, masses, values, mu_v):
    """Per firing-position disagreement masses (m0[j], m1[j]) for one list;
    mu_v None is the monotone list."""
    mask = (1 << n) - 1
    rank = [0] * n
    for j, var in enumerate(pi):
        rank[var - 1] = j
    m0 = [0.0] * (n + 1)
    m1 = [0.0] * (n + 1)
    for v, p, fv in zip(atom_vs, masses, values):
        t = v if mu_v is None else ((v ^ mu_v) ^ mask)
        best = n
        while t:
            lsb = t & -t
            r = rank[lsb.bit_length() - 1]
            if r < best:
                best = r
            t ^= lsb
        if fv:
            m0[best] += p  # predicting 0 at this slot disagrees with f
        else:
            m1[best] += p
    return m0, m1


def _best_list(n: int, f, d: FiniteDistribution, polarities):
    """(distance, pi, polarity, nu) of the nearest list over every priority
    order pi and every polarity, plus the number of (pi, polarity) pairs.
    For each pair the optimal rule values decompose per firing position, so
    the 2^(n+1) value vectors are minimized exactly without enumeration."""
    if n > MAX_DL_N:
        raise SizeRefusal(f"n={n} exceeds the exact-DL ceiling {MAX_DL_N}")
    atom_vs = [a.v for a in d.atoms]
    masses = [float(w) for w in d.weights]
    values = [f(v) for v in atom_vs]
    best = None
    count = 0
    for pi in itertools.permutations(range(1, n + 1)):
        for mu_v in polarities:
            count += 1
            m0, m1 = _value_buckets(n, pi, atom_vs, masses, values, mu_v)
            dist = 0.0  # each slot predicts the value that disagrees with less mass
            for a, b in zip(m0, m1):
                dist += b if b <= a else a
            if best is None or dist < best[0] - 1e-15:
                best = (dist, pi, mu_v, tuple(int(b <= a) for a, b in zip(m0, m1)))
    return best, count


def dist_mdl(n: int, f, d: FiniteDistribution) -> DistanceReport:
    """Exact distance to monotone decision lists: the one polarity None."""
    (dist, pi, _, nu), count = _best_list(n, f, d, (None,))
    return DistanceReport(distance=dist, witness=("mdl", pi, nu), enumeration_size=count)


def dist_dl(n: int, f, d: FiniteDistribution) -> DistanceReport:
    """Exact distance to general decision lists (enumerates (pi, mu) pairs)."""
    (dist, pi, mu_v, nu), count = _best_list(n, f, d, range(1 << n))
    mu = tuple((mu_v >> i) & 1 for i in range(n))
    return DistanceReport(distance=dist, witness=("dl", pi, mu, nu), enumeration_size=count)


def min_vertex_cover_weight(vertices, edges, weights) -> float:
    """Minimum total weight of a vertex cover of a (hyper)graph.

    `edges` is a list of vertex tuples (any arity); `weights` maps vertex to
    weight.  Exact branch and bound over uncovered edges.
    """
    vertices = list(vertices)
    if len(vertices) > MAX_COVER_V:
        raise SizeRefusal(f"|V|={len(vertices)} exceeds the cover ceiling {MAX_COVER_V}")
    edges = [tuple(e) for e in edges]
    for e in edges:
        for v in e:
            if v not in weights:
                raise ValueError(f"edge vertex {v} has no weight")

    best = [sum(weights[v] for v in set(v for e in edges for v in e))] if edges else [0.0]

    def recurse(remaining, acc, covered):
        if acc >= best[0] - 1e-15:
            return
        # next uncovered edge
        nxt = None
        rest = []
        for e in remaining:
            if nxt is None and not any(v in covered for v in e):
                nxt = e
            else:
                rest.append(e)
        if nxt is None:
            best[0] = acc
            return
        for v in nxt:
            covered.add(v)
            recurse(rest, acc + weights[v], covered)
            covered.remove(v)

    if edges:
        recurse(edges, 0.0, set())
    return best[0]

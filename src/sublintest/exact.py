"""Exact ground truth: class distances by dynamic programming and weighted
vertex covers by branch and bound, on instances small enough to solve exactly."""

from __future__ import annotations

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
        first, second = (w, u) if less(u, w) else (u, w)  # placing w before u violates u<w
        viol[first][second] += float(p)
    size = 1 << n
    INF = float("inf")
    dp = [INF] * size
    parent = [0] * size
    dp[0] = 0.0
    for s in range(size):
        base = dp[s]  # finite: every smaller set was expanded before s
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


def _nearest_list(n: int, f, d: FiniteDistribution, polarities) -> DistanceReport:
    """The nearest list whose rules fire on x_i = c, c in polarities, by a DP
    over the sets m of atoms no rule has fired yet (bitmasks over atom indices;
    enumeration_size counts them): dp(m) is the smaller of const(m), the cost of
    giving all of m one value, and const(F) + dp(m - F) over the literals that
    fire a proper part F of m."""
    if n > MAX_DL_N:
        raise SizeRefusal(f"n={n} exceeds the exact-DL ceiling {MAX_DL_N}")
    masses = [float(w) for w in d.weights]
    ones = sum(1 << k for k, a in enumerate(d.atoms) if f(a.v))
    literals = [(i, c, sum(1 << k for k, a in enumerate(d.atoms) if (a.v >> i) & 1 == c))
                for i in range(n) for c in polarities]

    def const(s):
        """(mass of s's lighter value class, the value s is given; 1 on a tie)."""
        w = [0.0, 0.0]  # mass where f is 0, where f is 1
        for k in range(s.bit_length()):
            if (s >> k) & 1:
                w[(ones >> k) & 1] += masses[k]
        return (w[0], 1) if w[0] <= w[1] else (w[1], 0)

    best = {}  # m -> (dp(m), the literal (i, c, its atoms) that fires first, or None)

    def solve(m):
        if m not in best:
            options = [(const(m)[0], None)]
            for literal in literals:
                if 0 != (fired := m & literal[2]) != m:
                    options.append((const(fired)[0] + solve(m ^ fired), literal))
            best[m] = min(options, key=lambda o: o[0])
        return best[m][0]

    m = (1 << len(masses)) - 1
    dist = solve(m)
    pi, mu, nu = [], [1] * n, []
    while best[m][1]:
        i, c, atoms = best[m][1]
        pi.append(i + 1)
        mu[i] = c
        nu.append(const(m & atoms)[1])
        m &= ~atoms
    # the unused rules, in index order, and the default give what is left one value
    nu += [const(m)[1]] * (n + 1 - len(pi))
    pi += [v for v in range(1, n + 1) if v not in pi]
    witness = (("mdl", tuple(pi), tuple(nu)) if polarities == (1,) else
               ("dl", tuple(pi), tuple(mu), tuple(nu)))
    return DistanceReport(distance=dist, witness=witness, enumeration_size=len(best))


def dist_mdl(n: int, f, d: FiniteDistribution) -> DistanceReport:
    """Exact distance to monotone decision lists: rules fire on x_i = 1."""
    return _nearest_list(n, f, d, (1,))


def dist_dl(n: int, f, d: FiniteDistribution) -> DistanceReport:
    """Exact distance to general decision lists: rules fire on x_i = 0 or 1."""
    return _nearest_list(n, f, d, (0, 1))


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

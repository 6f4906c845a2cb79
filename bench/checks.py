"""Correctness checks computed apart from the program.

Every check here re-derives its answer from an instance's own parameters
(position arrays, rule lists, group layouts) with a few lines of code of its
own, so a fault in the program's evaluators, generators or witnesses cannot
hide behind itself.  Each function returns a list of failure messages; an
empty list means the check passed.
"""

from __future__ import annotations

import math


# -- orderings -----------------------------------------------------------------

def precedes_fn(bundle):
    """precedes(a, b) for distinct a, b, read off the instance's position array:
    a total order for total-yes, the group-of-five tournament for the pentagon
    (groups ordered left to right, and inside a group a beats the next two
    positions round the five-cycle)."""
    pos = {v: p for p, v in enumerate(bundle.params["order"])}
    if bundle.family == "total-yes":
        return lambda a, b: pos[a] < pos[b]
    if bundle.family == "pentagon":
        def precedes(a, b):
            pa, pb = pos[a], pos[b]
            if pa // 5 != pb // 5:
                return pa // 5 < pb // 5
            return (pb - pa) % 5 in (1, 2)
        return precedes
    raise ValueError(f"no ordering relation for family {bundle.family!r}")


def certify_ordering(bundle, eps: float) -> list[str]:
    """total-yes: the instance relation agrees with its position array on the
    whole support.  pentagon: the support is exactly the five cycle edges of
    every group with uniform mass, and each group's edges form a directed
    five-cycle, so every ordering breaks one edge per group: distance 1/5."""
    precedes = precedes_fn(bundle)
    fails = []
    pairs = bundle.dist.pairs
    for u, v in pairs:
        if bool(bundle.less(u, v)) != precedes(u, v):
            fails.append(f"{bundle.family}: relation disagrees with positions on ({u},{v})")
            break
    if bundle.family == "pentagon":
        order = bundle.params["order"]
        n = bundle.n
        want = set()
        for k in range(n // 5):
            g = order[5 * k:5 * k + 5]
            for i in range(5):
                a, b = g[i], g[(i + 1) % 5]
                if not precedes(a, b):
                    fails.append(f"pentagon: group {k} edge {i} is not a cycle step")
                want.add((min(a, b), max(a, b)))
        if set(pairs) != want or len(pairs) != n:
            fails.append("pentagon: support is not the groups' cycle edges")
        if any(abs(float(w) - 1.0 / n) > 1e-12 for w in bundle.dist.weights):
            fails.append("pentagon: cycle edges do not carry uniform mass")
        if 0.2 < eps:
            fails.append("pentagon: certified distance 1/5 is below eps")
    return fails


def ordering_witness(bundle, verdict, crowd_cap: float) -> list[str]:
    """Re-verify a rejection witness against the instance's position array."""
    if verdict is None or verdict.decision != "reject":
        return []
    precedes = precedes_fn(bundle)
    w = verdict.witness
    kind = w[0]
    if bundle.family == "total-yes" and kind in ("adjacent_inversion", "long_edge", "triangle"):
        return [f"total-yes rejected with a {kind} witness {w}"]
    if kind == "adjacent_inversion":
        ok = not precedes(w[1], w[2])
    elif kind == "long_edge":
        ok = precedes(w[1], w[2]) and w[3] > w[4]
    elif kind == "triangle":
        _, u, v, x = w
        ok = precedes(u, v) and precedes(v, x) and precedes(x, u)
    elif kind == "overcrowded_block":
        ok = w[2] > crowd_cap
    else:
        ok = False
    if ok and bundle.family == "pentagon" and kind != "overcrowded_block":
        # cross-group comparisons follow the group order, so every directed
        # cycle, and every pair a cycle can invert, lies inside one group
        pos = {v: p for p, v in enumerate(bundle.params["order"])}
        ok = len({pos[x] // 5 for x in w[1:3] + (w[3:4] if kind == "triangle" else ())}) == 1
    return [] if ok else [f"{bundle.family}: witness {w} does not re-verify"]


# -- decision lists ------------------------------------------------------------

def eval_mdl_rule(rank: dict, nu, v: int) -> int:
    """Monotone list (pi, nu) on the string with backing integer v; rank maps a
    variable to its 0-based priority."""
    best = len(nu) - 1
    while v:
        low = v & -v
        best = min(best, rank[low.bit_length()])
        v ^= low
    return nu[best]


def eval_dl_rule(pi, mu, nu, v: int) -> int:
    """General list (pi, mu, nu): rule j fires when bit pi[j] of v equals mu."""
    for j, var in enumerate(pi):
        if (v >> (var - 1)) & 1 == mu[var - 1]:
            return nu[j]
    return nu[len(pi)]


def _rank(pi) -> dict:
    return {var: j for j, var in enumerate(pi)}


def certify_list(bundle, eps: float, monotonize=None) -> list[str]:
    """mdl-yes/dl-yes: the instance target agrees with the rule list on every
    support atom (and, for dl-yes, rep(x) = g(x xor r) for monotonize's (g, r)).
    groups4-no: per group, the two 0-valued and two 1-valued supported pairs
    have equal vector sums, so no halfspace (and no decision list) separates
    them; every group errs on a quarter of its mass."""
    fam = bundle.family
    atoms = [a.v for a in bundle.dist.atoms]
    fails = []
    if fam == "mdl-yes":
        rep = bundle.params["rep"]
        rank = _rank(rep.pi)
        bad = [v for v in atoms if eval_mdl_rule(rank, rep.nu, v) != bundle.target(v)]
        if bad:
            fails.append(f"mdl-yes: target disagrees with (pi, nu) on {len(bad)} atoms")
    elif fam == "dl-yes":
        rep = bundle.params["rep"]
        want = [eval_dl_rule(rep.pi, rep.mu, rep.nu, v) for v in atoms]
        if any(w != bundle.target(v) for w, v in zip(want, atoms)):
            fails.append("dl-yes: target disagrees with (pi, mu, nu)")
        g, r = monotonize(rep)
        rank = _rank(g.pi)
        if any(w != eval_mdl_rule(rank, g.nu, v ^ r.v) for w, v in zip(want, atoms)):
            fails.append("dl-yes: rep(x) != g(x xor r) on the support")
    elif fam == "groups4-no":
        rank = _rank(bundle.params["pi"])
        half = bundle.n // 2
        groups: dict[int, tuple[list, list]] = {}
        for v in atoms:
            low = v & -v
            ranks = [rank[low.bit_length()], rank[(v ^ low).bit_length()]]
            keys = {(r - half) // 4 for r in ranks if r >= half}
            if v.bit_count() != 2 or len(keys) != 1 or min(ranks) < half:
                fails.append("groups4-no: a support atom is not a pair inside one group")
                break
            groups.setdefault(keys.pop(), ([], []))[bundle.target(v)].append(v)
        for key, (zeros, ones) in sorted(groups.items()):
            if len(zeros) != 2 or len(ones) != 2 or sum(zeros) != sum(ones):
                fails.append(f"groups4-no: group {key} does not block every halfspace")
                break
        if len(groups) != (bundle.n - half) // 4:
            fails.append("groups4-no: some group carries no support")
        if any(abs(float(w) - 1.0 / len(atoms)) > 1e-12 for w in bundle.dist.weights):
            fails.append("groups4-no: atoms do not carry uniform mass")
        if 0.25 < eps:
            fails.append("groups4-no: certified distance 1/4 is below eps")
    else:
        fails.append(f"no certificate check for family {fam!r}")
    return fails


# -- the collision lab -------------------------------------------------------

def cover_mass(exp) -> float:
    """Minimum cover mass of the lab's two (hyper)graph shapes, by their closed
    forms: a complete bipartite graph is covered by its lighter side, and
    pairwise disjoint hyperedges each need their lightest vertex."""
    if exp.right is not None:
        left = {u for u, _ in exp.edges}
        right = {w for _, w in exp.edges}
        if len(exp.edges) != len(left) * len(right):
            raise ValueError("closed form needs a complete bipartite graph")
        return min(sum(exp.left[u] for u in left), sum(exp.right[w] for w in right))
    seen = set()
    total = 0.0
    for e in exp.edges:
        if seen & set(e):
            raise ValueError("closed form needs disjoint hyperedges")
        seen |= set(e)
        total += min(exp.left[v] for v in e)
    return total


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=0.0, abs_tol=1e-12)

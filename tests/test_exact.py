import itertools

import pytest

from sublintest.core import BitString, FiniteDistribution, PairDistribution, SeededRng
from sublintest.dlmodel import GeneralDLRep, MonotoneDLRep, eval_mdl, random_mdl
from sublintest.exact import (MAX_DL_N, SizeRefusal, dist_dl, dist_mdl, dist_total_orderings,
                              min_vertex_cover_weight)


def brute_order_distance(n, less, d):
    best = float("inf")
    for perm in itertools.permutations(range(1, n + 1)):
        pos = {v: i for i, v in enumerate(perm)}
        cost = sum(w for (u, v), w in zip(d.pairs, d.weights)
                   if (pos[u] < pos[v]) != less(u, v))
        best = min(best, cost)
    return best


def test_acyclic_tournament_distance_zero():
    d = PairDistribution.uniform(5, [(1, 2), (2, 3), (3, 5)])
    report = dist_total_orderings(5, lambda u, v: u < v, d)
    assert report.distance == pytest.approx(0.0)


def test_directed_triangle_one_third():
    # 1 < 2, 2 < 3, 3 < 1
    orient = {(1, 2): True, (2, 3): True, (1, 3): False}

    def less(u, v):
        return orient[(u, v)] if (u, v) in orient else not orient[(v, u)]

    d = PairDistribution.uniform(3, [(1, 2), (2, 3), (1, 3)])
    report = dist_total_orderings(3, less, d)
    assert report.distance == pytest.approx(1 / 3)


def test_pentagon_group_exact_one_fifth():
    from sublintest.instances import gen_pentagon
    bundle = gen_pentagon(5, SeededRng(12))
    report = dist_total_orderings(5, bundle.less, bundle.dist)
    assert report.distance == pytest.approx(0.2)


def test_dp_matches_brute_force():
    rng = SeededRng(77)
    for trial in range(12):
        n = 4 + rng.integer(0, 4)  # up to 7
        orient = {}
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                orient[(u, v)] = bool(rng.coin())

        def less(u, v):
            return orient[(u, v)] if u < v else not orient[(v, u)]

        pairs = [p for p in orient if rng.random() < 0.7] or list(orient)[:1]
        raw = [0.2 + rng.random() for _ in pairs]
        total = sum(raw)
        d = PairDistribution(n, [(p, w / total) for p, w in zip(pairs, raw)])
        report = dist_total_orderings(n, less, d)
        assert report.distance == pytest.approx(brute_order_distance(n, less, d), abs=1e-12)
        # the witness ordering achieves the reported distance
        pos = {v: i for i, v in enumerate(report.witness)}
        achieved = sum(w for (u, v), w in zip(d.pairs, d.weights)
                       if (pos[u] < pos[v]) != less(u, v))
        assert achieved == pytest.approx(report.distance)


def test_order_size_refusal():
    d = PairDistribution.uniform(11, [(1, 2)])
    with pytest.raises(SizeRefusal):
        dist_total_orderings(11, lambda u, v: u < v, d)


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


def brute_list_distance(n, f, d, polarities):
    """Distance to the nearest list over every priority order pi and every
    polarity (None is the monotone class; an int mu_v has rule i fire when x_i
    equals bit i of mu_v).  For each pair the optimal rule values decompose per
    firing position, so the value vectors need no enumeration."""
    atom_vs = [a.v for a in d.atoms]
    masses = [float(w) for w in d.weights]
    values = [f(v) for v in atom_vs]
    best = None
    for pi in itertools.permutations(range(1, n + 1)):
        for mu_v in polarities:
            m0, m1 = _value_buckets(n, pi, atom_vs, masses, values, mu_v)
            dist = 0.0  # each slot predicts the value that disagrees with less mass
            for a, b in zip(m0, m1):
                dist += b if b <= a else a
            if best is None or dist < best:
                best = dist
    return best


def _random_list_case(rng, n):
    """A random table on a random support of at most 16 strings, weighted
    uniformly or at random."""
    table = [rng.coin() for _ in range(1 << n)]
    size = 1 + rng.integer(0, min(1 << n, 16))
    chosen = set()
    while len(chosen) < size:
        chosen.add(rng.integer(0, 1 << n))
    uniform = rng.coin()
    raw = [1.0 if uniform else 0.05 + rng.random() for _ in chosen]
    d = FiniteDistribution(n, [(BitString(n, v), w / sum(raw))
                               for v, w in zip(sorted(chosen), raw)])
    return (lambda v: table[v]), d


def _disagreement(rep, f, d):
    target = rep.target()
    return sum(float(w) for x, w in zip(d.atoms, d.weights) if target(x.v) != f(x.v))


def test_list_distances_match_the_enumerator():
    """The DP against the n!·2^n enumeration it replaced, on 380 random cases
    at n = 2..6; the enumeration of general lists at n = 6 (46,080 lists) runs
    on every sixteenth of those, so each class is compared on over 300 cases.
    Every witness is a list of its class that disagrees with f on exactly the
    reported mass."""
    rng = SeededRng(0xD15)
    for case in range(380):
        n = 2 + case % 5
        f, d = _random_list_case(rng, n)
        mdl, dl = dist_mdl(n, f, d), dist_dl(n, f, d)
        assert abs(mdl.distance - brute_list_distance(n, f, d, (None,))) <= 1e-12
        if n < 6 or case % 80 == 4:
            assert abs(dl.distance - brute_list_distance(n, f, d, range(1 << n))) <= 1e-12
        tag, pi, nu = mdl.witness
        assert tag == "mdl" and sorted(pi) == list(range(1, n + 1)) and len(nu) == n + 1
        assert abs(_disagreement(MonotoneDLRep(n, pi, nu), f, d) - mdl.distance) <= 1e-12
        tag, pi, mu, nu = dl.witness
        assert tag == "dl" and sorted(pi) == list(range(1, n + 1))
        assert len(mu) == n and len(nu) == n + 1 and set(mu + nu) <= {0, 1}
        assert abs(_disagreement(GeneralDLRep(n, pi, mu, nu), f, d) - dl.distance) <= 1e-12


def test_list_value_on_a_tie_is_one():
    # the first rule fires on 001 (f = 1) and 011 (f = 0), equal masses: a tie,
    # and the rule predicts 1, as the enumerator's b <= a did
    d = FiniteDistribution.uniform([BitString(3, v) for v in (1, 2, 3, 4)])
    report = dist_mdl(3, lambda v: int(v in (1, 2)), d)
    assert report.distance == pytest.approx(0.25)
    assert report.witness == ("mdl", (1, 2, 3), (1, 1, 0, 0))


def test_list_distance_refuses_widths_above_the_ceiling():
    n = MAX_DL_N + 1
    d = FiniteDistribution.uniform([BitString(n, 0), BitString(n, 3)])
    for dist in (dist_mdl, dist_dl):
        with pytest.raises(SizeRefusal):
            dist(n, lambda v: v & 1, d)


def test_dist_mdl_zero_for_true_list():
    rng = SeededRng(21)
    for _ in range(10):
        n = 2 + rng.integer(0, 3)
        rep = random_mdl(n, rng)
        atoms = [BitString(n, v) for v in range(1 << n)]
        d = FiniteDistribution.uniform(atoms)
        report = dist_mdl(n, rep.target(), d)
        assert report.distance == pytest.approx(0.0)


def test_dist_mdl_xor_quarter():
    # parity of two bits, uniform over the four strings
    d = FiniteDistribution.uniform([BitString(2, v) for v in range(4)])
    f = lambda v: (v ^ (v >> 1)) & 1
    report = dist_mdl(2, f, d)
    assert report.distance == pytest.approx(0.25)
    report_dl = dist_dl(2, f, d)
    assert report_dl.distance == pytest.approx(0.25)


def test_dist_dl_never_exceeds_dist_mdl():
    rng = SeededRng(31)
    for _ in range(60):
        n = 2 + rng.integer(0, 2)
        table = [rng.coin() for _ in range(1 << n)]
        f = lambda v, _t=table: _t[v]
        size = 1 + rng.integer(1, 1 << n)
        chosen = set()
        while len(chosen) < size:
            chosen.add(rng.integer(0, 1 << n))
        d = FiniteDistribution.uniform([BitString(n, v) for v in chosen])
        assert dist_dl(n, f, d).distance <= dist_mdl(n, f, d).distance + 1e-12


def test_dist_shrinks_when_disagreement_mass_shrinks():
    # parity is far from lists under the uniform distribution; removing mass
    # from the support can only keep the distance or lower it
    n = 3
    f = lambda v: (v ^ (v >> 1) ^ (v >> 2)) & 1
    atoms = [BitString(n, v) for v in range(8)]
    full = dist_mdl(n, f, FiniteDistribution.uniform(atoms)).distance
    assert full > 0
    half = dist_mdl(n, f, FiniteDistribution.uniform(atoms[:4])).distance
    assert half <= full + 1e-12


def test_vertex_cover_examples():
    assert min_vertex_cover_weight(["u", "v"], [("u", "v")],
                                   {"u": 0.3, "v": 0.5}) == pytest.approx(0.3)
    assert min_vertex_cover_weight(["u", "v"], [], {"u": 0.3, "v": 0.5}) == 0.0
    verts = [f"a{i}" for i in range(3)] + [f"b{i}" for i in range(3)]
    edges = [(f"a{i}", f"b{j}") for i in range(3) for j in range(3)]
    w = {v: 1 / 6 for v in verts}
    assert min_vertex_cover_weight(verts, edges, w) == pytest.approx(0.5)


def test_vertex_cover_matches_exhaustive():
    rng = SeededRng(41)
    for _ in range(15):
        nv = 4 + rng.integer(0, 5)
        verts = list(range(nv))
        edges = []
        for u in range(nv):
            for v in range(u + 1, nv):
                if rng.random() < 0.4:
                    edges.append((u, v))
        w = {v: 0.1 + rng.random() for v in verts}
        got = min_vertex_cover_weight(verts, edges, w)
        best = float("inf")
        for mask in range(1 << nv):
            cover = {v for v in verts if (mask >> v) & 1}
            if all(u in cover or v in cover for u, v in edges):
                best = min(best, sum(w[v] for v in cover))
        assert got == pytest.approx(best)


def test_vertex_cover_hyperedges():
    verts = list(range(6))
    edges = [(0, 1, 2), (3, 4, 5)]
    w = {v: 1.0 for v in verts}
    assert min_vertex_cover_weight(verts, edges, w) == pytest.approx(2.0)


def test_cover_size_refusal():
    verts = list(range(25))
    with pytest.raises(SizeRefusal):
        min_vertex_cover_weight(verts, [(0, 1)], {v: 1.0 for v in verts})

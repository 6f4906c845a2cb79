"""Materialize the pair-vertex cycle graph on a tiny planted instance and
check that every simple cycle matches at least one of the six patterns the
type stages look for."""

import pytest

from sublintest.core import SeededRng, unit
from sublintest.instances import gen_mdl_yes, gen_planted_violation
from sublintest.mdl import MdlConstants, MdlRun
from sublintest.oracles import Verdict


def build_graph(bundle, eps, seed):
    f = bundle.function_oracle()
    run = MdlRun(f, bundle.dist, eps, SeededRng(seed))
    out = run.preprocess()
    if isinstance(out, Verdict):
        return None
    sk, L = run.sk, run.L
    run = MdlRun.from_parts(f, None, eps, None, MdlConstants(), sk, L)
    n = bundle.n

    info = {}
    for i in range(1, n + 1):
        ell, fi = run.find_block_ex(unit(i, n))
        info[i] = (ell, fi)

    vertices = {}
    for x in bundle.dist.atoms:
        if x.v == 0:
            continue
        mi = run.max_index(x)
        if mi is None:
            continue
        w = frozenset(j for j in x.support() if info[j][1] != bundle.target(x.v))
        vertices[(mi, w)] = x
    edges = {}
    for (u, w1) in vertices:
        outs = []
        for (v, w2) in vertices:
            if v in w1 and info[u][1] != info[v][1]:
                outs.append((v, w2))
        edges[(u, w1)] = outs
    return run, info, vertices, edges, L


def simple_cycles(edges, cap=8):
    names = sorted(edges)
    seen = set()
    out = []

    def dfs(start, node, path):
        for nxt in edges[node]:
            if nxt == start and len(path) >= 2:
                key = frozenset(path)
                if key not in seen:
                    seen.add(key)
                    out.append(list(path))
            elif nxt not in path and len(path) < cap and nxt > start:
                dfs(start, nxt, path + [nxt])

    for v in names:
        dfs(v, v, [v])
    return out


def classify(cycle, info, run, target, L):
    nl = L.neighbors()
    types = set()
    blocks = [info[u][0] for u, _ in cycle]
    small = lambda b: b not in L and b not in nl
    if any(b in nl for b in blocks):
        types.add(0)
    m = len(cycle)
    pair_dominant = []
    for i in range(m):
        u = cycle[i][0]
        v = cycle[(i + 1) % m][0]
        bu, bv = info[u][0], info[v][0]
        if bv <= bu - 2:
            types.add(1)
        if bv == bu - 1 and bu in L and bv in L:
            types.add(2)
        label = target((1 << (u - 1)) | (1 << (v - 1)))
        dominant = label == info[u][1]
        pair_dominant.append(dominant)
        if abs(bu - bv) == 1 and small(bu) and small(bv) and not dominant:
            types.add(3)
    for i in range(m):
        u = cycle[i][0]
        v = cycle[(i + 1) % m][0]
        w = cycle[(i + 2) % m][0]
        bu, bv, bw = info[u][0], info[v][0], info[w][0]
        if (bw + 2 == bv + 1 == bu and small(bu) and small(bv) and small(bw)
                and pair_dominant[i] and pair_dominant[(i + 1) % m]):
            types.add(4)
    if (m >= 4 and all(small(b) for b in blocks) and all(pair_dominant)
            and max(blocks) == min(blocks) + 1):
        types.add(5)
    return types


def test_every_cycle_has_a_type():
    checked_cycles = 0
    for seed in range(80):
        rng = SeededRng(500, seed)
        base = gen_mdl_yes(8, 3, rng)
        try:
            bundle = gen_planted_violation(base, 1, 0.5, rng.derive(1))
        except Exception:
            continue
        built = build_graph(bundle, 0.25, seed)
        if built is None:
            continue
        run, info, vertices, edges, L = built
        for cycle in simple_cycles(edges):
            types = classify(cycle, info, run, bundle.target, L)
            assert types, f"unclassified cycle {cycle}"
            checked_cycles += 1
        if checked_cycles >= 12:
            break
    assert checked_cycles >= 3


def test_pushforward_masses_partition_unit():
    rng = SeededRng(501)
    bundle = gen_mdl_yes(32, 12, rng)
    f = bundle.function_oracle()
    run = MdlRun(f, bundle.dist, 0.25, rng.derive(1))
    out = run.preprocess()
    if isinstance(out, Verdict):
        pytest.skip("degenerate draw")
    sk, L = run.sk, run.L
    run = MdlRun.from_parts(f, None, 0.25, None, MdlConstants(), sk, L)
    total = 0.0
    for x, w in zip(bundle.dist.atoms, bundle.dist.weights):
        total += float(w)
        if x.v == 0:
            continue  # the star outcome
        run.max_index(x)  # nil or a vertex: both legal outcomes
    assert total == pytest.approx(1.0)

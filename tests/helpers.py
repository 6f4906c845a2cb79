"""Helpers shared by the test modules."""

from sublintest.core import BitString
from sublintest.mdl import DEFAULT_MDL, MdlRun, _or_all, _rep_search
from sublintest.oracles import DistSampler


def mdl_run(f, d, eps, rng, constants=DEFAULT_MDL, sk=None, L=None) -> MdlRun:
    """A run drawing from d on the rng its probes use, as monotone_dl_tester
    builds one; given a sketch sk and big-block set L, it starts from them."""
    sampler = DistSampler(d, rng, f.ledger)
    if sk is None:
        return MdlRun(f, sampler, eps, rng, constants)
    return MdlRun.from_parts(f, sampler, eps, rng, constants, sk, L)


def halving_per_level(g, or_range, c: int, y_v: int, b: int, sums=None) -> int:
    """mdl._halving with one query per level, the kept half inside y_v
    included: the reference for its rank, ledger and queries.  sums, when
    given, gets (ledger after the first query whose kept half adds nothing to
    y_v, ledger at the end), the span that _halving charges in one sum."""
    a, mark = 0, None
    while c > 1:
        half = c // 2
        w = or_range(a, a + half) | y_v
        if g.query_raw(w) == b:
            c = half
            if w == y_v and mark is None:
                mark = g.ledger.function_queries
        else:
            a += half
            c -= half
    if sums is not None and mark is not None:
        sums.append((mark, g.ledger.function_queries))
    return a


def find_rep(f, xs: list[BitString], ys: list[BitString]) -> BitString:
    """Some x in xs; when the target is a monotone list, its rule outranks
    every other rule fired in xs or ys."""
    return BitString(f.n, _rep_search(f, [x.v for x in xs], _or_all(y.v for y in ys)))

"""Per-step references for the ledger-preserving shortcuts of the MDL and DL
testers, and reference_mode(), which runs both testers on them.

A shortcut skips a query or a search that the written algorithm repeats and
charges what repeating it would.  Each reference here asks every such query
and charges it on its own, one query at a time, and otherwise has the exact
signature and the side effects of the program function it stands for.  So
this module, and nothing else, defines what a repeated query costs."""

from contextlib import contextmanager

from sublintest import dl, mdl
from sublintest.core import clamped_log2, unit
from sublintest.dl import DEFAULT_DL
from sublintest.mdl import BigBlockSet, MdlRun, _find_block_ex, _OrTree, sketch_mdl
from sublintest.oracles import Verdict


def halving_per_level(g, or_range, c: int, y_v: int, b: int) -> int:
    """mdl._halving with one query per level, the kept half inside y_v
    included."""
    a = 0
    while c > 1:
        half = c // 2
        if g.query_raw(or_range(a, a + half) | y_v) == b:
            c = half
        else:
            a += half
            c -= half
    return a


def extract_per_step(g, vs, vals):
    """mdl._extract one step per string: a step with both values alive
    queries the union twice (the halving search recomputes its own reference
    value) and then halving-searches one query per level, and once one value
    is left each step emits its next string with kth_alive(0)."""
    lists = ([v for v, b in zip(vs, vals) if b == 0], [v for v, b in zip(vs, vals) if b == 1])
    trees = (_OrTree(lists[0]), _OrTree(lists[1]))
    query = g.query_raw
    extracted = []
    for _ in range(len(vs)):
        if trees[0].alive and trees[1].alive:
            union_v = trees[0].or_all() | trees[1].or_all()
            b = query(union_v)
            tree = trees[b]
            query(union_v)
            a = halving_per_level(g, tree.or_range, tree.alive, trees[1 - b].or_all(), b)
        else:
            b = 0 if trees[0].alive else 1
            tree, a = trees[b], 0
        pos = tree.kth_alive(a)
        extracted.append((lists[b][pos], b))
        tree.remove(pos)
    return extracted


def preprocess_querying_twice(run: MdlRun) -> Verdict | None:
    """MdlRun.preprocess with every query asked: T is queried once for the
    mixed-value test and once more inside sketch_mdl."""
    T = [x for x in run.sampler.draw_set(run.sz.pre) if x.v != 0]
    vals = [run.f.query(x) for x in T]
    if len(set(vals)) < 2:
        return Verdict("accept")
    run.sk = sketch_mdl(run.f, T)
    if run.sk is None:
        return Verdict("reject", witness=("sketch_nil",))
    run.L = run._find_big_blocks()
    run.NL = run.L.neighbors()
    return None


def grow_per_draw(run: MdlRun) -> BigBlockSet:
    """MdlRun._find_big_blocks with one find-block search per drawn string."""
    n, eps, sz = run.f.n, run.eps, run.sz
    k = run.sk.k
    counters = {}
    for _ in range(sz.probes):
        ell, _ = run.find_block_ex(unit(run.rng.integer(1, n + 1), n))
        counters[ell] = counters.get(ell, 0) + 1
    thresh = 4.0 * clamped_log2(n) / eps
    big = BigBlockSet({ell for ell, cnt in counters.items() if cnt >= thresh}, k)
    exit_thresh = 5.0 * clamped_log2(n / eps)
    for _ in range(sz.rounds):
        nl = big.neighbors()
        hits = sum(run.find_block_ex(x)[0] in nl for x in run.sampler.draw_list(sz.inner))
        if hits < exit_thresh:
            break
        big = BigBlockSet(big.members | nl, k)
    return big


def own_index_table(check):
    """check_dl giving every attempt its own index-search table, as if each
    attempt searched for itself, where a round's attempts share one."""
    def check_dl(f, d, eps, r, rng, constants=DEFAULT_DL, searches=None):
        return check(f, d, eps, r, rng, constants)
    return check_dl


# -- the five cycle-pattern stages one by one --------------------------------
# Each stage written out on its own, with its own draws, record table and
# small-block test: the references for MdlRun.test_type1 .. test_type5.

def _info(run, xs, mi_only_big=False):
    out = {}
    for x in xs:
        if x.v in out:
            continue
        ell, fx = run.find_block_ex(x)
        mi = None
        if not mi_only_big or ell in run.L:
            mi = run.max_index(x)
        out[x.v] = (x, ell, fx, mi)
    return out


def _by_bit(info, keys):
    buckets = {}
    for v in keys:
        rec = info[v]
        for j in rec[0].support():
            buckets.setdefault(j, []).append(rec)
    return buckets


def _draw(run, m):
    return [x for x in run.sampler.draw_set(m) if x.v != 0]


def _small(run, ell):
    return ell not in run.L and ell not in run.NL


def type1_ref(run) -> Verdict:
    P = _draw(run, run.sz.m1)
    Q = _draw(run, run.sz.m1)
    info = _info(run, P + Q)
    p_by_bit = _by_bit(info, [x.v for x in P])
    for y in Q:
        _, ly, fy, mi = info[y.v]
        if mi is None:
            continue
        for x, lx, fx, _ in p_by_bit.get(mi, ()):
            if fx != fy and ly <= lx - 2:
                return Verdict("reject", witness=("type1", x.v, y.v, lx, ly, mi))
    return Verdict("accept")


def type2_ref(run) -> Verdict:
    P = _draw(run, run.sz.p2)
    Q = _draw(run, run.sz.q2)
    info = _info(run, P + Q, mi_only_big=True)
    p_by_bit = _by_bit(info, [x.v for x in P])
    for y in Q:
        _, ly, _, mi = info[y.v]
        if mi is None or ly not in run.L:
            continue
        for x, lx, _, _ in p_by_bit.get(mi, ()):
            if lx in run.L and ly == lx - 1:
                return Verdict("reject", witness=("type2", x.v, y.v, lx, ly, mi))
    return Verdict("accept")


def type3_ref(run) -> Verdict:
    P = _draw(run, run.sz.m1)
    Q = _draw(run, run.sz.m1)
    info = _info(run, P + Q)
    p_by_bit = _by_bit(info, [x.v for x in P])
    cap = run.sz.pair_cap
    partners = {}
    for y in Q:
        _, ly, fy, v = info[y.v]
        if v is None or not _small(run, ly):
            continue
        for x, lx, fx, u in p_by_bit.get(v, ()):
            if u is None or abs(lx - ly) != 1 or not _small(run, lx):
                continue
            if partners.get(x.v, 0) >= cap:
                continue
            partners[x.v] = partners.get(x.v, 0) + 1
            if run.f.query_raw((1 << (u - 1)) | (1 << (v - 1))) != fx:
                return Verdict("reject", witness=("type3", x.v, y.v, u, v))
    return Verdict("accept")


def type4_ref(run) -> Verdict:
    info = _info(run, _draw(run, run.sz.m4))
    buckets = {}
    for rec in info.values():
        if rec[3] is not None and _small(run, rec[1]):
            buckets.setdefault(rec[1], []).append(rec)
    cap = run.sz.pair_cap
    for ell in sorted(buckets):
        tops, mids, bots = buckets.get(ell), buckets.get(ell - 1), buckets.get(ell - 2)
        if not (tops and mids and bots):
            continue
        for y, _, fy, v in mids:
            up = None
            for x, _, fx, u in tops[:cap]:
                if run.f.query_raw((1 << (u - 1)) | (1 << (v - 1))) == fx:
                    up = (x, u)
                    break
            if up is None:
                continue
            for z, _, fz, w in bots[:cap]:
                if run.f.query_raw((1 << (v - 1)) | (1 << (w - 1))) == fy:
                    return Verdict("reject", witness=("type4", up[0].v, y.v, z.v, up[1], v, w))
    return Verdict("accept")


def type5_ref(run) -> Verdict:
    info = _info(run, _draw(run, run.sz.m5))
    buckets = {}
    for rec in info.values():
        if rec[3] is not None and _small(run, rec[1]):
            buckets.setdefault(rec[1], {}).setdefault(rec[3], rec[0])
    cap = run.sz.pair_cap
    for ell in sorted(buckets):
        top, bot = buckets.get(ell), buckets.get(ell - 1)
        if not top or not bot:
            continue
        a_items = list(top.items())[:cap]
        b_items = list(bot.items())[:cap]
        zeros, ones = [], []
        for u, _ in a_items:
            z_mask = o_mask = 0
            for idx, (w, _) in enumerate(b_items):
                if run.f.query_raw((1 << (u - 1)) | (1 << (w - 1))) == 0:
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
                    i2 = (m24 & -m24).bit_length() - 1
                    i4 = (m42 & -m42).bit_length() - 1
                    return Verdict("reject", witness=(
                        "type5",
                        (a_items[i1][1].v, b_items[i2][1].v, a_items[i3][1].v, b_items[i4][1].v),
                        (a_items[i1][0], b_items[i2][0], a_items[i3][0], b_items[i4][0])))
    return Verdict("accept")


STAGE_REFS = {1: type1_ref, 2: type2_ref, 3: type3_ref, 4: type4_ref, 5: type5_ref}


def swaps() -> list:
    """(owner, attribute, reference) for each shortcut reference_mode() swaps:
    the halving search, the extraction (both modules' bindings), preprocessing,
    big-block growth, block location and max index without their replay
    caches, and an index-search table of its own for each check_dl attempt."""
    return [
        (mdl, "_halving", halving_per_level),
        (mdl, "_extract", extract_per_step),
        (dl, "_extract", extract_per_step),
        (MdlRun, "preprocess", preprocess_querying_twice),
        (MdlRun, "_find_big_blocks", grow_per_draw),
        (MdlRun, "find_block_ex", lambda run, x: _find_block_ex(run.f, run.sk, x)),
        (MdlRun, "max_index", lambda run, x: run._max_index(x)),
        (dl, "check_dl", own_index_table(dl.check_dl))]


@contextmanager
def reference_mode():
    """Swap every ledger-preserving shortcut of mdl and dl for its reference,
    as listed by swaps().  Plain attribute writes, undone on exit, so a
    spawned worker process can enter it too.

    Left in place, each being what the program defines a repeat to cost, and
    pinned by its own test:
    - the recording view's record, which answers a repeat without evaluating
      and still charges it (test_dl.py::test_recording_oracle_keeps_first_queries_in_order);
    - the DL target memo (test_dl.py::test_decision_list_tester_memo_evaluates_each_string_once);
    - the hybrid view charging its second base query inside its target
      (test_dl.py::test_hybrid_function_cases);
    - draw_set's multinomial path (test_oracles.py::test_dist_sampler_draw_set_fixed_seed_outputs);
    - the early round stop, which moves the ledger
      (test_dl.py::test_full_round_reference_on_seeded_trials, against _full_round_tester)."""
    swapped = swaps()
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in swapped]
    try:
        for owner, name, ref in swapped:
            setattr(owner, name, ref)
        yield
    finally:
        for owner, name, program in saved:
            setattr(owner, name, program)

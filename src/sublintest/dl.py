"""Tester for general decision lists: majority amplification of the monotone
tester, pivot-relative index search, and the candidate-shift reduction."""

from __future__ import annotations

from dataclasses import dataclass

from .core import BitString, FiniteDistribution, SeededRng, ceil_pos, clamped_log2, const
from .oracles import DistSampler, FunctionOracle, PreconditionViolated, Verdict, accounted
from .mdl import DEFAULT_MDL, MdlConstants, MdlRun, _extract, _runs, budget_mdl


@dataclass(frozen=True)
class DlConstants:
    mdl: MdlConstants = DEFAULT_MDL
    t_amplify: int | None = const(None, "t_amplify")  # default: ceil(6 * log2 n)
    outer_factor: float = const(100.0, "c_outer")  # rounds: ceil(outer_factor / eps)
    # per-round runs: ceil(inner_factor * log2(n/eps))
    inner_factor: float = const(100.0, "c_inner")
    accept_threshold: float | None = const(None, "c_accept_threshold")  # default: log2(n/eps)
    # absolute overrides for scaled-down runs
    outer_rounds: int | None = const(None, "outer_rounds")
    inner_rounds: int | None = const(None, "inner_rounds")
    dist_rounds_factor: float = 10.0    # hybrid-distance stage: ceil(10 log2 n / eps)
    dist_reject_factor: float = 2.0     # reject when count >= 2 log2(n) / eps
    # "full" | "light": strings replayed into the sketch
    sketch_source: str = const("full", "sketch_source")
    light_weight_cap: int = 6

    def __post_init__(self):
        if self.sketch_source not in ("full", "light"):
            raise ValueError(f"sketch_source must be 'full' or 'light', got {self.sketch_source!r}")


DEFAULT_DL = DlConstants()


def _amplify_count(n: int, constants: DlConstants) -> int:
    if constants.t_amplify is not None:
        return max(1, constants.t_amplify)
    return ceil_pos(6.0 * clamped_log2(n))


def _rounds(n: int, eps: float, constants: DlConstants) -> tuple[int, int]:
    """(outer rounds, check_dl attempts per round) of decision_list_tester."""
    outer = constants.outer_rounds
    if outer is None:
        outer = ceil_pos(constants.outer_factor / eps)
    inner = constants.inner_rounds
    if inner is None:
        inner = ceil_pos(constants.inner_factor * clamped_log2(n / eps))
    return outer, inner


def _dist_rounds(n: int, eps: float, constants: DlConstants) -> int:
    """Draws of test_dl's hybrid-distance stage."""
    return ceil_pos(constants.dist_rounds_factor * clamped_log2(n) / eps)


@accounted
def monotone_dl_amplified(f: FunctionOracle, sampler, eps: float, rng: SeededRng,
                          constants: DlConstants = DEFAULT_DL) -> Verdict:
    """Majority vote over monotone-tester runs that share the sampler, each
    charging its draws, and probe on independent streams.  Stops as soon as
    either side holds a majority; with one run it is the plain tester."""
    t = _amplify_count(f.n, constants)
    need = t // 2 + 1
    accepts = rejects = 0
    last_reject = None
    for i in range(t):
        v = MdlRun(f, sampler, eps, rng.derive(i), constants.mdl).execute()
        if v.accepted:
            accepts += 1
        else:
            rejects += 1
            last_reject = v
        if accepts >= need or rejects >= need:
            break
    decision = "accept" if accepts >= rejects else "reject"
    return Verdict(decision, witness=None if decision == "accept" else
                   (last_reject.witness if last_reject else None))


class _RecordingOracle(FunctionOracle):
    """Shifted view g(x) = f(x xor r) that records every distinct queried
    string in first-query order, together with its value."""

    __slots__ = ("base", "shift_v", "seen")

    def __init__(self, base: FunctionOracle, r: BitString):
        self.n = base.n
        self.base = base
        self.shift_v = r.v
        self.ledger = base.ledger
        self.seen = {}  # insertion-ordered: first-query order

    def query(self, x: BitString) -> int:
        return self.query_raw(x.v)

    def query_raw(self, v: int) -> int:
        out = self.base.query_raw(v ^ self.shift_v)
        self.seen.setdefault(v, out)
        return out


class HybridFunction(FunctionOracle):
    """The pivot-truncated view used by test_dl: in shifted coordinates
    g(x) = f(x xor z), and h keeps g's value except on opposite-value strings
    that the pivot image r xor z dominates, which are forced back to f(r).
    Each evaluation costs at most two base queries (plus one query for the
    pivot value at construction)."""

    __slots__ = ("base", "z_v", "pivot_v", "pivot_value")

    def __init__(self, base: FunctionOracle, r: BitString, z: BitString):
        self.n = base.n
        self.base = base
        self.ledger = base.ledger
        self.z_v = z.v
        self.pivot_v = r.v ^ z.v
        self.pivot_value = base.query(r)

    def g_raw(self, v: int) -> int:
        return self.base.query_raw(v ^ self.z_v)

    def query_raw(self, v: int) -> int:
        gv = self.base.query_raw(v ^ self.z_v)
        if gv == self.pivot_value:
            return gv
        # g(x) != b: keep it only when x dominates the pivot image
        if self.base.query_raw((v | self.pivot_v) ^ self.z_v) == gv:
            return gv
        return self.pivot_value

    def query(self, x: BitString) -> int:
        return self.query_raw(x.v)


def index_search(f: FunctionOracle, r: BitString, y: BitString) -> int | None:
    """Deterministic two-phase halving search for an index i in the support of
    y xor r whose flip changes f(r).  Returns the index or None."""
    fr = f.query(r)
    fy = f.query(y)
    if fr == fy:
        raise PreconditionViolated("index_search needs f(r) != f(y)")
    rv = r.v
    n = f.n

    def _or_bits(idxs) -> int:
        v = 0
        for i in idxs:
            v |= 1 << (i - 1)
        return v

    def halving(idxs):
        """Descend while the g-value stays opposite; returns (index, trail) or
        (None, trail) with the visited-set trail for the fallback phase."""
        cur = idxs
        trail = [cur]
        while len(cur) > 1:
            half = (len(cur) + 1) // 2
            first, second = cur[:half], cur[half:]
            if f.query_raw(_or_bits(first) ^ rv) != fr:
                cur = first
            elif f.query_raw(_or_bits(second) ^ rv) != fr:
                cur = second
            else:
                return None, trail
            trail.append(cur)
        return cur[0], trail

    support = BitString(n, y.v ^ rv).support()
    found, trail = halving(support)
    if found is not None:
        return found
    for prev, cur in zip(trail, trail[1:]):
        gap = [i for i in prev if i not in cur]
        if gap and f.query_raw(_or_bits(gap) ^ rv) != fr:
            found, _ = halving(gap)
            return found
    return None


@accounted
def test_dl(f: FunctionOracle, sampler: DistSampler, eps: float,
            r: BitString, z: BitString, rng: SeededRng,
            constants: DlConstants = DEFAULT_DL) -> Verdict:
    """Estimate how far the shifted view is from its pivot truncation, then
    run the amplified monotone tester on the truncation at eps/2; both draw
    from sampler shifted by z."""
    n = f.n
    h = HybridFunction(f, r, z)
    shifted = sampler.shifted(z)
    rounds = _dist_rounds(n, eps, constants)
    cutoff = constants.dist_reject_factor * clamped_log2(n) / eps
    diff = 0
    for x in shifted.draw_list(rounds):
        gv = h.g_raw(x.v)
        if gv != h.pivot_value:
            if f.query_raw((x.v | h.pivot_v) ^ h.z_v) != gv:
                diff += 1
        if diff >= cutoff:
            break
    if diff >= cutoff:
        return Verdict("reject", witness=("hybrid_distance", diff, rounds))
    return monotone_dl_amplified(h, shifted, eps / 2.0, rng.derive(0x7D1), constants)


def _sketch_inputs(rec: _RecordingOracle, constants: DlConstants) -> list[int]:
    if constants.sketch_source == "light":
        cap = constants.light_weight_cap
        return [v for v in rec.seen if v and v.bit_count() <= cap]
    return [v for v in rec.seen if v]


def _extraction_replay(g: _RecordingOracle, vs: list[int]):
    """Rerun the sketch extraction on the recorded strings, stopping after the
    interval grouping (no consistency verification).  Returns the extraction
    sequence with values and the interval runs.  The strings' values come from
    the record, and their queries are charged at one base query each."""
    g.ledger.charge_queries(len(vs))
    extracted = _extract(g, vs, [g.seen[v] for v in vs])
    return extracted, _runs(extracted)


@accounted
def check_dl(f: FunctionOracle, d: FiniteDistribution, eps: float, r: BitString,
             rng: SeededRng, constants: DlConstants = DEFAULT_DL) -> Verdict:
    """One acceptance attempt for the pivot candidate r: test the shifted view
    directly, then search the replayed sketch for a better shift."""
    n = f.n
    rec = _RecordingOracle(f, r)
    base_sampler = DistSampler(d, rng, f.ledger)
    shifted = base_sampler.shifted(r)
    v1 = monotone_dl_amplified(rec, shifted, eps, rng.derive(0xA1), constants)
    if v1.accepted:
        return Verdict("accept")

    b = f.query(r)
    source = _sketch_inputs(rec, constants)
    if not source or all(rec.seen[v] == rec.seen[source[0]] for v in source):
        return Verdict("reject", witness=("no_mixed_values",))
    extracted, runs = _extraction_replay(rec, source)

    opp = [v for v, val in extracted if val != b]
    if not opp:
        return Verdict("reject", witness=("no_opposite_strings",))
    x_star = opp[-1]
    v2 = test_dl(f, base_sampler, eps, r, BitString(n, x_star ^ r.v), rng.derive(0xA2),
                 constants)
    if v2.accepted:
        return Verdict("accept")

    last_opp = None
    last_same = None
    for members, val in runs:
        if val == b:
            last_same = members
        else:
            last_opp = members
    if last_opp is None or last_same is None:
        return Verdict("reject", witness=("no_final_intervals",))

    results = []
    for xv in last_opp:
        idx = index_search(f, r, BitString(n, xv ^ r.v))
        results.append((xv, idx))
    nil_entries = [xv for xv, idx in results if idx is None]
    if nil_entries:
        z = BitString(n, nil_entries[0] ^ r.v)
        return test_dl(f, base_sampler, eps, r, z, rng.derive(0xA3), constants)
    for xv, idx in results:
        if any((yv >> (idx - 1)) & 1 for yv in last_same):
            flipped = BitString(n, r.v ^ (1 << (idx - 1)))
            return test_dl(f, base_sampler, eps, r, flipped, rng.derive(0xA4), constants)
    return Verdict("reject", witness=("no_candidate_shift",))


@accounted
def decision_list_tester(f: FunctionOracle, d: FiniteDistribution, eps: float,
                         rng: SeededRng, constants: DlConstants = DEFAULT_DL) -> Verdict:
    """Accept iff some sampled pivot wins enough acceptance attempts."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    n = f.n
    outer, inner = _rounds(n, eps, constants)
    threshold = constants.accept_threshold
    if threshold is None:
        threshold = clamped_log2(n / eps)
    sampler = DistSampler(d, rng, f.ledger)
    for rd in range(outer):
        r = sampler.draw()
        count = 0
        for j in range(inner):
            v = check_dl(f, d, eps, r, rng.derive((rd << 20) | j), constants)
            if v.accepted:
                count += 1
            # once the threshold is reached the round's verdict cannot change
            if count >= threshold:
                break
        if count >= threshold:
            return Verdict("accept")
    return Verdict("reject", witness=("no_accepting_round",))


def budget_dl(n: int, eps: float, constants: DlConstants = DEFAULT_DL) -> tuple[int, int]:
    """Closed-form ceilings on function queries and on samples for one tester run."""
    outer, inner = _rounds(n, eps, constants)
    t = _amplify_count(n, constants)
    dist_rounds = _dist_rounds(n, eps, constants)
    mdl_q, mdl_s = budget_mdl(n, eps, constants.mdl)
    half_q, half_s = budget_mdl(n, eps / 2.0, constants.mdl)
    # every hybrid query costs at most 2 base queries, plus the pivot value
    test_dl_q = 1 + 3 * dist_rounds + 2 * t * half_q
    sketch_len = t * mdl_q  # no more recorded strings than queries
    replay = sketch_len * (ceil_pos(clamped_log2(max(sketch_len, 2))) + 3) + 4 * sketch_len
    search = sketch_len * (4 * ceil_pos(clamped_log2(n)) + 8)
    check_q = t * mdl_q + 1 + replay + search + 3 * test_dl_q
    check_s = t * mdl_s + 3 * (dist_rounds + t * half_s)
    return outer * inner * check_q, outer * (1 + inner * check_s)

"""Tester for general decision lists: majority amplification of the monotone
tester, pivot-relative index search, and the candidate-shift reduction."""

from __future__ import annotations

from dataclasses import dataclass

from .core import BitString, FiniteDistribution, SeededRng, ceil_pos, clamped_log2, const
from .oracles import DistSampler, FunctionOracle, Memo, PreconditionViolated, Verdict, accounted
from .mdl import DEFAULT_MDL, MdlConstants, MdlRun, _extract, _replayed, _runs, budget_mdl


@dataclass(frozen=True)
class DlConstants:
    mdl: MdlConstants = DEFAULT_MDL
    t_amplify: int | None = const(None, "t_amplify")  # default: ceil(6 * log2 n)
    accept_threshold: float | None = const(None, "c_accept_threshold")  # default: log2(n/eps)
    # rounds and per-round check_dl attempts; default: ceil(100 / eps), ceil(100 log2(n/eps))
    outer_rounds: int | None = const(None, "outer_rounds")
    inner_rounds: int | None = const(None, "inner_rounds")
    # "full" | "light": strings replayed into the sketch
    sketch_source: str = const("full", "sketch_source")

    def __post_init__(self):
        if self.sketch_source not in ("full", "light"):
            raise ValueError(f"sketch_source must be 'full' or 'light', got {self.sketch_source!r}")


DEFAULT_DL = DlConstants()


def _amplify_count(n: int, constants: DlConstants) -> int:
    if constants.t_amplify is not None:
        return max(1, constants.t_amplify)
    return ceil_pos(6.0 * clamped_log2(n))


# attempt j of round rd draws from rng.derive((rd << _ATTEMPT_BITS) | j)
_ATTEMPT_BITS = 20


def round_profile(n: int, eps: float, constants: DlConstants) -> tuple[int, int, float]:
    """(outer rounds, check_dl attempts per round, acceptance threshold) of
    decision_list_tester.  A round accepts once its accepted attempts reach the
    threshold, so a threshold above the attempts would reject every input:
    ValueError.  So do more attempts than _ATTEMPT_BITS can number, whose
    streams would repeat those of the next round."""
    outer, inner, threshold = (constants.outer_rounds, constants.inner_rounds,
                               constants.accept_threshold)
    outer = ceil_pos(100.0 / eps) if outer is None else outer
    inner = ceil_pos(100.0 * clamped_log2(n / eps)) if inner is None else inner
    threshold = clamped_log2(n / eps) if threshold is None else threshold
    if inner > 1 << _ATTEMPT_BITS:
        raise ValueError(f"the {inner} attempts of a round (inner_rounds) exceed "
                         f"2**{_ATTEMPT_BITS}, so their rng streams would repeat those "
                         f"of the next round")
    if threshold > inner:
        raise ValueError(f"the acceptance threshold {threshold:g} (c_accept_threshold, by "
                         f"default log2(n/eps)) exceeds the {inner} attempts of a round "
                         f"(inner_rounds), so no round could accept")
    return outer, inner, threshold


def _dist_rounds(n: int, eps: float) -> int:
    """Draws of test_dl's hybrid-distance stage."""
    return ceil_pos(10.0 * clamped_log2(n) / eps)


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
    if accepts >= rejects:
        return Verdict("accept")
    return Verdict("reject", witness=last_reject.witness)


class _RecordingOracle(FunctionOracle):
    """Shifted view g(x) = f(x xor r) that records every distinct queried
    string in first-query order, together with its value; a repeat is
    answered from the record."""

    __slots__ = ("shift_v", "seen")

    def __init__(self, base: FunctionOracle, r: BitString):
        target = base.target
        shift_v = self.shift_v = r.v
        # insertion-ordered: first-query order
        self.seen = Memo(lambda v: target(v ^ shift_v))
        super().__init__(base.n, self.seen.__getitem__, base.ledger)


class HybridFunction(FunctionOracle):
    """The pivot-truncated view used by test_dl: in shifted coordinates
    g(x) = f(x xor z), and h keeps g's value except on opposite-value strings
    that the pivot image r xor z dominates, which are forced back to f(r).
    Each evaluation costs at most two base queries (plus one query for the
    pivot value at construction); the target charges the second itself."""

    __slots__ = ("z_v", "pivot_value")

    def __init__(self, base: FunctionOracle, r: BitString, z: BitString):
        target, ledger = base.target, base.ledger
        z_v = self.z_v = z.v
        pivot_v = r.v ^ z_v
        b = self.pivot_value = base.query(r)

        def truncate(v: int) -> int:
            gv = target(v ^ z_v)
            if gv == b:
                return gv
            # g(x) != b: keep it only when x dominates the pivot image
            ledger.charge_queries()
            return gv if target((v | pivot_v) ^ z_v) == gv else b

        super().__init__(base.n, truncate, ledger)


def index_search(f: FunctionOracle, r: BitString, y: BitString) -> int | None:
    """Deterministic two-phase halving search for an index i in the support of
    y xor r whose flip changes f(r).  Returns the index or None."""
    fr = f.query(r)
    if fr == f.query(y):
        raise PreconditionViolated("index_search needs f(r) != f(y)")
    rv = r.v

    def _or_bits(idxs) -> int:
        return sum(1 << (i - 1) for i in idxs)  # distinct bits: the sum is the OR

    def halving(idxs):
        """Descend while the g-value stays opposite; returns (index, skipped)
        or (None, skipped), where skipped lists the half left behind at each
        level, for the fallback phase."""
        cur = idxs
        skipped = []
        while len(cur) > 1:
            half = (len(cur) + 1) // 2
            first, second = cur[:half], cur[half:]
            if f.query_raw(_or_bits(first) ^ rv) != fr:
                cur, other = first, second
            elif f.query_raw(_or_bits(second) ^ rv) != fr:
                cur, other = second, first
            else:
                return None, skipped
            skipped.append(other)
        return cur[0], skipped

    found, skipped = halving(BitString(f.n, y.v ^ rv).support())
    if found is not None:
        return found
    for gap in skipped:
        if f.query_raw(_or_bits(gap) ^ rv) != fr:
            return halving(gap)[0]
    return None


@accounted
def test_dl(f: FunctionOracle, sampler: DistSampler, eps: float,
            r: BitString, z: BitString, rng: SeededRng,
            constants: DlConstants = DEFAULT_DL) -> Verdict:
    """Estimate how far the shifted view is from its pivot truncation, then
    run the amplified monotone tester on the truncation at eps/2; both draw
    from sampler shifted by z.  f is used as given: a target memo, if any, is
    the caller's."""
    n = f.n
    h = HybridFunction(f, r, z)
    shifted = sampler.shifted(z)
    rounds = _dist_rounds(n, eps)
    cutoff = 2.0 * clamped_log2(n) / eps
    diff = 0
    for x in shifted.draw_list(rounds):
        # g(x) is charged here and h(x) charges only its second base query
        if f.query_raw(x.v ^ z.v) != h.target(x.v):
            diff += 1
        if diff >= cutoff:
            break
    if diff >= cutoff:
        return Verdict("reject", witness=("hybrid_distance", diff, rounds))
    return monotone_dl_amplified(h, shifted, eps / 2.0, rng.derive(0x7D1), constants)


def _extraction_replay(g: _RecordingOracle, vs: list[int]) -> list[tuple[list[int], int]]:
    """Rerun the sketch extraction on the recorded strings, stopping after the
    interval grouping (no consistency verification), and return its runs.
    The strings' values come from the record, and their queries are charged
    at one base query each."""
    g.ledger.charge_queries(len(vs))
    return _runs(_extract(g, vs, [g.seen[v] for v in vs]))


@accounted
def check_dl(f: FunctionOracle, d: FiniteDistribution, eps: float, r: BitString,
             rng: SeededRng, constants: DlConstants = DEFAULT_DL,
             searches: dict | None = None) -> Verdict:
    """One acceptance attempt for the pivot candidate r: test the shifted view
    directly, then search the replayed sketch for a better shift.  searches
    holds the index searches for r already run, {string: (index, queries
    charged)}; each is replayed at its recorded cost, and a new one is added.
    The attempts of a round share one; by default an attempt gets a fresh one.
    f is used as given: a target memo, if any, is the caller's."""
    n = f.n
    rec = _RecordingOracle(f, r)
    base_sampler = DistSampler(d, rng, f.ledger)
    shifted = base_sampler.shifted(r)
    v1 = monotone_dl_amplified(rec, shifted, eps, rng.derive(0xA1), constants)
    if v1.accepted:
        return Verdict("accept")

    b = f.query(r)
    weight = 6 if constants.sketch_source == "light" else n
    source = [v for v in rec.seen if v and v.bit_count() <= weight]
    if len({rec.seen[v] for v in source}) < 2:
        return Verdict("reject", witness=("no_mixed_values",))
    # source holds both values and the extraction emits each string once, so
    # the runs hold both values too, whichever value b is
    runs = _extraction_replay(rec, source)
    last_opp = next(members for members, val in reversed(runs) if val != b)
    last_same = next(members for members, val in reversed(runs) if val == b)

    # the last opposite-value string extracted ends the last opposite-value run
    x_star = BitString(n, last_opp[-1] ^ r.v)
    v2 = test_dl(f, base_sampler, eps, r, x_star, rng.derive(0xA2), constants)
    if v2.accepted:
        return Verdict("accept")

    searches = {} if searches is None else searches
    idxs = [_replayed(f.ledger, searches, xv, index_search, f, r, BitString(n, xv ^ r.v))
            for xv in last_opp]
    if None in idxs:
        z = BitString(n, last_opp[idxs.index(None)] ^ r.v)
        return test_dl(f, base_sampler, eps, r, z, rng.derive(0xA3), constants)
    for idx in idxs:
        if any((yv >> (idx - 1)) & 1 for yv in last_same):
            flipped = BitString(n, r.v ^ (1 << (idx - 1)))
            return test_dl(f, base_sampler, eps, r, flipped, rng.derive(0xA4), constants)
    return Verdict("reject", witness=("no_candidate_shift",))


@accounted
def decision_list_tester(f: FunctionOracle, d: FiniteDistribution, eps: float,
                         rng: SeededRng, constants: DlConstants = DEFAULT_DL) -> Verdict:
    """Accept iff some sampled pivot wins enough acceptance attempts.  The
    trial's views ask the same base strings again, so the base target is
    memoised once here and every view of the trial shares the memo."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    outer, inner, threshold = round_profile(f.n, eps, constants)
    f = FunctionOracle(f.n, Memo(f.target, 1 << 18).__getitem__, f.ledger)
    sampler = DistSampler(d, rng, f.ledger)
    for rd in range(outer):
        r = sampler.draw()
        count = 0
        searches = {}  # index_search is deterministic, and the round's attempts share r
        for j in range(inner):
            attempt_rng = rng.derive((rd << _ATTEMPT_BITS) | j)
            count += check_dl(f, d, eps, r, attempt_rng, constants, searches).accepted
            # the round is decided once count reaches the threshold or the
            # attempts left cannot take it there; each attempt draws from its
            # own derived stream, so skipping the rest moves no later draw
            if count >= threshold or count + (inner - 1 - j) < threshold:
                break
        if count >= threshold:
            return Verdict("accept")
    return Verdict("reject", witness=("no_accepting_round",))


def budget_dl(n: int, eps: float, constants: DlConstants = DEFAULT_DL) -> tuple[int, int]:
    """Closed-form ceilings on function queries and on samples for one tester run."""
    outer, inner, _ = round_profile(n, eps, constants)
    t = _amplify_count(n, constants)
    dist_rounds = _dist_rounds(n, eps)
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

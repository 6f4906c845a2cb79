"""Generators of benchmark instances: certified yes-cases, certified
far-cases (the pentagon ordering and the group-of-four boolean family), and
local violation plants targeting each cycle-pattern stage; and the family
table, which is the one definition of each family's tester, generator and
instance-file form."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .core import (BitString, FiniteDistribution, PairDistribution, SeededRng, check_permutation,
                   clamped_log2)
from .dlmodel import GeneralDLRep, MonotoneDLRep, random_mdl, table_target
from .exact import MAX_DL_N, dist_mdl
from .oracles import ComparisonOracle, FunctionOracle, Memo, QueryLedger


class PlantInfeasible(ValueError):
    """The requested violation cannot be placed in this base instance."""


def _cached(target, cap: int = 1 << 18):
    """Value-memoized view of a raw target; purely a speed device, the query
    ledger still charges per oracle call.  A hit runs no Python frame.
    Nothing under src/ calls it: function_oracle queries the target bare, and
    decision_list_tester keeps its own memo.  It stays because bench/tracer.py
    patches it by name."""
    return Memo(target, cap).__getitem__


@dataclass
class InstanceBundle:
    kind: str                 # "boolean" | "comparison"
    family: str
    n: int
    seed: int
    params: dict = field(default_factory=dict)
    dist: object = None       # FiniteDistribution | PairDistribution
    ground_truth: tuple = ("unknown",)
    certificate: str | None = None
    target: object = None     # raw int -> bit (boolean instances)
    less: object = None       # (u, v) with u < v -> bool (comparison instances)

    def function_oracle(self, ledger: QueryLedger | None = None) -> FunctionOracle:
        """An oracle over the bare target: every query evaluates it."""
        if self.kind != "boolean":
            raise ValueError(f"{self.family} is a {self.kind} instance, not a boolean function")
        return FunctionOracle(self.n, self.target, ledger)

    def comparison_oracle(self, ledger: QueryLedger | None = None) -> ComparisonOracle:
        if self.kind != "comparison":
            raise ValueError(f"{self.family} is a {self.kind} instance, not a comparison relation")
        return ComparisonOracle(self.n, self.less, ledger)


def _distinct_pairs(pool, count: int, rng: SeededRng, forbid=()) -> list[tuple[int, int]]:
    """count distinct unordered pairs (p, q), p < q, of members of pool, in the
    order first drawn.  Each try draws p, then q, uniformly from pool; a try
    with p == q, or whose pair was drawn before or is in forbid, is skipped."""
    pairs = {}
    while len(pairs) < count:
        p = pool[rng.integer(0, len(pool))]
        q = pool[rng.integer(0, len(pool))]
        pair = (p, q) if p < q else (q, p)
        if p != q and pair not in forbid:
            pairs[pair] = None
    return list(pairs)


def _pair_string(p: int, q: int) -> int:
    """The backing int of the weight-2 string that sets bits p and q."""
    return (1 << (p - 1)) | (1 << (q - 1))


# -- total orderings ---------------------------------------------------------

def _positions(order) -> list[int]:
    """0-based position of each vertex 1..n in order."""
    pos = [0] * (len(order) + 1)
    for p, v in enumerate(order):
        pos[v] = p
    return pos


def ordering_less(order):
    """The comparison relation of the total ordering that lists the vertices in order."""
    def less(u, v, _pos=_positions(order)):
        return _pos[u] < _pos[v]
    return less


def pentagon_less(order):
    """The pentagon relation on order: groups of five consecutive positions are
    ordered by position, and inside a group each vertex precedes the next two
    around the five-cycle."""
    def less(u, v, _pos=_positions(order)):
        pu, pv = _pos[u], _pos[v]
        gu, gv = pu // 5, pv // 5
        if gu != gv:
            return gu < gv
        return (pv - pu) % 5 in (1, 2)
    return less


def ordering_bundle(n: int, order, dist: PairDistribution, seed: int = 0,
                    **params) -> InstanceBundle:
    """The total ordering that lists the vertices in order, under dist."""
    order = check_permutation(order, n, "order")
    return InstanceBundle(kind="comparison", family="total-yes", n=n, seed=seed,
                          params={**params, "order": order}, dist=dist,
                          ground_truth=("yes",), less=ordering_less(order))


def gen_total_yes(n: int, support_size: int, rng: SeededRng) -> InstanceBundle:
    """Random total ordering with a random edge distribution."""
    if support_size > n * (n - 1) // 2:
        raise ValueError("support larger than the number of pairs")
    perm = rng.permutation(n)
    pairs = sorted(_distinct_pairs(range(1, n + 1), support_size, rng))
    raw = [0.5 + rng.random() for _ in pairs]
    total = sum(raw)
    dist = PairDistribution(n, [(p, w / total) for p, w in zip(pairs, raw)])
    return ordering_bundle(n, perm, dist, rng.stream_id, support_size=support_size)


def gen_pentagon(n: int, rng: SeededRng) -> InstanceBundle:
    """Groups of five on a random permutation: a five-cycle with chords inside
    each group, a global order across groups, and the distribution uniform on
    the five cycle edges of every group.  Every ordering must flip at least
    one cycle edge per group, so the instance is exactly 1/5-far."""
    return pentagon_from_order(n, rng.permutation(n), rng.stream_id)


def pentagon_from_order(n: int, order, seed: int = 0) -> InstanceBundle:
    """The pentagon instance on order; order also fixes the distribution."""
    if n % 5 != 0 or n < 5:
        raise ValueError("n must be a positive multiple of 5")
    order = check_permutation(order, n, "order")
    edges = []
    for k in range(n // 5):
        g = [order[5 * k + i] for i in range(5)]
        for i in range(5):
            a, b = g[i], g[(i + 1) % 5]
            edges.append((min(a, b), max(a, b)))
    dist = PairDistribution.uniform(n, edges)
    return InstanceBundle(kind="comparison", family="pentagon", n=n, seed=seed,
                          params={"order": order}, dist=dist,
                          ground_truth=("far", 0.2),
                          certificate="one cycle edge per group must flip; five edges per group",
                          less=pentagon_less(order))


# -- boolean yes-instances ---------------------------------------------------

def _weight2_atoms(n: int, support_size: int, rng: SeededRng) -> list[BitString]:
    if support_size > n * (n - 1) // 2:
        raise ValueError("support larger than the number of weight-2 strings")
    return [BitString(n, _pair_string(a, b))
            for a, b in _distinct_pairs(range(1, n + 1), support_size, rng)]


def list_bundle(family: str, rep, dist: FiniteDistribution, seed: int = 0,
                **params) -> InstanceBundle:
    """The decision list rep (a MonotoneDLRep or GeneralDLRep) under dist."""
    return InstanceBundle(kind="boolean", family=family, n=rep.n, seed=seed,
                          params={"rep": rep, **params}, dist=dist, ground_truth=("yes",),
                          target=rep.target())


def gen_mdl_yes(n: int, support_size: int, rng: SeededRng) -> InstanceBundle:
    """Random monotone list with a uniform distribution on random weight-2
    strings (low-weight supports keep the block structure nontrivial)."""
    rep = random_mdl(n, rng)
    dist = FiniteDistribution.uniform(_weight2_atoms(n, support_size, rng))
    return list_bundle("mdl-yes", rep, dist, rng.stream_id, support_size=support_size)


def gen_dl_yes(n: int, support_size: int, rng: SeededRng) -> InstanceBundle:
    """Random decision list whose polarity vector is mostly positive (a few
    negated variables), with a uniform weight-2 support."""
    pi = rng.permutation(n)
    zeros = max(1, rng.integer(1, max(2, int(clamped_log2(n)) + 1)))
    mu = [1] * n
    flipped = set()
    while len(flipped) < zeros:
        flipped.add(rng.integer(1, n + 1))
    for i in flipped:
        mu[i - 1] = 0
    nu = [rng.coin() for _ in range(n + 1)]
    rep = GeneralDLRep(n, pi, mu, nu)
    dist = FiniteDistribution.uniform(_weight2_atoms(n, support_size, rng))
    return list_bundle("dl-yes", rep, dist, rng.stream_id, support_size=support_size)


def gen_random_table(n: int, rng: SeededRng) -> InstanceBundle:
    """Uniformly random truth table with a uniform distribution on 2 to 2^n
    random distinct strings; its distance is unknown until computed exactly,
    so it is the far side of the tiny-width exact-oracle cross-check."""
    bits = [rng.coin() for _ in range(1 << n)]
    size = 2 + int(rng.integer(0, (1 << n) - 1))
    chosen = set()
    while len(chosen) < size:
        chosen.add(int(rng.integer(0, 1 << n)))
    atoms = [BitString(n, v) for v in sorted(chosen)]
    return table_bundle(n, bits, FiniteDistribution.uniform(atoms), rng.stream_id)


def table_bundle(n: int, bits, dist: FiniteDistribution, seed: int = 0) -> InstanceBundle:
    """The truth table bits (bits[v] is the value on backing int v) under dist."""
    bits = list(bits)
    if len(bits) != 1 << n or not set(bits) <= {0, 1}:
        raise ValueError("a truth table over n bits lists 2^n values in {0, 1}")
    return InstanceBundle(kind="boolean", family="table", n=n, seed=seed,
                          params={"bits": bits}, dist=dist, ground_truth=("unknown",),
                          target=table_target(bits))


# -- the group-of-four construction ------------------------------------------

def gen_groups4(n: int, rng: SeededRng, side: str) -> InstanceBundle:
    """Groups of four variables in the deep half of a random priority order.

    The yes side is a plain monotone list.  The no side flips the roles of the
    first and fourth member inside every group via a support-pattern override:
    it is the list (pi, nu) except where a group's first member fires and, of
    its other three members, only the fourth is set, which gives 1.  That makes
    the four supported pair-strings of each group impossible for any linear
    threshold function (midpoint argument), so the no side is at least 1/4-far
    under its distribution."""
    return groups4_from_pi(n, rng.permutation(n), side, seed=rng.stream_id)


# per side: the pairs of group members (0..3) that the group's four atoms
# join, the values of the group's four rules, the ground truth and certificate
_GROUPS4 = {"no": (((0, 1), (1, 2), (2, 3), (3, 0)), (0, 1, 0, 1), ("far", 0.25),
                   "per group, the four supported pair values block every halfspace"),
            "yes": (((0, 1), (0, 2), (1, 3), (2, 3)), (0, 1, 1, 0), ("yes",), None)}


def groups4_from_pi(n: int, pi, side: str, seed: int = 0) -> InstanceBundle:
    if side not in ("yes", "no"):
        raise ValueError("side must be 'yes' or 'no'")
    if n % 16 != 0 or n < 16:
        raise ValueError("n must be a positive multiple of 16")
    pi = tuple(pi)
    half = n // 2
    pairs, values, truth, cert = _GROUPS4[side]
    nu = [1] * half + list(values) * (half // 4) + [1]
    rep = MonotoneDLRep(n, pi, nu)

    if side == "yes":
        target = rep.target()
    else:
        def target(v, _nu=rep.nu, _min=rep.min_rank_raw, _pi=rep.pi, _half=half, _n=n):
            r = _min(v)  # 0-based firing position
            if _half <= r < _n and r % 4 == 0:
                b2 = (v >> (_pi[r + 1] - 1)) & 1
                b3 = (v >> (_pi[r + 2] - 1)) & 1
                b4 = (v >> (_pi[r + 3] - 1)) & 1
                if b4 and not b2 and not b3:
                    return 1
            return _nu[r]

    atoms = []
    for j0 in range(half, n, 4):
        e = [1 << (i - 1) for i in pi[j0:j0 + 4]]
        for k, (a, b) in enumerate(pairs):
            atoms.append(BitString(n, e[a] | e[b]))
            # the no side's pairs take 0, 1, 0, 1 around the group's cycle
            assert side == "yes" or target(e[a] | e[b]) == k % 2
    dist = FiniteDistribution.uniform(atoms)
    return InstanceBundle(kind="boolean", family=f"groups4-{side}", n=n, seed=seed,
                          params={"pi": pi, "nu": tuple(nu)}, dist=dist,
                          ground_truth=truth, certificate=cert, target=target)


# -- the family table and the instance file format ---------------------------

class Family(NamedTuple):
    tester: str | None   # the tester it is an instance for; None if not generated
    generate: object     # its generator on (n, support, rng); None if not generated
    over: str            # what its file's distribution is over: "strings" or "pairs"
    file_type: str       # the type of its instance file's function
    fields: tuple        # the function's other fields, read from params or params["rep"]
    build: object        # its constructor on a file's (n, *fields, distribution)


# one row per family.  The generators look up their gen_* name when called, so
# a wrapper that rebinds one here (as bench/tracer.py does) sees every build.
FAMILIES = {
    "total-yes": Family(
        "total", lambda n, s, rng: gen_total_yes(n, s, rng), "pairs", "ordering", ("order",),
        ordering_bundle),
    "pentagon": Family(
        "total", lambda n, s, rng: gen_pentagon(n, rng), "pairs", "pentagon", ("order",),
        lambda n, order, d: pentagon_from_order(n, order)),
    "mdl-yes": Family(
        "mdl", lambda n, s, rng: gen_mdl_yes(n, s, rng), "strings", "mdl", ("pi", "nu"),
        lambda n, pi, nu, d: list_bundle("mdl-yes", MonotoneDLRep(n, pi, nu), d)),
    "dl-yes": Family(
        "dl", lambda n, s, rng: gen_dl_yes(n, s, rng), "strings", "dl", ("pi", "mu", "nu"),
        lambda n, pi, mu, nu, d: list_bundle("dl-yes", GeneralDLRep(n, pi, mu, nu), d)),
    "groups4-yes": Family(
        "mdl", lambda n, s, rng: gen_groups4(n, rng, "yes"), "strings", "groups4-yes", ("pi",),
        lambda n, pi, d: groups4_from_pi(n, pi, "yes")),
    "groups4-no": Family(
        "mdl", lambda n, s, rng: gen_groups4(n, rng, "no"), "strings", "groups4-no", ("pi",),
        lambda n, pi, d: groups4_from_pi(n, pi, "no")),
    "table": Family(None, None, "strings", "table", ("bits",), table_bundle),
}


def lookup_family(name: str) -> Family:
    """The row of a generated family."""
    generated = [fam for fam, row in FAMILIES.items() if row.generate is not None]
    if name not in generated:
        raise ValueError(f"unknown family {name!r} (accepted: {', '.join(generated)})")
    return FAMILIES[name]


def generate(name: str, n: int, support: int | None, seed: int) -> InstanceBundle:
    """The instance of family name at width n; support defaults to n/2 within
    [4, 2048], cut to the n(n-1)/2 pairs or weight-2 strings a family draws from."""
    gen = lookup_family(name).generate
    if n < 2:
        raise ValueError("n must be at least 2")
    if support is None:
        support = min(max(4, min(2048, n // 2)), n * (n - 1) // 2)
    return gen(n, support, SeededRng(seed, 0xB00))


def save_bundle(bundle: InstanceBundle) -> dict:
    if bundle.family not in FAMILIES:
        raise ValueError(f"family {bundle.family!r} has no serialized form")
    row = FAMILIES[bundle.family]
    rep = bundle.params.get("rep")  # a list's fields are its rep's
    fn = {"type": row.file_type}
    for f in row.fields:
        fn[f] = list(bundle.params[f] if rep is None else getattr(rep, f))
    if row.over == "strings":
        dist = [{"x": x.to_hex(), "p": float(w)}
                for x, w in zip(bundle.dist.atoms, bundle.dist.weights)]
    else:
        dist = {"pairs": [{"u": u, "v": v, "p": float(w)}
                          for (u, v), w in zip(bundle.dist.pairs, bundle.dist.weights)]}
    return {"version": 1, "n": bundle.n, "function": fn, "distribution": dist}


def load_bundle(doc: dict) -> InstanceBundle:
    """The bundle an instance file describes, built by the constructor that its
    family's generator uses.  A malformed document raises ValueError."""
    try:
        if doc.get("version") != 1:
            raise ValueError("unsupported instance file version")
        n, fn, dist_doc = doc["n"], doc["function"], doc["distribution"]
        if not isinstance(n, int) or n < 2:
            raise ValueError("n must be an integer of at least 2")
        kind = fn["type"]
        row = next((row for row in FAMILIES.values() if row.file_type == kind), None)
        if row is None:
            raise ValueError(f"unknown function type {kind!r}")
        if not isinstance(dist_doc, dict if row.over == "pairs" else list):
            raise ValueError(f"function type {kind!r} needs a distribution over {row.over}")
        if row.over == "pairs":
            dist = PairDistribution(n, [((e["u"], e["v"]), e["p"]) for e in dist_doc["pairs"]])
        else:
            dist = FiniteDistribution(n, [(BitString.from_hex(n, e["x"]), e["p"])
                                          for e in dist_doc])
        bundle = row.build(n, *(fn[f] for f in row.fields), dist)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed instance file ({type(exc).__name__}: {exc})") from None
    # pentagon and groups4-* fix the distribution that their certificate is for
    if dist._mass != bundle.dist._mass:
        raise ValueError(f"the distribution of a {kind} instance is fixed by its function, "
                         f"and the file's differs")
    return bundle


# -- violation plants --------------------------------------------------------

# per windowed stage: the values forced on the window's ranks, the masked subcubes
# (a string whose bits are all set, and the bit cleared before the base list answers),
# the overridden pairs with their values, and the supported strings, as window offsets
_PLANTS = {
    # values 1,0,1,0 at the window; x = (3, 0) behaves like its deep index
    # because the early one is masked out on the whole above-cube.  The four
    # supported pairs close a dominance cycle, so every list errs on one
    # of them (distance at least a quarter of the planted mass).
    1: ((1, 0, 1, 0), [((3, 0), 0)], [], [(3, 0), (0, 1), (1, 2), (2, 3)]),
    3: ((1, 0, 0), [((0, 1, 2), 0)], [], [(0, 1, 2), (0, 1), (0, 2)]),
    # three samples carry indices at ranks a..a+2 paired with deeper
    # same-value partners, so extraction probes 4-bit strings and stays
    # natural while the two overridden pairs invert the index chain
    4: ((0, 1, 0, 0, 1, 0), [], [((2, 1), 0), ((1, 0), 1)], [(0, 3), (1, 4), (2, 5)]),
    # the two overrides close an alternating square
    5: ((0, 0, 1, 1), [], [((0, 3), 1), ((1, 2), 1)], [(0,), (1,), (2,), (3,)]),
}


def _free_window(rep: MonotoneDLRep, dist: FiniteDistribution, width: int) -> int:
    """Deepest run of `width` consecutive 0-based ranks unused by any atom's
    firing position (so value edits there leave the base support alone)."""
    used = {rep.min_rank_raw(a.v) for a in dist.atoms}
    n = rep.n
    for a in range(n - width, -1, -1):
        if all(r not in used for r in range(a, a + width)):
            return a
    raise PlantInfeasible("no free rank window of width %d" % width)


def _plant_target(rep: MonotoneDLRep, points: dict[int, int], subcubes):
    base = rep.target()

    def target(v, _base=base, _pts=points, _cubes=tuple(subcubes)):
        for mask, clear in _cubes:
            if v & mask == mask:
                return _base(v & ~clear)
        hit = _pts.get(v)
        if hit is not None:
            return hit
        return _base(v)

    return target


def gen_planted_violation(base: InstanceBundle, c: int, eps0: float,
                          rng: SeededRng) -> InstanceBundle:
    """Edit a yes monotone-list bundle on a mass-eps0 sub-support so that the
    cycle-pattern stage `c` has a witness to find.  Rank values inside a free
    window are forced, so everything outside the plant is untouched."""
    if base.family != "mdl-yes":
        raise PlantInfeasible("plants require an mdl-yes base bundle")
    if not 0 < eps0 < 1:
        raise ValueError("eps0 must lie in (0,1)")
    if c == 2:
        return _plant_type2(base, eps0, rng)
    if c not in _PLANTS:
        raise ValueError("plant type must be 1..5")
    values, cubes, overrides, supported = _PLANTS[c]
    rep: MonotoneDLRep = base.params["rep"]
    n = base.n
    a = _free_window(rep, base.dist, len(values))
    idx = list(rep.pi[a:a + len(values)])
    nu = list(rep.nu)
    nu[a:a + len(values)] = values

    def string(offsets) -> int:
        return sum(1 << (idx[o] - 1) for o in offsets)

    target = _plant_target(MonotoneDLRep(n, rep.pi, nu),
                           {string(pair): value for pair, value in overrides},
                           [(string(cube), string((cleared,))) for cube, cleared in cubes])
    dist = _merge_masses(n, base.dist, [string(s) for s in supported], eps0)

    truth = ("unknown",)
    cert = None
    if n <= MAX_DL_N:
        report = dist_mdl(n, target, dist)
        truth = ("far", report.distance) if report.distance > 0 else ("unknown",)
        cert = f"exact distance {report.distance:.6f} by dynamic programming"
    return InstanceBundle(kind="boolean", family=f"planted-type{c}", n=n,
                          seed=rng.stream_id,
                          params={"base_family": base.family, "window": a, "indices": idx},
                          dist=dist, ground_truth=truth, certificate=cert, target=target)


def _merge_masses(n: int, base_dist: FiniteDistribution, plant_vs: list[int],
                  eps0: float) -> FiniteDistribution:
    masses: dict[int, float] = {}
    for x, w in zip(base_dist.atoms, base_dist.weights):
        masses[x.v] = masses.get(x.v, 0.0) + float(w) * (1.0 - eps0)
    share = eps0 / len(plant_vs)
    for v in plant_vs:
        masses[v] = masses.get(v, 0.0) + share
    return FiniteDistribution(n, [(BitString(n, v), w) for v, w in masses.items()])


def _plant_type2(base: InstanceBundle, eps0: float, rng: SeededRng) -> InstanceBundle:
    """Two big adjacent blocks: values split into an early 0-half and a deep
    1-half, supported by early and deep pair strings.  One deep-looking
    carrier string keeps an early index via a single-point override; its mass
    is kept tiny so the carrier stays out of the preprocessing sample (any
    chain interval absorbing it would evaluate naturally and break the chain),
    yet the boosted first stage of the type-2 test still sees it."""
    rep: MonotoneDLRep = base.params["rep"]
    n = base.n
    if n < 8:
        raise PlantInfeasible("type-2 plant needs n >= 8")
    pi = rep.pi
    half = n // 2
    nu = [0] * half + [1] * (n - half) + [1]
    planted_rep = MonotoneDLRep(n, pi, nu)

    early = [pi[i] for i in range(half)]
    deep = [pi[i] for i in range(half, n)]
    u_i = deep[rng.integer(0, len(deep))]
    a = early[rng.integer(0, len(early))]
    b = early[rng.integer(0, len(early))]
    while b == a:
        b = early[rng.integer(0, len(early))]
    v_i, w_i = min(a, b), max(a, b)  # the halving meets the smaller index first
    ev, ew, eu = 1 << (v_i - 1), 1 << (w_i - 1), 1 << (u_i - 1)
    x = eu | ev
    y = ev | ew
    target = _plant_target(planted_rep, {x: 1}, [])

    def pair_fill(pool, count, forbid=()):
        return sorted(_pair_string(p, q) for p, q in _distinct_pairs(pool, count, rng, forbid))

    # y joins two early members; x joins a deep and an early one, so no pool draws it
    early_fill = pair_fill(early, min(48, half - 2), {(v_i, w_i)})
    deep_fill = pair_fill(deep, min(16, half - 2))
    carrier_mass = eps0 * 5e-5
    y_mass = eps0 - carrier_mass
    rest = 1.0 - eps0
    w_early = rest * (2.0 / 3.0) / len(early_fill)
    w_deep = rest * (1.0 / 3.0) / len(deep_fill)
    entries = [(BitString(n, x), carrier_mass), (BitString(n, y), y_mass)]
    entries += [(BitString(n, v), w_early) for v in early_fill]
    entries += [(BitString(n, v), w_deep) for v in deep_fill]
    dist = FiniteDistribution(n, entries)
    return InstanceBundle(kind="boolean", family="planted-type2", n=n,
                          seed=rng.stream_id,
                          params={"x": x, "y": y, "u": u_i, "v": v_i},
                          dist=dist, ground_truth=("unknown",), target=target)

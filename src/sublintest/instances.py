"""Generators of benchmark instances: certified yes-cases, certified
far-cases (the pentagon ordering and the group-of-four boolean family), and
local violation plants targeting each cycle-pattern stage."""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import BitString, FiniteDistribution, PairDistribution, SeededRng, clamped_log2
from .dlmodel import GeneralDLRep, MonotoneDLRep, random_mdl, table_target
from .exact import MAX_DL_N, dist_mdl
from .oracles import ComparisonOracle, FunctionOracle, QueryLedger


class PlantInfeasible(ValueError):
    """The requested violation cannot be placed in this base instance."""


class _Memo(dict):
    """Target values by backing int; a miss evaluates the target and keeps
    the value while fewer than cap are stored."""

    __slots__ = ("target", "cap")

    def __init__(self, target, cap: int):
        self.target = target
        self.cap = cap

    def __missing__(self, v: int) -> int:
        out = self.target(v)
        if len(self) < self.cap:
            self[v] = out
        return out


def _cached(target, cap: int = 1 << 18):
    """Value-memoized view of a raw target; purely a speed device, the query
    ledger still charges per oracle call.  A hit runs no Python frame."""
    return _Memo(target, cap).__getitem__


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
        if self.kind != "boolean":
            raise ValueError("not a boolean instance")
        return FunctionOracle(self.n, _cached(self.target), ledger)

    def comparison_oracle(self, ledger: QueryLedger | None = None) -> ComparisonOracle:
        if self.kind != "comparison":
            raise ValueError("not a comparison instance")
        return ComparisonOracle(self.n, self.less, ledger)

    @property
    def is_yes(self) -> bool:
        return self.ground_truth[0] == "yes"


# -- total orderings ---------------------------------------------------------

def gen_total_yes(n: int, support_size: int, rng: SeededRng) -> InstanceBundle:
    """Random total ordering with a random edge distribution."""
    if support_size > n * (n - 1) // 2:
        raise ValueError("support larger than the number of pairs")
    seed = rng.stream_id
    perm = rng.permutation(n)
    pos = [0] * (n + 1)
    for p, v in enumerate(perm):
        pos[v] = p

    pairs = set()
    while len(pairs) < support_size:
        u = rng.integer(1, n + 1)
        v = rng.integer(1, n + 1)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    pairs = sorted(pairs)
    raw = [0.5 + rng.random() for _ in pairs]
    total = sum(raw)
    dist = PairDistribution(n, [(p, w / total) for p, w in zip(pairs, raw)])

    def less(u, v, _pos=pos):
        return _pos[u] < _pos[v]

    return InstanceBundle(kind="comparison", family="total-yes", n=n, seed=seed,
                          params={"support_size": support_size, "order": perm},
                          dist=dist, ground_truth=("yes",), less=less)


def gen_pentagon(n: int, rng: SeededRng) -> InstanceBundle:
    """Groups of five on a random permutation: a five-cycle with chords inside
    each group, a global order across groups, and the distribution uniform on
    the five cycle edges of every group.  Every ordering must flip at least
    one cycle edge per group, so the instance is exactly 1/5-far."""
    if n % 5 != 0 or n < 5:
        raise ValueError("n must be a positive multiple of 5")
    seed = rng.stream_id
    perm = rng.permutation(n)
    pos = [0] * (n + 1)
    for p, v in enumerate(perm):
        pos[v] = p  # 0-based position

    def less(u, v, _pos=pos):
        pu, pv = _pos[u], _pos[v]
        gu, gv = pu // 5, pv // 5
        if gu != gv:
            return gu < gv
        return (pv - pu) % 5 in (1, 2)

    edges = []
    for k in range(n // 5):
        g = [perm[5 * k + i] for i in range(5)]
        for i in range(5):
            a, b = g[i], g[(i + 1) % 5]
            edges.append((min(a, b), max(a, b)))
    dist = PairDistribution.uniform(n, edges)
    return InstanceBundle(kind="comparison", family="pentagon", n=n, seed=seed,
                          params={"order": perm}, dist=dist,
                          ground_truth=("far", 0.2),
                          certificate="one cycle edge per group must flip; five edges per group",
                          less=less)


# -- boolean yes-instances ---------------------------------------------------

def _weight2_atoms(n: int, support_size: int, rng: SeededRng) -> list[BitString]:
    if support_size > n * (n - 1) // 2:
        raise ValueError("support larger than the number of weight-2 strings")
    seen = set()
    atoms = []
    while len(atoms) < support_size:
        a = rng.integer(1, n + 1)
        b = rng.integer(1, n + 1)
        if a == b:
            continue
        v = (1 << (a - 1)) | (1 << (b - 1))
        if v not in seen:
            seen.add(v)
            atoms.append(BitString(n, v))
    return atoms


def gen_mdl_yes(n: int, support_size: int, rng: SeededRng) -> InstanceBundle:
    """Random monotone list with a uniform distribution on random weight-2
    strings (low-weight supports keep the block structure nontrivial)."""
    seed = rng.stream_id
    rep = random_mdl(n, rng)
    dist = FiniteDistribution.uniform(_weight2_atoms(n, support_size, rng))
    return InstanceBundle(kind="boolean", family="mdl-yes", n=n, seed=seed,
                          params={"rep": rep, "support_size": support_size},
                          dist=dist, ground_truth=("yes",), target=rep.target())


def gen_dl_yes(n: int, support_size: int, rng: SeededRng) -> InstanceBundle:
    """Random decision list whose polarity vector is mostly positive (a few
    negated variables), with a uniform weight-2 support."""
    seed = rng.stream_id
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
    return InstanceBundle(kind="boolean", family="dl-yes", n=n, seed=seed,
                          params={"rep": rep, "support_size": support_size},
                          dist=dist, ground_truth=("yes",), target=rep.target())


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
    return InstanceBundle(kind="boolean", family="table", n=n, seed=rng.stream_id,
                          params={"bits": bits}, dist=FiniteDistribution.uniform(atoms),
                          ground_truth=("unknown",), target=table_target(bits))


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


def groups4_from_pi(n: int, pi, side: str, seed: int = 0) -> InstanceBundle:
    if side not in ("yes", "no"):
        raise ValueError("side must be 'yes' or 'no'")
    if n % 16 != 0 or n < 16:
        raise ValueError("n must be a positive multiple of 16")
    pi = tuple(pi)
    half = n // 2
    nu = [1] * (n + 1)
    for j0 in range(half, n, 4):  # j0 = 4k (0-based), positions j0+1..j0+4
        if side == "no":
            nu[j0] = 0      # position 4k+1
            nu[j0 + 1] = 1
            nu[j0 + 2] = 0  # position 4k+3
            nu[j0 + 3] = 1
        else:
            nu[j0] = 0
            nu[j0 + 1] = 1
            nu[j0 + 2] = 1
            nu[j0 + 3] = 0  # position 4k+4
    nu[n] = 1
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
        g = [pi[j0 + i] for i in range(4)]
        e = [1 << (i - 1) for i in g]
        if side == "no":
            four = [e[0] | e[1], e[1] | e[2], e[2] | e[3], e[3] | e[0]]
        else:
            four = [e[0] | e[1], e[0] | e[2], e[1] | e[3], e[2] | e[3]]
        atoms.extend(BitString(n, v) for v in four)
    dist = FiniteDistribution.uniform(atoms)

    if side == "no":
        for j0 in range(half, n, 4):
            g = [pi[j0 + i] for i in range(4)]
            e = [1 << (i - 1) for i in g]
            assert target(e[3] | e[0]) == 1 and target(e[1] | e[2]) == 1
            assert target(e[0] | e[1]) == 0 and target(e[2] | e[3]) == 0
        truth = ("far", 0.25)
        cert = "per group, the four supported pair values block every halfspace"
    else:
        truth = ("yes",)
        cert = None
    return InstanceBundle(kind="boolean", family=f"groups4-{side}", n=n, seed=seed,
                          params={"pi": pi, "nu": tuple(nu)}, dist=dist,
                          ground_truth=truth, certificate=cert, target=target)


# -- violation plants --------------------------------------------------------

_WINDOW = {1: 4, 3: 3, 4: 6, 5: 4}


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
    if c not in _WINDOW:
        raise ValueError("plant type must be 1..5")
    rep: MonotoneDLRep = base.params["rep"]
    n = base.n
    a = _free_window(rep, base.dist, _WINDOW[c])
    pi = rep.pi
    nu = list(rep.nu)
    idx = [pi[a + i] for i in range(_WINDOW[c])]
    e = [1 << (i - 1) for i in idx]

    points: dict[int, int] = {}
    subcubes = []
    if c == 1:
        # values 1,0,1,0 at the window; x behaves like its deep index because
        # the early one is masked out on the whole above-cube.  The four
        # supported pairs close a dominance cycle, so every list errs on one
        # of them (distance at least a quarter of the planted mass).
        nu[a], nu[a + 1], nu[a + 2], nu[a + 3] = 1, 0, 1, 0
        x = e[3] | e[0]
        y = e[0] | e[1]
        subcubes.append((x, e[0]))
        atoms = [x, y, e[1] | e[2], e[2] | e[3]]
    elif c == 3:
        nu[a], nu[a + 1], nu[a + 2] = 1, 0, 0
        x = e[0] | e[1] | e[2]
        y = e[0] | e[1]
        subcubes.append((x, e[0]))
        atoms = [x, y, e[0] | e[2]]
    elif c == 4:
        # three samples carry indices at ranks a..a+2 paired with deeper
        # same-value partners, so extraction probes 4-bit strings and stays
        # natural while the two overridden pairs invert the index chain
        nu[a:a + 6] = [0, 1, 0, 0, 1, 0]
        points[e[2] | e[1]] = 0
        points[e[1] | e[0]] = 1
        atoms = [e[0] | e[3], e[1] | e[4], e[2] | e[5]]
    else:  # c == 5
        nu[a], nu[a + 1], nu[a + 2], nu[a + 3] = 0, 0, 1, 1
        points[e[0] | e[3]] = 1  # the two overrides close an alternating square
        points[e[1] | e[2]] = 1
        atoms = [e[0], e[1], e[2], e[3]]

    planted_rep = MonotoneDLRep(n, pi, nu)
    target = _plant_target(planted_rep, points, subcubes)
    dist = _merge_masses(n, base.dist, atoms, eps0)

    truth = ("unknown",)
    cert = None
    if n <= MAX_DL_N:
        report = dist_mdl(n, target, dist)
        truth = ("far", report.distance) if report.distance > 0 else ("unknown",)
        cert = f"exact distance {report.distance:.6f} by enumeration"
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

    def pair_fill(pool, count, forbid):
        out = set()
        while len(out) < count:
            p = pool[rng.integer(0, len(pool))]
            q = pool[rng.integer(0, len(pool))]
            if p != q:
                v = (1 << (p - 1)) | (1 << (q - 1))
                if v not in forbid:
                    out.add(v)
        return sorted(out)

    early_fill = pair_fill(early, min(48, half - 2), {x, y})
    deep_fill = pair_fill(deep, min(16, half - 2), {x, y})
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

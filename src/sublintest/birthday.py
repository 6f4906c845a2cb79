"""Monte-Carlo experiments for the collision lemmas that justify the
testers' sample sizes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GuidedSearch, SeededRng
from .exact import min_vertex_cover_weight, MAX_COVER_V

NULL = "#"


@dataclass
class CollisionExperiment:
    """A (hyper)graph with vertex distributions and sample sizes.

    For bipartite experiments pass `left`/`right` vertex weight maps (the
    null symbol's weight is the remaining mass) and edges as (u, v) pairs.
    For k-uniform experiments pass a single `left` map and k-tuples."""

    edges: list
    left: dict
    right: dict | None = None
    m: int = 1
    m_prime: int = 1
    trials: int = 1000
    epsilon: float | None = None      # certified cover mass
    justification: str | None = None  # required when the cover is not recomputable

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")

    def certified_epsilon(self) -> float:
        """Cover mass recomputed exactly when small enough; otherwise the
        supplied value must come with an analytic justification."""
        verts = sorted(set(v for e in self.edges for v in e))
        weights = dict(self.left)
        if self.right:
            weights.update(self.right)
        if len(verts) <= MAX_COVER_V:
            return min_vertex_cover_weight(verts, self.edges, weights)
        if self.epsilon is None or not self.justification:
            raise ValueError("large experiments need epsilon plus a justification")
        return self.epsilon

    def in_regime_bipartite(self) -> bool:
        eps = self.certified_epsilon()
        n_left = len(set(e[0] for e in self.edges))
        return (self.m * self.m_prime >= 100 * n_left / eps ** 2
                and min(self.m, self.m_prime) >= 100 / eps)

    def in_regime_hypergraph(self) -> bool:
        eps = self.certified_epsilon()
        k = len(self.edges[0])
        n_v = len(set(v for e in self.edges for v in e))
        return self.m >= 10 * k * k * n_v ** ((k - 1) / k) / eps


def experiment_from_json(doc: dict) -> CollisionExperiment:
    """Load an experiment definition from the harness JSON shape:
    {"edges": [[u, v, ...], ...], "left": {...}, "right": {...} | null,
     "m": ..., "m_prime": ..., "trials": ..., "epsilon": ..., "justification": ...}.
    Refuses a field of the wrong JSON type, naming it, a weight outside
    [0, 1], an edge vertex without one and m < 1."""
    if not isinstance(doc, dict) or "edges" not in doc or "left" not in doc:
        raise ValueError("an experiment definition needs 'edges' and 'left'")
    edges, right = doc["edges"], doc.get("right") or None
    sides = (doc["left"],) if right is None else (doc["left"], right)
    counts = {k: doc.get(k, d) for k, d in (("m", 1), ("m_prime", 1), ("trials", 1000))}
    if not (isinstance(edges, list)
            and all(isinstance(e, list) and all(isinstance(v, str) for v in e) for e in edges)):
        raise ValueError("edges must be a list of lists of vertex names")
    if not all(isinstance(side, dict) for side in sides):
        raise ValueError("left and right must map vertex names to weights")
    if not all(type(w) in (int, float) and 0 <= w <= 1 for side in sides for w in side.values()):
        raise ValueError("every vertex weight must be a number in [0, 1]")
    for name, value in counts.items():
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer")
    if type(doc.get("epsilon")) not in (int, float, type(None)):
        raise ValueError("epsilon must be a number or null")
    if type(doc.get("justification")) not in (str, type(None)):
        raise ValueError("justification must be a string or null")
    exp = CollisionExperiment(edges=[tuple(e) for e in edges], left=dict(doc["left"]),
                              right=dict(right) if right else None, epsilon=doc.get("epsilon"),
                              justification=doc.get("justification"), **counts)
    for e in exp.edges:
        owners = sides * len(e) if exp.right is None else sides  # bipartite: (left, right)
        if any(v not in side for v, side in zip(e, owners)):
            raise ValueError(f"edge {list(e)} has a vertex without a weight")
    if exp.m < 1 or (exp.right is not None and exp.m_prime < 1):
        raise ValueError("m and, for a bipartite experiment, m_prime must be at least 1")
    return exp


def _draw_sets(weight_map: dict, m: int, trials: int, rng: SeededRng):
    """Per-trial boolean membership matrix over the listed vertices; leftover
    mass goes to the null symbol, whose extra last column is dropped.  Rows
    are filled one trial at a time from one stream, so memory stays at the
    matrix itself."""
    verts = sorted(weight_map)
    probs = np.array([weight_map[v] for v in verts], dtype=float)
    total = probs.sum()
    if total > 1 + 1e-9:
        raise ValueError("vertex weights exceed 1")
    # the null symbol's entry, index len(verts), takes every u past the listed mass
    search = GuidedSearch(np.append(np.cumsum(probs), np.inf))
    member = np.zeros((trials, len(verts) + 1), dtype=bool)
    for row in member:
        row[search(rng.random_block(m))] = True
    return verts, member[:, :-1]


def run_bipartite_birthday(exp: CollisionExperiment, rng: SeededRng) -> float:
    """Fraction of trials in which the two sampled sets span an edge."""
    if exp.right is None:
        raise ValueError("bipartite experiment needs both sides")
    lv, lmember = _draw_sets(exp.left, exp.m, exp.trials, rng)
    rv, rmember = _draw_sets(exp.right, exp.m_prime, exp.trials, rng)
    lpos = {v: i for i, v in enumerate(lv)}
    rpos = {v: i for i, v in enumerate(rv)}
    hit = np.zeros(exp.trials, dtype=bool)
    for u, w in exp.edges:
        hit |= lmember[:, lpos[u]] & rmember[:, rpos[w]]
    return float(hit.mean())


def run_hypergraph_birthday(exp: CollisionExperiment, rng: SeededRng) -> float:
    """Fraction of trials in which the sampled set contains a whole edge."""
    lv, member = _draw_sets(exp.left, exp.m, exp.trials, rng)
    pos = {v: i for i, v in enumerate(lv)}
    hit = np.zeros(exp.trials, dtype=bool)
    for e in exp.edges:
        cols = member[:, [pos[v] for v in e]]
        hit |= cols.all(axis=1)
    return float(hit.mean())


def run_classical_birthday(variant: str, probs: list[float], m: int, m_prime: int,
                           trials: int, rng: SeededRng, k: int = 3) -> float:
    """The plain collision statements: `bipartite` draws two sets over
    [n]+null and reports how often they share one of the first n outcomes;
    `hypergraph` draws one set over [n] x [k] slots (each row i has total
    mass k*probs[i]) and reports how often some row is fully covered."""
    n = len(probs)
    if variant == "bipartite":
        weight = {i: probs[i] for i in range(n)}
        return run_bipartite_birthday(CollisionExperiment(
            edges=[(i, i) for i in range(n)], left=weight, right=weight, m=m,
            m_prime=m_prime, trials=trials), rng)
    if variant == "hypergraph":
        weight = {(i, j): probs[i] for i in range(n) for j in range(k)}
        return run_hypergraph_birthday(CollisionExperiment(
            edges=[tuple((i, j) for j in range(k)) for i in range(n)], left=weight, m=m,
            trials=trials), rng)
    raise ValueError("variant must be 'bipartite' or 'hypergraph'")

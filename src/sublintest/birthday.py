"""Monte-Carlo experiments for the collision lemmas that justify the
testers' sample sizes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SeededRng
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
     "m": ..., "m_prime": ..., "trials": ..., "epsilon": ..., "justification": ...}."""
    return CollisionExperiment(
        edges=[tuple(e) for e in doc["edges"]],
        left=dict(doc["left"]),
        right=dict(doc["right"]) if doc.get("right") else None,
        m=int(doc.get("m", 1)),
        m_prime=int(doc.get("m_prime", 1)),
        trials=int(doc.get("trials", 1000)),
        epsilon=doc.get("epsilon"),
        justification=doc.get("justification"),
    )


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
    cum = np.cumsum(probs)
    member = np.zeros((trials, len(verts) + 1), dtype=bool)
    for row in member:
        # == len(verts) means the null symbol
        row[np.searchsorted(cum, rng.random_block(m), side="right")] = True
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
        _, a = _draw_sets(weight, m, trials, rng)
        _, b = _draw_sets(weight, m_prime, trials, rng)
        return float((a & b).any(axis=1).mean())
    if variant == "hypergraph":
        weight = {(i, j): probs[i] for i in range(n) for j in range(k)}
        verts, member = _draw_sets(weight, m, trials, rng)
        pos = {v: c for c, v in enumerate(verts)}
        hit = np.zeros(trials, dtype=bool)
        for i in range(n):
            cols = member[:, [pos[(i, j)] for j in range(k)]]
            hit |= cols.all(axis=1)
        return float(hit.mean())
    raise ValueError("variant must be 'bipartite' or 'hypergraph'")

"""Golden verdicts: the decision, witness and ledger of every tester on a
fixed-seed corpus, plus fixed-seed collision rates, compared byte for byte
against tests/data/golden_verdicts.json.

The file was written once with

    json.dumps(golden_corpus(), indent=1) + "\\n"

and is never regenerated.  A change that is meant to keep behaviour must
keep this text identical; a change that alters a verdict, a witness or a
query or sample count shows up here."""

import json
import pathlib

from sublintest.birthday import (CollisionExperiment, run_bipartite_birthday,
                                 run_classical_birthday, run_hypergraph_birthday)
from sublintest.core import SeededRng
from sublintest.dl import DlConstants, decision_list_tester
from sublintest.harness import RunConfig, build_instance
from sublintest.instances import gen_mdl_yes, gen_planted_violation
from sublintest.mdl import MdlConstants, MdlRun, monotone_dl_tester
from sublintest.oracles import QueryLedger
from sublintest.total_order import test_total_ordering as total_tester

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_verdicts.json"

DL_DESK = DlConstants(t_amplify=3, outer_rounds=6, inner_rounds=8, accept_threshold=3,
                      sketch_source="light")

# (family, n, eps, trials): tester trials through the harness's instances
TESTER_CORPUS = {
    "total": [("total-yes", 256, 0.1, 3), ("pentagon", 255, 0.1, 3)],
    "mdl": [("mdl-yes", 256, 0.1, 3), ("groups4-no", 256, 0.1, 3)],
    "dl": [("dl-yes", 64, 0.2, 4), ("groups4-no", 64, 0.2, 4)],
}

# stage c: (base n, base support, plant mass, eps, constants, trial, sketch
# source).  Types 1 and 3 are caught by preprocessing on their own plants, so
# type 1 uses a tiny width where its sketch survives and type 3 runs on the
# sketch of the untouched base list.
PLANTS = {
    1: (16, 8, 0.5, 0.3, MdlConstants(), 8, "plant"),
    2: (1024, 64, 0.9, 0.45, MdlConstants(t2_factor=2.0e6), 0, "plant"),
    3: (256, 64, 0.3, 0.15, MdlConstants(), 0, "base"),
    4: (256, 64, 0.3, 0.15, MdlConstants(), 0, "plant"),
    5: (256, 64, 0.3, 0.15, MdlConstants(), 0, "plant"),
}


def _record(verdict, ledger) -> dict:
    return {"decision": verdict.decision, "witness": verdict.witness,
            "queries": verdict.queries, "samples": verdict.samples,
            "ledger": [ledger.function_queries, ledger.samples_drawn]}


def _tester_trials() -> dict:
    out = {}
    for tester, rows in TESTER_CORPUS.items():
        for family, n, eps, trials in rows:
            cfg = RunConfig(tester=tester, family=family, n=n, eps=eps, seed=5)
            bundle = build_instance(cfg)
            for t in range(trials):
                ledger = QueryLedger()
                rng = SeededRng(5, 0).derive(t + 1)
                if tester == "total":
                    v = total_tester(bundle.comparison_oracle(ledger), bundle.dist, eps, rng)
                elif tester == "mdl":
                    v = monotone_dl_tester(bundle.function_oracle(ledger), bundle.dist,
                                           eps, rng)
                else:
                    v = decision_list_tester(bundle.function_oracle(ledger), bundle.dist,
                                             eps, rng, DL_DESK)
                out[f"{tester}/{family}/n{n}/t{t}"] = _record(v, ledger)
    return out


def _plant_trials() -> dict:
    """Each plant runs the full tester, then its own stage on a preprocessed
    sketch, so the stage's witness is pinned even when an earlier stage
    decides the full run."""
    out = {}
    for c, (n, support, eps0, eps, consts, trial, sketch_of) in PLANTS.items():
        rng = SeededRng(160 + c)
        base = gen_mdl_yes(n, support, rng.derive(trial))
        bundle = gen_planted_violation(base, c, eps0, rng.derive(700 + trial))
        ledger = QueryLedger()
        v = monotone_dl_tester(bundle.function_oracle(ledger), bundle.dist, eps,
                               rng.derive(1 + trial), consts)
        out[f"plant{c}/tester"] = _record(v, ledger)
        ledger = QueryLedger()
        source = bundle if sketch_of == "plant" else base
        run = MdlRun(source.function_oracle(ledger), source.dist, eps,
                     rng.derive(800 + trial), consts)
        v = run.preprocess()
        if v is None:
            stage = MdlRun.from_parts(bundle.function_oracle(ledger), bundle.dist, eps,
                                      rng.derive(900 + trial), consts, run.sk, run.L)
            v = stage.test_type(c)
        v.queries, v.samples = ledger.function_queries, ledger.samples_drawn
        out[f"plant{c}/stage"] = _record(v, ledger)
    return out


def _collision_rates() -> dict:
    size = 12
    bip = CollisionExperiment(
        edges=[(f"u{i}", f"v{(i * 5) % size}") for i in range(size)],
        left={f"u{i}": 0.6 / size for i in range(size)},
        right={f"v{i}": 0.7 / size for i in range(size)},
        m=9, m_prime=7, trials=400)
    hyper = CollisionExperiment(
        edges=[tuple(f"w{3 * g + j}" for j in range(3)) for g in range(5)],
        left={f"w{i}": 0.9 / 15 for i in range(15)}, m=11, trials=400)
    probs = [0.8 / 20] * 20
    return {
        "bipartite": run_bipartite_birthday(bip, SeededRng(31)),
        "hypergraph": run_hypergraph_birthday(hyper, SeededRng(32)),
        "classical_bipartite": run_classical_birthday("bipartite", probs, 4, 5, 500,
                                                      SeededRng(33)),
        "classical_hypergraph": run_classical_birthday("hypergraph", [0.9 / 60] * 20,
                                                       25, 0, 500, SeededRng(34)),
    }


def golden_corpus() -> dict:
    return {"testers": _tester_trials(), "plants": _plant_trials(),
            "collisions": _collision_rates()}


def test_golden_verdicts_byte_identical():
    expected = GOLDEN.read_text(encoding="utf-8")
    assert json.dumps(golden_corpus(), indent=1) + "\n" == expected

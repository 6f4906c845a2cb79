"""The program against reference_mode(), which asks and charges every query
the written algorithms repeat: on small whole trials the same rows, also
under budgets that end inside a recharge, and at acceptance scale the same
verdicts, witnesses and ledgers."""

import concurrent.futures
import dataclasses
import multiprocessing
import time

import pytest

from sublintest import harness
from sublintest.core import SeededRng
from sublintest.harness import RunConfig, build_instance, run_one_trial

from helpers import CRITERIA, DESK_CONSTS, GROWTH_TWINS, ChargeLog, mdl_run, run_tester
from reference import reference_mode, swaps


def _growth_config(i) -> RunConfig:
    """GROWTH_TWINS[i] as the harness runs it, by the tester of its family."""
    family, n, eps, seed, support = GROWTH_TWINS[i]
    dl = family == "dl-yes"
    return RunConfig(tester="dl" if dl else "mdl", family=family, n=n, eps=eps, seed=seed,
                     support_size=support, consts=DESK_CONSTS if dl else {})


def _args(corpus, t):
    """(tester, bundle, eps, trial rng) of trial t of a corpus: one of
    CRITERIA, or the harness's trial t on GROWTH_TWINS[corpus]."""
    if corpus in CRITERIA:
        return CRITERIA[corpus](t)
    cfg = _growth_config(corpus)
    return cfg.tester, build_instance(cfg), cfg.eps, SeededRng(cfg.seed, 0).derive(t + 1)


# (config, trial): small trials that between them recharge through every
# shortcut: GROWTH_TWINS[0] (trial 0 grows big blocks, trial 1 flags none,
# so max index searches small blocks; both replay block location and max
# index), MDL on groups4-no at n=256 (a covered run, and halving sums in the
# plain view), a DL trial on groups4-no under a smaller desk profile (the
# extraction through both DL views, the extraction replay, the round's index
# searches) and GROWTH_TWINS[1], whose big blocks grow in the recording view
G4_MDL = RunConfig(tester="mdl", family="groups4-no", n=256, eps=0.3, seed=1)
G4_DL = RunConfig(tester="dl", family="groups4-no", n=64, eps=0.25, seed=23,
                  consts={"t_amplify": 1, "outer_rounds": 4, "inner_rounds": 5,
                          "c_accept_threshold": 2, "sketch_source": "light"})
BUDGET_TRIALS = [(_growth_config(0), 0), (_growth_config(0), 1), (G4_MDL, 0), (G4_MDL, 1),
                 (G4_DL, 0), (_growth_config(1), 1)]

# (charging function, its caller, view) groups that BUDGET_TRIALS must reach
REACHED = {
    ("_halving", "_extract", "FunctionOracle"), ("_halving", "_extract", "_RecordingOracle"),
    ("_halving", "_extract", "HybridFunction"), ("_extract", "_sketch", "FunctionOracle"),
    ("_extract", "_sketch", "_RecordingOracle"), ("_extract", "_sketch", "HybridFunction"),
    ("_extract", "_extraction_replay", "_RecordingOracle"),
    ("preprocess", "execute", "FunctionOracle"),
    ("_find_big_blocks", "preprocess", "FunctionOracle"),
    ("replay", "find_block_ex", "FunctionOracle"), ("replay", "max_index", "FunctionOracle"),
    ("replay", "check_dl", "FunctionOracle")}


def _spread(logged):
    """The first, middle and last of the logged (config, bundle, trial,
    recharge), and the one that charges the most."""
    largest = max(range(len(logged)), key=lambda i: logged[i][3].amount)
    return [logged[i] for i in sorted({0, len(logged) // 2, len(logged) - 1, largest})]


def test_every_recharge_exhausts_a_budget_like_reference_mode(monkeypatch):
    """Small whole trials through run_one_trial, by the program and under
    reference_mode(): equal rows; under reference_mode() every charge is of
    one query and made by a query; every recharge charges something and is
    made or called by a function that reference_mode() swaps; and budgets at
    the first, middle and last query of a spread of each group's recharges
    leave both rows overbudget at the budget with equal samples."""
    ledgers = []

    def logged(query_budget=None):
        ledgers.append(ChargeLog(query_budget))
        return ledgers[-1]

    monkeypatch.setattr(harness, "QueryLedger", logged)

    def rows(cfg, bundle, trial):
        got = run_one_trial(cfg, bundle, trial)
        with reference_mode():
            want = run_one_trial(cfg, bundle, trial)
        del got["runtime_ms"], want["runtime_ms"]
        return got, want

    swapped = {name for _, name, _ in swaps()}
    groups = {}
    for cfg, trial in BUDGET_TRIALS:
        bundle = build_instance(cfg)
        got, want = rows(cfg, bundle, trial)
        program, ref = ledgers[-2:]
        unlisted = {rec[:2] for rec in program.recharges if not swapped & set(rec[:2])}
        assert not unlisted, f"(function, caller) recharging outside swaps(): {unlisted}"
        assert all(rec.amount > 0 for rec in program.recharges)
        # the max-index search never repeats: see the argument at _rep_search
        assert all(rec.caller != "_rep_search" for rec in program.recharges)
        assert got == want, (cfg, trial)
        assert not ref.recharges and ref.charge_calls == want["queries"], ref.recharges[:3]
        for rec in program.recharges:
            groups.setdefault(rec[:3], []).append((cfg, bundle, trial, rec))
    assert REACHED <= groups.keys(), REACHED - groups.keys()
    for key, logged in groups.items():
        for cfg, bundle, trial, rec in _spread(logged):
            for budget in {rec.before, rec.before + rec.amount // 2, rec.before + rec.amount - 1}:
                got, want = rows(dataclasses.replace(cfg, budget=budget), bundle, trial)
                assert got == want and got["verdict"] == "overbudget", (key, trial, budget)
                assert got["queries"] == budget, (key, trial, budget)


# criterion 3's and 4's first 20 trials on each side, criterion 4's dl-yes
# trial 56, which asks the most queries, and three trials of each GROWTH_TWINS
COMPARED = ([(corpus, t) for corpus in CRITERIA for t in range(20)] + [("c4-yes", 56)]
            + [(i, t) for i in range(len(GROWTH_TWINS)) for t in range(3)])


def _compare(case):
    """Decision, witness, queries and samples of the trial run by the program
    and again under reference_mode(), and the seconds each run took."""
    start = time.perf_counter()
    got = run_tester(*_args(*case))
    mid = time.perf_counter()
    with reference_mode():
        want = run_tester(*_args(*case))
    return ((got.decision, got.witness, got.queries, got.samples),
            (want.decision, want.witness, want.queries, want.samples),
            mid - start, time.perf_counter() - mid)


@pytest.mark.acceptance
def test_whole_testers_match_reference_mode():
    """Decision, witness, queries and samples are equal on every compared
    trial.  Two worker processes share the trials, as in criterion 4."""
    spawn = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(2, mp_context=spawn) as pool:
        results = list(pool.map(_compare, COMPARED))
    mismatches = [(case, got, want) for case, (got, want, _, _) in zip(COMPARED, results)
                  if got != want]
    print(f"\n{len(COMPARED)} trials, {len(mismatches)} mismatched; program "
          f"{sum(r[2] for r in results):.1f}s, reference mode {sum(r[3] for r in results):.1f}s")
    assert not mismatches, mismatches
    # GROWTH_TWINS[0]'s trial 0 flags a big block, so that max_index's
    # big-block branch and type 2's records are compared too
    _, bundle, eps, rng = _args(0, 0)
    run = mdl_run(bundle.function_oracle(), bundle.dist, eps, rng)
    assert run.preprocess() is None and run.L.members

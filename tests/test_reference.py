"""The program against reference_mode(), which asks and charges every query
the written algorithms repeat: one charge per query, and at acceptance scale
the same verdicts, witnesses and ledgers."""

import concurrent.futures
import multiprocessing
import sys
import time
from collections import Counter

import pytest

from sublintest.core import SeededRng
from sublintest.harness import RunConfig, build_instance
from sublintest.oracles import QueryLedger

from helpers import CRITERIA, GROWTH_TWINS, mdl_run, run_tester
from reference import reference_mode


def _args(corpus, t):
    """(tester, bundle, eps, trial rng) of trial t of a corpus: one of
    CRITERIA, or the harness's trial t on GROWTH_TWINS[corpus] by the tester
    of its family."""
    if corpus in CRITERIA:
        return CRITERIA[corpus](t)
    family, n, eps, seed, support = GROWTH_TWINS[corpus]
    bundle = build_instance(RunConfig(tester="mdl", family=family, n=n, eps=eps, seed=seed,
                                      support_size=support))
    return "mdl" if family == "mdl-yes" else "dl", bundle, eps, SeededRng(seed, 0).derive(t + 1)


def test_reference_mode_charges_every_query_on_its_own(monkeypatch):
    """A small MDL trial whose big blocks grow and a desk-profile DL trial
    whose rounds repeat index searches: under reference_mode() every charge
    is of one query and comes from a query, through FunctionOracle.query_raw
    or the hybrid view's target.  A shortcut added without a reference fails
    here, named by the function that charged."""
    calls, other = [0], Counter()
    charge = QueryLedger.charge_queries

    def counted(self, c=1):
        calls[0] += 1
        caller = sys._getframe(1).f_code.co_name
        if c != 1 or caller not in ("query_raw", "truncate"):
            other[caller, c] += 1
        charge(self, c)

    monkeypatch.setattr(QueryLedger, "charge_queries", counted)
    with reference_mode():
        run_tester(*_args(0, 0))
        run_tester(*_args("c4-no", 0))
    assert calls[0] and not other


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

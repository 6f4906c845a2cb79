"""Closed-form budgets: pinned values, one path through the harness, and a
ceiling that holds when a constant scales a stage's sample count."""

import pytest

from sublintest.core import SeededRng
from sublintest.dl import budget_dl
from sublintest.harness import RunConfig, budget_for
from sublintest.instances import gen_mdl_yes
from sublintest.mdl import MdlConstants, budget_mdl, monotone_dl_tester
from sublintest.oracles import QueryLedger
from sublintest.total_order import budget_total

from helpers import DESK_CONSTS, DL_DESK

# (queries, samples), as computed before stages and budgets shared their counts
PINNED = [
    (budget_total, None, 16, 0.3, (866305, 655)),
    (budget_total, None, 256, 0.15, (13722521, 3229)),
    (budget_total, None, 4096, 0.1, (123223320, 16360)),
    (budget_mdl, None, 16, 0.3, (38746441, 1279564)),
    (budget_mdl, None, 256, 0.15, (35121489266, 10109352)),
    (budget_mdl, None, 4096, 0.1, (10083721888000, 66135921)),
    (budget_dl, None, 16, 0.3, (15892139120946088, 88702120929910)),
    (budget_dl, None, 1024, 0.2, (1085468300186106996000, 3933624721770500)),
    (budget_dl, DL_DESK, 16, 0.3, (480626621616, 2776064406)),
    (budget_dl, DL_DESK, 256, 0.15, (555436772681952, 19971214422)),
    (budget_dl, DL_DESK, 4096, 0.1, (194061622095176160, 96597596742)),
]


@pytest.mark.parametrize("budget, constants, n, eps, want", PINNED)
def test_budget_values_are_pinned(budget, constants, n, eps, want):
    got = budget(n, eps) if constants is None else budget(n, eps, constants)
    assert got == want


@pytest.mark.parametrize("tester, budget", [("total", budget_total), ("mdl", budget_mdl),
                                            ("dl", budget_dl)])
def test_budget_for_is_the_testers_budget(tester, budget):
    assert budget_for(RunConfig(tester=tester, family="x", n=256, eps=0.15)) == budget(256, 0.15)
    desk = RunConfig(tester=tester, family="x", n=256, eps=0.15, consts=dict(DESK_CONSTS))
    want = budget(256, 0.15, DL_DESK) if tester == "dl" else budget(256, 0.15)
    assert budget_for(desk) == want


def test_type2_boost_stays_within_the_budget():
    # c_t2 multiplies type 2's first sample set; here it takes that set to
    # about 12.8 million draws, and the budget must grow with it
    constants = MdlConstants(t2_factor=1e8)
    bundle = gen_mdl_yes(256, 64, SeededRng(5, 1))
    ledger = QueryLedger()
    v = monotone_dl_tester(bundle.function_oracle(ledger), bundle.dist, 0.2, SeededRng(5, 2),
                           constants)
    assert v.accepted
    queries, samples = budget_mdl(256, 0.2, constants)
    assert ledger.function_queries <= queries
    assert ledger.samples_drawn <= samples
    assert ledger.samples_drawn > budget_mdl(256, 0.2)[1]


def test_c_t2_reaches_the_mdl_and_dl_budgets():
    boosted = {"c_t2": "1e8"}
    for tester in ("mdl", "dl"):
        plain = budget_for(RunConfig(tester=tester, family="x", n=256, eps=0.2))
        cfg = RunConfig(tester=tester, family="x", n=256, eps=0.2, consts=boosted)
        assert all(b > p for b, p in zip(budget_for(cfg), plain))

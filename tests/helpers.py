"""Helpers shared by the test modules."""

import sys
from typing import NamedTuple

from sublintest.core import BitString, SeededRng
from sublintest.dl import DlConstants, decision_list_tester
from sublintest.dlmodel import eval_mdl, min_index
from sublintest.instances import gen_dl_yes, gen_groups4, gen_mdl_yes
from sublintest.mdl import DEFAULT_MDL, MdlRun, _or_all, _rep_search, monotone_dl_tester
from sublintest.oracles import DistSampler, FunctionOracle, QueryLedger, Verdict
from sublintest.total_order import test_total_ordering

# the DL tester's desk profile of the acceptance suite (criterion 4)
DL_DESK = DlConstants(t_amplify=3, outer_rounds=6, inner_rounds=8, accept_threshold=3,
                      sketch_source="light")
# the same, as --const values
DESK_CONSTS = {"t_amplify": "3", "outer_rounds": "6", "inner_rounds": "8",
               "c_accept_threshold": "3", "sketch_source": "light"}

C3, C4 = SeededRng(0xC3), SeededRng(0xC4)

# trial t of the acceptance suite's contract corpora as (tester, bundle, eps,
# trial rng): criterion 3's at n=4096 and criterion 4's at n=1024
CRITERIA = {
    "c3-yes": lambda t: ("mdl", gen_mdl_yes(4096, 1024, C3.derive(t)), 0.1, C3.derive(1000 + t)),
    "c3-no": lambda t: ("mdl", gen_groups4(4096, C3.derive(2000 + t), "no"), 0.1,
                        C3.derive(3000 + t)),
    "c4-yes": lambda t: ("dl", gen_dl_yes(1024, 256, C4.derive(t)), 0.2, C4.derive(1000 + t)),
    "c4-no": lambda t: ("dl", gen_groups4(1024, C4.derive(2000 + t), "no"), 0.2,
                        C4.derive(3000 + t)),
}

# (family, n, eps, seed, support): small instances whose big blocks grow, in
# the DL tester's shifted and recording view for dl-yes; the last grows four
# times
GROWTH_TWINS = [("mdl-yes", 1024, 0.3, 1, 8), ("dl-yes", 256, 0.6, 3, 8),
                ("dl-yes", 1024, 0.3, 4, 16)]


def run_tester(tester: str, bundle, eps: float, rng, ledger=None) -> Verdict:
    """One trial of the "total", "mdl" or "dl" tester on bundle; the DL tester
    runs the desk profile."""
    if tester == "total":
        return test_total_ordering(bundle.comparison_oracle(ledger), bundle.dist, eps, rng)
    f = bundle.function_oracle(ledger)
    if tester == "mdl":
        return monotone_dl_tester(f, bundle.dist, eps, rng)
    return decision_list_tester(f, bundle.dist, eps, rng, DL_DESK)


class Recharge(NamedTuple):
    function: str  # the function that charged
    caller: str    # the function that called it
    view: str      # the class of the oracle it charged for
    before: int    # the ledger's query count before the charge
    amount: int


def _view(*frames) -> str | None:
    """The class of the first oracle among the arguments and locals of the
    frames, or of their MdlRun."""
    for frame in frames:
        for value in frame.f_locals.values():
            value = value.f if isinstance(value, MdlRun) else value
            if isinstance(value, FunctionOracle):
                return type(value).__name__
    return None


class ChargeLog(QueryLedger):
    """A ledger that counts its charges and logs each recharge, a charge made
    through QueryLedger.repeat, under the function that called repeat."""

    def __init__(self, query_budget=None):
        super().__init__(query_budget)
        self.charge_calls = 0
        self.recharges: list[Recharge] = []
        self._repeating = None  # the frame that called the repeat under way

    def repeat(self, cost, times=1):
        self._repeating = sys._getframe(1)
        super().repeat(cost, times)
        self._repeating = None  # when it charged nothing

    def charge_queries(self, c=1):
        self.charge_calls += 1
        frame, self._repeating = self._repeating, None
        if frame:
            caller = frame.f_back
            while caller.f_code.co_name.startswith("<"):  # a comprehension or a lambda
                caller = caller.f_back
            self.recharges.append(Recharge(frame.f_code.co_name, caller.f_code.co_name,
                                           _view(frame, caller), self.function_queries, c))
        super().charge_queries(c)


def oracle_for(rep, ledger=None) -> FunctionOracle:
    return FunctionOracle(rep.n, rep.target(), ledger)


def mdl_run(f, d, eps, rng, constants=DEFAULT_MDL, sk=None, L=None) -> MdlRun:
    """A run drawing from d on the rng its probes use, as monotone_dl_tester
    builds one; given a sketch sk and big-block set L, it starts from them."""
    sampler = DistSampler(d, rng, f.ledger)
    if sk is None:
        return MdlRun(f, sampler, eps, rng, constants)
    return MdlRun.from_parts(f, sampler, eps, rng, constants, sk, L)


def find_rep(f, xs: list[BitString], ys: list[BitString]) -> BitString:
    """Some x in xs; when the target is a monotone list, its rule outranks
    every other rule fired in xs or ys."""
    return BitString(f.n, _rep_search(f, [x.v for x in xs], _or_all(y.v for y in ys)))


def goal_equation_holds(rep, xstar, xs, ys) -> bool:
    """find_rep's postcondition: f(xstar | OR ys) = f(OR xs | OR ys)."""
    f = rep.target()
    acc = _or_all(y.v for y in ys)
    return f(xstar.v | acc) == f(acc | _or_all(x.v for x in xs))


def expected_blocks(rep, sk, x) -> list[int]:
    """All block indices satisfying the three-case contract, by rank scan."""
    b = eval_mdl(rep, x)
    rx = min_index(rep, x)
    k = sk.k
    ranks = [min_index(rep, s) for s in sk.strings]
    vals = sk.values
    out = []
    for ell in range(0, k + 2):
        if 2 <= ell <= k - 1:
            if vals[ell - 2] != b and vals[ell] != b and ranks[ell - 2] < rx < ranks[ell]:
                out.append(ell)
        elif ell in (0, 1):
            if vals[ell] != b and rx < ranks[ell]:
                out.append(ell)
        elif vals[ell - 2] != b and ranks[ell - 2] < rx:
            out.append(ell)
    return out

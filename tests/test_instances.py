import pytest

from sublintest.core import BitString, SeededRng, unit
from sublintest.dlmodel import eval_mdl
from sublintest.exact import dist_dl, dist_total_orderings
from sublintest.instances import (PlantInfeasible, gen_dl_yes, gen_groups4, gen_mdl_yes,
                                  gen_pentagon, gen_planted_violation, gen_total_yes)


def test_pentagon_group_cycle_edges():
    bundle = gen_pentagon(10, SeededRng(1))
    perm = bundle.params["order"]
    cmp = bundle.comparison_oracle()
    # the wrap-around edge of the first group points backwards
    assert cmp.less(perm[4], perm[0])
    # cross-group pairs follow the group index
    assert cmp.less(perm[2], perm[7])
    # skip-one chords inside a group
    assert cmp.less(perm[0], perm[2])
    assert cmp.less(perm[1], perm[3])


def test_pentagon_exact_distance_small():
    for n in (5, 10):
        bundle = gen_pentagon(n, SeededRng(2))
        report = dist_total_orderings(n, bundle.less, bundle.dist)
        assert report.distance == pytest.approx(0.2)


def test_pentagon_divisibility():
    with pytest.raises(ValueError):
        gen_pentagon(12, SeededRng(3))


def test_total_yes_is_distance_zero():
    for seed in range(5):
        bundle = gen_total_yes(8, 12, SeededRng(4, seed))
        report = dist_total_orderings(8, bundle.less, bundle.dist)
        assert report.distance == pytest.approx(0.0)


def test_generator_determinism():
    a = gen_total_yes(32, 20, SeededRng(5, 7))
    b = gen_total_yes(32, 20, SeededRng(5, 7))
    assert a.params["order"] == b.params["order"]
    assert a.dist.pairs == b.dist.pairs
    c = gen_mdl_yes(32, 16, SeededRng(6, 7))
    d = gen_mdl_yes(32, 16, SeededRng(6, 7))
    assert c.params["rep"].pi == d.params["rep"].pi
    assert [x.v for x in c.dist.atoms] == [x.v for x in d.dist.atoms]


def test_mdl_yes_atoms_weight_two_and_consistent():
    bundle = gen_mdl_yes(64, 40, SeededRng(7))
    rep = bundle.params["rep"]
    for x in bundle.dist.atoms:
        assert x.weight() == 2
        assert bundle.target(x.v) == eval_mdl(rep, x)


def test_dl_yes_consistent_with_rep():
    bundle = gen_dl_yes(64, 40, SeededRng(8))
    rep = bundle.params["rep"]
    for x in bundle.dist.atoms:
        assert bundle.target(x.v) == eval_mdl(rep, x)


def test_groups4_no_constraints_all_groups():
    bundle = gen_groups4(48, SeededRng(9), "no")
    pi = bundle.params["pi"]
    t = bundle.target
    for j0 in range(24, 48, 4):
        g = [pi[j0 + i] for i in range(4)]
        e = [1 << (i - 1) for i in g]
        assert t(e[3] | e[0]) == 1 and t(e[1] | e[2]) == 1
        assert t(e[0] | e[1]) == 0 and t(e[2] | e[3]) == 0
    assert bundle.ground_truth == ("far", 0.25)


def _groups4_no_reference(n, pi, nu, x):
    """The docstring's rule: the list (pi, nu), except where a deep group's
    first member fires and, of its other three members, only the fourth is
    set; returns (value, whether the override applied)."""
    j = next((j for j, var in enumerate(pi) if x.bit(var)), n)
    if n // 2 <= j < n and (j - n // 2) % 4 == 0:
        if [x.bit(pi[j + i]) for i in (1, 2, 3)] == [0, 0, 1]:
            return 1, True
    return nu[j], False


@pytest.mark.parametrize("n", [32, 64])
def test_groups4_no_target_matches_its_rule(n):
    rng = SeededRng(13, n)
    bundle = gen_groups4(n, rng, "no")
    pi, nu = bundle.params["pi"], bundle.params["nu"]
    overrides = 0
    # strings of every weight over all variables, and over the deep half alone
    # (where the groups fire)
    for pool in (list(pi), list(pi[n // 2:])):
        for w in range(len(pool) + 1):
            for _ in range(10):
                chosen = rng.shuffle(list(pool))[:w]
                x = BitString(n, sum(1 << (i - 1) for i in chosen))
                want, overridden = _groups4_no_reference(n, pi, nu, x)
                assert bundle.target(x.v) == want
                overrides += overridden
    assert overrides > 0


def test_groups4_yes_matches_its_list():
    bundle = gen_groups4(48, SeededRng(10), "yes")
    pi, nu = bundle.params["pi"], bundle.params["nu"]
    from sublintest.dlmodel import MonotoneDLRep
    rep = MonotoneDLRep(48, pi, nu)
    for x in bundle.dist.atoms:
        assert bundle.target(x.v) == eval_mdl(rep, x)
    assert bundle.ground_truth[0] == "yes"


def test_groups4_first_half_defaults_to_one():
    bundle = gen_groups4(32, SeededRng(11), "yes")
    pi = bundle.params["pi"]
    for pos in range(16):
        assert bundle.target(1 << (pi[pos] - 1)) == 1


def test_groups4_divisibility():
    with pytest.raises(ValueError):
        gen_groups4(24, SeededRng(12), "no")


def test_plant_requires_mdl_base():
    bundle = gen_dl_yes(32, 8, SeededRng(13))
    with pytest.raises(PlantInfeasible):
        gen_planted_violation(bundle, 1, 0.3, SeededRng(14))


def test_plant_masses_sum_to_one():
    base = gen_mdl_yes(64, 24, SeededRng(15))
    for c in (1, 2, 3, 4, 5):
        bundle = gen_planted_violation(base, c, 0.3, SeededRng(16, c))
        assert float(sum(bundle.dist.weights)) == pytest.approx(1.0)


def test_plant_infeasible_when_no_window():
    # every rank is a firing position of some atom
    base = gen_mdl_yes(6, 15, SeededRng(17))
    hit_all = {base.params["rep"].min_rank_raw(a.v) for a in base.dist.atoms}
    if len(hit_all) < 5:
        pytest.skip("support did not cover the rank space")
    with pytest.raises(PlantInfeasible):
        gen_planted_violation(base, 1, 0.3, SeededRng(18))

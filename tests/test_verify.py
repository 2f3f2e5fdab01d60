import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import special, stats

from exactcond.engine import ConditioningProblem, SecondConstraint
from exactcond.errors import InfeasibleTarget, SupportTooLarge
from exactcond.marginals import Binomial, Exponential, Geometric, Poisson
from exactcond.structures import DistinctPartition, Partition, build_problem
from exactcond.verify import (
    ExactDistribution,
    _gamma_upper,
    _kolmogorov_sf,
    chi_squared_gof,
    counting_oracle,
    enumerate_conditional,
    ks_statistic,
    tv_distance,
)


def test_counting_oracle_partitions():
    # hand lists: 4 = 3+1 = 2+2 = 2+1+1 = 1+1+1+1
    assert counting_oracle("partition", 0) == 1
    assert counting_oracle("partition", 1) == 1
    assert counting_oracle("partition", 4) == 5
    assert counting_oracle("partition", 6) == 11
    assert counting_oracle("partition", 8) == 22


def test_counting_oracle_distinct_parts():
    # 6 = 5+1 = 4+2 = 3+2+1; 8 = 7+1 = 6+2 = 5+3 = 5+2+1 = 4+3+1
    assert counting_oracle("distinct", 6) == 4
    assert counting_oracle("distinct", 8) == 6


def test_counting_oracle_set_partitions():
    assert counting_oracle("setpartition", 0) == 1
    assert counting_oracle("setpartition", 3) == 5
    assert counting_oracle("setpartition", 5) == 52


def test_counting_oracle_rejects_bad_input():
    with pytest.raises(ValueError):
        counting_oracle("partition", -1)
    with pytest.raises(ValueError):
        counting_oracle("permutation", 4)


@pytest.mark.parametrize("n", [1000, 1500])
def test_enumeration_walks_long_vectors_without_recursion(n):
    # one coordinate per part size, so the walk is n coordinates deep, and
    # a target of 3, whose three partitions keep the support small
    exact = enumerate_conditional(replace(build_problem(Partition(n)), target=3))
    assert sorted(k[:3] + (sum(k[3:]),) for k in exact.support()) == [
        (0, 0, 1, 0), (1, 1, 0, 0), (3, 0, 0, 0),
    ]
    # past the cap the support count refuses it before the walk
    with pytest.raises(SupportTooLarge):
        enumerate_conditional(build_problem(Partition(n)), support_cap=10)


def test_counting_oracle_agrees_with_enumeration_support():
    # the recurrence and the exhaustive walk are independent code paths
    for n in (4, 6, 8):
        exact = enumerate_conditional(build_problem(Partition(n)))
        assert len(exact.support()) == counting_oracle("partition", n)
    exact = enumerate_conditional(build_problem(DistinctPartition(6)))
    assert len(exact.support()) == counting_oracle("distinct", 6)


def test_enumerate_two_constraint_toy():
    # outcomes with weighted sum 5 in exactly 2 positive coordinates:
    # (1,0,0,1) and (0,1,1,0), equal unit-rate mass, so 1/2 each
    problem = ConditioningProblem(
        marginals=tuple(Poisson(1.0) for _ in range(4)),
        weights=(1, 2, 3, 4),
        target=5,
        index_set=(0, 1),
        second=SecondConstraint(coeffs=(1, 1, 1, 1), target=2),
    )
    exact = enumerate_conditional(problem)
    assert exact.prob((1, 0, 0, 1)) == pytest.approx(0.5)
    assert exact.prob((0, 1, 1, 0)) == pytest.approx(0.5)
    assert len(exact.support()) == 2


def test_enumerate_infeasible_target():
    problem = ConditioningProblem(
        marginals=(Geometric(0.5), Geometric(0.5)),
        weights=(2, 2),
        target=3,
        index_set=(0,),
    )
    with pytest.raises(InfeasibleTarget):
        enumerate_conditional(problem)


def _mixed(weights, target, second=None):
    return ConditioningProblem(
        marginals=(Poisson(1.0), Binomial(3, 0.5), Poisson(0.5)),
        weights=weights, target=target, index_set=(0, 1) if second else (0,), second=second,
    )


@pytest.mark.parametrize(
    "problem",
    [
        _mixed((1, 1, 2), 2.5),
        _mixed((1, 2, 1), 3, SecondConstraint(coeffs=(1, 1, 1), target=2.5)),
    ],
    ids=["target", "second-target"],
)
def test_enumerate_refuses_a_fractional_target(problem):
    # an integer sum never equals 2.5
    with pytest.raises(InfeasibleTarget, match="2.5"):
        enumerate_conditional(problem)


def test_enumerate_takes_integral_floats():
    as_ints = enumerate_conditional(_mixed((1, 1, 2), 3))
    as_floats = enumerate_conditional(_mixed((1.0, 1.0, 2.0), 3.0))
    assert as_floats.probs == as_ints.probs
    assert all(sum(w * v for w, v in zip((1, 1, 2), k)) == 3 for k in as_ints.support())


def test_enumerate_support_cap():
    with pytest.raises(SupportTooLarge):
        enumerate_conditional(build_problem(Partition(8)), support_cap=5)


def test_enumerate_rejects_continuous_marginals():
    problem = ConditioningProblem(
        marginals=(Exponential(1.0), Exponential(1.0)),
        weights=(1.0, 1.0),
        target=2.0,
        index_set=(0,),
    )
    with pytest.raises(ValueError):
        enumerate_conditional(problem)


def test_tv_distance():
    a = {"x": 0.5, "y": 0.5}
    b = {"x": 0.25, "y": 0.25, "z": 0.5}
    assert tv_distance(a, b) == pytest.approx(0.5)
    assert tv_distance(a, a) == 0.0
    assert tv_distance(ExactDistribution(a), b) == pytest.approx(0.5)


def test_chi_squared_merges_small_cells():
    # expected counts (50, 30, 12, 5, 3): the 3-cell absorbs the 5-cell,
    # leaving 4 buckets and a perfect fit
    obs = [50, 30, 12, 5, 3]
    exp = [0.50, 0.30, 0.12, 0.05, 0.03]
    stat, dof, p = chi_squared_gof(obs, exp)
    assert stat == 0.0
    assert dof == 3
    assert p == 1.0


def test_chi_squared_collapses_to_trivial():
    stat, dof, p = chi_squared_gof({"a": 2, "b": 1}, {"a": 2 / 3, "b": 1 / 3})
    assert (stat, dof, p) == (0.0, 0, 1.0)
    # expected counts (3, 3, 3): the first two make a group of 6, and the
    # last 3, short of 5, folds into it rather than standing alone
    assert chi_squared_gof([4, 2, 3], [1 / 3] * 3) == (0.0, 0, 1.0)


@pytest.mark.parametrize(
    "counts, expected",
    [([0, 0, 0], [0.5, 0.3, 0.2]), ({}, {"a": 0.5, "b": 0.5})],
    ids=["sequence", "mapping"],
)
def test_chi_squared_refuses_zero_observations(counts, expected):
    # with nothing observed there is nothing to test, not a perfect fit
    with pytest.raises(ValueError, match="observation"):
        chi_squared_gof(counts, expected)


def test_chi_squared_matches_reference_when_cells_are_large():
    obs = [30, 70]
    stat, dof, p = chi_squared_gof(obs, [0.4, 0.6])
    ref = stats.chisquare(obs, f_exp=[40.0, 60.0])
    assert stat == pytest.approx(float(ref.statistic))
    assert dof == 1
    assert p == pytest.approx(float(ref.pvalue))


def test_chi_squared_rejects_mass_off_support():
    with pytest.raises(ValueError):
        chi_squared_gof({"a": 5, "b": 1}, {"a": 1.0})


def test_chi_squared_rejects_mixed_argument_kinds():
    with pytest.raises(ValueError):
        chi_squared_gof({"a": 5}, [1.0])
    with pytest.raises(ValueError):
        chi_squared_gof([1.0, 2.0], [0.5, 0.25, 0.25])


def test_ks_statistic_single_point():
    d, p = ks_statistic([0.5], lambda x: min(max(x, 0.0), 1.0))
    assert d == pytest.approx(0.5)
    assert 0.0 < p <= 1.0
    with pytest.raises(ValueError):
        ks_statistic([], lambda x: x)


def test_chi_squared_tail_matches_scipy():
    # Q(dof/2, stat/2) against chi2.sf from 0 into the far tail, wherever
    # scipy's value is a normal double; the closed form's error grows with
    # its number of terms, so the grid reaches dof 20,001
    worst = 0.0
    for dof in [*range(1, 1001), 2001, 5000, 20001]:
        a = dof / 2.0
        span = dof + 2.0 + 40.0 * math.sqrt(dof) + 1400.0
        xs = np.concatenate([np.linspace(0.0, span, 24), [dof, dof + 2.0 - 1e-9, dof + 2.0 + 1e-9]])
        ref = stats.chi2.sf(xs, dof)
        for x, r in zip(xs, ref):
            if r >= 1e-300:
                worst = max(worst, abs(_gamma_upper(a, float(x) / 2.0) - r) / r)
    assert worst < 1e-10


def test_kolmogorov_tail_matches_scipy():
    xs = np.linspace(6.0 / 20000, 6.0, 20000)
    ref = special.kolmogorov(xs)
    got = np.array([_kolmogorov_sf(float(x)) for x in xs])
    assert np.max(np.abs(got - ref) / ref) < 1e-13


def test_tails_at_zero_and_below():
    assert _gamma_upper(0.5, 0.0) == 1.0
    assert _gamma_upper(3.0, math.inf) == 0.0
    for x in (0.0, -1.0, -math.inf):
        assert _kolmogorov_sf(x) == 1.0

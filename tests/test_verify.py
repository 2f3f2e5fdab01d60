import math

import pytest
from scipy import stats

from exactcond.engine import ConditioningProblem, SampleRecord, SecondConstraint
from exactcond.errors import InfeasibleTarget, SupportTooLarge
from exactcond.marginals import CountingRng, Exponential, Geometric, Poisson
from exactcond.structures import DistinctPartition, Partition, build_problem
from exactcond.verify import (
    CostStats,
    ExactDistribution,
    benchmark,
    chi_squared_gof,
    counting_oracle,
    empirical,
    enumerate_conditional,
    ks_statistic,
    merge_cost_stats,
    speedup_ratio,
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
    # one coordinate per part size: the walk is n coordinates deep
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


def test_empirical_frequencies():
    freq = empirical(["a", "a", "b", "a"])
    assert freq == {"a": 0.75, "b": 0.25}
    assert math.fsum(freq.values()) == pytest.approx(1.0)


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


def fixed_cost_sampler(attempts, rng_calls):
    def sampler(rng):
        return SampleRecord(outcome=(0,), attempts=attempts, rng_calls=rng_calls)

    return sampler


def test_benchmark_aggregates_costs():
    stats_out = benchmark(fixed_cost_sampler(2, 7), 10, CountingRng(1))
    assert stats_out == CostStats(
        trials=10, attempts=20, rng_calls=70, accept_rate=0.5, rng_calls_per_sample=7.0
    )
    with pytest.raises(ValueError):
        benchmark(fixed_cost_sampler(1, 1), 0, CountingRng(1))


def test_merge_cost_stats_matches_single_run():
    a = benchmark(fixed_cost_sampler(2, 7), 4, CountingRng(1))
    b = benchmark(fixed_cost_sampler(4, 9), 6, CountingRng(2))
    merged = merge_cost_stats([a, b])
    assert merged.trials == 10
    assert merged.attempts == 2 * 4 + 4 * 6
    assert merged.rng_calls == 7 * 4 + 9 * 6
    assert merged.accept_rate == pytest.approx(10 / 32)
    assert merged.rng_calls_per_sample == pytest.approx(82 / 10)
    assert merge_cost_stats([a, b]) == merge_cost_stats([b, a])
    with pytest.raises(ValueError):
        merge_cost_stats([])


def test_speedup_ratio():
    slow = CostStats(10, 100, 1000, 0.1, 100.0)
    fast = CostStats(10, 20, 125, 0.5, 12.5)
    assert speedup_ratio(slow, fast) == pytest.approx(8.0)
    zero = CostStats(10, 10, 0, 1.0, 0.0)
    with pytest.raises(ValueError):
        speedup_ratio(slow, zero)

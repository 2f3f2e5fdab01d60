import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactcond.engine import dsh_sample, hard_rejection_sample
from exactcond.errors import InvalidFamily, InvalidProfile
from exactcond.geometry import IntervalUnion
from exactcond.marginals import (
    Bernoulli,
    Binomial,
    CountingRng,
    Geometric,
    NegativeBinomial,
    Poisson,
)
from exactcond.structures import (
    Assembly,
    DistinctPartition,
    EwensProfile,
    MultiplicityVector,
    Multiset,
    Partition,
    PlaneGrid,
    PlanePartitionGrid,
    Selection,
    SetPartition,
    build_problem,
    feller_permutation_cycles,
    grid_cells,
    _counts_problem as grid_classes,
    materialize_set_partition,
    outcome_counts,
    sample_structure,
    small_ball_sample,
    solve_tilt,
)
from exactcond.verify import chi_squared_gof, enumerate_conditional, tv_distance
from test_cli import PIN_MULT


def gof_against(family, exact, trials, seed, method="dsh"):
    rng = CountingRng(seed)
    return outcome_counts(
        family, (sample_structure(family, rng, method=method)[0] for _ in range(trials))
    )


def test_default_tilts():
    assert solve_tilt("partition", 100) == pytest.approx(
        math.exp(-math.pi / math.sqrt(600.0))
    )
    former = lambda n: math.exp(-math.pi / math.sqrt(6.0 * n))
    for n in (4, 12, 100, 1000):
        for kind, mult in (
            ("distinct", None),
            ("selection", None),
            ("selection", tuple(1 + i % 3 for i in range(n))),
        ):
            x = solve_tilt(kind, n, mult)
            assert 0.0 < x < 1.0
            # Binomial(m_i, x^i / (1 + x^i)) parts of size i
            m = mult or (1,) * n
            mean = sum(i * m[i - 1] * x**i / (1.0 + x**i) for i in range(1, n + 1))
            assert mean == pytest.approx(n, rel=1e-9)
    # sum i m_i / 2 <= n: no root below 1, so the former formula stays
    for n in (1, 2, 3):
        assert solve_tilt("distinct", n) == solve_tilt("selection", n) == former(n)
    assert solve_tilt("selection", 2, (2, 1)) == former(2)
    x = solve_tilt("selection", 2, (3, 1))
    assert 0.0 < x < 1.0 and 3 * x / (1 + x) + 2 * x**2 / (1 + x**2) == pytest.approx(2.0)
    x = solve_tilt("assembly", 100)
    assert x * math.exp(x) == pytest.approx(100.0, rel=1e-12)
    assert solve_tilt("setpartition", 5) == solve_tilt("assembly", 5)
    for n in (3, 12, 30, 1000):
        g = solve_tilt("planegrid", n)
        assert 0.0 < g < 1.0
        # w - 2 cells of weight w, each Geometric(g^w)
        mean = sum((w - 2) * w * g**w / (1.0 - g**w) for w in range(3, n + 1))
        assert mean == pytest.approx(n, rel=1e-9)
    # criterion 11's GRID_SADDLE_TILT, solved from E[T] = n on its own
    for n, saddle in ((100, 0.774129), (400, 0.845212), (1600, 0.896798)):
        assert solve_tilt("planegrid", n) == pytest.approx(saddle, abs=1e-6)
    for n in (1, 2):
        with pytest.raises(InvalidFamily):
            solve_tilt("planegrid", n)
    assert solve_tilt("ewens", 4) == pytest.approx(math.exp(-0.25))
    with pytest.raises(InvalidFamily):
        solve_tilt("nope", 10)
    with pytest.raises(InvalidFamily):
        solve_tilt("partition", 0)


# solve_tilt's values before the families became rows of one table, to the bit
PINNED_TILTS = {
    "partition": (0.526620599330303, 0.6905684052062603, 0.8796290600762194,
                  0.9378854194816227),
    "distinct": (0.8730771643988566, 0.8009259755334799, 0.9133745329145049,
                 0.9556699981743555),
    "selection": (0.8730771643988566, 0.8009259755334799, 0.9133745329145049,
                  0.9556699981743555),
    "multiset": (0.526620599330303, 0.6905684052062603, 0.8796290600762194,
                 0.9378854194816227),
    "assembly": (1.2021678731970429, 1.8628168644324907, 3.38563014029005, 4.48968254951951),
    "setpartition": (1.2021678731970429, 1.8628168644324907, 3.38563014029005,
                     4.48968254951951),
    "planegrid": (0.6967462303046188, 0.6353635319475837, 0.7741289813271965,
                  0.8452115509078768),
    "ewens": (0.7788007830714049, 0.9200444146293233, 0.9900498337491681,
              0.9975031223974601),
}


@pytest.mark.parametrize("kind", list(PINNED_TILTS))
def test_default_tilts_are_pinned(kind):
    assert tuple(solve_tilt(kind, n) for n in (4, 12, 100, 400)) == PINNED_TILTS[kind]


def test_pinned_multiplicity_tilt():
    assert solve_tilt("selection", 8, PIN_MULT) == 0.6668379455904292


@pytest.mark.parametrize(
    "family",
    [PlanePartitionGrid(3), PlanePartitionGrid(30), PlanePartitionGrid(12, tilt=0.4148625)],
    ids=repr,
)
def test_the_grid_row_is_the_class_problem(family):
    # coordinate w - 3 is S_w, the sum of the w - 2 cells of weight w
    x = family.tilt or solve_tilt("planegrid", family.n)
    weights = tuple(range(3, family.n + 1))
    marginals = tuple(NegativeBinomial(w - 2, x ** w) for w in weights)
    pivot = min(range(len(marginals)), key=lambda i: marginals[i].sup_density())
    prob = grid_classes(family)
    assert prob.marginals == marginals
    assert prob.weights == weights and prob.target == family.n
    assert prob.index_set == (pivot,) and prob.second is None


def test_family_marginal_choices():
    assert all(isinstance(m, Geometric) for m in build_problem(Partition(6)).marginals)
    assert all(
        isinstance(m, Bernoulli) for m in build_problem(DistinctPartition(6)).marginals
    )
    assert all(
        isinstance(m, Binomial)
        for m in build_problem(Selection(4, multiplicities=(2, 1, 1, 1))).marginals
    )
    assert all(
        isinstance(m, NegativeBinomial)
        for m in build_problem(Multiset(4, multiplicities=(2, 1, 1, 1))).marginals
    )
    assert all(isinstance(m, Poisson) for m in build_problem(Assembly(4)).marginals)
    assert all(isinstance(m, Poisson) for m in build_problem(SetPartition(4)).marginals)
    prob = build_problem(EwensProfile(4, 2))
    assert prob.second is not None
    assert prob.index_set == (0, 1)


def test_partition_pivot_is_smallest_part():
    assert build_problem(Partition(30)).index_set == (0,)
    assert build_problem(DistinctPartition(30)).index_set == (0,)


def test_setpartition_pivot_tracks_log_n():
    assert build_problem(SetPartition(100)).index_set == (4,)
    assert build_problem(SetPartition(2)).index_set == (0,)
    assert build_problem(SetPartition(1)).index_set == (0,)


def test_grid_cells_truncation_and_order():
    fam = PlanePartitionGrid(5)
    assert grid_cells(fam) == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]
    assert grid_cells(PlanePartitionGrid(3)) == [(1, 1)]


def test_partition_conditional_is_uniform():
    # every partition of n has weight x^n, so the conditional law is flat
    for n, count in ((4, 5), (6, 11), (8, 22)):
        exact = enumerate_conditional(build_problem(Partition(n)))
        assert len(exact.support()) == count
        for k in exact.support():
            assert exact.prob(k) == pytest.approx(1.0 / count)


def test_distinct_partition_counts():
    for n, count in ((6, 4), (8, 6)):
        exact = enumerate_conditional(build_problem(DistinctPartition(n)))
        assert len(exact.support()) == count
        for k in exact.support():
            assert exact.prob(k) == pytest.approx(1.0 / count)


def test_tilt_choice_does_not_move_the_conditional_law():
    a = enumerate_conditional(build_problem(Partition(6, tilt=0.3)))
    b = enumerate_conditional(build_problem(Partition(6, tilt=0.7)))
    assert tv_distance(a, b) < 1e-12


def test_set_partition_profile_law():
    # profiles of 3 elements: (3,0,0), (1,1,0), (0,0,1) carry 1, 3, 1 of
    # the bell(3) = 5 set partitions
    exact = enumerate_conditional(build_problem(SetPartition(3)))
    assert exact.prob((3, 0, 0)) == pytest.approx(1.0 / 5.0)
    assert exact.prob((1, 1, 0)) == pytest.approx(3.0 / 5.0)
    assert exact.prob((0, 0, 1)) == pytest.approx(1.0 / 5.0)


def test_ewens_two_block_law():
    # theta = 1, n = 4, k = 2: profiles (1,0,1,0) and (0,2,0,0) in 8:3
    exact = enumerate_conditional(build_problem(EwensProfile(4, 2)))
    assert len(exact.support()) == 2
    assert exact.prob((1, 0, 1, 0)) == pytest.approx(8.0 / 11.0)
    assert exact.prob((0, 2, 0, 0)) == pytest.approx(3.0 / 11.0)


def test_plane_grid_small_law():
    # total 5 forces a single 1 in one of the three weight-5 cells
    exact = enumerate_conditional(build_problem(PlanePartitionGrid(5)))
    assert len(exact.support()) == 3
    for k in exact.support():
        assert exact.prob(k) == pytest.approx(1.0 / 3.0)


def test_dsh_sampling_matches_enumeration():
    family = Partition(6)
    exact = enumerate_conditional(build_problem(family))
    counts = gof_against(family, exact, 5000, seed=51)
    _, _, p = chi_squared_gof(counts, {k: exact.prob(k) * 5000 for k in exact.support()})
    assert p > 1e-3


def test_selection_with_multiplicities_matches_enumeration():
    family = Selection(5, multiplicities=(2, 2, 1, 1, 1))
    exact = enumerate_conditional(build_problem(family))
    counts = gof_against(family, exact, 5000, seed=53)
    _, _, p = chi_squared_gof(counts, {k: exact.prob(k) * 5000 for k in exact.support()})
    assert p > 1e-3


def test_sparse_grid_drawer_matches_enumeration():
    family = PlanePartitionGrid(6, tilt=0.6)
    exact = enumerate_conditional(build_problem(family))
    assert len(exact.support()) == 5
    counts = gof_against(family, exact, 4000, seed=57)
    _, _, p = chi_squared_gof(counts, {k: exact.prob(k) * 4000 for k in exact.support()})
    assert p > 1e-3


@pytest.mark.parametrize("method, seed", [("dsh", 59), ("hard", 60)])
def test_grid_class_split_matches_enumeration(method, seed):
    # the 29 grids of total 10 are equally likely; in 6 of them the weight-5
    # class holds 2 units on its 3 cells, which the split's urn places
    family = PlanePartitionGrid(10, tilt=0.6)
    exact = enumerate_conditional(build_problem(family))
    assert len(exact.support()) == 29
    rng = CountingRng(seed)
    values = []
    for _ in range(6000):
        start = rng.calls
        value, rec = sample_structure(family, rng, method=method)
        assert rec.rng_calls == rng.calls - start and rec.outcome == value.entries
        values.append(value)
    split = [v for v in values if sum(z for i, j, z in v.entries if i + j == 4) == 2]
    assert len({v.entries for v in split}) == 6
    counts = outcome_counts(family, values)
    _, _, p = chi_squared_gof(counts, {k: exact.prob(k) * 6000 for k in exact.support()})
    assert p > 1e-3


def test_one_cell_grid_accepts_every_other_attempt():
    # n = 3 has one cell, the pivot, which must hold 1: dsh accepts with
    # P(Z = 1) / P(Z = 0) = x^3, one half at the E[T] = n tilt
    rng = CountingRng(67)
    attempts = sum(sample_structure(PlanePartitionGrid(3), rng)[1].attempts for _ in range(400))
    assert attempts / 400 < 4.0


def test_grid_outcome_totals():
    rng = CountingRng(61)
    family = PlanePartitionGrid(40)
    for _ in range(20):
        start = rng.calls
        value, rec = sample_structure(family, rng)
        assert rec.rng_calls == rng.calls - start
        assert value.total == 40
        for i, j, z in value.entries:
            assert i >= 1 and j >= 1 and z >= 1
            assert i + j + 1 <= 40


@pytest.mark.parametrize("method", ["dsh", "hard"])
@pytest.mark.parametrize(
    "family",
    [
        Partition(6),
        DistinctPartition(6),
        Selection(6, multiplicities=(1, 2, 1, 2, 1, 2)),
        Multiset(6),
        Assembly(6),
        SetPartition(6),
        PlanePartitionGrid(6),
        EwensProfile(6, blocks=2),
    ],
    ids=lambda family: family.kind,
)
def test_sampled_values_hold_python_ints(family, method):
    rng = CountingRng(31)
    for _ in range(5):
        value, _ = sample_structure(family, rng, method=method)
        rows = value.entries if isinstance(value, PlaneGrid) else (value.counts,)
        assert rows and all(type(v) is int for row in rows for v in row)


def test_multiplicity_vector_properties():
    v = MultiplicityVector((2, 1, 0, 1))
    assert v.total == 2 + 2 + 4
    assert v.parts == 4
    with pytest.raises(InvalidProfile):
        MultiplicityVector((1, -1))


@given(st.integers(min_value=1, max_value=40))
@settings(max_examples=25, deadline=None)
def test_structure_totals_hit_the_target(n):
    rng = CountingRng(1000 + n)
    value, _ = sample_structure(Partition(n), rng)
    assert value.total == n


def test_hard_dsh_same_law_on_multiset():
    family = Multiset(5, multiplicities=(2, 1, 1, 1, 1))
    exact = enumerate_conditional(build_problem(family))
    for seed, method in ((63, "hard"), (67, "dsh")):
        counts = gof_against(family, exact, 4000, seed=seed, method=method)
        _, _, p = chi_squared_gof(
            counts, {k: exact.prob(k) * 4000 for k in exact.support()}
        )
        assert p > 1e-3, method


def test_assembly_small_law():
    family = Assembly(4, multiplicities=(1, 2, 1, 1))
    exact = enumerate_conditional(build_problem(family))
    counts = gof_against(family, exact, 4000, seed=73)
    _, _, p = chi_squared_gof(counts, {k: exact.prob(k) * 4000 for k in exact.support()})
    assert p > 1e-3


def test_feller_cycle_law_and_cost():
    rng = CountingRng(79)
    counts = {(3, 0, 0): 0, (1, 1, 0): 0, (0, 0, 1): 0}
    for _ in range(20000):
        before = rng.calls
        profile, rec = feller_permutation_cycles(3, rng)
        assert rng.calls - before == 3
        assert rec.rng_calls == 3
        assert profile.total == 3
        counts[profile.counts] += 1
    _, _, p = chi_squared_gof(
        counts,
        {(3, 0, 0): 1 / 6 * 20000, (1, 1, 0): 1 / 2 * 20000, (0, 0, 1): 1 / 3 * 20000},
    )
    assert p > 1e-3


@given(st.integers(min_value=1, max_value=30))
@settings(max_examples=25, deadline=None)
def test_feller_profile_is_a_permutation_profile(n):
    rng = CountingRng(500 + n)
    profile, rec = feller_permutation_cycles(n, rng)
    assert profile.total == n
    assert rec.rng_calls == n


def test_materialize_set_partition_layout():
    rng = CountingRng(83)
    profile = MultiplicityVector((1, 0, 1))
    blocks, rec = materialize_set_partition(profile, rng)
    assert sorted(len(b) for b in blocks) == [1, 3]
    assert sorted(x for b in blocks for x in b) == [1, 2, 3, 4]
    assert blocks == tuple(sorted(blocks, key=lambda b: (len(b), b[0])))
    assert rec.rng_calls == 3


def test_materialize_set_partition_uniform():
    # profile one singleton plus one pair: three equally likely partitions
    rng = CountingRng(89)
    profile = MultiplicityVector((1, 1, 0))
    counts: dict = {}
    for _ in range(15000):
        blocks, _ = materialize_set_partition(profile, rng)
        counts[blocks] = counts.get(blocks, 0) + 1
    assert len(counts) == 3
    _, _, p = chi_squared_gof(counts, {k: 5000.0 for k in counts})
    assert p > 1e-3
    with pytest.raises(InvalidProfile):
        materialize_set_partition(MultiplicityVector((0, 0)), rng)


def test_small_ball_uniform_over_qualifying_signs():
    # |sum| in (0.5, 3.5) with unit weights keeps (1,1,1) and the three
    # single-flip vectors; all four must come out equally often
    rng = CountingRng(97)
    window = IntervalUnion.open(0.5, 3.5)
    counts: dict = {}
    for _ in range(12000):
        signs, rec = small_ball_sample((1.0, 1.0, 1.0), window, 0, rng)
        assert sum(signs) in (1, 3)
        counts[signs] = counts.get(signs, 0) + 1
    assert len(counts) == 4
    _, _, p = chi_squared_gof(counts, {k: 3000.0 for k in counts})
    assert p > 1e-3


def test_small_ball_multi_window():
    rng = CountingRng(101)
    window = IntervalUnion(((-3.5, -2.5), (2.5, 3.5)))
    for _ in range(200):
        signs, _ = small_ball_sample((1.0, 1.0, 1.0), window, 1, rng)
        assert abs(sum(signs)) == 3
    with pytest.raises(ValueError, match="nonzero"):
        small_ball_sample((1.0, 0.0), IntervalUnion.open(0.0, 1.0), 1, rng)
    with pytest.raises(ValueError, match="out of range"):
        small_ball_sample((1.0, 1.0), IntervalUnion.open(0.0, 1.0), 2, rng)


def test_family_validation():
    with pytest.raises(InvalidFamily):
        build_problem(Partition(0))
    with pytest.raises(InvalidFamily):
        build_problem(Partition(5, tilt=1.0))
    with pytest.raises(InvalidFamily):
        build_problem(Selection(4, multiplicities=(1, 1)))
    with pytest.raises(InvalidFamily):
        build_problem(Multiset(3, multiplicities=(1, 0, 1)))
    with pytest.raises(InvalidFamily):
        build_problem(PlanePartitionGrid(2))
    with pytest.raises(InvalidFamily):
        build_problem(EwensProfile(4, 0))
    with pytest.raises(InvalidFamily):
        build_problem(EwensProfile(4, 5))
    with pytest.raises(InvalidFamily):
        build_problem(EwensProfile(4, 2, theta=0.0))
    # an infinite theta or tilt would ask for an infinite Poisson rate
    with pytest.raises(InvalidFamily, match="theta must be positive and finite"):
        build_problem(EwensProfile(4, 2, theta=math.inf))
    for family in (Assembly(5, tilt=math.inf), SetPartition(5, tilt=math.inf),
                   EwensProfile(4, 2, tilt=math.inf)):
        with pytest.raises(InvalidFamily, match="tilt must be positive and finite"):
            build_problem(family)
    for family in (Partition(1e3), Partition(3.5), PlanePartitionGrid(12.0)):
        with pytest.raises(InvalidFamily, match="whole number"):
            build_problem(family)
    with pytest.raises(InvalidFamily, match="whole number"):
        solve_tilt("partition", 2.5)
    assert solve_tilt("distinct", np.int64(8)) == solve_tilt("distinct", 8)
    assert build_problem(Partition(np.int64(8))) == build_problem(Partition(8))
    for method in ("bogus", "soft"):
        with pytest.raises(ValueError):
            sample_structure(Partition(5), CountingRng(1), method=method)


@pytest.mark.parametrize(
    "family, reason",
    [
        (PlanePartitionGrid(2, tilt=0.5), "no cells"),
        (PlanePartitionGrid(30, tilt=1.2), r"tilt in \(0, 1\)"),
        (Partition(10, tilt=0.0), "tilt must be positive"),
    ],
    ids=["grid-without-cells", "grid-tilt-past-one", "zero-tilt"],
)
@pytest.mark.parametrize("method", ["dsh", "hard"])
def test_sample_structure_refuses_an_invalid_family(family, reason, method):
    rng = CountingRng(1)
    with pytest.raises(InvalidFamily, match=reason):
        sample_structure(family, rng, method=method)
    assert rng.calls == 0


def test_one_cycle_ewens_profile_is_the_point_mass():
    # a permutation of one element has one cycle of length 1; the size
    # constraint alone pins it, so the family is a valid point mass
    family = EwensProfile(1, 1)
    assert enumerate_conditional(build_problem(family)).probs == {(1,): 1.0}
    rng = CountingRng(3)
    for method in ("dsh", "hard"):
        for _ in range(20):
            value, rec = sample_structure(family, rng, method=method)
            assert value.counts == (1,) and rec.outcome == (1,)
    with pytest.raises(InvalidFamily):
        build_problem(EwensProfile(1, 2))


@pytest.mark.parametrize("kind", [Selection, Multiset, Assembly])
def test_fractional_multiplicities_are_refused(kind):
    for mult in ((1.5, 2, 1), (1, float("nan"), 1), (1, float("inf"), 1)):
        with pytest.raises(InvalidFamily, match="whole numbers"):
            build_problem(kind(3, multiplicities=mult))
    # a whole float is the count it names
    assert build_problem(kind(3, multiplicities=(2.0, 1, 3.0))).size == 3


@pytest.mark.parametrize("kind", [Selection, Multiset, Assembly])
def test_list_multiplicities_share_the_cached_problem(kind):
    family = kind(4, multiplicities=[2, 1, 1, 1])
    assert family.multiplicities == (2, 1, 1, 1)
    assert build_problem(family) is build_problem(kind(4, multiplicities=(2, 1, 1, 1)))
    rng = CountingRng(8)
    for _ in range(2):
        value, _ = sample_structure(family, rng)
        assert value.total == 4


def test_bulk_hooks_report_consistent_sums():
    prob = build_problem(Partition(12))
    rng = CountingRng(103)
    lin, sec, vals = prob._draw_free(rng)
    assert rng.calls == 11
    assert sec == 0
    assert lin == sum(w * v for w, v in zip(range(2, 13), vals))
    lin, sec, vals = prob._draw_full(rng)
    assert rng.calls == 23
    assert lin == sum(w * v for w, v in zip(range(1, 13), vals))


def test_grid_class_draw_reports_consistent_sums():
    # coordinate w - 3 of the class problem is S_w, of weight w
    prob = grid_classes(PlanePartitionGrid(30))
    assert prob.weights == tuple(range(3, 31))
    rng = CountingRng(107)
    for _ in range(50):
        lin, sec, vals = prob._draw_full(rng)
        assert sec == 0 and len(vals) == 28
        assert lin == sum(w * int(s) for w, s in zip(range(3, 31), vals))


def _accept_rate(problem, sampler, accepts, seed):
    rng = CountingRng(seed)
    attempts = 0
    for _ in range(accepts):
        attempts += sampler(problem, rng).attempts
    return accepts / attempts


def test_hard_rejection_rate_tracks_the_power_law():
    # P(T=n) ~ 1/(96^(1/4) n^(3/4)) at the default tilt; loose band
    # because the law is asymptotic
    for n, accepts in ((50, 200), (200, 150)):
        predicted = 1.0 / (96.0**0.25 * n**0.75)
        rate = _accept_rate(
            build_problem(Partition(n)), hard_rejection_sample, accepts, 500 + n
        )
        assert abs(rate - predicted) <= 0.35 * predicted


def test_set_partition_dsh_beats_hard_rejection():
    # no closed-form speedup is claimed for this family, only that the
    # pivot's point mass makes dsh accept strictly more often
    problem = build_problem(SetPartition(30))
    hard = _accept_rate(problem, hard_rejection_sample, 200, 71)
    dsh = _accept_rate(problem, dsh_sample, 400, 72)
    assert dsh > 1.5 * hard

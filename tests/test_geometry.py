import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import beta as beta_dist

from exactcond.errors import InfeasibleTarget, InvalidRejection, UnboundedDensity
from exactcond.geometry import (
    IntervalUnion,
    borel_conditional_sample,
    feller_polytope_sample,
    rado_check,
    sample_beta_sum,
    sample_exponential_sum,
    sample_hypersimplex,
    sample_permutahedron,
    sample_sphere_surface,
    uniform_spacings,
)
from exactcond.marginals import AbsWeightedGaussian, CountingRng, Normal
from exactcond.verify import ks_statistic, ks_two_sample


def test_interval_union_normalizes():
    u = IntervalUnion(((3.0, 4.0), (1.0, 2.0)))
    assert u.intervals == ((1.0, 2.0), (3.0, 4.0))
    assert u.contains(1.5) and u.contains(3.5)
    assert not u.contains(2.5)
    assert not u.contains(1.0)  # endpoints are open
    single = IntervalUnion.open(-1.0, 1.0)
    assert single.contains(0.0) and not single.contains(1.0)
    with pytest.raises(ValueError):
        IntervalUnion(((2.0, 1.0),))
    with pytest.raises(ValueError):
        IntervalUnion(((0.0, 2.0), (1.0, 3.0)))


def test_uniform_spacings_cost_and_law():
    rng = CountingRng(11)
    gaps = uniform_spacings(3, rng)
    assert rng.calls == 3
    assert len(gaps) == 4
    assert math.fsum(gaps) == pytest.approx(1.0, abs=1e-12)
    # each spacing of k cuts is Beta(1, k)
    rng = CountingRng(13)
    firsts = [uniform_spacings(2, rng)[0] for _ in range(20000)]
    _, p = ks_statistic(firsts, beta_dist(1.0, 2.0).cdf)
    assert p > 1e-3


def test_feller_polytope_sample_stays_inside_hull():
    verts = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    rng = CountingRng(17)
    before = rng.calls
    pt, rec = feller_polytope_sample(verts, rng)
    assert rng.calls - before == 2
    assert pt[0] >= 0 and pt[1] >= 0 and pt[0] + pt[1] <= 1.0 + 1e-12


def test_exponential_sum_hits_the_plane():
    rng = CountingRng(19)
    for _ in range(300):
        pt, rec = sample_exponential_sum((1.0, 2.0, 0.5), 2.0, rng)
        assert math.fsum(pt) == pytest.approx(2.0, abs=1e-9)
        assert all(v > 0 for v in pt)
        assert rec.attempts >= 1


def test_exponential_sum_equal_rates_is_dirichlet():
    # equal-rate exponentials conditioned on their sum are scaled
    # spacings; the first coordinate over the total is Beta(1, n-1)
    rng = CountingRng(23)
    firsts = []
    for _ in range(20000):
        pt, _ = sample_exponential_sum((1.0, 1.0, 1.0), 1.0, rng)
        firsts.append(pt[0])
    _, p = ks_statistic(firsts, beta_dist(1.0, 2.0).cdf)
    assert p > 1e-3


def test_beta_sum_support_and_total():
    rng = CountingRng(29)
    for _ in range(300):
        pt, _ = sample_beta_sum((2.0, 1.5, 1.0), (1.0, 2.0, 3.0), 1.2, rng)
        assert math.fsum(pt) == pytest.approx(1.2, abs=1e-9)
        assert all(0.0 < v < 1.0 for v in pt)


def test_beta_sum_uniform_case_matches_simplex_slice():
    # flat betas conditioned on sum 1 reduce to uniform spacings
    rng = CountingRng(31)
    firsts = []
    for _ in range(20000):
        pt, _ = sample_beta_sum((1.0, 1.0, 1.0), (1.0, 1.0, 1.0), 1.0, rng)
        firsts.append(pt[0])
    _, p = ks_statistic(firsts, beta_dist(1.0, 2.0).cdf)
    assert p > 1e-3


def test_beta_sum_rejects_unbounded_pivot():
    rng = CountingRng(37)
    with pytest.raises(UnboundedDensity):
        sample_beta_sum((0.5, 1.0), (1.0, 1.0), 0.8, rng)


@pytest.mark.parametrize("total", [5.0, 3.0, 0.0, -0.5])
def test_beta_sum_refuses_an_unreachable_total_before_drawing(total):
    # three betas sum to a value in (0, 3); at the default attempt cap a
    # total of 5 used to spin for about 25 minutes
    rng = CountingRng(41)
    with pytest.raises(InfeasibleTarget):
        sample_beta_sum([2.0] * 3, [2.0] * 3, total, rng)
    assert rng.calls == 0


def test_sphere_surface_squares_follow_flat_dirichlet():
    # coordinates with density |y| e^(-y^2) have Exp(1) squares, so
    # conditioning on the square radius makes the squared coordinates a
    # uniform point of the simplex: first square over r^2 is Beta(1, n-1)
    rng = CountingRng(41)
    fracs = []
    signs = 0
    for _ in range(4000):
        pt, _ = sample_sphere_surface(AbsWeightedGaussian(), 3, 4.0, rng)
        assert math.fsum(v * v for v in pt) == pytest.approx(4.0, abs=1e-9)
        fracs.append(pt[0] * pt[0] / 4.0)
        signs += pt[0] > 0
    _, p = ks_statistic(fracs, beta_dist(1.0, 2.0).cdf)
    assert p > 1e-3
    assert abs(signs / 4000 - 0.5) < 0.03


def test_sphere_surface_guards_a_false_bound():
    rng = CountingRng(43)
    with pytest.raises(ValueError):
        sample_sphere_surface(Normal(0.0, 1.0), 3, 1.0, rng)
    # gaussian coordinates make the completion weight blow up near the
    # equator, so no finite bound is valid; the guard must refuse rather
    # than silently clamp
    with pytest.raises(InvalidRejection):
        for _ in range(500):
            sample_sphere_surface(Normal(0.0, 1.0), 3, 1.0, rng, sup_bound=1.0)


def test_hypersimplex_sample_contract():
    rng = CountingRng(47)
    for _ in range(500):
        pt, rec = sample_hypersimplex(5, 2.5, rng)
        assert math.fsum(pt) == pytest.approx(2.5, abs=1e-9)
        assert all(0.0 <= v <= 1.0 for v in pt)
    with pytest.raises(InfeasibleTarget):
        sample_hypersimplex(3, 3.5, rng)


def test_hypersimplex_rejection_consumes_no_uniforms():
    rng = CountingRng(53)
    before = rng.calls
    attempts = 0
    for _ in range(200):
        _, rec = sample_hypersimplex(3, 1.5, rng)
        attempts += rec.attempts
    assert rng.calls - before == 2 * attempts


def test_rado_check_frozen_cases():
    # permutations of (1..4) themselves sit on the permutahedron
    assert rado_check((4.0, 3.0, 2.0, 1.0))
    assert rado_check((2.5, 2.5, 2.5, 2.5))
    # the top two coordinates may not exceed 4 + 3
    assert not rado_check((4.0, 4.0, 1.0, 1.0))
    assert not rado_check((1.0, 1.0, 1.0, 1.0))  # wrong total
    assert not rado_check((5.0, 2.0, 2.0, 1.0))  # first prefix too big


def test_permutahedron_points_are_members_with_exact_sum():
    rng = CountingRng(59)
    for _ in range(500):
        pt, _ = sample_permutahedron(4, rng)
        assert rado_check(pt)
        assert math.fsum(pt) == 10.0
        assert all(1.0 <= v <= 4.0 for v in pt)


def test_permutahedron_coordinates_are_exchangeable():
    rng = CountingRng(61)
    acc = np.zeros(4)
    trials = 4000
    for _ in range(trials):
        pt, _ = sample_permutahedron(4, rng)
        acc += np.asarray(pt)
    means = acc / trials
    assert np.allclose(means, 2.5, atol=0.05)


@given(st.integers(min_value=3, max_value=7))
@settings(max_examples=10, deadline=None)
def test_permutahedron_membership_any_n(n):
    rng = CountingRng(600 + n)
    pt, _ = sample_permutahedron(n, rng)
    assert rado_check(pt)
    assert math.fsum(pt) == n * (n + 1) / 2.0


def test_borel_variant_laws():
    # conditioning X+Y on the null event X=Y by three different limiting
    # procedures gives three different answers
    cdf1 = lambda v: 0.5 * (1.0 + math.erf(v))
    cdf2 = lambda v: 0.5 * math.exp(-v * v) if v < 0 else 1.0 - 0.5 * math.exp(-v * v)
    cdf3 = lambda v: 0.5 * (1.0 + math.erf(v / math.sqrt(2.0)))
    for variant, cdf in ((1, cdf1), (2, cdf2), (3, cdf3)):
        rng = CountingRng(67 + variant)
        draws = [borel_conditional_sample(variant, rng)[0] for _ in range(20000)]
        _, p = ks_statistic(draws, cdf)
        assert p > 1e-3, variant


def test_borel_variants_disagree():
    rng = CountingRng(71)
    a = [borel_conditional_sample(1, rng)[0] for _ in range(20000)]
    b = [borel_conditional_sample(2, rng)[0] for _ in range(20000)]
    c = [borel_conditional_sample(3, rng)[0] for _ in range(20000)]
    assert ks_two_sample(a, b)[1] < 1e-6
    assert ks_two_sample(a, c)[1] < 1e-6
    assert ks_two_sample(b, c)[1] < 1e-6
    with pytest.raises(ValueError):
        borel_conditional_sample(4, rng)


def test_borel_second_moments_separate_the_variants():
    rng = CountingRng(73)
    v1 = np.mean([borel_conditional_sample(1, rng)[0] ** 2 for _ in range(20000)])
    v2 = np.mean([borel_conditional_sample(2, rng)[0] ** 2 for _ in range(20000)])
    v3 = np.mean([borel_conditional_sample(3, rng)[0] ** 2 for _ in range(20000)])
    assert v1 == pytest.approx(0.5, abs=0.03)
    assert v2 == pytest.approx(1.0, abs=0.05)
    assert v3 == pytest.approx(1.0, abs=0.05)

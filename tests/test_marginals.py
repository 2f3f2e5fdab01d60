import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactcond.errors import UnboundedDensity
from exactcond.marginals import (
    AbsWeightedGaussian,
    Bernoulli,
    Beta,
    Binomial,
    CountingRng,
    Exponential,
    Geometric,
    NegativeBinomial,
    Normal,
    Poisson,
    SignedUnit,
    UniformInt,
    UniformReal,
    derive_seed,
)
from exactcond.verify import chi_squared_gof, ks_statistic


def test_counting_rng_counts_every_uniform():
    rng = CountingRng(1)
    assert rng.calls == 0
    rng.uniform()
    assert rng.calls == 1
    rng.uniforms(100)
    assert rng.calls == 101
    rng.uniforms(5000)
    assert rng.calls == 5101


def test_counting_rng_stream_order_is_call_shape_independent():
    # the j-th uniform consumed must be the same double no matter how
    # scalar and bulk requests interleave
    a = CountingRng(42)
    b = CountingRng(42)
    seq_a = [a.uniform() for _ in range(10)]
    seq_b = list(b.uniforms(3)) + [b.uniform()] + list(b.uniforms(6))
    assert seq_a == pytest.approx(seq_b, abs=0.0)


def test_counting_rng_bulk_spans_buffer_boundary():
    a = CountingRng(7)
    b = CountingRng(7)
    big = 4096 + 123
    left = list(a.uniforms(big))
    right = [b.uniform() for _ in range(big)]
    assert left == right


def test_counting_rng_peek_and_consume_keep_the_stream():
    # reading ahead across the 4096-double block edge, then consuming
    # through every entry point, must hand out the plain uniform() stream
    a = CountingRng(5)
    got = a.uniforms(4000).tolist() + [a.uniform()]
    ahead = a.peek(300).tolist()
    assert a.calls == 4001
    assert a.peek(300).tolist() == ahead
    a.consume(50)
    got += ahead[:50]
    got += a.uniforms(100).tolist()
    assert got[-100:] == ahead[50:150]
    got += [a.uniform() for _ in range(200)]
    got += a.peek(9000).tolist()
    a.consume(9000)
    got += a.uniforms(10).tolist()
    assert a.calls == len(got) == 13361
    b = CountingRng(5)
    assert got == [b.uniform() for _ in range(len(got))]
    assert b.calls == a.calls


def test_counting_rng_reproducible():
    assert [CountingRng(9).uniform() for _ in range(1)] == [CountingRng(9).uniform()]


def test_derive_seed_spreads_indices():
    seeds = {derive_seed(1234, i) for i in range(200)}
    assert len(seeds) == 200
    assert derive_seed(1234, 0) == derive_seed(1234, 0)
    assert derive_seed(1234, 0) != derive_seed(1235, 0)


def test_geometric_pmf_and_mode():
    g = Geometric(0.5)
    assert g.density(0) == pytest.approx(0.5)
    assert g.density(3) == pytest.approx(0.5 ** 3 * 0.5)
    assert g.density(-1) == 0.0
    assert g.mode() == 0
    assert g.sup_density() == pytest.approx(0.5)
    assert g.support_bounds() == (0, math.inf)


def test_geometric_sampling_costs_one_uniform_and_matches_pmf():
    g = Geometric(0.6)
    rng = CountingRng(3)
    draws = [g.sample(rng) for _ in range(20000)]
    assert rng.calls == 20000
    counts: dict = {}
    for k in draws:
        counts[k] = counts.get(k, 0) + 1
    support = range(0, max(counts) + 1)
    _, _, p = chi_squared_gof(
        {k: counts.get(k, 0) for k in support}, {k: g.density(k) for k in support}
    )
    assert p > 1e-3


def test_poisson_mode_breaks_ties_downward():
    assert Poisson(3.7).mode() == 3
    # integer rate ties pmf(rate-1) == pmf(rate); report the smaller
    p4 = Poisson(4.0)
    assert p4.mode() == 3
    assert p4.density(3) == pytest.approx(p4.density(4))
    assert Poisson(0.3).mode() == 0


def test_poisson_zero_rate_is_point_mass():
    p = Poisson(0.0)
    assert p.density(0) == 1.0
    assert p.density(1) == 0.0
    rng = CountingRng(5)
    assert p.sample(rng) == 0
    assert p.support_bounds() == (0, 0)


def test_poisson_sampling_law_and_cost():
    p = Poisson(2.5)
    rng = CountingRng(11)
    draws = [p.sample(rng) for _ in range(20000)]
    assert rng.calls == 20000
    counts: dict = {}
    for k in draws:
        counts[k] = counts.get(k, 0) + 1
    support = range(0, max(counts) + 1)
    _, _, pval = chi_squared_gof(
        {k: counts.get(k, 0) for k in support}, {k: p.density(k) for k in support}
    )
    assert pval > 1e-3


def test_bernoulli_and_binomial_modes():
    b = Bernoulli(0.3)
    assert b.mode() == 0
    assert b.sup_density() == pytest.approx(0.7)
    assert Binomial(10, 0.5).mode() == 5
    # (m+1)p integral ties the pmf at two neighbours; take the smaller
    tie = Binomial(9, 0.5)
    assert tie.mode() == 4
    assert tie.density(4) == pytest.approx(tie.density(5))


def test_binomial_law():
    b = Binomial(6, 0.37)
    rng = CountingRng(13)
    draws = [b.sample(rng) for _ in range(20000)]
    assert rng.calls == 20000
    counts = {k: 0 for k in range(7)}
    for k in draws:
        counts[k] += 1
    _, _, pval = chi_squared_gof(counts, {k: b.density(k) for k in range(7)})
    assert pval > 1e-3
    assert sum(b.density(k) for k in range(7)) == pytest.approx(1.0)


def test_negative_binomial_mode_tie():
    nb = NegativeBinomial(3, 0.5)
    # (m-1)x/(1-x) = 2 exactly, so pmf(1) == pmf(2); smaller argmax wins
    assert nb.density(1) == pytest.approx(nb.density(2))
    assert nb.mode() == 1
    assert NegativeBinomial(1, 0.4).mode() == 0


def test_negative_binomial_law():
    nb = NegativeBinomial(2, 0.45)
    rng = CountingRng(17)
    draws = [nb.sample(rng) for _ in range(20000)]
    assert rng.calls == 20000
    counts: dict = {}
    for k in draws:
        counts[k] = counts.get(k, 0) + 1
    support = range(0, max(counts) + 1)
    _, _, pval = chi_squared_gof(
        {k: counts.get(k, 0) for k in support}, {k: nb.density(k) for k in support}
    )
    assert pval > 1e-3


def test_negative_binomial_scan_ends_at_float_saturation():
    # the size-2 coordinate of Multiset(100): its mass sticks at a subnormal
    # (1e-323 * 0.77 rounds back to 1e-323) while the running cdf saturates
    # below u, so a scan that only stops on a zero mass never returns
    code = (
        "from exactcond.marginals import NegativeBinomial\n"
        "class Stub:\n"
        "    def uniform(self):\n"
        "        return 1 - 2 ** -53\n"
        "print(NegativeBinomial(1, 0.7737472833305733).sample(Stub()))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    k = int(proc.stdout)
    # past the mode at 0 the scan stops where 0.77^k no longer moves the sum
    assert 100 < k < 200


@pytest.mark.parametrize(
    "marginal",
    [Binomial(2000, 0.5), NegativeBinomial(3000, 0.5), Poisson(1000.0), Poisson(614_400.0)],
    ids=repr,
)
def test_underflowing_start_mass_keeps_the_law(marginal):
    # the mass at 0 ((1-p)^m, e^-rate) underflows to 0, so a table run up
    # from it would pin every draw to one end of the support; one uniform a
    # draw holds up to the largest Poisson rate allowed
    rng = CountingRng(29)
    draws = [marginal.sample(rng) for _ in range(20000)]
    assert rng.calls == 20000
    counts: dict = {}
    for k in draws:
        counts[k] = counts.get(k, 0) + 1
    mode = marginal.mode()
    support = range(min(mode - 400, *counts), max(mode + 400, *counts) + 1)
    _, _, pval = chi_squared_gof(
        {k: counts.get(k, 0) for k in support}, {k: marginal.density(k) for k in support}
    )
    assert pval > 1e-3


@pytest.mark.parametrize(
    "marginal",
    [
        Poisson(1e3),
        Poisson(1e5),
        Poisson(614_400.0),
        Binomial(2000, 0.5),
        Binomial(10**6, 0.3),
        NegativeBinomial(3000, 0.5),
        NegativeBinomial(10**4, 0.5),
    ],
    ids=repr,
)
def test_cdf_table_matches_scipy_at_extreme_parameters(marginal):
    from scipy import stats

    if isinstance(marginal, Poisson):
        law = stats.poisson(marginal.rate)
    elif isinstance(marginal, Binomial):
        law = stats.binom(marginal.trials, marginal.success)
    else:
        # scipy's nbinom(n, p) counts failures of chance 1 - p before n successes
        law = stats.nbinom(marginal.blocks, 1.0 - marginal.ratio)
    table = marginal.cdf_table
    want = law.cdf(np.arange(len(table)))
    seen = want > 1e-300
    assert seen.any()
    assert np.max(np.abs(table[seen] - want[seen]) / want[seen]) < 1e-10


def test_uniform_int_and_signed_unit():
    u = UniformInt(2, 5)
    assert u.density(2) == pytest.approx(0.25)
    assert u.density(6) == 0.0
    assert u.mode() == 2
    assert u.sup_density() == pytest.approx(0.25)
    s = SignedUnit()
    assert s.density(0) == 0.0
    assert s.in_support(-1) and s.in_support(1) and not s.in_support(0)
    assert list(s.support_iter()) == [-1, 1]
    rng = CountingRng(23)
    draws = [s.sample(rng) for _ in range(2000)]
    assert rng.calls == 2000
    assert set(draws) == {-1, 1}


@given(st.floats(min_value=0.05, max_value=0.95), st.integers(min_value=0, max_value=60))
def test_geometric_max_pmf_dominates(ratio, k):
    g = Geometric(ratio)
    assert g.sup_density() >= g.density(k)


@given(st.floats(min_value=0.05, max_value=30.0), st.integers(min_value=0, max_value=80))
@settings(max_examples=60)
def test_poisson_max_pmf_dominates(rate, k):
    p = Poisson(rate)
    assert p.sup_density() >= p.density(k) * (1.0 - 1e-12)


@given(
    st.integers(min_value=1, max_value=25),
    st.floats(min_value=0.05, max_value=0.95),
    st.integers(min_value=0, max_value=30),
)
@settings(max_examples=60)
def test_binomial_max_pmf_dominates(m, p, k):
    b = Binomial(m, p)
    assert b.sup_density() >= b.density(k) * (1.0 - 1e-12)


def test_exponential_inversion():
    e = Exponential(2.0)
    rng = CountingRng(29)
    draws = [e.sample(rng) for _ in range(20000)]
    assert rng.calls == 20000
    _, p = ks_statistic(draws, lambda y: -math.expm1(-2.0 * y) if y > 0 else 0.0)
    assert p > 1e-3
    assert e.sup_density() == pytest.approx(2.0)
    assert e.density(-0.5) == 0.0


def test_uniform_real():
    u = UniformReal(1.0, 3.0)
    assert u.density(2.0) == pytest.approx(0.5)
    assert u.density(0.0) == 0.0
    assert u.sup_density() == pytest.approx(0.5)
    rng = CountingRng(31)
    draws = [u.sample(rng) for _ in range(5000)]
    assert rng.calls == 5000
    assert min(draws) >= 1.0 and max(draws) <= 3.0


def test_normal_costs_two_uniforms():
    n = Normal(0.0, 1.0)
    rng = CountingRng(37)
    draws = [n.sample(rng) for _ in range(20000)]
    assert rng.calls == 40000
    _, p = ks_statistic(draws, lambda y: 0.5 * (1.0 + math.erf(y / math.sqrt(2.0))))
    assert p > 1e-3
    assert n.sup_density() == pytest.approx(1.0 / math.sqrt(2.0 * math.pi))


def test_beta_density_and_sampling():
    b = Beta(2.0, 3.0)
    # B(2,3) = 1/12, density 12 y (1-y)^2
    assert b.density(0.25) == pytest.approx(12 * 0.25 * 0.75 ** 2)
    assert b.sup_density() == pytest.approx(12 * (1 / 3) * (2 / 3) ** 2)
    rng = CountingRng(41)
    from scipy.stats import beta as beta_dist

    draws = [b.sample(rng) for _ in range(20000)]
    _, p = ks_statistic(draws, beta_dist(2.0, 3.0).cdf)
    assert p > 1e-3


@pytest.mark.parametrize("a, b", [(0.5, 0.7), (2.0, 0.4)])
def test_beta_with_a_shape_below_one_matches_its_law(a, b):
    # a gamma shape below 1 is drawn through the U^(1/shape) boost
    from scipy.stats import beta as beta_dist

    rng = CountingRng(11)
    draws = [Beta(a, b).sample(rng) for _ in range(5000)]
    _, p = ks_statistic(draws, beta_dist(a, b).cdf)
    assert p > 1e-3


def test_beta_flat_and_unbounded_cases():
    assert Beta(1.0, 1.0).sup_density() == pytest.approx(1.0)
    assert Beta(1.0, 2.0).sup_density() == pytest.approx(2.0)
    with pytest.raises(UnboundedDensity):
        Beta(0.5, 0.5).sup_density()
    with pytest.raises(ValueError):
        Beta(0.0, 1.0)


def test_abs_weighted_gaussian():
    a = AbsWeightedGaussian()
    assert a.density(1.0) == pytest.approx(math.exp(-1.0))
    peak = 1.0 / math.sqrt(2.0)
    assert a.sup_density() == pytest.approx(a.density(peak))
    rng = CountingRng(43)
    draws = [a.sample(rng) for _ in range(20000)]
    assert rng.calls == 40000
    # square of a draw is Exponential(1)
    _, p = ks_statistic([d * d for d in draws], lambda y: -math.expm1(-y) if y > 0 else 0.0)
    assert p > 1e-3
    signs = sum(1 for d in draws if d > 0)
    assert abs(signs / len(draws) - 0.5) < 0.02


def test_parameter_validation():
    with pytest.raises(ValueError):
        Geometric(1.0)
    with pytest.raises(ValueError):
        Geometric(0.0)
    with pytest.raises(ValueError):
        Poisson(-1.0)
    # the largest rate allowed costs one uniform a draw
    rng = CountingRng(1)
    Poisson(614_400.0).sample(rng)
    assert rng.calls == 1
    with pytest.raises(ValueError, match="exceeds the limit 614400"):
        Poisson(614_401.0)
    with pytest.raises(ValueError):
        Bernoulli(1.5)
    with pytest.raises(ValueError):
        Binomial(0, 0.5)
    with pytest.raises(ValueError):
        NegativeBinomial(2, 1.0)
    with pytest.raises(ValueError):
        UniformInt(3, 2)
    with pytest.raises(ValueError):
        UniformReal(1.0, 1.0)
    with pytest.raises(ValueError):
        Exponential(0.0)
    with pytest.raises(ValueError):
        Normal(0.0, 0.0)

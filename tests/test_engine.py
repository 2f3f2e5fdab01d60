import itertools
import math
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from exactcond import engine
from exactcond.engine import (
    DEFAULT_MAX_ATTEMPTS,
    ConditioningProblem,
    SecondConstraint,
    complete_from_sums,
    dsh_sample,
    hard_rejection_sample,
    soft_rejection_sample,
    _block_drawer,
    _draw,
)
from exactcond.errors import (
    InfeasibleTarget,
    InvalidRejection,
    NonTerminating,
    SingularSystem,
    SupportTooLarge,
)
from exactcond.geometry import (
    IntervalUnion, sample_exponential_sum, sample_permutahedron, sample_sphere_surface,
)
from exactcond.marginals import (
    Bernoulli,
    Binomial,
    CountingRng,
    Exponential,
    Geometric,
    NegativeBinomial,
    Poisson,
    SignedUnit,
    UniformInt,
    UniformReal,
    block_inversion,
    _cell_table,
)
from exactcond.structures import (
    Assembly,
    DistinctPartition,
    EwensProfile,
    Multiset,
    Partition,
    PlanePartitionGrid,
    Selection,
    SetPartition,
    _counts_problem,
    build_problem,
    small_ball_sample,
)
from exactcond.verify import chi_squared_gof, enumerate_conditional, ks_statistic


def geometric_problem():
    # two coordinates with ratios (x, x^2) and weights (1, 2): configs of
    # equal weighted size get equal mass, so target 2 splits 1/2 and 1/2
    # between (2, 0) and (0, 1)
    return ConditioningProblem(
        marginals=(Geometric(0.5), Geometric(0.25)),
        weights=(1, 2),
        target=2,
        index_set=(0,),
    )


def test_enumeration_of_geometric_toy():
    exact = enumerate_conditional(geometric_problem())
    assert exact.prob((2, 0)) == pytest.approx(0.5)
    assert exact.prob((0, 1)) == pytest.approx(0.5)
    assert len(exact.support()) == 2


def test_problem_validation():
    with pytest.raises(ValueError, match="at least one coordinate"):
        ConditioningProblem(marginals=(), weights=(), target=0, index_set=(0,))
    with pytest.raises(ValueError):
        ConditioningProblem(
            marginals=(Geometric(0.5),), weights=(1, 2), target=2, index_set=(0,)
        )
    with pytest.raises(ValueError, match="coefficient count"):
        ConditioningProblem(
            marginals=(Geometric(0.5), Geometric(0.5)), weights=(1, 2), target=2,
            index_set=(0, 1), second=SecondConstraint(coeffs=(1, 1, 1), target=1),
        )
    for index_set in ((2,), (-1,)):
        with pytest.raises(ValueError, match="out of range"):
            ConditioningProblem(
                marginals=(Geometric(0.5), Geometric(0.5)), weights=(1, 2), target=2,
                index_set=index_set,
            )
    with pytest.raises(SingularSystem):
        ConditioningProblem(
            marginals=(Geometric(0.5), Geometric(0.5)),
            weights=(0, 2),
            target=2,
            index_set=(0,),
        )
    with pytest.raises(ValueError):
        ConditioningProblem(
            marginals=(Geometric(0.5), Geometric(0.5)),
            weights=(1, 2),
            target=2,
            index_set=(0, 1),
        )


@pytest.mark.parametrize(
    "weights, second",
    [
        ((1, 0.5, 2), None),
        ((1, 2, 1), SecondConstraint(coeffs=(1, 1.5, 1), target=2)),
    ],
    ids=["weight", "second-coefficient"],
)
def test_a_fractional_coefficient_is_refused_at_construction(weights, second):
    # every marginal is discrete, so every sum must be an integer; scaling
    # the weights and the target to integers states the same law
    with pytest.raises(ValueError, match="scale the weights"):
        ConditioningProblem(
            marginals=(Poisson(1.0), Binomial(3, 0.5), Poisson(0.5)),
            weights=weights, target=3, index_set=(0, 1) if second else (0,), second=second,
        )


def test_two_pivot_needs_independent_constraints():
    # second constraint proportional to the first leaves a singular system
    with pytest.raises(SingularSystem):
        ConditioningProblem(
            marginals=(Poisson(1.0), Poisson(1.0), Poisson(1.0)),
            weights=(1, 1, 2),
            target=3,
            index_set=(0, 1),
            second=SecondConstraint(coeffs=(2, 2, 4), target=6),
        )


def test_linear_completion_exact_integers():
    prob = ConditioningProblem(
        marginals=(Geometric(0.5), Geometric(0.5), Geometric(0.5)),
        weights=(2, 1, 3),
        target=10,
        index_set=(0,),
    )
    assert complete_from_sums(prob, 4) == (3,)
    assert complete_from_sums(prob, 10) == (0,)
    # residue not divisible by the pivot weight
    assert complete_from_sums(prob, 5) is None
    # negative completion is outside geometric support
    assert complete_from_sums(prob, 12) is None
    # free values (x2, x3) = (1, 1)
    assert complete_from_sums(prob, 1 * 1 + 3 * 1) == (3,)


def test_two_constraint_completion_by_exact_elimination():
    prob = ConditioningProblem(
        marginals=(Poisson(1.0), Poisson(0.5), Poisson(0.4), Poisson(0.2)),
        weights=(1, 2, 3, 4),
        target=5,
        index_set=(0, 1),
        second=SecondConstraint(coeffs=(1, 1, 1, 1), target=2),
    )
    # free values (x3, x4) = (1, 0): residuals r_lin = 2, r_cnt = 1
    assert complete_from_sums(prob, 3, 1) == (0, 1)
    assert complete_from_sums(prob, 3 * 1 + 4 * 0, 1 + 0) == (0, 1)
    # residuals solvable only in negatives are dead
    assert complete_from_sums(prob, 5, 2) == (0, 0)
    assert complete_from_sums(prob, 5, 0) is None
    # negative solution of the 2x2 system is dead
    assert complete_from_sums(prob, 2, 1) is None
    # the pivot block is a set: listed out of order it is sorted, and the
    # problem draws the same records
    unsorted = replace(prob, index_set=(1, 0))
    assert unsorted.index_set == (0, 1)
    for engine in (dsh_sample, hard_rejection_sample):
        assert [engine(unsorted, CountingRng(seed)) for seed in range(5)] == [
            engine(prob, CountingRng(seed)) for seed in range(5)
        ]


def test_hard_and_dsh_agree_with_enumeration():
    prob = geometric_problem()
    exact = enumerate_conditional(prob)
    for sampler in (hard_rejection_sample, dsh_sample):
        rng = CountingRng(101)
        counts: dict = {}
        for _ in range(5000):
            rec = sampler(prob, rng)
            counts[rec.outcome] = counts.get(rec.outcome, 0) + 1
        assert set(counts) <= set(exact.support())
        _, _, p = chi_squared_gof(
            counts, {k: exact.prob(k) * 5000 for k in exact.support()}
        )
        assert p > 1e-3


# a small discrete marginal of the catalog, with its mean
CATALOG_MARGINALS = st.one_of(
    st.floats(0.1, 0.7).map(lambda r: (Geometric(r), r / (1.0 - r))),
    st.floats(0.2, 3.0).map(lambda a: (Poisson(a), a)),
    st.floats(0.1, 0.9).map(lambda s: (Bernoulli(s), s)),
    st.tuples(st.integers(1, 5), st.floats(0.1, 0.9)).map(
        lambda t: (Binomial(*t), t[0] * t[1])
    ),
    st.tuples(st.integers(1, 3), st.floats(0.1, 0.6)).map(
        lambda t: (NegativeBinomial(*t), t[0] * t[1] / (1.0 - t[1]))
    ),
    st.tuples(st.integers(0, 2), st.integers(0, 3)).map(
        lambda t: (UniformInt(t[0], t[0] + t[1]), t[0] + t[1] / 2)
    ),
    st.just((SignedUnit(), 0.0)),
)


@given(
    coords=st.lists(st.tuples(CATALOG_MARGINALS, st.integers(1, 3)), min_size=2, max_size=4),
    offset=st.integers(-1, 1),
    pivot=st.integers(0, 3),
)
@settings(max_examples=25, derandomize=True, deadline=None)
def test_engines_match_the_oracle_on_catalog_problems(coords, offset, pivot):
    # the target sits next to the mean of the weighted sum
    marginals = tuple(m for (m, _), _ in coords)
    weights = tuple(w for _, w in coords)
    target = round(sum(w * mean for (_, mean), w in coords)) + offset
    prob = ConditioningProblem(
        marginals=marginals, weights=weights, target=target,
        index_set=(pivot % len(marginals),),
    )
    try:
        exact = enumerate_conditional(prob, support_cap=60)
    except (InfeasibleTarget, SupportTooLarge):
        assume(False)
    assume(len(exact.support()) >= 2)
    pivot = prob.marginals[prob.index_set[0]]

    def q(vals):
        got = complete_from_sums(prob, _free_sum(prob, vals))
        return 0.0 if got is None else pivot.density(got[0])

    def second_half(vals, rng):
        return complete_from_sums(prob, _free_sum(prob, vals))

    def soft_rejection(prob, rng, max_attempts):
        # the dsh-mirroring weight: the pivot's mass over its bound
        return soft_rejection_sample(
            prob, q, pivot.sup_density(), rng, second_half, max_attempts=max_attempts
        )

    # 25 examples of three engines each: 1e-4 per check keeps a chance
    # failure of the whole test near 0.75%
    for sampler, seed in ((dsh_sample, 11), (hard_rejection_sample, 13), (soft_rejection, 15)):
        rng = CountingRng(seed)
        counts = Counter(sampler(prob, rng, max_attempts=10 ** 5).outcome for _ in range(2000))
        _, _, p = chi_squared_gof(counts, exact.probs)
        assert p > 1e-4, (sampler.__name__, prob)


# a bounded marginal of the catalog: the oracle enumerates a bounded
# coordinate under a weight of either sign
BOUNDED_MARGINALS = st.one_of(
    st.floats(0.1, 0.9).map(Bernoulli),
    st.tuples(st.integers(1, 5), st.floats(0.1, 0.9)).map(lambda t: Binomial(*t)),
    st.tuples(st.integers(-2, 2), st.integers(0, 3)).map(
        lambda t: UniformInt(t[0], t[0] + t[1])
    ),
    st.just(SignedUnit()),
)

# a marginal with its weight: any catalog marginal under a positive
# weight, a bounded one under a negative weight too
SIGNED_COORDS = st.one_of(
    st.tuples(CATALOG_MARGINALS.map(lambda t: t[0]), st.integers(1, 3)),
    st.tuples(BOUNDED_MARGINALS, st.sampled_from((-3, -2, -1, 1, 2, 3))),
)


def _near_mode(m, step):
    return m.mode() + step if m.in_support(m.mode() + step) else m.mode()


@pytest.mark.parametrize("two", [False, True], ids=["one-constraint", "two-constraint"])
@given(
    coords=st.lists(
        st.tuples(SIGNED_COORDS, st.integers(0, 2), st.integers(0, 2)), min_size=3, max_size=5
    ),
    pivots=st.tuples(st.integers(0, 4), st.integers(0, 3)),
)
# about seven in ten generated two-constraint problems have one outcome,
# are too rare to hit or have no second constraint independent of the
# first, so the filtering health check is off: it judges generation
# speed, not the law
@settings(
    max_examples=15, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
def test_engines_match_the_oracle_on_signed_and_two_constraint_problems(two, coords, pivots):
    # the targets are the statistics of a vector at or just above the
    # marginals' modes, so the event is never empty; a second constraint
    # with coefficients 0-2 needs a nonsingular two-coordinate pivot block
    marginals = tuple(m for (m, _), _, _ in coords)
    weights = tuple(w for (_, w), _, _ in coords)
    coeffs = tuple(c for _, c, _ in coords)
    point = [_near_mode(m, step) for (m, _), _, step in coords]
    n = len(coords)
    i = pivots[0] % n
    if two:
        # the second pivot only among the coordinates that leave the
        # block nonsingular
        others = [k for k in range(n) if weights[i] * coeffs[k] != weights[k] * coeffs[i]]
        assume(others)
        j = others[pivots[1] % len(others)]
        index_set = tuple(sorted((i, j)))
        second = SecondConstraint(coeffs=coeffs, target=sum(c * v for c, v in zip(coeffs, point)))
    else:
        index_set, second = (i,), None
    prob = ConditioningProblem(
        marginals=marginals, weights=weights,
        target=sum(w * v for w, v in zip(weights, point)),
        index_set=index_set, second=second,
    )
    try:
        exact = enumerate_conditional(prob, support_cap=60)
    except SupportTooLarge:
        assume(False)
    assume(len(exact.support()) >= 2)
    # the chance that a full draw hits the targets bounds the cost of
    # either engine, which never needs more attempts than hard rejection
    hit = math.fsum(
        math.prod(m.density(v) for m, v in zip(marginals, outcome)) for outcome in exact.probs
    )
    assume(hit > 0.02)
    pivot_marginals = [marginals[k] for k in index_set]

    def completed(vals):
        lin, sec = (
            sum(a[k] * v for k, v in zip(prob.free_indices, vals))
            for a in (weights, coeffs if two else (0,) * n)
        )
        return complete_from_sums(prob, lin, sec)

    def q(vals):
        got = completed(vals)
        return 0.0 if got is None else math.prod(
            m.density(v) for m, v in zip(pivot_marginals, got)
        )

    def soft_rejection(prob, rng, max_attempts):
        # the dsh-mirroring weight: the completed pivots' masses over the
        # product of their bounds
        bound = math.prod(m.sup_density() for m in pivot_marginals)
        return soft_rejection_sample(
            prob, q, bound, rng, lambda vals, _rng: completed(vals), max_attempts=max_attempts
        )

    # 2 x 15 examples of three engines each: 1e-4 per check keeps a chance
    # failure of the whole test near 0.9%
    for sampler, seed in ((dsh_sample, 17), (hard_rejection_sample, 19), (soft_rejection, 21)):
        rng = CountingRng(seed)
        counts = Counter(sampler(prob, rng, max_attempts=10 ** 5).outcome for _ in range(1000))
        _, _, p = chi_squared_gof(counts, exact.probs)
        assert p > 1e-4, (sampler.__name__, prob)


def test_record_rng_calls_match_generator_deltas():
    prob = geometric_problem()
    rng = CountingRng(7)
    for sampler in (hard_rejection_sample, dsh_sample):
        before = rng.calls
        rec = sampler(prob, rng)
        assert rec.rng_calls == rng.calls - before
        assert rec.attempts >= 1


def test_uniform_weight_rejection_is_free():
    # three uniform coordinates summing to 1.5; pivot density is flat, so
    # acceptance costs nothing: every attempt is exactly two uniforms
    prob = ConditioningProblem(
        marginals=(UniformReal(0.0, 1.0),) * 3,
        weights=(1.0, 1.0, 1.0),
        target=1.5,
        index_set=(0,),
    )
    rng = CountingRng(19)
    total_attempts = 0
    for _ in range(500):
        rec = dsh_sample(prob, rng)
        total_attempts += rec.attempts
        assert math.fsum(rec.outcome) == pytest.approx(1.5, abs=1e-9)
        assert all(0.0 < v < 1.0 for v in rec.outcome)
    assert rng.calls == 2 * total_attempts
    # the same holds for a flat integer pivot: three dice summing to 10
    dice = ConditioningProblem(
        marginals=(UniformInt(1, 6),) * 3, weights=(1, 1, 1), target=10, index_set=(0,)
    )
    rng = CountingRng(19)
    counts: dict = {}
    total_attempts = 0
    for _ in range(3000):
        rec = dsh_sample(dice, rng)
        total_attempts += rec.attempts
        counts[rec.outcome] = counts.get(rec.outcome, 0) + 1
    assert rng.calls == 2 * total_attempts
    exact = enumerate_conditional(dice)
    assert set(counts) <= set(exact.support())
    _, _, p = chi_squared_gof(counts, {k: exact.prob(k) * 3000 for k in exact.support()})
    assert p > 1e-3


def test_mixed_pivot_block_is_refused():
    # a two-coordinate pivot block of one integer and one real marginal
    prob = ConditioningProblem(
        marginals=(Poisson(1.0), UniformReal(0.0, 2.0), Poisson(2.0)),
        weights=(1, 1, 1),
        target=3,
        index_set=(0, 1),
        second=SecondConstraint(coeffs=(1, 2, 3), target=4),
    )
    rng = CountingRng(3)
    with pytest.raises(ValueError, match="mix"):
        dsh_sample(prob, rng)
    assert rng.calls == 0
    # a discrete pivot beside a free exponential: the residual 3 - Exp is
    # real, so no integer pivot ever completes it
    prob = ConditioningProblem((Geometric(0.5), Exponential(1.0)), (1, 1), 3, (0,))
    with pytest.raises(ValueError, match="mix"):
        dsh_sample(prob, rng, max_attempts=20)
    assert rng.calls == 0


def test_continuous_dsh_exponential_sum():
    prob = ConditioningProblem(
        marginals=(Exponential(1.0),) * 3,
        weights=(1.0, 1.0, 1.0),
        target=1.0,
        index_set=(0,),
    )
    rng = CountingRng(23)
    rec = dsh_sample(prob, rng)
    assert math.fsum(rec.outcome) == pytest.approx(1.0, abs=1e-9)
    assert all(v > 0.0 for v in rec.outcome)
    # per attempt: two free exponentials, plus one acceptance uniform on
    # completable attempts only
    assert 2 * rec.attempts < rec.rng_calls <= 3 * rec.attempts


def test_numpy_marginal_parameters_give_python_floats():
    # a numpy-typed rate makes every drawn value and the pivot numpy
    # floats; the outcome still holds Python floats
    prob = ConditioningProblem(
        marginals=(Exponential(np.float64(1.0)),) * 3,
        weights=(1.0, 1.0, 1.0),
        target=1.0,
        index_set=(1,),
    )
    soft = partial(
        soft_rejection_sample, q=lambda a: 1.0, q_sup=1.0,
        second_half=lambda a, _rng: (1.0 - sum(a),),
    )
    rng = CountingRng(23)
    for engine in (dsh_sample, soft):
        rec = engine(prob, rng=rng)
        assert [type(v) for v in rec.outcome] == [float] * 3
        assert math.fsum(rec.outcome) == pytest.approx(1.0, abs=1e-9)


def _give_up_cases():
    # every engine, plus the sign and permutahedron samplers, on a problem
    # it almost never accepts; dsh runs on a discrete, a continuous and a
    # flat pivot
    far = ConditioningProblem(
        marginals=(Geometric(0.01), Geometric(0.01)),
        weights=(1, 1),
        target=50,
        index_set=(0,),
    )
    exp_sum = ConditioningProblem(
        marginals=(Exponential(1.0),) * 10, weights=(1.0,) * 10, target=0.5, index_set=(0,)
    )
    cube = ConditioningProblem(
        marginals=(UniformReal(0.0, 1.0),) * 8, weights=(1.0,) * 8, target=0.1, index_set=(0,)
    )
    ball = IntervalUnion.open(29.5, 30.5)
    return {
        "hard": lambda rng, cap: hard_rejection_sample(far, rng, max_attempts=cap),
        "dsh_discrete": lambda rng, cap: dsh_sample(far, rng, max_attempts=cap),
        "dsh_continuous": lambda rng, cap: dsh_sample(exp_sum, rng, max_attempts=cap),
        "dsh_uniform_weight": lambda rng, cap: dsh_sample(cube, rng, max_attempts=cap),
        "soft": lambda rng, cap: soft_rejection_sample(
            far, lambda vals: 1e-300, 1.0, rng, lambda vals, r: (0,), max_attempts=cap
        ),
        "small_ball": lambda rng, cap: small_ball_sample(
            (1.0,) * 30, ball, 0, rng, max_attempts=cap
        ),
        "permutahedron": lambda rng, cap: sample_permutahedron(30, rng, max_attempts=cap),
    }


@pytest.mark.parametrize("engine", list(_give_up_cases()))
def test_rejection_loop_gives_up(engine):
    rng = CountingRng(3)
    with pytest.raises(NonTerminating) as err:
        _give_up_cases()[engine](rng, 20)
    assert err.value.attempts == 20
    assert err.value.rng_calls == rng.calls


def test_hard_rejection_refuses_continuous_problems():
    # the sum of exponentials hits 3.0 exactly with probability zero
    prob = ConditioningProblem(
        marginals=(Exponential(1.0),) * 10, weights=(1.0,) * 10, target=3.0, index_set=(0,)
    )
    rng = CountingRng(5)
    with pytest.raises(InfeasibleTarget):
        hard_rejection_sample(prob, rng, max_attempts=10)
    assert rng.calls == 0
    # hard rejection tests its hits exactly, which only an integer problem
    # does, so even a continuous coordinate of zero weight is refused
    prob = ConditioningProblem(
        marginals=(Poisson(1.0), Poisson(2.0), Exponential(1.0)),
        weights=(1, 1, 0), target=3, index_set=(0,),
    )
    with pytest.raises(InfeasibleTarget, match="discrete marginals"):
        hard_rejection_sample(prob, rng, max_attempts=10)
    assert rng.calls == 0


def _integer_problem(marginals, weights, target):
    return ConditioningProblem(
        marginals=tuple(marginals), weights=weights, target=target, index_set=(0,)
    )


# (marginals, weights, unreachable target, reachable target)
UNREACHABLE = {
    # three even terms never sum to an odd number
    "even_geometric": ((Geometric(0.5),) * 3, (2, 2, 2), 5, 4),
    # the block sums to at most 1 + 2 + 3 = 6
    "bernoulli_max": ([Bernoulli(s) for s in (0.3, 0.5, 0.6)], (1, 2, 3), 7, 6),
    # three signs sum to an odd number: the lattice step of a sign is 2
    "signs": ((SignedUnit(),) * 3, (1, 1, 1), 0, 1),
    # a negative weight on an unbounded coordinate leaves the range
    # open below only
    "negative_weight": ((Bernoulli(0.5), Poisson(1.0)), (1, -2), 2, -3),
}

ENGINES = {
    "hard": hard_rejection_sample,
    "dsh_discrete": dsh_sample,  # every problem here is discrete
    "soft": lambda prob, rng, max_attempts: soft_rejection_sample(
        prob, lambda vals: 1.0, 1.0, rng, lambda vals, r: (0,), max_attempts=max_attempts
    ),
}


@pytest.mark.parametrize("engine", list(ENGINES))
@pytest.mark.parametrize("case", list(UNREACHABLE))
def test_unreachable_integer_target_fails_before_drawing(case, engine):
    marginals, weights, unreachable, reachable = UNREACHABLE[case]
    rng = CountingRng(5)
    with pytest.raises(InfeasibleTarget):
        ENGINES[engine](_integer_problem(marginals, weights, unreachable), rng, max_attempts=10)
    assert rng.calls == 0
    prob = _integer_problem(marginals, weights, reachable)
    rec = hard_rejection_sample(prob, rng, max_attempts=10 ** 5)
    assert sum(w * v for w, v in zip(weights, rec.outcome)) == reachable


# integer sums pinned to a fractional target: the first constraint, or
# the second of two
FRACTIONAL = {
    "one_constraint": ((Poisson(1.0), Poisson(2.0)), (1, 1), 2.5, (0,), None),
    "second_constraint": (
        (Poisson(1.0), Poisson(0.5), Poisson(0.4)), (1, 2, 3), 5, (0, 1),
        SecondConstraint(coeffs=(1, 1, 1), target=2.5),
    ),
}


@pytest.mark.parametrize("engine", [dsh_sample, hard_rejection_sample], ids=["dsh", "hard"])
@pytest.mark.parametrize("case", list(FRACTIONAL))
def test_a_fractional_target_on_an_integer_sum_fails_before_drawing(case, engine):
    marginals, weights, target, pivots, second = FRACTIONAL[case]
    prob = ConditioningProblem(
        marginals=marginals, weights=weights, target=target, index_set=pivots, second=second
    )
    rng = CountingRng(5)
    with pytest.raises(InfeasibleTarget, match="2.5"):
        engine(prob, rng, max_attempts=10 ** 4)
    assert rng.calls == 0
    # called directly, the completion finds no integer pivot block either
    assert complete_from_sums(prob, 1, 0) is None


# (marginals, weights, target, engine) with no reachable target: past or
# at an end of the closed range of the sum, or not finite
UNREACHABLE_REAL = {
    "uniforms_above_range": ((UniformReal(0.0, 1.0),) * 3, (1.0,) * 3, 3.5, dsh_sample),
    # every free uniform would have to sit exactly on 1
    "uniforms_at_range_end": ((UniformReal(0.0, 1.0),) * 3, (1.0,) * 3, 3.0, dsh_sample),
    "uniforms_nan": ((UniformReal(0.0, 1.0),) * 3, (1.0,) * 3, math.nan, dsh_sample),
    "uniforms_inf": ((UniformReal(0.0, 1.0),) * 3, (1.0,) * 3, math.inf, dsh_sample),
    "exponentials_below_range": ((Exponential(1.0),) * 3, (1.0,) * 3, -1.0, dsh_sample),
    "exponentials_at_zero": ((Exponential(1.0),) * 3, (1.0,) * 3, 0.0, dsh_sample),
    # Poissons under a weight of 0.5 beside a real pivot: a real sum
    # whose range still binds
    "mixed_below_dsh": (
        (UniformReal(0.0, 1.0), Poisson(1.0), Poisson(1.0)), (1.0, 0.5, 2.0), -1, dsh_sample,
    ),
    "mixed_below_hard": (
        (UniformReal(0.0, 1.0), Poisson(1.0), Poisson(1.0)), (1.0, 0.5, 2.0), -1,
        hard_rejection_sample,
    ),
}


@pytest.mark.parametrize("case", list(UNREACHABLE_REAL))
def test_unreachable_real_target_fails_before_drawing(case):
    marginals, weights, target, engine = UNREACHABLE_REAL[case]
    prob = ConditioningProblem(
        marginals=marginals, weights=weights, target=target, index_set=(0,)
    )
    rng = CountingRng(5)
    with pytest.raises(InfeasibleTarget):
        engine(prob, rng, max_attempts=10 ** 4)
    assert rng.calls == 0


def test_a_target_on_a_pivot_end_still_draws():
    # one exponential at 0 is the point mass L(X | X = 0)
    pt, _ = sample_exponential_sum([1.0], 0.0, CountingRng(5), max_attempts=10 ** 4)
    assert pt == (0.0,)
    # at the low end of the range the only real coordinate is the pivot,
    # which sits on its own end while the Poisson draws 0
    prob = ConditioningProblem(
        marginals=(UniformReal(0.0, 1.0), Poisson(1.0)), weights=(1.0, 1.0),
        target=0.0, index_set=(0,),
    )
    assert dsh_sample(prob, CountingRng(5), max_attempts=10 ** 4).outcome == (0.0, 0)


def test_soft_rejection_draws_past_its_linear_range():
    # the sphere passes r^2 = 8 as its linear target, above the range
    # [1.5, 6] of the coordinates' plain sum, and r^2 is reachable
    rng = CountingRng(5)
    for _ in range(20):
        pt, _ = sample_sphere_surface(
            UniformReal(0.5, 2.0), 3, 8.0, rng, sup_bound=2 / 3, max_attempts=10 ** 4
        )
        assert math.fsum(v * v for v in pt) == pytest.approx(8.0, abs=1e-9)


def _free_sum(prob, vals):
    return sum(prob.weights[i] * v for i, v in zip(prob.free_indices, vals))


def test_soft_with_pivot_mass_weight_is_dsh():
    # weight density(pivot) with bound sup_density is the dsh acceptance: same
    # uniforms, same accepted outcomes, same records
    for family in (Multiset(8, multiplicities=MULTIPLICITIES), SetPartition(12)):
        prob = build_problem(family)
        pivot = prob.marginals[prob.index_set[0]]

        def q(vals):
            got = complete_from_sums(prob, _free_sum(prob, vals))
            return 0.0 if got is None else pivot.density(got[0])

        def second_half(vals, rng):
            return complete_from_sums(prob, _free_sum(prob, vals))

        soft_rng, dsh_rng = CountingRng(43), CountingRng(43)
        for _ in range(50):
            soft = soft_rejection_sample(prob, q, pivot.sup_density(), soft_rng, second_half)
            assert soft == dsh_sample(prob, dsh_rng)
        assert soft_rng.calls == dsh_rng.calls


def test_soft_rejection_matches_dsh_law():
    prob = geometric_problem()
    pivot = prob.marginals[0]

    def q(vals):
        got = complete_from_sums(prob, _free_sum(prob, vals))
        return 0.0 if got is None else pivot.density(got[0])

    def second_half(vals, rng):
        return complete_from_sums(prob, _free_sum(prob, vals))

    rng = CountingRng(29)
    counts: dict = {}
    for _ in range(5000):
        rec = soft_rejection_sample(prob, q, pivot.sup_density(), rng, second_half)
        counts[rec.outcome] = counts.get(rec.outcome, 0) + 1
    exact = enumerate_conditional(prob)
    _, _, p = chi_squared_gof(counts, {k: exact.prob(k) * 5000 for k in exact.support()})
    assert p > 1e-3


def test_soft_rejection_rejects_bad_bound():
    prob = geometric_problem()
    rng = CountingRng(31)
    with pytest.raises(InvalidRejection, match="exceeds its bound"):
        soft_rejection_sample(
            prob, lambda vals: 2.0, 1.0, rng, lambda vals, r: (0,)
        )
    with pytest.raises(InvalidRejection, match="negative"):
        soft_rejection_sample(
            prob, lambda vals: -0.5, 1.0, rng, lambda vals, r: (0,)
        )
    for q_sup in (0.0, math.inf):
        with pytest.raises(ValueError, match="finite positive bound"):
            soft_rejection_sample(
                prob, lambda vals: 0.5, q_sup, rng, lambda vals, r: (0,)
            )


def test_soft_zero_weight_consumes_no_acceptance_uniform():
    prob = geometric_problem()
    rng = CountingRng(37)
    with pytest.raises(NonTerminating):
        soft_rejection_sample(
            prob, lambda vals: 0.0, 1.0, rng, lambda vals, r: (0,), max_attempts=50
        )
    # one uniform per attempt for the free geometric draw, none for acceptance
    assert rng.calls == 50


def test_loose_upper_bound_keeps_law_exact():
    # any bound above the true sup only slows acceptance down
    prob = geometric_problem()
    pivot = prob.marginals[0]

    def q(vals):
        got = complete_from_sums(prob, _free_sum(prob, vals))
        return 0.0 if got is None else pivot.density(got[0])

    def second_half(vals, rng):
        return complete_from_sums(prob, _free_sum(prob, vals))

    rng = CountingRng(41)
    counts: dict = {}
    for _ in range(5000):
        rec = soft_rejection_sample(prob, q, 4.0 * pivot.sup_density(), rng, second_half)
        counts[rec.outcome] = counts.get(rec.outcome, 0) + 1
    exact = enumerate_conditional(prob)
    _, _, p = chi_squared_gof(counts, {k: exact.prob(k) * 5000 for k in exact.support()})
    assert p > 1e-3


MULTIPLICITIES = (3, 2, 1, 4, 1, 2, 1, 1)


def sample_plan(problem, indices):
    sec = problem.second
    return tuple(
        (problem.marginals[i].sample, problem.weights[i], sec.coeffs[i] if sec else 0)
        for i in indices
    )


# ten uniform reals with uneven weights: the block sums them with fsum
UNIT_CUBE = ConditioningProblem(
    marginals=(UniformReal(0.0, 1.0),) * 10,
    weights=tuple(1.0 + 0.25 * i for i in range(10)),
    target=5.0,
    index_set=(0,),
)


@pytest.mark.parametrize(
    "family",
    [
        SetPartition(100),
        Assembly(100),
        Multiset(100),
        Selection(60),
        EwensProfile(50, 5),
        Selection(8, multiplicities=MULTIPLICITIES),
        Multiset(8, multiplicities=MULTIPLICITIES),
        Partition(100),
        DistinctPartition(100),
        UNIT_CUBE,
    ],
    ids=lambda case: "UniformReal(0, 1) x 10" if case is UNIT_CUBE else repr(case),
)
def test_table_drawer_matches_the_sample_plan(family):
    prob = family if family is UNIT_CUBE else build_problem(family)
    for indices in (prob.free_indices, tuple(range(prob.size))):
        # the block drawer itself: the cell scan draws some of these blocks
        chosen = _block_drawer(prob, indices)
        assert chosen is not None
        plan = sample_plan(prob, indices)
        weights = [prob.weights[i] for i in indices]
        rng, ref_rng = CountingRng(3), CountingRng(3)
        for _ in range(200):
            lin, sec, vals = chosen(rng)
            ref_lin, ref_sec, ref_vals = _draw(plan, ref_rng)
            assert vals.tolist() == ref_vals
            assert sec == ref_sec
            if prob is UNIT_CUBE:
                assert lin == math.fsum(w * v for w, v in zip(weights, ref_vals))
            else:
                assert lin == ref_lin
        assert rng.calls == ref_rng.calls


class FixedUniforms:
    """Stub rng handing out a fixed list of uniforms in order."""

    def __init__(self, us):
        self.us = list(us)
        self.calls = 0

    def uniform(self):
        self.calls += 1
        return self.us[self.calls - 1]

    def uniforms(self, count):
        self.calls += count
        return np.array(self.us[self.calls - count:self.calls])

    def peek(self, count):
        # a batching drawer reads ahead of what it consumes, so pad past the list
        ahead = self.us[self.calls:self.calls + count]
        return np.array(ahead + [0.5] * (count - len(ahead)))

    def consume(self, count):
        self.calls += count


def reference_masses(m):
    """Masses over the mode's, by the recurrence run out from the mode.

    Below the mode mass(k) = mass(k+1) / ratio(k), down to 0; above it
    mass(k+1) = mass(k) ratio(k), without end.
    """
    if isinstance(m, Poisson):
        ratio = lambda k: m.rate / (k + 1)  # noqa: E731
    elif isinstance(m, Binomial):
        q = m.success / (1.0 - m.success)
        ratio = lambda k: q * (m.trials - k) / (k + 1)  # noqa: E731
    else:
        ratio = lambda k: m.ratio * (m.blocks + k) / (k + 1)  # noqa: E731
    mode = m.mode()
    below = [1.0]
    for k in range(mode - 1, -1, -1):
        below.append(below[-1] / ratio(k))
    yield from reversed(below)
    mass = 1.0
    for k in itertools.count(mode):
        mass *= ratio(k)
        yield mass


def reference_scan(m, u):
    """The first k with u <= cdf(k), walking the cdf one mass at a time.

    The walk stops at the support's last point, or past the mode where the
    next mass no longer changes the running sum; the cdf is the running
    sum over its total there.
    """
    mode, last = m.mode(), m.support_bounds()[1]
    sums = []
    cdf = 0.0
    for k, mass in enumerate(reference_masses(m)):
        if k == last or (k > mode and cdf + mass == cdf):
            total = cdf + mass
            break
        cdf += mass
        sums.append(cdf)
    return next((k for k, s in enumerate(sums) if u <= s / total), len(sums))


def edge_uniforms(marginal):
    """0, each cdf-table entry and the double above it, and the largest uniform."""
    table = marginal.cdf_table
    return [0.0, *table, *(math.nextafter(e, 1.0) for e in table), 1.0 - 2.0 ** -53]


@pytest.mark.parametrize(
    "marginal",
    [
        Poisson(0.0),
        Poisson(1e-12),
        Poisson(3.5),
        Poisson(5.0),
        Poisson(599.0),
        Poisson(1000.0),  # e^-rate underflows
        Binomial(1, 0.3),
        Binomial(9, 0.5),
        Binomial(354, 0.94),  # (1-p)^m underflows
        NegativeBinomial(1, 0.7737472833305733),
        NegativeBinomial(3, 0.5),
    ],
    ids=repr,
)
def test_table_lookup_matches_the_scan_at_edge_uniforms(marginal):
    edges = edge_uniforms(marginal)
    # the problem's one free coordinate is drawn by the vectorised lookup
    prob = ConditioningProblem(
        marginals=(marginal, marginal), weights=(1, 1), target=0, index_set=(0,)
    )
    rng = FixedUniforms(edges)
    for u in edges:
        want = reference_scan(marginal, u)
        assert marginal.sample(FixedUniforms([u])) == want
        assert prob._draw_free(rng)[2].tolist() == [want]


def scan_of(problem, monkeypatch, full=False):
    """The cell scan of the problem's free block (dsh) or full vector (hard), whatever the cost rule says."""
    monkeypatch.setattr(engine, "_SCAN_MIN_SIZE", 0)
    monkeypatch.setattr(engine, "_scan_pays", lambda *_: True)
    problem = replace(problem)
    draw = problem._draw_full if full else problem._draw_free
    assert hasattr(draw, "skip")
    return draw


# cells of hazard 1, 0.5 and 1 (Poisson(0.0) has none) at 0, 1 and 1.5 on
# the hazard axis, up to H = 2.5; no jump passes a cap, so no dead cell
ZERO_GAP_BLOCK = ConditioningProblem(
    marginals=(Poisson(1.0), Poisson(0.0), Poisson(0.5), Poisson(1.0), Poisson(2.0)),
    weights=(1, 2, 3, 4, 5), target=12, index_set=(4,),
)
# 1 - 2^-53, the largest uniform a CountingRng hands out: its gap is 53 ln 2
TOP = 1.0 - 2.0 ** -53


def at_hazard(h: float) -> float:
    """The uniform whose gap is h."""
    return -math.expm1(-h)


def test_zero_gaps_pile_points_on_one_cell(monkeypatch):
    draw = scan_of(ZERO_GAP_BLOCK, monkeypatch)
    # two zero gaps put two points at 0, in coordinate 0's cell, the next
    # one lands at 1.2, in coordinate 2's, and the largest gap closes
    rng = FixedUniforms([0.0, 0.0, at_hazard(1.2), TOP])
    lin, sec, vals = draw(rng)
    assert vals.dense() == [2, 0, 1, 0]
    assert (lin, sec, rng.calls) == (2 * 1 + 1 * 3, 0, 4)
    assert vals.closing == pytest.approx(math.exp(-(53 * math.log(2) - 1.2 - 2.5 + 1.2)))


def test_the_largest_uniform_ends_the_scan(monkeypatch):
    draw = scan_of(ZERO_GAP_BLOCK, monkeypatch)
    rng = FixedUniforms([TOP])
    lin, _, vals = draw(rng)
    assert (lin, vals.dense(), rng.calls) == (0, [0, 0, 0, 0], 1)
    # after a point as well
    rng = FixedUniforms([0.0, TOP])
    lin, _, vals = draw(rng)
    assert (lin, vals.dense(), rng.calls) == (1, [1, 0, 0, 0], 2)
    # and over a total hazard just below its gap
    prob = ConditioningProblem(
        marginals=(Poisson(36.73), Poisson(0.0), Poisson(1.0)), weights=(1, 1, 1),
        target=3, index_set=(2,),
    )
    rng = FixedUniforms([TOP])
    assert scan_of(prob, monkeypatch)(rng)[0] == 0 and rng.calls == 1


def test_a_block_without_hazard_keeps_the_dense_block():
    # no cell and no dead cell: an attempt would close at every gap, and
    # the window's search for where it closes needs a total hazard above 0
    prob = ConditioningProblem(
        marginals=(Poisson(0.0),) * 60, weights=tuple(range(1, 61)), target=0, index_set=(0,)
    )
    assert not hasattr(prob._draw_free, "skip")
    rec = dsh_sample(prob, CountingRng(3))
    assert rec.outcome == (0,) * 60 and rec.attempts == 1


def test_zero_hazard_coordinates_are_never_hit(monkeypatch):
    prob = build_problem(SetPartition(400))
    free = [prob.marginals[i] for i in prob.free_indices]
    zero = {k for k, m in enumerate(free) if m.rate == 0.0}
    assert len(zero) == 154
    owner = _cell_table(free, [400 // prob.weights[i] for i in prob.free_indices], 0.0, 10**6)[0]
    assert not zero & set(owner.tolist())
    draw = scan_of(prob, monkeypatch)
    rng = CountingRng(11)
    for _ in range(2000):
        values = draw(rng)[2].dense()
        assert not any(values[k] for k in zero)


def grid_gap(u: float) -> int:
    """A uniform's gap on the scan's position grid, as the scan forms it."""
    return int((np.log1p(-np.array([u])) * -engine._GRID).astype(np.int64)[0])


def test_tiny_hazards_after_a_heavy_coordinate_keep_their_intervals(monkeypatch):
    # 30 + 1e-12 rounds to 30 in floats, but on the grid each Poisson(1e-12)
    # cell is 18 units wide, right after the heavy cell [0, 30)
    prob = ConditioningProblem(
        marginals=(Poisson(30.0),) + (Poisson(1e-12),) * 3 + (Poisson(1.0),),
        weights=(1,) * 5, target=33, index_set=(4,),
    )
    draw = scan_of(prob, monkeypatch)
    heavy = round(30.0 * engine._GRID)
    u = at_hazard(29.5)
    for k in range(3):
        # a point in the heavy cell, then one in the middle of tiny cell k
        want = heavy + 18 * k + 9 - grid_gap(u)
        v = at_hazard(want / engine._GRID)
        assert abs(grid_gap(v) - want) <= 2
        rng = FixedUniforms([u, v, TOP])
        assert draw(rng)[2].dense() == [1] + [int(j == k) for j in range(3)]


@pytest.mark.parametrize(
    "marginal",
    [
        Poisson(1e-12),  # P(Z >= 1) is below 1e-10
        Poisson(3.5),
        Poisson(599.0),
        Binomial(9, 0.5),
        Binomial(354, 0.94),
        Binomial(1000, 1e-14),
        NegativeBinomial(1, 0.7737472833305733),
        NegativeBinomial(3, 0.5),
        NegativeBinomial(2, 1e-11),
    ],
    ids=repr,
)
def test_zero_truncated_tables_match_scipy(marginal):
    # the cells give Z given Z >= 1 as scipy does, even where P(Z >= 1) is
    # tiny: it is -expm1(-hazard), not 1 - P(Z = 0)
    from scipy import stats

    from test_marginals import cell_masses

    if isinstance(marginal, Poisson):
        law = stats.poisson(marginal.rate)
    elif isinstance(marginal, Binomial):
        law = stats.binom(marginal.trials, marginal.success)
    else:
        law = stats.nbinom(marginal.blocks, 1.0 - marginal.ratio)
    cap = int(min(law.mean() + 40 * law.std() + 40, law.support()[1]))
    masses, _ = cell_masses(marginal, cap)
    a, r, hits = marginal._cells()
    hazard = a * max(hits, 1) if hits or r == 0.0 else a / r * -math.log1p(-r)
    # entry j is P(Z <= j + 1 | Z >= 1)
    got = np.cumsum(masses[1:]) / -math.expm1(-hazard)
    want = np.cumsum(law.pmf(np.arange(1, cap + 1))) / law.sf(0)
    seen = want > 1e-300
    assert seen.any()
    assert np.max(np.abs(got[seen] - want[seen]) / want[seen]) < 1e-10


def closing_sample(monkeypatch, draws: int):
    """exp(-V) and the point count of each live attempt of hard Partition(100)'s cell scan."""
    prob = build_problem(Partition(100))
    draw = scan_of(prob, monkeypatch, full=True)
    rng = CountingRng(2024)
    closings, points = [], []
    for _ in range(draws):
        start = rng.calls
        lin, _, vals = draw(rng)
        spent = rng.calls - start
        # a dead attempt ends at its first gap, with the sum t + 1
        if not (spent == 1 and lin == prob.target + 1):
            closings.append(vals.closing)
            points.append(spent - 1)
    return closings, points


def test_the_closing_gap_is_an_independent_uniform(monkeypatch):
    from scipy import stats

    closings, points = closing_sample(monkeypatch, 20000)
    assert len(closings) > 19900
    _, p = ks_statistic(closings, lambda x: min(max(x, 0.0), 1.0))
    assert p > 1e-3
    # nor does it follow how many points the attempt held
    assert stats.pearsonr(closings, points).pvalue > 1e-3
    assert stats.spearmanr(closings, points).pvalue > 1e-3


@pytest.mark.parametrize(
    "family, full",
    [(Partition(100), False), (Partition(100), True), (EwensProfile(50, 5), False),
     (DistinctPartition(100), False)],
    ids=["partition-dsh", "partition-hard", "ewens-dsh", "distinct-dsh"],
)
def test_the_screen_rejects_what_the_step_rejects(family, full, monkeypatch):
    prob = build_problem(family)
    draw = scan_of(prob, monkeypatch, full=full)
    screen = (engine._hit_screen if full else engine._pivot_screen)(prob)
    rng = CountingRng(31)
    attempts = [draw(rng) for _ in range(3000)]
    lins = np.array([lin for lin, _, _ in attempts])
    secs = None if prob.second is None else np.array([sec for _, sec, _ in attempts])
    closings = np.array([vals.closing for _, _, vals in attempts])
    rejected = screen(lins, secs, closings).tolist()
    targets = (prob.target, 0 if prob.second is None else prob.second.target)
    for (lin, sec, vals), out in zip(attempts, rejected):
        kept = (lin, sec) == targets if full else prob._dsh_step(lin, sec, vals, None) is not None
        assert kept != out
    assert 0 < rejected.count(False) < len(rejected)


WINDOW_FAMILIES = [
    (Partition(100), "dsh", 100), (Partition(100), "hard", 8), (Multiset(100), "dsh", 100),
    (EwensProfile(50, 5), "dsh", 40), (EwensProfile(50, 5), "hard", 8),
    (DistinctPartition(100), "dsh", 20), (DistinctPartition(100), "hard", 8),
    (Selection(60), "dsh", 20), (Selection(60), "hard", 8),
    # Binomial(2, p) coordinates, two hit cells each
    (Selection(60, multiplicities=(2,) * 60), "dsh", 40),
]


@pytest.mark.parametrize(
    "family, method, draws", WINDOW_FAMILIES, ids=[f"{f!r}-{m}" for f, m, _ in WINDOW_FAMILIES]
)
def test_records_do_not_depend_on_how_many_attempts_a_window_holds(
    family, method, draws, monkeypatch
):
    # the hit cells of DistinctPartition and Selection and Ewens's second
    # sum are scanned too
    engine_of = {"dsh": dsh_sample, "hard": hard_rejection_sample}[method]

    def records():
        prob = build_problem(family)
        scan_of(prob, monkeypatch, full=method == "hard")
        prob = replace(prob)
        rng = PeekCountingRng(77)
        out = []
        for cap in (DEFAULT_MAX_ATTEMPTS,) * draws + (3, 1):
            try:
                out.append(engine_of(prob, rng, max_attempts=cap))
            except NonTerminating as err:
                out.append((err.attempts, err.rng_calls))
        return out, rng.calls, rng.peeks

    *many, peeks = records()
    # a window of at most one gap grows one gap at a time, so it holds one attempt
    monkeypatch.setattr(engine, "_WINDOW", 1)
    *one, more_peeks = records()
    assert one == many and more_peeks > 2 * peeks


# (ratio, u) where math's and numpy's log1p and log differ in the last bit
# across an integer quotient on an x86-64 host with AVX-512 and numpy 2.4
GEOMETRIC_EDGES = [
    (0.77, 0.40709999999999996),
    (0.9, 0.9576088417247838),
    (0.95, 0.36975059027539087),
]


def test_geometric_plan_and_block_agree():
    marginals = [Geometric(r) for r, _ in GEOMETRIC_EDGES]
    us = np.array([u for _, u in GEOMETRIC_EDGES])
    invert, _ = block_inversion(marginals)
    plan = [m.sample(FixedUniforms([u])) for m, (_, u) in zip(marginals, GEOMETRIC_EDGES)]
    assert invert(us).tolist() == plan
    for m, u, want in zip(marginals, us, plan):
        assert block_inversion([m])[0](np.array([u])).tolist() == [want]


def test_table_block_inverts_k_rows_exactly():
    # an empty table (Poisson(0) is always 0) at both ends of the block, a
    # one-entry table as Selection uses, and one whose mass at 0 underflows:
    # every row of a K x c inversion is the one-row inversion and the scan
    block = [Poisson(0.0), Binomial(1, 0.3), Binomial(354, 0.94), Poisson(0.0)]
    columns = [edge_uniforms(m) for m in block]
    k = max(map(len, columns))
    us = np.column_stack([np.resize(col, k) for col in columns])
    invert, lengths = block_inversion(block)
    assert lengths[0] == lengths[-1] == 0 < lengths[1] == 1
    rows = invert(us)
    assert rows.shape == us.shape
    for u, got in zip(us, rows.tolist()):
        assert got == invert(u).tolist() == [reference_scan(m, x) for m, x in zip(block, u)]
    # a batch narrower than the block, and a single row, through the same form
    assert invert(us[:1]).tolist() == rows[:1].tolist()
    assert invert(us[:5]).tolist() == rows[:5].tolist()


class PeekCountingRng(CountingRng):
    """A CountingRng that counts its peeks, the reads of a batch."""

    peeks = 0

    def peek(self, count):
        self.peeks += 1
        return super().peek(count)


def fresh(family):
    """A new copy of the family's problem, with drawers that have seen no run."""
    return replace(build_problem(family))


def batches(draw) -> bool:
    """Whether ``draw`` peeks the stream within one run of 64 draws."""
    rng = PeekCountingRng(1)
    for _ in range(64):
        draw(rng)
    return rng.peeks > 0


def test_a_block_batches_within_one_block_of_comparisons():
    def problem(marginals, weights):
        return ConditioningProblem(
            marginals=tuple(marginals), weights=weights, target=3, index_set=(0,)
        )

    def dense(prob, full=False):
        # the block drawer itself: a sparse scan peeks too, without batching
        return _block_drawer(prob, tuple(range(prob.size)) if full else prob.free_indices)

    # a closed-form block batches up to 4096 / 8 = 512 coordinates
    prob = problem([Geometric(0.5)] * 513, (1,) * 513)
    assert batches(dense(prob)) and not batches(dense(prob, full=True))
    # a table block costs max(coordinates, table entries) comparisons a row
    for family in (Selection(60), EwensProfile(50, 5), SetPartition(100), Assembly(100)):
        assert batches(dense(build_problem(family))), family
    for family in (Multiset(100), SetPartition(400)):
        prob = build_problem(family)
        assert not batches(dense(prob)) and not batches(dense(prob, full=True)), family
    # a plan-drawn block (UniformInt has no block rule) never batches
    prob = problem([UniformInt(0, 3), UniformInt(0, 3)], weights=(1, 1))
    assert isinstance(prob._draw_free, partial) and not batches(prob._draw_free)


def test_the_cost_rule_scans_the_blocks_of_the_benchmark_it_pays_for():
    # at the benchmark's sizes: a change of _scan_pays's constants shows here
    for family in (
        Partition(100), Partition(400), Partition(1600), Multiset(100),
        DistinctPartition(100), Selection(60),
    ):
        assert hasattr(fresh(family)._draw_free, "skip"), family
    assert hasattr(fresh(Partition(100))._draw_full, "skip")
    for family in (SetPartition(100), Assembly(100), EwensProfile(50, 5)):
        assert not hasattr(fresh(family)._draw_free, "skip"), family
    # the grid's class sums at n = 30
    assert not hasattr(replace(_counts_problem(PlanePartitionGrid(30)))._draw_free, "skip")


def test_a_batch_serves_only_the_unmoved_stream_it_peeked():
    # problems are shareable and an rng is single-owner: a window peeked
    # ahead is handed out only to the same rng with nothing drawn since
    shared, other = fresh(SetPartition(100)), fresh(Assembly(100))
    plans = {prob: sample_plan(prob, prob.free_indices) for prob in (shared, other)}
    rng, rng_ref = PeekCountingRng(5), CountingRng(5)
    second, second_ref = PeekCountingRng(6), CountingRng(6)

    def check(prob, r, replica):
        lin, sec, vals = prob._draw_free(r)
        assert (lin, sec, vals.tolist()) == _draw(plans[prob], replica)
        assert r.calls == replica.calls

    # one long run lifts the mean run, hence K, well past 8
    for _ in range(1000):
        check(shared, rng, rng_ref)
    assert rng.peeks > 0
    # the second rng at the first one's count, so only identity tells them apart
    second.uniforms(rng.calls)
    second_ref.uniforms(rng_ref.calls)
    for _ in range(30):
        peeks = rng.peeks
        check(shared, rng, rng_ref)
        check(shared, rng, rng_ref)
        assert rng.uniform() == rng_ref.uniform()
        check(shared, rng, rng_ref)
        check(other, rng, rng_ref)
        check(shared, rng, rng_ref)
        second.uniforms(rng.calls - second.calls)
        second_ref.uniforms(rng_ref.calls - second_ref.calls)
        check(shared, second, second_ref)
        check(shared, rng, rng_ref)
        # the drawer batched again after each interruption on rng, so the
        # next interruption found windows left
        assert rng.peeks >= peeks + 3


def test_table_drawer_needs_exact_int64_sums():
    # weights whose sums could overflow int64 keep the per-coordinate plan
    marginals = (Poisson(1.0), Poisson(2.0))
    for weights, planned in (((1, 2), False), ((1, 2 ** 62), True)):
        prob = ConditioningProblem(
            marginals=marginals, weights=weights, target=1, index_set=(0,)
        )
        assert isinstance(prob._draw_free, partial) == planned
    # a Geometric(1/2) value is at most 53 (its value at u = 1 - 2^-53), so
    # 53 * 2^58 overflows int64 and 53 * 2^57 does not
    marginals = (Geometric(0.5), Geometric(0.5))
    for weights, planned in (((1, 2 ** 57), False), ((1, 2 ** 58), True)):
        prob = ConditioningProblem(
            marginals=marginals, weights=weights, target=1, index_set=(0,)
        )
        assert isinstance(prob._draw_free, partial) == planned
        assert isinstance(prob._draw_full, partial) == planned

import itertools
import math
import sys
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exactcond.engine import (
    ConditioningProblem,
    SecondConstraint,
    SparseVector,
    complete_from_sums,
    dsh_sample,
    hard_rejection_sample,
    soft_rejection_sample,
    _draw,
)
from exactcond.errors import (
    InfeasibleTarget,
    InvalidRejection,
    NonTerminating,
    SingularSystem,
    SupportTooLarge,
)
from exactcond.geometry import IntervalUnion, sample_permutahedron
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
    build_problem,
    small_ball_sample,
)
from exactcond.verify import chi_squared_gof, enumerate_conditional


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
    with pytest.raises(ValueError):
        ConditioningProblem(
            marginals=(Geometric(0.5),), weights=(1, 2), target=2, index_set=(0,)
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
    # 25 examples of two engines each: 1e-4 per check keeps a chance
    # failure of the whole test near 0.5%
    for sampler, seed in ((dsh_sample, 11), (hard_rejection_sample, 13)):
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
@settings(max_examples=15, derandomize=True, deadline=None)
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
        j = (i + 1 + pivots[1] % (n - 1)) % n
        assume(weights[i] * coeffs[j] != weights[j] * coeffs[i])
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
    # 2 x 15 examples of two engines each: 1e-4 per check keeps a chance
    # failure of the whole test near 0.6%
    for sampler, seed in ((dsh_sample, 17), (hard_rejection_sample, 19)):
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
    with pytest.raises(InvalidRejection):
        soft_rejection_sample(
            prob, lambda vals: 2.0, 1.0, rng, lambda vals, r: (0,)
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


def test_sparse_vector_dense_roundtrip():
    v = SparseVector(6, ((1, 3), (4, 2)))
    assert v.dense() == (0, 3, 0, 0, 2, 0)
    assert SparseVector(3, ()).dense() == (0, 0, 0)


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
    for chosen, indices in (
        (prob._draw_free, prob.free_indices),
        (prob._draw_full, range(prob.size)),
    ):
        assert not isinstance(chosen, partial)  # the block drawer, not a plan
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
    """density(0), density(1), ... by the recurrence the per-draw scans multiplied."""
    if isinstance(m, Poisson):
        first, ratio = math.exp(-m.rate), lambda k: m.rate / (k + 1)
    elif isinstance(m, Binomial):
        q = m.success / (1.0 - m.success)
        first = (1.0 - m.success) ** m.trials
        ratio = lambda k: q * (m.trials - k) / (k + 1)  # noqa: E731
    else:
        first = math.exp(m.blocks * math.log1p(-m.ratio))
        ratio = lambda k: m.ratio * (m.blocks + k) / (k + 1)  # noqa: E731
    if first < sys.float_info.min:
        yield from map(m.density, itertools.count())
        return
    mass = first
    for k in itertools.count():
        yield mass
        mass *= ratio(k)


def reference_scan(m, u):
    """The first k with u <= cdf(k), walking the cdf one mass at a time.

    The walk stops at the support's last point, or past the mode where the
    next mass no longer changes the cdf.
    """
    mode, last = m.mode(), m.support_bounds()[1]
    cdf = 0.0
    for k, mass in enumerate(reference_masses(m)):
        if k == last or (k > mode and cdf + mass == cdf):
            return k
        cdf += mass
        if u <= cdf:
            return k


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
        Binomial(1, 0.3),
        Binomial(9, 0.5),
        Binomial(354, 0.94),  # (1-p)^m underflows: the log-pmf table
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
    # one-entry table as Selection uses, and the log-pmf table: every row
    # of a K x c inversion is the one-row inversion and the scan
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

    # a closed-form block batches up to 4096 / 8 = 512 coordinates
    prob = problem([Geometric(0.5)] * 513, (1,) * 513)
    assert batches(prob._draw_free) and not batches(prob._draw_full)
    # a table block costs max(coordinates, table entries) comparisons a row
    for family in (Selection(60), EwensProfile(50, 5), SetPartition(100), Assembly(100)):
        assert batches(fresh(family)._draw_free), family
    for family in (Multiset(100), SetPartition(400)):
        prob = fresh(family)
        assert not batches(prob._draw_free) and not batches(prob._draw_full), family
    # a plan-drawn block (fractional weights) and a draw hook never batch
    prob = problem([Poisson(1.0), Poisson(2.0)], weights=(1, 0.5))
    assert isinstance(prob._draw_free, partial) and not batches(prob._draw_free)
    assert not batches(fresh(PlanePartitionGrid(30))._draw_free)


def test_a_batch_serves_only_the_unmoved_stream_it_peeked():
    # problems are shareable and an rng is single-owner: a window peeked
    # ahead is handed out only to the same rng with nothing drawn since
    shared, other = fresh(SetPartition(100)), fresh(Selection(60))
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
    # fractional weights, or weights whose sums could overflow int64, keep
    # the per-coordinate plan
    marginals = (Poisson(1.0), Poisson(2.0))
    for weights, planned in (((1, 2), False), ((1, 0.5), True), ((1, 2 ** 62), True)):
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

"""Conditioned continuous laws: surfaces, polytope interiors, and a paradox.

Everything here conditions a product of real marginals on the exact value
of a statistic, which a plain hit-or-miss rejection can never reach.
Pivot completion makes the events reachable: ``dsh_sample`` solves one
coordinate from a linear constraint and accepts with the pivot's density
ratio, which for a flat (UniformReal) pivot is 1, so completability alone
decides.  The permutahedron runs the same step and then its membership
test inside one rejection loop, and the first Borel variant is a plain
pivot completion of U - V = 0.  A nonlinear statistic (the sphere) and
the second Borel variant, whose weight carries the ratio's |U| Jacobian,
weight their first halves through ``soft_rejection_sample``.

Covered sample spaces:

* exponential and beta coordinate sums pinned to a level,
* the sphere surface sum x_i^2 = r^2,
* the hypersimplex (unit-cube slice at a level) and the permutahedron
  (slice of [1, n]^n cut down by the descending-partial-sum
  inequalities),
* simplices via the classic order-statistic spacings construction,
* the three inequivalent answers to conditioning two independent
  Gaussians on "equal": the limit of |U - V| < eps, the limit of
  |V/U - 1| < eps, and literal symmetry.  The three conditional laws
  genuinely differ; which one is "the" answer depends on the family of
  shrinking events, not on the joint law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .engine import (
    DEFAULT_MAX_ATTEMPTS,
    ConditioningProblem,
    SampleRecord,
    _rejection_loop,
    dsh_sample,
    soft_rejection_sample,
)
from .errors import InfeasibleTarget
from .marginals import (
    AbsWeightedGaussian,
    Beta,
    ContinuousMarginal,
    CountingRng,
    Exponential,
    Normal,
    UniformReal,
)


@dataclass(frozen=True)
class IntervalUnion:
    """A finite union of disjoint open intervals of the line."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ivs = tuple(sorted((float(a), float(b)) for a, b in self.intervals))
        for a, b in ivs:
            if not a < b:
                raise ValueError(f"degenerate interval ({a}, {b})")
        for (_, b0), (a1, _) in zip(ivs, ivs[1:]):
            if a1 < b0:
                raise ValueError("intervals overlap")
        object.__setattr__(self, "intervals", ivs)

    @classmethod
    def open(cls, lo: float, hi: float) -> "IntervalUnion":
        return cls(((lo, hi),))

    def contains(self, x: float) -> bool:
        for a, b in self.intervals:
            if x <= a:
                return False
            if x < b:
                return True
        return False


@lru_cache(maxsize=64)
def _problem(marginals: tuple, weights: tuple, target: float, pivot: int) -> ConditioningProblem:
    """The conditioning problem of the samplers below, cached.

    They are called once per draw, so without the cache every draw would
    rebuild the problem and pick its first-half drawer again.
    """
    return ConditioningProblem(
        marginals=marginals, weights=weights, target=target, index_set=(pivot,)
    )


def uniform_spacings(count: int, rng: CountingRng) -> tuple[float, ...]:
    """Gaps cut from [0, 1] by ``count`` sorted uniforms: count + 1 spacings.

    Costs exactly ``count`` uniforms.  The spacings vector is the uniform
    law on the standard simplex, the same law as normalised exponentials.
    """
    if count < 0:
        raise ValueError("need a nonnegative number of cut points")
    cuts = np.sort(rng.uniforms(count))
    edges = np.empty(count + 2)
    edges[0] = 0.0
    edges[1:-1] = cuts
    edges[-1] = 1.0
    return tuple(float(v) for v in np.diff(edges))


def feller_polytope_sample(
    vertices, rng: CountingRng
) -> tuple[tuple[float, ...], SampleRecord]:
    """Uniform barycentric mix of the given vertices via spacings weights.

    With m vertices this costs exactly m - 1 uniforms and never rejects.
    For affinely independent vertices the output is uniform on their
    simplex.
    """
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[0] < 1:
        raise ValueError("need a nonempty vertex list of common dimension")
    m = verts.shape[0]
    start = rng.calls
    weights = np.array(uniform_spacings(m - 1, rng))
    point = tuple(float(v) for v in weights @ verts)
    return point, SampleRecord(point, 1, rng.calls - start)


def sample_exponential_sum(
    rates,
    total: float,
    rng: CountingRng,
    *,
    pivot: int = 0,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> tuple[tuple[float, ...], SampleRecord]:
    """Exact draw of independent exponentials conditioned on their sum.

    The non-pivot coordinates must leave a nonnegative residual, and the
    residual is accepted against the pivot's density, rate e^(-rate y),
    whose supremum sits at zero.  ``dsh_sample`` refuses a total it
    cannot reach with InfeasibleTarget before drawing: a negative one, or
    0 with more than one rate.  A single rate at 0 gives (0.0,).
    """
    marginals = tuple(Exponential(r) for r in rates)
    problem = _problem(marginals, (1.0,) * len(marginals), float(total), pivot)
    rec = dsh_sample(problem, rng, max_attempts=max_attempts)
    return rec.outcome, rec


def sample_beta_sum(
    alphas,
    betas,
    total: float,
    rng: CountingRng,
    *,
    pivot: int = 0,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> tuple[tuple[float, ...], SampleRecord]:
    """Exact draw of independent betas conditioned on their sum.

    The first half must land in the window [total - 1, total] for the
    pivot to stay inside (0, 1); the pivot marginal needs both shape
    parameters >= 1 so its density has a finite supremum
    (UnboundedDensity otherwise).  A total outside (0, n) for n betas
    raises InfeasibleTarget before drawing.
    """
    if len(alphas) != len(betas):
        raise ValueError("alpha and beta vectors differ in length")
    if not 0.0 < total < len(alphas):
        raise InfeasibleTarget(
            f"a sum of {len(alphas)} betas lies in (0, {len(alphas)}), never at {total}"
        )
    marginals = tuple(Beta(a, b) for a, b in zip(alphas, betas))
    problem = _problem(marginals, (1.0,) * len(marginals), float(total), pivot)
    rec = dsh_sample(problem, rng, max_attempts=max_attempts)
    return rec.outcome, rec


def sample_sphere_surface(
    marginal: ContinuousMarginal,
    n: int,
    square_radius: float,
    rng: CountingRng,
    *,
    pivot: int = 0,
    sup_bound: float | None = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> tuple[tuple[float, ...], SampleRecord]:
    """Exact draw of iid coordinates conditioned on sum of squares.

    The pivot is completed through its square: the induced density of
    X^2 at t is (f(sqrt t) + f(-sqrt t)) / (2 sqrt t), and ``sup_bound``
    must dominate it.  On acceptance the sign is drawn in proportion to
    the density at the two roots.  For AbsWeightedGaussian coordinates
    the squared pivot is Exponential(1), so the default bound is 1.
    """
    if not square_radius > 0.0:
        raise ValueError(f"the squared radius must be positive, got {square_radius}")
    if sup_bound is None:
        if isinstance(marginal, AbsWeightedGaussian):
            sup_bound = 1.0
        else:
            raise ValueError("sup_bound is required for this coordinate marginal")

    def square_density(vals) -> float:
        t = square_radius - math.fsum(v * v for v in vals)
        if t <= 0.0:
            return 0.0
        root = math.sqrt(t)
        return (marginal.density(root) + marginal.density(-root)) / (2.0 * root)

    def signed_root(vals, r: CountingRng):
        t = square_radius - math.fsum(v * v for v in vals)
        root = math.sqrt(t)
        plus = marginal.density(root)
        minus = marginal.density(-root)
        return (root if r.uniform() < plus / (plus + minus) else -root,)

    problem = _problem((marginal,) * n, (1.0,) * n, float(square_radius), pivot)
    rec = soft_rejection_sample(
        problem, square_density, sup_bound, rng, signed_root, max_attempts=max_attempts
    )
    return rec.outcome, rec


def sample_hypersimplex(
    n: int,
    level: float,
    rng: CountingRng,
    *,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> tuple[tuple[float, ...], SampleRecord]:
    """Uniform point of the cube slice sum x_i = level, x in [0, 1]^n.

    Flat pivot: any first half with residual in [0, 1] is completed and
    accepted outright, so attempts cost n - 1 uniforms and the rejection
    step itself draws none.  ``dsh_sample`` refuses a level outside
    (0, n) with InfeasibleTarget before drawing.
    """
    if n < 2:
        raise ValueError("the cube slice needs dimension >= 2")
    problem = _problem((UniformReal(0.0, 1.0),) * n, (1.0,) * n, float(level), 0)
    rec = dsh_sample(problem, rng, max_attempts=max_attempts)
    return rec.outcome, rec


def rado_check(point, tol: float = 1e-9) -> bool:
    """Permutahedron membership: descending partial sums under their caps.

    A point of sum n(n+1)/2 lies in the permutahedron of (1..n) iff for
    every r the r largest coordinates sum to at most n + (n-1) + ... +
    (n-r+1).  The final partial sum must meet its cap exactly.
    """
    vals = sorted(point, reverse=True)
    n = len(vals)
    run = 0.0
    for r, v in enumerate(vals, 1):
        run += v
        if run > r * n - r * (r - 1) / 2 + tol:
            return False
    return abs(run - n * (n + 1) / 2) <= tol


def sample_permutahedron(
    n: int,
    rng: CountingRng,
    *,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> tuple[tuple[float, ...], SampleRecord]:
    """Uniform point of the permutahedron of (1, 2, ..., n).

    Each attempt completes a uniform point of the [1, n]-cube slice at
    level n(n+1)/2 through the flat-pivot dsh step and keeps it when the
    descending-partial-sum inequalities hold.  Attempts count every first
    half.
    """
    if n < 2:
        raise ValueError("the permutahedron needs n >= 2")
    problem = _problem((UniformReal(1.0, float(n)),) * n, (1.0,) * n, n * (n + 1) / 2, 0)
    complete = problem._dsh_step

    def step(lin, sec, vals, rng):
        point = complete(lin, sec, vals, rng)
        return point if point is not None and rado_check(point) else None

    rec = _rejection_loop(
        problem._draw_free, step, rng, max_attempts, "permutahedron sampling", n
    )
    return rec.outcome, rec


def borel_conditional_sample(
    variant: int,
    rng: CountingRng,
    *,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> tuple[float, SampleRecord]:
    """One draw of V given "V equals U" for independent standard normals.

    variant 1 reads the event as the limit of {|U - V| < eps}: first-half
    weight is the normal density at the matching point, and the result
    carries the density e^(-v^2) / sqrt(pi), a centred normal of variance
    one half.

    variant 2 reads it as the limit of {|V/U - 1| < eps}: the ratio
    statistic contributes a |U| Jacobian, the weight |a| phi(a) peaks at
    |a| = 1, and the result carries density |v| e^(-v^2), pushing mass
    away from zero.

    variant 3 reads it as plain symmetry of the joint law: V stays
    standard normal.
    """
    std = Normal(0.0, 1.0)
    if variant == 3:
        start = rng.calls
        v = std.sample(rng)
        return v, SampleRecord((v, v), 1, rng.calls - start)
    if variant not in (1, 2):
        raise ValueError(f"variant must be 1, 2, or 3, got {variant}")
    problem = _problem((std, std), (1.0, -1.0), 0.0, 1)
    if variant == 1:
        # the pivot solve of U - V = 0 gives V = U, accepted with phi(U) / sup phi
        rec = dsh_sample(problem, rng, max_attempts=max_attempts)
        return rec.outcome[1], rec

    def weight(vals) -> float:
        return abs(vals[0]) * std.density(vals[0])

    def mirror(vals, _rng: CountingRng):
        return (vals[0],)

    q_sup = math.exp(-0.5) / math.sqrt(2.0 * math.pi)
    rec = soft_rejection_sample(problem, weight, q_sup, rng, mirror, max_attempts=max_attempts)
    return rec.outcome[1], rec

"""Rejection engines for sampling a joint law conditioned on linear statistics.

A :class:`ConditioningProblem` holds independent marginals X_1..X_n, a
weight vector w, and a target t for the statistic T = sum_i w_i X_i
(optionally a second statistic sum_i u_i X_i with its own target).  The
goal is one exact draw from L(X | T = t).

Every engine runs one loop, ``_rejection_loop``: draw a first half (or
the full vector), then let the engine's step complete it and accept or
reject it.  Only the loop counts attempts and uniforms and raises
:class:`NonTerminating`.  The engines differ in their step:

* ``hard_rejection_sample`` draws the full vector and keeps it when the
  constraint holds exactly.
* ``dsh_sample`` draws every coordinate except a pivot block I, solves
  the constraint for the pivot (there is at most one solution), and
  accepts with probability density(solution) / sup density, multiplied
  over the block.  The density is the mass of an integer pivot and the
  pdf of a real one, where the Jacobian of the pivot map cancels in the
  ratio.  When every pivot marginal is ``flat`` (its density constant on
  its support) the ratio is 1, so any completable first half is accepted
  without an acceptance uniform.
* ``soft_rejection_sample`` generalises the pivot acceptance to a caller
  supplied weight q on first halves with upper bound q_sup, plus a caller
  supplied second-half sampler.  It serves the statistics no pivot solve
  completes: the sphere's sum of squares and the second Borel variant.

``structures.small_ball_sample`` passes a sign plan and its own step to
the same loop, and ``geometry.sample_permutahedron`` the dsh step followed
by its membership test.  Acceptance ratios are asserted to lie in [0, 1]
(up to float slack) and are never clamped; a genuine violation raises
:class:`InvalidRejection`.

Every engine draws its first halves (or full vectors) through the drawer
the problem picks once, on first use: one block of uniforms inverted by
``marginals.block_inversion`` and summed with int64 dot products (integer
problems) or ``math.fsum`` (real ones), else a per-coordinate ``sample``
plan.  The block and the plan turn the same uniforms into the same values.

A block drawer can also invert K attempts' blocks in one numpy call.  It
peeks K blocks of the stream and hands out one window a call, consuming
it before the step runs, for as long as the stream does not move under
it: the same rng asks again with nothing drawn since the last window.
Each window is then exactly the uniforms the next attempt would draw, so
a batch runs on across dead attempts, and, since hard rejection and flat
pivots draw nothing in their step, across the samples one rng draws in a
row.  An acceptance uniform, a draw by anything else, or another rng
drops the windows left.  K is the mean run of draws the drawer has seen
on an unmoved stream, counting the run in progress, capped at 4096
comparisons a batch: a row costs its uniforms in a closed-form block
(Geometric, Bernoulli, UniformReal) and the larger of its uniforms and
its table entries in a cdf-table block.  Below K = 8, and in a block
whose cap falls below 8, the drawer draws one window at a time; plans
always do.  The drawer holds its rng weakly, so it keeps no finished
request's rng alive.

An accepted attempt becomes its outcome once, in ``_assemble``: a tuple
of Python scalars, with the pivot block inserted at ``index_set``.  Later
layers use that outcome as it is.

Each problem has one arithmetic, fixed at construction.  A problem whose
marginals are all discrete is an integer problem: its weights and second
coefficients must be integers (a fractional one raises ValueError; scale
the weights and target to integers for the same law), its sums are exact
and its pivots are solved by ``divmod``.  Any other problem solves a real
pivot in floating point, and a discrete pivot in it raises ValueError.

dsh and hard rejection raise :class:`InfeasibleTarget` before their first
draw when a target, real or integer, is not finite, lies outside the
closed range of its sum, sits on an end of it while a free continuous
coordinate has nonzero weight, or is off the lattice of an integer
problem's sum, a fractional target included.  Hard rejection, which tests
its hits exactly, also refuses every problem that is not an integer
problem; soft rejection, whose linear target may stand in for another
statistic, applies the integer checks only.

Costs are whatever the :class:`CountingRng` records; completability is
checked before the acceptance uniform is drawn, so a dead first half
costs only its own draws.  Uniforms a batch peeked but did not consume
stay in the stream for the next draw and are not counted, so batching
moves no outcome, attempt count or uniform count.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from .errors import InfeasibleTarget, InvalidRejection, NonTerminating, SingularSystem
from .marginals import (
    ContinuousMarginal, CountingRng, DiscreteMarginal, block_inversion,
)

DEFAULT_MAX_ATTEMPTS = 10 ** 8

_RATIO_SLACK = 1e-9

# Drawers return (linear sum, second sum, values), the values aligned
# with the drawn index list.
Drawer = Callable[[CountingRng], tuple[float, float, Sequence]]


@dataclass(frozen=True)
class SecondConstraint:
    """An additional statistic sum_i coeffs_i X_i pinned to ``target``."""

    coeffs: tuple[float, ...]
    target: float


@dataclass(frozen=True)
class SampleRecord:
    """One accepted outcome with its rejection cost."""

    outcome: tuple
    attempts: int
    rng_calls: int


@dataclass(frozen=True, eq=False)
class ConditioningProblem:
    marginals: tuple
    weights: tuple
    target: float
    index_set: tuple[int, ...]
    second: SecondConstraint | None = None

    # derived, filled by __post_init__
    free_indices: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        n = len(self.marginals)
        if n == 0:
            raise ValueError("a conditioning problem needs at least one coordinate")
        if len(self.weights) != n:
            raise ValueError(f"{n} marginals but {len(self.weights)} weights")
        if self.second is not None and len(self.second.coeffs) != n:
            raise ValueError("second constraint coefficient count mismatch")
        idx = tuple(sorted(set(self.index_set)))
        if idx != tuple(self.index_set):
            object.__setattr__(self, "index_set", idx)
        if not idx or idx[0] < 0 or idx[-1] >= n:
            raise ValueError(f"pivot index set {self.index_set} out of range for n={n}")
        want = 2 if self.second is not None else 1
        if len(idx) != want:
            raise ValueError(
                f"pivot block must have {want} coordinate(s) for this constraint count, got {len(idx)}"
            )
        for i in idx:
            if self.weights[i] == 0:
                raise SingularSystem(f"pivot coordinate {i} has zero weight")
        w = self.weights
        u = self.second.coeffs if self.second else None
        if self.second is None:
            det, cramer = w[idx[0]], ((idx[0], 1, None),)
        else:
            i, j = idx
            det = w[i] * u[j] - w[j] * u[i]
            if det == 0:
                raise SingularSystem(
                    f"constraint matrix for pivot block {idx} is singular"
                )
            cramer = ((i, u[j], -w[j]), (j, -u[i], w[i]))
        # pivot k is (r1 a_k + r2 b_k) / det for the residuals r1, r2
        object.__setattr__(self, "_cramer", cramer)
        free = tuple(i for i in range(n) if i not in idx)
        object.__setattr__(self, "free_indices", free)
        # all-discrete problems are integer problems: integer values under
        # integer coefficients, so every sum is an integer and every pivot
        # is solved exactly; any other problem is solved in floating point
        ints = all(isinstance(m, DiscreteMarginal) for m in self.marginals)
        named = [("weight", w)] + ([("second coefficient", u)] if self.second else [])
        for name, vec in named if ints else ():
            for i, a in enumerate(vec):
                if not float(a).is_integer():
                    raise ValueError(
                        f"{name} {a} of coordinate {i} is not an integer, and every"
                        " marginal is discrete: scale the weights and the target to"
                        " integers, which gives the same law"
                    )
        object.__setattr__(self, "_exact_int", ints)
        object.__setattr__(self, "_det", int(det) if ints else det)

    @property
    def size(self) -> int:
        return len(self.marginals)

    def is_discrete(self) -> bool:
        return self._exact_int

    @cached_property
    def _draw_free(self) -> Drawer:
        return self._drawer(self.free_indices)

    @cached_property
    def _draw_full(self) -> Drawer:
        return self._drawer(tuple(range(self.size)))

    @cached_property
    def _dsh_step(self) -> Callable:
        """The ``dsh_sample`` step, built once; a problem it refuses raises on every use."""
        return _pivot_step(self)

    @cached_property
    def _infeasible(self) -> tuple[str | None, str | None]:
        """Why no draw can be accepted, by dsh and by hard rejection.

        ``_unreachable`` rules on each constraint.  Hard rejection also
        needs every marginal discrete: it tests its hits exactly, and a sum
        with a continuous coordinate hits an exact value with probability
        zero.  None where a draw may succeed.
        """
        constraints = [(self.weights, self.target)]
        if self.second is not None:
            constraints.append((self.second.coeffs, self.second.target))
        reason = None
        for coeffs, target in constraints:
            reason = reason or _unreachable(
                self.marginals, coeffs, target, self.index_set, self._exact_int
            )
        if reason is None and not self._exact_int:
            return None, "hard rejection needs discrete marginals: it tests its hits exactly"
        return reason, reason

    def _drawer(self, indices: tuple[int, ...]) -> Drawer:
        """One block inversion for ``indices``, else a ``sample`` plan."""
        draw = _block_drawer(self, indices)
        if draw is not None:
            return draw
        sec = self.second
        return partial(_draw, tuple(
            (self.marginals[i].sample, self.weights[i], sec.coeffs[i] if sec else 0)
            for i in indices
        ))


def _unreachable(marginals, coeffs, target, pivots, lattice: bool) -> str | None:
    """Why sum_i a_i X_i never equals ``target``, or None if it may.

    The sum lies in the closed range summed from the support ends of the
    a_i X_i, infinite where a side is unbounded.  On an end of that range
    every a_i X_i sits on its own end, a null event once a free (non-pivot)
    coordinate of nonzero weight is continuous.  With ``lattice`` (integer
    values and weights) the sum is an integer, so a fractional target is
    off its lattice; it also lies in base + g Z, where base is its value at
    the lower support ends and g the gcd of a_i step_i over coordinates
    with more than one support point.
    """
    if not math.isfinite(target):
        return f"target {target} is not finite"
    if lattice:
        if not float(target).is_integer():
            return f"target {target} is off the integer lattice of its sum"
        coeffs, target = map(int, coeffs), int(target)
    low = high = base = gap = 0
    null_ends = False
    for i, (m, a) in enumerate(zip(marginals, coeffs)):
        if a == 0:
            continue
        lo, hi = m.support_bounds()
        low += a * (lo if a > 0 else hi)
        high += a * (hi if a > 0 else lo)
        null_ends = null_ends or (isinstance(m, ContinuousMarginal) and i not in pivots)
        if lattice:
            base += a * lo
            if hi != lo:
                gap = math.gcd(gap, a * m.step)
    if not low <= target <= high:
        return f"target {target} lies outside the range [{low}, {high}] of its sum"
    if null_ends and target in (low, high):
        return (
            f"target {target} is an end of the range [{low}, {high}] of its sum,"
            " which a free continuous coordinate reaches with probability zero"
        )
    if gap and (target - base) % gap:
        return f"target {target} is off the lattice {base} + {gap}Z of its sum"
    return None


# Batch only where the mean run of draws on an unmoved stream reaches 8:
# short runs waste most of a batch (batching from 2 dead attempts per live
# one took permutahedron n=8 from 72 to 96 us a sample).
_MIN_BATCH = 8
# At most one CountingRng block of uniforms, and as many table-entry
# comparisons, per batch, which bounds a batch's arrays: struct-hooks peak
# RSS grew 1.1 MB with a cap of 16384, 0.7 MB with 4096.
_BATCH_UNIFORMS = 4096


def _block_drawer(problem: ConditioningProblem, indices) -> Drawer | None:
    """Draw ``indices`` as one block of uniforms through ``block_inversion``.

    An integer problem's sums are int64 dot products, so its block is used
    only when sum |w_i| top_i, top_i the largest value coordinate i can
    take, stays below 2^63 for the weights (and second coefficients).
    Any other problem's sums are formed by ``math.fsum``.  None when the
    marginals share no block rule.

    A block with room for 8 rows in 4096 comparisons batches (see the
    module docstring).  A batch of K rows gives the sums and values K
    draws would: the inversion maps each row as it maps one, int64
    products are exact and ``math.fsum`` rounds each row's exact sum.
    """
    marginals = [problem.marginals[i] for i in indices]
    block = block_inversion(marginals)
    if block is None:
        return None
    invert, tops = block
    sec = problem.second
    vecs = [[problem.weights[i] for i in indices]]
    if sec is not None:
        vecs.append([sec.coeffs[i] for i in indices])
    if not problem._exact_int:
        dtype, total = float, lambda a, z: math.fsum(a * z)
        totals = lambda a, z: list(map(math.fsum, (z * a).tolist()))
    else:
        for vec in vecs:
            if sum(abs(int(a)) * top for a, top in zip(vec, tops)) >= 2 ** 63:
                return None
        dtype, total = np.int64, lambda a, z: int(a @ z)
        totals = lambda a, z: (z @ a).tolist()
    w = np.array(vecs[0], dtype=dtype)
    c = None if sec is None else np.array(vecs[1], dtype=dtype)
    count = len(w)

    def draw(rng: CountingRng):
        z = invert(rng.uniforms(count))
        return total(w, z), 0 if c is None else total(c, z), z

    tables = [getattr(m, "cdf_table", None) for m in marginals]
    entries = sum(len(t) for t in tables if t is not None)
    most = _BATCH_UNIFORMS // max(count, entries)
    if most < _MIN_BATCH:
        return draw

    # one snapshot, replaced whole: the rng (held weakly), its count after
    # the last window handed out (-1, no count, before the first), and the
    # windows peeked past that count
    snapshot = (None, -1, iter(()))
    draws = runs = 0

    def batched(rng: CountingRng):
        nonlocal snapshot, draws, runs
        held, mark, windows = snapshot
        draws += 1
        if rng.calls != mark or held() is not rng:
            # the stream moved under the drawer: a new run, and stale windows
            held, windows = weakref.ref(rng), iter(())
            runs += 1
        window = next(windows, None)
        if window is not None:
            rng.consume(count)
        elif (k := min(draws // runs, most)) < _MIN_BATCH:
            window = draw(rng)
        else:
            z = invert(rng.peek(k * count).reshape(k, count))
            windows = zip(totals(w, z), repeat(0) if c is None else totals(c, z), z)
            window = next(windows)
            rng.consume(count)
        snapshot = held, rng.calls, windows
        return window

    return batched


def _draw(plan, rng: CountingRng):
    lin = 0
    sec = 0
    vals = []
    for sample, w, c in plan:
        v = sample(rng)
        vals.append(v)
        lin += w * v
        sec += c * v
    return lin, sec, vals


def complete_from_sums(problem: ConditioningProblem, partial_lin, partial_sec=0) -> tuple | None:
    """Pivot values given the free coordinates' constraint sums; None if dead.

    Cramer's rule over the pivot block: with the constraints' residuals r1
    (and r2), pivot k is (r1 a_k + r2 b_k) / det.  An integer problem
    divides with ``divmod`` and needs a zero remainder, which a fractional
    target never leaves for every pivot; a real pivot is the float quotient.
    Either way the pivot must lie in its marginal's support.
    """
    r1 = problem.target - partial_lin
    r2 = None if problem.second is None else problem.second.target - partial_sec
    det = problem._det
    pivot = ()
    for i, a, b in problem._cramer:
        num = r1 * a if r2 is None else r1 * a + r2 * b
        if problem._exact_int:
            y, rem = divmod(num, det)
            if rem:
                return None
            y = int(y)
        else:
            y = num / det
        if not problem.marginals[i].in_support(y):
            return None
        pivot += (y,)
    return pivot


def _assemble(problem: ConditioningProblem, vals, pivot_vals=()):
    """The outcome of an accepted attempt: ``vals`` with ``pivot_vals`` at ``index_set``."""
    out = vals.tolist() if isinstance(vals, np.ndarray) else [_as_scalar(v) for v in vals]
    # index_set is ascending, so each insert lands at its final position
    for i, v in zip(problem.index_set, pivot_vals):
        out.insert(i, _as_scalar(v))
    return tuple(out)


def _as_scalar(v):
    return v.item() if isinstance(v, np.generic) else v


def _refuse_infeasible(problem: ConditioningProblem, hit: bool = False) -> None:
    """Raise InfeasibleTarget before the first draw of an engine that cannot accept."""
    reason = problem._infeasible[hit]
    if reason is not None:
        raise InfeasibleTarget(reason)


def _rejection_loop(
    draw: Drawer,
    step: Callable,
    rng: CountingRng,
    max_attempts: int,
    what: str,
    size: int,
) -> SampleRecord:
    """Run attempts until ``step(lin, sec, vals, rng)`` returns an outcome.

    ``draw`` gives each attempt's first half (or full vector) and ``step``
    completes and accepts it, or returns None to reject the attempt.
    """
    start = rng.calls
    for attempt in range(1, max_attempts + 1):
        lin, sec, vals = draw(rng)
        outcome = step(lin, sec, vals, rng)
        if outcome is not None:
            return SampleRecord(outcome, attempt, rng.calls - start)
    raise NonTerminating(
        f"{what} on a size-{size} problem exhausted {max_attempts} attempts",
        attempts=max_attempts,
        rng_calls=rng.calls - start,
    )


def hard_rejection_sample(
    problem: ConditioningProblem,
    rng: CountingRng,
    *,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> SampleRecord:
    """Draw the full vector until the constraint holds exactly.

    Only an integer problem's sums hit a target exactly, so any problem
    with a continuous marginal raises InfeasibleTarget before drawing, as
    does an integer target out of reach (for every engine).
    """
    _refuse_infeasible(problem, hit=True)
    # a one-constraint drawer reports 0 for the second sum
    targets = (problem.target, 0 if problem.second is None else problem.second.target)

    def step(lin, sec, vals, _rng):
        return _assemble(problem, vals) if (lin, sec) == targets else None

    return _rejection_loop(
        problem._draw_full, step, rng, max_attempts, "hard rejection", problem.size
    )


def _pivot_step(problem: ConditioningProblem) -> Callable:
    """Complete each first half and accept with the pivot block's density ratio.

    The ratio is prod density(pivot) / prod sup_density; a flat block
    accepts every completable first half without drawing a uniform.
    """
    pivots = [problem.marginals[i] for i in problem.index_set]
    # a continuous coordinate, in the block or outside it, leaves a real
    # residual, which no integer pivot completes
    if not problem._exact_int and any(isinstance(m, DiscreteMarginal) for m in pivots):
        raise ValueError("a discrete pivot cannot mix with continuous marginals")
    flat = all(m.flat for m in pivots)
    bound = None if flat else math.prod(m.sup_density() for m in pivots)
    _refuse_infeasible(problem)

    def step(lin, sec, vals, rng):
        pivot = complete_from_sums(problem, lin, sec)
        if pivot is None:
            return None
        if not flat:
            num = math.prod(m.density(v) for m, v in zip(pivots, pivot))
            if num <= 0.0:
                return None
            ratio = num / bound
            if ratio > 1.0 + _RATIO_SLACK:
                raise InvalidRejection(
                    f"pivot acceptance ratio {ratio} exceeds 1 at pivot {pivot}"
                )
            if not rng.uniform() < ratio:
                return None
        return _assemble(problem, vals, pivot)

    return step


def dsh_sample(
    problem: ConditioningProblem,
    rng: CountingRng,
    *,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> SampleRecord:
    """Pivot-completion sampling, the paper's deterministic second half.

    Accepts a completable first half with probability
    prod_i density_i(pivot_i) / prod_i sup_density_i, which leaves every
    accepted outcome carrying the exact conditional law.  A dead or
    zero-density pivot restarts without spending the acceptance uniform,
    and a flat pivot block never spends one.  A discrete pivot in a problem
    with a continuous marginal, in its block or outside it, raises
    ValueError.
    """
    return _rejection_loop(
        problem._draw_free, problem._dsh_step, rng, max_attempts,
        "pivot-completion sampling", problem.size,
    )


def soft_rejection_sample(
    problem: ConditioningProblem,
    q: Callable[[Sequence], float],
    q_sup: float,
    rng: CountingRng,
    second_half: Callable[[Sequence, CountingRng], Sequence],
    *,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> SampleRecord:
    """Accept a first half with probability q(a) / q_sup, then complete it.

    ``q`` is any nonnegative weight on first halves with finite positive
    supremum bounded by ``q_sup`` (a loose bound stays exact, only
    slower), and ``second_half`` draws the pivot block from the exact
    conditional law given the accepted first half.
    """
    if not (q_sup > 0.0 and math.isfinite(q_sup)):
        raise ValueError(f"q_sup must be a finite positive bound, got {q_sup}")
    # the linear target may stand in for another statistic (the sphere
    # passes r^2), so only an exact integer problem's range binds
    if problem._exact_int:
        _refuse_infeasible(problem)

    def step(_lin, _sec, vals, rng):
        qa = q(vals)
        if qa < 0.0:
            raise InvalidRejection(f"first-half weight q = {qa} is negative")
        if qa > q_sup * (1.0 + _RATIO_SLACK):
            raise InvalidRejection(f"first-half weight {qa} exceeds its bound {q_sup}")
        if qa == 0.0 or not rng.uniform() < qa / q_sup:
            return None
        return _assemble(problem, vals, tuple(second_half(vals, rng)))

    return _rejection_loop(
        problem._draw_free, step, rng, max_attempts, "soft rejection", problem.size
    )

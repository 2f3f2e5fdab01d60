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
the problem picks once, on first use, from the marginals: a cell scan
where a cost rule says it pays, else one block of uniforms inverted by
``marginals.block_inversion`` and summed with int64 dot products (integer
problems) or ``math.fsum`` (real ones), else a per-coordinate ``sample``
plan.  The block and the plan turn the same uniforms into the same values.

The cell scan (``_cell_drawer``) serves dsh and hard rejection on integer
problems with positive weights whose marginals take values >= 0 and are
sums over independent Poisson cells (``marginals._cell_table``): Geometric
and NegativeBinomial laws are sum_j j N_j with N_j ~ Poisson(m r^j / j),
Poisson one cell, Bernoulli and Binomial hit cells that count once.  A
coordinate's jumps above t / w_i only make an attempt dead, so they merge
into one dead cell at the start of the hazard axis; the cells follow it up
to the total hazard H.  An attempt is one unit-rate Poisson process on
[0, H): its stream is gaps only, exponentials from 0 until their sum
passes H, and a point in the dead cell ends it at once.  So an attempt
spends a uniform per point and one for its closing gap, whose overshoot V
past H is Exp(1) and independent of the attempt: dsh accepts when exp(-V)
is below its ratio, drawing nothing in its step.  Positions are multiples
of 2^-44 (``_GRID``): each gap is floored to the grid and each cell's
hazard rounded to it, so an attempt's positions are exact int64 sums
whichever window holds it.  A floored gap keeps the chance of no point in
k grid units exactly exp(-k 2^-44), and a rounded hazard moves its cell's
hit chance by at most 2^-45, so an attempt's law moves by at most
cells x 2^-45 in total variation (2e-10 for Partition(1600)'s 7,475
cells).  The cost rule (``_scan_pays``) compares the dense block's table
comparisons an attempt, plus a fixed cost an attempt, with the scan's
uniforms an attempt, in blocks of 50 coordinates or more: at the
benchmark's sizes the partition, multiset, distinct-part and selection
blocks scan, and the set partition and assembly blocks keep the dense
block.  Soft rejection weighs dead first halves too, so it never scans.

A scan reads many attempts per peek of the stream, and a dense block
batches K attempts' blocks in one numpy call, through one scope
(``_windowed``): it peeks windows of attempts and hands out one a call,
consuming it, for as long as the stream does not move under it: the same
rng asks again with nothing drawn since the last attempt.  Each attempt
handed out is then exactly what the next draw would take, so windows run
on across dead attempts, and, since hard rejection, flat pivots and a
scan's dsh draw nothing in their step, across the samples one rng draws in
a row.  An acceptance uniform, a draw by anything else, or another rng
drops the window.  K is the mean run of attempts the drawer has seen on an
unmoved stream, counting the run in progress; a dense block caps it at
4096 comparisons a batch (a row costs its uniforms in a closed-form block
and the larger of its uniforms and its table entries in a cdf-table one)
and below K = 8 draws one attempt at a time; plans always do.  A scan's
window also carries the engine's screen, the attempts its step would
reject, found over the window's sums in numpy (``_pivot_screen``,
``_hit_screen``); ``_rejection_loop`` spends those through the drawer's
``skip`` without stepping them.  The drawer holds its rng weakly, so it
keeps no finished request's rng alive.

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
costs only its own draws.  Uniforms a window peeked but did not consume
stay in the stream for the next draw and are not counted, so windows move
no outcome, attempt count or uniform count.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property, partial
from bisect import bisect_left
from itertools import repeat
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import InfeasibleTarget, InvalidRejection, NonTerminating, SingularSystem
from .marginals import (
    ContinuousMarginal, CountingRng, DiscreteMarginal, Geometric, _cell_table, block_inversion,
)

DEFAULT_MAX_ATTEMPTS = 10 ** 8

_RATIO_SLACK = 1e-9

# Drawers return (linear sum, second sum, values), the values aligned
# with the drawn index list (a cell scan's as an _Attempt).
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
        return self._drawer(self.free_indices, partial(_pivot_screen, self))

    @cached_property
    def _draw_full(self) -> Drawer:
        return self._drawer(tuple(range(self.size)), partial(_hit_screen, self))

    @cached_property
    def _draw_whole(self) -> Drawer:
        # soft rejection weighs every first half, dead or not, so it draws
        # them without the cell scan's dead cell
        return self._drawer(self.free_indices)

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

    def _drawer(self, indices: tuple[int, ...], screen: Callable | None = None) -> Drawer:
        """A cell scan of ``indices`` where it pays, else one block
        inversion, else a ``sample`` plan.  ``screen()`` builds the rule by
        which the engine's step rejects attempts, over a window's sums; the
        cell scan needs it, and no screen means no cell scan."""
        draw = (screen and _cell_drawer(self, indices, screen)) or _block_drawer(self, indices)
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

    most = _BATCH_UNIFORMS // max(count, _table_entries(marginals))
    if most < _MIN_BATCH:
        return draw

    def peek(rng: CountingRng, k: int) -> _Window:
        z = invert(rng.peek(k * count).reshape(k, count))
        rows = list(zip(totals(w, z), repeat(0) if c is None else totals(c, z), z))
        return _Window([count] * k, rows.__getitem__)

    return _windowed(peek, most, draw)


def _table_entries(marginals) -> int:
    return sum(len(t) for m in marginals if (t := getattr(m, "cdf_table", None)) is not None)


class _Window(NamedTuple):
    """Attempts peeked ahead of the stream.  Attempt i spends ``spent[i]``
    uniforms and ``item(i)`` gives its draw; ``passing`` lists, ascending,
    the attempts the engine's screen lets through (None where the drawer
    has no screen)."""

    spent: list
    item: Callable[[int], tuple]
    passing: list | None = None


def _windowed(peek: Callable, most: int, draw: Drawer | None = None, screened: bool = False) -> Drawer:
    """A drawer that hands out attempts from windows peeked ahead of the stream.

    ``peek(rng, k)`` reads about k attempts ahead, unconsumed, as a
    ``_Window``.  Each call hands out the next attempt and consumes its
    uniforms, for as long as the stream does not move under the drawer:
    the same rng asks again with nothing drawn since.  Otherwise the
    window is dropped.  k is the mean run of attempts seen on an unmoved
    stream, counting the run in progress, capped at ``most``; below
    _MIN_BATCH a drawer with a one-attempt ``draw`` uses it instead.  The
    rng is held weakly, so no finished request's rng is kept alive.

    Where the windows carry a screen, the drawer's ``skip(rng, budget)``
    consumes the attempts up to the next one the screen lets through, at
    most ``budget`` of them, and returns their count (``_rejection_loop``).
    """
    # one snapshot, replaced whole: the rng (held weakly), its count after
    # the last attempt handed out (-1, no count, before the first), the
    # window peeked past that count and the next attempt in it
    snapshot = (None, -1, None, 0)
    draws = runs = 0

    def windowed(rng: CountingRng):
        nonlocal snapshot, draws, runs
        held, mark, window, at = snapshot
        draws += 1
        if rng.calls != mark or held() is not rng:
            # the stream moved under the drawer: a new run, and a stale window
            held, window = weakref.ref(rng), None
            runs += 1
        if window is None or at == len(window.spent):
            k = min(max(draws // runs, 1), most)
            if draw is not None and k < _MIN_BATCH:
                got = draw(rng)
                snapshot = held, rng.calls, None, 0
                return got
            window, at = peek(rng, k), 0
        rng.consume(window.spent[at])
        snapshot = held, rng.calls, window, at + 1
        return window.item(at)

    def skip(rng: CountingRng, budget: int) -> int:
        nonlocal snapshot, draws, runs
        skipped = 0
        while True:
            held, mark, window, at = snapshot
            if rng.calls != mark or held() is not rng:
                held, window = weakref.ref(rng), None
                runs += 1
            if window is None or at == len(window.spent):
                window, at = peek(rng, min(max(draws // runs, 1), most)), 0
            spent, passing = window.spent, window.passing
            j = bisect_left(passing, at)
            n = min((passing[j] if j < len(passing) else len(spent)) - at, budget - skipped)
            rng.consume(sum(spent[at:at + n]))
            at += n
            skipped += n
            draws += n
            snapshot = held, rng.calls, window, at
            if at < len(spent) or skipped == budget:
                return skipped

    if screened:
        windowed.skip = skip
    return windowed


class _Attempt(NamedTuple):
    """A cell-scan attempt: ``dense()`` gives its values, and ``closing`` is
    exp(-V), V the overshoot of its closing gap past the total hazard."""

    dense: Callable[[], list]
    closing: float


# Positions on the hazard axis are multiples of 1/_GRID: each gap is
# floor(-log(1 - u) _GRID) and each cell's hazard is rounded to the grid,
# so an attempt's positions are exact int64 sums, whichever window holds
# it.  A gap is at most 36.8 (u <= 1 - 2^-53), so _WINDOW gaps sum below
# 2^62.2 on the grid; a window only grows past _WINDOW while its first
# attempt is open, whose gaps sum below the total hazard.
_GRID = 2.0 ** 44
_WINDOW = 8192
# a window reads the uniforms of k attempts on average, and _SLACK more
_SLACK = 32
# a block with more cells, or more total hazard, keeps the dense block
_MAX_CELLS = 1 << 16
_MAX_HAZARD = 256.0


# The cost rule of the cell scan: it pays where the dense block's work
# per attempt, in table comparisons (a coordinate 1, a table entry 1, a
# Geometric coordinate _LOG_COST for its logarithm) plus _DENSE_BASE for
# the attempt itself, reaches _SCAN_STEP per uniform the scan spends an
# attempt, in a block of at least _SCAN_MIN_SIZE coordinates.  Measured as
# process time per sample, a fresh rng per sample, dense -> cells (medians
# of 15 interleaved blocks of 100 samples, then the median ratio of paired
# blocks; comparisons and uniforms an attempt in brackets), dsh unless
# noted, on a shared 2-vCPU x86-64 host (Python 3.11, numpy 2.4).  These
# switch: Partition(100) 145 -> 101 us, 0.72 (990, 9.8), hard 395 -> 266,
# 0.69 (1,000, 11.9); Partition(400) 314 -> 151, 0.47 (3,990, 21.6);
# Partition(1600) 1,096 -> 278, 0.24 (15,990, 46.2); Multiset(100)
# 148 -> 103, 0.69 (1,337, 9.8); DistinctPartition(100) 173 -> 171, 0.98
# (99, 9.1); DistinctPartition(400) 732 -> 535, 0.71 (399, 18.1);
# Selection(60) 164 -> 133, 0.84 (118, 7.1), hard 183 -> 172, 0.94 (120,
# 7.7).  These stay dense: SetPartition(100) 108 -> 106, 1.00 (444, 25.8)
# and Assembly(100) 93 -> 99, 1.04 (435, 23.1).  The rule reads the block,
# not the engine, and a block under hard rejection differs from its dsh
# first half by one coordinate, though its runs are longer: hard
# SetPartition(100) and Assembly(100) would gain (264 -> 197 and
# 273 -> 210, both (474, 29.5)), and hard DistinctPartition(100) loses
# (208 -> 239, 1.18, (100, 9.7)).  Below 50 coordinates the scan now gains
# too (Partition(30) 90 -> 76 us, Partition(50) 107 -> 82, Multiset(50)
# 110 -> 82, the grid's 28 classes at n = 30 192 -> 108, EwensProfile(50,
# 5)'s 48 free coordinates 729 -> 215), but those blocks draw the small
# families' and the CLI's pinned outputs, and with EwensProfile(50, 5)
# switched the benchmark's struct-generic peak RSS, which grows with its
# request count, read +5.0% against a 5% bound, so they stay dense.
_SCAN_STEP = 30
_DENSE_BASE = 200
_LOG_COST = 10
_SCAN_MIN_SIZE = 50


def _scan_pays(marginals, spend: float) -> bool:
    """Whether a cell scan spending ``spend`` uniforms an attempt beats the dense block of ``marginals``."""
    dense = _DENSE_BASE + _table_entries(marginals) + sum(
        _LOG_COST if isinstance(m, Geometric) else 1 for m in marginals
    )
    return dense >= _SCAN_STEP * spend


def _cell_drawer(problem: ConditioningProblem, indices, screen: Callable) -> Drawer | None:
    """Draw ``indices`` as one Poisson process over the laws' cells, or None.

    For an integer problem whose weights are positive and whose marginals
    all take values >= 0 and have cells (``marginals._cell_table``): then
    each term w_i Z_i is at most the target t, so a coordinate's jumps
    above t / w_i only make an attempt dead, and they are merged into one
    dead cell, [0, D) on the hazard axis; the cells follow it up to the
    total hazard H (module docstring).  An attempt draws gaps from 0 until
    their sum passes H: a first point in the dead cell ends it dead, else
    each point before H adds its cell's jump to its coordinate (a hit cell
    adds 1 once, however many points it holds).  The dead cell keeps each
    attempt a draw of the whole first half, so attempt counts keep the
    dense block's law.

    A window (``_windowed``) finds, by one ``searchsorted`` of its gaps'
    running sums, where an attempt starting after each gap would close,
    and walks that list once, a step an attempt, to pick the attempts;
    one more ``searchsorted`` places every point in its cell, and one
    ``reduceat`` a sum gives every attempt's sums.  A dead attempt's
    linear sum is t + 1, which no engine completes.  ``screen()`` builds
    the engine's screen over the window.  A block of no hazard at all
    keeps the dense block.
    """
    sec = problem.second
    t = problem.target
    if not problem._exact_int or t < 0 or len(indices) < _SCAN_MIN_SIZE:
        return None
    if min(problem.weights) <= 0 or any(m.support_bounds()[0] < 0 for m in problem.marginals):
        return None
    t = int(t)
    marginals = [problem.marginals[i] for i in indices]
    w = np.array([int(problem.weights[i]) for i in indices], dtype=np.int64)
    caps = t // w
    c = None if sec is None else np.array([int(sec.coeffs[i]) for i in indices], dtype=np.int64)
    # a window's sums stay exact int64: each point adds at most t, and at
    # most |c_i| cap_i to the second sum
    top = max(t, 0 if c is None else int(np.max(np.abs(c) * caps)))
    if top >= 2 ** 63 // (2 * _WINDOW):
        return None
    table = _cell_table(marginals, caps, 0.5 / _GRID, _MAX_CELLS)
    if table is None:
        return None
    owner, jump, hit, hazard, dead = table
    # the cells left out would round to no width, and are never hit
    first = round(dead * _GRID)
    bounds = first + np.concatenate(([0], np.cumsum(np.rint(hazard * _GRID).astype(np.int64))))
    end = int(bounds[-1])
    if not 0 < end <= _MAX_HAZARD * _GRID:
        return None
    # a dead attempt spends one uniform, a live one a point per unit of hazard and one more
    spend = 1.0 + math.exp(-first / _GRID) * (end - first) / _GRID
    if not _scan_pays(marginals, spend):
        return None
    # a gap's place on the axis, by searchsorted on the bounds: 0 in the
    # dead cell, c + 1 in cell c, and len(bounds) past H; a dead point adds
    # t + 1 to the linear sum, which no engine completes
    lin_of = np.concatenate(([t + 1], jump * w[owner], [0]))
    sec_of = None if c is None else np.concatenate(([0], jump * c[owner], [0]))
    hits = bool(hit.any())
    hit = np.concatenate(([False], hit, [False]))
    at = np.concatenate(([0], owner, [0]))
    value = np.concatenate(([0], jump, [0]))
    past = len(bounds)
    # the bounds less H, measured from an attempt's end
    shifted = bounds - end
    size = len(indices)

    def dense(places: np.ndarray) -> list:
        out = [0] * size
        for i, v in zip(at[places].tolist(), value[places].tolist()):
            out[i] += v
        return out

    def peek(rng: CountingRng, k: int) -> _Window:
        want = min(math.ceil(k * spend) + _SLACK, _WINDOW)
        while True:
            gaps = (np.log1p(-rng.peek(want)) * -_GRID).astype(np.int64)
            pos = gaps.cumsum()
            # where an attempt starting at gap s would close: at once if its
            # first point is dead, else at the first gap to reach its end,
            # H past the running sum before s (H > 0, so never before s)
            ends = pos - gaps + end
            close = pos.searchsorted(ends)
            if first:
                close = np.where(gaps < first, np.arange(want), close)
            # the attempts: each starts after the one before closes
            close_at = close.item
            starts = []
            s = 0
            while s < want and (e := close_at(s)) < want:
                starts.append(s)
                s = e + 1
            if starts:
                break
            # the first attempt is still open, and its gaps sum below H
            want += min(want, _WINDOW)
        starts = np.array(starts, dtype=np.intp)
        closes = close[starts]
        ends = ends[starts]
        lengths = closes - starts + 1
        # every gap's place, as its distance from its attempt's end
        places = shifted.searchsorted(pos[:s] - ends.repeat(lengths), side="right")
        if hits:
            # a hit cell's later points in the same attempt add nothing:
            # they move past H, where every table holds 0 (the gap before an
            # attempt's first lies dead or past H, in no hit cell)
            later = places[1:]
            again = hit[later]
            again &= later == places[:-1]
            later[again] = past
        lins = np.add.reduceat(lin_of[places], starts)
        secs = None if sec_of is None else np.add.reduceat(sec_of[places], starts)
        closing = np.exp((ends - pos[closes]) / _GRID)
        passing = (~rejects(lins, secs, closing)).nonzero()[0].tolist()

        def item(i):
            return lins.item(i), 0 if secs is None else secs.item(i), _Attempt(
                partial(dense, places[starts.item(i):closes.item(i)]), closing.item(i)
            )

        return _Window(lengths.tolist(), item, passing)

    rejects = screen()
    return _windowed(peek, max(1, _WINDOW // math.ceil(2 * spend)), screened=True)


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


def _hit_screen(problem: ConditioningProblem) -> Callable:
    """Hard rejection's screen: the attempts whose sums miss the targets."""
    t = problem.target
    t2 = 0 if problem.second is None else problem.second.target
    return lambda lins, secs, _closing: (lins != t) | (False if secs is None else secs != t2)


def _pivot_screen(problem: ConditioningProblem) -> Callable:
    """dsh's screen over a window of an integer problem's attempts.

    It marks an attempt whose pivot block ``complete_from_sums`` would not
    complete, or whose acceptance variate (``_Attempt.closing``) is not
    below the density ratio the step would form, by the same float
    operations.  Every term of the constraint is nonnegative where the
    cell scan draws, so a pivot k above t / w_k leaves another pivot
    negative, which the support check marks; the density lookup clips it.
    Past _MAX_CELLS values a pivot gets no density table, and the step
    alone decides acceptance.
    """
    pivots = [problem.marginals[i] for i in problem.index_set]
    t = int(problem.target)
    t2 = 0 if problem.second is None else int(problem.second.target)
    tops = [t // int(problem.weights[i]) for i in problem.index_set]
    ratios = not all(m.flat for m in pivots) and max(tops) <= _MAX_CELLS
    bound = math.prod(m.sup_density() for m in pivots) if ratios else None
    det = problem._det
    rules = []
    for (_, a, b), m, top in zip(problem._cramer, pivots, tops):
        lo, hi = m.support_bounds()
        dens = np.array([m.density(y) for y in range(top + 1)]) if ratios else None
        if len(pivots) == 1 and ratios:
            # the step's ratio is density / bound, one entry per value
            dens = dens / bound
        rules.append((a, b, lo, hi, m.step, top, dens))

    def rejects(lins, secs, closing):
        r1 = t - lins
        out = num = None
        for a, b, lo, hi, step, top, dens in rules:
            x = (r1 if a == 1 else r1 * a) if secs is None else r1 * a + (t2 - secs) * b
            if det == 1:
                y, bad = x, x < lo
            else:
                y, rem = np.divmod(x, det)
                bad = (rem != 0) | (y < lo)
            if hi < top:
                bad |= y > hi
            if step != 1:
                bad |= (y - lo) % step != 0
            out = bad if out is None else out | bad
            if dens is not None:
                d = dens.take(y, mode="clip")
                num = d if num is None else num * d
        if num is not None:
            out |= ~(closing < (num if len(rules) == 1 else num / bound))
        return out

    return rejects


def _assemble(problem: ConditioningProblem, vals, pivot_vals=()):
    """The outcome of an accepted attempt: ``vals`` with ``pivot_vals`` at ``index_set``."""
    if isinstance(vals, _Attempt):
        out = vals.dense()
    elif isinstance(vals, np.ndarray):
        out = vals.tolist()
    else:
        out = [_as_scalar(v) for v in vals]
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
    skip = getattr(draw, "skip", None)
    attempt = 0
    while attempt < max_attempts:
        if skip is not None:
            # attempts the step would reject, spent without stepping them
            attempt += skip(rng, max_attempts - attempt)
            if attempt == max_attempts:
                break
        attempt += 1
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
            # a cell scan's attempt brings exp(-V) of its closing gap
            u = vals.closing if isinstance(vals, _Attempt) else rng.uniform()
            if not u < ratio:
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
        problem._draw_whole, step, rng, max_attempts, "soft rejection", problem.size
    )

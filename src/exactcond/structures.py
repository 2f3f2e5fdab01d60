"""Random combinatorial structures as conditioned independent processes.

Each family describes structures of total size n by a multiplicity vector
(c_1, ..., c_n), c_i parts of size i, with sum i * c_i = n.  Taking the
c_i independent with a per-family marginal and conditioning on the
weighted sum recovering n yields the uniform (or, for cycle profiles,
the Ewens) law on the family, for every value of a free tilt parameter
0 < x; the tilt only moves the acceptance rate, and the defaults below
put the conditioning event near the mode of its statistic.

Family marginals and default tilts:

====================  ===============================  =====================
family                c_i marginal                       default tilt
====================  ===============================  =====================
Partition             Geometric(x^i)                   exp(-pi / sqrt(6 n))
DistinctPartition     Bernoulli(x^i / (1 + x^i))       E[T] = n, bisection
Selection             Binomial(m_i, x^i / (1 + x^i))   E[T] = n, bisection
Multiset              NegativeBinomial(m_i, x^i)       exp(-pi / sqrt(6 n))
Assembly              Poisson(m_i x^i / i!)            x e^x = n
SetPartition          Poisson(x^i / i!)                x e^x = n
PlanePartitionGrid    NegativeBinomial(w-2, x^w)       E[T] = n, bisection
EwensProfile          Poisson(theta x^i / i)           exp(-1/n)
====================  ===============================  =====================

The grid family lives on cells (i, j) of weight w = i + j + 1, each cell
Geometric(x^w).  Cells heavier than n are forced to zero by the
constraint, so its sampling space holds only the cells of weight at most
n; ``build_problem`` states that space cell by cell, for the oracle.
``sample_structure`` draws it in two halves, as probabilistic
divide-and-conquer does.  The w - 2 cells of weight w are iid, so their
sum S_w is NegativeBinomial(w - 2, x^w), the table's entry, and given S_w
the cells are uniform over the weak compositions of S_w.  So the class
sums S_3..S_n, conditioned on sum_w w S_w = n, are one problem
(``grid_classes``) that the chosen engine draws, and each S_w is then
split over its cells exactly, with no rejection.
EwensProfile pins the number of parts too, so its problem carries a
second constraint and a two-coordinate pivot block {1, 2}.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial

from .engine import (
    DEFAULT_MAX_ATTEMPTS,
    ConditioningProblem,
    SampleRecord,
    SecondConstraint,
    _draw,
    _rejection_loop,
    dsh_sample,
    hard_rejection_sample,
)
from .errors import InvalidFamily, InvalidProfile
from .geometry import IntervalUnion
from .marginals import (
    Bernoulli,
    Binomial,
    CountingRng,
    Geometric,
    NegativeBinomial,
    Poisson,
    SignedUnit,
)

@dataclass(frozen=True)
class MultiplicityVector:
    """counts[i-1] parts of size i; the structure it profiles has size total."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if min(self.counts, default=0) < 0:
            raise InvalidProfile(f"negative multiplicity in {self.counts}")

    @property
    def total(self) -> int:
        return sum((i + 1) * c for i, c in enumerate(self.counts))

    @property
    def parts(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class PlaneGrid:
    """Nonzero cells (row, col, count) of a sampled grid configuration."""

    n: int
    entries: tuple[tuple[int, int, int], ...]

    @property
    def total(self) -> int:
        return sum((i + j + 1) * z for i, j, z in self.entries)


def _validate_size(n: int):
    if n < 1:
        raise InvalidFamily(f"structure size must be >= 1, got {n}")


def _validate_mult(n: int, mult) -> tuple[int, ...]:
    if mult is None:
        return (1,) * n
    mult = tuple(mult)
    try:
        m = tuple(int(v) for v in mult)
    except (TypeError, ValueError, OverflowError):
        m = None
    if m != mult:
        raise InvalidFamily(f"multiplicities must be whole numbers, got {mult}")
    if len(m) != n:
        raise InvalidFamily(f"need {n} multiplicities, got {len(m)}")
    if any(v < 1 for v in m):
        raise InvalidFamily("multiplicities must be positive")
    return m


def _freeze_mult(family):
    # a list of multiplicities would make the family unhashable, and so
    # uncacheable in build_problem
    if family.multiplicities is not None:
        object.__setattr__(family, "multiplicities", tuple(family.multiplicities))


@dataclass(frozen=True)
class Partition:
    n: int
    tilt: float | None = None

    kind = "partition"


@dataclass(frozen=True)
class DistinctPartition:
    n: int
    tilt: float | None = None

    kind = "distinct"


@dataclass(frozen=True)
class Selection:
    n: int
    multiplicities: tuple[int, ...] | None = None
    tilt: float | None = None

    kind = "selection"

    def __post_init__(self):
        _freeze_mult(self)


@dataclass(frozen=True)
class Multiset:
    n: int
    multiplicities: tuple[int, ...] | None = None
    tilt: float | None = None

    kind = "multiset"

    def __post_init__(self):
        _freeze_mult(self)


@dataclass(frozen=True)
class Assembly:
    n: int
    multiplicities: tuple[int, ...] | None = None
    tilt: float | None = None

    kind = "assembly"

    def __post_init__(self):
        _freeze_mult(self)


@dataclass(frozen=True)
class SetPartition:
    n: int
    tilt: float | None = None

    kind = "setpartition"


@dataclass(frozen=True)
class PlanePartitionGrid:
    n: int
    tilt: float | None = None

    kind = "planegrid"


@dataclass(frozen=True)
class EwensProfile:
    n: int
    blocks: int
    theta: float = 1.0
    tilt: float | None = None

    kind = "ewens"


Family = (
    Partition
    | DistinctPartition
    | Selection
    | Multiset
    | Assembly
    | SetPartition
    | PlanePartitionGrid
    | EwensProfile
)


def _bisect_mean(mean, n: int) -> float:
    """The x in (0, 1) with mean(x) = n, for a mean increasing in x, by bisection."""
    lo, hi = 0.0, 1.0
    while True:
        x = 0.5 * (lo + hi)
        if x in (lo, hi):
            return x
        if mean(x) < n:
            lo = x
        else:
            hi = x


def solve_tilt(kind: str, n: int, multiplicities=None) -> float:
    """Default tilt parameter putting the size statistic near its target.

    partition and multiset kinds use the classical exp(-pi / sqrt(6 n));
    distinct parts and selections solve E[T] = sum_i i m_i x^i / (1 + x^i)
    = n by bisection on (0, 1), with unit multiplicities m_i unless given.
    As x -> 1 that mean tends to sum_i i m_i / 2, so when this is at most n
    (n <= 3 with unit multiplicities) no root lies below 1 and they keep
    exp(-pi / sqrt(6 n)); the tilt sets only the cost, never the law.
    assembly kinds solve x e^x = n by Newton to relative residual 1e-12;
    the grid solves E[T] = sum_{w=3..n} (w - 2) w x^w / (1 - x^w) = n
    (w - 2 cells of weight w) by the same bisection, as E[T] increases in
    x; cycle profiles use exp(-1/n).  Only distinct parts and selections
    read ``multiplicities``.
    """
    _validate_size(n)
    if kind in ("distinct", "selection"):
        mult = _validate_mult(n, multiplicities)
        if sum(i * m for i, m in enumerate(mult, start=1)) > 2 * n:
            return _bisect_mean(
                lambda x: sum(
                    i * m * x ** i / (1.0 + x ** i) for i, m in enumerate(mult, start=1)
                ),
                n,
            )
    if kind in ("partition", "distinct", "selection", "multiset"):
        return math.exp(-math.pi / math.sqrt(6.0 * n))
    if kind in ("assembly", "setpartition"):
        x = math.log(n + 1.0)
        for _ in range(80):
            f = x * math.exp(x) - n
            if abs(f) <= 1e-12 * max(1.0, float(n)):
                return x
            x -= f / ((1.0 + x) * math.exp(x))
        raise ArithmeticError(f"tilt iteration failed to converge for n={n}")
    if kind == "planegrid":
        if n < 3:
            raise InvalidFamily(f"a grid of total weight {n} has no cells")
        return _bisect_mean(
            lambda x: sum((w - 2) * w * x ** w / (1.0 - x ** w) for w in range(3, n + 1)),
            n,
        )
    if kind == "ewens":
        return math.exp(-1.0 / n)
    raise InvalidFamily(f"unknown family kind {kind!r}")


def _tilt_of(family) -> float:
    x = family.tilt
    if x is None:
        x = solve_tilt(family.kind, family.n, getattr(family, "multiplicities", None))
    if not x > 0.0:
        raise InvalidFamily(f"tilt must be positive, got {x}")
    return x


@lru_cache(maxsize=64)
def grid_cells(family: PlanePartitionGrid) -> list[tuple[int, int]]:
    """Cells of weight at most n, sorted, pivot cell (1, 1) first.

    Cached per family like ``build_problem``; callers must not mutate it.
    """
    n = family.n
    return [(i, j) for i in range(1, n) for j in range(1, n) if i + j + 1 <= n]


def _check_grid(n: int, x: float) -> None:
    if n < 3:
        raise InvalidFamily(f"a grid of total weight {n} has no cells")
    if not x < 1.0:
        raise InvalidFamily(f"planegrid needs a tilt in (0, 1), got {x}")


@lru_cache(maxsize=64)
def grid_classes(family: PlanePartitionGrid) -> ConditioningProblem:
    """The grid's class problem: coordinate w - 3 is S_w, the sum of the cells of weight w.

    S_w is NegativeBinomial(w - 2, x^w) for w = 3..n, with weight w and
    target n; the pivot is the class of least ``sup_density``, as for
    ``Multiset``.  Cached per family like ``build_problem``.
    """
    x = _tilt_of(family)
    _check_grid(family.n, x)
    weights = tuple(range(3, family.n + 1))
    marginals = tuple(NegativeBinomial(w - 2, x ** w) for w in weights)
    return ConditioningProblem(
        marginals=marginals, weights=weights, target=family.n,
        index_set=(_argmin_sup_density(marginals),),
    )


def _split_classes(n: int, sums, rng: CountingRng) -> PlaneGrid:
    """Place each class sum S_w on the cells (i, w - 1 - i) of weight w.

    Given S_w the m = w - 2 cells are uniform over the weak compositions
    of S_w, which a Polya urn with one starting ball per cell draws: each
    unit picks a ball uniformly and adds a copy of it, so a composition
    (k_1, ..., k_m) comes out with chance S! (m - 1)! / (S + m - 1)!
    whatever it is.  One uniform per unit, drawn as one block, in classes
    of at least 2 cells.
    """
    units = rng.uniforms(sum(sums[1:])).tolist()
    pos = 0
    cells = [(1, 1)] * sums[0]
    for w, s in enumerate(sums[1:], start=4):
        if not s:
            continue
        m = w - 2
        # ball j < m is row j + 1's starting ball, ball m + t the copy unit t added
        picks = []
        for t, u in enumerate(units[pos:pos + s]):
            j = min(int(u * (m + t)), m + t - 1)
            picks.append(j + 1 if j < m else picks[j - m])
        pos += s
        cells.extend((i, w - 1 - i) for i in picks)
    return PlaneGrid(n, tuple(sorted((i, j, z) for (i, j), z in Counter(cells).items())))


def _argmin_sup_density(marginals) -> int:
    return min(range(len(marginals)), key=lambda i: marginals[i].sup_density())


@lru_cache(maxsize=64)
def build_problem(family: Family) -> ConditioningProblem:
    """The conditioning problem whose conditional law is the family's law.

    Cached per family (families are frozen, and so are problems), so
    repeated sampling does not rebuild the marginals' cdf tables.
    """
    _validate_size(family.n)
    n = family.n
    x = _tilt_of(family)
    sizes = tuple(range(1, n + 1))

    if isinstance(family, (Partition, DistinctPartition, Selection, Multiset)):
        if not x < 1.0:
            raise InvalidFamily(f"{family.kind} needs a tilt in (0, 1), got {x}")
        powers = [x ** i for i in sizes]
        if isinstance(family, Partition):
            marginals = tuple(Geometric(p) for p in powers)
        elif isinstance(family, DistinctPartition):
            marginals = tuple(Bernoulli(p / (1.0 + p)) for p in powers)
        elif isinstance(family, Selection):
            mult = _validate_mult(n, family.multiplicities)
            marginals = tuple(
                Binomial(m, p / (1.0 + p)) for m, p in zip(mult, powers)
            )
        else:
            mult = _validate_mult(n, family.multiplicities)
            marginals = tuple(NegativeBinomial(m, p) for m, p in zip(mult, powers))
        return ConditioningProblem(
            marginals=marginals, weights=sizes, target=n,
            index_set=(_argmin_sup_density(marginals),),
        )

    if isinstance(family, (Assembly, SetPartition)):
        mult = (1,) * n if isinstance(family, SetPartition) else _validate_mult(
            n, family.multiplicities
        )
        rates = [
            math.exp(math.log(m) + i * math.log(x) - math.lgamma(i + 1))
            for i, m in zip(sizes, mult)
        ]
        marginals = tuple(Poisson(r) for r in rates)
        if isinstance(family, SetPartition):
            pivot = min(max(round(math.log(n)), 1), n) - 1
        else:
            pivot = _argmin_sup_density(marginals)
        return ConditioningProblem(
            marginals=marginals, weights=sizes, target=n, index_set=(pivot,),
        )

    if isinstance(family, PlanePartitionGrid):
        _check_grid(n, x)
        weights = tuple(i + j + 1 for i, j in grid_cells(family))
        return ConditioningProblem(
            marginals=tuple(Geometric(x ** w) for w in weights), weights=weights,
            target=n, index_set=(0,),
        )

    if isinstance(family, EwensProfile):
        if not 1 <= family.blocks <= n:
            raise InvalidFamily(
                f"a size-{n} permutation has between 1 and {n} cycles, not {family.blocks}"
            )
        if not family.theta > 0.0:
            raise InvalidFamily(f"theta must be positive, got {family.theta}")
        marginals = tuple(Poisson(family.theta * x ** i / i) for i in sizes)
        if n == 1:
            # one cycle of length 1: the size constraint already pins the
            # block count, so one pivot completes it
            return ConditioningProblem(
                marginals=marginals, weights=sizes, target=n, index_set=(0,),
            )
        return ConditioningProblem(
            marginals=marginals, weights=sizes, target=n, index_set=(0, 1),
            second=SecondConstraint(coeffs=(1,) * n, target=family.blocks),
        )

    raise InvalidFamily(f"unknown family {family!r}")


# the engines sample_structure maps a method name to; the lookup stays an
# if chain on module globals, so a wrapper patched over an engine applies
METHODS = ("dsh", "hard")


def sample_structure(
    family: Family,
    rng: CountingRng,
    *,
    method: str = "dsh",
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> tuple[MultiplicityVector | PlaneGrid, SampleRecord]:
    """One exact draw of a structure, with its rejection cost record.

    method 'dsh' completes the pivot block deterministically, 'hard'
    redraws the whole vector until the size works out.  A grid draws its
    class sums (``grid_classes``) by the method, then splits them over its
    cells (``_split_classes``); its record's outcome is the grid's entries,
    and its ``rng_calls`` count the split's uniforms too.
    """
    grid = isinstance(family, PlanePartitionGrid)
    problem = grid_classes(family) if grid else build_problem(family)
    start = rng.calls
    if method == "dsh":
        rec = dsh_sample(problem, rng, max_attempts=max_attempts)
    elif method == "hard":
        rec = hard_rejection_sample(problem, rng, max_attempts=max_attempts)
    else:
        raise ValueError(f"method must be hard or dsh, got {method!r}")

    if grid:
        value = _split_classes(family.n, rec.outcome, rng)
        return value, SampleRecord(value.entries, rec.attempts, rng.calls - start)
    return MultiplicityVector(rec.outcome), rec


def outcome_counts(family: Family, values) -> Counter:
    """Tally sampled structures under the keys ``enumerate_conditional`` uses.

    A multiplicity vector counts under its counts; a grid configuration
    under its dense tuple of cell values in ``grid_cells(family)`` order.
    """
    if not isinstance(family, PlanePartitionGrid):
        return Counter(value.counts for value in values)
    index = {c: i for i, c in enumerate(grid_cells(family))}
    counts: Counter = Counter()
    for entries, c in Counter(value.entries for value in values).items():
        dense = [0] * len(index)
        for i, j, z in entries:
            dense[index[(i, j)]] = z
        counts[tuple(dense)] += c
    return counts


def feller_permutation_cycles(
    n: int, rng: CountingRng
) -> tuple[MultiplicityVector, SampleRecord]:
    """Cycle profile of a uniform permutation of n elements, rejection-free.

    Runs the coupling of close-cycle coin flips with success chances 1/n,
    1/(n-1), ..., 1/1; spacings between successes are the cycle lengths.
    Costs exactly n uniforms, always one attempt.
    """
    _validate_size(n)
    start = rng.calls
    counts = [0] * n
    run = 0
    for remaining in range(n, 0, -1):
        run += 1
        if rng.uniform() < 1.0 / remaining:
            counts[run - 1] += 1
            run = 0
    profile = MultiplicityVector(tuple(counts))
    return profile, SampleRecord(profile.counts, 1, rng.calls - start)


def materialize_set_partition(
    profile: MultiplicityVector, rng: CountingRng
) -> tuple[tuple[tuple[int, ...], ...], SampleRecord]:
    """Uniform set partition of {1..total} with the given block profile.

    Shuffles the ground set and cuts it into blocks of the profiled
    sizes; every partition with this profile arises from the same number
    of permutations, so the cut is uniform.  Blocks come out sorted by
    size then least element.
    """
    n = profile.total
    if n == 0:
        raise InvalidProfile("cannot materialize the empty profile")
    start = rng.calls
    ground = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = min(int(rng.uniform() * (i + 1)), i)
        ground[i], ground[j] = ground[j], ground[i]
    blocks = []
    pos = 0
    for size, count in enumerate(profile.counts, start=1):
        for _ in range(count):
            blocks.append(tuple(sorted(ground[pos:pos + size])))
            pos += size
    blocks.sort(key=lambda b: (len(b), b[0]))
    out = tuple(blocks)
    return out, SampleRecord(out, 1, rng.calls - start)


def small_ball_sample(
    weights,
    window: IntervalUnion,
    pivot: int,
    rng: CountingRng,
    *,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> tuple[tuple[int, ...], SampleRecord]:
    """Uniform signs conditioned on the weighted sum landing in a window.

    Draws all signs but the pivot's through the engine's per-coordinate
    plan, counts which pivot signs land the sum inside the window (0, 1,
    or 2), accepts the first half with probability (valid count) / 2, and
    picks uniformly among the valid completions.  Both cases spend one
    auxiliary uniform, and every qualifying sign vector comes out with
    equal probability.
    """
    n = len(weights)
    if not 0 <= pivot < n:
        raise ValueError(f"pivot {pivot} out of range for {n} weights")
    if weights[pivot] == 0:
        raise ValueError("the pivot weight must be nonzero")
    sign = SignedUnit().sample
    draw = partial(_draw, tuple((sign, weights[i], 0) for i in range(n) if i != pivot))

    def step(lin, _sec, signs, rng):
        valid = [s for s in (-1, 1) if window.contains(lin + weights[pivot] * s)]
        if not valid:
            return None
        # one uniform: below 1/2 the first valid sign, else the second or none
        u = rng.uniform()
        if u >= 0.5 and len(valid) == 1:
            return None
        signs.insert(pivot, valid[0] if u < 0.5 else valid[1])
        return tuple(signs)

    rec = _rejection_loop(draw, step, rng, max_attempts, "sign-vector sampling", n)
    return rec.outcome, rec

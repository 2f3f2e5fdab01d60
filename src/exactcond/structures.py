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
DistinctPartition     Bernoulli(x^i / (1 + x^i))       exp(-pi / sqrt(6 n))
Selection             Binomial(m_i, x^i / (1 + x^i))   exp(-pi / sqrt(6 n))
Multiset              NegativeBinomial(m_i, x^i)       exp(-pi / sqrt(6 n))
Assembly              Poisson(m_i x^i / i!)            x e^x = n
SetPartition          Poisson(x^i / i!)                x e^x = n
PlanePartitionGrid    Geometric(x^(i+j+1)) per cell    1 - (2 zeta(3)/n)^(1/3)
EwensProfile          Poisson(theta x^i / i)           exp(-1/n)
====================  ===============================  =====================

The grid family lives on cells (i, j) of weight i + j + 1; cells heavier
than n are forced to zero by the constraint and are dropped from the
sampling space unless ``truncate_cells=False`` asks for the full square.
EwensProfile pins the number of parts too, so its problem carries a
second constraint and a two-coordinate pivot block {1, 2}.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .engine import (
    DEFAULT_MAX_ATTEMPTS,
    ConditioningProblem,
    SampleRecord,
    SecondConstraint,
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

# zeta(3) as a double literal, so that importing the package skips scipy
_ZETA_3 = 1.2020569031595942


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
    m = tuple(int(v) for v in mult)
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
    truncate_cells: bool = True

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


def solve_tilt(kind: str, n: int) -> float:
    """Default tilt parameter putting the size statistic near its target.

    partition-like kinds use the classical exp(-pi / sqrt(6 n)); assembly
    kinds solve x e^x = n by Newton to relative residual 1e-12; the grid
    uses 1 - (2 zeta(3) / n)^(1/3); cycle profiles use exp(-1/n).
    """
    _validate_size(n)
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
        x = 1.0 - (2.0 * _ZETA_3 / n) ** (1.0 / 3.0)
        if not 0.0 < x < 1.0:
            raise InvalidFamily(f"no valid grid tilt for n={n}")
        return x
    if kind == "ewens":
        return math.exp(-1.0 / n)
    raise InvalidFamily(f"unknown family kind {kind!r}")


def _tilt_of(family) -> float:
    x = family.tilt if family.tilt is not None else solve_tilt(family.kind, family.n)
    if not x > 0.0:
        raise InvalidFamily(f"tilt must be positive, got {x}")
    return x


@lru_cache(maxsize=64)
def grid_cells(family: PlanePartitionGrid) -> list[tuple[int, int]]:
    """Cell coordinates of the grid sampling space, sorted, pivot cell (1, 1) first.

    Cached per family like ``build_problem``; callers must not mutate it.
    """
    n = family.n
    if family.truncate_cells:
        return [(i, j) for i in range(1, n) for j in range(1, n) if i + j + 1 <= n]
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]


def _sparse_geometric_hook(weights, ratios, indices):
    # Scan ``indices`` for the next nonzero coordinate by inverting the
    # waiting-time law over the (1 - r_j) survival products: two uniforms
    # per nonzero cell plus one closing draw, instead of one uniform per
    # cell.  The joint law of the drawn vector is unchanged; only the draw
    # count (the cost unit) differs from the per-variate scheme.  The scan
    # is sequential, so it runs on Python floats: bisect_right finds what
    # searchsorted(side="right") would, and float // floors as numpy does.
    idx = list(indices)
    w = [weights[i] for i in idx]
    r = np.array([ratios[i] for i in idx])
    neg_log_survival = (-np.cumsum(np.log1p(-r))).tolist()
    logr = np.log(r).tolist()
    count = len(idx)

    def draw(rng: CountingRng):
        lin = 0
        vals: dict[int, int] = {}
        base = 0.0
        while True:
            k = bisect_right(neg_log_survival, base - math.log1p(-rng.uniform()))
            if k >= count:
                return lin, 0, vals
            z = 1 + int(math.log1p(-rng.uniform()) // logr[k])
            vals[idx[k]] = z
            lin += w[k] * z
            base = neg_log_survival[k]

    return draw


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
        if n < 3:
            raise InvalidFamily(f"a grid of total weight {n} has no cells")
        if not x < 1.0:
            raise InvalidFamily(f"planegrid needs a tilt in (0, 1), got {x}")
        cells = grid_cells(family)
        weights = tuple(i + j + 1 for i, j in cells)
        ratios = [x ** w for w in weights]
        marginals = tuple(Geometric(r) for r in ratios)
        return ConditioningProblem(
            marginals=marginals, weights=weights, target=n, index_set=(0,),
            draw_hook=partial(_sparse_geometric_hook, weights, ratios),
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
    redraws the whole vector until the size works out.
    """
    problem = build_problem(family)
    if method == "dsh":
        rec = dsh_sample(problem, rng, max_attempts=max_attempts)
    elif method == "hard":
        rec = hard_rejection_sample(problem, rng, max_attempts=max_attempts)
    else:
        raise ValueError(f"method must be hard or dsh, got {method!r}")

    if isinstance(family, PlanePartitionGrid):
        # the grid's draw hook reports sparse values, so its outcome is a SparseVector
        cells = grid_cells(family)
        value = PlaneGrid(
            family.n, tuple((cells[i][0], cells[i][1], v) for i, v in rec.outcome.entries)
        )
    else:
        value = MultiplicityVector(rec.outcome)
    return value, rec


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

    Draws all signs but the pivot's, counts which pivot signs land the
    sum inside the window (0, 1, or 2), accepts the first half with
    probability (valid count) / 2, and picks uniformly among the valid
    completions.  Both cases spend one auxiliary uniform, and every
    qualifying sign vector comes out with equal probability.
    """
    n = len(weights)
    if not 0 <= pivot < n:
        raise ValueError(f"pivot {pivot} out of range for {n} weights")
    if weights[pivot] == 0:
        raise ValueError("the pivot weight must be nonzero")
    signed = SignedUnit()
    others = [i for i in range(n) if i != pivot]
    w_pivot = weights[pivot]

    def draw(rng: CountingRng):
        signs = [0] * n
        partial = 0.0
        for i in others:
            s = signed.sample(rng)
            signs[i] = s
            partial += weights[i] * s
        return partial, 0, signs

    def step(partial, _sec, signs, rng):
        valid = [s for s in (-1, 1) if window.contains(partial + w_pivot * s)]
        if not valid:
            return None
        if len(valid) == 1:
            if rng.uniform() >= 0.5:
                return None
            signs[pivot] = valid[0]
        else:
            signs[pivot] = valid[0] if rng.uniform() < 0.5 else valid[1]
        return tuple(signs)

    rec = _rejection_loop(draw, step, rng, max_attempts, "sign-vector sampling", n)
    return rec.outcome, rec

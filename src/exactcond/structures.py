"""Random combinatorial structures as conditioned independent processes.

Each family describes structures of total size n by a multiplicity vector
(c_1, ..., c_n), c_i parts of size i, with sum i * c_i = n.  Taking the
c_i independent with a per-family marginal and conditioning on the
weighted sum recovering n yields the uniform (or, for cycle profiles,
the Ewens) law on the family, for every value of a free tilt parameter
0 < x; the tilt only moves the acceptance rate, and the defaults below
put the conditioning event near the mode of its statistic.

The c_i follow one of three laws, the classes of logarithmic combinatorial
structures (Arratia, Barbour and Tavare 2003).  A family is one row of
``_ROWS``: a law with a parameter m_i per size i (no coordinate where
m_i = 0), a default tilt and a pivot.

==================  ==================  ===============  ===================  ===========
law of c_i          family              m_i              default tilt         pivot
==================  ==================  ===============  ===================  ===========
Binomial, x < 1     DistinctPartition   1 (Bernoulli)    E[T] = n             least peak
(m_i, x^i/(1+x^i))  Selection           given            E[T] = n             least peak
NegativeBinomial,   Partition           1 (Geometric)    exp(-pi/sqrt(6 n))   least peak
x < 1 (m_i, x^i)    Multiset            given            exp(-pi/sqrt(6 n))   least peak
                    PlanePartitionGrid  w - 2, w >= 3    E[T] = n             least peak
Poisson(m_i x^i/i!) Assembly            given            x e^x = n            least peak
                    SetPartition        1                x e^x = n            round(ln n)
Poisson(m_i x^i/i)  EwensProfile        theta            exp(-1/n)            sizes 1, 2
==================  ==================  ===============  ===================  ===========

The least peak is the coordinate of least ``sup_density``.  E[T] = n is
solved by bisection; a Binomial row keeps exp(-pi/sqrt(6 n)) when
sum_i i m_i <= 2 n, as its mean then has no root below x = 1.

The grid family lives on cells (i, j) of weight w = i + j + 1, each cell
Geometric(x^w).  Cells heavier than n are forced to zero by the
constraint, so its sampling space holds only the cells of weight at most
n; ``build_problem`` states that space cell by cell, for the oracle.
``sample_structure`` draws it in two halves, as probabilistic
divide-and-conquer does.  The w - 2 cells of weight w are iid, so their
sum S_w is NegativeBinomial(w - 2, x^w), and given S_w the cells are
uniform over the weak compositions of S_w.  So the class sums S_3..S_n,
conditioned on sum_w w S_w = n, are the grid's row, which the chosen
engine draws, and each S_w is then split over its cells exactly, with no
rejection.
EwensProfile pins the number of parts too, so its problem carries a
second constraint and a two-coordinate pivot block {1, 2}.
"""

from __future__ import annotations

import math
import operator
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


def _validate_size(n) -> int:
    """n as an int; a size that is not a whole number of at least 1 raises."""
    try:
        n = operator.index(n)
    except TypeError:
        raise InvalidFamily(f"structure size must be a whole number, got {n!r}") from None
    if n < 1:
        raise InvalidFamily(f"structure size must be >= 1, got {n}")
    return n


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


def _partition_tilt(n: int, _mult) -> float:
    return math.exp(-math.pi / math.sqrt(6.0 * n))


def _mean_tilt(sign: float, n: int, mult) -> float:
    """The root x in (0, 1) of E[T] = sum_i i m_i x^i / (1 + sign x^i) = n, by bisection.

    sign is 1 for a Binomial row and -1 for a NegativeBinomial one.
    """
    if sign > 0 and sum(i * m for i, m in enumerate(mult, start=1)) <= 2 * n:
        return _partition_tilt(n, mult)
    lo, hi = 0.0, 1.0
    while True:
        x = 0.5 * (lo + hi)
        if x in (lo, hi):
            return x
        mean = sum(
            i * m * x ** i / (1.0 + sign * x ** i) for i, m in enumerate(mult, start=1) if m
        )
        if mean < n:
            lo = x
        else:
            hi = x


def _assembly_tilt(n: int, _mult) -> float:
    """x e^x = n, by Newton to relative residual 1e-12."""
    x = math.log(n + 1.0)
    for _ in range(80):
        f = x * math.exp(x) - n
        if abs(f) <= 1e-12 * max(1.0, float(n)):
            return x
        x -= f / ((1.0 + x) * math.exp(x))
    raise ArithmeticError(f"tilt iteration failed to converge for n={n}")


def _grid_mult(n: int, _given) -> tuple[int, ...]:
    if n < 3:
        raise InvalidFamily(f"a grid of total weight {n} has no cells")
    return (0, 0) + tuple(range(1, n - 1))


def _theta_mult(n: int, theta) -> tuple[float, ...]:
    theta = 1.0 if theta is None else theta
    if not 0.0 < theta < math.inf:
        raise InvalidFamily(f"theta must be positive and finite, got {theta}")
    return (theta,) * n


def _negative_binomial(i: int, m: int, x: float) -> NegativeBinomial:
    return NegativeBinomial(m, x ** i)


def _labelled(i: int, m: int, x: float) -> Poisson:
    return Poisson(math.exp(math.log(m) + i * math.log(x) - math.lgamma(i + 1)))


def _least_peak(_family, _n: int, marginals) -> dict:
    peaks = [m.sup_density() for m in marginals]
    return {"index_set": (peaks.index(min(peaks)),)}


def _near_log_n(_family, n: int, _marginals) -> dict:
    return {"index_set": (min(max(round(math.log(n)), 1), n) - 1,)}


def _two_cycles(family, n: int, _marginals) -> dict:
    if not 1 <= family.blocks <= n:
        raise InvalidFamily(
            f"a size-{n} permutation has between 1 and {n} cycles, not {family.blocks}"
        )
    # one cycle of length 1: the size constraint already pins the block
    # count, so one pivot completes it
    return {"index_set": (0,)} if n == 1 else {
        "index_set": (0, 1), "second": SecondConstraint((1,) * n, family.blocks),
    }


# kind: (law of c_i from size i, its m_i and the tilt x; m_1..m_n from n and
# the family's own parameter, None for its default; default tilt from n and
# m_1..m_n; pivot fields from the family, n and the marginals; x must be < 1)
_ROWS = {
    "distinct": (
        lambda i, m, x: Bernoulli(x ** i / (1.0 + x ** i)),
        _validate_mult, partial(_mean_tilt, 1.0), _least_peak, True,
    ),
    "selection": (
        lambda i, m, x: Binomial(m, x ** i / (1.0 + x ** i)),
        _validate_mult, partial(_mean_tilt, 1.0), _least_peak, True,
    ),
    "partition": (
        lambda i, m, x: Geometric(x ** i),
        _validate_mult, _partition_tilt, _least_peak, True,
    ),
    "multiset": (_negative_binomial, _validate_mult, _partition_tilt, _least_peak, True),
    "planegrid": (
        _negative_binomial, _grid_mult, partial(_mean_tilt, -1.0), _least_peak, True,
    ),
    "assembly": (_labelled, _validate_mult, _assembly_tilt, _least_peak, False),
    "setpartition": (_labelled, _validate_mult, _assembly_tilt, _near_log_n, False),
    "ewens": (
        lambda i, m, x: Poisson(m * x ** i / i),
        _theta_mult, lambda n, _mult: math.exp(-1.0 / n), _two_cycles, False,
    ),
}


def solve_tilt(kind: str, n: int, multiplicities=None) -> float:
    """The default tilt of a family kind, by its row's rule (module table).

    ``multiplicities`` (unit when None) move only the E[T] = n tilts.
    """
    if kind not in _ROWS:
        raise InvalidFamily(f"unknown family kind {kind!r}")
    _, mult_rule, tilt_rule, _, _ = _ROWS[kind]
    n = _validate_size(n)
    return tilt_rule(n, mult_rule(n, multiplicities))


@lru_cache(maxsize=64)
def grid_cells(family: PlanePartitionGrid) -> list[tuple[int, int]]:
    """Cells of weight at most n, sorted, pivot cell (1, 1) first.

    Cached per family; callers must not mutate it.
    """
    n = family.n
    return [(i, j) for i in range(1, n) for j in range(1, n) if i + j + 1 <= n]


@lru_cache(maxsize=64)
def _counts_problem(family: Family) -> ConditioningProblem:
    """The family's row as a problem: c_i of weight i for each size i with m_i > 0.

    Cached per family (families are frozen, and so are problems), so
    repeated sampling does not rebuild the marginals' cdf tables.
    """
    law, mult_rule, tilt_rule, pivot, below_one = _ROWS[family.kind]
    n = _validate_size(family.n)
    # the family's own per-size parameter: its multiplicities, or Ewens's theta
    mult = mult_rule(n, getattr(family, "multiplicities", getattr(family, "theta", None)))
    x = tilt_rule(n, mult) if family.tilt is None else family.tilt
    if not 0.0 < x < math.inf:
        raise InvalidFamily(f"tilt must be positive and finite, got {x}")
    if below_one and not x < 1.0:
        raise InvalidFamily(f"{family.kind} needs a tilt in (0, 1), got {x}")
    sizes = tuple(i for i, m in enumerate(mult, start=1) if m)
    marginals = tuple(law(i, mult[i - 1], x) for i in sizes)
    return ConditioningProblem(
        marginals=marginals, weights=sizes, target=n, **pivot(family, n, marginals),
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


def build_problem(family: Family) -> ConditioningProblem:
    """The conditioning problem whose conditional law is the family's law.

    Every family but the grid has its row's problem.  The grid's is stated
    cell by cell, for the oracle: a cell of weight w is Geometric with the
    ratio x^w of its class, and the pivot is cell (1, 1).
    """
    problem = _counts_problem(family)
    if not isinstance(family, PlanePartitionGrid):
        return problem
    weights = tuple(i + j + 1 for i, j in grid_cells(family))
    return ConditioningProblem(
        marginals=tuple(Geometric(problem.marginals[w - 3].ratio) for w in weights),
        weights=weights, target=problem.target, index_set=(0,),
    )


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
    class sums (its row's problem) by the method, then splits them over
    its cells (``_split_classes``); its record's outcome is the grid's
    entries, and its ``rng_calls`` count the split's uniforms too.
    """
    grid = isinstance(family, PlanePartitionGrid)
    problem = _counts_problem(family) if grid else build_problem(family)
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
    n = _validate_size(n)
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

"""Exact laws at sizes no enumeration reaches: grid cells, and parts of the families of all three laws.

Every other law check of these families runs at n <= 10, through the
enumeration oracle.  Here the conditional law of one coordinate c of
weight w_c,

    P(Z_c = j | T = n)  is proportional to  P(Z_c = j) P(T_-c = n - w_c j),

is computed exactly from a convolution of the other coordinates, and dsh
draws at the default tilt are compared with it by a chi-squared test.
For the grid the cells are the pivot (1, 1) and its neighbours (1, 2)
and (2, 1), where the mass sits.  For the families on parts (Binomial,
NegativeBinomial and Poisson laws alike) they are Z_1, Z_2 and Z_3, with
the global part count K = sum_i Z_i, whose law P(K = k | T = n) is
proportional to P(T = n, K = k) from a 2-D convolution; one coordinate
is nearly blind to errors in the long tail of the first half, and K is
not.  The convolution reads each coordinate's masses from the family's
own problem, so it checks the draw, not the choice of marginals, which
the enumeration tests pin.  Partition(1600) is past what the 2-D
convolution affords, and its laws come from counting partitions instead:
given T = n the partition is uniform, so K = k has weight p(n, k), the
partitions of n into exactly k parts, and Z_i = j has weight
p(n - i j) - p(n - i (j + 1)), the partitions of n - i j with no part i.
There, at Partition(400) and (100) and at Multiset(100), the number D
of distinct part sizes, the nonzero coordinates the cell scan picks, is
checked too, and hard rejection at Partition(100) on all five.
DistinctPartition(100) is checked under hard rejection as well, on Z_1-Z_3
and K against the convolution.  Seeds, draw counts and the thresholds are
fixed here, before any run."""

from collections import Counter

import numpy as np
import pytest

from exactcond.marginals import CountingRng
from exactcond.structures import (
    Assembly,
    DistinctPartition,
    Multiset,
    Partition,
    PlanePartitionGrid,
    Selection,
    SetPartition,
    build_problem,
    grid_cells,
    sample_structure,
    solve_tilt,
)
from exactcond.verify import chi_squared_gof, enumerate_conditional

CELLS = ((1, 1), (1, 2), (2, 1))
# (n, draws, seed)
RUNS = ((30, 4000, 3001), (100, 1500, 3002), (400, 2000, 3003))
# p > 1e-3, Bonferroni-corrected over the nine (size, cell) tests
THRESHOLD = 1e-3 / (len(RUNS) * len(CELLS))


def rest_of_grid_law(n: int, x: float, skip_weight: int) -> np.ndarray:
    """P(T_-c = s) for s = 0..n, with one cell of weight ``skip_weight`` left out.

    The grid has w - 2 cells of weight w, each Geometric(x^w) with
    P(Z = k) = (1 - x^w) x^(w k); the m cells of one weight sum to a
    NegativeBinomial(m, x^w) count, and T_-c adds w times each count.
    """
    law = np.zeros(n + 1)
    law[0] = 1.0
    for w in range(3, n + 1):
        m = w - 2 - (w == skip_weight)
        if m == 0:
            continue
        r = x**w
        term = np.zeros(n + 1)
        p = (1.0 - r) ** m
        for k in range(n // w + 1):
            term[w * k] = p
            p *= r * (m + k) / (k + 1)
        law = np.convolve(law, term)[: n + 1]
    return law


def cell_law(n: int, x: float, cell) -> dict[int, float]:
    w = cell[0] + cell[1] + 1
    r = x**w
    rest = rest_of_grid_law(n, x, w)
    return {j: (1.0 - r) * r**j * rest[n - w * j] for j in range(n // w + 1)}


def test_the_cell_law_matches_the_enumeration_oracle():
    family = PlanePartitionGrid(9, tilt=0.6)
    exact = enumerate_conditional(build_problem(family))
    cells = grid_cells(family)
    for cell in CELLS:
        marginal = Counter()
        for outcome, prob in exact.probs.items():
            marginal[outcome[cells.index(cell)]] += prob
        law = cell_law(9, 0.6, cell)
        total = sum(law.values())
        assert {j: p / total for j, p in law.items() if p > 0.0} == pytest.approx(marginal)


@pytest.mark.parametrize("n, draws, seed", RUNS, ids=[f"n={n}" for n, _, _ in RUNS])
def test_grid_cell_laws_at_the_default_tilt(n, draws, seed):
    family = PlanePartitionGrid(n)
    x = solve_tilt("planegrid", n)
    rng = CountingRng(seed)
    counts = [Counter() for _ in CELLS]
    for _ in range(draws):
        value, _ = sample_structure(family, rng)
        drawn = {(i, j): z for i, j, z in value.entries}
        for tally, cell in zip(counts, CELLS):
            tally[drawn.get(cell, 0)] += 1
    for tally, cell in zip(counts, CELLS):
        _, _, p = chi_squared_gof(tally, cell_law(n, x, cell))
        assert p > THRESHOLD, f"cell {cell} at n={n}: p={p:.3g}"


# (family, draws, seed), each at its default tilt, solved from E[T] = n
PART_RUNS = (
    (DistinctPartition(100), 2000, 3101),
    (DistinctPartition(400), 1000, 3102),
    (Selection(60), 2000, 3103),
)
PART_STATS = ("Z1", "Z2", "Z3", "K")
# p > 1e-3, Bonferroni-corrected over the twelve (family, statistic) tests
PART_THRESHOLD = 1e-3 / (len(PART_RUNS) * len(PART_STATS))
# the Geometric, NegativeBinomial and Poisson families, each at its default tilt
LAW_RUNS = (
    (Partition(100), 3000, 3201),
    (Partition(400), 2000, 3202),
    (Multiset(100), 3000, 3203),
    (SetPartition(100), 3000, 3204),
    (Assembly(100), 3000, 3205),
)
# p > 1e-3, Bonferroni-corrected over these twenty (family, statistic) tests
LAW_THRESHOLD = 1e-3 / (len(LAW_RUNS) * len(PART_STATS))


def size_parts_law(problem, skip=None) -> np.ndarray:
    """P(T = s, K = k) for s = 0..n, with coordinate ``skip`` left out.

    Coordinate c of weight w_c adds w_c Z_c to T and Z_c to K, with the
    masses of its marginal's ``density``; K stops at the most parts a
    total of n holds, lightest coordinates first.
    """
    n = problem.target
    tops = [
        int(min(m.support_bounds()[1], n // w))
        for m, w in zip(problem.marginals, problem.weights)
    ]
    kmax, left = 0, n
    for top, w in zip(tops, problem.weights):
        take = min(top, left // w)
        kmax, left = kmax + take, left - w * take
    law = np.zeros((n + 1, kmax + 1))
    law[0, 0] = 1.0
    for c, (m, w, top) in enumerate(zip(problem.marginals, problem.weights, tops)):
        if c == skip:
            continue
        step = np.zeros_like(law)
        for j in range(min(top, kmax) + 1):
            step[w * j:, j:] += m.density(j) * law[: n + 1 - w * j, : kmax + 1 - j]
        law = step
    return law


def part_laws(family) -> dict[str, dict[int, float]]:
    """Unnormalised conditional laws of Z_1, Z_2, Z_3 and K given T = n."""
    problem = build_problem(family)
    n = problem.target
    laws = {"K": dict(enumerate(size_parts_law(problem)[n]))}
    for i in (1, 2, 3):
        rest = size_parts_law(problem, skip=i - 1).sum(axis=1)
        masses = [problem.marginals[i - 1].density(j) for j in range(n // i + 1)]
        laws[f"Z{i}"] = {j: q * rest[n - i * j] for j, q in enumerate(masses)}
    return laws


def part_stats(counts) -> dict[str, int]:
    return {"Z1": counts[0], "Z2": counts[1], "Z3": counts[2], "K": sum(counts)}


@pytest.mark.parametrize(
    "family",
    [
        DistinctPartition(10, tilt=0.7),
        Selection(9, multiplicities=(2, 1, 3, 1, 2, 1, 1, 2, 1), tilt=0.6),
        Partition(10, tilt=0.7),
        Multiset(8, multiplicities=(2, 1, 3, 1, 2, 1, 1, 2), tilt=0.6),
        SetPartition(9),
        Assembly(8, multiplicities=(2, 1, 3, 1, 2, 1, 1, 2)),
    ],
    ids=["distinct", "selection", "partition", "multiset", "setpartition", "assembly"],
)
def test_the_part_laws_match_the_enumeration_oracle(family):
    exact = enumerate_conditional(build_problem(family))
    laws = part_laws(family)
    for name, law in laws.items():
        marginal = Counter()
        for outcome, prob in exact.probs.items():
            marginal[part_stats(outcome)[name]] += prob
        total = sum(law.values())
        assert {j: p / total for j, p in law.items() if p > 0.0} == pytest.approx(marginal)


@pytest.mark.parametrize(
    "family, draws, seed", PART_RUNS, ids=[repr(f) for f, _, _ in PART_RUNS]
)
def test_part_laws_at_the_default_tilt(family, draws, seed):
    assert_part_laws(family, draws, seed, PART_THRESHOLD)


@pytest.mark.parametrize(
    "family, draws, seed", LAW_RUNS, ids=[repr(f) for f, _, _ in LAW_RUNS]
)
def test_negative_binomial_and_poisson_part_laws_at_the_default_tilt(family, draws, seed):
    assert_part_laws(family, draws, seed, LAW_THRESHOLD)


def assert_part_laws(family, draws, seed, threshold, method="dsh"):
    laws = part_laws(family)
    rng = CountingRng(seed)
    counts = {name: Counter() for name in PART_STATS}
    for _ in range(draws):
        value, _ = sample_structure(family, rng, method=method)
        for name, stat in part_stats(value.counts).items():
            counts[name][stat] += 1
    for name in PART_STATS:
        _, _, p = chi_squared_gof(counts[name], laws[name])
        assert p > threshold, f"{name} of {family!r} under {method}: p={p:.3g}"


# DistinctPartition(100) under hard rejection, whose full vectors the cell
# scan draws, every coordinate a hit cell; p > 1e-3, Bonferroni-corrected
# over its four statistics
HARD_PART_RUN = (DistinctPartition(100), 2000, 3211)


def test_distinct_part_laws_under_hard_rejection():
    family, draws, seed = HARD_PART_RUN
    assert_part_laws(family, draws, seed, 1e-3 / len(PART_STATS), method="hard")


def partition_counts(n: int) -> tuple[np.ndarray, np.ndarray]:
    """p(m) for m = 0..n, and p(n, k) for k = 0..n, as floats.

    p(m, k), the partitions of m into exactly k parts, is p(m - 1, k - 1)
    + p(m - k, k): the partitions with a part 1, and those whose k parts
    each lose 1.  One column over m per k; within a column m reads m - k,
    so it fills k rows at a time.
    """
    prev = np.zeros(n + 1)
    prev[0] = 1.0
    total = prev.copy()
    exact = np.zeros(n + 1)
    exact[0] = prev[n]
    for k in range(1, n + 1):
        col = np.zeros(n + 1)
        for lo in range(k, n + 1, k):
            hi = min(lo + k, n + 1)
            col[lo:hi] = prev[lo - 1:hi - 1] + col[lo - k:hi - k]
        total += col
        exact[k] = col[n]
        prev = col
    return total, exact


def distinct_size_counts(n: int) -> np.ndarray:
    """The partitions of n with exactly d distinct part sizes, for d = 0, 1, ..., as floats.

    Size i joins the partitions counted so far either not at all or j >= 1
    times, adding one distinct size; g[s] sums the counts at s - i j over
    j >= 1, so g[s] = counts[s - i] + g[s - i], filled i rows at a time.
    """
    most = int(((8 * n + 1) ** 0.5 - 1) / 2)  # 1 + 2 + ... + d <= n
    counts = np.zeros((n + 1, most + 1))
    counts[0, 0] = 1.0
    for i in range(1, n + 1):
        g = np.zeros_like(counts)
        for lo in range(i, n + 1, i):
            hi = min(lo + i, n + 1)
            g[lo:hi] = counts[lo - i:hi - i] + g[lo - i:hi - i]
        counts[:, 1:] += g[:, :-1]
    return counts[n]


def counted_part_laws(n: int) -> dict[str, dict[int, float]]:
    """Unnormalised laws of Z_1, Z_2, Z_3, K and D given T = n for a uniform partition of n."""
    p, by_parts = partition_counts(n)

    def below(m):
        return p[m] if m >= 0 else 0.0

    laws = {"K": dict(enumerate(by_parts)), "D": dict(enumerate(distinct_size_counts(n)))}
    for i in (1, 2, 3):
        laws[f"Z{i}"] = {j: below(n - i * j) - below(n - i * (j + 1)) for j in range(n // i + 1)}
    return laws


SCAN_STATS = PART_STATS + ("D",)


def scan_stats(counts) -> dict[str, int]:
    return dict(part_stats(counts), D=sum(1 for c in counts if c))


def test_the_counted_part_laws_match_the_convolution_and_the_oracle():
    counted = counted_part_laws(30)
    convolved = part_laws(Partition(30))
    for name in PART_STATS:
        want = convolved[name]
        got = {j: q for j, q in counted[name].items() if q > 0.0}
        assert {j: q / sum(got.values()) for j, q in got.items()} == pytest.approx(
            {j: q / sum(want.values()) for j, q in want.items() if q > 0.0}
        )
    exact = enumerate_conditional(build_problem(Partition(12)))
    for name, law in counted_part_laws(12).items():
        marginal = Counter()
        for outcome, prob in exact.probs.items():
            marginal[scan_stats(outcome)[name]] += prob
        total = sum(law.values())
        assert {j: q / total for j, q in law.items() if q > 0.0} == pytest.approx(marginal)


# Partition(1600) at its default tilt, where dsh draws the first half by
# the cell scan; p > 1e-3, Bonferroni-corrected over its five statistics
SCAN_RUN = (Partition(1600), 2000, 3206)
SCAN_THRESHOLD = 1e-3 / len(SCAN_STATS)


def test_partition_1600_part_laws_at_the_default_tilt():
    family, draws, seed = SCAN_RUN
    laws = counted_part_laws(family.n)
    rng = CountingRng(seed)
    counts = {name: Counter() for name in SCAN_STATS}
    for _ in range(draws):
        value, _ = sample_structure(family, rng)
        for name, stat in scan_stats(value.counts).items():
            counts[name][stat] += 1
    for name in SCAN_STATS:
        _, _, p = chi_squared_gof(counts[name], laws[name])
        assert p > SCAN_THRESHOLD, f"{name} of {family!r}: p={p:.3g}"


# Partition(400), another size whose dsh first halves the cell scan draws:
# its Z_1-Z_3 and K are checked above, D here; p > 1e-3
DISTINCT_RUN = (Partition(400), 2000, 3207)


def test_partition_400_distinct_part_sizes_at_the_default_tilt():
    family, draws, seed = DISTINCT_RUN
    rng = CountingRng(seed)
    counts = Counter(
        sum(1 for c in sample_structure(family, rng)[0].counts if c) for _ in range(draws)
    )
    _, _, p = chi_squared_gof(counts, dict(enumerate(distinct_size_counts(family.n))))
    assert p > 1e-3, f"D of {family!r}: p={p:.3g}"


# n = 100, where the cell scan draws the dsh first halves of Partition and
# Multiset and hard Partition's full vectors: D under dsh, and all five
# statistics under hard rejection, against the partition counts (given
# T = n both families are uniform partitions); p > 1e-3,
# Bonferroni-corrected over the seven tests
CELL_RUNS = (
    (Partition(100), "dsh", ("D",), 3000, 3208),
    (Multiset(100), "dsh", ("D",), 3000, 3209),
    (Partition(100), "hard", SCAN_STATS, 2000, 3210),
)
CELL_THRESHOLD = 1e-3 / sum(len(stats) for _, _, stats, _, _ in CELL_RUNS)


@pytest.mark.parametrize(
    "family, method, stats, draws, seed", CELL_RUNS,
    ids=[f"{f!r}-{m}" for f, m, _, _, _ in CELL_RUNS],
)
def test_part_laws_at_n_100_with_distinct_sizes_and_hard_rejection(family, method, stats, draws, seed):
    laws = counted_part_laws(family.n)
    rng = CountingRng(seed)
    counts = {name: Counter() for name in stats}
    for _ in range(draws):
        value, _ = sample_structure(family, rng, method=method)
        got = scan_stats(value.counts)
        for name in stats:
            counts[name][got[name]] += 1
    for name in stats:
        _, _, p = chi_squared_gof(counts[name], laws[name])
        assert p > CELL_THRESHOLD, f"{name} of {family!r} under {method}: p={p:.3g}"

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
the enumeration tests pin.  Seeds, draw counts and the thresholds are
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


def assert_part_laws(family, draws, seed, threshold):
    laws = part_laws(family)
    rng = CountingRng(seed)
    counts = {name: Counter() for name in PART_STATS}
    for _ in range(draws):
        value, _ = sample_structure(family, rng)
        for name, stat in part_stats(value.counts).items():
            counts[name][stat] += 1
    for name in PART_STATS:
        _, _, p = chi_squared_gof(counts[name], laws[name])
        assert p > threshold, f"{name} of {family!r}: p={p:.3g}"

"""Exact single-cell laws of the plane grid at sizes no enumeration reaches.

Every other law check of the grid runs at n <= 8, through the enumeration
oracle, where no cell is heavier than 8.  Here the conditional law of one
cell c of weight w_c,

    P(Z_c = j | T = n)  is proportional to  P(Z_c = j) P(T_-c = n - w_c j),

is computed exactly from a convolution of the other cells, grouped by
weight, and dsh draws at the default tilt are compared with it by a
chi-squared test.  The cells are the pivot (1, 1) and its neighbours
(1, 2) and (2, 1), where the mass sits.  Seeds, draw counts and the
threshold are fixed here, before any run.
"""

from collections import Counter

import numpy as np
import pytest

from exactcond.marginals import CountingRng
from exactcond.structures import (
    PlanePartitionGrid,
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

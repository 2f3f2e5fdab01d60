"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single pass/FAIL line so a log scan shows the whole
scorecard.  Tolerances are fixed here on purpose; seeds are frozen so a
failure is a regression, not noise.
"""

import io
import math
from contextlib import redirect_stdout

import pytest

from exactcond.cli import main
from exactcond.engine import dsh_sample, hard_rejection_sample
from exactcond.geometry import (
    borel_conditional_sample,
    rado_check,
    sample_exponential_sum,
    sample_hypersimplex,
    sample_permutahedron,
    uniform_spacings,
)
from exactcond.marginals import CountingRng, derive_seed
from exactcond.structures import (
    DistinctPartition,
    EwensProfile,
    Multiset,
    Partition,
    PlanePartitionGrid,
    Selection,
    SetPartition,
    build_problem,
    feller_permutation_cycles,
    outcome_counts,
    sample_structure,
)
from exactcond.verify import (
    chi_squared_gof,
    enumerate_conditional,
    ks_statistic,
    ks_two_sample,
    tv_distance,
)

# e^(-pi/sqrt(6n)) puts the partition target at the mode of T; the grid
# analogue below is solved from E[T] = n directly because the cube-root
# formula only settles in at much larger n than these
GRID_SADDLE_TILT = {100: 0.774129, 400: 0.845212, 1600: 0.896798}


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    extra = f" {detail}" if detail else ""
    print(f"criterion {num} ({name}):{extra} {'pass' if ok else 'FAIL'}")


def sampled_counts(family, method: str, trials: int, seed: int) -> dict:
    rng = CountingRng(seed)
    return outcome_counts(
        family, (sample_structure(family, rng, method=method)[0] for _ in range(trials))
    )


def gof_p_value(family, method: str, trials: int, seed: int) -> float:
    exact = enumerate_conditional(build_problem(family))
    counts = sampled_counts(family, method, trials, seed)
    expected = {k: exact.prob(k) * trials for k in exact.support()}
    _stat, _dof, p = chi_squared_gof(counts, expected)
    return p


def accept_rate(problem, method: str, accepts: int, seed: int) -> float:
    sampler = hard_rejection_sample if method == "hard" else dsh_sample
    rng = CountingRng(seed)
    attempts = 0
    for _ in range(accepts):
        attempts += sampler(problem, rng).attempts
    return accepts / attempts


def test_partition_uniformity():
    worst = 1.0
    for n, cells in ((4, 5), (6, 11), (8, 22)):
        exact = enumerate_conditional(build_problem(Partition(n)))
        assert len(exact.support()) == cells
        assert max(abs(v - 1.0 / cells) for v in exact.probs.values()) < 1e-12
        trials = 1000 * cells
        counts = sampled_counts(Partition(n), "dsh", trials, derive_seed(101, n))
        _s, _d, p = chi_squared_gof(counts, {k: trials / cells for k in exact.support()})
        worst = min(worst, p)
    ok = worst > 1e-3
    report(1, "partition uniformity", ok, f"min_p={worst:.4f}")
    assert ok


def test_hard_rejection_hit_rate():
    problem = build_problem(Partition(100))
    rng = CountingRng(102)
    accepted = 0
    attempts = 0
    while attempts < 10**6:
        attempts += hard_rejection_sample(problem, rng).attempts
        accepted += 1
    rate = accepted / attempts
    ok = abs(rate - 0.0101) <= 0.35 * 0.0101
    report(2, "hard rejection hit rate", ok, f"rate={rate:.5f}")
    assert ok


def test_dsh_speedup_growth():
    hard_accepts = {25: 1000, 100: 600, 400: 300}
    dsh_accepts = {25: 2000, 100: 1500, 400: 1000}
    ratios = {}
    for n in (25, 100, 400):
        problem = build_problem(Partition(n))
        r_hard = accept_rate(problem, "hard", hard_accepts[n], derive_seed(103, 2 * n))
        r_dsh = accept_rate(problem, "dsh", dsh_accepts[n], derive_seed(103, 2 * n + 1))
        ratios[n] = r_dsh / r_hard
    x = math.exp(-math.pi / math.sqrt(600.0))
    predicted = 1.0 / (1.0 - x)
    ok_level = abs(ratios[100] - predicted) <= 0.30 * predicted
    growth = ratios[400] / ratios[25]
    ok_growth = 2.8 <= growth <= 5.7
    ok = ok_level and ok_growth
    report(3, "dsh speedup", ok, f"ratio100={ratios[100]:.2f} growth={growth:.2f}")
    assert ok


ORACLE_INSTANCES = (
    Partition(4),
    Partition(6),
    Partition(8),
    DistinctPartition(6, tilt=0.82),
    DistinctPartition(8, tilt=0.80),
    Selection(5, multiplicities=(2, 2, 1, 1, 1)),
    Multiset(5, multiplicities=(2, 1, 1, 1, 1)),
    SetPartition(5),
    PlanePartitionGrid(5, tilt=0.60),
    EwensProfile(4, blocks=2),
)


@pytest.mark.slow
def test_oracle_equivalence_suite():
    ewens = enumerate_conditional(build_problem(EwensProfile(4, blocks=2)))
    assert ewens.prob((1, 0, 1, 0)) == pytest.approx(8 / 11, abs=1e-12)
    assert ewens.prob((0, 2, 0, 0)) == pytest.approx(3 / 11, abs=1e-12)

    # seeds skip every third index, where a retired third method ran, so
    # each remaining combo keeps its frozen seed
    worst = 1.0
    combo = 0
    for family_index, family in enumerate(ORACLE_INSTANCES):
        for method_index, method in enumerate(("hard", "dsh")):
            seed = derive_seed(104, 3 * family_index + method_index)
            p = gof_p_value(family, method, 10**5, seed)
            worst = min(worst, p)
            combo += 1
    ok = worst > 1e-3
    report(4, "oracle equivalence suite", ok, f"combos={combo} min_p={worst:.4f}")
    assert ok


def test_tilt_invariance():
    low = enumerate_conditional(build_problem(Partition(6, tilt=0.3)))
    high = enumerate_conditional(build_problem(Partition(6, tilt=0.7)))
    tv = tv_distance(low, high)
    ok = tv < 1e-9
    report(5, "tilt invariance", ok, f"tv={tv:.2e}")
    assert ok


def test_exponential_sum_matches_spacings():
    rng = CountingRng(106)
    firsts = []
    for _ in range(10**5):
        out, _rec = sample_exponential_sum((1.0, 1.0, 1.0), 1.0, rng)
        assert math.fsum(out) == pytest.approx(1.0, abs=1e-9)
        firsts.append(out[0])
    gaps = [uniform_spacings(2, rng)[0] for _ in range(10**5)]
    _d, p = ks_two_sample(firsts, gaps)
    ok = p > 1e-3
    report(6, "exponential sum vs spacings", ok, f"p={p:.4f}")
    assert ok


def test_hypersimplex_acceptance():
    rng = CountingRng(107)
    attempts = 0
    calls = 0
    for _ in range(10**5):
        _pt, rec = sample_hypersimplex(3, 1.5, rng)
        attempts += rec.attempts
        calls += rec.rng_calls
    rate = 10**5 / attempts
    ok = abs(rate - 0.75) <= 0.01 and calls == 2 * attempts
    report(7, "hypersimplex acceptance", ok, f"rate={rate:.4f} aux_draws={calls - 2 * attempts}")
    assert ok


def _borel_cdf(variant: int):
    if variant == 1:
        return lambda v: 0.5 * (1.0 + math.erf(v))
    if variant == 2:
        def cdf(v):
            if v < 0.0:
                return 0.5 * math.exp(-v * v)
            return 1.0 - 0.5 * math.exp(-v * v)
        return cdf
    return lambda v: 0.5 * (1.0 + math.erf(v / math.sqrt(2.0)))


def test_borel_variants_obey_their_own_laws():
    draws = {}
    worst = 1.0
    for variant in (1, 2, 3):
        rng = CountingRng(derive_seed(108, variant))
        draws[variant] = [
            borel_conditional_sample(variant, rng)[0] for _ in range(10**5)
        ]
        _d, p = ks_statistic(draws[variant], _borel_cdf(variant))
        worst = min(worst, p)
    ok = worst > 1e-3
    max_cross = 0.0
    for a, b in ((1, 2), (1, 3), (2, 3)):
        _d, p = ks_two_sample(draws[a], draws[b])
        max_cross = max(max_cross, p)
    ok = ok and max_cross < 1e-6
    report(8, "conditioning carrier separation", ok, f"min_p={worst:.4f} max_cross_p={max_cross:.2e}")
    assert ok


def test_permutahedron_membership():
    rng = CountingRng(109)
    ok = True
    for _ in range(10**4):
        pt, _rec = sample_permutahedron(4, rng)
        if not rado_check(pt) or math.fsum(pt) != 10.0:
            ok = False
            break
    ok = ok and not rado_check((4.0, 4.0, 1.0, 1.0))
    report(9, "permutahedron membership", ok)
    assert ok


def test_feller_coupling_law():
    rng = CountingRng(110)
    trials = 10**5
    counts: dict = {}
    for _ in range(trials):
        profile, _rec = feller_permutation_cycles(3, rng)
        counts[profile.counts] = counts.get(profile.counts, 0) + 1
    expected = {
        (3, 0, 0): trials / 6,
        (1, 1, 0): trials / 2,
        (0, 0, 1): trials / 3,
    }
    _s, _d, p = chi_squared_gof(counts, expected)
    ok = p > 1e-3 and rng.calls == 3 * trials
    report(10, "feller coupling", ok, f"p={p:.4f} calls_per_draw={rng.calls / trials:g}")
    assert ok


@pytest.mark.slow
def test_plane_grid_speedup_growth():
    exact = enumerate_conditional(build_problem(PlanePartitionGrid(5, tilt=0.60)))
    assert len(exact.support()) == 3
    assert max(abs(v - 1 / 3) for v in exact.probs.values()) < 1e-12

    hard_accepts = {100: 500, 400: 400, 1600: 300}
    dsh_accepts = {100: 1500, 400: 1200, 1600: 800}
    ratios = []
    for idx, n in enumerate((100, 400, 1600)):
        problem = build_problem(PlanePartitionGrid(n, tilt=GRID_SADDLE_TILT[n]))
        r_hard = accept_rate(problem, "hard", hard_accepts[n], derive_seed(111, 2 * idx))
        r_dsh = accept_rate(problem, "dsh", dsh_accepts[n], derive_seed(111, 2 * idx + 1))
        ratios.append(r_dsh / r_hard)
    ok = ratios[0] < ratios[1] < ratios[2]
    report(
        11,
        "plane grid speedup growth",
        ok,
        "ratios=" + "/".join(f"{r:.2f}" for r in ratios),
    )
    assert ok


def _cli_stdout(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    return buf.getvalue()


def test_cli_determinism():
    commands = (
        ["sample", "partition", "--n", "30", "--count", "5", "--seed", "12"],
        ["sample", "hypersimplex", "--n", "4", "--k", "2.0", "--count", "3",
         "--seed", "12", "--format", "csv"],
        ["benchmark", "partition", "--n", "10", "--trials", "100", "--seed", "12"],
        ["benchmark", "partition", "--n", "10", "--trials", "100", "--seed", "12",
         "--jobs", "2"],
        ["verify", "partition", "--n", "6", "--trials", "3000", "--seed", "12"],
    )
    ok = all(_cli_stdout(list(argv)) == _cli_stdout(list(argv)) for argv in commands)
    report(12, "cli determinism", ok, f"subcommands={len(commands)}")
    assert ok

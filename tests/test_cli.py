import concurrent.futures
import hashlib
import json
import math
import re
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

import exactcond
from exactcond import cli
from exactcond.cli import fmt, main
from exactcond.engine import (
    DEFAULT_MAX_ATTEMPTS,
    ConditioningProblem,
    SampleRecord,
    SecondConstraint,
    dsh_sample,
    hard_rejection_sample,
)
from exactcond.errors import NonTerminating
from exactcond.geometry import (
    IntervalUnion,
    borel_conditional_sample,
    feller_polytope_sample,
    sample_beta_sum,
    sample_exponential_sum,
    sample_hypersimplex,
    sample_permutahedron,
    sample_sphere_surface,
)
from exactcond.marginals import (
    AbsWeightedGaussian,
    Bernoulli,
    Binomial,
    CountingRng,
    Exponential,
    Geometric,
    Normal,
    Poisson,
    SignedUnit,
    UniformInt,
    UniformReal,
)
from exactcond.structures import (
    Assembly,
    DistinctPartition,
    EwensProfile,
    MultiplicityVector,
    Multiset,
    Partition,
    PlanePartitionGrid,
    Selection,
    SetPartition,
    feller_permutation_cycles,
    materialize_set_partition,
    sample_structure,
    small_ball_sample,
)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fmt_values():
    assert fmt(True) == "true"
    assert fmt(None) == "null"
    assert fmt(3) == "3"
    assert fmt(0.1) == "0.1"
    assert fmt(1 / 3) == "0.333333333333"
    assert fmt([1, 2.5, "a"]) == '[1,2.5,"a"]'
    with pytest.raises(ValueError):
        fmt(float("nan"))


def test_sample_partition_jsonl(capsys):
    code, out, _ = run_cli(["sample", "partition", "--n", "50", "--count", "3"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    for index, line in enumerate(lines):
        rec = json.loads(line)
        assert rec["schema"] == 1
        assert rec["family"] == "partition"
        assert rec["n"] == 50
        assert rec["seed"] == 1729
        assert rec["index"] == index
        counts = rec["outcome"]
        assert len(counts) == 50
        assert sum((i + 1) * c for i, c in enumerate(counts)) == 50
        assert rec["attempts"] >= 1
        assert rec["rng_calls"] >= 1


def test_sample_is_deterministic(capsys):
    argv = ["sample", "distinct", "--n", "20", "--count", "4", "--seed", "5"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second
    _, other, _ = run_cli(argv[:-1] + ["6"], capsys)
    assert other != first


def test_sample_hypersimplex_sums(capsys):
    code, out, _ = run_cli(
        ["sample", "hypersimplex", "--n", "4", "--k", "2.5", "--count", "5"], capsys
    )
    assert code == 0
    for line in out.strip().split("\n"):
        pt = json.loads(line)["outcome"]
        assert len(pt) == 4
        assert all(0.0 <= v <= 1.0 for v in pt)
        assert math.fsum(pt) == pytest.approx(2.5, abs=1e-9)


def test_sample_permutahedron_and_borel(capsys):
    code, out, _ = run_cli(
        ["sample", "permutahedron", "--n", "4", "--count", "2"], capsys
    )
    assert code == 0
    for line in out.strip().split("\n"):
        pt = json.loads(line)["outcome"]
        assert len(pt) == 4
        assert math.fsum(pt) == pytest.approx(10.0, abs=1e-9)
        assert min(pt) >= 1.0 - 1e-9 and max(pt) <= 4.0 + 1e-9
    code, out, _ = run_cli(["sample", "borel", "--variant", "2", "--count", "2"], capsys)
    assert code == 0
    for line in out.strip().split("\n"):
        assert isinstance(json.loads(line)["outcome"], float)


# sha256 of the stdout of fixed-seed runs.  A change to any first-half
# drawer, completion or output format that moves a byte shows up here,
# not only as a mismatch between a run and its rerun.
PINNED_STDOUT = [
    ("sample partition --n 30 --count 5 --seed 12",
     "46e1ba42c26a1186a76f18fe5045e3f9b51440fe2ada18cc84996a7dbffeb638"),
    ("sample partition --n 30 --count 5 --seed 12 --method hard",
     "6d2ec924d3ad7088bfd5d98910f9dbe1d0c7bc4e5f2818769b8b536e4e286288"),
    # distinct parts and selections pin their former default tilt,
    # exp(-pi / sqrt(6 n)), beside one pin at today's, from E[T] = n
    ("sample distinct --n 20 --count 4 --seed 5 --tilt 0.7506717095972585",
     "17903695206afa98813de1102cf693b9e52b272854a33eee04b880ed411fbbb6"),
    ("sample distinct --n 40 --count 3 --seed 5 --format csv",
     "262dc3eeb850081a48b7b0617c4d398b23e153fe43bee6d7f3c63bf5188d957a"),
    ("sample hypersimplex --n 4 --k 2.5 --count 5",
     "05024d2cb5780634e83aa48242e5ac63264902471486d267cde79b20c6639004"),
    ("sample permutahedron --n 4 --count 2",
     "107630a67b6613235b496eb51fe5d59f21e66de9dca1c171baa1ee04bf47014a"),
    ("sample borel --variant 2 --count 3 --format csv",
     "d73280d8c6d906c749edd1c3fbe57f272069fac6ddf2c514ce166f4881779bd7"),
    # the grid pins its former default tilt, 1 - (2 zeta(3) / n)^(1/3)
    ("sample planegrid --n 12 --count 3 --format csv --tilt 0.41486250856957296",
     "729de82d2b1e7c7933d077b801b51baea836443bb286d84a552efa48c4de0da2"),
    ("sample planegrid --n 30 --count 3 --format csv",
     "f1d17b5c7f4d4c40a68eb51c89c8742683eeb2ad876e1272bf867f942279c011"),
    ("sample ewens --n 10 --k 3 --count 3 --format csv",
     "ae70b8049b0ba757e77d66684b0a757471066504cc99e3d92558aaf80eec72b7"),
    ("benchmark partition --n 10 --trials 100 --seed 12 --format jsonl",
     "aba8759c90d65a5226e08bf8454407d0be2275ee2699171515a602b38588939a"),
    ("benchmark partition --n 10,20 --trials 100 --seed 12",
     "6ffd924904f4a3d075f3bc0272ca0190003d8c2d6d80aba308f0392a66d1f46c"),
    ("benchmark partition --n 10 --trials 120 --jobs 2 --seed 3",
     "6e535ee84d085b3dffe0022f7fa4635beb6218fc1521790c539c84e49a7823bd"),
    ("sample selection --n 8 --multiplicities 3,2,1,4,1,2,1,1 --count 3 --seed 4"
     " --tilt 0.635432225819598",
     "27b3aeb8fd0e0f5d2ae20f35d835e45b867a5c962eab408f53a04439d2f329a2"),
    # dsh alone: the hard baseline is drawn under its own seed
    ("benchmark partition --n 10 --methods dsh --trials 100 --seed 12",
     "ea89b9cc1482b1250a08ea18ee0121e785502ead99bc73905e4b853c491a7119"),
    # verify lines print a chi-squared or Kolmogorov p-value to 12 digits;
    # these digests were taken when scipy computed those tails
    ("verify partition --n 8 --trials 2000",
     "fad78dbf8a7001fd5e7a93657f29fb6c2b288e7ce326111f92adb7c2b7c71666"),
    ("verify ewens --n 6 --k 3 --trials 2000",
     "a4abee4e1b7ef255c44bd877c7756d7b5725c7dc66a3df0825bb0beb3ab33f07"),
    ("verify setpartition --n 6 --trials 1000",
     "9742b60e98e4959a1e4393c063ac8abf3b33f372f5b26f300e8d922e9a181db1"),
    ("verify borel --variant 1 --trials 2000",
     "8f745523936f8281764d9117bdeb1dd587a2b245370cfde8960fa901c4654af7"),
    ("verify borel --variant 2 --trials 2000",
     "7e13ac5ed0cda54d9eb560d3ababb435f5e525e2e193e21c5900c7b0f3fcd836"),
]


@pytest.mark.parametrize("command, digest", PINNED_STDOUT, ids=[c for c, _ in PINNED_STDOUT])
def test_fixed_seed_stdout_is_pinned(command, digest, capsys):
    code, out, _ = run_cli(command.split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


PIN_MULT = (3, 2, 1, 4, 1, 2, 1, 1)


def former_tilt(n: int) -> float:
    # the default tilt of distinct parts and selections before they solved
    # E[T] = n; their pins in the groups below draw at it
    return math.exp(-math.pi / math.sqrt(6.0 * n))


def _user_problem(marginals, weights, target, pivots, second=None):
    return ConditioningProblem(
        marginals=tuple(marginals), weights=tuple(weights), target=target,
        index_set=pivots, second=second,
    )


def _family_samplers():
    # the grid's pins live in _grid_samplers and _grid_default_samplers
    families = [
        Partition(12), DistinctPartition(12, tilt=former_tilt(12)),
        Selection(10, tilt=former_tilt(10)), Multiset(10), Assembly(10),
        SetPartition(10), EwensProfile(8, 3),
        Selection(8, multiplicities=PIN_MULT, tilt=former_tilt(8)),
        Multiset(8, multiplicities=PIN_MULT),
        Assembly(8, multiplicities=PIN_MULT),
    ]
    for family in families:
        for method in ("dsh", "hard"):
            for cap in (DEFAULT_MAX_ATTEMPTS, 2):
                yield partial(sample_structure, family, method=method, max_attempts=cap)
    yield partial(feller_permutation_cycles, 8)
    yield partial(materialize_set_partition, MultiplicityVector((2, 1, 1)))


def _geometry_samplers():
    for cap in (DEFAULT_MAX_ATTEMPTS, 2):
        yield partial(sample_exponential_sum, [1.0] * 4, 2.0, max_attempts=cap)
        yield partial(sample_exponential_sum, [0.5, 1.0, 2.0], 1.5, pivot=2, max_attempts=cap)
        yield partial(sample_beta_sum, [2.0] * 3, [2.0] * 3, 1.5, max_attempts=cap)
        yield partial(sample_beta_sum, [1.0, 2.0, 3.0], [1.0, 2.0, 1.5], 1.2, max_attempts=cap)
        yield partial(sample_sphere_surface, AbsWeightedGaussian(), 4, 2.0, max_attempts=cap)
        yield partial(sample_hypersimplex, 4, 1.5, max_attempts=cap)
        yield partial(sample_hypersimplex, 3, 2.5, max_attempts=cap)
        yield partial(
            small_ball_sample, (1.0,) * 8, IntervalUnion.open(1.5, 2.5), 0, max_attempts=cap
        )
        for variant in (1, 2, 3):
            yield partial(borel_conditional_sample, variant, max_attempts=cap)
    yield partial(sample_permutahedron, 5)
    yield partial(sample_permutahedron, 4)
    yield partial(feller_polytope_sample, ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))


def _engine_samplers(problems, hard=True):
    for problem in problems:
        for cap in (DEFAULT_MAX_ATTEMPTS, 2):
            yield partial(dsh_sample, problem, max_attempts=cap)
            if hard and problem.is_discrete():
                yield partial(hard_rejection_sample, problem, max_attempts=cap)


def _user_built_samplers():
    geo, poi, exp = Geometric, Poisson, Exponential
    two = SecondConstraint(coeffs=(1, 1, 1, 1), target=2)
    return _engine_samplers([
        _user_problem((geo(0.5), geo(0.25), geo(0.7)), (1, 2, 1), 4, (0,)),
        _user_problem((geo(0.5), geo(0.5), geo(0.5)), (2, 1, 3), 10, (0,)),
        _user_problem((poi(1.0), poi(2.0), poi(0.5)), (1, 1, 2), 4, (1,)),
        _user_problem((geo(0.5), Bernoulli(0.3), poi(1.5)), (1, 2, 1), 3, (0,)),
        _user_problem((poi(1.0), poi(0.5), poi(0.4), poi(0.2)), (1, 2, 3, 4), 5, (0, 1), two),
        _user_problem((UniformReal(0.0, 1.0),) * 4, (1.0,) * 4, 1.5, (0,)),
        _user_problem((UniformReal(0.0, 2.0),) * 3, (1.0, 0.5, 2.0), 2.0, (1,)),
        _user_problem((exp(1.0),) * 3, (1.0, 2.0, 0.5), 1.0, (0,)),
        _user_problem(
            (exp(1.0),) * 4, (1.0,) * 4, 2.0, (0, 1),
            SecondConstraint(coeffs=(1.0, 2.0, 3.0, 4.0), target=5.0),
        ),
        _user_problem((Normal(0.0, 1.0),) * 3, (1.0,) * 3, 0.5, (0,)),
    ])


def _flat_integer_pivot_samplers():
    return _engine_samplers([
        _user_problem((UniformInt(0, 3), Geometric(0.5), Geometric(0.5)), (1, 1, 1), 3, (0,)),
        _user_problem((SignedUnit(),) * 5, (1,) * 5, 1, (0,)),
        _user_problem((UniformInt(1, 6),) * 4, (1,) * 4, 12, (2,)),
    ], hard=False)


def _batched_samplers():
    # dead-heavy problems whose runs of dead attempts are drawn in batches
    # (integer sums under one and two constraints, and real sums through
    # the hypersimplex at level 2.5), and two slices with short dead runs;
    # hard rejection and the flat slices draw nothing in their step, so
    # their runs go on across the draws on one rng; caps 37 and 200 cut
    # runs short, so what NonTerminating reports is pinned too
    caps = (DEFAULT_MAX_ATTEMPTS, 37, 200)
    bits = _user_problem(
        (Bernoulli(0.3),) * 10, range(1, 11), 20, (0, 1),
        SecondConstraint(coeffs=(1,) * 10, target=4),
    )
    for cap in caps:
        for method, engine in (("dsh", dsh_sample), ("hard", hard_rejection_sample)):
            yield partial(
                sample_structure, DistinctPartition(100, tilt=former_tilt(100)),
                method=method, max_attempts=cap,
            )
            yield partial(engine, bits, max_attempts=cap)
        yield partial(sample_structure, Partition(100), method="hard", max_attempts=cap)
        yield partial(sample_hypersimplex, 10, 5.0, max_attempts=cap)
        yield partial(sample_hypersimplex, 10, 2.5, max_attempts=cap)
        yield partial(sample_permutahedron, 8, max_attempts=cap)


def _batched_table_samplers():
    # dead-heavy cdf-table families whose dead runs are drawn in batches:
    # Selection (one-entry Binomial tables), Ewens (two constraints),
    # SetPartition(100) and Assembly(100); SetPartition(400) (154 zero-rate
    # coordinates with empty tables) and Multiset(100) hold more table
    # entries than one batch may compare, so they draw one attempt at a
    # time, and a user-built problem batches four empty tables among
    # one-entry ones; caps 37 and 200 cut runs short, so what
    # NonTerminating reports is pinned too
    families = (
        Selection(60, tilt=former_tilt(60)), EwensProfile(50, 5), SetPartition(100),
        SetPartition(400), Assembly(100), Multiset(100),
    )
    empties = _user_problem(
        (Binomial(1, 0.5),) * 12 + (Poisson(0.0),) * 4, range(1, 17), 20, (0,)
    )
    for cap in (DEFAULT_MAX_ATTEMPTS, 37, 200):
        for family in families:
            for method in ("dsh", "hard"):
                yield partial(sample_structure, family, method=method, max_attempts=cap)
        yield partial(dsh_sample, empties, max_attempts=cap)
        yield partial(hard_rejection_sample, empties, max_attempts=cap)


def _grid_samplers():
    # the grid at its former default tilt, 1 - (2 zeta(3) / n)^(1/3), as
    # a small family under both methods and caps, and at n = 30 uncapped
    # and capped at 37 and 200; _grid_default_samplers draws today's tilt
    family = PlanePartitionGrid(8, tilt=0.330184779707662)
    for method in ("dsh", "hard"):
        for cap in (DEFAULT_MAX_ATTEMPTS, 2):
            yield partial(sample_structure, family, method=method, max_attempts=cap)
    for cap in (DEFAULT_MAX_ATTEMPTS, 37, 200):
        yield partial(
            sample_structure, PlanePartitionGrid(30, tilt=0.5688670101069775),
            max_attempts=cap,
        )


def _grid_default_samplers():
    # the grid at its default tilt, solved from E[T] = n
    for n in (3, 8, 30):
        for method in ("dsh", "hard"):
            for cap in (DEFAULT_MAX_ATTEMPTS, 37):
                yield partial(
                    sample_structure, PlanePartitionGrid(n), method=method, max_attempts=cap
                )


def _bernoulli_default_samplers():
    # distinct parts and selections at their default tilt, solved from E[T] = n
    families = (
        DistinctPartition(12), DistinctPartition(100), Selection(10), Selection(60),
        Selection(8, multiplicities=PIN_MULT),
    )
    for family in families:
        for method in ("dsh", "hard"):
            for cap in (DEFAULT_MAX_ATTEMPTS, 37):
                yield partial(sample_structure, family, method=method, max_attempts=cap)


def library_digest(samplers) -> str:
    """sha256 over (outcome, attempts, rng_calls) of three draws at seeds 1-4 per sampler.

    A draw that exhausts its attempt cap contributes the counts its
    NonTerminating reports.
    """
    rows = []
    for sampler in samplers:
        for seed in range(1, 5):
            rng = CountingRng(seed)
            for _ in range(3):
                try:
                    got = sampler(rng=rng)
                except NonTerminating as err:
                    rows.append(("gave up", err.attempts, err.rng_calls))
                    continue
                rec = got if isinstance(got, SampleRecord) else got[1]
                rows.append((rec.outcome, rec.attempts, rec.rng_calls))
    return hashlib.sha256("\n".join(map(repr, rows)).encode()).hexdigest()


# Library outputs at fixed seeds.  Every family under dsh and hard, every
# geometry sampler, and user-built problems (integer, float-weighted,
# two-constraint and continuous pivots) keep the same draws and costs.  A
# UniformInt or SignedUnit pivot is flat, so it spends no acceptance
# uniform: those draws equal the flat-pivot engine's.
PINNED_LIBRARY = [
    ("families", _family_samplers,
     "33e2df7b9eeecc50434f77eb3839e34d89156ed30de9f702ac3cacada0332c80"),
    ("geometry", _geometry_samplers,
     "4e4112a1e2d7b20c1d042f1dd78f21f7fcf47224a5f9a612ab73796e66e3e0e1"),
    ("user-built", _user_built_samplers,
     "8929f186f10ea97ce3954a1774b659c421f48ac54c104c7132ec8fb195432695"),
    ("flat-integer-pivots", _flat_integer_pivot_samplers,
     "01da51651f9419e64e9fa9e013c83ad6ab18e517543b8d6db1cf002f92b3514f"),
    ("batched", _batched_samplers,
     "ca76fc9f0d5fca0fc9c10e656634202a0761bb66f762eaf7458834ce7f9182f7"),
    ("batched-tables", _batched_table_samplers,
     "9810debe9df151f83226832611f5f8b897dd83e7099ff339827fc80fde6f03b5"),
    ("grid", _grid_samplers,
     "8db6394e960981dcc90334312a577369f4fda514f4503248d6125c76b40cc958"),
    ("grid-default", _grid_default_samplers,
     "7fc904b0ec5d4f582ca3cbae4804f3538a83484f969c0776d819b059d821e313"),
    ("bernoulli-default", _bernoulli_default_samplers,
     "25f260c39380bcb8ad6d6c0f83eace214d7e29d6c0dbfa244ea4d712794a4d83"),
]


@pytest.mark.parametrize(
    "group, samplers, digest", PINNED_LIBRARY, ids=[g for g, _, _ in PINNED_LIBRARY]
)
def test_fixed_seed_library_outputs_are_pinned(group, samplers, digest):
    assert library_digest(samplers()) == digest


def test_sample_csv_layout(capsys):
    code, out, _ = run_cli(
        ["sample", "partition", "--n", "10", "--count", "2", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "schema,family,n,seed,index,outcome,attempts,rng_calls"
    assert len(lines) == 3
    for row in lines[1:]:
        assert row.startswith("1,partition,10,1729,")
        assert '"[' in row


def test_uniform_method_needs_flat_pivot(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "partition", "--n", "10", "--method", "uniform"])
    assert exc.value.code == 2
    assert "uniform" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        pytest.param(["sample", "hypersimplex"], id="hypersimplex"),
        pytest.param(["sample", "permutahedron"], id="permutahedron"),
        pytest.param(["sample", "borel"], id="borel"),
        pytest.param(["verify", "borel"], id="verify-borel"),
    ],
)
def test_method_is_refused_where_it_has_no_effect(command, capsys):
    code, out, err = run_cli(command + ["--n", "4", "--k", "2.0", "--method", "hard"], capsys)
    assert code == 2
    assert out == ""
    assert "--method" in err


def test_benchmark_csv(capsys):
    code, out, _ = run_cli(
        ["benchmark", "partition", "--n", "12", "--trials", "200"], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == (
        "schema,family,n,method,trials,accept_rate,rng_calls_per_sample,speedup_vs_hard"
    )
    assert len(lines) == 3
    hard = lines[1].split(",")
    dsh = lines[2].split(",")
    assert hard[:5] == ["1", "partition", "12", "hard", "200"]
    assert dsh[3] == "dsh"
    assert hard[7] == "1"
    assert float(dsh[7]) > 1.0


def test_benchmark_parallel_path_is_deterministic(capsys):
    argv = [
        "benchmark", "partition", "--n", "10", "--trials", "120",
        "--jobs", "2", "--seed", "3",
    ]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second
    assert first.count("\n") == 3


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in this process."""

    asked = []

    def __init__(self, max_workers):
        self.asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize(
    "cpus, jobs, trials, workers",
    [(64, 500, 2, 2), (1, 4, 8, 1), (None, 3, 9, 1), (8, 3, 9, 3)],
)
def test_benchmark_starts_at_most_one_worker_per_shard_and_cpu(
    cpus, jobs, trials, workers, capsys, monkeypatch
):
    # the cli imports concurrent.futures when it first needs a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_SerialPool, "asked", [])
    argv = f"benchmark partition --n 10 --trials {trials} --jobs {jobs} --seed 3".split()
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and out.count("\n") == 3
    # one pool for the dsh row and one for the hard row
    assert _SerialPool.asked == [workers, workers]


def test_verify_pass_line(capsys):
    code, out, _ = run_cli(["verify", "partition", "--n", "8", "--trials", "2000"], capsys)
    assert code == 0
    line = out.strip()
    assert line.startswith("partition n=8 test=chi2 cells=22 statistic=")
    assert "trials=2000" in line
    assert line.endswith(" pass")


@pytest.mark.parametrize("variant", [1, 2, 3])
def test_verify_borel_variant(variant, capsys):
    argv = f"verify borel --variant {variant} --trials 2000".split()
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out.startswith(f"borel variant={variant} test=ks cells=2000 ")
    assert out.strip().endswith(" pass")


def test_verify_fail_exits_one(capsys, monkeypatch):
    # the sampler is exact, so a goodness-of-fit test that reports p = 0
    # drives the failure exit path
    monkeypatch.setattr(cli, "chi_squared_gof", lambda counts, expected: (99.0, 4, 0.0))
    code, out, _ = run_cli(["verify", "partition", "--n", "4", "--trials", "250"], capsys)
    assert code == 1
    assert out.strip().endswith(" FAIL")


def test_config_errors_exit_two(capsys):
    code, _, err = run_cli(["sample", "ewens", "--n", "6"], capsys)
    assert code == 2
    assert "--k" in err
    code, _, err = run_cli(["sample", "partition", "--n", "0"], capsys)
    assert code == 2
    code, _, err = run_cli(["benchmark", "partition", "--n", "x"], capsys)
    assert code == 2
    code, out, err = run_cli("sample selection --n 5 --multiplicities 1,x".split(), capsys)
    assert code == 2 and out == ""
    assert "bad multiplicity list" in err
    with pytest.raises(SystemExit) as exc:
        main(["sample", "florp"])
    assert exc.value.code == 2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_small_distinct_and_selection_sizes_sample(n, capsys):
    # no tilt below 1 solves E[T] = n here, so the default falls back
    for family in ("distinct", "selection"):
        code, out, _ = run_cli(f"sample {family} --n {n} --count 2".split(), capsys)
        assert code == 0 and out.count("\n") == 2


def test_one_element_ewens_profile(capsys):
    # the one permutation of one element: sampled, and checked against
    # its one-cell law; two cycles is refused with the reason
    code, out, err = run_cli(["sample", "ewens", "--n", "1", "--k", "1", "--count", "3"], capsys)
    assert code == 0 and err == ""
    assert [json.loads(line)["outcome"] for line in out.splitlines()] == [[1]] * 3
    code, out, _ = run_cli(["verify", "ewens", "--n", "1", "--k", "1", "--trials", "50"], capsys)
    assert code == 0 and out.strip().endswith(" pass")
    code, out, err = run_cli(["sample", "ewens", "--n", "1", "--k", "2"], capsys)
    assert code == 2 and out == ""
    assert "between 1 and 1 cycles" in err


# commands that once exited 0 after sampling, or checking, something other
# than what was asked (or, for --max-attempts, reported a give-up), and the
# flag each must name when it is refused
REFUSED = [
    ("sample partition --n 5 --multiplicities 1,2,3,4,5", "--multiplicities"),
    ("sample assembly --n 5 --theta 3", "--theta"),
    ("sample assembly --n 5 --k 2", "--k"),
    ("sample partition --n 5 --multiplicities 1,2,3,4,5 --format csv", "--multiplicities"),
    ("benchmark distinct --n 5 --theta 2 --trials 10", "--theta"),
    ("sample ewens --n 6 --k 2.5", "--k"),
    ("verify ewens --n 6 --k 3.9", "--k"),
    ("verify partition --n 8 --trials 0", "--trials"),
    ("verify partition --n 8 --trials -3", "--trials"),
    ("verify borel --trials 0", "--trials"),
    ("benchmark partition --n 10 --trials 0", "--trials"),
    ("sample partition --n 5 --count -1", "--count"),
    ("sample hypersimplex --n 4 --k 2.5 --tilt 0.3 --multiplicities 1,2", "--multiplicities"),
    ("sample hypersimplex --n 4 --k 2.5 --tilt 0.3", "--tilt"),
    ("sample permutahedron --n 4 --k 2", "--k"),
    ("sample borel --n 7 --theta 2", "--n"),
    ("verify borel --n 7 --trials 10", "--n"),
    ("sample partition --n 5 --variant 2", "--variant"),
    ("sample hypersimplex --n 4 --k 2.5 --variant 3", "--variant"),
    ("verify partition --n 5 --variant 2", "--variant"),
    ("sample partition --n 5 --max-attempts 0", "--max-attempts"),
    ("sample partition --n 5 --max-attempts -5", "--max-attempts"),
    ("verify partition --n 5 --max-attempts 0", "--max-attempts"),
    ("benchmark partition --n 5 --trials 10 --max-attempts 0", "--max-attempts"),
    ("benchmark partition --n 6 --methods dsh,dsh --trials 20", "--methods"),
    ("benchmark partition --n 10 --methods foo", "foo"),
    ("sample partition --n abc", "--n"),
    ("sample hypersimplex --n 4.5 --k 2", "--n"),
    ("verify partition --n x", "--n"),
    ("verify partition --n 8 --support-cap 0", "--support-cap"),
    ("verify partition --n 8 --support-cap -3", "--support-cap"),
    ("verify borel --trials 10 --support-cap 5", "--support-cap"),
]


@pytest.mark.parametrize("command, flag", REFUSED, ids=[c for c, _ in REFUSED])
def test_options_without_effect_are_refused(command, flag, capsys):
    code, out, err = run_cli(command.split(), capsys)
    assert code == 2
    assert out == ""
    assert flag in err


def test_an_overflowing_tilt_exits_two(capsys):
    # the Poisson(50**k / k!) rates reach 3e20, past the Poisson rate
    # limit, so the problem is refused while it is built, before any draw
    code, out, err = run_cli("sample assembly --n 100 --tilt 50 --count 1".split(), capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command", ["sample setpartition --n 100 --tilt 50", "sample ewens --n 50 --k 5 --theta 1e30"]
)
def test_a_huge_poisson_rate_is_refused(command):
    # rates of 2.6e6 and 9.8e29 would split each draw into 2^13 and 2^91
    # one-uniform pieces; the rate limit refuses them before any draw
    proc = subprocess.run(
        [sys.executable, "-m", "exactcond", *command.split()],
        capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: poisson rate ") and proc.stderr.count("\n") == 1


def test_the_full_grid_flag_is_unknown(capsys):
    # the grid samples only the cells a draw may leave nonzero
    with pytest.raises(SystemExit) as exc:
        main(["sample", "planegrid", "--n", "12", "--full-grid"])
    assert exc.value.code == 2
    assert "--full-grid" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["sample", "benchmark", "verify"])
def test_help_exits_zero(subcommand, capsys):
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "--max-attempts" in text
    assert "--full-grid" not in text


def test_attempt_cap_exits_three(capsys):
    code, _, err = run_cli(
        [
            "sample", "partition", "--n", "60", "--method", "hard",
            "--max-attempts", "3", "--seed", "11",
        ],
        capsys,
    )
    assert code == 3
    assert "attempts" in err


def test_hypersimplex_attempt_cap_exits_three(capsys):
    # seed 1729's first hypersimplex(10, 5) draw needs more than one attempt
    code, out, err = run_cli(
        "sample hypersimplex --n 10 --k 5 --max-attempts 1 --count 3".split(), capsys
    )
    assert code == 3
    assert "exhausted 1 attempts" in err
    assert out == ""


def test_support_cap_exits_four(capsys):
    code, _, err = run_cli(
        ["verify", "partition", "--n", "40", "--support-cap", "100"], capsys
    )
    assert code == 4
    assert "cap" in err
    # the support is counted before the walk, so a 741-cell grid is refused
    # at once rather than walked toward the cap
    start = time.perf_counter()
    code, out, err = run_cli(["verify", "planegrid", "--n", "40", "--trials", "10"], capsys)
    assert code == 4 and out == "" and "cap" in err
    assert time.perf_counter() - start < 5.0


def test_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("EXACTCOND_SEED", "7")
    _, from_env, _ = run_cli(["sample", "partition", "--n", "15", "--count", "2"], capsys)
    monkeypatch.delenv("EXACTCOND_SEED")
    _, from_flag, _ = run_cli(
        ["sample", "partition", "--n", "15", "--count", "2", "--seed", "7"], capsys
    )
    assert from_env == from_flag
    monkeypatch.setenv("EXACTCOND_SEED", "7")
    _, flag_wins, _ = run_cli(
        ["sample", "partition", "--n", "15", "--count", "2", "--seed", "9"], capsys
    )
    monkeypatch.delenv("EXACTCOND_SEED")
    _, plain_nine, _ = run_cli(
        ["sample", "partition", "--n", "15", "--count", "2", "--seed", "9"], capsys
    )
    assert flag_wins == plain_nine
    monkeypatch.setenv("EXACTCOND_SEED", "not-a-number")
    code, _, _ = run_cli(["sample", "partition", "--n", "15"], capsys)
    assert code == 2


def test_package_names_the_readme_list():
    # the names the README's "Library use" bullets give for the top level
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    bullets = section.split("\n- ", 1)[1].split("\n\n", 1)[0]
    listed = sorted(re.findall(r"`(\w+)`", bullets))
    assert sorted(exactcond.__all__) == listed
    assert len(listed) == 26
    for name in listed:
        assert getattr(exactcond, name) is not None


def test_import_leaves_scipy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, exactcond; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize(
    "command",
    [
        "verify partition --n 8 --trials 500",
        "verify borel --trials 500",
        "sample partition --n 30 --count 3",
        "benchmark partition --n 20 --trials 50 --jobs 1",
    ],
)
def test_cold_cli_paths_leave_scipy_and_futures_unloaded(command):
    # every p-value is computed in the package and only a pool needs
    # concurrent.futures, so a cold invocation imports neither
    script = (
        "import sys\n"
        "from exactcond.cli import main\n"
        f"code = main({command.split()!r})\n"
        "print(code, 'scipy' in sys.modules, 'concurrent.futures' in sys.modules,"
        " file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split()[-3:] == ["0", "False", "False"]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "exactcond", "sample", "partition", "--n", "6"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    rec = json.loads(proc.stdout.strip())
    assert rec["schema"] == 1 and rec["n"] == 6

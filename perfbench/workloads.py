"""The benchmark's workloads: which requests each one sends, and how
every output and every law is checked.

A workload is a round of requests with fixed shares, repeated until the
run's time is up.  The shares keep any one instance near or under a third
of a round's wall time, so no single instance decides a workload's
figures, and they put the median and the tail percentile inside one
instance's bulk rather than on the edge between two instances, where
they would jump from run to run.  Each request gets its own ``CountingRng`` seeded from the
benchmark seed; the program receives nothing else from the benchmark.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from exactcond import geometry, structures
from exactcond.marginals import AbsWeightedGaussian, CountingRng

# per-request attempt cap: at least 100 times the largest mean attempt
# count of any instance here, so a spinning regression fails fast instead
# of hanging, while a correct sampler reaches it with chance below e^-100
MAX_ATTEMPTS = 100_000
REL_TOL = 1e-9
LAW_P_MIN = 1e-3
LAW_SEED = 1729


@dataclass(frozen=True)
class Instance:
    """One in-process request kind: a public call and its output check."""

    name: str
    share: int  # requests per round
    layer: str  # the package layer the call enters
    call: Callable  # rng -> (value, SampleRecord)
    check: Callable  # value -> bool


def _profile_check(n: int, *, blocks: int | None = None, cap: int | None = None):
    def check(value) -> bool:
        counts = value.counts
        if len(counts) != n or any(c < 0 for c in counts):
            return False
        if cap is not None and any(c > cap for c in counts):
            return False
        if blocks is not None and sum(counts) != blocks:
            return False
        return sum((i + 1) * c for i, c in enumerate(counts)) == n
    return check


def _grid_check(n: int):
    def check(value) -> bool:
        return all(i >= 1 and j >= 1 and z >= 1 for i, j, z in value.entries) and (
            sum((i + j + 1) * z for i, j, z in value.entries) == n
        )
    return check


def _structure(name, share, family, check, method="dsh"):
    def call(rng):
        return structures.sample_structure(family, rng, method=method, max_attempts=MAX_ATTEMPTS)
    return Instance(name, share, "structures", call, check)


def _level_check(total: float, lo: float, hi: float, *, square: bool = False):
    def check(value) -> bool:
        if not all(lo <= v <= hi for v in value):
            return False
        level = math.fsum(v * v for v in value) if square else math.fsum(value)
        return abs(level - total) <= REL_TOL * max(1.0, abs(total))
    return check


def _perm_check(n: int):
    level = _level_check(n * (n + 1) / 2, 1.0, float(n))

    def check(value) -> bool:
        return len(value) == n and level(value) and geometry.rado_check(value)
    return check


def _finite(value) -> bool:
    return math.isfinite(value)


def _geometry(name, share, call, check):
    return Instance(name, share, "geometry", call, check)


def struct_hooks() -> list[Instance]:
    P, D, G = structures.Partition, structures.DistinctPartition, structures.PlanePartitionGrid
    return [
        _structure("partition n=100", 8, P(100), _profile_check(100)),
        _structure("partition n=100, hard", 2, P(100), _profile_check(100), method="hard"),
        _structure("partition n=400", 3, P(400), _profile_check(400)),
        _structure("partition n=1600", 1, P(1600), _profile_check(1600)),
        _structure("distinct n=100", 3, D(100), _profile_check(100, cap=1)),
        _structure("planegrid n=30", 1, G(30), _grid_check(30)),
    ]


def struct_generic() -> list[Instance]:
    s = structures
    return [
        _structure("setpartition n=100", 2, s.SetPartition(100), _profile_check(100)),
        _structure("assembly n=100", 2, s.Assembly(100), _profile_check(100)),
        _structure("multiset n=100", 2, s.Multiset(100), _profile_check(100)),
        _structure("selection n=60", 1, s.Selection(60), _profile_check(60, cap=1)),
        _structure("ewens n=50, k=5", 1, s.EwensProfile(50, 5), _profile_check(50, blocks=5)),
    ]


def continuous() -> list[Instance]:
    g = geometry
    cap = {"max_attempts": MAX_ATTEMPTS}
    aw = AbsWeightedGaussian()
    return [
        _geometry("exponential sum 10xExp(1) at 3.0", 2,
                  lambda rng: g.sample_exponential_sum([1.0] * 10, 3.0, rng, **cap),
                  _level_check(3.0, 0.0, 3.0)),
        _geometry("beta sum 6xBeta(2,2) at 3.0", 14,
                  lambda rng: g.sample_beta_sum([2.0] * 6, [2.0] * 6, 3.0, rng, **cap),
                  _level_check(3.0, 0.0, 1.0)),
        _geometry("hypersimplex n=10, level 5", 24,
                  lambda rng: g.sample_hypersimplex(10, 5.0, rng, **cap),
                  _level_check(5.0, 0.0, 1.0)),
        _geometry("permutahedron n=8", 24,
                  lambda rng: g.sample_permutahedron(8, rng, **cap), _perm_check(8)),
        _geometry("sphere 6xAbsGauss at r^2=3", 24,
                  lambda rng: g.sample_sphere_surface(aw, 6, 3.0, rng, **cap),
                  _level_check(3.0, -math.inf, math.inf, square=True)),
        _geometry("borel variant 1", 20,
                  lambda rng: g.borel_conditional_sample(1, rng, **cap), _finite),
        _geometry("borel variant 2", 20,
                  lambda rng: g.borel_conditional_sample(2, rng, **cap), _finite),
    ]


IN_PROCESS = {
    "struct-hooks": struct_hooks,
    "struct-generic": struct_generic,
    "continuous": continuous,
}

# Rounds whose requests every run completes, timed or not, so counts
# measured over them (uniforms, attempts, dead first halves) repeat
# exactly at one seed.  Each is a few seconds of work at the seed commit.
PREFIX_ROUNDS = {"struct-hooks": 200, "struct-generic": 320, "continuous": 300, "cli": 1}


# ---------------------------------------------------------------- cli

@dataclass(frozen=True)
class CliRequest:
    """One ``python -m exactcond`` invocation and its output check."""

    name: str
    argv: Callable  # seed -> argument list
    check: Callable  # stdout -> (ok, uniforms, samples)


def _jsonl_check(n: int, count: int):
    def check(out: str):
        lines = out.splitlines()
        calls = 0
        for line in lines:
            row = json.loads(line)
            if row["attempts"] < 1 or row["rng_calls"] < 1:
                return False, 0, 0
            if sum((i + 1) * c for i, c in enumerate(row["outcome"])) != n:
                return False, 0, 0
            calls += row["rng_calls"]
        return len(lines) == count, calls, count
    return check


def _csv_check(n: int, count: int):
    def check(out: str):
        rows = list(csv.DictReader(io.StringIO(out)))
        calls = 0
        for row in rows:
            if int(row["attempts"]) < 1 or int(row["rng_calls"]) < 1:
                return False, 0, 0
            if sum((i + 1) * c for i, c in enumerate(json.loads(row["outcome"]))) != n:
                return False, 0, 0
            calls += int(row["rng_calls"])
        return len(rows) == count, calls, count
    return check


def _verify_check(out: str):
    fields = dict(f.split("=", 1) for f in out.split() if "=" in f)
    ok = out.rstrip().endswith(" pass") and float(fields["p_value"]) > LAW_P_MIN
    return ok, 0, 0


def _bench_check(trials: int):
    def check(out: str):
        rows = list(csv.DictReader(io.StringIO(out)))
        ok = len(rows) == 1 and int(rows[0]["trials"]) == trials
        if not ok:
            return False, 0, 0
        per = float(rows[0]["rng_calls_per_sample"])
        rate = float(rows[0]["accept_rate"])
        ok = per >= 1.0 and 0.0 < rate <= 1.0
        return ok, round(per * trials), trials
    return check


def cli_requests() -> list[CliRequest]:
    # verify runs at a fixed seed: it is a law check, and a fresh seed per
    # run would fail the 1e-3 threshold by chance once in a thousand runs
    law = ["--seed", str(LAW_SEED)]
    return [
        CliRequest("sample partition jsonl", lambda s: [
            "sample", "partition", "--n", "100", "--count", "300", "--seed", str(s)],
            _jsonl_check(100, 300)),
        CliRequest("sample partition csv", lambda s: [
            "sample", "partition", "--n", "60", "--count", "300", "--format", "csv",
            "--seed", str(s)], _csv_check(60, 300)),
        CliRequest("verify partition", lambda s: [
            "verify", "partition", "--n", "8", "--trials", "2000", *law], _verify_check),
        CliRequest("verify ewens", lambda s: [
            "verify", "ewens", "--n", "6", "--k", "3", "--trials", "2000", *law], _verify_check),
        CliRequest("benchmark partition", lambda s: [
            "benchmark", "partition", "--n", "50", "--methods", "dsh", "--trials", "600",
            "--jobs", "1", "--seed", str(s)], _bench_check(600)),
    ]


# ---------------------------------------------------------- law checks

# scipy and the verify module are imported only when the law checks run,
# after the timed loop, so they never count toward set-up time or RSS

def _chi2_check(family, draws: int) -> float:
    from scipy.stats import chi2

    from exactcond.verify import enumerate_conditional

    exact = enumerate_conditional(structures.build_problem(family))
    rng = CountingRng(LAW_SEED)
    seen: dict = {}
    for _ in range(draws):
        value, _rec = structures.sample_structure(family, rng, max_attempts=MAX_ATTEMPTS)
        seen[value.counts] = seen.get(value.counts, 0) + 1
    if any(k not in exact.probs for k in seen):
        return 0.0
    # cells expected below 5 are pooled into one
    cells, small_o, small_e = [], 0, 0.0
    for k, p in exact.probs.items():
        e = p * draws
        if e < 5.0:
            small_o += seen.get(k, 0)
            small_e += e
        else:
            cells.append((seen.get(k, 0), e))
    if small_e > 0.0:
        cells.append((small_o, small_e))
    stat = sum((o - e) ** 2 / e for o, e in cells)
    return float(chi2.sf(stat, len(cells) - 1))


def _ks_check(draw: Callable, cdf: Callable, draws: int) -> float:
    from scipy.stats import kstest

    rng = CountingRng(LAW_SEED)
    sample = [draw(rng) for _ in range(draws)]
    return float(kstest(sample, np.vectorize(cdf)).pvalue)


def _exp_sum_checks() -> dict[str, Callable[[], float]]:
    # x_i / t ~ Beta(1, n - 1) for n iid exponentials summing to t, both
    # for the pivot coordinate (index 0) and for a drawn one
    n, t = 5, 3.0

    def beta_cdf(x):
        return 1.0 - (1.0 - min(max(x, 0.0), 1.0)) ** (n - 1)

    def coordinate(i):
        def draw(rng):
            value, _ = geometry.sample_exponential_sum([1.0] * n, t, rng, max_attempts=MAX_ATTEMPTS)
            return value[i] / t
        return lambda: _ks_check(draw, beta_cdf, 2000)

    return {"exponential sum pivot x1/t ~ Beta(1,4)": coordinate(0),
            "exponential sum x5/t ~ Beta(1,4)": coordinate(n - 1)}


def _borel_check(variant: int):
    if variant == 1:  # density e^(-v^2) / sqrt(pi)
        def cdf(v):
            return 0.5 * (1.0 + math.erf(v))
    else:  # density |v| e^(-v^2)
        def cdf(v):
            tail = 0.5 * math.exp(-v * v)
            return tail if v < 0.0 else 1.0 - tail

    def draw(rng):
        return geometry.borel_conditional_sample(variant, rng, max_attempts=MAX_ATTEMPTS)[0]
    return lambda: _ks_check(draw, cdf, 2000)


def law_checks(workload: str) -> dict[str, Callable[[], float]]:
    """Fixed-seed checks of each workload's laws; each returns a p-value."""
    s = structures
    if workload == "struct-hooks":
        return {"chi2 Partition(8)": lambda: _chi2_check(s.Partition(8), 4000)}
    if workload == "struct-generic":
        return {
            "chi2 SetPartition(6)": lambda: _chi2_check(s.SetPartition(6), 4000),
            "chi2 EwensProfile(6,3)": lambda: _chi2_check(s.EwensProfile(6, 3), 4000),
        }
    if workload == "continuous":
        return {
            **_exp_sum_checks(),
            "ks borel variant 1": _borel_check(1),
            "ks borel variant 2": _borel_check(2),
        }
    return {}  # the cli workload's verify requests are its law checks

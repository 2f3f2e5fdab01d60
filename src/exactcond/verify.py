"""Ground-truth oracles, distributional tests, and cost benchmarking.

``enumerate_conditional`` walks the whole support of a small conditioning
problem and returns the exact conditional law; it is the reference every
sampler is validated against.  ``counting_oracle`` provides exact integer
counts (partitions, distinct-part partitions, set partitions) from
classic recurrences.  The statistical helpers wrap the usual chi-squared
and Kolmogorov-Smirnov machinery with the conventions used by the test
suite, and ``benchmark`` aggregates rejection costs in the package cost
unit: uniforms drawn per accepted sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .engine import ConditioningProblem, SampleRecord
from .errors import InfeasibleTarget, SupportTooLarge
from .marginals import CountingRng


@dataclass(frozen=True)
class ExactDistribution:
    """A finite distribution as an explicit outcome -> probability table."""

    probs: dict

    def support(self) -> list:
        return list(self.probs)

    def prob(self, outcome) -> float:
        return self.probs.get(outcome, 0.0)


@dataclass(frozen=True)
class CostStats:
    """Aggregate rejection cost over a fixed number of accepted samples."""

    trials: int
    attempts: int
    rng_calls: int
    accept_rate: float
    rng_calls_per_sample: float


def enumerate_conditional(
    problem: ConditioningProblem, support_cap: int = 100_000
) -> ExactDistribution:
    """Exact conditional law of a problem by exhaustive enumeration.

    Walks all joint outcomes satisfying the constraint(s), weighting each
    by its product mass, and normalises.  Coordinates with unbounded
    support require a positive weight so the residual budget bounds them.
    Raises SupportTooLarge past ``support_cap`` feasible outcomes and
    InfeasibleTarget when the conditioning event is empty.
    """
    if not problem.is_discrete():
        raise ValueError("enumeration needs discrete marginals")
    n = problem.size
    w = [int(x) for x in problem.weights]
    sec = problem.second
    u = [int(c) for c in sec.coeffs] if sec else [0] * n
    t1 = int(problem.target)
    t2 = int(sec.target) if sec else 0

    def contrib_range(coef: int, lo: int, hi: float) -> list:
        # [min, max] of coef * value over the support (0 * inf would be nan)
        return [0, 0] if coef == 0 else sorted((coef * lo, coef * hi))

    # the range each constraint's sum over coordinates i.. can take
    lin_lo, lin_hi, sec_lo, sec_hi = ([0] * (n + 1) for _ in range(4))
    for i in range(n - 1, -1, -1):
        lo, hi = problem.marginals[i].support_bounds()
        if hi == math.inf and w[i] <= 0:
            raise ValueError(
                f"coordinate {i} has unbounded support and weight {w[i]}; cannot enumerate"
            )
        llo, lhi = contrib_range(w[i], lo, hi)
        slo, shi = contrib_range(u[i], lo, hi)
        lin_lo[i] = lin_lo[i + 1] + llo
        lin_hi[i] = lin_hi[i + 1] + lhi
        sec_lo[i] = sec_lo[i + 1] + slo
        sec_hi[i] = sec_hi[i + 1] + shi

    probs: dict[tuple, float] = {}
    values = [0] * n
    leaves = 0

    def feasible(i: int, r1: int, r2: int) -> bool:
        return lin_lo[i] <= r1 <= lin_hi[i] and sec_lo[i] <= r2 <= sec_hi[i]

    # depth-first walk with an explicit stack, one frame per fixed prefix:
    # the residuals and product mass so far and the next coordinate's
    # remaining support, so a long vector cannot exhaust the call stack
    marginals = problem.marginals
    frames = [(t1, t2, 1.0, iter(marginals[0].support_iter()))]
    while frames:
        i = len(frames) - 1
        r1, r2, weight, ks = frames[-1]
        m = marginals[i]
        descended = False
        for k in ks:
            nr1 = r1 - w[i] * k
            nr2 = r2 - u[i] * k
            if not feasible(i + 1, nr1, nr2):
                # the residual only falls as k grows: an overshoot ends the scan
                if w[i] > 0 and nr1 < lin_lo[i + 1]:
                    break
                continue
            pk = m.density(k)
            values[i] = k
            if not pk > 0.0:
                continue
            if i + 1 < n:
                frames.append((nr1, nr2, weight * pk, iter(marginals[i + 1].support_iter())))
                descended = True
                break
            if nr1 == 0 and (not sec or nr2 == 0):
                leaves += 1
                if leaves > support_cap:
                    raise SupportTooLarge(f"conditional support exceeds cap {support_cap}")
                mass = weight * pk
                if mass > 0.0:
                    key = tuple(values)
                    probs[key] = probs.get(key, 0.0) + mass
        if not descended:
            values[i] = 0
            frames.pop()

    total = math.fsum(probs.values())
    if not probs or total <= 0.0:
        raise InfeasibleTarget(
            f"no outcome of positive mass satisfies the target {problem.target}"
        )
    return ExactDistribution({k: v / total for k, v in probs.items()})


def tv_distance(a, b) -> float:
    """Total variation distance between two finite distributions."""
    pa = a.probs if isinstance(a, ExactDistribution) else dict(a)
    pb = b.probs if isinstance(b, ExactDistribution) else dict(b)
    keys = set(pa) | set(pb)
    return 0.5 * math.fsum(abs(pa.get(k, 0.0) - pb.get(k, 0.0)) for k in keys)


def empirical(outcomes: Sequence) -> dict:
    """Relative frequencies of a sample, as an outcome -> probability dict."""
    counts: dict = {}
    for o in outcomes:
        counts[o] = counts.get(o, 0) + 1
    n = len(outcomes)
    return {k: v / n for k, v in counts.items()}


def chi_squared_gof(counts, expected) -> tuple[float, int, float]:
    """Pearson goodness-of-fit test of observed counts against expected probabilities.

    ``counts`` and ``expected`` are parallel sequences, or mappings over
    the same outcomes.  Cells whose expected count falls below 5 are
    merged, smallest expected first, before the statistic is formed.
    Returns (statistic, degrees of freedom, p-value); no observations at
    all raise ValueError.
    """
    if isinstance(counts, Mapping) or isinstance(expected, Mapping):
        if not (isinstance(counts, Mapping) and isinstance(expected, Mapping)):
            raise ValueError("counts and expected must both be mappings or both sequences")
        keys = sorted(set(counts) | set(expected), key=repr)
        obs = np.array([counts.get(k, 0) for k in keys], dtype=float)
        exp_p = np.array([expected.get(k, 0.0) for k in keys], dtype=float)
    else:
        obs = np.asarray(counts, dtype=float)
        exp_p = np.asarray(expected, dtype=float)
    if obs.shape != exp_p.shape:
        raise ValueError("observed and expected shapes differ")
    if np.any((exp_p <= 0.0) & (obs > 0)):
        raise ValueError("observed mass on an outcome of zero expected probability")
    total = obs.sum()
    if not total > 0:
        raise ValueError("a goodness-of-fit test needs at least one observation")
    exp_c = exp_p / exp_p.sum() * total

    order = np.argsort(exp_c, kind="stable")
    merged_obs: list[float] = []
    merged_exp: list[float] = []
    acc_o = acc_e = 0.0
    for idx in order:
        acc_o += obs[idx]
        acc_e += exp_c[idx]
        if acc_e >= 5.0:
            merged_obs.append(acc_o)
            merged_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0:
        if merged_obs:
            merged_obs[-1] += acc_o
            merged_exp[-1] += acc_e
        else:
            merged_obs.append(acc_o)
            merged_exp.append(acc_e)
    if len(merged_obs) < 2:
        return 0.0, 0, 1.0
    from scipy import stats  # imported here so that importing the package skips scipy

    o = np.array(merged_obs)
    e = np.array(merged_exp)
    stat = float(((o - e) ** 2 / e).sum())
    dof = len(merged_obs) - 1
    return stat, dof, float(stats.chi2.sf(stat, dof))


def ks_statistic(samples: Sequence[float], cdf: Callable[[float], float]) -> tuple[float, float]:
    """One-sample Kolmogorov-Smirnov statistic and asymptotic p-value."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.shape[0]
    if n == 0:
        raise ValueError("need at least one sample")
    fx = np.array([cdf(x) for x in xs])
    hi = np.max(np.arange(1, n + 1) / n - fx)
    lo = np.max(fx - np.arange(0, n) / n)
    d = float(max(hi, lo))
    from scipy import special

    return d, float(special.kolmogorov(math.sqrt(n) * d))


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value."""
    from scipy import stats

    res = stats.ks_2samp(np.asarray(a), np.asarray(b), method="asymp")
    return float(res.statistic), float(res.pvalue)


def counting_oracle(kind: str, n: int) -> int:
    """Exact structure counts from integer recurrences.

    kind 'partition': partitions of n; 'distinct': partitions of n into
    distinct parts; 'setpartition': set partitions of an n-element set.
    """
    if n < 0:
        raise ValueError("count of structures of negative size")
    if kind == "partition":
        ways = [0] * (n + 1)
        ways[0] = 1
        for part in range(1, n + 1):
            for s in range(part, n + 1):
                ways[s] += ways[s - part]
        return ways[n]
    if kind == "distinct":
        ways = [0] * (n + 1)
        ways[0] = 1
        for part in range(1, n + 1):
            for s in range(n, part - 1, -1):
                ways[s] += ways[s - part]
        return ways[n]
    if kind == "setpartition":
        row = [1]
        for _ in range(n):
            nxt = [row[-1]]
            for v in row:
                nxt.append(nxt[-1] + v)
            row = nxt
        return row[0]
    raise ValueError(f"unknown counting kind {kind!r}")


def benchmark(
    sampler: Callable[[CountingRng], SampleRecord], trials: int, rng: CountingRng
) -> CostStats:
    """Run a sampler to ``trials`` accepted samples and aggregate its cost."""
    if trials < 1:
        raise ValueError("benchmark needs at least one trial")
    attempts = 0
    calls = 0
    for _ in range(trials):
        rec = sampler(rng)
        attempts += rec.attempts
        calls += rec.rng_calls
    return CostStats(
        trials=trials,
        attempts=attempts,
        rng_calls=calls,
        accept_rate=trials / attempts,
        rng_calls_per_sample=calls / trials,
    )


def speedup_ratio(baseline: CostStats, candidate: CostStats) -> float:
    """Cost of the baseline per sample over the candidate's; > 1 means faster."""
    if candidate.rng_calls_per_sample <= 0.0:
        raise ValueError("candidate reports zero cost per sample")
    return baseline.rng_calls_per_sample / candidate.rng_calls_per_sample


def merge_cost_stats(parts: Sequence[CostStats]) -> CostStats:
    """Order-independent merge of per-worker benchmark shards."""
    if not parts:
        raise ValueError("nothing to merge")
    trials = sum(p.trials for p in parts)
    attempts = sum(p.attempts for p in parts)
    calls = sum(p.rng_calls for p in parts)
    return CostStats(
        trials=trials,
        attempts=attempts,
        rng_calls=calls,
        accept_rate=trials / attempts,
        rng_calls_per_sample=calls / trials,
    )

"""Ground-truth oracles and distributional tests.

``enumerate_conditional`` walks the whole support of a small conditioning
problem and returns the exact conditional law; it is the reference every
sampler is validated against.  ``counting_oracle`` provides exact integer
counts (partitions, distinct-part partitions, set partitions) from
classic recurrences.  The statistical helpers wrap the usual chi-squared
and Kolmogorov-Smirnov machinery with the conventions used by the test
suite.  ``chi_squared_gof`` and ``ks_statistic`` compute their p-values
here, from a finite erfc/Poisson sum for the chi-squared tail and the
Kolmogorov limit tail, so the package does not need scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .engine import ConditioningProblem
from .errors import InfeasibleTarget, SupportTooLarge


@dataclass(frozen=True)
class ExactDistribution:
    """A finite distribution as an explicit outcome -> probability table."""

    probs: dict

    def support(self) -> list:
        return list(self.probs)

    def prob(self, outcome) -> float:
        return self.probs.get(outcome, 0.0)


def enumerate_conditional(
    problem: ConditioningProblem, support_cap: int = 100_000
) -> ExactDistribution:
    """Exact conditional law of a problem by exhaustive enumeration.

    Walks all joint outcomes satisfying the constraint(s), weighting each
    by its product mass, and normalises.  The marginals must be discrete,
    or ValueError; the problem's weights and coefficients are then
    integers, so every sum is an integer and a fractional target has an
    empty event.  Coordinates with unbounded support require a positive
    weight so the residual budget bounds them.  Raises SupportTooLarge
    past ``support_cap`` feasible outcomes, counted before the walk, and
    InfeasibleTarget when the conditioning event is empty.
    """
    if not problem.is_discrete():
        raise ValueError("enumeration needs discrete marginals")
    n = problem.size
    sec = problem.second
    w, u = ([int(a) for a in vec] for vec in (problem.weights, sec.coeffs if sec else (0,) * n))
    t1, t2 = problem.target, sec.target if sec else 0
    for t in (t1, t2):
        if not float(t).is_integer():
            raise InfeasibleTarget(f"an integer sum never equals the target {t}")
    t1, t2 = int(t1), int(t2)

    def contrib_range(coef: int, lo: int, hi: float) -> list:
        # [min, max] of coef * value over the support (0 * inf would be nan)
        return [0, 0] if coef == 0 else sorted((coef * lo, coef * hi))

    # the range each constraint's sum over coordinates i.. can take, and
    # whether they can all take 0
    lin_lo, lin_hi, sec_lo, sec_hi = ([0] * (n + 1) for _ in range(4))
    zeros = [True] * (n + 1)
    for i in range(n - 1, -1, -1):
        m = problem.marginals[i]
        zeros[i] = zeros[i + 1] and m.in_support(0) and m.density(0) > 0.0
        lo, hi = m.support_bounds()
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

    def steps(i: int, r1: int, r2: int):
        """(k, residuals left, mass of k) for each positive-mass value k of
        coordinate i that leaves residuals the coordinates after i can reach."""
        m = problem.marginals[i]
        lo1, hi1, lo2, hi2 = lin_lo[i + 1], lin_hi[i + 1], sec_lo[i + 1], sec_hi[i + 1]
        for k in m.support_iter():
            nr1 = r1 - w[i] * k
            nr2 = r2 - u[i] * k
            if not (lo1 <= nr1 <= hi1 and lo2 <= nr2 <= hi2):
                # the residual only falls as k grows: an overshoot ends the scan
                if w[i] > 0 and nr1 < lo1:
                    break
                continue
            pk = m.density(k)
            if pk > 0.0:
                yield k, nr1, nr2, pk

    # count the support first, by the number of ways to reach each pair of
    # residuals (capped at cap + 1): the walk's work grows with the support.
    # A prefix that leaves (0, 0) completes with zeros where every later
    # coordinate may be 0, so those prefixes alone may pass the cap early
    ways = {(t1, t2): 1}
    for i in range(n):
        reached: dict[tuple[int, int], int] = {}
        for (r1, r2), count in ways.items():
            for _, nr1, nr2, _ in steps(i, r1, r2):
                reached[nr1, nr2] = min(reached.get((nr1, nr2), 0) + count, support_cap + 1)
        ways = reached
        if zeros[i + 1] and ways.get((0, 0), 0) > support_cap:
            break
    if sum(ways.values()) > support_cap:
        raise SupportTooLarge(f"conditional support exceeds cap {support_cap}")

    # depth-first walk with an explicit stack, one frame per fixed prefix:
    # the product mass so far and the next coordinate's remaining steps, so
    # a long vector cannot exhaust the call stack; the last coordinate's
    # steps leave both residuals at 0
    probs: dict[tuple, float] = {}
    values = [0] * n
    frames = [(1.0, steps(0, t1, t2))]
    while frames:
        i = len(frames) - 1
        weight, ks = frames[-1]
        for k, nr1, nr2, pk in ks:
            values[i] = k
            if i + 1 < n:
                frames.append((weight * pk, steps(i + 1, nr1, nr2)))
                break
            mass = weight * pk
            if mass > 0.0:
                probs[tuple(values)] = mass
        else:
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
    o = np.array(merged_obs)
    e = np.array(merged_exp)
    stat = float(((o - e) ** 2 / e).sum())
    dof = len(merged_obs) - 1
    return stat, dof, _gamma_upper(dof / 2.0, stat / 2.0)


def _gamma_upper(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = Γ(a, x) / Γ(a), for a = dof/2.

    Q(dof/2, stat/2) is the chi-squared tail.  At a half-integer shape it
    is a finite sum: with h = a − ⌊a⌋, Q(a, x) = Q(h, x) + Σ over i < ⌊a⌋
    of x^(i+h)·e^(−x) / Γ(i+h+1), where Q(½, x) = erfc(√x) and Q(0, x) = 0.
    Each term is a Poisson-like mass, formed in logarithms.
    """
    if not x > 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    n = math.floor(a)
    h = a - n
    log_x = math.log(x)
    head = math.erfc(math.sqrt(x)) if h == 0.5 else 0.0
    return head + math.fsum(
        math.exp((i + h) * log_x - x - math.lgamma(i + h + 1.0)) for i in range(n)
    )


def _kolmogorov_sf(x: float) -> float:
    """P(K > x) for the Kolmogorov limit law of sqrt(n)·D_n.

    Below 1 the theta form of the cdf, 1 − √(2π)/x·Σ e^(−(2k−1)²π²/(8x²));
    from 1 on the alternating tail 2·Σ (−1)^(k−1)·e^(−2k²x²).  Five terms
    reach the last bit on either side.
    """
    if not x > 0.0:
        return 1.0
    if x < 1.0:
        q = -math.pi**2 / (8.0 * x * x)
        theta = sum(math.exp((2 * k - 1) ** 2 * q) for k in range(1, 6))
        return 1.0 - math.sqrt(2.0 * math.pi) / x * theta
    return 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * x * x) for k in range(1, 6))


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
    return d, _kolmogorov_sf(math.sqrt(n) * d)


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

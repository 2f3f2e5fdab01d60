"""Distribution building blocks and the counted uniform source.

Every sampler in this package draws randomness exclusively through
:class:`CountingRng`, which hands out uniforms from a single seeded stream
and counts each one consumed.  The number of uniform(0,1) draws is the cost
unit reported by the benchmarking layer, so sampling routines here are
written directly in terms of uniforms rather than delegating to library
variate generators:

* discrete marginals consume exactly one uniform per variate (inversion),
* Exponential and UniformReal consume one uniform per variate,
* Normal and AbsWeightedGaussian consume exactly two,
* Beta uses a two-gamma construction whose draw count is random; only
  totals are meaningful for it.

Every marginal exposes one density surface: ``density`` (the mass of an
integer-valued marginal, the pdf of a real-valued one), its supremum
``sup_density``, and ``sample``.  It states its support once, as the
inclusive ends ``support_bounds()``, with -inf or inf where a side is
unbounded: (0, inf) for Exponential, (-inf, inf) for Normal.  A discrete
marginal adds its lattice ``step`` (1, or 2 for SignedUnit's -1, +1), so
``in_support`` and ``support_iter`` are written once.  Beta alone
overrides ``in_support``, because its ends (0, 1) are open.  ``flat``
marks the classes whose density is constant on their support
(UniformInt, SignedUnit, UniformReal), so a pivot of theirs needs no
acceptance uniform.  A discrete marginal also names its ``mode`` (the
smaller argmax on ties), where its cdf table stops being scanned.

Poisson, Binomial and NegativeBinomial draw by the one
``DiscreteMarginal.sample``: it inverts a uniform through a cached cdf
table, ``cdf_table``, the normalised running sums of the mass recurrence
run out from the mode, cut where the sum stops changing past the mode.
A uniform maps to the number of entries below it, which is where the
inversion scan would stop.

``block_inversion`` is the vector form of ``sample``: it turns a block of
uniforms, one per marginal, into their values with one numpy call.  The
cdf-table marginals (in any mix) count the entries below each uniform in
their concatenated tables; Geometric uses floor(log1p(-u) / log r),
through the same numpy expression as its ``sample``; Bernoulli uses
u >= 1 - s, and UniformReal lo + (hi - lo) u.  The engine draws every
first half through it when the coordinates allow.

Each law on 0, 1, 2, ... with P(Z = 0) > 0 is also a sum over independent
Poisson cells, which it states by ``_cells``, and ``_cell_table`` lists for
a block (Arratia, Barbour and Tavare, *Logarithmic Combinatorial
Structures*, 2003): Geometric(r) is sum_j j N_j with N_j ~ Poisson(r^j / j),
NegativeBinomial(m, r) the same with hazards m r^j / j, Poisson(rate) one
cell of jump 1; Bernoulli(p) is one hit cell of hazard -log(1 - p), whose
value is 1 if it holds any point, and Binomial(m, p) is m of them.  A
block's cells for jumps above a cap merge into one dead hazard, summed as
a series where the whole less the head would cancel.  The engine's cell
scan draws a first half as one Poisson process over them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from .errors import UnboundedDensity

_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, index: int) -> int:
    """Mix a base seed with a worker index into an independent 64-bit seed.

    SplitMix64 finalizer applied to seed + (index+1) * golden-ratio-odd.
    Used to shard work across parallel workers deterministically.
    """
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class CountingRng:
    """Seeded uniform(0,1) source that counts every draw.

    The stream is a PCG64 double sequence read through one buffer, which
    ``_refill`` alone tops up, behind the doubles not yet read; the j-th
    uniform consumed is the j-th double of the stream whichever method
    spent it, so a run is reproduced exactly by replaying the same seed and
    call pattern.  ``calls`` counts the uniforms consumed; ``peek`` reads
    ahead without consuming, and ``consume`` spends what was read.
    """

    _BLOCK = 4096

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))
        self._buf = np.empty(0)
        self._pos = 0
        self.calls = 0

    def _refill(self, count: int) -> None:
        # leaves at least ``count`` unread doubles, in stream order, and draws
        # at least 64 + calls fresh ones, up to _BLOCK: a fresh rng often
        # serves one short request, which would leave a full block unread
        have = self._buf.shape[0] - self._pos
        fresh = self._gen.random(max(count - have, min(self._BLOCK, 64 + self.calls)))
        self._buf = np.concatenate((self._buf[self._pos:], fresh))
        self._pos = 0

    def uniform(self) -> float:
        if self._pos >= self._buf.shape[0]:
            self._refill(1)
        v = self._buf[self._pos]
        self._pos += 1
        self.calls += 1
        return float(v)

    def uniforms(self, count: int) -> np.ndarray:
        """Vector of ``count`` uniforms, in stream order."""
        if self._buf.shape[0] - self._pos < count:
            self._refill(count)
        out = self._buf[self._pos:self._pos + count].copy()
        self._pos += count
        self.calls += count
        return out

    def peek(self, count: int) -> np.ndarray:
        """The next ``count`` uniforms, in stream order, left unconsumed (a read-only view)."""
        if self._buf.shape[0] - self._pos < count:
            self._refill(count)
        view = self._buf[self._pos:self._pos + count]
        view.flags.writeable = False
        return view

    def consume(self, count: int) -> None:
        """Spend the next ``count`` uniforms, which a ``peek`` has read."""
        self._pos += count
        self.calls += count


def _standard_normal(rng: CountingRng) -> float:
    # Box-Muller, two uniforms, spare discarded to keep draw counts fixed.
    u1 = rng.uniform()
    u2 = rng.uniform()
    r = math.sqrt(-2.0 * math.log1p(-u1))
    return r * math.cos(2.0 * math.pi * u2)


def _gamma_variate(shape: float, rng: CountingRng) -> float:
    # Marsaglia-Tsang for shape >= 1, boosted by U^(1/shape) below 1.
    if shape < 1.0:
        return _gamma_variate(shape + 1.0, rng) * rng.uniform() ** (1.0 / shape)
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = _standard_normal(rng)
        v = 1.0 + c * x
        if v <= 0.0:
            continue
        v = v * v * v
        u = rng.uniform()
        if u == 0.0:
            continue
        if math.log(u) < 0.5 * x * x + d - d * v + d * math.log(v):
            return d * v


class Marginal:
    """Common surface of every marginal: a density, its bound, a sampler."""

    # the density is constant on the support
    flat = False

    def density(self, x) -> float:
        raise NotImplementedError

    def sup_density(self) -> float:
        raise NotImplementedError

    def sample(self, rng: CountingRng):
        raise NotImplementedError

    def support_bounds(self) -> tuple[float, float]:
        """Inclusive ends of the support; -inf or inf where a side is unbounded."""
        return -math.inf, math.inf

    def in_support(self, x) -> bool:
        lo, hi = self.support_bounds()
        return lo <= x <= hi


class DiscreteMarginal(Marginal):
    """Integer-valued marginals; the density is the mass."""

    # the table the inherited ``sample`` inverts its one uniform through;
    # None where a class draws otherwise
    cdf_table: np.ndarray | None = None
    # the support is lo, lo + step, ... up to hi
    step = 1

    def mode(self) -> int:
        """The smaller argmax of the mass."""
        raise NotImplementedError

    def sample(self, rng: CountingRng) -> int:
        return int(self.cdf_table.searchsorted(rng.uniform()))

    def sup_density(self) -> float:
        return self.density(self.mode())

    def in_support(self, k: int) -> bool:
        lo, hi = self.support_bounds()
        return lo <= k <= hi and (k - lo) % self.step == 0

    def support_iter(self) -> Iterator[int]:
        lo, hi = self.support_bounds()
        return itertools.takewhile(lambda k: k <= hi, itertools.count(lo, self.step))

    def _cells(self) -> tuple[float, float, int] | None:
        """The law as a sum over independent Poisson cells, or None.

        ``(a, r, 0)``: one count cell per jump j = 1, 2, ..., of hazard
        a r^(j-1) / j, and Z is the sum of the jumps of its points.
        ``(a, 0.0, m)``: m hit cells of hazard a each, and Z is the number
        of them that hold a point.  The hazards sum to -log P(Z = 0).
        """
        return None


class ContinuousMarginal(Marginal):
    """Real-valued marginals; the density is the pdf."""


def _cdf_table(marginal: DiscreteMarginal, ratio: Callable[[int], float]) -> np.ndarray:
    """Running cdf of an inversion scan, from masses run out of the mode.

    ratio(k) is mass(k+1) / mass(k).  The mode's mass is taken as 1; the
    masses below it come from mass(k) = mass(k+1) / ratio(k) down to 0
    (one that underflows stays 0), and those above from
    mass(k+1) = mass(k) ratio(k), up to the scan's stop: the last point of
    the support, or past the mode the first mass that no longer changes
    the running sum (masses only shrink from there, so the sum never
    changes again).  No mass is formed outright, so none underflows the
    rest.  The table keeps the running sums over their total, so a uniform
    maps to the number of entries below it, which is where the scan would
    stop.
    """
    mode = marginal.mode()
    last = marginal.support_bounds()[1]
    masses = [1.0]
    for k in range(mode - 1, -1, -1):
        masses.append(masses[-1] / ratio(k))
    sums = list(itertools.accumulate(reversed(masses)))
    cdf = total = sums.pop()
    k, mass = mode, 1.0
    while k < last:
        sums.append(cdf)
        mass *= ratio(k)
        k += 1
        total = cdf + mass
        if total == cdf:
            break
        cdf = total
    table = np.array(sums) / total
    table.flags.writeable = False
    return table


class _TableLaw(DiscreteMarginal):
    """A law on 0, 1, 2, ... drawn through the cdf table of its mass recurrence."""

    def _ratio(self) -> Callable[[int], float]:
        """k -> mass(k + 1) / mass(k)."""
        raise NotImplementedError

    @cached_property
    def cdf_table(self) -> np.ndarray:
        return _cdf_table(self, self._ratio())


@dataclass(frozen=True)
class Geometric(DiscreteMarginal):
    """P(k) = ratio^k (1 - ratio) on k = 0, 1, 2, ..."""

    ratio: float

    def __post_init__(self):
        if not 0.0 < self.ratio < 1.0:
            raise ValueError(f"geometric ratio must lie in (0,1), got {self.ratio}")

    def density(self, k: int) -> float:
        if k < 0:
            return 0.0
        return self.ratio ** k * (1.0 - self.ratio)

    def mode(self) -> int:
        return 0

    @cached_property
    def _log_ratio(self) -> np.float64:
        return np.log(self.ratio)

    def sample(self, rng: CountingRng) -> int:
        return int(_geometric_inverse(rng.uniform(), self._log_ratio))

    def _cells(self) -> tuple[float, float, int]:
        # sum_j j N_j with N_j ~ Poisson(r^j / j)
        return self.ratio, self.ratio, 0

    def support_bounds(self) -> tuple[float, float]:
        return 0, math.inf


@dataclass(frozen=True)
class Poisson(_TableLaw):
    """P(k) = e^-rate rate^k / k!.  rate = 0 degenerates to the point mass at 0.

    Every rate draws by one-uniform cdf inversion.  A rate above 614,400
    raises ValueError: its table would pass 620,000 entries (about 5 MB),
    and the density, formed as exp(k·ln rate − rate − ln k!), loses
    precision as those terms grow and cancel.
    """

    rate: float

    _RATE_LIMIT = 614_400.0

    def __post_init__(self):
        if self.rate < 0.0 or not math.isfinite(self.rate):
            raise ValueError(f"poisson rate must be finite and >= 0, got {self.rate}")
        if self.rate > self._RATE_LIMIT:
            raise ValueError(f"poisson rate {self.rate:g} exceeds the limit {self._RATE_LIMIT:g}")

    def density(self, k: int) -> float:
        if k < 0:
            return 0.0
        if self.rate == 0.0:
            return 1.0 if k == 0 else 0.0
        return math.exp(k * math.log(self.rate) - self.rate - math.lgamma(k + 1))

    def mode(self) -> int:
        return max(0, math.ceil(self.rate) - 1)

    def _ratio(self) -> Callable[[int], float]:
        rate = self.rate
        return lambda k: rate / (k + 1)

    def _cells(self) -> tuple[float, float, int]:
        return self.rate, 0.0, 0

    def support_bounds(self) -> tuple[float, float]:
        return 0, (0 if self.rate == 0.0 else math.inf)


@dataclass(frozen=True)
class Bernoulli(DiscreteMarginal):
    """P(1) = success, P(0) = 1 - success."""

    success: float

    def __post_init__(self):
        if not 0.0 < self.success < 1.0:
            raise ValueError(f"bernoulli success must lie in (0,1), got {self.success}")

    def density(self, k: int) -> float:
        if k == 1:
            return self.success
        if k == 0:
            return 1.0 - self.success
        return 0.0

    def mode(self) -> int:
        return 1 if self.success > 0.5 else 0

    def sample(self, rng: CountingRng) -> int:
        return 0 if rng.uniform() < 1.0 - self.success else 1

    def _cells(self) -> tuple[float, float, int]:
        return -math.log1p(-self.success), 0.0, 1

    def support_bounds(self) -> tuple[float, float]:
        return 0, 1


@dataclass(frozen=True)
class Binomial(_TableLaw):
    """Binomial(trials, success) on k = 0..trials."""

    trials: int
    success: float

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"binomial needs >= 1 trial, got {self.trials}")
        if not 0.0 < self.success < 1.0:
            raise ValueError(f"binomial success must lie in (0,1), got {self.success}")

    def density(self, k: int) -> float:
        m, p = self.trials, self.success
        if k < 0 or k > m:
            return 0.0
        log_p = (
            math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1)
            + k * math.log(p) + (m - k) * math.log1p(-p)
        )
        return math.exp(log_p)

    def mode(self) -> int:
        edge = (self.trials + 1) * self.success
        k = math.floor(edge)
        if k == edge and k >= 1:
            k -= 1  # tie with k-1; report the smaller argmax
        return min(max(k, 0), self.trials)

    def _ratio(self) -> Callable[[int], float]:
        m, p = self.trials, self.success
        q = p / (1.0 - p)
        return lambda k: q * (m - k) / (k + 1)

    def _cells(self) -> tuple[float, float, int]:
        return -math.log1p(-self.success), 0.0, self.trials

    def support_bounds(self) -> tuple[float, float]:
        return 0, self.trials


@dataclass(frozen=True)
class NegativeBinomial(_TableLaw):
    """P(k) = C(blocks+k-1, k) (1-ratio)^blocks ratio^k on k >= 0.

    Counts failures before the blocks-th success; mode floor((blocks-1)
    ratio / (1-ratio)).
    """

    blocks: int
    ratio: float

    def __post_init__(self):
        if self.blocks < 1:
            raise ValueError(f"negative binomial needs >= 1 block, got {self.blocks}")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError(f"negative binomial ratio must lie in (0,1), got {self.ratio}")

    def density(self, k: int) -> float:
        if k < 0:
            return 0.0
        m, x = self.blocks, self.ratio
        log_p = (
            math.lgamma(m + k) - math.lgamma(k + 1) - math.lgamma(m)
            + m * math.log1p(-x) + k * math.log(x)
        )
        return math.exp(log_p)

    def mode(self) -> int:
        edge = (self.blocks - 1) * self.ratio / (1.0 - self.ratio)
        k = math.floor(edge)
        if k == edge and k >= 1:
            k -= 1
        return k

    def _ratio(self) -> Callable[[int], float]:
        m, x = self.blocks, self.ratio
        return lambda k: x * (m + k) / (k + 1)

    def _cells(self) -> tuple[float, float, int]:
        # a sum of ``blocks`` independent Geometric(ratio)
        return self.blocks * self.ratio, self.ratio, 0

    def support_bounds(self) -> tuple[float, float]:
        return 0, math.inf


@dataclass(frozen=True)
class UniformInt(DiscreteMarginal):
    """Uniform on the integers lo..hi inclusive."""

    lo: int
    hi: int

    flat = True

    def __post_init__(self):
        if self.hi < self.lo:
            raise ValueError(f"empty integer range [{self.lo}, {self.hi}]")

    def density(self, k: int) -> float:
        if self.lo <= k <= self.hi:
            return 1.0 / (self.hi - self.lo + 1)
        return 0.0

    def mode(self) -> int:
        return self.lo

    def sample(self, rng: CountingRng) -> int:
        span = self.hi - self.lo + 1
        k = self.lo + int(rng.uniform() * span)
        return min(k, self.hi)

    def support_bounds(self) -> tuple[float, float]:
        return self.lo, self.hi


@dataclass(frozen=True)
class SignedUnit(DiscreteMarginal):
    """Uniform on {-1, +1}."""

    flat = True
    step = 2

    def density(self, k: int) -> float:
        return 0.5 if k in (-1, 1) else 0.0

    def mode(self) -> int:
        return -1

    def sample(self, rng: CountingRng) -> int:
        return -1 if rng.uniform() < 0.5 else 1

    def support_bounds(self) -> tuple[float, float]:
        return -1, 1


@dataclass(frozen=True)
class UniformReal(ContinuousMarginal):
    """Uniform density on [lo, hi]."""

    lo: float
    hi: float

    flat = True

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError(f"empty real interval [{self.lo}, {self.hi}]")

    def density(self, y: float) -> float:
        if self.lo <= y <= self.hi:
            return 1.0 / (self.hi - self.lo)
        return 0.0

    def sup_density(self) -> float:
        return 1.0 / (self.hi - self.lo)

    def sample(self, rng: CountingRng) -> float:
        return self.lo + (self.hi - self.lo) * rng.uniform()

    def support_bounds(self) -> tuple[float, float]:
        return self.lo, self.hi


@dataclass(frozen=True)
class Exponential(ContinuousMarginal):
    """Density rate e^(-rate y) on y >= 0."""

    rate: float

    def __post_init__(self):
        if not self.rate > 0.0:
            raise ValueError(f"exponential rate must be > 0, got {self.rate}")

    def density(self, y: float) -> float:
        if y < 0.0:
            return 0.0
        return self.rate * math.exp(-self.rate * y)

    def sup_density(self) -> float:
        return self.rate

    def sample(self, rng: CountingRng) -> float:
        return -math.log1p(-rng.uniform()) / self.rate

    def support_bounds(self) -> tuple[float, float]:
        return 0.0, math.inf


@dataclass(frozen=True)
class Beta(ContinuousMarginal):
    """Beta(alpha, beta) on (0, 1).

    sup_density is the density value at the interior mode
    (alpha-1)/(alpha+beta-2) and exists only for alpha >= 1, beta >= 1
    (the density is unbounded otherwise).  Sampling uses the two-gamma
    construction G1/(G1+G2), so its uniform consumption is random.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0.0 and self.beta > 0.0):
            raise ValueError(f"beta parameters must be > 0, got ({self.alpha}, {self.beta})")

    def _log_norm(self) -> float:
        return math.lgamma(self.alpha + self.beta) - math.lgamma(self.alpha) - math.lgamma(self.beta)

    def density(self, y: float) -> float:
        a, b = self.alpha, self.beta
        if y < 0.0 or y > 1.0:
            return 0.0
        if y == 0.0:
            if a > 1.0:
                return 0.0
            return math.exp(self._log_norm()) if a == 1.0 else math.inf
        if y == 1.0:
            if b > 1.0:
                return 0.0
            return math.exp(self._log_norm()) if b == 1.0 else math.inf
        return math.exp(self._log_norm() + (a - 1.0) * math.log(y) + (b - 1.0) * math.log1p(-y))

    def sup_density(self) -> float:
        a, b = self.alpha, self.beta
        if a < 1.0 or b < 1.0:
            raise UnboundedDensity(f"Beta({a}, {b}) density is unbounded")
        if a == 1.0 and b == 1.0:
            return 1.0
        mode = (a - 1.0) / (a + b - 2.0)
        return self.density(mode)

    def sample(self, rng: CountingRng) -> float:
        g1 = _gamma_variate(self.alpha, rng)
        g2 = _gamma_variate(self.beta, rng)
        return g1 / (g1 + g2)

    def support_bounds(self) -> tuple[float, float]:
        return 0.0, 1.0

    def in_support(self, y: float) -> bool:
        # the ends are open
        return 0.0 < y < 1.0


@dataclass(frozen=True)
class Normal(ContinuousMarginal):
    """Gaussian with the given mean and variance; two uniforms per draw."""

    mean: float = 0.0
    variance: float = 1.0

    def __post_init__(self):
        if not self.variance > 0.0:
            raise ValueError(f"normal variance must be > 0, got {self.variance}")

    def density(self, y: float) -> float:
        z = (y - self.mean) ** 2 / (2.0 * self.variance)
        return math.exp(-z) / math.sqrt(2.0 * math.pi * self.variance)

    def sup_density(self) -> float:
        return 1.0 / math.sqrt(2.0 * math.pi * self.variance)

    def sample(self, rng: CountingRng) -> float:
        return self.mean + math.sqrt(self.variance) * _standard_normal(rng)


@dataclass(frozen=True)
class AbsWeightedGaussian(ContinuousMarginal):
    """Density |y| e^(-y^2) on the line.

    The square of a draw is Exponential(1), which makes this the natural
    coordinate law for sphere-surface conditioning: sample sqrt(Exp(1))
    and attach a fair sign (two uniforms total).
    """

    def density(self, y: float) -> float:
        return abs(y) * math.exp(-y * y)

    def sup_density(self) -> float:
        # |y| e^(-y^2) peaks at |y| = 1/sqrt(2)
        return math.exp(-0.5) / math.sqrt(2.0)

    def sample(self, rng: CountingRng) -> float:
        mag = math.sqrt(-math.log1p(-rng.uniform()))
        return mag if rng.uniform() < 0.5 else -mag


def _geometric_inverse(u, log_ratio):
    """floor(log1p(-u) / log r): Geometric's inversion, for one uniform or a block."""
    return np.floor_divide(np.log1p(-u), log_ratio)


def block_inversion(marginals) -> tuple[Callable, list[int] | None] | None:
    """The vector form of ``sample`` for a block of marginals, or None.

    Returns ``(invert, tops)``: ``invert(u)`` maps one uniform per marginal
    to the value its ``sample`` gives, and ``tops`` bounds each integer
    value, or is None for real values.  None for an empty block, a marginal
    without a rule, or a mix of kinds other than cdf tables.  ``invert``
    also maps a K x c array row by row, to the values the K rows give one
    at a time: a closed-form one is elementwise, and a cdf-table one counts
    the entries below each uniform per (row, coordinate), never shifting
    a table by its row (that would drop low bits of the cdf).
    """
    if not marginals:
        return None
    kinds = {type(m) for m in marginals}
    if kinds == {Geometric}:
        logr = np.array([m._log_ratio for m in marginals])

        def invert(u):
            return _geometric_inverse(u, logr).astype(np.int64)

        # 1 - 2^-53 is the largest uniform a CountingRng hands out
        return invert, invert(np.full(len(marginals), 1.0 - 2.0 ** -53)).tolist()
    if kinds == {Bernoulli}:
        fail = 1.0 - np.array([m.success for m in marginals])
        return (lambda u: (u >= fail).astype(np.int64)), [1] * len(marginals)
    if kinds == {UniformReal}:
        lo = np.array([m.lo for m in marginals])
        span = np.array([m.hi - m.lo for m in marginals])
        return (lambda u: lo + span * u), None
    tables = [getattr(m, "cdf_table", None) for m in marginals]
    if any(t is None for t in tables):
        return None
    # u_i exceeds the first k entries of table i exactly when the value is k
    count = len(tables)
    lengths = [len(t) for t in tables]
    flat = np.concatenate(tables)
    rows = np.repeat(np.arange(count), lengths)

    def invert(u):
        if u.ndim == 1:
            return np.bincount(rows[flat < u[rows]], minlength=count)
        # the hits of row r land in bins r * count + i, so an empty table
        # counts 0 in every row
        bins = rows + count * np.arange(u.shape[0])[:, None]
        hits = bins[flat < u[:, rows]]
        return np.bincount(hits, minlength=u.size).reshape(u.shape)

    return invert, lengths


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, k) over the rows of a ragged array: row i holds k = 0..counts[i]-1."""
    owner = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    return owner, np.arange(owner.size) - starts[owner]


def _log_tails(a: np.ndarray, r: np.ndarray, cap: np.ndarray) -> np.ndarray:
    """sum_{j > cap} a r^(j-1) / j for each row, 0 < r < 1, without cancellation.

    Where c = (cap + 1)(-log r) <= 4 the tail is at least E1(4), about
    4e-3, of the whole sum, so it is the whole, (a / r)(-log(1 - r)), less
    the first cap terms.  Elsewhere it is the series from j = cap + 1: each
    term is below r times the one before, so K terms leave out less than
    r^K / (1 - r) of the first, and K is taken to make that 2^-53.
    """
    tails = np.zeros(len(a))
    logr = np.log(r)
    near = (cap + 1) * -logr <= 4.0
    for i in np.flatnonzero(near):
        ai, ri = float(a[i]), float(r[i])
        head = math.fsum(ai * ri ** (j - 1) / j for j in range(1, int(cap[i]) + 1))
        tails[i] = ai / ri * -math.log1p(-ri) - head
    first = a * np.power(r, cap) / (cap + 1)
    far = np.flatnonzero(~near & (first > 0.0))
    if far.size:
        terms = np.ceil((53 * math.log(2.0) - np.log1p(-r[far])) / -logr[far]).astype(np.int64)
        row, k = _ragged(terms)
        j = cap[far][row] + 1 + k
        tails[far] = np.bincount(
            row, weights=a[far][row] * np.power(r[far][row], j - 1) / j, minlength=far.size
        )
    return tails


def _cell_table(marginals, caps, floor: float, limit: int):
    """The cells (``_cells``) of a block of laws, or None.

    Returns ``(owner, jump, hit, hazard, dead)``: cell c belongs to
    marginal owner[c], holds the jump jump[c] (1 for a hit cell, hit[c])
    and has hazard hazard[c].  Jumps above a marginal's cap are merged into
    one dead hazard, ``dead``: every cell of a law whose cap is 0, and the
    count cells j > cap.  Cells of hazard at most ``floor`` are left out;
    a r^(j-1) / j falls with j, so a law's count cells are formed only up
    to the first that must be.  None when a marginal has no cells or the
    block would form more than ``limit`` cells.
    """
    laws = [m._cells() for m in marginals]
    if not laws or None in laws:
        return None
    a, r, hits = (np.array(col) for col in zip(*laws))
    caps = np.asarray(caps, dtype=np.int64)
    count = hits == 0
    geometric = count & (r > 0.0)
    # count cells past j = 1 + log(floor / a) / log r have a r^(j-1) < floor
    last = np.ones(len(a), dtype=np.int64)
    with np.errstate(divide="ignore"):
        reach = 1.0 + np.log(floor / a[geometric]) / np.log(r[geometric])
    last[geometric] = np.minimum(np.maximum(reach, 1.0), float(limit) + 1.0)
    listed = np.where(count, np.minimum(caps, last), np.where(caps > 0, hits, 0))
    if listed.sum() > limit:
        return None
    owner, k = _ragged(listed)
    hit = ~count[owner]
    jump = np.where(hit, 1, k + 1)
    hazard = a[owner] * np.where(hit, 1.0, np.power(r[owner], k) / (k + 1))
    kept = hazard > floor
    owner, jump, hit, hazard = owner[kept], jump[kept], hit[kept], hazard[kept]
    # a law of cap 0 is dead whole
    dead = np.where(caps > 0, 0.0, np.where(count, a, hits * a))
    dead[geometric] = _log_tails(a[geometric], r[geometric], caps[geometric])
    return owner, jump, hit, hazard, math.fsum(dead.tolist())

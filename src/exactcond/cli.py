"""Command-line surface: sample, benchmark, verify.

Data goes to stdout, logs to stderr.  Every float is printed with 12
significant digits so fixed-seed runs diff byte-for-byte.  Exit codes:
0 success (verify: all checks passed), 1 a verification check failed,
2 bad configuration, 3 the rejection loop hit its attempt cap, 4 the
enumeration oracle refused the support size.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import sys

from .engine import DEFAULT_MAX_ATTEMPTS, SampleRecord, dsh_sample, hard_rejection_sample
from .errors import (
    InfeasibleTarget,
    InvalidFamily,
    InvalidProfile,
    NonTerminating,
    SupportTooLarge,
)
from .geometry import borel_conditional_sample, sample_hypersimplex, sample_permutahedron
from .marginals import CountingRng, derive_seed
from .structures import (
    Assembly,
    DistinctPartition,
    EwensProfile,
    Multiset,
    Partition,
    PlaneGrid,
    PlanePartitionGrid,
    Selection,
    SetPartition,
    build_problem,
    outcome_counts,
    sample_structure,
)
from .verify import (
    benchmark,
    chi_squared_gof,
    enumerate_conditional,
    ks_statistic,
    merge_cost_stats,
    speedup_ratio,
)

DEFAULT_SEED = 1729
SEED_ENV_VAR = "EXACTCOND_SEED"

FAMILY_NAMES = (
    "partition",
    "distinct",
    "selection",
    "multiset",
    "assembly",
    "setpartition",
    "planegrid",
    "ewens",
)
GEOMETRY_NAMES = ("hypersimplex", "permutahedron", "borel")

P_THRESHOLD = 1e-3


class ConfigError(Exception):
    pass


def fmt(value) -> str:
    """12-significant-digit text for floats, exact text for the rest."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize {value}")
        return "%.12g" % value
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(fmt(v) for v in value) + "]"
    return fmt(float(value))


def _record_line(fields: list[tuple[str, object]]) -> str:
    body = ",".join(f"{json.dumps(k)}:{fmt(v)}" for k, v in fields)
    return "{" + body + "}"


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
    return DEFAULT_SEED


def _parse_multiplicities(text: str | None):
    if text is None:
        return None
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"bad multiplicity list {text!r}")


def _make_family(name: str, args):
    if args.n is None:
        raise ConfigError(f"{name} needs --n")
    n = int(args.n)
    tilt = args.tilt
    mult = _parse_multiplicities(getattr(args, "multiplicities", None))
    if name == "partition":
        return Partition(n, tilt=tilt)
    if name == "distinct":
        return DistinctPartition(n, tilt=tilt)
    if name == "selection":
        return Selection(n, multiplicities=mult, tilt=tilt)
    if name == "multiset":
        return Multiset(n, multiplicities=mult, tilt=tilt)
    if name == "assembly":
        return Assembly(n, multiplicities=mult, tilt=tilt)
    if name == "setpartition":
        return SetPartition(n, tilt=tilt)
    if name == "planegrid":
        return PlanePartitionGrid(
            n, tilt=tilt, truncate_cells=not getattr(args, "full_grid", False)
        )
    if name == "ewens":
        if args.k is None:
            raise ConfigError("ewens needs --k (number of blocks)")
        return EwensProfile(n, blocks=int(args.k), theta=args.theta, tilt=tilt)
    raise ConfigError(f"unknown family {name!r}")


def _outcome_payload(value):
    if isinstance(value, PlaneGrid):
        return [list(entry) for entry in value.entries]
    if hasattr(value, "counts"):
        return list(value.counts)
    if isinstance(value, tuple):
        return list(value)
    return value


def _sample_one(target: str, args, rng: CountingRng):
    if target in FAMILY_NAMES:
        family = _make_family(target, args)
        return sample_structure(
            family, rng, method=args.method or "dsh", max_attempts=args.max_attempts
        )
    if target == "hypersimplex":
        if args.n is None or args.k is None:
            raise ConfigError("hypersimplex needs --n and --k")
        return sample_hypersimplex(int(args.n), float(args.k), rng)
    if target == "permutahedron":
        if args.n is None:
            raise ConfigError("permutahedron needs --n")
        return sample_permutahedron(
            int(args.n), rng, max_attempts=args.max_attempts
        )
    if target == "borel":
        return borel_conditional_sample(
            args.variant, rng, max_attempts=args.max_attempts
        )
    raise ConfigError(f"unknown sample target {target!r}")


def _refuse_method(args):
    if args.method is not None and args.target not in FAMILY_NAMES:
        raise ConfigError(f"--method applies to structure families, not {args.target}")


def run_sample(args) -> int:
    seed = _resolve_seed(args)
    _refuse_method(args)
    n_field = int(args.n) if args.n is not None else None
    out = sys.stdout
    if args.format == "csv":
        out.write("schema,family,n,seed,index,outcome,attempts,rng_calls\n")
    for index in range(args.count):
        rng = CountingRng(derive_seed(seed, index))
        value, rec = _sample_one(args.target, args, rng)
        payload = _outcome_payload(value)
        if args.format == "jsonl":
            line = _record_line(
                [
                    ("schema", 1),
                    ("family", args.target),
                    ("n", n_field),
                    ("seed", seed),
                    ("index", index),
                    ("outcome", payload),
                    ("attempts", rec.attempts),
                    ("rng_calls", rec.rng_calls),
                ]
            )
        else:
            outcome_text = fmt(payload).replace('"', '""')
            line = ",".join(
                [
                    "1",
                    args.target,
                    fmt(n_field),
                    str(seed),
                    str(index),
                    f'"{outcome_text}"',
                    str(rec.attempts),
                    str(rec.rng_calls),
                ]
            )
        out.write(line + "\n")
    return 0


def _benchmark_shard(family, method: str, trials: int, seed: int, max_attempts: int):
    problem = build_problem(family)
    engine = hard_rejection_sample if method == "hard" else dsh_sample
    return benchmark(
        lambda rng: engine(problem, rng, max_attempts=max_attempts), trials, CountingRng(seed)
    )


def _sharded_benchmark(family, method, trials, row_seed, jobs, max_attempts):
    base = trials // jobs
    sizes = [base + (1 if i < trials % jobs else 0) for i in range(jobs)]
    shards = [
        (family, method, size, derive_seed(row_seed, i), max_attempts)
        for i, size in enumerate(sizes)
        if size > 0
    ]
    if len(shards) == 1:
        return _benchmark_shard(*shards[0])
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        parts = list(pool.map(_benchmark_shard, *zip(*shards)))
    return merge_cost_stats(parts)


def run_benchmark(args) -> int:
    seed = _resolve_seed(args)
    try:
        ns = [int(v) for v in args.n.split(",")]
    except (ValueError, AttributeError):
        raise ConfigError(f"--n must be a comma-separated integer list, got {args.n!r}")
    methods = args.methods.split(",")
    for m in methods:
        if m not in ("hard", "dsh"):
            raise ConfigError(f"unknown benchmark method {m!r}")
    if args.jobs < 1:
        raise ConfigError("--jobs must be at least 1")

    rows = []
    for n_index, n in enumerate(ns):
        args.n = n
        family = _make_family(args.target, args)
        stats = {}
        for m_index, method in enumerate(methods):
            row_seed = derive_seed(seed, n_index * 64 + m_index + 1)
            stats[method] = _sharded_benchmark(
                family, method, args.trials, row_seed, args.jobs, args.max_attempts
            )
        if "hard" in stats:
            baseline = stats["hard"]
        else:
            base_seed = derive_seed(seed, n_index * 64)
            baseline = _sharded_benchmark(
                family, "hard", args.trials, base_seed, args.jobs, args.max_attempts
            )
        for method in methods:
            s = stats[method]
            rows.append(
                [
                    1,
                    args.target,
                    n,
                    method,
                    s.trials,
                    s.accept_rate,
                    s.rng_calls_per_sample,
                    speedup_ratio(baseline, s),
                ]
            )

    header = [
        "schema",
        "family",
        "n",
        "method",
        "trials",
        "accept_rate",
        "rng_calls_per_sample",
        "speedup_vs_hard",
    ]
    out = sys.stdout
    if args.format == "csv":
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(fmt(v) if not isinstance(v, str) else v for v in row) + "\n")
    else:
        for row in rows:
            out.write(_record_line(list(zip(header, row))) + "\n")
    return 0


def _verify_family(target: str, args, seed: int):
    family = _make_family(target, args)
    problem = build_problem(family)
    exact = enumerate_conditional(problem, support_cap=args.support_cap)
    rng = CountingRng(derive_seed(seed, 0))
    counts = outcome_counts(family, (
        sample_structure(
            family, rng, method=args.method or "dsh", max_attempts=args.max_attempts
        )[0]
        for _ in range(args.trials)
    ))
    expected = {k: exact.prob(k) * args.trials for k in exact.support()}
    stat, dof, p = chi_squared_gof(counts, expected)
    return ("chi2", len(exact.support()), stat, dof, p)


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


def _verify_borel(args, seed: int):
    rng = CountingRng(derive_seed(seed, 0))
    draws = []
    for _ in range(args.trials):
        value, _rec = borel_conditional_sample(
            args.variant, rng, max_attempts=args.max_attempts
        )
        draws.append(value)
    stat, p = ks_statistic(draws, _borel_cdf(args.variant))
    return ("ks", args.trials, stat, 0, p)


def run_verify(args) -> int:
    seed = _resolve_seed(args)
    _refuse_method(args)
    if args.target == "borel":
        kind, cells, stat, dof, p = _verify_borel(args, seed)
        label = f"borel variant={args.variant}"
    elif args.target in FAMILY_NAMES:
        kind, cells, stat, dof, p = _verify_family(args.target, args, seed)
        label = f"{args.target} n={int(args.n)}"
        if args.target == "ewens":
            label += f" k={int(args.k)}"
    else:
        raise ConfigError(f"unknown verify target {args.target!r}")
    passed = p > P_THRESHOLD
    verdict = "pass" if passed else "FAIL"
    print(
        f"{label} test={kind} cells={cells} statistic={fmt(float(stat))} "
        f"dof={dof} p_value={fmt(float(p))} trials={args.trials} {verdict}"
    )
    return 0 if passed else 1


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--n", default=None, help="structure size (benchmark: comma list)")
    p.add_argument("--k", type=float, default=None, help="block count or level")
    p.add_argument("--theta", type=float, default=1.0, help="cycle-weight parameter")
    p.add_argument("--tilt", type=float, default=None, help="override the default tilt")
    p.add_argument(
        "--multiplicities", default=None, help="comma list of per-size type counts"
    )
    p.add_argument(
        "--full-grid", action="store_true",
        help="keep grid cells whose weight already exceeds the target",
    )
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--max-attempts", type=int, default=DEFAULT_MAX_ATTEMPTS, dest="max_attempts"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactcond",
        description=(
            "Exact conditional sampling with deterministic completion. "
            f"Default seed {DEFAULT_SEED}; override with --seed or {SEED_ENV_VAR}."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_sample = sub.add_parser("sample", help="draw structures or points")
    p_sample.add_argument("target", choices=FAMILY_NAMES + GEOMETRY_NAMES)
    _add_common(p_sample)
    p_sample.add_argument("--count", type=int, default=1)
    p_sample.add_argument(
        "--method", choices=("hard", "dsh"), default=None,
        help="structure families only (default dsh)",
    )
    p_sample.add_argument("--variant", type=int, choices=(1, 2, 3), default=1)
    p_sample.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p_sample.set_defaults(run=run_sample)

    p_bench = sub.add_parser("benchmark", help="measure rejection cost per sample")
    p_bench.add_argument("target", choices=FAMILY_NAMES)
    _add_common(p_bench)
    p_bench.add_argument("--methods", default="hard,dsh")
    p_bench.add_argument("--trials", type=int, default=1000)
    p_bench.add_argument("--jobs", type=int, default=1)
    p_bench.add_argument("--format", choices=("jsonl", "csv"), default="csv")
    p_bench.set_defaults(run=run_benchmark)

    p_verify = sub.add_parser("verify", help="test sampler output against an oracle")
    p_verify.add_argument("target", choices=FAMILY_NAMES + ("borel",))
    _add_common(p_verify)
    p_verify.add_argument("--trials", type=int, default=5000)
    p_verify.add_argument(
        "--method", choices=("hard", "dsh"), default=None,
        help="structure families only (default dsh)",
    )
    p_verify.add_argument("--variant", type=int, choices=(1, 2, 3), default=1)
    p_verify.add_argument(
        "--support-cap", type=int, default=100_000, dest="support_cap"
    )
    p_verify.set_defaults(run=run_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ConfigError, InvalidFamily, InvalidProfile, InfeasibleTarget, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonTerminating as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SupportTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

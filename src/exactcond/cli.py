"""Command-line surface: sample, benchmark, verify.

Data goes to stdout, logs to stderr.  Every float is printed with 12
significant digits so fixed-seed runs diff byte-for-byte.  One check,
``_check_options``, decides for every subcommand which options a target
takes and needs; ``sample_structure`` maps a method name to its engine.
Exit codes: 0 success (verify: all checks passed), 1 a verification
check failed, 2 bad configuration, 3 the rejection loop hit its attempt
cap, 4 the enumeration oracle refused the support size.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import math
import operator
import os
import sys
from functools import partial

from .engine import DEFAULT_MAX_ATTEMPTS
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
    METHODS,
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

FAMILIES = {cls.kind: cls for cls in (
    Partition, DistinctPartition, Selection, Multiset, Assembly, SetPartition,
    PlanePartitionGrid, EwensProfile,
)}
FAMILY_NAMES = tuple(FAMILIES)

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


def _parse_multiplicities(text: str):
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"bad multiplicity list {text!r}")


def _block_count(k: float) -> int:
    if not k.is_integer():
        raise ConfigError(f"--k must be a whole number of blocks, got {k}")
    return int(k)


# family field -> (the flag that sets it, how the parsed flag becomes the field)
_FAMILY_FLAGS = {
    "n": ("--n", None),  # parsed by _check_options
    "blocks": ("--k", _block_count),
    "multiplicities": ("--multiplicities", _parse_multiplicities),
    "theta": ("--theta", float),
    "tilt": ("--tilt", float),
    "truncate_cells": ("--full-grid", operator.not_),
}


# the options each geometry target takes; it needs each but --variant (default 1)
_GEOMETRY_FLAGS = {
    "hypersimplex": ("--n", "--k"), "permutahedron": ("--n",), "borel": ("--variant",)
}
GEOMETRY_NAMES = tuple(_GEOMETRY_FLAGS)

# every option that some targets take and others refuse, in the order they are checked
_TARGET_OPTIONS = ("--method", "--variant") + tuple(flag for flag, _ in _FAMILY_FLAGS.values())


def _flag_value(args, flag: str):
    # benchmark has no --method or --variant
    return getattr(args, flag[2:].replace("-", "_"), None)


def _check_options(args) -> None:
    """Refuse each option ``args.target`` does not take, and each it needs but lacks.

    A family takes --method and the flags of its fields, and needs those
    of its fields without a default.  Then --n becomes an int (benchmark:
    a list of ints), or is refused by name.
    """
    target = args.target
    if target in FAMILIES:
        fields = dataclasses.fields(FAMILIES[target])
        takes = ("--method",) + tuple(_FAMILY_FLAGS[f.name][0] for f in fields)
        needs = [_FAMILY_FLAGS[f.name][0] for f in fields if f.default is dataclasses.MISSING]
    else:
        takes = _GEOMETRY_FLAGS[target]
        needs = [flag for flag in takes if flag != "--variant"]
    for flag in _TARGET_OPTIONS:
        given = _flag_value(args, flag) is not None
        if given and flag not in takes:
            raise ConfigError(f"{target} takes no {flag}")
        if not given and flag in needs:
            raise ConfigError(f"{target} needs {flag}")
    if args.n is not None:
        many = args.subcommand == "benchmark"
        try:
            ns = [int(v) for v in args.n.split(",")]
        except ValueError:
            ns = []
        if not ns or len(ns) > 1 and not many:
            want = "a comma-separated integer list" if many else "an integer"
            raise ConfigError(f"--n must be {want}, got {args.n!r}")
        args.n = ns if many else ns[0]


def _make_family(name: str, args):
    """Build family ``name`` from the flags its dataclass declares."""
    cls = FAMILIES[name]
    kwargs = {}
    for f in dataclasses.fields(cls):
        flag, convert = _FAMILY_FLAGS[f.name]
        value = _flag_value(args, flag)
        if value is not None:
            kwargs[f.name] = value if convert is None else convert(value)
    return cls(**kwargs)


def _outcome_payload(value):
    if isinstance(value, PlaneGrid):
        return value.entries
    return getattr(value, "counts", value)


def _sampler(args):
    """The draw of one sample of ``args.target``, once ``_check_options`` has passed."""
    target = args.target
    cap = {"max_attempts": args.max_attempts}
    if target in FAMILY_NAMES:
        family = _make_family(target, args)
        return partial(sample_structure, family, method=args.method or "dsh", **cap)
    if target == "hypersimplex":
        return partial(sample_hypersimplex, args.n, args.k, **cap)
    if target == "permutahedron":
        return partial(sample_permutahedron, args.n, **cap)
    return partial(borel_conditional_sample, args.variant or 1, **cap)


def _write_rows(header, rows, format: str) -> None:
    """Write each row as it comes, as a JSONL record or a CSV line under ``header``.

    CSV prints strings bare and quotes the ``outcome`` cell.
    """
    out = sys.stdout
    if format == "csv":
        out.write(",".join(header) + "\n")
    for row in rows:
        if format == "jsonl":
            line = "{" + ",".join(f"{json.dumps(k)}:{fmt(v)}" for k, v in zip(header, row)) + "}"
        else:
            line = ",".join(_csv_cell(k, v) for k, v in zip(header, row))
        out.write(line + "\n")


def _csv_cell(name: str, value) -> str:
    if isinstance(value, str):
        return value
    text = fmt(value)
    return '"' + text.replace('"', '""') + '"' if name == "outcome" else text


def _refuse_below(flag: str, value: int, least: int) -> None:
    if value < least:
        raise ConfigError(f"{flag} must be at least {least}, got {value}")


def run_sample(args) -> int:
    _check_options(args)
    seed = _resolve_seed(args)
    _refuse_below("--count", args.count, 0)
    draw = _sampler(args)

    def rows():
        for index in range(args.count):
            value, rec = draw(CountingRng(derive_seed(seed, index)))
            payload = _outcome_payload(value)
            yield 1, args.target, args.n, seed, index, payload, rec.attempts, rec.rng_calls

    _write_rows(
        ("schema", "family", "n", "seed", "index", "outcome", "attempts", "rng_calls"),
        rows(), args.format,
    )
    return 0


def _benchmark_shard(family, method: str, trials: int, seed: int, max_attempts: int):
    return benchmark(
        lambda rng: sample_structure(family, rng, method=method, max_attempts=max_attempts)[1],
        trials, CountingRng(seed),
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
    # a fork pool starts all its workers at the first submit, so ask for no idle ones
    workers = min(len(shards), os.cpu_count() or 1)
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(_benchmark_shard, *zip(*shards)))
    return merge_cost_stats(parts)


def run_benchmark(args) -> int:
    _check_options(args)
    seed = _resolve_seed(args)
    ns = args.n
    methods = args.methods.split(",")
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown benchmark method {m!r}")
    if len(set(methods)) < len(methods):
        raise ConfigError(f"--methods names a method twice: {args.methods}")
    _refuse_below("--trials", args.trials, 1)
    _refuse_below("--jobs", args.jobs, 1)

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

    header = (
        "schema", "family", "n", "method", "trials", "accept_rate",
        "rng_calls_per_sample", "speedup_vs_hard",
    )
    _write_rows(header, rows, args.format)
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


def _verify_borel(variant: int, args, seed: int):
    rng = CountingRng(derive_seed(seed, 0))
    draws = []
    for _ in range(args.trials):
        value, _rec = borel_conditional_sample(variant, rng, max_attempts=args.max_attempts)
        draws.append(value)
    stat, p = ks_statistic(draws, _borel_cdf(variant))
    return ("ks", args.trials, stat, 0, p)


def run_verify(args) -> int:
    _check_options(args)
    seed = _resolve_seed(args)
    _refuse_below("--trials", args.trials, 1)
    if args.target == "borel":
        variant = args.variant or 1
        kind, cells, stat, dof, p = _verify_borel(variant, args, seed)
        label = f"borel variant={variant}"
    else:
        kind, cells, stat, dof, p = _verify_family(args.target, args, seed)
        label = f"{args.target} n={args.n}"
        if args.target == "ewens":
            label += f" k={int(args.k)}"
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
    p.add_argument(
        "--theta", type=float, default=None, help="cycle-weight parameter (default 1)"
    )
    p.add_argument("--tilt", type=float, default=None, help="override the default tilt")
    p.add_argument(
        "--multiplicities", default=None, help="comma list of per-size type counts"
    )
    p.add_argument(
        "--full-grid", action="store_true", default=None,
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
        "--support-cap", type=int, default=100_000, dest="support_cap"
    )
    p_verify.set_defaults(run=run_verify)

    for p in (p_sample, p_verify):
        p.add_argument(
            "--method", choices=METHODS, default=None,
            help="structure families only (default dsh)",
        )
        p.add_argument(
            "--variant", type=int, choices=(1, 2, 3), default=None,
            help="borel only (default 1)",
        )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _refuse_below("--max-attempts", args.max_attempts, 1)
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

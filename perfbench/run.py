"""Run one workload of the exactcond benchmark and print its metrics.

    python3 perfbench/run.py --workload struct-hooks --seed 1 --seconds 10 --trace 0

Run it from the root of a source tree (the directory holding ``src/`` and
``BENCHMARK.json``); it uses the package under ``src/`` and nothing
installed.  Workloads, metrics and units are those named in
``BENCHMARK.json``; ``perfbench/README.md`` says what each one measures.

``--trace 0`` prints the end-to-end metrics.  In-process workloads are
timed by the worker's CPU time, the cli workload by wall time.  Set-up
time is the median of three fresh interpreters, each timed from launch
until it has imported exactcond and warmed up; the last of them then runs
the timed loop.
``--trace 1`` prints the per-layer metrics: it runs the workload untraced
for half the time and traced for the other half, and times the package
import and a bare numpy import.  Detail (per-instance rows, the tail
percentile, law-check p-values, machine facts) goes on the line before
the result.  The last line of stdout is the result JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SETUP_RUNS = 3
IMPORT_RUNS = 3
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _spec() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        return json.load(f)


def _worker(args, *, seconds, trace=False, setup_only=False, deadline):
    """Start a worker; return (seconds from launch to ready, its result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--src", SRC]
    if trace:
        cmd += ["--trace", "--spans-out",
                os.path.join(HERE, "out", f"spans-{args.workload}.jsonl")]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{args.workload} worker ran past the deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{args.workload} worker exited with {proc.returncode}")
    if setup_only:
        return ready, None
    return ready, json.loads(rest.strip().splitlines()[-1])


def _timed(cmd, deadline) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=SRC),
                          timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        raise BenchError(f"{cmd} exited with {proc.returncode}")
    return time.perf_counter() - t0, proc


def import_breakdown(deadline) -> dict:
    """``-X importtime`` of the package, and a bare numpy import as a floor."""
    total, scipy_ms, floor = [], [], []
    for _ in range(IMPORT_RUNS):
        _, proc = _timed([sys.executable, "-X", "importtime", "-c", "import exactcond"], deadline)
        own = cum = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:"):
                continue
            try:
                self_us = int(parts[0].split(":")[1])
                cum_us = int(parts[1])
            except ValueError:
                continue  # the header row
            name = parts[2].strip()
            if name == "exactcond":
                cum = cum_us
            elif name == "scipy" or name.startswith("scipy."):
                own += self_us
        total.append(cum / 1e3)
        scipy_ms.append(own / 1e3)
        floor.append(_timed([sys.executable, "-c", "import numpy"], deadline)[0] * 1e3)
    return {"cli.import_ms": statistics.median(total),
            "cli.import_scipy_ms": statistics.median(scipy_ms),
            "cli.floor_ms": statistics.median(floor)}


def _correctness(result) -> tuple[int, int, bool]:
    laws = result.get("laws", {})
    attempted = result["requests"] + len(laws)
    failed = result["failed"] + sum(not law["ok"] for law in laws.values())
    return attempted, failed, failed == 0


def end_to_end(args, deadline) -> tuple[dict, dict, tuple]:
    setups = [_worker(args, seconds=args.seconds, setup_only=True, deadline=deadline)[0]
              for _ in range(SETUP_RUNS - 1)]
    ready, result = _worker(args, seconds=args.seconds, deadline=deadline)
    setups.append(ready)
    lat = result["latency"]
    metrics = {
        "throughput_rps": result["ok"] / result["busy_s"],
        "latency_p50_us": lat["p50_us"],
        "latency_tail_us": lat["tail_us"],
        "uniforms_per_sample": result["uniforms_per_sample"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    attempted, failed, ok = _correctness(result)
    detail = {
        "tail_percentile": lat["tail_pct"], "latency_count": lat["count"],
        "wall_throughput_rps": result["ok"] / result["wall_s"],
        "failed_frac": failed / attempted, "setup_runs_s": setups,
        **{k: result[k] for k in ("clock", "wall_s", "cpu_s", "requests", "rounds",
                                  "prefix_rounds", "prefix_samples", "inputs_sha256",
                                  "instances", "laws", "errors")},
    }
    return metrics, detail, (attempted, failed, ok)


def per_layer(args, deadline) -> tuple[dict, dict, tuple]:
    half = args.seconds / 2.0
    _, plain = _worker(args, seconds=half, deadline=deadline)
    _, traced = _worker(args, seconds=half, trace=True, deadline=deadline)
    t = traced["trace"]
    self_ns, incl, calls = t["self_ns"], t["incl_ns"], t["calls"]
    counts, pre = t["counts"], t["prefix_counts"]
    cli = args.workload == "cli"
    # per sample: per accepted request in-process; per engine result in the
    # cli, where one invocation draws many samples
    samples = max(counts["samples"] if cli else traced["ok"], 1)
    pre_samples = max(pre["samples"] if cli else traced["prefix_samples"], 1)
    pre_attempts = max(pre["attempts"], 1)

    def us(layer):
        return self_ns.get(layer, 0) / samples / 1e3

    def per_call_ms(layer):
        return incl.get(layer, 0) / max(calls.get(layer, 0), 1) / 1e6

    invocations = max(t.get("invocations", 0), 1)
    metrics = {
        "marginals.scalar_calls_per_sample": pre["uniform"] / pre_samples,
        "marginals.bulk_calls_per_sample": pre["uniforms"] / pre_samples,
        "marginals.inversions_per_sample": pre["inversion"] / pre_samples,
        "marginals.self_us_per_sample": us("marginals"),
        "engine.attempts_per_sample": pre["attempts"] / pre_samples,
        "engine.accept_rate": pre_samples / pre_attempts if pre["attempts"] else 0.0,
        "engine.dead_frac": pre["dead"] / pre_attempts,
        "engine.self_us_per_sample": us("engine"),
        "engine.complete_us_per_sample": us("complete"),
        "engine.us_per_attempt": incl.get("engine", 0) / max(counts["attempts"], 1) / 1e3,
        "structures.build_us_per_sample": incl.get("build", 0) / samples / 1e3,
        "structures.self_us_per_sample": us("structures"),
        "geometry.self_us_per_sample": us("geometry"),
        "verify.enumerate_ms": per_call_ms("verify.enumerate"),
        "verify.support_size": counts["support"] / max(calls.get("verify.enumerate", 0), 1),
        "verify.gof_ms": per_call_ms("verify.gof"),
        **import_breakdown(deadline),
        "cli.format_us_per_line": self_ns.get("fmt", 0) / max(t.get("output_lines", 0), 1) / 1e3,
        "cli.self_ms": (self_ns.get("cli", 0) + self_ns.get("fmt", 0)) / invocations / 1e6,
        "trace.overhead_frac": (traced["ok"] / traced["busy_s"]) / (plain["ok"] / plain["busy_s"]),
    }
    a1, f1, _ = _correctness(plain)
    a2, f2, _ = _correctness(traced)
    attempted, failed = a1 + a2, f1 + f2
    self_sum = sum(self_ns.values()) / 1e9
    detail = {
        "traced_wall_s": traced["wall_s"], "self_sum_s": self_sum,
        "outside_spans_s": traced["wall_s"] - self_sum,
        "layers_on_path": sorted(k for k, v in self_ns.items() if v > 0),
        "self_s": {k: v / 1e9 for k, v in self_ns.items()},
        "counts": counts, "prefix_counts": pre, "samples": samples,
        "inputs_sha256": traced["inputs_sha256"], "laws": plain["laws"],
        "errors": plain["errors"] + traced["errors"], "failed_frac": failed / attempted,
    }
    return metrics, detail, (attempted, failed, failed == 0)


def machine_facts() -> dict:
    from importlib import metadata

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as f:
                    lines += sum(1 for _ in f)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                cwd=ROOT, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "commit": commit, "src_lines": lines}


def main(argv=None) -> int:
    spec = _spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "exactcond", "__init__.py")):
        print(f"no exactcond source under {SRC}; run from the root of a source tree",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    try:
        if args.trace:
            values, detail, (attempted, failed, ok) = per_layer(args, deadline)
            wanted = spec["per_layer"]
        else:
            values, detail, (attempted, failed, ok) = end_to_end(args, deadline)
            wanted = spec["end_to_end"]
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc!r}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine_facts())
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload process of the exactcond benchmark.

Started by ``run.py`` as a fresh interpreter.  It imports exactcond and
warms up one request per instance (the set-up a user pays), prints
``ready``, then sends requests in a closed loop with one client until its
time is up, checks every output, and prints one JSON line of raw results.
With ``--trace`` it records spans (see ``tracing.py``) instead of running
the law checks.  Not meant to be run by hand.
"""

import argparse
import hashlib
import json
import math
import os
import random
import resource
import subprocess
import sys
import time

import exactcond  # the import every user pays, timed as set-up
import tracing
import workloads
from exactcond.marginals import CountingRng


def _args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans-out", default=None)
    return p.parse_args(argv)


def _median(vals):
    vals = sorted(vals)
    mid = len(vals) // 2
    return vals[mid] if len(vals) % 2 else (vals[mid - 1] + vals[mid]) / 2


def latency_summary(lat_ns: list) -> dict:
    """Median and tail: the highest whole percentile, up to p99, that
    leaves at least ten requests beyond it (the median below 20 requests)."""
    n = len(lat_ns)
    if n == 0:
        return {"p50_us": None, "tail_us": None, "tail_pct": None, "count": 0}
    q = max(50, min(99, int(100.0 * (1.0 - 10.0 / n)))) if n >= 20 else 50
    p50 = _median(lat_ns)
    # nearest rank
    tail = p50 if q == 50 else sorted(lat_ns)[math.ceil(q / 100.0 * n) - 1]
    return {"p50_us": p50 / 1e3, "tail_us": tail / 1e3, "tail_pct": q, "count": n}


class Loop:
    """Rounds of requests, their seeds, and the time limit."""

    def __init__(self, seed: int, seconds: float, prefix: int):
        self.rnd = random.Random(seed)
        self.seconds = seconds
        self.prefix = prefix
        self.rounds = 0
        self.digest = hashlib.sha256()
        self.start = time.perf_counter()
        self.start_cpu = time.process_time()

    def more(self) -> bool:
        # whole rounds only, so every run sends the same mix; stop at the
        # round boundary nearest the time limit
        if self.rounds < self.prefix:
            return True
        elapsed = time.perf_counter() - self.start
        return elapsed + 0.5 * elapsed / self.rounds <= self.seconds

    def round(self, schedule) -> list:
        """The next round: (instance index, request seed) in shuffled order."""
        order = list(schedule)
        self.rnd.shuffle(order)
        out = [(k, self.rnd.getrandbits(63)) for k in order]
        if self.rounds < self.prefix:
            self.digest.update(repr(out).encode())
        return out

    def in_prefix(self) -> bool:
        return self.rounds < self.prefix


class Tally:
    """Latencies, failures and per-instance rows of one run."""

    def __init__(self, names):
        self.lat: list[int] = []
        self.rows = [{"instance": n, "requests": 0, "lat": [], "samples": 0,
                      "attempts": 0, "uniforms": 0} for n in names]
        self.requests = self.failed = 0
        self.errors: list[str] = []
        self.prefix_uniforms = self.prefix_samples = 0

    def fail(self, message: str):
        self.failed += 1
        self.errors.append(message[:300])

    def ok(self, k, dt, *, samples, attempts, uniforms, in_prefix):
        self.lat.append(dt)
        row = self.rows[k]
        row["requests"] += 1
        row["lat"].append(dt)
        row["samples"] += samples
        row["attempts"] += attempts
        row["uniforms"] += uniforms
        if in_prefix:
            self.prefix_uniforms += uniforms
            self.prefix_samples += samples

    def result(self, loop: Loop, peak_rss_mb: float, clock: str) -> dict:
        wall = time.perf_counter() - loop.start
        cpu = time.process_time() - loop.start_cpu
        rows = []
        for row in self.rows:
            n, s = max(row["requests"], 1), max(row["samples"], 1)
            rows.append({
                "instance": row["instance"], "requests": row["requests"],
                "us_per_request": sum(row["lat"]) / n / 1e3,
                "p50_us": _median(row["lat"]) / 1e3 if row["lat"] else None,
                "attempts_per_sample": row["attempts"] / s,
                "uniforms_per_sample": row["uniforms"] / s,
            })
        return {
            "requests": self.requests, "ok": len(self.lat), "failed": self.failed,
            "errors": self.errors[:5], "wall_s": wall, "cpu_s": cpu, "clock": clock,
            "busy_s": cpu if clock == "cpu" else wall, "rounds": loop.rounds,
            "prefix_rounds": loop.prefix, "prefix_samples": self.prefix_samples,
            "uniforms_per_sample": self.prefix_uniforms / max(self.prefix_samples, 1),
            "latency": latency_summary(self.lat), "peak_rss_mb": peak_rss_mb,
            "inputs_sha256": loop.digest.hexdigest(), "instances": rows,
        }


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # kB on Linux


def run_in_process(args, rec):
    instances = workloads.IN_PROCESS[args.workload]()
    calls = [inst.call for inst in instances]
    if rec is not None:
        rec.install()
        calls = [rec.span(inst.name, inst.layer, inst.call) for inst in instances]
    warm = CountingRng(args.seed)
    for call in calls:
        call(warm)
    if rec is not None:
        rec.spans.clear()
    print("ready", flush=True)
    if args.setup_only:
        return None

    loop = Loop(args.seed, args.seconds, workloads.PREFIX_ROUNDS[args.workload])
    tally = Tally(inst.name for inst in instances)
    schedule = [i for i, inst in enumerate(instances) for _ in range(inst.share)]
    # CPU time of this single-threaded process: on a dedicated machine it
    # equals wall time, and on a shared one it leaves out the time the
    # host gives to others (steal), which otherwise swamps the spread
    now = time.process_time_ns
    while loop.more():
        for k, seed in loop.round(schedule):
            rng = CountingRng(seed)
            if rec is not None:
                rec.request, rec.round = tally.requests, loop.rounds
            tally.requests += 1
            t0 = now()
            try:
                value, record = calls[k](rng)
            except Exception as exc:  # any raise is a failed request
                tally.fail(f"{instances[k].name}: {exc!r}")
                continue
            dt = now() - t0
            if not (instances[k].check(value) and record.attempts >= 1
                    and record.rng_calls == rng.calls):
                tally.fail(f"{instances[k].name}: output failed its check")
                continue
            tally.ok(k, dt, samples=1, attempts=record.attempts, uniforms=record.rng_calls,
                     in_prefix=loop.in_prefix())
        loop.rounds += 1
    result = tally.result(loop, _peak_rss_mb(resource.RUSAGE_SELF), "cpu")
    if rec is not None:
        result["trace"] = tracing.summarize(rec.spans, loop.prefix)
        _write_spans(args.spans_out, (s.row() for s in rec.spans))
    return result


def run_cli(args):
    print("ready", flush=True)
    if args.setup_only:
        return None
    if args.trace:
        prog = [sys.executable, os.path.join(os.path.dirname(__file__), "cli_traced.py")]
    else:
        prog = [sys.executable, "-m", "exactcond"]
    env = dict(os.environ, PYTHONPATH=args.src)
    requests = workloads.cli_requests()
    loop = Loop(args.seed, args.seconds, workloads.PREFIX_ROUNDS["cli"])
    tally = Tally(r.name for r in requests)
    parts, spans, out_lines = [], [], 0
    while loop.more():
        for k, seed in loop.round(range(len(requests))):
            req = requests[k]
            tally.requests += 1
            t0 = time.perf_counter_ns()
            try:
                proc = subprocess.run(prog + req.argv(seed), capture_output=True, text=True,
                                      env=env, timeout=120)
            except subprocess.TimeoutExpired:
                tally.fail(f"{req.name}: timed out")
                continue
            dt = time.perf_counter_ns() - t0
            try:
                ok, uniforms, samples = req.check(proc.stdout)
            except (ValueError, KeyError, TypeError):
                ok = False
            if proc.returncode != 0 or not ok:
                tally.fail(f"{req.name}: exit {proc.returncode} {proc.stderr[-200:]!r}")
                continue
            tally.ok(k, dt, samples=samples, attempts=0, uniforms=uniforms,
                     in_prefix=loop.in_prefix())
            if args.trace:
                payload = json.loads(proc.stderr.rstrip().rsplit("\n", 1)[-1])
                summary = payload["summary"]
                if loop.in_prefix():
                    # one process is one request, all inside this round
                    summary["prefix_counts"] = summary["counts"]
                parts.append(summary)
                for row in payload["spans"]:
                    row["request"] = tally.requests - 1
                spans.extend(payload["spans"])
                out_lines += len(proc.stdout.splitlines())
        loop.rounds += 1
    result = tally.result(loop, _peak_rss_mb(resource.RUSAGE_CHILDREN), "wall")
    if args.trace:
        result["trace"] = dict(tracing.merge(parts), output_lines=out_lines,
                               invocations=len(parts))
        _write_spans(args.spans_out, spans)
    return result


def _write_spans(path, rows):
    if path is None:
        return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        for row in rows:
            f.write(json.dumps(row) + "\n")


def run_laws(workload: str) -> dict:
    out = {}
    for name, check in workloads.law_checks(workload).items():
        try:
            p = check()
        except Exception as exc:  # a raising check is a failed check
            out[name] = {"p_value": None, "ok": False, "error": repr(exc)[:300]}
            continue
        out[name] = {"p_value": p, "ok": p > workloads.LAW_P_MIN}
    return out


def main(argv=None) -> int:
    args = _args(argv)
    if not os.path.abspath(exactcond.__file__).startswith(os.path.abspath(args.src) + os.sep):
        print(f"exactcond came from {exactcond.__file__}, not {args.src}", file=sys.stderr)
        return 2
    if args.workload == "cli":
        result = run_cli(args)
    else:
        result = run_in_process(args, tracing.Recorder() if args.trace else None)
    if result is None:
        return 0
    result["laws"] = {} if args.trace else run_laws(args.workload)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span recorder for the traced run.

Only a traced process imports this module.  ``install`` replaces the
public callables at each layer boundary of exactcond with wrappers that
record one span per call, kept in memory and written out at the end.
The hot leaves (uniform draws, marginal inversions, pivot solves and
number formatting) run thousands of times per request, so they are not
spans of their own: each leaf call adds a count, and its time, to the
span that called it.  A span's self time is its duration minus its child
spans and its leaves.
"""

from __future__ import annotations

import time

_now = time.perf_counter_ns

# counters kept on every span; leaves add to the innermost open span
COUNTS = ("uniform", "uniforms", "inversion", "complete", "dead", "fmt",
          "attempts", "samples", "support")
(UNIFORM, UNIFORMS, INVERSION, COMPLETE, DEAD, FMT,
 ATTEMPTS, SAMPLES, SUPPORT) = range(len(COUNTS))

# layers timed as leaves rather than spans
LEAF_LAYERS = ("marginals", "complete", "fmt")
MARGINALS_NS, COMPLETE_NS, FMT_NS = range(len(LEAF_LAYERS))

# engine entry points, wrapped at the names where callers look them up
ENGINE_SAMPLERS = (
    "hard_rejection_sample",
    "dsh_discrete_sample",
    "dsh_continuous_sample",
    "dsh_uniform_weight_sample",
    "soft_rejection_sample",
)


class Span:
    __slots__ = ("id", "name", "layer", "parent", "request", "round",
                 "start", "end", "child_ns", "counts", "leaf_ns")

    def __init__(self, sid, name, layer, parent, request, round_):
        self.id = sid
        self.name = name
        self.layer = layer
        self.parent = parent
        self.request = request
        self.round = round_
        self.start = self.end = 0
        self.child_ns = 0
        self.counts = [0] * len(COUNTS)
        self.leaf_ns = [0] * len(LEAF_LAYERS)

    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns - sum(self.leaf_ns)

    def row(self) -> dict:
        return {
            "id": self.id, "name": self.name, "layer": self.layer,
            "parent": self.parent.id if self.parent is not None else None,
            "request": self.request, "round": self.round,
            "start_ns": self.start, "end_ns": self.end, "self_ns": self.self_ns(),
            "counts": dict(zip(COUNTS, self.counts)),
            "leaf_ns": dict(zip(LEAF_LAYERS, self.leaf_ns)),
        }


class Recorder:
    """Open-span stack plus the finished spans of one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.request = 0
        self.round = 0
        self._next_id = 0
        self._in_leaf = False

    def span(self, name, layer, fn, on_return=None):
        rec = self

        def wrapped(*args, **kwargs):
            parent = rec.stack[-1] if rec.stack else None
            s = Span(rec._next_id, name, layer, parent, rec.request, rec.round)
            rec._next_id += 1
            rec.stack.append(s)
            s.start = _now()
            try:
                out = fn(*args, **kwargs)
            finally:
                s.end = _now()
                rec.stack.pop()
                if parent is not None:
                    parent.child_ns += s.end - s.start
                rec.spans.append(s)
            if on_return is not None:
                on_return(s.counts, out)
            return out

        return wrapped

    def leaf(self, kind, leaf_layer, fn, on_return=None):
        rec = self

        def wrapped(*args, **kwargs):
            if not rec.stack:
                # every request runs inside a span the caller opened
                return fn(*args, **kwargs)
            top = rec.stack[-1]
            top.counts[kind] += 1
            if rec._in_leaf:
                # nested leaf: counted here, timed by the enclosing leaf
                out = fn(*args, **kwargs)
            else:
                rec._in_leaf = True
                t0 = _now()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    top.leaf_ns[leaf_layer] += _now() - t0
                    rec._in_leaf = False
            if on_return is not None:
                on_return(top.counts, out)
            return out

        return wrapped

    def install(self):
        """Wrap every layer boundary; call before any problem is built.

        Names a later version of the package no longer has are skipped,
        so their layer reads zero instead of breaking the run.
        """
        from exactcond import cli, engine, geometry, marginals, structures

        rng_cls = marginals.CountingRng
        for attr, kind in (("uniform", UNIFORM), ("uniforms", UNIFORMS)):
            if attr in vars(rng_cls):
                setattr(rng_cls, attr, self.leaf(kind, MARGINALS_NS, getattr(rng_cls, attr)))
        # marginal classes are patched at class level, before any problem
        # captures their bound .sample methods in its draw plan
        for obj in list(vars(marginals).values()):
            if isinstance(obj, type) and obj is not rng_cls and "sample" in vars(obj):
                obj.sample = self.leaf(INVERSION, MARGINALS_NS, obj.sample)

        def count_dead(counts, out):
            if out is None:
                counts[DEAD] += 1

        if hasattr(engine, "complete_from_sums"):
            engine.complete_from_sums = self.leaf(
                COMPLETE, COMPLETE_NS, engine.complete_from_sums, count_dead)

        def count_record(counts, out):
            counts[SAMPLES] += 1
            counts[ATTEMPTS] += getattr(out, "attempts", 0)

        for mod in (structures, geometry, cli):
            for name in ENGINE_SAMPLERS:
                if hasattr(mod, name):
                    setattr(mod, name, self.span(
                        f"engine.{name}", "engine", getattr(mod, name), count_record))

        def count_support(counts, out):
            counts[SUPPORT] += len(out.support())

        for mod in (structures, cli):
            if hasattr(mod, "build_problem"):
                mod.build_problem = self.span(
                    "structures.build_problem", "build", mod.build_problem)
        if hasattr(cli, "sample_structure"):
            cli.sample_structure = self.span(
                "structures.sample_structure", "structures", cli.sample_structure)
        if hasattr(cli, "enumerate_conditional"):
            cli.enumerate_conditional = self.span(
                "verify.enumerate_conditional", "verify.enumerate",
                cli.enumerate_conditional, count_support)
        if hasattr(cli, "chi_squared_gof"):
            cli.chi_squared_gof = self.span(
                "verify.chi_squared_gof", "verify.gof", cli.chi_squared_gof)
        if hasattr(cli, "fmt"):
            cli.fmt = self.leaf(FMT, FMT_NS, cli.fmt)


def summarize(spans, prefix_rounds: int | None = None) -> dict:
    """Per-layer totals of a span list.

    ``counts`` covers every span; ``prefix_counts`` only the spans of
    rounds below ``prefix_rounds``, the part of a run that is the same
    for every run at one seed.
    """
    self_ns: dict[str, int] = {}
    incl_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    counts = [0] * len(COUNTS)
    prefix = [0] * len(COUNTS)
    leaf_ns = [0] * len(LEAF_LAYERS)
    for s in spans:
        self_ns[s.layer] = self_ns.get(s.layer, 0) + s.self_ns()
        incl_ns[s.layer] = incl_ns.get(s.layer, 0) + s.end - s.start
        calls[s.layer] = calls.get(s.layer, 0) + 1
        in_prefix = prefix_rounds is not None and s.round < prefix_rounds
        for i, c in enumerate(s.counts):
            counts[i] += c
            if in_prefix:
                prefix[i] += c
        for i, t in enumerate(s.leaf_ns):
            leaf_ns[i] += t
    for i, name in enumerate(LEAF_LAYERS):
        self_ns[name] = self_ns.get(name, 0) + leaf_ns[i]
    return {
        "self_ns": self_ns,
        "incl_ns": incl_ns,
        "calls": calls,
        "counts": dict(zip(COUNTS, counts)),
        "prefix_counts": dict(zip(COUNTS, prefix)),
    }


def merge(parts) -> dict:
    """Sum several ``summarize`` results (one per traced process)."""
    out = {"self_ns": {}, "incl_ns": {}, "calls": {}, "counts": {}, "prefix_counts": {}}
    for part in parts:
        for key, table in out.items():
            for k, v in part[key].items():
                table[k] = table.get(k, 0) + v
    return out

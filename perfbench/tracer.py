"""Spans and counters around causalot's public functions, from outside.

The tracer rebinds, while it is installed, every module attribute of the
``causalot`` package that refers to one of the traced functions (so calls
between the library's own modules are seen too), plus
``jsonschema.validate`` as the CLI calls it, and the constructors of
``Spacetime`` and ``CurveMeasure``.  Uninstalling restores the originals.

Spans (name, start, end, parent, op id) and size counters stay in memory
while the benchmark runs; self times are derived from the spans at the
end, and the spans can be written out as JSON lines.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import Counter

import jsonschema

import causalot
import causalot.cli
import causalot.coupling
import causalot.curves
import causalot.measures
import causalot.spacetime
import causalot.synthesis
import causalot.timefunc

MODULES = (causalot, causalot.spacetime, causalot.timefunc, causalot.curves,
           causalot.measures, causalot.coupling, causalot.synthesis, causalot.cli)


def _pair_size(args):
    _, mu, nu = args[:3]
    return len(mu.atoms) * len(nu.atoms)


def _solve(tracer, args, result):
    _, mu, nu = args[:3]
    tracer.counts["coupling.solves"] += 1
    tracer.counts["coupling.adjacency_pairs"] += _pair_size(args)
    tracer.decisions.add((id(mu), id(nu)))


def _lp_vars(tracer, args, result):
    _, mu, nu = args[:3]
    if len(mu.atoms) > 1 and len(nu.atoms) > 1:
        tracer.counts["measures.transport_distance.lp_vars"] += _pair_size(args)


def _out_atoms(tracer, args, result):
    tracer.counts["measures.concat_measures.out_atoms"] += len(result.atoms)


def _report_bytes(tracer, args, result):
    tracer.counts["cli.report_bytes"] += os.path.getsize(result)


# (span name, owner, attribute, records a span, size counter)
TARGETS = (
    ("cli.schema_validate", jsonschema, "validate", True, None),
    ("cli.load_scenario", causalot.cli, "load_scenario", True, None),
    ("cli.write_report", causalot.cli, "write_report", True, _report_bytes),
    ("spacetime.Spacetime", causalot.spacetime.Spacetime, "__init__", True, None),
    ("spacetime.causal_geodesic", causalot.spacetime, "causal_geodesic", True, None),
    ("coupling.find_causal_coupling", causalot.coupling, "find_causal_coupling", True, _solve),
    ("coupling.cut_witness", causalot.coupling, "cut_witness", True, _solve),
    ("coupling.check_evolution", causalot.coupling, "check_evolution", True, None),
    ("measures.transport_distance", causalot.measures, "transport_distance", True, _lp_vars),
    ("measures.concat_measures", causalot.measures, "concat_measures", True, _out_atoms),
    ("measures.disintegrate", causalot.measures, "disintegrate", True, None),
    ("measures.marginal_at", causalot.measures, "marginal_at", True, None),
    ("measures.CurveMeasure", causalot.measures.CurveMeasure, "__init__", True, None),
    ("curves.concat", causalot.curves, "concat", False, None),
    ("synthesis.lift_coupling", causalot.synthesis, "lift_coupling", True, None),
    ("synthesis.synthesize_slabs", causalot.synthesis, "synthesize_slabs", True, None),
    ("synthesis.extract_coupling", causalot.synthesis, "extract_coupling", True, None),
)


SIZE_COUNTERS = ("coupling.adjacency_pairs", "measures.transport_distance.lp_vars",
                 "measures.concat_measures.out_atoms", "cli.report_bytes")


class Tracer:
    """Records spans and counts of the traced functions while an op runs.

    Counts are kept per op of the workload's cycle, and every per-op
    metric is the mean over those ops of their per-run figures, so exact
    counts repeat exactly whenever the traced ops cover the whole cycle.
    """

    def __init__(self):
        self.spans = []     # [name, start, end, parent index, op id]
        self.op_keys = []   # op id -> the workload op it ran
        self.per_op = {}    # workload op -> Counter of its totals
        self.counts = None  # the Counter of the op running now
        self.decisions = set()
        self._stack = []
        self._saved = []

    # -- installation -------------------------------------------------------

    def _wrap(self, name, fn, spans, counter):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.counts is None:
                return fn(*args, **kwargs)
            tracer.counts[name + ".calls"] += 1
            if not spans:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), None, parent, len(tracer.op_keys) - 1]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                counter(tracer, args, result)
            return result

        return traced

    def install(self):
        for name, owner, attr, spans, counter in TARGETS:
            fn = getattr(owner, attr)
            wrapper = self._wrap(name, fn, spans, counter)
            if isinstance(owner, type) or owner is jsonschema:
                self._rebind(owner, attr, wrapper)
                continue
            for mod in MODULES:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebind(mod, key, wrapper)

    def _rebind(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- ops ------------------------------------------------------------------

    def run_op(self, op, fn):
        """Run fn() as one traced run of the workload op `op`; returns
        (result, wall seconds)."""
        counts = self.per_op.setdefault(op, Counter())
        self.op_keys.append(op)
        self.decisions = set()
        self.install()
        self.counts = counts
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - t0
            self.counts = None
            self.uninstall()
        counts["runs"] += 1
        counts["wall"] += wall
        counts["decisions"] += len(self.decisions)
        return result, wall

    # -- results --------------------------------------------------------------

    def _span_totals(self):
        """Add to each op's counts the self time of every span name (each
        span's duration minus its direct children's) and the time inside
        top-level spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, op_id) in enumerate(self.spans):
            counts = self.per_op[self.op_keys[op_id]]
            counts[name + ".self"] += end - start - child[i]
            if parent < 0:
                counts["covered"] += end - start

    def layer_metrics(self):
        """Per-op self times (ms) and counts of every traced layer."""
        self._span_totals()

        def per_op(key):
            return statistics.fmean(c[key] / c["runs"] for c in self.per_op.values())

        out = {}
        for name, _, _, spans, _ in TARGETS:
            if spans:
                out[name + ".ms"] = 1e3 * per_op(name + ".self")
            out[name + ".calls"] = per_op(name + ".calls")
        for key in SIZE_COUNTERS:
            out[key] = per_op(key)
        decisions = per_op("decisions")
        out["coupling.solves_per_decision"] = (
            per_op("coupling.solves") / decisions if decisions else 0.0)
        out["trace.covered_share"] = per_op("covered") / per_op("wall")
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

"""The benchmark's workloads: inputs from a seed, one op, output checks.

A workload is built by ``WORKLOADS[name](seed, workdir)``.  Its ``ops``
list is the fixed cycle the closed loop runs through; every op has
``prepare()`` (untimed), ``run()`` (timed; returns the output and a
dict of timed phases in seconds) and ``verify(output)`` (untimed;
returns None or a description of the failure).  ``verify`` checks an
op's first output in full and every later output of the same op for
equality with the first, since the library is deterministic.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import re
import time
from importlib import resources

import jsonschema

import causalot as co
import causalot.cli

import gen

MINKOWSKI = co.Spacetime("minkowski-1+1")
T0 = co.canonical_time()
ATOL = 1e-9     # positions
WTOL = 1e-12    # weights

_STAMP = re.compile(rb'"generated_at": "[^"]*"')


def _aggregate(pairs):
    """Sorted (x, total weight) list, merging positions within ATOL."""
    out = []
    for x, w in sorted(pairs):
        if out and abs(out[-1][0] - x) <= ATOL:
            out[-1][1] += w
        else:
            out.append([x, w])
    return out


def _same_measure(got, want):
    """True when two lists of (x, w) describe the same finite measure."""
    a, b = _aggregate(got), _aggregate(want)
    return len(a) == len(b) and all(
        abs(x1 - x2) <= ATOL and abs(w1 - w2) <= WTOL for (x1, w1), (x2, w2) in zip(a, b))


def _causal(p, q):
    """Minkowski 1+1 causal order, computed independently of the library."""
    return q.t - p.t >= abs(q.x - p.x) - ATOL


def _slice(t, atoms):
    return co.SliceMeasure(MINKOWSKI, [(MINKOWSKI.event(t, x), w) for x, w in atoms], tau=t)


class _Repeatable:
    """Full check on an op's first output, equality with it afterwards."""

    first = None

    def verify(self, out):
        key = self.fingerprint(out)
        if self.first is None:
            problem = self.check(out)
            if problem is None:
                self.first = key
            return problem
        if key != self.first:
            return "output differs from the op's first output"
        return None

    def prepare(self):
        pass


# -- pairs --------------------------------------------------------------------


class Pair:
    """One slice pair at t=0 and t=1 with its generated atoms."""

    def __init__(self, left, right, moved):
        self.left, self.right, self.moved = left, right, moved
        self.mu = _slice(0.0, left)
        self.nu = _slice(1.0, right)

    def solve(self):
        """Decision as the check-coupling verb makes it, then W1; returns
        the output and the two phase times."""
        t0 = time.perf_counter()
        coupling = co.find_causal_coupling(MINKOWSKI, self.mu, self.nu)
        cut = co.cut_witness(MINKOWSKI, self.mu, self.nu) if coupling is None else None
        t1 = time.perf_counter()
        w1 = co.transport_distance(MINKOWSKI, self.mu, self.nu)
        t2 = time.perf_counter()
        return (coupling, cut, w1), t1 - t0, t2 - t1

    def check(self, out):
        coupling, cut, w1 = out
        problem = (self._check_coupling(coupling) if self.moved is None
                   else self._check_cut(coupling, cut))
        if problem:
            return problem
        plan = math.fsum(w * math.hypot(1.0, y - x)
                         for (x, w), (y, _) in zip(self.left, self.right))
        if not 1.0 - WTOL <= w1 <= plan + ATOL:
            return f"W1 {w1} outside [1, identity-plan cost {plan}]"
        return None

    def _check_coupling(self, coupling):
        if coupling is None:
            return "feasible pair declared infeasible"
        if not all(_causal(p, q) for (p, q), _ in coupling.atoms):
            return "coupling has a non-causal atom"
        if not _same_measure([(p.x, w) for (p, _), w in coupling.atoms], self.left):
            return "coupling's left marginal is not mu"
        if not _same_measure([(q.x, w) for (_, q), w in coupling.atoms], self.right):
            return "coupling's right marginal is not nu"
        return None

    def _check_cut(self, coupling, cut):
        if coupling is not None or cut is None:
            return "infeasible pair without a cut"
        xs = {e.x for e in cut.events}
        mu_mass = math.fsum(w for x, w in self.left if x in xs)
        nu_mass = math.fsum(w for y, w in self.right
                            if any(abs(y - x) <= 1.0 + ATOL for x in xs))
        if abs(mu_mass - cut.mu_mass) > WTOL or abs(nu_mass - cut.nu_future_mass) > WTOL:
            return "cut masses do not match its events"
        if not mu_mass > nu_mass:
            return f"cut mass {mu_mass} does not exceed its future mass {nu_mass}"
        return None


class PairOp(_Repeatable):
    """A bundle's feasible slice pair and its infeasible twin (one right
    atom moved out of every light cone): on each, a feasibility decision
    followed by one W1 distance."""

    def __init__(self, n, feasible, infeasible):
        self.kind = f"n{n}"
        self.pairs = (Pair(*feasible), Pair(*infeasible))

    def run(self):
        outs, decide, w1 = [], [], []
        for pair in self.pairs:
            out, d, w = pair.solve()
            outs.append(out)
            decide.append(d)
            w1.append(w)
        return outs, {"decide": decide, "w1": w1}

    @staticmethod
    def infeasible(outs):
        return [coupling is None for coupling, _, _ in outs]

    def fingerprint(self, outs):
        key = []
        for coupling, cut, w1 in outs:
            if coupling is not None:
                key.append(("coupling", tuple((p.x, q.x, w) for (p, q), w in coupling.atoms), w1))
            elif cut is not None:
                key.append(("cut", tuple(e.x for e in cut.events), cut.mu_mass,
                            cut.nu_future_mass, w1))
            else:
                key.append(("none", w1))
        return tuple(key)

    def check(self, outs):
        for pair, out in zip(self.pairs, outs):
            problem = pair.check(out)
            if problem:
                return problem
        return None


class Pairs:
    """Seeded Minkowski slice pairs, n atoms per side in {40, 80, 160}."""

    SIZES = (40, 80, 160)
    PER_SIZE = 6
    ORACLE_SIZE = 10
    ORACLE_PAIRS = 4

    def __init__(self, seed, workdir):
        rng = gen.rng_for(seed, "pairs")
        self.ops = [PairOp(n, *gen.worldline_pairs(rng, n))
                    for _ in range(self.PER_SIZE) for n in self.SIZES]
        self.oracle = [pair for _ in range(self.ORACLE_PAIRS // 2)
                       for pair in gen.worldline_pairs(rng, self.ORACLE_SIZE)]
        self.sizes = {"atoms_per_side": list(self.SIZES), "pairs": 2 * len(self.ops),
                      "infeasible_share": 0.5}

    def cross_checks(self):
        """Verdicts on small pairs against the exhaustive upset oracle;
        yields one description or None per pair."""
        for left, right, moved in self.oracle:
            mu, nu = _slice(0.0, left), _slice(1.0, right)
            flow = co.find_causal_coupling(MINKOWSKI, mu, nu) is not None
            upsets = co.dominates_on_upsets(MINKOWSKI, mu, nu)
            if flow != upsets or flow != (moved is None):
                yield f"verdicts disagree: flow {flow}, upsets {upsets}, moved {moved}"
            else:
                yield None


# -- slab-synthesis -------------------------------------------------------------


class SlabOp(_Repeatable):
    """synthesize_slabs(both) + marginals at half-integer times +
    extract_coupling(-H, H) on one diffusive evolution."""

    def __init__(self, horizon, slices):
        self.kind = f"H{horizon}"
        self.horizon = horizon
        self.slices = slices
        self.evo = co.Evolution(MINKOWSKI, [(t, _slice(t, atoms)) for t, atoms in slices],
                                T0, co.MeshSpec("integer"))

    def run(self):
        h = self.horizon
        sigma = co.synthesize_slabs(MINKOWSKI, T0, self.evo, h, "both")
        halves = [co.marginal_at(sigma, k + 0.5) for k in range(-h, h)]
        omega = co.extract_coupling(sigma, -h, h)
        return (sigma, halves, omega), {}

    @staticmethod
    def curve_atoms(out):
        return len(out[0].atoms)

    def fingerprint(self, out):
        sigma, halves, omega = out
        return (len(sigma.atoms),
                tuple(tuple((e.x, w) for e, w in m.atoms) for m in halves),
                tuple((p.x, q.x, w) for (p, q), w in omega.atoms))

    def check(self, out):
        sigma, halves, omega = out
        for t, atoms in self.slices:
            got = co.marginal_at(sigma, t)
            if not _same_measure([(e.x, w) for e, w in got.atoms], atoms):
                return f"mesh marginal at {t} differs from the input slice"
        for k, m in zip(range(-self.horizon, self.horizon), halves):
            if any(abs(e.t - (k + 0.5)) > ATOL for e, _ in m.atoms):
                return f"marginal at {k + 0.5} has atoms off its slice"
            if abs(math.fsum(w for _, w in m.atoms) - 1.0) > WTOL:
                return f"marginal at {k + 0.5} does not have unit mass"
        if not all(_causal(p, q) for (p, q), _ in omega.atoms):
            return "extracted coupling has a non-causal atom"
        if not _same_measure([(p.x, w) for (p, _), w in omega.atoms], self.slices[0][1]):
            return "extracted coupling's left marginal is not the slice at -H"
        if not _same_measure([(q.x, w) for (_, q), w in omega.atoms], self.slices[-1][1]):
            return "extracted coupling's right marginal is not the slice at H"
        return None


class SlabSynthesis:
    """Seeded diffusive evolutions, 8 atoms per slice, H in {2, 3, 4}."""

    HORIZONS = (2, 3, 4)
    PER_HORIZON = 8

    def __init__(self, seed, workdir):
        rng = gen.rng_for(seed, "slab-synthesis")
        self.ops = [SlabOp(h, gen.diffusive_slices(rng, h))
                    for _ in range(self.PER_HORIZON) for h in self.HORIZONS]
        self.sizes = {"atoms_per_slice": 8, "horizons": list(self.HORIZONS),
                      "evolutions": len(self.ops)}


# -- CLI runs -------------------------------------------------------------------


@functools.cache
def _report_schema():
    path = resources.files("causalot").joinpath("schemas/report.schema.json")
    with path.open("r", encoding="utf-8") as fh:
        return json.load(fh)


class CliRun:
    """One ``causalot.cli.main`` call with its expected exit code."""

    def __init__(self, scenario, verb, flags, expect, report_dir):
        self.argv = [scenario, verb, *flags, "--report-dir", report_dir]
        self.verb = verb
        self.expect = expect
        self.report = os.path.join(report_dir, f"report-{verb}.json")
        os.makedirs(report_dir, exist_ok=True)

    def prepare(self):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.report)

    def call(self):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return causalot.cli.main(self.argv)

    def read(self):
        with open(self.report, "rb") as fh:
            return _STAMP.sub(b'"generated_at": ""', fh.read())

    def check(self, code, body):
        """Full check of the first report; returns (problem, curve atoms)."""
        if code != self.expect:
            return f"{self.verb}: exit code {code}, expected {self.expect}", 0
        doc = json.loads(body)
        try:
            jsonschema.validate(doc, _report_schema())
        except jsonschema.ValidationError as err:
            return f"{self.verb}: report violates its schema: {err.message}", 0
        status = "ok" if self.expect == 0 else "verification-failed"
        if doc["verb"] != self.verb or doc["status"] != status:
            return f"{self.verb}: report has verb {doc['verb']}, status {doc['status']}", 0
        return None, doc["result"].get("atoms", 0) if self.verb == "synthesize" else 0


class CliOp:
    """A fixed sequence of CLI runs, checked by exit code and by report
    bytes (``generated_at`` masked) against the op's first reports."""

    def __init__(self, kind, runs):
        self.kind = kind
        self.runs = runs
        self.first = None
        self.atoms = 0

    def prepare(self):
        for r in self.runs:
            r.prepare()

    def run(self):
        return [r.call() for r in self.runs], {}

    def curve_atoms(self, out):
        return self.atoms

    def verify(self, codes):
        try:
            bodies = [r.read() for r in self.runs]
        except FileNotFoundError as err:
            return f"report missing: {err.filename}"
        if self.first is not None:
            if codes != [r.expect for r in self.runs]:
                return f"exit codes {codes}"
            if bodies != self.first:
                return "report differs from the op's first report"
            return None
        atoms = 0
        for r, code, body in zip(self.runs, codes, bodies):
            problem, n = r.check(code, body)
            if problem:
                return problem
            atoms += n
        self.first = bodies
        self.atoms = atoms
        return None


# The bundled scenarios' runs: for each scenario, ``validate`` and then every
# verb of its ``commands`` section, with the defaults given there (the
# README's "per-verb default parameters").  Two of the twelve exit 2.
BUNDLED = (
    ("static_graph.json", "validate", 0),
    ("static_graph.json", "check-coupling", 2),
    ("static_graph.json", "check-evolution", 0),
    ("static_graph.json", "synthesize", 0),
    ("minkowski_branching.json", "validate", 0),
    ("minkowski_branching.json", "check-evolution", 2),
    ("minkowski_branching.json", "synthesize", 0),
    ("minkowski_branching.json", "bounds-report", 0),
    ("tilted_observer.json", "validate", 0),
    ("tilted_observer.json", "invariance-check", 0),
    ("tilted_observer.json", "synthesize", 0),
    ("tilted_observer.json", "check-evolution", 0),
)


class CliBundled:
    """The bundled scenarios' runs, one per op.  The inputs are the bundled
    files, so the seed does not change them."""

    def __init__(self, seed, workdir):
        self.ops = []
        for i, (scenario, verb, expect) in enumerate(BUNDLED):
            run = CliRun(os.path.join("scenarios", scenario), verb, [], expect,
                         os.path.join(workdir, f"run{i:02d}"))
            self.ops.append(CliOp("cli", [run]))
        self.sizes = {"runs": len(self.ops)}


class GraphScenarios:
    """Seeded ring-plus-chord graph scenarios, V in {100, 200, 400}; one op
    is check-evolution then synthesize --interval line on one file."""

    SIZES = (100, 200, 400)
    PER_SIZE = 4

    def __init__(self, seed, workdir):
        rng = gen.rng_for(seed, "graph-scenarios")
        os.makedirs(workdir, exist_ok=True)
        self.ops = []
        for i in range(self.PER_SIZE):
            for v in self.SIZES:
                path = os.path.join(workdir, f"graph-{v}-{i}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(gen.graph_scenario(rng, v), fh)
                out = os.path.join(workdir, f"reports-{v}-{i}")
                runs = [CliRun(path, "check-evolution", [], 0, out),
                        CliRun(path, "synthesize", ["--interval", "line"], 0, out)]
                self.ops.append(CliOp(f"V{v}", runs))
        self.sizes = {"vertices": list(self.SIZES), "atoms_per_slice": 16, "horizon": 2,
                      "scenarios": len(self.ops)}


WORKLOADS = {
    "cli-bundled": CliBundled,
    "pairs": Pairs,
    "slab-synthesis": SlabSynthesis,
    "graph-scenarios": GraphScenarios,
}

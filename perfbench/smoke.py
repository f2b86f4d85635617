"""Smoke test of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/smoke.py

1. Runs every workload for about a second, untraced and traced, and
   requires a correct result with no failed op and every metric that
   BENCHMARK.json names.
2. Negative controls: feeds each workload's checker a corrupted output (a
   flipped verdict, a wrong distance, a foreign curve measure, an edited
   report, a wrong exit code) through the closed loop, and requires that
   every such op is counted as failed.

Exits 0 when everything holds, 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys
import types

import run

PYTHON = sys.executable
SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def smoke_runs(spec):
    problems = []
    for load in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [PYTHON, SCRIPT, "--workload", load["name"], "--seed", "1",
                 "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=300)
            label = f"{load['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} failed")
            want = {m["name"] for m in spec[key]}
            if set(result["metrics"]) != want:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(result['metrics']) ^ want)}")
            print(f"ok   {label}: {result['attempted']} ops")
    return problems


class Corrupted:
    """An op whose output is damaged before the checker sees it."""

    def __init__(self, op, damage):
        self.op = op
        self.damage = damage
        self.kind = op.kind

    def prepare(self):
        self.op.prepare()

    def run(self):
        out, phases = self.op.run()
        return self.damage(self.op, out), phases

    def verify(self, out):
        return self.op.verify(out)


def _flip(k):
    """Damage pair k of a pairs op: declare a feasible pair infeasible, or
    couple an infeasible pair by its (non-causal) identity plan."""
    def damage(op, outs):
        outs = list(outs)
        coupling, cut, w1 = outs[k]
        if coupling is not None:
            outs[k] = None, None, w1
        else:
            pair = op.pairs[k]
            plan = [((p, q), w) for (p, w), (q, _) in zip(pair.mu.atoms, pair.nu.atoms)]
            outs[k] = types.SimpleNamespace(atoms=plan), None, w1
        return outs
    return damage


def _w1(k, value):
    def damage(op, outs):
        outs = list(outs)
        coupling, cut, w1 = outs[k]
        outs[k] = coupling, cut, value(w1)
        return outs
    return damage


def _edit_report(op, codes):
    for r in op.runs:
        with open(r.report, "r+b") as fh:
            body = fh.read()
            fh.seek(0)
            fh.write(body.replace(b'"status": "', b'"status": "x', 1))
    return codes


def _with_first(damage):
    """Damage applied only after the op recorded one good output, so the
    repeat path (comparison with the first output) is exercised too."""
    def apply(op, out):
        return damage(op, out) if op.first is not None else out
    return apply


def negative_controls(workloads, workdir):
    pairs = workloads.Pairs(1, workdir)
    slab = workloads.SlabSynthesis(1, workdir)
    other = slab.ops[1].run()[0]
    cli = workloads.CliBundled(1, os.path.join(workdir, "cli"))
    graph = workloads.GraphScenarios(1, os.path.join(workdir, "graph"))
    cases = {
        "pairs: feasible declared infeasible": [Corrupted(op, _flip(0)) for op in pairs.ops[:3]],
        "pairs: infeasible coupled": [Corrupted(op, _flip(1)) for op in pairs.ops[:3]],
        "pairs: W1 below the time gap": [
            Corrupted(op, _w1(1, lambda w: 0.5)) for op in pairs.ops[:3]],
        "pairs: changed W1 on a repeat": [
            Corrupted(pairs.ops[3], _with_first(_w1(0, lambda w: w + 1e-6)))],
        "slab: foreign curve measure": [
            Corrupted(slab.ops[0], lambda op, out: (other[0], out[1], out[2]))],
        "slab: foreign coupling": [
            Corrupted(slab.ops[4], lambda op, out: (out[0], out[1], other[2]))],
        "cli: edited report": [Corrupted(op, _edit_report) for op in cli.ops[:4]],
        "cli: edited report on a repeat": [
            Corrupted(cli.ops[5], _with_first(lambda op, codes: _edit_report(op, codes)))],
        "cli: wrong exit code": [
            Corrupted(cli.ops[1], lambda op, codes: [1 - c for c in codes])],
        "graph: edited report": [Corrupted(graph.ops[0], _edit_report)],
    }
    problems = []
    for name, ops in cases.items():
        loop = run.Loop(types.SimpleNamespace(ops=ops))
        for op in ops * 2:
            loop._attempt(op, None)
        expected = loop.attempted - (len(ops) if "repeat" in name else 0)
        if len(loop.failures) != expected:
            problems.append(f"{name}: {len(loop.failures)} of {loop.attempted} ops "
                            f"counted as failed, expected {expected}")
        else:
            print(f"ok   negative control {name}: {len(loop.failures)} failures counted, "
                  f"first: {loop.failures[0]}")
    return problems


def main():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    _, workloads = run.import_library()
    workdir = os.path.join(run.OUT_DIR, f"smoke-{os.getpid()}")
    os.makedirs(workdir)
    try:
        problems = negative_controls(workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems += smoke_runs(spec)
    for p in problems:
        print(f"FAIL {p}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()

"""Closed-loop benchmark of causalot: one workload, one seed, one process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pairs --seed 1 --seconds 20 --trace 0

One client runs the workload's op cycle, starting each op when the
previous one returns, until the ops have taken ``--seconds`` of wall time
(set-up and output checks are not counted).  Set-up is timed from the
first line of this script to the first timed op; ``--setup-only`` does
that once and prints the seconds, unscaled and scaled.  The library is
imported from the checkout's ``src/`` directory; BLAS and OpenMP are pinned
to one thread.

Between ops, the loop runs a fixed reference computation (``reference.py``)
for a twentieth of the op time.  Every timed metric is scaled to a host on
which the reference takes ``REF_SECONDS``: each op's time by ``REF_SECONDS``
over the median of the reference runs nearest to it in time, each set-up by
the reference runs that follow it.  The shared measuring host changes speed
by a third or more within minutes and by a tenth or more within a second,
and the scaling takes most of that out.  The unscaled figures are printed
as ``wall.*`` and the reference's median as ``host.reference_ms``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Lines before it list every metric by name and unit, plus
the generated sizes.  Temporary files go to ``.perfbench_out/`` in the
checkout.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here to the first timed op

import argparse
import bisect
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5  # set-ups per run: this process and fresh ones spread over the run
REF_SHARE = 0.05  # reference seconds run per second of op time
REF_WARMUP = 3  # untimed reference runs before the timed ones
REF_NEAREST = 5  # reference runs that gauge the host during one op
SETUP_REF_RUNS = 9  # reference runs that gauge the host after a set-up
# The host speed the timed metrics are scaled to: a host on which one reference
# run takes this long.  On the measuring machine (2 vCPUs of an Intel Xeon
# virtual machine) the run medians ranged from 2.1 to 4.4 ms, so scaled
# figures read like that machine's wall times at a middling speed.
REF_SECONDS = 0.0035
OUT_DIR = ".perfbench_out"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import causalot from ./src of the checkout, and nothing else."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "causalot", "__init__.py")):
        fail(f"no causalot sources under {src}; run from the root of a checkout")
    sys.path[:0] = [src, HERE]
    import causalot
    if not os.path.abspath(causalot.__file__).startswith(src + os.sep):
        fail(f"causalot was imported from {causalot.__file__}, not {src}")
    import tracer
    import workloads
    return tracer, workloads


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def setup(workloads, name, seed, workdir):
    """Build the workload and run one untimed warm-up op; returns the
    workload and the seconds since this process started."""
    load = workloads.WORKLOADS[name](seed, workdir)
    op = load.ops[0]
    op.prepare()
    op.run()
    return load, time.perf_counter() - T_START


def host_scale(reference):
    """Factor from wall time now to the reference host speed, from a few
    reference runs."""
    for _ in range(REF_WARMUP):
        reference.reference_seconds()
    runs = [reference.reference_seconds() for _ in range(SETUP_REF_RUNS)]
    return REF_SECONDS / statistics.median(runs)


def fresh_setup_seconds(args):
    """Set-up seconds, unscaled and scaled, of a fresh process of this
    script on the same input."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, check=True, timeout=120)
    wall, scaled = proc.stdout.split()[-2:]
    return float(wall), float(scaled)


class Loop:
    """Closed-loop client: runs ops in cycle order and checks each output."""

    def __init__(self, load, tracer=None, gauge=None):
        self.load = load
        self.tracer = tracer
        self.gauge = gauge  # () -> seconds of one reference run, or None
        self.reference = []  # (midpoint, seconds) of every reference run
        self.owed = 0.0  # reference seconds still to run
        self.samples = []  # (start, wall seconds, timed phases) of checked untraced ops
        self.curve_atoms = {}  # op -> curve atoms of its output
        self.infeasible = []
        self.attempted = 0
        self.failures = []
        self.spent = 0.0
        self.paired_wall = 0.0  # untraced wall of ops that also ran traced
        self.traced_wall = 0.0
        self.next = 0  # cycle position, kept across calls of run()

    def _attempt(self, op, tracer):
        """Run and check one op; returns its wall seconds, or None if it
        failed.  Only untraced ops feed the end-to-end samples."""
        op.prepare()
        self.attempted += 1
        label = op.kind + (" (traced)" if tracer else "")
        t0 = time.perf_counter()
        try:
            if tracer:
                (out, phases), wall = tracer.run_op(op, op.run)
            else:
                out, phases = op.run()
                wall = time.perf_counter() - t0
        except Exception as err:  # an op that raises is a failed op
            self.spent += time.perf_counter() - t0
            self.failures.append(f"{label}: {type(err).__name__}: {err}")
            return None
        self.spent += wall
        try:
            problem = op.verify(out)
        except Exception as err:  # output too malformed to inspect
            problem = f"checker raised {type(err).__name__}: {err}"
        if problem:
            self.failures.append(f"{label}: {problem}")
            return None
        if tracer is None:
            self.samples.append((t0, wall, phases))
            if hasattr(op, "curve_atoms"):
                self.curve_atoms[op] = op.curve_atoms(out)
            if hasattr(op, "infeasible"):
                self.infeasible.extend(op.infeasible(out))
        return wall

    def run(self, seconds):
        """Run ops until they have taken ``seconds`` in all.  Untraced,
        every op is timed once.  Traced, every op runs untraced and once
        more under the tracer, the traced run first on every other op, so
        that the two halves pair up for the overhead estimate without
        favouring the second, warmer run."""
        while self.spent < seconds:
            op = self.load.ops[self.next % len(self.load.ops)]
            self.next += 1
            spent = self.spent
            if self.tracer is None:
                self._attempt(op, None)
            elif self.next % 2:
                untraced = self._attempt(op, None)
                traced = self._attempt(op, self.tracer)
            else:
                traced = self._attempt(op, self.tracer)
                untraced = self._attempt(op, None)
            if self.tracer and untraced is not None and traced is not None:
                self.paired_wall += untraced
                self.traced_wall += traced
            self._gauge(self.spent - spent)

    def _gauge(self, op_seconds):
        """Run the reference for REF_SHARE of the op time just spent, so
        that its runs are spread evenly over the run's time."""
        if self.gauge is None:
            return
        self.owed += REF_SHARE * op_seconds
        while self.owed > 0:
            start = time.perf_counter()
            took = self.gauge()
            self.reference.append((start + took / 2, took))
            self.owed -= took

    def scales(self):
        """Per sample, the factor from its wall time to the reference host
        speed: REF_SECONDS over the median of the REF_NEAREST reference
        runs nearest to the sample's midpoint."""
        times = [t for t, _ in self.reference]
        out = []
        for start, wall, _ in self.samples:
            mid = start + wall / 2
            i = bisect.bisect(times, mid)
            window = range(max(0, i - REF_NEAREST), min(len(times), i + REF_NEAREST))
            near = sorted(window, key=lambda j: abs(times[j] - mid))[:REF_NEAREST]
            out.append(REF_SECONDS / statistics.median(self.reference[j][1] for j in near))
        return out


def end_to_end(loop, setups):
    """End-to-end metrics from the set-ups (unscaled and scaled seconds)
    and the untraced samples, timed ones scaled to the reference host
    speed; the pairs-only and synthesis-only ones appear where they apply."""
    scales = loop.scales()
    lat = [wall for _, wall, _ in loop.samples]
    scaled = [f * wall for f, wall in zip(scales, lat)]
    out = {
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "ops_per_s": len(scaled) / sum(scaled),
        "op_ms_p50": 1e3 * percentile(scaled, 50),
        "op_ms_p90": 1e3 * percentile(scaled, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_ratio": len(loop.failures) / loop.attempted,
        "wall.setup_s": statistics.median(wall for wall, _ in setups),
        "wall.ops_per_s": len(lat) / sum(lat),
        "wall.op_ms_p90": 1e3 * percentile(lat, 90),
        "host.reference_ms": 1e3 * statistics.median(took for _, took in loop.reference),
    }
    for phase in ("decide", "w1"):
        times = [f * t for f, (_, _, phases) in zip(scales, loop.samples)
                 for t in phases.get(phase, ())]
        if times:
            out[f"{phase}_ms_p50"] = 1e3 * percentile(times, 50)
    if loop.curve_atoms:  # mean over the cycle's ops: exact for a seed
        out["curve_atoms_per_op"] = statistics.fmean(loop.curve_atoms.values())
    return out


def per_layer(loop, tracer, e2e):
    """Per-op layer metrics of the traced half (self times scaled by the
    median factor of the untraced ops), with the trace overhead and the
    untraced figures that BENCHMARK.json keeps out of its bounded
    end-to-end set (0 where they do not apply)."""
    scale = statistics.median(loop.scales())
    out = {name: scale * value if name.endswith(".ms") else value
           for name, value in tracer.layer_metrics().items()}
    out["trace.overhead_share"] = (loop.traced_wall / loop.paired_wall - 1.0
                                   if loop.paired_wall else 0.0)
    for name in ("op_ms_p50", "decide_ms_p50", "w1_ms_p50", "curve_atoms_per_op",
                 "wall.ops_per_s", "wall.op_ms_p90", "host.reference_ms"):
        out[name] = e2e.get(name, 0.0)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the set-up seconds and exit")
    args = parser.parse_args()

    try:
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as err:
        fail(f"cannot read BENCHMARK.json: {err}")
    tracer_mod, workloads = import_library()
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    workdir = os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        load, setup_s = setup(workloads, args.workload, args.seed, workdir)
        import reference  # the benchmark's own, so imported after set-up is timed
        setups = [(setup_s, setup_s * host_scale(reference))]
        if args.setup_only:
            print(*setups[0])
            return
        # Fresh set-ups between blocks of the timed loop, so that the median
        # set-up time samples the machine over the whole run.
        tracer = tracer_mod.Tracer() if args.trace else None
        loop = Loop(load, tracer, reference.reference_seconds)
        for block in range(1, SETUP_REPEATS):
            loop.run(args.seconds * block / (SETUP_REPEATS - 1))
            setups.append(fresh_setup_seconds(args))
        checks = list(getattr(load, "cross_checks", list)())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    loop.attempted += len(checks)
    loop.failures += [c for c in checks if c]
    if not loop.samples:
        fail("no op completed: " + "; ".join(loop.failures[:5]))

    metrics = end_to_end(loop, setups)
    wanted = spec["end_to_end"]
    if tracer:
        metrics.update(per_layer(loop, tracer, metrics))
        wanted = spec["per_layer"]
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}.jsonl"))
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail(f"metrics not measured on {args.workload}: {missing}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["fail_ratio"] = "failed/attempted"
    units["wall.setup_s"] = "s"

    sizes = dict(load.sizes)
    if loop.infeasible:
        sizes["measured_infeasible_share"] = sum(loop.infeasible) / len(loop.infeasible)
    print(f"workload {args.workload}  seed {args.seed}  samples {len(loop.samples)}  "
          f"sizes {json.dumps(sizes, sort_keys=True)}")
    for problem in loop.failures[:10]:
        print(f"FAILED {problem}")
    for name, value in metrics.items():
        unit = units.get(name, "count" if name.endswith(".calls") else "")
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))


if __name__ == "__main__":
    main()

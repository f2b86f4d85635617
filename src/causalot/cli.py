"""Scenario ingestion, command dispatch, and machine-readable reports.

A scenario is a JSON document naming one spacetime, its time functions,
measures, curves and evolutions; the CLI loads it, runs one verb, and
writes a versioned JSON report (plus an optional CSV of marginal
transport distances).  Reports are byte-identical across repeated runs
with the same inputs: the only run-dependent value is the timestamp in
the ``generated_at`` header field.

Set-up is paid once per process: ``main`` parses with one argparse parser,
built on its first call.  Scenarios are checked against the packaged
``scenario.schema.json``, the one source of truth for their shape.  On
the first scenario loaded, the schema is compiled into a plain-Python
predicate (``schemacheck.compile_schema``) that gives jsonschema's verdict
on every document and tests the exact types ``json.load`` makes before
any other; a valid document is checked by that predicate alone and never
imports jsonschema.  jsonschema explains a document the predicate
rejects: one validator, built once per process, finds the ``best_match``
error that becomes the input error.  Should jsonschema find no error, the
document is accepted, so jsonschema stays the reference.  The shipped
schema is not checked against its metaschema at run time: the test suite
checks it.  Scenario files must be strict JSON (RFC 8259): the tokens
``NaN``, ``Infinity`` and ``-Infinity`` are refused.  So are reports: one
that would hold a non-finite number is an input error, raised before its
file is opened.

Exit codes: 0 success, 1 input error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from datetime import datetime, timezone
from importlib import resources

from .errors import CausalotError, InputError, VerificationError
from .spacetime import GEOM_ATOL, Spacetime, causal_lipschitz_constant
from .timefunc import TimeFunction, canonical_time, validate as validate_tf
from .curves import (CausalCurve, Interval, _endpoint, bilipschitz_report, curves_close,
                     reparametrize, verify_causal)
from .measures import (CurveMeasure, SliceMeasure, marginal_at, pushforward_reparametrize,
                       transport_distance)
from .coupling import Evolution, MeshSpec, _decide, check_evolution
from .schemacheck import compile_schema
from .synthesis import (NonCausalEvolutionError, observer_invariance_report,
                        synthesize_compact, synthesize_open, synthesize_slabs,
                        to_time_parametrized)

SCHEMA_VERSION = 1


def _load_schema(name):
    with resources.files("causalot").joinpath(f"schemas/{name}").open(
            "r", encoding="utf-8") as fh:
        return json.load(fh)


@functools.cache
def _scenario_check():
    return compile_schema(_load_schema("scenario.schema.json"))


@functools.cache
def _scenario_validator():
    from jsonschema.validators import validator_for

    schema = _load_schema("scenario.schema.json")
    return validator_for(schema)(schema)


def _check_schema(doc):
    """Raise the schema violation of a scenario document, if it has one."""
    if _scenario_check()(doc):
        return
    from jsonschema.exceptions import best_match

    # best_match, as jsonschema.validate picks the error it raises
    err = best_match(_scenario_validator().iter_errors(doc))
    if err is not None:
        raise InputError(f"scenario schema violation at "
                         f"{'/'.join(str(p) for p in err.absolute_path)}: {err.message}")


class Scenario:
    """A fully resolved scenario: every cross-reference checked before any
    computation runs.

    Each section is built, as ``json.load`` made it, by the library
    constructor that owns it (``Spacetime``, ``TimeFunction``,
    ``SliceMeasure``, ``Interval`` and ``CausalCurve.from_breakpoints``,
    ``MeshSpec`` and ``Evolution``), so their rules are the only rules.
    The scenario adds what joins the sections: names are looked up, a
    curve domain's declared ``kind`` must be the one its ends make, and an
    evolution slice may name only its evolution's time function."""

    def __init__(self, doc, name="<memory>"):
        _check_schema(doc)
        self.name = name
        sec = doc["spacetime"]
        self.spacetime = st = Spacetime(
            sec["backend"],
            vertices=sec.get("vertices"),
            edges=sec.get("edges"),
            alpha=sec.get("alpha", 1.0),
            u=sec.get("u", 1.0),
            eps_caus=sec.get("tolerance", 0.0),
        )
        self.time_functions = {"T0": canonical_time()}
        for name_, spec in doc.get("time_functions", {}).items():
            self.time_functions[name_] = TimeFunction(
                slope=spec.get("slope"), offsets=spec.get("offsets"), spacetime=st, name=name_)
        self.measures = {}
        for name_, spec in doc.get("measures", {}).items():
            tf = _named(self.time_functions, spec.get("time_function", "T0"), "time function")
            self.measures[name_] = self._slice_measure(spec, tf)
        self.curves = {}
        for name_, spec in doc.get("curves", {}).items():
            self.curves[name_] = self._curve(name_, spec)
        self.evolutions = {}
        for name_, spec in doc.get("evolutions", {}).items():
            self.evolutions[name_] = self._evolution(name_, spec)
        self.commands = doc.get("commands", {})

    def _slice_measure(self, spec, tf):
        st = self.spacetime
        tau = spec["tau"]
        atoms = [(tf.level_event(st, tau, x), w) for x, w in spec["atoms"]]
        return SliceMeasure(st, atoms, time_function=tf, tau=tau)

    def _curve(self, name, spec):
        st = self.spacetime
        ends = spec["domain"]
        domain = Interval(_endpoint(ends["a"]) if "a" in ends else -math.inf,
                          _endpoint(ends["b"]) if "b" in ends else math.inf)
        if domain.kind != ends["kind"]:
            raise InputError(f"curve {name!r} declares a {ends['kind']} domain, but its ends "
                             f"make {domain}, a {domain.kind} domain")
        bps = [(tau, st.event(t, x)) for tau, t, x in spec["breakpoints"]]
        tf = None
        if "time_function" in spec:
            tf = _named(self.time_functions, spec["time_function"], "time function")
        return CausalCurve.from_breakpoints(st, domain, bps, time_function=tf)

    def _evolution(self, name, spec):
        tf_name = spec.get("time_function", "T0")
        tf = _named(self.time_functions, tf_name, "time function")
        entries = []
        for sl in spec["slices"]:
            if sl.get("time_function", tf_name) != tf_name:
                raise InputError(f"evolution {name!r}: the slice at tau {sl['tau']} names "
                                 f"time function {sl['time_function']!r}, not the "
                                 f"evolution's {tf_name!r}")
            entries.append((sl["tau"], self._slice_measure(sl, tf)))
        mesh = MeshSpec(**spec.get("mesh", {"kind": "explicit"}))
        return Evolution(self.spacetime, entries, time_function=tf, mesh=mesh)


def _refuse_constant(token):
    raise ValueError(f"{token} is not a JSON number")


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_refuse_constant)
    except OSError as err:
        raise InputError(f"cannot read scenario {path}: {err}")
    except ValueError as err:  # json.JSONDecodeError, or a refused constant
        raise InputError(f"scenario {path} is not valid JSON: {err}")
    return Scenario(doc, name=os.path.basename(path))


# -- serialization -----------------------------------------------------------


def _event_out(e):
    return [e.t, e.x]


def _curve_out(c: CausalCurve):
    domain = {"kind": c.domain.kind}
    if c.domain.a > -math.inf:
        domain["a"] = c.domain.a
    if c.domain.b < math.inf:
        domain["b"] = c.domain.b
    out = {
        "domain": domain,
        "breakpoints": [[tau, e.t, e.x] for tau, e in c.breakpoints],
        "pace": c.pace,
    }
    if c.time_function is not None and c.time_function.name:
        out["time_function"] = c.time_function.name
    return out


def _curve_measure_out(sigma: CurveMeasure):
    return {"atoms": [[_curve_out(c), w] for c, w in sigma.atoms]}


def _coupling_out(omega):
    return {"atoms": [[_event_out(p), _event_out(q), w] for (p, q), w in omega.atoms]}


# -- verbs --------------------------------------------------------------------


def _verb_validate(sc: Scenario, args):
    st = sc.spacetime
    result = {"spacetime": {"backend": st.backend, "alpha": st.alpha, "u": st.u},
              "time_functions": {}, "evolutions": {}, "curves": {}, "measures": {}}
    ok = True
    for name, tf in sc.time_functions.items():
        rep = validate_tf(st, tf)
        result["time_functions"][name] = {
            "ok": rep.ok, "lipschitz": rep.lipschitz,
            "violations": [list(v) for v in rep.violations]}
        ok = ok and rep.ok
    for name, evo in sc.evolutions.items():
        entry = {"ok": True}
        try:
            evo.validate_mesh()
        except InputError as err:
            entry = {"ok": False, "error": str(err)}
            ok = False
        result["evolutions"][name] = entry
    for name, curve in sc.curves.items():
        rep = verify_causal(st, curve)
        result["curves"][name] = {"ok": rep.ok, "violations": len(rep.violations)}
        ok = ok and rep.ok
    for name, m in sc.measures.items():
        result["measures"][name] = {"ok": True, "atoms": len(m.atoms)}
    return ok, result


def _verb_check_coupling(sc: Scenario, args):
    st = sc.spacetime
    mu = _named(sc.measures, args.mu, "measure")
    nu = _named(sc.measures, args.nu, "measure")
    omega, cut = _decide(st, mu, nu)
    if cut is not None:
        return False, {"feasible": False, "violated_subset": cut.to_dict()}
    return True, {"feasible": True, "coupling": _coupling_out(omega)}


def _verb_check_evolution(sc: Scenario, args):
    st = sc.spacetime
    evo = _named(sc.evolutions, args.evolution, "evolution")
    report = check_evolution(st, evo, args.mode)
    return report.causal, report.to_dict()


def _sub_mesh(evo: Evolution, depth):
    """Dyadic sub-evolution at a coarser depth."""
    if evo.mesh.kind != MeshSpec.DYADIC:
        raise InputError("--mesh-depth applies to dyadic evolutions only")
    declared = evo.mesh.depth
    if depth > declared:
        raise InputError(f"requested depth {depth} exceeds declared depth {declared}")
    # any stride beyond the entry count keeps the first entry alone
    stride = 1 << min(declared - depth, len(evo.entries).bit_length())
    entries = evo.entries[::stride]
    return Evolution(evo.spacetime, entries, time_function=evo.time_function,
                     mesh=MeshSpec(MeshSpec.DYADIC, evo.mesh.a, evo.mesh.b, depth))


def _verb_synthesize(sc: Scenario, args):
    st = sc.spacetime
    evo = _named(sc.evolutions, args.evolution, "evolution")
    tf = evo.time_function
    if args.mesh_depth is not None:
        evo = _sub_mesh(evo, args.mesh_depth)
    kind = args.interval
    try:
        if kind == "compact":
            sigma = synthesize_compact(st, tf, evo)
        elif kind in ("future", "past", "line"):
            direction = {"future": "forward", "past": "backward", "line": "both"}[kind]
            sigma = synthesize_slabs(st, tf, evo, args.horizon, direction)
        elif kind in ("right-open", "left-open", "open"):
            if args.a is None or args.b is None:
                raise InputError("open intervals need the endpoints --a and --b")
            side = {"right-open": "right", "left-open": "left", "open": "both"}[kind]
            sigma = synthesize_open(st, tf, evo, args.a, args.b, args.horizon, side)
        else:
            raise InputError(f"unknown interval request {kind!r}")
    except NonCausalEvolutionError as err:
        return False, {"synthesized": False, "step": list(err.step),
                       "witness": err.witness.to_dict()}
    result = {"synthesized": True, "atoms": len(sigma.atoms),
              "curve_measure": _curve_measure_out(sigma)}
    rows = []
    worst = 0.0
    # marginal identity is guaranteed at mesh times inside the synthesized
    # window; beyond it the static extension takes over
    lo, hi = sigma.atoms[0][0].window
    for t, mu in evo.entries:
        if lo - GEOM_ATOL <= t <= hi + GEOM_ATOL and sigma.domain.contains(t, GEOM_ATOL):
            d = transport_distance(st, marginal_at(sigma, t), mu)
            rows.append((t, d))
            worst = max(worst, d)
    result["mesh_marginal_distances"] = [[t, d] for t, d in rows]
    result["max_mesh_marginal_distance"] = worst
    if args.to_it:
        ups = to_time_parametrized(st, tf, sigma)
        result["identity_parametrized"] = True
        sigma = ups
    if args.observer:
        tf2 = _named(sc.time_functions, args.observer, "time function")
        moved = pushforward_reparametrize(sigma, tf, tf2)
        result["observer"] = {"time_function": args.observer,
                              "curve_measure": _curve_measure_out(moved)}
    ok = worst <= GEOM_ATOL
    if args.marginals_csv:
        result["csv"] = args.marginals_csv
        _write_csv(args, rows)
    return ok, result


def _write_csv(args, rows):
    path = os.path.join(_report_dir(args), args.marginals_csv)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "transport_distance"])
        for t, d in rows:
            writer.writerow([repr(t), repr(d)])


def _verb_reparametrize(sc: Scenario, args):
    st = sc.spacetime
    tf1 = _named(sc.time_functions, args.source, "time function")
    tf2 = _named(sc.time_functions, args.target, "time function")
    if args.curve:
        curve = _named(sc.curves, args.curve, "curve")
        moved = reparametrize(st, curve, tf1, tf2)
        back = reparametrize(st, moved, tf2, tf1)
        return True, {"curve": _curve_out(moved), "round_trip_ok": curves_close(back, curve)}
    raise InputError("reparametrize needs --curve")


def _verb_bounds_report(sc: Scenario, args):
    st = sc.spacetime
    tf2 = _named(sc.time_functions, args.t2, "time function")
    if args.curves is None:
        raise InputError("bounds-report needs --curves")
    if args.a is None or args.b is None:
        raise InputError("bounds-report needs the window --a and --b")
    curves = [_named(sc.curves, n.strip(), "curve") for n in args.curves.split(",")]
    rep = bilipschitz_report(st, tf2, curves, args.a, args.b)
    ok = rep.within(args.slack)
    out = rep.to_dict()
    out["within_envelopes"] = ok
    out["lipschitz_constant"] = causal_lipschitz_constant(st, args.a, args.b)
    return ok, out


def _verb_invariance(sc: Scenario, args):
    st = sc.spacetime
    evo = _named(sc.evolutions, args.evolution, "evolution")
    tf2 = _named(sc.time_functions, args.observer, "time function")
    rep = observer_invariance_report(st, evo.time_function, tf2, evo,
                                     horizon=args.horizon)
    return rep.ok, rep.to_dict()


def _named(table, name, what):
    if name is None:
        raise InputError(f"missing required {what} name")
    try:
        return table[name]
    except KeyError:
        raise InputError(f"unknown {what} {name!r}") from None


VERBS = {
    "validate": _verb_validate,
    "check-coupling": _verb_check_coupling,
    "check-evolution": _verb_check_evolution,
    "synthesize": _verb_synthesize,
    "reparametrize": _verb_reparametrize,
    "bounds-report": _verb_bounds_report,
    "invariance-check": _verb_invariance,
}


def _report_dir(args):
    path = args.report_dir or os.environ.get("CAUSALOT_REPORT_DIR") or os.getcwd()
    os.makedirs(path, exist_ok=True)
    return path


def write_report(args, verb, scenario_name, ok, result):
    report = {
        "schema_version": SCHEMA_VERSION,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "verb": verb,
        "scenario": scenario_name,
        "status": "ok" if ok else "verification-failed",
        "result": result,
    }
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as err:
        raise InputError(f"the {verb} report would hold a non-finite number: {err}") from None
    path = os.path.join(_report_dir(args), f"report-{verb}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return path


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a malformed command line, which is this CLI's
    code for a failed verification; here it is an input error, exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="causalot",
        description="Causal couplings and curve-measure synthesis on "
                    "globally hyperbolic backends.")
    parser.add_argument("scenario", help="path to the scenario JSON file")
    parser.add_argument("verb", choices=sorted(VERBS))
    parser.add_argument("--report-dir",
                        help="directory for report files (default: "
                             "$CAUSALOT_REPORT_DIR or the working directory)")
    parser.add_argument("--mu", help="left measure name (check-coupling)")
    parser.add_argument("--nu", help="right measure name (check-coupling)")
    parser.add_argument("--evolution", help="evolution name")
    parser.add_argument("--mode", choices=["consecutive", "all-pairs"],
                        help="evolution check mode (default consecutive)")
    parser.add_argument("--interval",
                        choices=["compact", "future", "past", "line",
                                 "right-open", "left-open", "open"],
                        help="synthesis interval request (default compact)")
    parser.add_argument("--a", type=float, help="left endpoint for open intervals")
    parser.add_argument("--b", type=float, help="right endpoint for open intervals")
    parser.add_argument("--mesh-depth", type=int,
                        help="synthesize on the dyadic sub-mesh of this depth")
    parser.add_argument("--horizon", type=int,
                        help="slab horizon for unbounded or open intervals (default 1)")
    parser.add_argument("--to-it", dest="to_it", action="store_true", default=None,
                        help="normalize the synthesized measure onto "
                             "identity-parametrized curves")
    parser.add_argument("--observer", help="second time function name")
    parser.add_argument("--marginals-csv",
                        help="also write mesh marginal distances as CSV")
    parser.add_argument("--curve", help="curve name (reparametrize)")
    parser.add_argument("--curves", help="comma-separated curve names (bounds-report)")
    parser.add_argument("--source", help="source time function (default T0)")
    parser.add_argument("--target", help="target time function (default T0)")
    parser.add_argument("--t2", help="comparison time function (bounds-report, default T0)")
    parser.add_argument("--slack", type=float,
                        help="extra tolerance for envelope checks (default 0)")
    return parser


@functools.cache
def _parser():
    """``main``'s parser and its actions by destination, built once per
    process.  Sharing it is safe: ``parse_args`` writes only to the
    namespace it returns, ``prog`` is fixed, and usage and errors read
    ``sys.stderr`` and ``COLUMNS`` when they are printed."""
    parser = build_parser()
    return parser, {action.dest: action for action in parser._actions}


# What a flag holds when neither the command line nor the scenario's
# commands section gives it; every other flag stays None.
DEFAULTS = {"mode": "consecutive", "interval": "compact", "horizon": 1, "to_it": False,
            "source": "T0", "target": "T0", "t2": "T0", "slack": 0.0}


def _takes(action):
    """The JSON type of a flag's value, read off its parser action: a switch
    takes a boolean, a flag converted by int an integer and by float a
    number, and every other flag a string."""
    if action.nargs == 0:
        return "a boolean"
    return {int: "an integer", float: "a number"}.get(action.type, "a string")


def _json_type(value):
    # by exact type: a bool is an int to Python, and neither an integer nor
    # a number in JSON
    return {bool: "a boolean", int: "an integer", float: "a number",
            str: "a string"}.get(type(value))


def _fill_defaults(actions, args, sc: Scenario):
    """Fill the flags absent from the command line (every flag parses to
    None when absent) from the scenario's section for the verb, then from
    DEFAULTS: explicit command-line flags win.  Each value in the section
    must have the JSON type its flag takes (see ``_takes``); ``actions``
    maps each flag's destination to its parser action."""
    section = sc.commands.get(args.verb, {})
    for key, value in section.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise InputError(f"unknown parameter {key!r} in the {args.verb} command section")
        want, got = _takes(actions[attr]), _json_type(value)
        if got != want and (want, got) != ("a number", "an integer"):
            raise InputError(f"parameter {key!r} in the {args.verb} command section "
                             f"must be {want}, got {value!r}")
        if getattr(args, attr) is None:
            setattr(args, attr, value)
    for attr, value in DEFAULTS.items():
        if getattr(args, attr) is None:
            setattr(args, attr, value)
    return args


def main(argv=None):
    parser, actions = _parser()
    args = parser.parse_args(argv)
    try:
        sc = load_scenario(args.scenario)
        _fill_defaults(actions, args, sc)
        ok, result = VERBS[args.verb](sc, args)
        path = write_report(args, args.verb, sc.name, ok, result)
    except CausalotError as err:
        if isinstance(err, VerificationError):
            print(f"verification failed: {err}", file=sys.stderr)
            return 2
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(f"{args.verb}: {'ok' if ok else 'verification failed'} "
          f"(report: {path})")
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())

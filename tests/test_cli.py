import contextlib
import copy
import functools
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc

import jsonschema
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st_

import causalot.cli
import causalot.coupling
from causalot import (CausalotError, Evolution, InputError, MeshSpec, NonCausalEvolutionError,
                      SliceMeasure, Spacetime, canonical_time, geometric_times,
                      synthesize_compact)
from causalot.cli import _load_schema, load_scenario, main

ROOT = os.path.join(os.path.dirname(__file__), "..")
SCENARIOS = os.path.join(ROOT, "scenarios")


def scenario(name):
    return os.path.join(SCENARIOS, name)


def run(tmp_path, *argv):
    return main([*argv, "--report-dir", str(tmp_path)])


def report(tmp_path, verb):
    with open(tmp_path / f"report-{verb}.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_validate_bundled_scenarios(tmp_path):
    for name in ("static_graph.json", "minkowski_branching.json",
                 "tilted_observer.json"):
        assert run(tmp_path, scenario(name), "validate") == 0
        doc = report(tmp_path, "validate")
        jsonschema.validate(doc, _load_schema("report.schema.json"))
        assert doc["status"] == "ok"


# The exit code of every verb in each bundled scenario's commands section,
# run with no flags.
BUNDLED_COMMANDS = {
    "static_graph.json": {"check-coupling": 2, "check-evolution": 0, "synthesize": 0},
    "minkowski_branching.json": {"check-evolution": 2, "synthesize": 0, "bounds-report": 0},
    "tilted_observer.json": {"invariance-check": 0, "synthesize": 0, "check-evolution": 0},
}


@pytest.mark.parametrize("name", sorted(BUNDLED_COMMANDS))
def test_every_bundled_command_exits_with_its_code(tmp_path, name):
    codes = BUNDLED_COMMANDS[name]
    assert set(load_scenario(scenario(name)).commands) == set(codes)
    for verb, code in codes.items():
        assert run(tmp_path, scenario(name), verb) == code, verb
        doc = report(tmp_path, verb)
        assert (doc["verb"], doc["status"]) == (verb, "ok" if code == 0 else "verification-failed")


def test_check_evolution_superluminal_exits_2(tmp_path):
    code = run(tmp_path, scenario("minkowski_branching.json"), "check-evolution")
    assert code == 2
    doc = report(tmp_path, "check-evolution")
    failing = [s for s in doc["result"]["steps"] if not s["causal"]]
    assert failing == [{"causal": False, "s": 0.375, "t": 0.5,
                        "witness": failing[0]["witness"]}]
    assert failing[0]["witness"]["nu_future_mass"] == 0.0


def test_synthesize_branching_zero_mesh_error(tmp_path):
    code = run(tmp_path, scenario("minkowski_branching.json"), "synthesize",
               "--mesh-depth", "3")
    assert code == 0
    doc = report(tmp_path, "synthesize")
    assert doc["result"]["max_mesh_marginal_distance"] == 0.0
    csv_path = tmp_path / "branching-marginals.csv"
    assert csv_path.exists()


def test_synthesize_coarser_subdepth(tmp_path):
    assert run(tmp_path, scenario("minkowski_branching.json"), "synthesize",
               "--mesh-depth", "1", "--marginals-csv", "d1.csv") == 0
    doc = report(tmp_path, "synthesize")
    assert len(doc["result"]["mesh_marginal_distances"]) == 3


def test_check_coupling_witness(tmp_path):
    code = run(tmp_path, scenario("static_graph.json"), "check-coupling")
    assert code == 2
    doc = report(tmp_path, "check-coupling")
    assert doc["result"]["feasible"] is False
    assert doc["result"]["violated_subset"]["nu_future_mass"] == 0.5


def test_check_coupling_leaves_out_dust_arcs(tmp_path):
    # nu's 5e-324 atom makes the flow send about 2**-1075 of mu's mass
    # along (0, 0) -> (1, 0.5), a weight that rounds to 0.0: the verb
    # reports the coupling without that arc
    doc = {
        "schema_version": 1,
        "spacetime": {"backend": "minkowski-1+1", "tolerance": 0.0},
        "measures": {
            "mu": {"tau": 0.0, "atoms": [[0.0, 0.5], [0.25, 0.5]]},
            "nu": {"tau": 1.0, "atoms": [[0.0, 0.5], [0.5, 0.5], [0.75, 5e-324]]},
        },
    }
    path = tmp_path / "dust.json"
    path.write_text(json.dumps(doc))
    assert run(tmp_path, str(path), "check-coupling", "--mu", "mu", "--nu", "nu") == 0
    result = report(tmp_path, "check-coupling")["result"]
    assert result["feasible"] is True
    assert [(p[1], q[1], w) for p, q, w in result["coupling"]["atoms"]] == \
        [(0.0, 0.0, 0.5), (0.25, 0.5, 0.5), (0.25, 0.75, 5e-324)]


def test_one_max_flow_per_decision(tmp_path, monkeypatch):
    # An infeasible pair is decided, and its cut found, by a single solve.
    solves = []
    max_flow = causalot.coupling._max_flow

    def counted(instance):
        solves.append(instance)
        return max_flow(instance)

    monkeypatch.setattr(causalot.coupling, "_max_flow", counted)
    assert run(tmp_path, scenario("static_graph.json"), "check-coupling") == 2
    assert len(solves) == 1
    st = Spacetime("minkowski-1+1")
    slices = [(0.0, SliceMeasure(st, [(st.event(0.0, 0.0), 1.0)])),
              (1.0, SliceMeasure(st, [(st.event(1.0, 3.0), 1.0)]))]
    evo = Evolution(st, slices, canonical_time(), MeshSpec("dyadic", 0.0, 1.0, 0))
    solves.clear()
    with pytest.raises(NonCausalEvolutionError):
        synthesize_compact(st, canonical_time(), evo)
    assert len(solves) == 1


def test_failed_synthesis_reports_the_check_evolution_witness(tmp_path):
    path = scenario("minkowski_branching.json")
    assert run(tmp_path, path, "synthesize", "--evolution", "superluminal") == 2
    doc = report(tmp_path, "synthesize")
    jsonschema.validate(doc, _load_schema("report.schema.json"))
    result = doc["result"]
    assert result["synthesized"] is False
    assert result["step"] == [0.375, 0.5]
    assert run(tmp_path, path, "check-evolution", "--evolution", "superluminal") == 2
    steps = report(tmp_path, "check-evolution")["result"]["steps"]
    failing = [step for step in steps if not step["causal"]]
    assert [[step["s"], step["t"]] for step in failing] == [result["step"]]
    assert result["witness"] == failing[0]["witness"]


def test_readme_cli_commands(tmp_path):
    # Every command of the README's bundled-scenario block runs with the
    # exit code the README states: 0, or the one named in its comment.
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = re.search(r"```sh\n(causalot scenarios/.*?)```", readme, re.S).group(1)
    commands = block.replace("\\\n", " ").splitlines()
    assert len(commands) >= 6
    for line in commands:
        command, _, comment = line.partition("#")
        exit_code = re.search(r"exit (\d)", comment)
        prog, path, *argv = shlex.split(command)
        assert prog == "causalot"
        code = run(tmp_path, os.path.join(ROOT, path), *argv)
        assert code == (int(exit_code.group(1)) if exit_code else 0), line


def test_invariance_check(tmp_path):
    assert run(tmp_path, scenario("tilted_observer.json"), "invariance-check") == 0
    doc = report(tmp_path, "invariance-check")
    assert doc["result"]["rawpaths_equal"] is True


def test_synthesize_to_it_with_observer(tmp_path):
    assert run(tmp_path, scenario("tilted_observer.json"), "synthesize") == 0
    doc = report(tmp_path, "synthesize")
    assert doc["result"]["identity_parametrized"] is True
    assert doc["result"]["observer"]["time_function"] == "tilt"


def test_reparametrize_verb(tmp_path):
    assert run(tmp_path, scenario("minkowski_branching.json"), "reparametrize",
               "--curve", "halfspeed", "--source", "T0", "--target", "tilt") == 0
    doc = report(tmp_path, "reparametrize")
    assert doc["result"]["round_trip_ok"] is True


def test_bounds_report_verb(tmp_path):
    assert run(tmp_path, scenario("minkowski_branching.json"), "bounds-report") == 0
    doc = report(tmp_path, "bounds-report")
    assert doc["result"]["within_envelopes"] is True


def test_unknown_reference_exits_1(tmp_path):
    code = run(tmp_path, scenario("static_graph.json"), "check-coupling",
               "--mu", "nope", "--nu", "at_A")
    assert code == 1


def test_malformed_scenario_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 1}')
    assert run(tmp_path, str(bad), "validate") == 1
    bad.write_text("not json")
    assert run(tmp_path, str(bad), "validate") == 1
    bad.write_bytes(b'{"schema_version": "\xff"}')  # not UTF-8
    assert run(tmp_path, str(bad), "validate") == 1


def test_reports_byte_identical_modulo_timestamp(tmp_path):
    d1 = tmp_path / "r1"
    d2 = tmp_path / "r2"
    d1.mkdir()
    d2.mkdir()
    for d in (d1, d2):
        assert main([scenario("minkowski_branching.json"), "synthesize",
                     "--report-dir", str(d)]) == 0

    def normalized(d):
        lines = (d / "report-synthesize.json").read_text().splitlines()
        return [ln for ln in lines if "generated_at" not in ln]

    assert normalized(d1) == normalized(d2)
    assert (d1 / "branching-marginals.csv").read_bytes() == \
        (d2 / "branching-marginals.csv").read_bytes()


def test_scenario_loader_resolves_names():
    sc = load_scenario(scenario("static_graph.json"))
    assert set(sc.evolutions) == {"static_at_A", "walk_to_C"}
    assert "ramp" in sc.time_functions
    assert sc.spacetime.backend == "static-graph"


def test_report_dir_created_when_missing(tmp_path):
    target = tmp_path / "fresh" / "nested"
    assert main([scenario("static_graph.json"), "validate",
                 "--report-dir", str(target)]) == 0
    assert (target / "report-validate.json").exists()


def test_scenario_tolerance_reaches_backend(tmp_path):
    doc = {
        "schema_version": 1,
        "spacetime": {"backend": "minkowski-1+1", "tolerance": 0.25},
        "measures": {
            "m0": {"tau": 0.0, "atoms": [[0.0, 1.0]]},
            "m1": {"tau": 1.0, "atoms": [[1.2, 1.0]]},
        },
    }
    path = tmp_path / "soft.json"
    path.write_text(json.dumps(doc))
    code = run(tmp_path, str(path), "check-coupling", "--mu", "m0", "--nu", "m1")
    assert code == 0  # feasible only because of the causality slack


def test_emitted_curves_reload_as_literals(tmp_path):
    # atoms of a synthesized measure round-trip through the curve literal
    # syntax: serialize, reload, compare breakpoints
    from causalot import CausalCurve, Interval, curves_close

    for name, verb_args in (("minkowski_branching.json", ["synthesize", "--mesh-depth", "2"]),
                            ("static_graph.json", ["synthesize"])):
        assert run(tmp_path, scenario(name), *verb_args) == 0
        doc = report(tmp_path, "synthesize")
        sc = load_scenario(scenario(name))
        st = sc.spacetime
        for literal, weight in doc["result"]["curve_measure"]["atoms"]:
            dom = literal["domain"]
            domain = {"compact": lambda: Interval.compact(dom["a"], dom["b"]),
                      "future": lambda: Interval.future(dom["a"]),
                      "past": lambda: Interval.past(dom["b"]),
                      "line": Interval.line}[dom["kind"]]()
            bps = [(tau, st.event(t, tuple(x) if isinstance(x, list) else x))
                   for tau, t, x in literal["breakpoints"]]
            tf = sc.time_functions.get(literal.get("time_function", ""), None)
            rebuilt = CausalCurve.from_breakpoints(st, domain, bps, time_function=tf)
            assert [e for _, e in rebuilt.breakpoints] == \
                [st.event(t, tuple(x) if isinstance(x, list) else x)
                 for _, t, x in literal["breakpoints"]]
            assert weight > 0


def test_shipped_schemas_are_valid():
    for name in ("scenario.schema.json", "report.schema.json"):
        schema = _load_schema(name)
        jsonschema.validators.validator_for(schema).check_schema(schema)


def _broken_scenarios():
    with open(scenario("static_graph.json"), encoding="utf-8") as fh:
        base = json.load(fh)

    def edited(edit):
        doc = copy.deepcopy(base)
        edit(doc)
        return doc

    def several(doc):
        # the first error found is the edge length, deepest in the document;
        # best_match picks the shallowest one, the evolutions section
        doc["spacetime"]["edges"][1][2] = 0.0
        doc["measures"]["spread"]["atoms"][0] = ["A"]
        doc["evolutions"] = []

    return {
        "missing spacetime": edited(lambda d: d.pop("spacetime")),
        "unknown backend": edited(lambda d: d["spacetime"].update(backend="de-sitter")),
        "two-element edge": edited(lambda d: d["spacetime"]["edges"].__setitem__(0, ["A", "B"])),
        "non-positive edge length": edited(lambda d: d["spacetime"]["edges"][1].__setitem__(2, 0.0)),
        "extra top-level key": edited(lambda d: d.update(extra=1)),
        "several errors": edited(several),
    }


def _reference_message(doc):
    # the message the CLI built around jsonschema.validate, which checks
    # the schema, builds a validator and raises best_match on every call
    try:
        jsonschema.validate(doc, _load_schema("scenario.schema.json"))
    except jsonschema.ValidationError as err:
        return (f"scenario schema violation at "
                f"{'/'.join(str(p) for p in err.absolute_path)}: {err.message}")
    return None


def test_prebuilt_validator_reports_what_validate_reported(tmp_path):
    broken = _broken_scenarios()
    schema = _load_schema("scenario.schema.json")
    errors = list(jsonschema.validators.validator_for(schema)(schema)
                  .iter_errors(broken["several errors"]))
    assert len(errors) == 3
    assert errors[0].message != jsonschema.exceptions.best_match(errors).message
    for what, doc in broken.items():
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        want = _reference_message(doc)
        assert want is not None, what
        with pytest.raises(InputError) as err:
            load_scenario(str(path))
        assert str(err.value) == want, what


def test_one_scenario_validator_per_process():
    # valid scenarios are checked by the predicate compiled once from the
    # schema; only broken ones build a jsonschema validator, once, to
    # explain the violation (each cache miss is one compile or one build)
    check, validator = causalot.cli._scenario_check, causalot.cli._scenario_validator
    check.cache_clear()
    validator.cache_clear()
    try:
        for name in ("static_graph.json", "minkowski_branching.json",
                     "tilted_observer.json"):
            load_scenario(scenario(name))
        assert check.cache_info().misses == 1
        assert validator.cache_info().misses == 0
        for doc in _broken_scenarios().values():
            with pytest.raises(InputError, match="scenario schema violation"):
                causalot.cli.Scenario(doc)
        assert check.cache_info().misses == 1
        assert validator.cache_info().misses == 1
    finally:
        check.cache_clear()
        validator.cache_clear()


def test_valid_scenarios_never_import_jsonschema():
    code = """
import glob, sys
from causalot import InputError
from causalot.cli import Scenario, load_scenario
paths = sorted(glob.glob(sys.argv[1]))
assert len(paths) == 3, paths
for path in paths:
    load_scenario(path)
assert "jsonschema" not in sys.modules
try:
    Scenario({"schema_version": 1})
except InputError:
    pass
else:
    raise AssertionError("a scenario without a spacetime was accepted")
assert "jsonschema" in sys.modules
"""
    # the subprocess imports the causalot this test imported, installed or not
    package_root = os.path.dirname(os.path.dirname(causalot.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code, os.path.join(SCENARIOS, "*.json")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name, literal, replacement, token", [
    ("static_graph.json", '"alpha": 1.0', '"alpha": NaN', "NaN"),
    ("static_graph.json", '[["A", 1.0]]', '[["A", NaN]]', "NaN"),
    ("static_graph.json", '[["A", 1.0]]', '[["A", Infinity]]', "Infinity"),
    ("minkowski_branching.json", '"tolerance": 0.0', '"tolerance": Infinity', "Infinity"),
    ("minkowski_branching.json", '"tolerance": 0.0', '"tolerance": -Infinity', "-Infinity"),
])
def test_non_json_number_tokens_exit_1(tmp_path, capsys, name, literal, replacement, token):
    # NaN and the infinities are not JSON (RFC 8259); json.load would read them
    with open(scenario(name), encoding="utf-8") as fh:
        text = fh.read()
    assert literal in text
    path = tmp_path / name
    path.write_text(text.replace(literal, replacement, 1))
    assert run(tmp_path, str(path), "validate") == 1
    assert capsys.readouterr().err == (f"error: scenario {path} is not valid JSON: "
                                       f"{token} is not a JSON number\n")


@pytest.mark.parametrize("name, literal, replacement", [
    ("minkowski_branching.json", '"alpha": 1.0', '"alpha": 1' + "0" * 400),
    ("static_graph.json", '["A", "B", 1.0]', '["A", "B", ' + "7" * 400 + "]"),
    ("static_graph.json", '"C": 1.5', '"C": -' + "9" * 400),
])
def test_an_integer_beyond_the_float_range_is_refused_at_load(tmp_path, capsys, name, literal,
                                                              replacement):
    # json.load reads a long digit string as an int, which no constructor
    # can convert to a float: OverflowError, where 1e400 reads as inf
    with open(scenario(name), encoding="utf-8") as fh:
        text = fh.read()
    assert literal in text
    path = tmp_path / name
    path.write_text(text.replace(literal, replacement, 1))
    digits = replacement.split(" ")[-1].rstrip("]")[:20]
    for verb in ("validate", "check-evolution", "synthesize"):
        assert run(tmp_path, str(path), verb) == 1
        assert capsys.readouterr().err == (f"error: scenario integer {digits}... lies "
                                           "beyond the float range\n")


@pytest.mark.parametrize("name, literal, replacement, message", [
    ("static_graph.json", '"C": 1.5', '"C": 1e999',
     "offset of vertex 'C' must be finite, got inf"),
    ("minkowski_branching.json", '"slope": 0.5', '"slope": 1e999',
     "time function slope must be finite, got inf"),
    ("minkowski_branching.json", '[1.0, 1.0, 0.5]', '[1e999, 1.0, 0.5]',
     "breakpoint parameter inf is not finite"),
    # finite offsets whose difference along the edge A-B overflows
    ("static_graph.json", '"A": 0.0, "B": 0.5', '"A": 1.5e308, "B": -1.5e308',
     "offsets 1.5e+308 of 'A' and -1.5e+308 of 'B' differ beyond the float "
     "range along edge ('A', 'B')"),
])
def test_non_finite_time_function_data_exit_1(tmp_path, capsys, name, literal,
                                              replacement, message):
    # 1e999 is valid JSON grammar, and json.load reads it as inf
    with open(scenario(name), encoding="utf-8") as fh:
        text = fh.read()
    assert literal in text
    path = tmp_path / name
    path.write_text(text.replace(literal, replacement, 1))
    reports = tmp_path / "reports"
    assert main([str(path), "validate", "--report-dir", str(reports)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not reports.exists() or os.listdir(reports) == []


def test_report_with_a_non_finite_number_is_not_written(tmp_path):
    args = causalot.cli.build_parser().parse_args(
        ["scenario.json", "validate", "--report-dir", str(tmp_path)])
    with pytest.raises(InputError, match="non-finite"):
        causalot.cli.write_report(args, "validate", "scenario.json", True,
                                  {"lipschitz": float("inf")})
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("flags, literal, replacement, value", [
    (["--slack", "nan"], None, None, "nan"),
    (["--slack", "inf"], None, None, "inf"),
    (["--slack", "-1"], None, None, "-1.0"),
    # valid JSON grammar that json.load reads as inf
    ([], '"t2": "T0", "a"', '"t2": "T0", "slack": 1e999, "a"', "inf"),
])
def test_a_slack_that_is_not_finite_and_nonnegative_exits_1(tmp_path, capsys, flags, literal,
                                                            replacement, value):
    path = scenario("minkowski_branching.json")
    if literal is not None:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert literal in text
        path = tmp_path / "minkowski_branching.json"
        path.write_text(text.replace(literal, replacement, 1))
    reports = tmp_path / "reports"
    assert main([str(path), "bounds-report", *flags, "--report-dir", str(reports)]) == 1
    assert capsys.readouterr().err == (
        f"error: slack must be finite and nonnegative, got {value}\n")
    assert not reports.exists() or os.listdir(reports) == []


def _scenario_copy(tmp_path, name, edit):
    with open(scenario(name), encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("flags, want", [
    # explicit flags whose value equals the built-in default still win
    (["--slack", "0.0", "--source", "T0", "--target", "T0", "--t2", "T0"],
     {"slack": 0.0, "source": "T0", "target": "T0", "t2": "T0"}),
    (["--slack", "0.25"], {"slack": 0.25, "source": "tilt", "target": "tilt", "t2": "tilt"}),
    # absent flags take the section, then the built-in defaults
    ([], {"slack": 0.5, "source": "tilt", "target": "tilt", "t2": "tilt",
          "mode": "consecutive", "interval": "compact", "horizon": 1, "to_it": False}),
])
def test_command_line_flags_override_the_commands_section(tmp_path, monkeypatch, flags, want):
    def edit(doc):
        doc["commands"]["bounds-report"].update(
            {"slack": 0.5, "source": "tilt", "target": "tilt", "t2": "tilt"})

    path = _scenario_copy(tmp_path, "minkowski_branching.json", edit)
    seen = {}

    def verb(sc, args):
        seen.update(vars(args))
        return True, {}

    monkeypatch.setitem(causalot.cli.VERBS, "bounds-report", verb)
    assert run(tmp_path, path, "bounds-report", *flags) == 0
    assert {key: seen[key] for key in want} == want


@pytest.mark.parametrize("name, verb, key, value, kind", [
    ("static_graph.json", "synthesize", "horizon", 1.5, "an integer"),
    ("static_graph.json", "synthesize", "horizon", "3", "an integer"),
    ("static_graph.json", "synthesize", "horizon", True, "an integer"),
    ("static_graph.json", "synthesize", "evolution", ["static_at_A"], "a string"),
    ("minkowski_branching.json", "synthesize", "mesh-depth", "x", "an integer"),
    ("minkowski_branching.json", "bounds-report", "a", "zero", "a number"),
    ("minkowski_branching.json", "bounds-report", "slack", False, "a number"),
    ("tilted_observer.json", "synthesize", "to-it", 1, "a boolean"),
])
def test_a_commands_value_of_the_wrong_json_type_exits_1(tmp_path, capsys, name, verb, key,
                                                         value, kind):
    # each value has the JSON type its flag takes, and a boolean is not a
    # number; the refusal is one line, before the verb runs
    path = _scenario_copy(tmp_path, name,
                          lambda doc: doc["commands"].setdefault(verb, {}).update({key: value}))
    reports = tmp_path / "reports"
    assert main([path, verb, "--report-dir", str(reports)]) == 1
    assert capsys.readouterr().err == (f"error: parameter {key!r} in the {verb} command "
                                       f"section must be {kind}, got {value!r}\n")
    assert not reports.exists()


def test_an_integer_is_a_number_in_the_commands_section(tmp_path):
    path = _scenario_copy(tmp_path, "minkowski_branching.json",
                          lambda doc: doc["commands"]["bounds-report"].update({"a": 0, "b": 1}))
    assert run(tmp_path, path, "bounds-report") == 0
    assert report(tmp_path, "bounds-report")["status"] == "ok"


@pytest.mark.parametrize("verb", ["validate", "synthesize"])
@pytest.mark.parametrize("field", ["a", "b", "depth"])
def test_dyadic_mesh_without_its_parameters_exits_1(tmp_path, capsys, verb, field):
    path = _scenario_copy(tmp_path, "minkowski_branching.json",
                          lambda doc: doc["evolutions"]["branching"]["mesh"].pop(field))
    reports = tmp_path / "reports"
    assert main([path, verb, "--report-dir", str(reports)]) == 1
    assert capsys.readouterr().err == f"error: a dyadic mesh needs {field!r}\n"
    assert not reports.exists() or os.listdir(reports) == []


def test_a_declared_dyadic_depth_of_60_fails_validate(tmp_path):
    # refused by the count of its times, without building 2**60 + 1 of them
    def deepen(doc):
        for evolution in doc["evolutions"].values():
            evolution["mesh"]["depth"] = 60

    path = _scenario_copy(tmp_path, "minkowski_branching.json", deepen)
    assert run(tmp_path, path, "validate") == 2
    evolutions = report(tmp_path, "validate")["result"]["evolutions"]
    assert evolutions and not any(entry["ok"] for entry in evolutions.values())
    assert all("at depth 60" in entry["error"] for entry in evolutions.values())


def test_a_declared_dyadic_depth_of_10_to_the_12_costs_no_memory(tmp_path, capsys):
    # 2**depth would take 125 GB: the slice count is compared through its
    # bits, and the sub-mesh stride's exponent stops at the entry count
    depth = 10 ** 12

    def deepen(doc):
        for evolution in doc["evolutions"].values():
            evolution["mesh"]["depth"] = depth

    path = _scenario_copy(tmp_path, "minkowski_branching.json", deepen)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        assert run(tmp_path, path, "validate") == 2
        assert main([path, "synthesize", "--mesh-depth", "0",
                     "--report-dir", str(tmp_path / "none")]) == 1
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == "error: need at least two slices\n"
    evolutions = report(tmp_path, "validate")["result"]["evolutions"]
    assert evolutions and all(
        entry["error"].endswith(f"do not form the dyadic mesh of [0.0, 1.0] at depth {depth}")
        for entry in evolutions.values())
    assert elapsed < 1.0 and peak < 20e6


@pytest.mark.parametrize("flag", [["--horizon", "x"], ["--a", "-inf"], ["--to-IT"]])
def test_malformed_flag_exits_1(tmp_path, capsys, flag):
    # argparse exits 2, the code of a failed verification, on a malformed
    # command line; it is an input error.  "-inf" after "--a" reads as an
    # option, not as a value, and --to-it has one spelling.
    reports = tmp_path / "reports"
    with pytest.raises(SystemExit) as exit_:
        main([scenario("minkowski_branching.json"), "synthesize", *flag,
              "--report-dir", str(reports)])
    assert exit_.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: causalot ") and "causalot: error: " in err
    assert not reports.exists()


# One process's calls, in order: a malformed command line between valid ones
# must leave nothing behind in the parser that the next call reads.
ONE_PROCESS = [
    ("minkowski_branching.json", "validate"),
    ("minkowski_branching.json", "synthesize", "--horizon", "x"),
    ("minkowski_branching.json", "synthesize", "--to-IT"),
    ("static_graph.json", "synthesize", "--interval", "future", "--horizon", "2"),
    ("minkowski_branching.json", "validate"),
    ("static_graph.json", "synthesize"),
]


def _calls(tmp_path, capsys):
    """Run ONE_PROCESS through ``main``: for each call its exit code, stdout,
    stderr, and report bytes with ``generated_at`` masked (None when it
    writes no report)."""
    reports = tmp_path / "reports"
    out = []
    for name, verb, *flags in ONE_PROCESS:
        path = reports / f"report-{verb}.json"
        if path.exists():
            path.unlink()
        try:
            code = main([scenario(name), verb, *flags, "--report-dir", str(reports)])
        except SystemExit as exit_:
            code = exit_.code
        stdout, stderr = capsys.readouterr()
        body = re.sub(rb'"generated_at": "[^"]*"', b'"generated_at": ""',
                      path.read_bytes()) if path.exists() else None
        out.append((code, stdout, stderr, body))
    return out


def test_calls_in_one_process_match_calls_through_a_fresh_parser(tmp_path, capsys,
                                                                 monkeypatch):
    shared = _calls(tmp_path, capsys)
    assert causalot.cli._parser() is causalot.cli._parser()
    assert [code for code, *_ in shared] == [0, 1, 1, 0, 0, 0]
    for code, stdout, stderr, body in shared:
        if code == 1:
            assert stdout == "" and body is None
            assert stderr.startswith("usage: causalot ") and "causalot: error: " in stderr
        else:
            assert stderr == "" and body is not None
    assert shared[0] == shared[4] and shared[3] != shared[5]
    # the same calls, each through a parser of its own
    monkeypatch.setattr(causalot.cli, "_parser", causalot.cli._parser.__wrapped__)
    assert _calls(tmp_path, capsys) == shared
    assert causalot.cli.build_parser() is not causalot.cli.build_parser()


@pytest.mark.parametrize("a, b", [("nan", "1"), ("0", "nan"), ("-inf", "1")])
def test_non_finite_interval_endpoint_exits_1(tmp_path, capsys, a, b):
    # a NaN endpoint used to pass every comparison and synthesize on the
    # dyadic mesh instead of the right-open one
    reports = tmp_path / "reports"
    code = main([scenario("minkowski_branching.json"), "synthesize", "--evolution", "branching",
                 "--interval", "right-open", f"--a={a}", f"--b={b}", "--horizon", "8",
                 "--report-dir", str(reports)])
    assert code == 1
    bad = a if a != "0" else b
    assert capsys.readouterr().err == \
        f"error: interval endpoints must be finite, got {float(bad)}\n"
    assert not reports.exists() or os.listdir(reports) == []


MINKOWSKI = {"backend": "minkowski-1+1", "alpha": 1.0, "u": 1.0, "tolerance": 0.0}


def _write_scenario(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"schema_version": 1, "spacetime": MINKOWSKI, **doc}))
    return str(path)


def _geometric_scenario(tmp_path, synthesize):
    """Evolutions on the right-open, left-open and two-sided geometric
    meshes of [0, 1], at horizons 3, 3 and 2: two atoms drifting apart at
    half the speed of light."""
    right = geometric_times(0.0, 1.0, 3)
    half = geometric_times(0.5, 1.0, 2)
    meshes = {"right": right, "left": [1.0 - t for t in right][::-1],
              "both": [1.0 - t for t in half][::-1][:-1] + half}
    evolutions = {name: {"time_function": "T0", "mesh": {"kind": "explicit"},
                         "slices": [{"tau": t, "atoms": [[-1.0 - t / 2, 0.5], [1.0 + t / 2, 0.5]]}
                                    for t in times]}
                  for name, times in meshes.items()}
    return _write_scenario(tmp_path, {"evolutions": evolutions,
                                      "commands": {"synthesize": synthesize}})


@pytest.mark.parametrize("name, flags", [
    ("static_graph.json", ["--interval", "future"]),
    ("static_graph.json", ["--interval", "past"]),
    ("static_graph.json", ["--interval", "line"]),
    ("minkowski_branching.json", ["--interval", "compact"]),
    ("geometric", ["--evolution", "right", "--interval", "right-open", "--horizon", "3"]),
    ("geometric", ["--evolution", "left", "--interval", "left-open", "--horizon", "3"]),
    ("geometric", ["--evolution", "both", "--interval", "open", "--horizon", "2"]),
    # horizon 1 lifts one slab that is both first and last
    ("static_graph.json", ["--interval", "future", "--horizon", "1"]),
    ("static_graph.json", ["--interval", "future", "--horizon", "2"]),
    ("static_graph.json", ["--interval", "past", "--horizon", "1"]),
    ("static_graph.json", ["--interval", "past", "--horizon", "2"]),
    ("static_graph.json", ["--interval", "line", "--horizon", "1"]),
])
def test_every_synthesis_request_exits_0(tmp_path, name, flags):
    if name == "geometric":
        path = _geometric_scenario(tmp_path, {})
        flags = [*flags, "--a", "0", "--b", "1"]
    else:
        path = scenario(name)
    assert run(tmp_path, path, "synthesize", *flags) == 0
    result = report(tmp_path, "synthesize")["result"]
    assert result["synthesized"] is True
    assert result["max_mesh_marginal_distance"] == 0.0
    # every curve lives on the requested interval and keeps its pace
    kind = flags[flags.index("--interval") + 1]
    curves = [curve for curve, _ in result["curve_measure"]["atoms"]]
    assert curves and all(curve["pace"] is not None for curve in curves)
    if kind in ("future", "past", "line"):
        assert {curve["domain"]["kind"] for curve in curves} == {kind}


@pytest.mark.parametrize("name, interval, domain", [
    ("minkowski_branching.json", "compact", {"kind": "compact", "a": 0.0, "b": 1.0}),
    ("static_graph.json", "future", {"kind": "future", "a": -3.0}),
    ("static_graph.json", "past", {"kind": "past", "b": 3.0}),
    ("static_graph.json", "line", {"kind": "line"}),
])
def test_a_synthesized_domain_lists_only_its_finite_ends(tmp_path, name, interval, domain):
    assert run(tmp_path, scenario(name), "synthesize", "--interval", interval) == 0
    atoms = report(tmp_path, "synthesize")["result"]["curve_measure"]["atoms"]
    assert atoms and all(curve["domain"] == domain for curve, _ in atoms)


@pytest.mark.parametrize("flags, section, message", [
    (["--interval", "right-open", "--a", "0"], {},
     "open intervals need the endpoints --a and --b"),
    (["--interval", "right-open", "--a", "nan", "--b", "1"], {},
     "interval endpoints must be finite, got nan"),
    (["--interval", "left-open", "--a", "1", "--b", "0"], {},
     "compact interval needs a <= b, got [1.0, 0.0]"),
    (["--interval", "right-open", "--a", "1", "--b", "1"], {}, "need a < b, got [1.0, 1.0]"),
    (["--interval", "right-open", "--a", "0", "--b", "2"], {},
     "evolution times [0.0, 0.5, 0.75, 0.875] do not match the right-open mesh "
     "[0.0, 1.0, 1.5, 1.75]"),
    ([], {"interval": "sideways"}, "unknown interval request 'sideways'"),
    (["--interval", "right-open", "--a", "0", "--b", "1", "--horizon", "0"], {},
     "horizon must be >= 1, got 0"),
    # past depth 53 the mesh of [0, 1] reaches 1.0; 2000 used to overflow
    # 2**i as a float and end in a traceback
    *((["--interval", "right-open", "--a", "0", "--b", "1", "--horizon", str(n)], {},
       f"a geometric mesh {n} halvings deep reaches 1.0 in floating point on "
       "[0.0, 1.0); the deepest that stays below it is 53") for n in (54, 2000)),
])
def test_synthesis_request_errors_exit_1(tmp_path, capsys, flags, section, message):
    path = _geometric_scenario(tmp_path, {"evolution": "right", "horizon": 3, **section})
    reports = tmp_path / "reports"
    assert main([path, "synthesize", *flags, "--report-dir", str(reports)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not reports.exists() or os.listdir(reports) == []


def test_a_deficit_beyond_the_mass_tolerance_exits_2(tmp_path):
    # (0, 0.0) reaches only (1, 0.5), which carries 1e-10 less: every verb
    # reports that cut, none fails on the witness coupling's unit mass
    mu = {"tau": 0.0, "atoms": [[0.0, 0.5], [2.0, 0.5]]}
    nu = {"tau": 1.0, "atoms": [[0.5, 0.5 - 1e-10], [2.5, 0.5 + 1e-10]]}
    path = _write_scenario(tmp_path, {
        "measures": {"mu": mu, "nu": nu},
        "evolutions": {"probe": {"time_function": "T0", "mesh": {"kind": "integer"},
                                 "slices": [mu, nu]}},
        "commands": {"check-coupling": {"mu": "mu", "nu": "nu"},
                     "check-evolution": {"evolution": "probe"},
                     "synthesize": {"evolution": "probe", "interval": "future"}}})
    cut = [[0.0, 0.0]]
    assert run(tmp_path, path, "check-coupling") == 2
    assert report(tmp_path, "check-coupling")["result"]["violated_subset"]["events"] == cut
    assert run(tmp_path, path, "check-evolution") == 2
    steps = report(tmp_path, "check-evolution")["result"]["steps"]
    assert [step["witness"]["events"] for step in steps] == [cut]
    assert run(tmp_path, path, "synthesize") == 2
    result = report(tmp_path, "synthesize")["result"]
    assert result["synthesized"] is False and result["witness"]["events"] == cut


def test_a_deficit_at_the_mass_bound_exits_2(tmp_path):
    # mu sits 9e-13 below unit mass and (0, 0.0) reaches only (1, 0.5),
    # which carries 5e-13 less: forgiving that deficit would leave a witness
    # of mass 1 - 1.4e-12, so every verb reports the cut instead
    mu = {"tau": 0.0, "atoms": [[0.0, 0.5 - 4.5e-13], [2.0, 0.5 - 4.5e-13]]}
    nu = {"tau": 1.0, "atoms": [[0.5, 0.5 - 5e-13], [2.5, 0.5 + 5e-13]]}
    path = _write_scenario(tmp_path, {
        "measures": {"mu": mu, "nu": nu},
        "evolutions": {"probe": {"time_function": "T0", "mesh": {"kind": "integer"},
                                 "slices": [mu, nu]}}})
    cut = [[0.0, 0.0]]
    assert run(tmp_path, path, "check-coupling", "--mu", "mu", "--nu", "nu") == 2
    assert report(tmp_path, "check-coupling")["result"]["violated_subset"]["events"] == cut
    for mode in ("consecutive", "all-pairs"):
        assert run(tmp_path, path, "check-evolution", "--evolution", "probe",
                   "--mode", mode) == 2
        steps = report(tmp_path, "check-evolution")["result"]["steps"]
        assert [step["witness"]["events"] for step in steps if not step["causal"]] == [cut]
    assert run(tmp_path, path, "synthesize", "--evolution", "probe",
               "--interval", "future", "--horizon", "1") == 2
    assert report(tmp_path, "synthesize")["result"]["witness"]["events"] == cut


def test_a_glue_beyond_the_curve_cap_exits_1(tmp_path, capsys):
    # 17 slices at the integer times -8..8, eight sites each in [0, 0.875],
    # so every site pair of neighbouring slices is causal; the two weight
    # vectors alternate and their partial sums interleave, so each witness
    # splits mass into 15 pieces and the final glue at horizon 8 would
    # build 344,701 curves, which the full-size cap refuses before building one
    xs = [i / 8 for i in range(8)]
    weights = [[1 / 8] * 8, [1 / 16] + [1 / 8] * 6 + [3 / 16]]
    slices = [{"tau": float(k), "atoms": [[x, w] for x, w in zip(xs, weights[k % 2])]}
              for k in range(-8, 9)]
    path = _write_scenario(tmp_path, {"evolutions": {"wide": {
        "time_function": "T0", "mesh": {"kind": "integer"}, "slices": slices}}})
    reports = tmp_path / "reports"
    assert main([path, "synthesize", "--evolution", "wide", "--interval", "line",
                 "--horizon", "8", "--report-dir", str(reports)]) == 1
    assert capsys.readouterr().err == ("error: gluing at 0.0 would build 344701 curves, "
                                       "more than the cap of 100000\n")
    assert not reports.exists() or os.listdir(reports) == []


def _probe(base, edit):
    with open(scenario(base), encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    return doc


def _domain(domain):
    return lambda doc: doc["curves"]["halfspeed"].__setitem__("domain", domain)


def _offsets_on_minkowski(doc):
    doc["time_functions"]["tilt"] = {"offsets": {"A": 1.0}}
    doc["measures"] = {"m": {"tau": 0.0, "time_function": "tilt", "atoms": [[0.0, 1.0]]}}


# schema-valid scenarios that the loader refuses: each once crashed with a
# traceback or was silently misread
LOAD_PROBES = [
    ("minkowski_branching.json", _domain({"kind": "compact", "b": 1.0}),
     "curve 'halfspeed' declares a compact domain, but its ends make (-inf, 1.0], "
     "a past domain"),
    ("minkowski_branching.json", _domain({"kind": "future"}),
     "curve 'halfspeed' declares a future domain, but its ends make R, a line domain"),
    ("minkowski_branching.json", _domain({"kind": "past"}),
     "curve 'halfspeed' declares a past domain, but its ends make R, a line domain"),
    ("minkowski_branching.json", _domain({"kind": "line", "a": 0.0}),
     "curve 'halfspeed' declares a line domain, but its ends make [0.0, +inf), "
     "a future domain"),
    ("minkowski_branching.json", _domain({"kind": "future", "a": 0.0, "b": 5.0}),
     "curve 'halfspeed' declares a future domain, but its ends make [0.0, 5.0], "
     "a compact domain"),
    ("tilted_observer.json",
     lambda doc: doc["time_functions"].__setitem__("tilt", {"slope": 0.5, "offsets": {"A": 1.0}}),
     "give either a slope or vertex offsets, not both"),
    ("tilted_observer.json", _offsets_on_minkowski,
     "offset form only applies to the graph backend"),
    ("tilted_observer.json",
     lambda doc: doc["evolutions"]["drift"]["slices"].__setitem__(
         2, {"tau": 0.0, "time_function": "tilt", "atoms": [[2.0, 1.0]]}),
     "evolution 'drift': the slice at tau 0.0 names time function 'tilt', "
     "not the evolution's 'T0'"),
    ("minkowski_branching.json",
     lambda doc: doc["curves"]["static"].__setitem__(
         "breakpoints", [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
     "breakpoint parameters must increase: 0.0 then 0.0"),
]


@pytest.mark.parametrize("base, edit, message", LOAD_PROBES)
def test_a_schema_valid_scenario_is_refused_at_load(tmp_path, capsys, base, edit, message):
    doc = _probe(base, edit)
    causalot.cli._check_schema(doc)
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    reports = tmp_path / "reports"
    for verb in sorted(causalot.cli.VERBS):
        assert main([str(path), verb, "--report-dir", str(reports)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not reports.exists() or os.listdir(reports) == []


def test_an_infinite_domain_end_is_refused_at_load(tmp_path, capsys):
    doc = _probe("minkowski_branching.json", _domain({"kind": "future", "a": 12345.0}))
    path = tmp_path / "probe.json"
    # json.load reads 1e999 as inf; json.dumps cannot write it
    path.write_text(json.dumps(doc).replace("12345.0", "1e999"), encoding="utf-8")
    assert run(tmp_path, str(path), "validate") == 1
    assert capsys.readouterr().err == "error: interval endpoints must be finite, got inf\n"


def test_a_slice_may_repeat_its_evolutions_time_function():
    doc = _probe("tilted_observer.json", lambda doc: doc["evolutions"]["drift"]["slices"][2]
                 .__setitem__("time_function", "T0"))
    assert causalot.cli.Scenario(doc).evolutions["drift"].entries[2][1].atoms == \
        load_scenario(scenario("tilted_observer.json")).evolutions["drift"].entries[2][1].atoms


def test_invariance_check_without_an_observer_names_what_is_missing(tmp_path, capsys):
    assert run(tmp_path, scenario("tilted_observer.json"), "invariance-check",
               "--evolution", "drift") == 0  # the commands section names the observer
    doc = _probe("tilted_observer.json", lambda doc: doc["commands"].pop("invariance-check"))
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert run(tmp_path, str(path), "invariance-check", "--evolution", "drift") == 1
    assert capsys.readouterr().err == "error: missing required time function name\n"


_NUMBER = st_.one_of(st_.sampled_from([0.0, 0.5, 1.0, -1.0, 2.0, math.inf, -math.inf]),
                     st_.floats(-3.0, 3.0))
_SPATIAL = st_.one_of(_NUMBER, st_.sampled_from(["A", "B", "C", "Z"]),
                      st_.tuples(st_.sampled_from("ABCZ"), st_.sampled_from("ABCZ"),
                                 _NUMBER).map(list))
_TF_NAMES = st_.sampled_from(["T0", "f", "g"])


@st_.composite
def _time_function_spec(draw):
    spec = {}
    if draw(st_.booleans()):
        spec["slope"] = draw(_NUMBER)
    if draw(st_.booleans()):
        spec["offsets"] = draw(st_.dictionaries(st_.sampled_from("ABCZ"), _NUMBER, max_size=3))
    return spec


@st_.composite
def _slice_spec(draw):
    spec = {"tau": draw(_NUMBER),
            "atoms": draw(st_.lists(st_.tuples(_SPATIAL, st_.sampled_from([0.5, 1.0]))
                                    .map(list), min_size=1, max_size=2))}
    if draw(st_.booleans()):
        spec["time_function"] = draw(_TF_NAMES)
    return spec


@st_.composite
def _curve_spec(draw):
    domain = {"kind": draw(st_.sampled_from(["compact", "future", "past", "line"]))}
    for end in draw(st_.sets(st_.sampled_from("ab"))):
        domain[end] = draw(_NUMBER)
    taus = st_.sampled_from([0.0, 0.0, 1.0, 2.0])  # repeated parameters included
    spec = {"domain": domain,
            "breakpoints": draw(st_.lists(st_.tuples(taus, _NUMBER, _SPATIAL).map(list),
                                          min_size=1, max_size=3))}
    if draw(st_.booleans()):
        spec["time_function"] = draw(_TF_NAMES)
    return spec


@st_.composite
def _scenario_doc(draw):
    graph = draw(st_.booleans())
    space = ({"backend": "static-graph", "vertices": ["A", "B", "C"],
              "edges": [["A", "B", 1.0], ["B", "C", 2.0]]} if graph
             else {"backend": "minkowski-1+1"})
    evolution = {"slices": draw(st_.lists(_slice_spec(), min_size=1, max_size=3))}
    if draw(st_.booleans()):
        evolution["time_function"] = draw(_TF_NAMES)
    return {"schema_version": 1, "spacetime": space,
            "time_functions": draw(st_.dictionaries(st_.sampled_from(["f", "g"]),
                                                    _time_function_spec(), max_size=2)),
            "measures": draw(st_.dictionaries(st_.sampled_from(["m"]), _slice_spec(),
                                              max_size=1)),
            "curves": draw(st_.dictionaries(st_.sampled_from(["c"]), _curve_spec(),
                                            max_size=1)),
            "evolutions": {"e": evolution}}


# JSON number tokens that json.load reads as an int beyond the float range,
# as inf, as the int 0 and as 0.0
_TOKENS = ["1" + "0" * 400, "-" + "9" * 400, "1e400", "-1e400", "-0", "1e-400"]


def _numbers(doc, path=()):
    """The paths of every number in a JSON document."""
    if isinstance(doc, dict):
        doc = doc.items()
    elif isinstance(doc, list):
        doc = enumerate(doc)
    else:
        return [path] if type(doc) in (int, float) else []
    return [p for key, value in doc for p in _numbers(value, path + (key,))]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_scenario_doc(), st_.one_of(st_.none(), st_.sampled_from(_TOKENS)), st_.integers(0, 99))
# offsets on Minkowski, and equal curve parameters with a time function
@example({"schema_version": 1, "spacetime": {"backend": "minkowski-1+1"},
          "time_functions": {"f": {"offsets": {"A": 1.0}}},
          "measures": {"m": {"tau": 0.0, "time_function": "f", "atoms": [[0.0, 1.0]]}},
          "evolutions": {"e": {"slices": [{"tau": 0.0, "atoms": [[0.0, 1.0]]}]}}},
         None, 0)
@example({"schema_version": 1, "spacetime": {"backend": "minkowski-1+1"},
          "curves": {"c": {"domain": {"kind": "compact", "a": 0.0, "b": 0.0},
                           "breakpoints": [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                           "time_function": "T0"}},
          "evolutions": {"e": {"slices": [{"tau": 0.0, "atoms": [[0.0, 1.0]]}]}}},
         None, 0)
# a 400-digit integer as the spacetime's alpha (the second number)
@example({"schema_version": 1, "spacetime": {"backend": "minkowski-1+1", "alpha": 1.0},
          "evolutions": {"e": {"slices": [{"tau": 0.0, "atoms": [[0.0, 1.0]]}]}}},
         "1" + "0" * 400, 1)
# a valid scenario whose time function is not: validate reports it, exit 2
@example({"schema_version": 1, "spacetime": {"backend": "minkowski-1+1"},
          "time_functions": {"f": {"slope": 1.0}},
          "evolutions": {"e": {"slices": [{"tau": 0.0, "atoms": [[0.0, 1.0]]}]}}},
         None, 0)
def test_a_schema_valid_scenario_fails_only_with_an_input_error(tmp_path, doc, token, pick):
    assume(causalot.cli._scenario_check()(doc))
    try:
        causalot.cli.Scenario(doc)
    except CausalotError:
        pass
    if token is not None:  # the pick-th number of the document, written as the raw token
        numbers = _numbers(doc)
        where = numbers[pick % len(numbers)]
        doc = copy.deepcopy(doc)
        functools.reduce(lambda node, key: node[key], where[:-1], doc)[where[-1]] = "@token"
    path = tmp_path / "scenario.json"
    # json.load reads 1e999 as inf, which json.dumps cannot write
    text = json.dumps(doc).replace("-Infinity", "-1e999").replace("Infinity", "1e999")
    path.write_text(text.replace('"@token"', token or ""), encoding="utf-8")
    for argv in (["validate"], ["check-evolution", "--evolution", "e"],
                 ["synthesize", "--evolution", "e"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(tmp_path, str(path), *argv)
        assert code in (0, 1, 2)
        if code and not err.getvalue():  # a verification failure the report holds
            assert code == 2 and out.getvalue().startswith(f"{argv[0]}: verification failed ")
        elif code:
            assert err.getvalue().startswith(("error: ", "verification failed: "))

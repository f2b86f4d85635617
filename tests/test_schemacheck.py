import copy
import enum
import json
import math
import os
import random
from decimal import Decimal
from fractions import Fraction

import jsonschema
import pytest

from causalot.cli import _load_schema
from causalot.schemacheck import compile_schema

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")
BUNDLED = ("static_graph.json", "minkowski_branching.json", "tilted_observer.json")
MUTATIONS = 3000


def _ring_with_chords(rng, n=16):
    """A static-graph scenario on a ring with a chord from every fourth
    vertex, and one evolution of walkers along the ring."""
    names = [f"v{i:03d}" for i in range(n)]
    edges = [[names[i], names[(i + 1) % n], rng.choice([0.25, 0.5, 1.0])]
             for i in range(n)]
    edges += [[names[i], names[(i + n // 3) % n], rng.randint(4, 16) / 4]
              for i in range(0, n, 4)]
    return {
        "schema_version": 1,
        "spacetime": {"backend": "static-graph", "vertices": names, "edges": edges,
                      "alpha": 1.0, "u": 1.0, "tolerance": 0.0},
        "evolutions": {"walk": {
            "time_function": "T0",
            "mesh": {"kind": "integer"},
            "slices": [{"tau": float(t), "atoms": [[names[t + 2], 0.5],
                                                   [names[(t + 9) % n], 0.5]]}
                       for t in range(-2, 3)]}},
        "commands": {"synthesize": {"evolution": "walk", "interval": "line",
                                    "horizon": 2}},
    }


def _documents():
    docs = {}
    for name in BUNDLED:
        with open(os.path.join(SCENARIOS, name), encoding="utf-8") as fh:
            docs[name] = json.load(fh)
    docs["ring-with-chords"] = _ring_with_chords(random.Random(1501))
    return docs


def _slots(node):
    """Every (container, key) of a document: dict entries and list items."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in keys:
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key])


def _property_names(schema):
    names = set()
    if isinstance(schema, dict):
        names.update(schema.get("properties", ()))
        for value in schema.values():
            names |= _property_names(value)
    elif isinstance(schema, list):
        for value in schema:
            names |= _property_names(value)
    return names


SCALARS = [True, False, None, math.nan, math.inf, -math.inf, 2**70, -2**70,
           -0.0, 0, 0.0, 1, 1.0, -1, 0.5, 3, "", "A", "B", "v001", "dyadic",
           "compact", "static-graph", "minkowski-1+1", "T0"]
CONTAINERS = [[], (), {}, [1.0], ["A", "B", 1.0], ("A", "B", 1.0), ["A", "B"],
              ["A", "B", 0.0], ["A", "B", math.nan], [0.0, 1.0], (0.0, 1.0),
              [True, 1.0], ["A", 1.0, 2.0], {"kind": "dyadic"}, {"kind": "compact"},
              {"tau": 0.0, "atoms": [[0.0, 1.0]]}, {"tau": True, "atoms": []}]


def _mutate(rng, doc, slots, names, subtrees):
    """Apply one random mutation to ``doc`` in place; returns its undo."""
    container, key = rng.choice(slots)
    op = rng.random()
    if op < 0.7:
        value = rng.choice((rng.choice(SCALARS), copy.deepcopy(rng.choice(CONTAINERS)),
                            copy.deepcopy(rng.choice(subtrees))))
        old = container[key]
        container[key] = value
        return lambda: container.__setitem__(key, old)
    if op < 0.85:
        old = container[key]
        del container[key]
        if isinstance(container, dict):
            return lambda: container.__setitem__(key, old)
        return lambda: container.insert(key, old)
    # an extra key beside the slot, or an extra item after it
    target = container[key] if isinstance(container[key], (dict, list)) else container
    value = copy.deepcopy(rng.choice(SCALARS + CONTAINERS + subtrees))
    if isinstance(target, list):
        target.append(value)
        return target.pop
    extra = rng.choice(names + ["extra"])
    if extra in target:
        old = target[extra]
        target[extra] = value
        return lambda: target.__setitem__(extra, old)
    target[extra] = value
    return lambda: target.pop(extra)


@pytest.mark.parametrize("name", [*BUNDLED, "ring-with-chords"])
def test_compiled_check_agrees_with_jsonschema(name):
    schema = _load_schema("scenario.schema.json")
    validator = jsonschema.validators.validator_for(schema)(schema)
    check = compile_schema(schema)
    doc = _documents()[name]
    pristine = copy.deepcopy(doc)
    slots = list(_slots(doc))
    subtrees = [copy.deepcopy(c[k]) for c, k in slots]
    names = sorted(_property_names(schema))
    rng = random.Random(f"schemacheck:{name}")
    verdicts = []
    for _ in range(MUTATIONS):
        undo = _mutate(rng, doc, slots, names, subtrees)
        want = validator.is_valid(doc)
        assert check(doc) == want, json.dumps(doc, default=repr)[:2000]
        verdicts.append(want)
        undo()
    assert doc == pristine
    # both verdicts occur often enough for the comparison to mean something
    assert 0.1 < sum(verdicts) / len(verdicts) < 0.9


def _with(edit):
    schema = copy.deepcopy(_load_schema("scenario.schema.json"))
    edit(schema)
    return schema


@pytest.mark.parametrize("schema, refused", [
    (_with(lambda s: s["$defs"]["spatial"]["oneOf"][1].update(pattern="^v")), "pattern"),
    (_with(lambda s: s["properties"]["spacetime"].update(description="x")), "description"),
    (_with(lambda s: s["properties"]["measures"]["additionalProperties"].update(
        {"$ref": "#/definitions/slice"})), r"\$ref"),
    (_with(lambda s: s["properties"]["spacetime"]["properties"]["u"].update(
        type=["number", "null"])), "type"),
    (_with(lambda s: s["properties"].update(schema_version={"const": [1]})), "const"),
    (_with(lambda s: s["properties"].update(schema_version={"type": "boolean"})), "type"),
])
def test_unsupported_schema_fails_to_compile(schema, refused):
    with pytest.raises(ValueError, match=refused):
        compile_schema(schema)



KEYWORD_SCHEMAS = [
    {"type": "number"}, {"type": "integer"}, {"type": "string"}, {"type": "array"},
    {"const": 1}, {"const": True}, {"const": "A"}, {"enum": [0, "A", None]},
    {"minimum": 0}, {"exclusiveMinimum": 0}, {"minItems": 1, "maxItems": 2},
    {"prefixItems": [{"type": "string"}], "items": {"type": "number"}},
    {"prefixItems": [{"type": "string"}], "items": False},
    {"required": ["kind"], "properties": {"kind": {"const": "compact"}},
     "additionalProperties": {"type": "number"}},
    {"oneOf": [{"type": "number"}, {"type": "integer"}, {"const": "A"}]},
    {"items": {"$ref": "#/$defs/pair"},
     "$defs": {"pair": {"minItems": 2, "items": {"type": "object"}}}},
]


@pytest.mark.parametrize("schema", KEYWORD_SCHEMAS, ids=json.dumps)
def test_keyword_semantics_match_jsonschema(schema):
    # each keyword alone, on every value of the mutation pools: bools are not
    # numbers, 1.0 is an integer, True is not 1, NaN passes the bounds, and a
    # keyword ignores instances of other types
    schema = {"$schema": "https://json-schema.org/draft/2020-12/schema", **schema}
    validator = jsonschema.validators.validator_for(schema)(schema)
    check = compile_schema(schema)
    for value in SCALARS + CONTAINERS + [{"kind": "compact", "a": 0.5}, ["A", 1, 2.0],
                                         [[], [[1, 2], []]], [[1, 2], [[1, 2], [3, 4]]]]:
        assert check(value) == validator.is_valid(value), value


class _Float(float):
    pass


class _Int(int):
    pass


class _Dict(dict):
    pass


class _Level(enum.IntEnum):
    ZERO = 0
    ONE = 1
    TWO = 2


# numbers and objects of types json.load never makes, so that the compiled
# predicate's exact-type fast paths miss and its fallbacks decide
OFF_FAST_PATH = [Fraction(1, 2), Fraction(2), Fraction(-1, 3), Decimal("1.5"), Decimal("2"),
                 Decimal("-1"), _Float(0.5), _Float(2.0), _Float(-1.0),
                 _Float(math.nan), _Int(0), _Int(1), _Int(-3), *_Level,
                 _Dict(kind="compact"), _Dict(kind="compact", a=0.5), _Dict(kind=_Float(1.0)),
                 _Dict(tau=0.0), ["A", Fraction(1, 2)], ["A", _Level.ONE, _Float(2.0)],
                 [_Dict(), _Dict(kind="dyadic")], [Decimal("1.5")], [_Int(1), _Float(1.5)]]
ONE_OF_SCHEMAS = [
    # pairwise disjoint types: only the option of the instance's type runs
    {"oneOf": [{"type": "integer", "minimum": 1}, {"type": "string"},
               {"type": "array", "prefixItems": [{"type": "string"}], "minItems": 1},
               {"type": "object", "required": ["kind"]}]},
    # integer lies inside number: every option is counted
    {"oneOf": [{"type": "number"}, {"type": "integer"}, {"type": "array"}]},
]


@pytest.mark.parametrize("schema", KEYWORD_SCHEMAS + ONE_OF_SCHEMAS, ids=json.dumps)
def test_values_off_the_fast_path_match_jsonschema(schema):
    # the oneOf dispatch meets the plain values too, and a type that the
    # dispatch must not trust (1 is both an integer and a number)
    pool = SCALARS + CONTAINERS + OFF_FAST_PATH if schema in ONE_OF_SCHEMAS else OFF_FAST_PATH
    schema = {"$schema": "https://json-schema.org/draft/2020-12/schema", **schema}
    validator = jsonschema.validators.validator_for(schema)(schema)
    check = compile_schema(schema)
    for value in pool:
        assert check(value) == validator.is_valid(value), value

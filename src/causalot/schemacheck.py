"""A JSON Schema compiled into a plain-Python predicate.

``compile_schema(schema)`` returns a function ``doc -> bool`` that agrees
with jsonschema's draft 2020-12 ``is_valid`` on every document, for the
keywords listed in ``KEYWORDS``: a bool is not a number, ``1.0`` is an
integer, arrays are lists and objects are dicts, ``const`` and ``enum``
do not equate ``True`` with ``1``, and a NaN passes ``minimum`` and
``exclusiveMinimum``.  Each keyword constrains only instances of its own
type, as in jsonschema.  Any other keyword raises ``ValueError`` at
compile time, so a schema that outgrows the compiler fails at once
instead of being checked less strictly.

The predicate is built for documents that ``json.load`` makes: type tests
try the exact types ``float``, ``int``, ``str``, ``list`` and ``dict``
first, a ``type`` next to object or array keywords is tested once, and a
``oneOf`` of disjoint types runs only the option of the instance's type.
Any other instance, such as a ``Fraction`` or a ``dict`` subclass in a
document built in memory, falls back to the general tests.
"""

from __future__ import annotations

from numbers import Number

KEYWORDS = frozenset({
    "type", "const", "enum", "required", "properties", "additionalProperties",
    "items", "prefixItems", "minItems", "maxItems", "minimum",
    "exclusiveMinimum", "oneOf", "$ref"})
ANNOTATIONS = frozenset({"$schema", "$id", "title", "$defs"})
_DEFS = "#/$defs/"


def _is_number(x):
    # the exact types json.load makes first; the ABC test for the rest
    if type(x) is float or type(x) is int:
        return True
    return isinstance(x, Number) and not isinstance(x, bool)


def _is_integer(x):
    if type(x) is int:
        return True
    if type(x) is float:
        return x.is_integer()
    if isinstance(x, bool):
        return False
    return isinstance(x, int) or (isinstance(x, float) and x.is_integer())


TYPES = {
    "array": lambda x: isinstance(x, list),
    "integer": _is_integer,
    "number": _is_number,
    "object": lambda x: isinstance(x, dict),
    "string": lambda x: isinstance(x, str),
}


def _accept(x):
    return True


def _reject(x):
    return False


def _equal(x, value):
    """jsonschema's equality of an instance with a scalar schema value."""
    if x is value:
        return True
    if isinstance(x, str) or isinstance(value, str):
        return x == value
    if isinstance(x, bool) or isinstance(value, bool):
        return False
    return x == value


def _scalars(values, keyword):
    for value in values:
        if not (value is None or isinstance(value, (bool, int, float, str))):
            raise ValueError(f"{keyword} supports scalar values only, got {value!r}")
    return tuple(values)


def _object(required, properties, additional, typed):
    """The object keywords; ``typed`` folds in ``type: object``."""
    def check(x):
        if not isinstance(x, dict):
            return not typed
        for key in required:
            if key not in x:
                return False
        for key, value in x.items():
            f = properties.get(key, additional)
            if f is not None and not f(value):
                return False
        return True
    return check


def _array(prefix, rest, lo, hi, typed):
    """The array keywords; ``typed`` folds in ``type: array``."""
    n = len(prefix)

    def check(x):
        if not isinstance(x, list):
            return not typed
        if not lo <= len(x) <= hi:
            return False
        for f, value in zip(prefix, x):
            if not f(value):
                return False
        if rest is not None:
            for value in (x[n:] if n else x):
                if not rest(value):
                    return False
        return True
    return check


# The Python types json.load makes for each JSON type.
_EXACT = {"array": (list,), "integer": (int, float), "number": (int, float),
          "object": (dict,), "string": (str,)}


def _one_of(schemas, options):
    """``oneOf``: exactly one option holds.  When every option has a type
    and no two types share a Python type (``integer`` and ``number`` do), an
    instance of a type json.load makes can satisfy only the option of its
    type, and only that option runs; any other instance counts them all."""
    def count(x):
        return sum(1 for f in options if f(x)) == 1

    types = [s.get("type") if isinstance(s, dict) else None for s in schemas]
    if None in types:
        return count
    by_type = {py: f for t, f in zip(types, options) for py in _EXACT[t]}
    if len(by_type) < sum(len(_EXACT[t]) for t in types):
        return count

    def check(x):
        f = by_type.get(type(x))
        return count(x) if f is None else f(x)
    return check


def _all(checks):
    if not checks:
        return _accept
    if len(checks) == 1:
        return checks[0]

    def check(x):
        for f in checks:
            if not f(x):
                return False
        return True
    return check


def compile_schema(schema):
    """The predicate of ``schema``.  References must be local
    (``#/$defs/name``) and not recursive: each is compiled in place."""
    defs = schema.get("$defs", {})

    def build(s):
        if s is True or s is False:
            return _accept if s else _reject
        unknown = set(s) - KEYWORDS - ANNOTATIONS
        if unknown:
            raise ValueError(f"unsupported schema keywords {sorted(unknown)}")
        checks = []
        kind = s.get("type")
        objects = s.keys() & {"required", "properties", "additionalProperties"}
        arrays = s.keys() & {"prefixItems", "items", "minItems", "maxItems"}
        if "type" in s:
            if not isinstance(kind, str) or kind not in TYPES:
                raise ValueError(f"unsupported type {kind!r}")
            # folded into the object or array check below, if there is one
            if not (kind == "object" and objects or kind == "array" and arrays):
                checks.append(TYPES[kind])
        if "const" in s:
            value, = _scalars([s["const"]], "const")
            checks.append(lambda x: _equal(x, value))
        if "enum" in s:
            values = _scalars(s["enum"], "enum")
            checks.append(lambda x: any(_equal(x, v) for v in values))
        if "$ref" in s:
            name = s["$ref"][len(_DEFS):]
            if not s["$ref"].startswith(_DEFS) or name not in defs:
                raise ValueError(f"unsupported $ref {s['$ref']!r}")
            checks.append(build(defs[name]))
        if "oneOf" in s:
            checks.append(_one_of(s["oneOf"], [build(sub) for sub in s["oneOf"]]))
        if objects:
            checks.append(_object(
                tuple(s.get("required", ())),
                {k: build(sub) for k, sub in s.get("properties", {}).items()},
                build(s["additionalProperties"]) if "additionalProperties" in s else None,
                kind == "object"))
        if arrays:
            checks.append(_array(
                [build(sub) for sub in s.get("prefixItems", ())],
                build(s["items"]) if "items" in s else None,
                s.get("minItems", 0), s.get("maxItems", float("inf")),
                kind == "array"))
        if "minimum" in s:
            low = s["minimum"]
            checks.append(lambda x: not _is_number(x) or not x < low)
        if "exclusiveMinimum" in s:
            bound = s["exclusiveMinimum"]
            checks.append(lambda x: not _is_number(x) or not x <= bound)
        return _all(checks)

    return build(schema)

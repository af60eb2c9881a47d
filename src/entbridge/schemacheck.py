"""Check documents against the two shipped JSON schemas.

Each shipped schema is read once, when this module is imported, and
compiled into nested closures.  A compiled check accepts a document
exactly when jsonschema's Draft 2020-12 validator does.  The compiler
knows only the keywords the shipped schemas use:

    type const enum minimum maximum exclusiveMinimum minItems maxItems
    maxLength pattern items properties required additionalProperties
    oneOf $ref $defs

and the annotations ``$schema``, ``title`` and ``$comment``.  Any other
keyword raises ``ValueError`` while the schema loads, so a schema cannot
outgrow the compiler unnoticed.  ``$ref`` is only ever ``#/$defs/<name>``,
and ``additionalProperties`` only ``false``.

:func:`validate` returns as soon as the compiled check accepts.  Only on
a refusal does it import jsonschema and validate against the full
shipped schema, so every refusal carries jsonschema's own message, and a
document jsonschema accepts is accepted.  jsonschema stays the authority
on refusals; the compiled check must only never accept a document
jsonschema refuses (``tests/test_schemacheck.py`` checks that the two
agree both ways).
"""

from __future__ import annotations

import json
import numbers
import re
from importlib import resources
from typing import Any, Callable

__all__ = ["SCHEMA_NAMES", "ValidationError", "compile_schema", "load_schema", "validate"]

SCHEMA_NAMES = ("instance", "report")

Check = Callable[[Any], bool]

_ANNOTATIONS = frozenset({"$schema", "title", "$comment"})
_KEYWORDS = frozenset(
    {
        "type", "const", "enum", "minimum", "maximum", "exclusiveMinimum",
        "minItems", "maxItems", "maxLength", "pattern", "items", "properties",
        "required", "additionalProperties", "oneOf", "$ref", "$defs",
    }
)
_DEFS = "#/$defs/"


class ValidationError(Exception):
    """A document the shipped schema refuses; ``message`` is jsonschema's."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message


def load_schema(name: str) -> dict:
    path = resources.files("entbridge.schemas").joinpath(f"{name}.schema.json")
    return json.loads(path.read_text(encoding="utf-8"))


# the Draft 2020-12 types as jsonschema checks them: a bool is no number,
# and an integral float is an integer
def _is_integer(x: Any) -> bool:
    if isinstance(x, bool):
        return False
    return isinstance(x, int) or isinstance(x, float) and x.is_integer()


def _is_number(x: Any) -> bool:
    return not isinstance(x, bool) and isinstance(x, numbers.Number)


_TYPES: dict[str, Check] = {
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    "integer": _is_integer,
    "null": lambda x: x is None,
    "number": _is_number,
    "object": lambda x: isinstance(x, dict),
    "string": lambda x: isinstance(x, str),
}


def _equal(one: Any, two: Any) -> bool:
    """JSON equality as jsonschema reads it: a bool equals only a bool."""
    if isinstance(one, str) or isinstance(two, str):
        return one == two
    if isinstance(one, list) and isinstance(two, list):
        return len(one) == len(two) and all(map(_equal, one, two))
    if isinstance(one, dict) and isinstance(two, dict):
        return one.keys() == two.keys() and all(_equal(one[k], two[k]) for k in one)
    if isinstance(one, bool) or isinstance(two, bool):
        return one is two
    return one == two


def _accept(x: Any) -> bool:
    return True


def _all_of(checks: list[Check]) -> Check:
    if not checks:
        return _accept
    if len(checks) == 1:
        return checks[0]
    checks = tuple(checks)

    def check(x: Any) -> bool:
        for c in checks:
            if not c(x):
                return False
        return True

    return check


def _type_check(types: str | list[str]) -> Check:
    names = [types] if isinstance(types, str) else types
    unknown = [t for t in names if t not in _TYPES]
    if unknown:
        raise ValueError(f"unknown type {unknown[0]!r}")
    checks = tuple(_TYPES[t] for t in names)
    if len(checks) == 1:
        return checks[0]
    return lambda x: any(c(x) for c in checks)


def _number_check(minimum: Any, maximum: Any, exclusive_minimum: Any) -> Check:
    # NaN compares false with everything, so it passes every bound
    def check(x: Any) -> bool:
        if not _is_number(x):
            return True
        if minimum is not None and x < minimum:
            return False
        if maximum is not None and x > maximum:
            return False
        return exclusive_minimum is None or not x <= exclusive_minimum

    return check


def _string_check(max_length: int | None, pattern: str | None) -> Check:
    # jsonschema's pattern is an unanchored re.search
    search = re.compile(pattern).search if pattern is not None else None

    def check(x: Any) -> bool:
        if not isinstance(x, str):
            return True
        if max_length is not None and len(x) > max_length:
            return False
        return search is None or search(x) is not None

    return check


def _array_check(min_items: int, max_items: float, item: Check) -> Check:
    def check(x: Any) -> bool:
        if not isinstance(x, list):
            return True
        return min_items <= len(x) <= max_items and all(map(item, x))

    return check


def _object_check(properties: dict[str, Check], required: tuple[str, ...], closed: bool) -> Check:
    names = properties.keys()

    def check(x: Any) -> bool:
        if not isinstance(x, dict):
            return True
        if closed and not x.keys() <= names:
            return False
        for key in required:
            if key not in x:
                return False
        for key, sub in properties.items():
            if key in x and not sub(x[key]):
                return False
        return True

    return check


def _one_of(subs: tuple[Check, ...]) -> Check:
    def check(x: Any) -> bool:
        matched = False
        for sub in subs:
            if sub(x):
                if matched:
                    return False
                matched = True
        return matched

    return check


def compile_schema(schema: dict) -> Check:
    """The check of one schema document: ``check(x)`` is true exactly when
    jsonschema's Draft 2020-12 validator accepts ``x``.

    Raises ``ValueError`` naming the first keyword outside the supported
    set, and on a ``$ref`` that is not ``#/$defs/<name>`` of this document.
    """
    raw_defs = schema.get("$defs", {})
    defs: dict[str, Check] = {}

    def ref_check(ref: Any) -> Check:
        name = ref[len(_DEFS):] if isinstance(ref, str) and ref.startswith(_DEFS) else None
        if name not in raw_defs:
            raise ValueError(f"unsupported $ref {ref!r}: only #/$defs/<name> of the same schema")
        # looked up when called, so the definitions may refer to each other
        return lambda x: defs[name](x)

    def compile_(sub: Any, root: bool = False) -> Check:
        if not isinstance(sub, dict):
            raise ValueError(f"unsupported schema {sub!r}: only objects")
        unknown = sorted(sub.keys() - _KEYWORDS - _ANNOTATIONS)
        if unknown:
            raise ValueError(f"unsupported schema keyword {unknown[0]!r}")
        if "$defs" in sub and not root:
            raise ValueError("unsupported schema keyword '$defs' below the root")
        checks = []
        if "type" in sub:
            checks.append(_type_check(sub["type"]))
        if "const" in sub:
            const = sub["const"]
            checks.append(lambda x: _equal(x, const))
        if "enum" in sub:
            values = tuple(sub["enum"])
            checks.append(lambda x: any(_equal(x, v) for v in values))
        if sub.keys() & {"minimum", "maximum", "exclusiveMinimum"}:
            checks.append(_number_check(sub.get("minimum"), sub.get("maximum"), sub.get("exclusiveMinimum")))
        if sub.keys() & {"maxLength", "pattern"}:
            checks.append(_string_check(sub.get("maxLength"), sub.get("pattern")))
        if sub.keys() & {"minItems", "maxItems", "items"}:
            item = compile_(sub["items"]) if "items" in sub else _accept
            checks.append(_array_check(sub.get("minItems", 0), sub.get("maxItems", float("inf")), item))
        if sub.keys() & {"properties", "required", "additionalProperties"}:
            if sub.get("additionalProperties", False) is not False:
                raise ValueError("unsupported additionalProperties: only false")
            properties = {key: compile_(s) for key, s in sub.get("properties", {}).items()}
            closed = "additionalProperties" in sub
            checks.append(_object_check(properties, tuple(sub.get("required", ())), closed))
        if "oneOf" in sub:
            checks.append(_one_of(tuple(compile_(s) for s in sub["oneOf"])))
        if "$ref" in sub:
            checks.append(ref_check(sub["$ref"]))
        return _all_of(checks)

    for name, sub in raw_defs.items():
        defs[name] = compile_(sub)
    return compile_(schema, root=True)


_CHECKS = {name: compile_schema(load_schema(name)) for name in SCHEMA_NAMES}


def validate(payload: Any, name: str) -> None:
    """Check ``payload`` against the shipped schema ``name``.

    Raises :class:`ValidationError` with the message of
    ``jsonschema.validate(payload, load_schema(name))``.  That call would
    first check the schema against the 2020-12 meta-schema, which takes
    about ten times as long as the validation; the test suite makes that
    check once instead.
    """
    if _CHECKS[name](payload):
        return
    from jsonschema import Draft202012Validator
    from jsonschema.exceptions import best_match

    error = best_match(Draft202012Validator(load_schema(name)).iter_errors(payload))
    if error is not None:
        raise ValidationError(error.message)

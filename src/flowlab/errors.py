"""Exception types, and the field check of config documents, shared across the toolkit."""

from __future__ import annotations

import json
import math
import numbers
import operator
from collections.abc import Iterable
from dataclasses import dataclass


class FlowLabError(Exception):
    """Base class for all flowlab errors."""


class UnreadableFileError(FlowLabError):
    """Input file is missing or cannot be opened."""


class MalformedHeaderError(FlowLabError):
    """Capture file has an unknown magic number or version."""


class InvalidSpecError(FlowLabError):
    """Synthetic trace spec is structurally invalid."""


class UnsortedTraceError(FlowLabError):
    """Trace timestamps regress; run reorder() first."""


class DatasetIOError(FlowLabError):
    """Dataset file cannot be read or written."""


class SchemaMismatchError(FlowLabError):
    """Feature schema does not match the expected column layout."""


class EmptyDatasetError(FlowLabError):
    """Training requires at least one flow."""


class EmptyInputError(FlowLabError):
    """Metric computation requires non-empty label vectors."""


class LengthMismatchError(FlowLabError):
    """y_true and y_pred differ in length."""


def _is_int(v) -> bool:
    return type(v) is int or isinstance(v, numbers.Integral) and not isinstance(v, bool)


# The kinds of config value, each named by how an error message describes it.
ANY, INT, NUMBER = "any value", "an integer", "a finite number"
BOOL, STR, PAIR = "true or false", "a string", "a [lo, hi] integer pair, lo <= hi,"
_TESTS = {
    ANY: lambda v: True,
    INT: _is_int,
    NUMBER: lambda v: _is_int(v) or (
        isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
    ),
    BOOL: lambda v: isinstance(v, bool),
    STR: lambda v: isinstance(v, str),
    PAIR: lambda v: (
        isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_int, v)) and v[0] <= v[1]
    ),
}


def _test(kind: str, bounds: str | None):
    """A test of one value of ``kind``: the kind, then each end within ``bounds``."""
    test = _TESTS[kind]
    if bounds is None:
        return test
    lo, hi = (float(end) for end in bounds[1:-1].split(","))
    above = operator.lt if bounds[0] == "(" else operator.le
    below = operator.lt if bounds[-1] == ")" else operator.le
    if kind == PAIR:
        return lambda v: test(v) and above(lo, v[0]) and below(v[1], hi)
    return lambda v: test(v) and above(lo, v) and below(v, hi)


@dataclass(frozen=True)
class Field:
    """One row of a config table: the kind of a field's value and its limits.

    ``bounds`` is an interval such as ``"[1, inf)"`` that an integer or
    number, both ends of a pair, and each item of a list lie in. With
    ``many`` (``tuple`` or ``frozenset``) the value is a list of such items,
    returned as that type. The values in ``also``, such as ``None`` for an
    optional field, are accepted as they are.
    """

    kind: str
    bounds: str | None = None
    many: type | None = None
    also: tuple = ()
    required: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "allows", _test(self.kind, self.bounds))
        object.__setattr__(self, "form", {INT: int, PAIR: tuple}.get(self.kind))

    def describe(self) -> str:
        bounds = f" in {self.bounds}" if self.bounds else ""
        also = "".join(f" or {json.dumps(a)}" for a in self.also)
        return (f"a list, each {self.kind}" if self.many else self.kind) + bounds + also


def checked(where: str, value, field: Field):
    """``value`` as ``field`` allows it, integers as ``int`` and pairs and
    lists as tuples (or ``many``); ValueError naming ``where`` otherwise."""
    if field.also and any(isinstance(value, type(a)) and value == a for a in field.also):
        return value
    form = field.form
    if not field.many:
        if field.allows(value):
            return value if form is None else form(value)
    elif isinstance(value, Iterable) and not isinstance(value, (str, bytes, dict)):
        items = tuple(value)
        if all(map(field.allows, items)):
            return field.many(items if form is None else map(form, items))
    raise ValueError(f"{where} must be {field.describe()}, got {value!r}")


def check(section: str, source, table: dict[str, Field]) -> dict:
    """The values of ``source``, checked against ``table``, by field name.

    ``source`` is a config document (a dict, as JSON gives it) or an
    instance of a config dataclass. A document may hold only the names in
    ``table`` and must hold each required one; of an instance, the fields
    that ``table`` names are checked. ValueError names ``section`` and the
    field of the first bad value.
    """
    if isinstance(source, dict):
        unknown = set(source) - set(table)
        if unknown:
            raise ValueError(f"unknown {section} config keys: {sorted(unknown, key=str)}")
        for name, field in table.items():
            if field.required and name not in source:
                raise ValueError(f"{section}.{name} must be {field.describe()}, but is missing")
        values = source
    elif hasattr(type(source), "__dataclass_fields__"):
        values = {n: getattr(source, n) for n in table if n in type(source).__dataclass_fields__}
    else:
        raise ValueError(f"{section} config must be a JSON object, got {source!r}")
    return {name: checked(f"{section}.{name}", v, table[name]) for name, v in values.items()}


class JsonDocument:
    """``from_json`` for a config type: its ``from_dict`` of a JSON file."""

    @classmethod
    def from_json(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

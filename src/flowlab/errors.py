"""Exception types, the field check of config documents, the forest's
hyperparameters, and the writer of output files, shared across the toolkit.
None of it needs numpy."""

from __future__ import annotations

import json
import math
import numbers
import operator
import os
import re
import reprlib
from collections.abc import Iterable
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from itertools import accumulate


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


_FLOAT_LIMIT = 2**1024 - 2**970  # the least integer that float() cannot convert


def _is_int(v) -> bool:
    """An integer, not a bool, that converts to a finite float."""
    integral = type(v) is int or isinstance(v, numbers.Integral) and not isinstance(v, bool)
    return integral and -_FLOAT_LIMIT < v < _FLOAT_LIMIT


# The kinds of config value, each named by how an error message describes it.
ANY, INT, NUMBER = "any value", "an integer", "a finite number"
BOOL, STR, PAIR = "true or false", "a string", "a [lo, hi] integer pair, lo <= hi,"
_TESTS = {
    ANY: lambda v: True,
    INT: _is_int,
    NUMBER: lambda v: _is_int(v) or (
        isinstance(v, numbers.Real) and not isinstance(v, numbers.Integral) and math.isfinite(v)
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
        form = {INT: int, PAIR: lambda v: tuple(map(int, v))}.get(self.kind)
        object.__setattr__(self, "form", form)

    def describe(self) -> str:
        bounds = f" in {self.bounds}" if self.bounds else ""
        also = "".join(f" or {json.dumps(a)}" for a in self.also)
        return (f"a list, each {self.kind}" if self.many else self.kind) + bounds + also


# How an error message echoes a bad value: a few items of each list and
# three levels of nesting, so that the message stays short for any input.
_ECHO = reprlib.Repr()
_ECHO.maxlevel = 3
_ECHO.maxlist = _ECHO.maxtuple = _ECHO.maxset = _ECHO.maxfrozenset = _ECHO.maxdict = 8
_ECHO.maxstring = _ECHO.maxother = _ECHO.maxlong = 80


def checked(where: str, value, field: Field):
    """``value`` as ``field`` allows it, integers (in pairs too) as ``int``,
    pairs and lists as tuples (or ``many``); ValueError naming ``where`` otherwise."""
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
    raise ValueError(f"{where} must be {field.describe()}, got {_ECHO.repr(value)}")


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


def keep(instance, values: dict) -> None:
    """Set each field of a frozen ``instance`` to its value in ``values``,
    such as the checked values that ``check`` returns."""
    for name, value in values.items():
        object.__setattr__(instance, name, value)


@dataclass(frozen=True)
class TrainConfig:
    """Forest hyperparameters; defaults follow common practice."""

    n_trees: int = 100
    max_features: int | str = "sqrt"
    min_samples_leaf: int = 1
    max_depth: int | None = None
    bootstrap: bool = True
    seed: int = 0

    FIELDS = {
        "n_trees": Field(INT, "[1, inf)"),
        "max_features": Field(INT, "[1, inf)", also=("sqrt",)),
        "min_samples_leaf": Field(INT, "[1, inf)"),
        "max_depth": Field(INT, "[1, inf)", also=(None,)),
        "bootstrap": Field(BOOL),
        "seed": Field(INT),
    }

    def __post_init__(self) -> None:
        keep(self, check("train", self, self.FIELDS))

    def resolve_max_features(self, n_features: int) -> int:
        if self.max_features == "sqrt":
            return max(1, int(math.sqrt(n_features)))
        return min(self.max_features, n_features)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}


# How deep a config document may nest. Its depth is counted on the text,
# without recursion, before it is parsed, so whether a document loads does
# not depend on how deep the caller's stack runs.
_MAX_DEPTH = 100
_NESTING = {"[": 1, "{": 1, "]": -1, "}": -1}


def _depth(text: str) -> int:
    """How deep the arrays and objects of JSON ``text`` nest: its brackets
    outside strings, counted up and down. A string left open runs to the
    end of the text, so each string is scanned once, closed or not."""
    brackets = re.findall(r"[][{}]", re.sub(r'(?s)"[^"\\]*(?:\\.[^"\\]*)*"?', "", text))
    return max(accumulate(map(_NESTING.__getitem__, brackets)), default=0)


class JsonDocument:
    """``from_json`` for a config or model type: its ``from_dict`` of a JSON
    file. UnreadableFileError for a file that cannot be read; FlowLabError
    that starts with the path for one that is not JSON, nests too deep, or
    holds what ``from_dict`` refuses with ValueError or TypeError."""

    @classmethod
    def from_json(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
            if _depth(text) > _MAX_DEPTH:
                raise FlowLabError(f"{path}: nested deeper than {_MAX_DEPTH} levels")
            return cls.from_dict(json.loads(text))
        except OSError as exc:
            raise UnreadableFileError(f"cannot read {path}: {exc}") from exc
        except (TypeError, ValueError) as exc:  # not JSON, not UTF-8, or a bad value
            raise FlowLabError(f"{path}: {exc}") from None


@contextmanager
def replacing(path, mode: str = "w", **kwargs):
    """Write a whole file or none: the file that ``open(path, mode,
    **kwargs)`` would give, written as a new temp file beside ``path`` that
    replaces it when the block ends. When the block raises, the temp file
    is removed, ``path`` is left as it was and the exception goes on. The
    temp name is short, so that any name ``path`` may have fits."""
    tmp = os.path.join(os.path.dirname(os.fspath(path)), f".{os.urandom(8).hex()}.tmp")
    fh = open(tmp, mode.replace("w", "x"), **kwargs)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise

"""Structural checks for the JSON input documents.

One small mechanism serves both input formats.  A shape is built from
the combinators below; calling it on a parsed document returns nothing
or raises StructureError for the first rule the document breaks, with
the JSON path of the offending value, such as
`$.strata[3].candidates[0].t: expected an integer >= 1, got 0`.

Each shape states its rules once, as a column test: given a list of
values, it answers whether all of them pass, by passes of builtins over
whole columns (an array tests its items' shape on the flattened items,
a record compares key sets and then tests each field's column).  A
passing document pays one column test and nothing else.  Only a failing
one is walked, to name the first broken rule and its path, and the walk
is derived from the column tests: a leaf fails exactly when its column
test fails on its value, and a container checks its own type, length
and keys, then goes into the first part whose column test fails.  Both
test exact types, so a subclass of `str` or `int` is rejected.

Integers are Python ints only: `true` and `2.0` are not integers here,
so nothing past this check can meet a bool or float where it counts.
The checks cover shape only (keys, types, ranges, string syntax); the
mathematical invariants are enforced by the constructors the loaders
call afterwards.
"""

from __future__ import annotations

import json
import operator
import re
from functools import partial
from itertools import chain
from typing import Callable, Dict, Iterable, Optional, Tuple


class StructureError(ValueError):
    """A document of the wrong shape.  `Shape.walk` adds each part's key
    or index to `steps` as the error passes out through it, so the path
    costs nothing on documents that pass."""

    def __init__(self, what: str):
        super().__init__(what)
        self.what = what
        self.steps: list = []  # innermost first

    def __str__(self) -> str:
        return self.located("$")

    def located(self, root: str) -> str:
        """The message with its path rooted at `root`, the JSON path of
        the checked document within a larger one."""
        return root + "".join(reversed(self.steps)) + ": " + self.what


def _describe(value) -> str:
    kind = type(value)
    if kind not in (str, int, float, bool, type(None)):
        return {dict: "an object", list: "an array"}.get(kind, f"a value of type {kind.__name__}")
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _fail(want: str, value) -> StructureError:
    return StructureError(f"expected {want}, got {_describe(value)}")


def _step(key) -> str:
    if isinstance(key, str) and key.isidentifier():
        return "." + key
    return "[" + _describe(key) + "]"


class Shape:
    """A check of one JSON value.  `column(values)` answers whether every
    value of a list passes.  `parts(value)` raises StructureError for a
    rule of the shape's own (a leaf's one rule, a container's type,
    length or keys), else gives `(step, shape, item)` for each part."""

    __slots__ = ("column", "parts")

    def __init__(self, column: Callable[[list], bool], parts: Callable[[object], Iterable]):
        self.column = column
        self.parts = parts

    def __call__(self, value) -> None:
        if not self.column([value]):
            self.walk(value)

    def walk(self, value) -> None:
        """Raise StructureError for the first rule broken: the shape's own,
        else one in the first part whose column test fails."""
        for step, shape, item in self.parts(value):
            if not shape.column([item]):
                try:
                    shape.walk(item)
                except StructureError as exc:
                    exc.steps.append(step)
                    raise


def _leaf(column: Callable[[list], bool], want: str) -> Shape:
    def parts(value) -> Iterable:
        if not column([value]):
            raise _fail(want, value)
        return ()

    return Shape(column, parts)


def _all_of_type(values: list, kind: type) -> bool:
    """Every value's type is exactly `kind`."""
    return list(map(type, values)).count(kind) == len(values)


def integer(minimum: Optional[int] = None, maximum: Optional[int] = None) -> Shape:
    if maximum is not None:
        want = f"an integer in {minimum}..{maximum}"
    elif minimum is not None:
        want = f"an integer >= {minimum}"
    else:
        want = "an integer"

    def column(values: list) -> bool:
        return (
            _all_of_type(values, int)
            and (minimum is None or min(values, default=minimum) >= minimum)
            and (maximum is None or max(values, default=maximum) <= maximum)
        )

    return _leaf(column, want)


def string(min_length: int = 0, pattern: Optional[str] = None, want: str = "a string") -> Shape:
    """A str of at least `min_length` characters, matched in full by `pattern`."""
    match = None if pattern is None else re.compile(pattern).fullmatch

    def column(values: list) -> bool:
        return (
            _all_of_type(values, str)
            and min(map(len, values), default=min_length) >= min_length
            and (match is None or all(map(match, values)))
        )

    return _leaf(column, want)


LABEL: Shape = string(min_length=1, want="a non-empty string")


def const(expected) -> Shape:
    def column(values: list) -> bool:
        return _all_of_type(values, type(expected)) and values.count(expected) == len(values)

    return _leaf(column, json.dumps(expected))


def of_type(types: Tuple[type, ...], want: str) -> Shape:
    def column(values: list) -> bool:
        return set(map(type, values)) <= set(types)

    return _leaf(column, want)


_not_none = partial(operator.is_not, None)


def nullable(shape: Shape) -> Shape:
    def column(values: list) -> bool:
        return shape.column(list(filter(_not_none, values)))

    return Shape(column, lambda value: () if value is None else shape.parts(value))


def array(items: Shape, min_items: int = 0, max_items: Optional[int] = None) -> Shape:
    if max_items == min_items:
        want = f"an array of {min_items} items"
    elif min_items:
        want = f"an array of at least {min_items} item" + ("s" if min_items > 1 else "")
    else:
        want = "an array"

    def column(values: list) -> bool:
        if not _all_of_type(values, list):
            return False
        if min_items or max_items is not None:
            lengths = list(map(len, values))
            if min(lengths, default=min_items) < min_items or (
                max_items is not None and max(lengths, default=max_items) > max_items
            ):
                return False
        return items.column(list(chain.from_iterable(values)))

    def parts(value) -> Iterable:
        if type(value) is not list:
            raise _fail(want, value)
        n = len(value)
        if n < min_items or (max_items is not None and n > max_items):
            raise StructureError(f"expected {want}, got {n}")
        return ((f"[{i}]", items, item) for i, item in enumerate(value))

    return Shape(column, parts)


def record(required: Dict[str, Shape], optional: Optional[Dict[str, Shape]] = None) -> Shape:
    """An object with every key of `required`, any of `optional`, and no
    other key."""
    fields = {**required, **(optional or {})}
    required_keys, known_keys = frozenset(required), frozenset(fields)
    required_columns = [(operator.itemgetter(key), shape) for key, shape in required.items()]
    optional_columns = list((optional or {}).items())
    if optional:

        def keys_pass(keys) -> bool:
            return required_keys <= keys <= known_keys

    else:
        # every key required: one comparison per object
        keys_pass = partial(operator.eq, required_keys)

    def column(values: list) -> bool:
        return (
            _all_of_type(values, dict)
            and all(map(keys_pass, map(dict.keys, values)))
            and all(shape.column(list(map(get, values))) for get, shape in required_columns)
            and all(
                shape.column([value[key] for value in values if key in value])
                for key, shape in optional_columns
            )
        )

    def parts(value) -> Iterable:
        if type(value) is not dict:
            raise _fail("an object", value)
        # a missing key first, then each key in document order
        for key in required:
            if key not in value:
                raise StructureError(f"missing required key {key!r}")
        for key, item in value.items():
            if key not in fields:
                raise StructureError(f"unknown key {key!r}")
            yield _step(key), fields[key], item

    return Shape(column, parts)


def mapping(values: Shape) -> Shape:
    """An object with arbitrary keys, every value of one shape."""

    def column(objects: list) -> bool:
        return _all_of_type(objects, dict) and values.column(
            list(chain.from_iterable(map(dict.values, objects)))
        )

    def parts(value) -> Iterable:
        if type(value) is not dict:
            raise _fail("an object", value)
        return ((_step(key), values, item) for key, item in value.items())

    return Shape(column, parts)

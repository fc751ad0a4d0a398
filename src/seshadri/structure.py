"""Structural checks for the JSON input documents.

One small mechanism serves both input formats.  A shape is built from
the combinators below; calling it on a parsed document returns nothing
or raises StructureError for the first rule the document breaks, with
the JSON path of the offending value, such as
`$.strata[3].candidates[0].t: expected an integer >= 1, got 0`.

Every shape checks a document in two ways.  Its column test takes a
list of values and answers whether all of them pass, by passes of
builtins over whole columns: an array tests its items' shape on the
flattened items, a record compares key sets and then tests each
field's column.  Its walk visits one value item by item and raises the
error.  A call runs the column test on the document and, only if that
fails, the walk, so a passing document pays one column test and the
messages and paths come from the walk alone.  A column test may be
stricter than its walk (it tests exact types where the walk accepts
subclasses), never looser.

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
from typing import Callable, Dict, Optional, Tuple


class StructureError(ValueError):
    """A document of the wrong shape.  Containers add their key or index
    to `steps` as the error passes out through them, so the path costs
    nothing on documents that pass."""

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
    if isinstance(value, dict):
        return "an object"
    if isinstance(value, list):
        return "an array"
    try:
        text = json.dumps(value)
    except (TypeError, ValueError):
        text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _fail(want: str, value) -> StructureError:
    return StructureError(f"expected {want}, got {_describe(value)}")


def _step(key) -> str:
    if isinstance(key, str) and key.isidentifier():
        return "." + key
    return "[" + _describe(key) + "]"


class Shape:
    """A check of one JSON value: `column(values)` answers whether every
    value of a list passes, and `walk(value)` raises StructureError for
    the first rule the value breaks."""

    __slots__ = ("walk", "column")

    def __init__(self, walk: Callable[[object], None], column: Callable[[list], bool]):
        self.walk = walk
        self.column = column

    def __call__(self, value) -> None:
        if not self.column([value]):
            self.walk(value)


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

    def walk(value) -> None:
        if (
            type(value) is not int
            or (minimum is not None and value < minimum)
            or (maximum is not None and value > maximum)
        ):
            raise _fail(want, value)

    def column(values: list) -> bool:
        return (
            _all_of_type(values, int)
            and (minimum is None or min(values, default=minimum) >= minimum)
            and (maximum is None or max(values, default=maximum) <= maximum)
        )

    return Shape(walk, column)


def string(min_length: int = 0, pattern: Optional[str] = None, want: str = "a string") -> Shape:
    match = None if pattern is None else re.compile(pattern).search

    def walk(value) -> None:
        if (
            not isinstance(value, str)
            or len(value) < min_length
            or (match is not None and match(value) is None)
        ):
            raise _fail(want, value)

    def column(values: list) -> bool:
        return (
            _all_of_type(values, str)
            and min(map(len, values), default=min_length) >= min_length
            and (match is None or all(map(match, values)))
        )

    return Shape(walk, column)


LABEL: Shape = string(min_length=1, want="a non-empty string")


def const(expected) -> Shape:
    def walk(value) -> None:
        if type(value) is not type(expected) or value != expected:
            raise _fail(json.dumps(expected), value)

    def column(values: list) -> bool:
        return _all_of_type(values, type(expected)) and values.count(expected) == len(values)

    return Shape(walk, column)


def of_type(types: Tuple[type, ...], want: str) -> Shape:
    def walk(value) -> None:
        if not isinstance(value, types):
            raise _fail(want, value)

    def column(values: list) -> bool:
        return set(map(type, values)) <= set(types)

    return Shape(walk, column)


_not_none = partial(operator.is_not, None)


def nullable(shape: Shape) -> Shape:
    def walk(value) -> None:
        if value is not None:
            shape.walk(value)

    def column(values: list) -> bool:
        return shape.column(list(filter(_not_none, values)))

    return Shape(walk, column)


def array(items: Shape, min_items: int = 0, max_items: Optional[int] = None) -> Shape:
    if max_items == min_items:
        want = f"an array of {min_items} items"
    elif min_items:
        want = f"an array of at least {min_items} item" + ("s" if min_items > 1 else "")
    else:
        want = "an array"

    def walk(value) -> None:
        if not isinstance(value, list):
            raise _fail(want, value)
        n = len(value)
        if n < min_items or (max_items is not None and n > max_items):
            raise StructureError(f"expected {want}, got {n}")
        for i, item in enumerate(value):
            try:
                items.walk(item)
            except StructureError as exc:
                exc.steps.append(f"[{i}]")
                raise

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

    return Shape(walk, column)


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

    def walk(value) -> None:
        if not isinstance(value, dict):
            raise _fail("an object", value)
        keys = value.keys()
        if not (keys >= required_keys and keys <= known_keys):
            # locate the fault: a missing key first, else the unknown key
            # that the loop below meets in document order
            for key in required:
                if key not in value:
                    raise StructureError(f"missing required key {key!r}")
        for key, item in value.items():
            shape = fields.get(key)
            if shape is None:
                raise StructureError(f"unknown key {key!r}")
            try:
                shape.walk(item)
            except StructureError as exc:
                exc.steps.append(_step(key))
                raise

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

    return Shape(walk, column)


def mapping(values: Shape) -> Shape:
    """An object with arbitrary keys, every value of one shape."""

    def walk(value) -> None:
        if not isinstance(value, dict):
            raise _fail("an object", value)
        for key, item in value.items():
            try:
                values.walk(item)
            except StructureError as exc:
                exc.steps.append(_step(key))
                raise

    def column(objects: list) -> bool:
        return _all_of_type(objects, dict) and values.column(
            list(chain.from_iterable(map(dict.values, objects)))
        )

    return Shape(walk, column)

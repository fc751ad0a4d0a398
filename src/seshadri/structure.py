"""Structural checks for the JSON input documents.

One small mechanism serves both input formats.  A shape is a check
function built from the combinators below; calling it on a parsed
document returns nothing or raises StructureError for the first rule
the document breaks, with the JSON path of the offending value, such as
`$.strata[3].candidates[0].t: expected an integer >= 1, got 0`.

Integers are Python ints only: `true` and `2.0` are not integers here,
so nothing past this check can meet a bool or float where it counts.
The checks cover shape only (keys, types, ranges, string syntax); the
mathematical invariants are enforced by the constructors the loaders
call afterwards.
"""

from __future__ import annotations

import json
import re
from typing import Callable, Dict, Optional, Tuple

Shape = Callable[[object], None]


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


def integer(minimum: Optional[int] = None, maximum: Optional[int] = None) -> Shape:
    if maximum is not None:
        want = f"an integer in {minimum}..{maximum}"
    elif minimum is not None:
        want = f"an integer >= {minimum}"
    else:
        want = "an integer"

    def check(value) -> None:
        if (
            type(value) is not int
            or (minimum is not None and value < minimum)
            or (maximum is not None and value > maximum)
        ):
            raise _fail(want, value)

    check.int_range = (minimum, maximum)  # lets `array` check a list of them at once
    return check


def string(min_length: int = 0, pattern: Optional[str] = None, want: str = "a string") -> Shape:
    match = None if pattern is None else re.compile(pattern).search

    def check(value) -> None:
        if (
            not isinstance(value, str)
            or len(value) < min_length
            or (match is not None and match(value) is None)
        ):
            raise _fail(want, value)

    return check


LABEL: Shape = string(min_length=1, want="a non-empty string")


def const(expected) -> Shape:
    def check(value) -> None:
        if type(value) is not type(expected) or value != expected:
            raise _fail(json.dumps(expected), value)

    return check


def of_type(types: Tuple[type, ...], want: str) -> Shape:
    def check(value) -> None:
        if not isinstance(value, types):
            raise _fail(want, value)

    return check


def nullable(shape: Shape) -> Shape:
    def check(value) -> None:
        if value is not None:
            shape(value)

    return check


def _ints_within(values: list, low: Optional[int], high: Optional[int]) -> bool:
    """Every item an int in low..high (None: unbounded), decided by
    passes of builtins over the list."""
    return not values or (
        set(map(type, values)) == {int}
        and (low is None or min(values) >= low)
        and (high is None or max(values) <= high)
    )


def array(items: Shape, min_items: int = 0, max_items: Optional[int] = None) -> Shape:
    if max_items == min_items:
        want = f"an array of {min_items} items"
    elif min_items:
        want = f"an array of at least {min_items} item" + ("s" if min_items > 1 else "")
    else:
        want = "an array"

    # a list of integers is checked at once; the item-by-item walk below
    # then runs only to locate the failure
    int_range = getattr(items, "int_range", None)

    def check(value) -> None:
        if not isinstance(value, list):
            raise _fail(want, value)
        n = len(value)
        if n < min_items or (max_items is not None and n > max_items):
            raise StructureError(f"expected {want}, got {n}")
        if int_range is not None and _ints_within(value, *int_range):
            return
        for i, item in enumerate(value):
            try:
                items(item)
            except StructureError as exc:
                exc.steps.append(f"[{i}]")
                raise

    return check


def record(required: Dict[str, Shape], optional: Optional[Dict[str, Shape]] = None) -> Shape:
    """An object with every key of `required`, any of `optional`, and no
    other key."""
    fields = {**required, **(optional or {})}
    required_keys, known_keys = frozenset(required), frozenset(fields)

    def check(value) -> None:
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
                shape(item)
            except StructureError as exc:
                exc.steps.append(_step(key))
                raise

    return check


def mapping(values: Shape) -> Shape:
    """An object with arbitrary keys, every value of one shape."""

    def check(value) -> None:
        if not isinstance(value, dict):
            raise _fail("an object", value)
        for key, item in value.items():
            try:
                values(item)
            except StructureError as exc:
                exc.steps.append(_step(key))
                raise

    return check

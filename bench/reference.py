"""A fixed reference task that measures the speed the host gives a run.

    python3 bench/reference.py      # the task's time on this host, 50 runs

The machine the benchmark was defined on is a guest on a shared host
whose speed swings by 1.5x, in states that last from seconds to
minutes, and a swing slows the package and this task alike.  A run times the task between its operations and
scales each time by REFERENCE_S over the task's time next to it, that
is, puts it in terms of a host on which the task takes REFERENCE_S.

The task uses only the standard library and `jsonschema` (the package's
one dependency), never the package, so nothing a change to the package
does moves it.  It mixes the kinds of work the package does: `Fraction`
arithmetic, gcd and a sort of Fractions; a JSON round trip and a schema
validation; a sort of large Fractions into a dict.  Every workload
process runs it in itself, `cli-session` too, whose operations are CLI
children: a reference child would count in the children's peak RSS.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import jsonschema

# a fixed scale: about the task's time on the machine the benchmark was
# defined on (Python 3.11, 2 virtual cores) when its host was quiet
REFERENCE_S = 0.018

_SCHEMA = {
    "type": "object",
    "required": ["items"],
    "properties": {
        "items": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["label", "class", "t", "m"],
                "additionalProperties": False,
                "properties": {
                    "label": {"type": "string"},
                    "class": {"type": "array", "items": {"type": "integer"}},
                    "t": {"type": "integer", "minimum": 0},
                    "m": {"type": "integer", "minimum": 0},
                },
            },
        }
    },
}
_rng = random.Random(5)
_DOC = json.dumps({
    "items": [
        {"label": f"c{i}", "class": [_rng.randint(-3, 3) for _ in range(12)],
         "t": _rng.randint(0, 40), "m": _rng.randint(0, 4)}
        for i in range(25)
    ]
})
_LARGE = [Fraction(_rng.randint(1, 10**6), _rng.randint(1, 10**6)) for _ in range(1500)]
_VALIDATOR = jsonschema.Draft7Validator(_SCHEMA)


def reference_task() -> int:
    fracs = []
    for q in range(1, 48):
        for p in range(2 * q, 3 * q):
            if math.gcd(p, q) == 1:
                fracs.append(Fraction(p, q))
    fracs.sort()
    total = sum(fracs[::5], Fraction(0))
    listing = {"ratios": [f"{x.numerator}/{x.denominator}" for x in fracs[::3]], "total": str(total)}
    count = len(json.loads(json.dumps(listing))["ratios"])

    doc = json.loads(_DOC)
    _VALIDATOR.validate(doc)
    count += sum(Fraction(it["t"], it["m"] or 1) for it in doc["items"]).denominator

    table = {}
    for i, x in enumerate(sorted(_LARGE)):
        table[(x.numerator % 101, i)] = x
    return count + len(table)


if __name__ == "__main__":
    import statistics
    from time import perf_counter

    times = []
    for _ in range(50):
        start = perf_counter()
        reference_task()
        times.append(perf_counter() - start)
    print(f"reference task: min {min(times) * 1e3:.2f} ms, median {statistics.median(times) * 1e3:.2f} ms")

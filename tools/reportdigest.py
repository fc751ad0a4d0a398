#!/usr/bin/env python3
"""Hash the reports of the benchmark's family-scan families.

    python3 tools/reportdigest.py

The families are those of `bench/inputs.py`'s `family_round(seed,
round)` for seeds 1-3 and rounds 0-1, each loaded from its JSON text.
For each family the digest takes the scan report at alpha 1, 3/2, 2 and
3 in its three formats (`to_document` as JSON, `to_csv` and
`text_lines`), then each member's `global_epsilon(...).to_document()` as
JSON.  A change that must keep every report's bytes keeps the line this
tool prints, so the line of two trees can be compared directly.  The
tool only reads `bench/`.  The last and only stdout line is one JSON
object: a sha256 per seed, and one over all of them.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import inputs  # noqa: E402
from seshadri.engine import global_epsilon  # noqa: E402
from seshadri.family import load_family, scan  # noqa: E402

SEEDS, ROUNDS = (1, 2, 3), (0, 1)
ALPHAS = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))


def reports(seed: int):
    """The text of every report of one seed's families, in a fixed order."""
    for round_index in ROUNDS:
        for _, doc in inputs.family_round(seed, round_index):
            family = load_family(json.dumps(doc))
            for alpha in ALPHAS:
                report = scan(family, alpha)
                yield json.dumps(report.to_document())
                yield report.to_csv()
                yield "\n".join(report.text_lines())
            for _, model in family.members:
                yield json.dumps(global_epsilon(model).to_document())


def main() -> int:
    total = hashlib.sha256()
    digests = {}
    for seed in SEEDS:
        digest = hashlib.sha256()
        for text in reports(seed):
            data = text.encode("utf-8")
            # each text's length first, so that no two splits hash alike
            digest.update(b"%d:" % len(data) + data)
        digests[str(seed)] = digest.hexdigest()
        total.update(digest.digest())
    result = {
        "workload": "family-scan",
        "seeds": list(SEEDS),
        "rounds": list(ROUNDS),
        "alphas": [str(alpha) for alpha in ALPHAS],
        "sha256": digests,
        "total": total.hexdigest(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

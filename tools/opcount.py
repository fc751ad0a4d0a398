#!/usr/bin/env python3
"""Count the bytecode instructions that one family-scan round executes.

    python3 tools/opcount.py

The round is the benchmark's: the families of `bench/inputs.py`'s
`family_round(SEED, ROUND)`, seed 1 and round 0, each loaded from its JSON text, its members'
stratum tables read, scanned at the benchmark's alpha and serialized.
The round runs once uncounted, then once counted, so that no phase
counts work done on a first call only, such as a lazy import's walk of
`sys.path`: on Python 3.11.7, 480 instructions per entry for
`bounds._mertens`'s `from array import array`, which the serialize
phase reaches.
The count comes from `sys.settrace` with `f_trace_opcodes`, one per
executed instruction, by phase:

- load: `load_family` on the text, `json.loads` included;
- stratum_table: the first read of each member's `stratum_table`;
- scan: `scan` at alpha, which reads those tables;
- serialize: `to_document` and `json.dumps` of the report;

and within each phase by where the instruction's code lives: the
`seshadri` package, or other code (the standard library, frozen import
machinery).  Work done in C, such as `json.loads`, big-integer
arithmetic and compilation, executes no bytecode and is not counted, so
a count complements the wall clock and never replaces it.  A lower
count can be slower: per-element work in C (a `type()` call, a
method-wrapper call) costs no instruction, and a `map`/`compress`
rewrite of `models._generator_table` cut 12% of the load phase's
instructions yet took 11.2 against 7.9 µs per generator set.  And a
higher count can be just as fast: sending every row through
`lattice.integers`, in place of set passes in C, raised the load phase
from 673,658 to 787,187 instructions on Python 3.11.7, while
family-scan's `wall_s` median over 12 alternated pairs moved from 0.459
to 0.468 s, inside the 0.026 s between the parent's quartiles.  So pair
a count with a timed check.  After the warm-up round the count is a
function of the input and of the interpreter version: two runs on one
interpreter print the same line, whatever `sys.path` holds or which
modules were imported before.

`lines_compiled` counts what a host that writes no bytecode compiles on
each CLI call: per command, the lines (as `wc -l` counts them) of the
`src/seshadri/*.py` modules in `sys.modules` when `seshadri.cli.main`
returns, in a fresh isolated child interpreter.  Each command runs
once, on its first call of cli-session's round: `bench/inputs.py`'s
`cli_round(SEED, ROUND)`, its files written to a temporary directory.
The tool only reads `bench/`.
The last and only stdout line is one JSON object.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import inputs  # noqa: E402
import seshadri.family  # noqa: E402

PACKAGE = os.path.dirname(seshadri.family.__file__) + os.sep
PHASES = ("load", "stratum_table", "scan", "serialize")
SEED, ROUND = 1, 0


def counted(counts: dict, fn, *args):
    """fn(*args), with each instruction executed in a frame it opens
    added to counts["package"] or counts["other"]."""

    def package(frame, event, arg):
        if event == "opcode":
            counts["package"] += 1
        return package

    def other(frame, event, arg):
        if event == "opcode":
            counts["other"] += 1
        return other

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        return package if frame.f_code.co_filename.startswith(PACKAGE) else other

    sys.settrace(call)
    try:
        return fn(*args)
    finally:
        sys.settrace(None)


def read_tables(family) -> None:
    for _, model in family.members:
        model.stratum_table


def serialize(report) -> str:
    return json.dumps(report.to_document())


def run_round(texts, alpha, count) -> None:
    """One round, each phase run through `count(phase, fn, *args)`."""
    for text in texts:
        family = count("load", seshadri.family.load_family, text)
        count("stratum_table", read_tables, family)
        report = count("scan", seshadri.family.scan, family, alpha)
        count("serialize", serialize, report)


# run in the child: argv is [src, command, flags...]; the count goes to stderr
CHILD = """
import os, sys
src = sys.argv[1]
sys.path.insert(0, src)
from seshadri.cli import main
status = main(sys.argv[2:])
package = os.path.join(src, "seshadri") + os.sep
files = {getattr(m, "__file__", None) or "" for m in list(sys.modules.values())}
lines = sum(open(f, "rb").read().count(b"\\n") for f in files if f.startswith(package))
sys.stderr.write(f"{lines}\\n")
sys.exit(status)
"""


def cli_argvs(work: str) -> dict:
    """The argv of each command's first call in cli-session's round,
    with its files written under `work`."""
    r = inputs.cli_round(SEED, ROUND)
    path = lambda name: os.path.join(work, name)  # noqa: E731
    for name in ("model", "family"):
        with open(path(f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(r[name], fh)
    d, c, c_prime, p, q = r["bound"]
    (B, a, b), cut = r["candidates"][0], r["sublevel_cut"]
    alpha = "%d/%d" % inputs.CLI_ALPHA
    return {
        "bound": ["--d", d, "--c", c, "--c-prime", c_prime, "--a", f"{p}/{q}", "--format", "json"],
        "candidates": ["--B", B, "--alpha", f"{a}/{b}"],
        "epsilon": [path("model.json"), "--format", "json"],
        "sublevel": [path("model.json"), "--a", f"{cut[1]}/{cut[2]}", "--format", "json"],
        "scan": [path("family.json"), "--alpha", alpha, "--csv", path("scan.csv"), "--format", "json"],
        "check": ["--format", "json"],
    }


def lines_compiled() -> dict:
    """Per command, the package lines its call had imported when it returned."""
    src = os.path.join(ROOT, "src")
    counts = {}
    with tempfile.TemporaryDirectory() as work:
        for command, flags in cli_argvs(work).items():
            argv = [sys.executable, "-I", "-B", "-c", CHILD, src, command, *map(str, flags)]
            proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                raise RuntimeError(f"{command} exited {proc.returncode}: {proc.stderr[-500:]!r}")
            counts[command] = int(proc.stderr)
    return counts


def main() -> int:
    texts = [json.dumps(fam) for _, fam in inputs.family_round(SEED, ROUND)]
    alpha = Fraction(*inputs.SCAN_ALPHA)
    counts = {phase: {"package": 0, "other": 0} for phase in PHASES}
    run_round(texts, alpha, lambda phase, fn, *args: fn(*args))  # the warm-up
    run_round(texts, alpha, lambda phase, fn, *args: counted(counts[phase], fn, *args))
    for phase in counts.values():
        phase["total"] = phase["package"] + phase["other"]
    result = {
        "workload": "family-scan",
        "seed": SEED,
        "round": ROUND,
        "families": len(texts),
        "alpha": str(alpha),
        "python": platform.python_version(),
        "phases": counts,
        "total": sum(phase["total"] for phase in counts.values()),
        "lines_compiled": lines_compiled(),
        "uncounted": "work in C: json.loads, big-integer arithmetic, compilation",
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

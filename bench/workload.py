"""One workload process: set-up, then a closed loop of timed operations.

    python3 bench/workload.py --workload NAME --seed N --rounds R --t0 T
        [--probe] [--trace] --work DIR

`--t0` is the CLOCK_MONOTONIC time at which the parent started this
process; set-up time runs from it to the first timed operation and
covers interpreter start, `import seshadri`, the generation of round
0's inputs and warm-up; later rounds' inputs are built between rounds,
untimed.  After set-up and after every operation the process times the
fixed reference task of `reference.py`, which does not use the package,
so that each time can be put in terms of the host's speed at that
moment.  With `--probe` the process stops after set-up and its
reference task.  Every operation's output is checked against the
oracles after its timer stops.  The last stdout line is one JSON object
with the results.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import inputs  # noqa: E402
import oracles  # noqa: E402

CLI_TIMEOUT_S = 120


class CheckFailed(Exception):
    pass


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


# ---------------------------------------------------------------------------
# Checks on program output, against the oracles


def check_ratio_list(ratios, B: int, p: int, q: int) -> None:
    """ratios: the program's candidate ratios in its order, as (t, m)
    pairs from any iterable; compared item by item, so no copy is made."""
    for i, (got, want) in enumerate(itertools.zip_longest(ratios, oracles.farey_ratios(B, p, q))):
        expect(got == want, f"candidate_ratios({B}, {p}/{q}) item {i}: {got} != {want}")


def family_expectations(fam: dict, alpha: tuple) -> dict:
    """Values, certifications, supremum, observed set, superset and jump
    members of a family document at alpha, from the oracles."""
    p, q = alpha
    d = fam["degree"]
    rows, sigma, observed, global_values = {}, None, set(), {}
    for member in fam["members"]:
        doc = member["model"]
        low = None
        for s in doc["strata"]:
            value, cert = oracles.stratum_value(doc, s["label"])
            rows[(member["param_label"], s["label"])] = (value, cert)
            if sigma is None or oracles.value_lt(sigma, value):
                sigma = value
            if low is None or oracles.value_lt(value, low):
                low = value
            if cert == oracles.EXACT and not oracles.value_lt(oracles.rational(p, q), value):
                observed.add(value)
        global_values[member["param_label"]] = low
    specials = {s for _, s in fam["member_specialization"]}
    generals = [m for m in global_values if m not in specials] or list(global_values)
    reference = generals[0]
    for m in generals:
        if oracles.value_lt(global_values[reference], global_values[m]):
            reference = m
    jumps = {m for m, v in global_values.items() if oracles.value_lt(v, global_values[reference])}
    rr = fam["members"][0]["model"]["rr"]
    M = oracles.least_multiplier(d, rr["c"], rr["c_prime"], p, q)
    return {
        "rows": rows, "sigma": sigma, "observed": observed, "jumps": jumps,
        "M": M, "B": M * d, "alpha": alpha,
    }


def check_scan_document(doc: dict, want: dict) -> None:
    """Mathematical content of a scan report: per-stratum values and
    certifications, the degree bound, the supremum, the observed value
    set and its membership in the candidate superset, the superset
    itself when it is listed, and the jump members."""
    p, q = want["alpha"]
    B = want["B"]
    seen = set()
    for row in doc["epsilon_table"]:
        key = (row["member"], row["stratum"])
        expect(key in want["rows"], f"scan: unexpected row {key}")
        value, cert = want["rows"][key]
        expect(oracles.parse_value(row["value"]) == value, f"scan {key}: value {row['value']} != {value}")
        expect(row["certification"] == cert, f"scan {key}: {row['certification']} != {cert}")
        bound = row.get("bound_used")
        if bound is not None:
            expect((bound["M"], bound["B"]) == (want["M"], B), f"scan {key}: bound {bound}")
        seen.add(key)
    expect(seen == set(want["rows"]), "scan: rows missing from the table")
    expect(oracles.parse_value(doc["sigma_family"]) == want["sigma"], f"scan: sigma {doc['sigma_family']}")
    observed = {oracles.parse_value(x) for x in doc["sigma_cap"]}
    expect(observed == want["observed"], f"scan: observed values {sorted(observed)}")
    for value in observed:
        expect(oracles.in_superset(value[1], value[2], B, p, q), f"scan: {value} outside the superset")
    listed = doc.get("candidate_superset")
    if listed is not None:
        check_ratio_list(map(oracles.parse_ratio, listed), B, p, q)
    expect(set(doc["jump_members"]) == want["jumps"], f"scan: jump members {doc['jump_members']}")


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """Inputs, a warm-up and the operations of one workload.  ops(r) lists
    round r as (slot, kind, run); the same slot does the same work in
    every round.  run() performs one timed operation and returns
    (seconds, check), and check() raises on a wrong output.

    Set-up builds round 0's inputs (prepare(0)); every later round's
    inputs are built by ops(r), untimed, after the previous round's are
    dropped.  So set-up time and the process's memory do not grow with
    the number of rounds, and only one round's inputs are ever held."""

    in_process = True  # False: the calls run in child processes, which trace themselves

    def __init__(self, seed: int, work: str, trace: bool):
        self.seed, self.work, self.trace = seed, work, trace
        self.extra = {}  # figures measured outside the package, for the traced run
        self.snapshots = []  # tracer aggregates of traced child processes
        self.round, self.plan = None, None

    def setup(self) -> None:
        self.load()
        self.ops(0)
        self.warm_up()

    def ops(self, r: int) -> list:
        if r != self.round:
            self.plan = None
            self.plan = self.prepare(r)
            self.round = r
        return [(slot, kind, self.bind(kind, item)) for slot, (kind, item) in self.plan]

    def add_extra(self, key: str, value) -> None:
        self.extra[key] = self.extra.get(key, 0) + value


class BoundsLadder(Workload):
    def load(self) -> None:
        import seshadri.bounds

        self.bounds = seshadri.bounds  # looked up per call, so the tracer sees it

    def prepare(self, r: int) -> list:
        return inputs.bounds_round(self.seed, r)

    def warm_up(self) -> None:
        for kind, args in (("minimal_M", inputs.F1_RR + (5, 2)), ("candidate_ratios", (16, 5, 2))):
            self.op(kind, args)

    def bind(self, kind: str, args: tuple):
        return lambda: self.op(kind, args)

    def op(self, kind: str, args: tuple):
        if kind == "minimal_M":
            d, c, c_prime, p, q = args
            rr, a = self.bounds.RRData(d=d, c=c, c_prime=c_prime), Fraction(p, q)
            start = perf_counter()
            bound = self.bounds.minimal_M(rr, a)
            elapsed = perf_counter() - start

            def check():
                M = oracles.least_multiplier(d, c, c_prime, p, q)
                expect((bound.M, bound.B) == (M, M * d), f"minimal_M{args}: {bound.M}, {bound.B} != {M}")

            return elapsed, check
        B, p, q = args
        alpha = Fraction(p, q)
        start = perf_counter()
        ratios = self.bounds.candidate_ratios(B, alpha)
        elapsed = perf_counter() - start
        return elapsed, lambda: check_ratio_list(((x.numerator, x.denominator) for x in ratios), B, p, q)


class FamilyScan(Workload):
    def load(self) -> None:
        import seshadri.family

        self.family = seshadri.family  # looked up per call, so the tracer sees it

    def prepare(self, r: int) -> list:
        # kept as text: parsed copies would sit in the heap that the
        # program's garbage collections traverse
        return [(slot, ("family", json.dumps(fam))) for slot, fam in inputs.family_round(self.seed, r)]

    def warm_up(self) -> None:
        warm = inputs.family_doc(inputs.rng_for(self.seed, "family", "warm-up"), 2, 3, 4)
        self.op(json.dumps(warm), (2, 1))

    def bind(self, kind: str, text: str):
        return lambda: self.op(text, inputs.SCAN_ALPHA)

    def op(self, text: str, alpha: tuple):
        start = perf_counter()
        report = self.family.scan(self.family.load_family(text), Fraction(*alpha))
        doc = report.to_document()
        serialize_start = perf_counter()
        out = json.dumps(doc)
        elapsed = perf_counter() - start
        if self.trace:
            self.add_extra("dumps_s", perf_counter() - serialize_start)
            self.add_extra("family.report_bytes", len(out))
        return elapsed, lambda: check_scan_document(
            json.loads(out), family_expectations(json.loads(text), alpha)
        )


class CliSession(Workload):
    """A fixed script of `python -m seshadri.cli` calls per round, one
    at a time, each a fresh interpreter."""

    in_process = False

    def load(self) -> None:
        import seshadri.cli  # noqa: F401  (set-up covers the import)

        self.env = child_env()
        self.calls = 0

    def warm_up(self) -> None:
        self.call(["--version"])  # warm the file cache and the bytecode cache

    def prepare(self, r: int) -> list:
        """Writes round r's files; the plan is (slot, (kind, (argv, check)))."""
        round_inputs = inputs.cli_round(self.seed, r)
        path = lambda name: os.path.join(self.work, f"r{r}-{name}")  # noqa: E731
        for name in ("builtin", "model", "family"):
            with open(path(f"{name}.json"), "w", encoding="utf-8") as fh:
                json.dump(round_inputs[name], fh)
        model, fam = round_inputs["model"], round_inputs["family"]
        kind, params = round_inputs["builtin_kind"], round_inputs["builtin_params"]
        stratum = round_inputs["builtin_stratum"]
        d, c, c_prime, p, q = round_inputs["bound"]
        small, large = round_inputs["candidates"]
        cut = round_inputs["sublevel_cut"]
        a, b = inputs.CLI_ALPHA
        calls = [
            ("bound", ["bound", "--d", str(d), "--c", str(c), "--c-prime", str(c_prime),
                       "--a", f"{p}/{q}", "--format", "json"],
             lambda out: self.check_bound(out, d, c, c_prime, p, q)),
            ("candidates", ["candidates", "--B", str(small[0]), "--alpha", f"{small[1]}/{small[2]}"],
             lambda out: check_ratio_list(
                 map(oracles.parse_ratio, out.splitlines()[0].split(", ")), *small)),
            ("candidates", ["candidates", "--B", str(large[0]), "--alpha", f"{large[1]}/{large[2]}",
                            "--format", "json"],
             lambda out: check_ratio_list(
                 map(oracles.parse_ratio, json.loads(out)["ratios"]), *large)),
            ("epsilon", ["epsilon", path("model.json"), "--format", "json"],
             lambda out: self.check_global(json.loads(out), model)),
            ("epsilon", ["epsilon", path("builtin.json"), "--stratum", stratum,
                         "--alpha", "1/2", "--format", "json"],
             lambda out: self.check_builtin(json.loads(out), kind, params, stratum)),
            ("sublevel", ["sublevel", path("model.json"), "--a", f"{cut[1]}/{cut[2]}", "--format", "json"],
             lambda out: self.check_sublevel(json.loads(out), model, cut)),
            ("scan", ["scan", path("family.json"), "--alpha", f"{a}/{b}", "--csv", path("scan.csv"),
                      "--format", "json"],
             lambda out: self.check_scan(out, fam, path("scan.csv"))),
            ("check", ["check", "--format", "json"], self.check_checks),
        ]
        return [(slot, (kind, (argv, check_out))) for slot, (kind, argv, check_out) in enumerate(calls)]

    def call(self, argv: list) -> tuple:
        if not self.trace:
            cmd = [sys.executable, "-m", "seshadri.cli"] + argv
        else:
            self.calls += 1
            out = os.path.join(self.work, f"trace-{self.calls}.json")
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), out] + argv
        start = perf_counter()
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, timeout=CLI_TIMEOUT_S)
        elapsed = perf_counter() - start
        if self.trace:
            with open(out, encoding="utf-8") as fh:
                self.snapshots.append(json.load(fh))
        return proc, elapsed

    def bind(self, kind: str, call: tuple):
        return lambda: self.op(kind, *call)

    def op(self, kind: str, argv: list, check_out):
        proc, elapsed = self.call(argv)
        if proc.returncode != 0:
            raise RuntimeError(f"{argv[0]} exited {proc.returncode}: {proc.stderr[-500:]!r}")
        self.add_extra("cli.stdout_bytes", len(proc.stdout))
        if kind == "scan":
            self.add_extra("family.report_bytes", len(proc.stdout))
        return elapsed, lambda: check_out(proc.stdout.decode("utf-8"))

    @staticmethod
    def check_bound(out: str, d, c, c_prime, p, q) -> None:
        doc = json.loads(out)
        M = oracles.least_multiplier(d, c, c_prime, p, q)
        expect((doc["M"], doc["B"]) == (M, M * d), f"bound: {doc['M']}, {doc['B']} != {M}")
        expect(doc["multiplicity_target"] == M * p // q + 1, "bound: multiplicity target")

    @staticmethod
    def check_global(doc: dict, model: dict) -> None:
        values = [oracles.stratum_value(model, s["label"]) for s in model["strata"]]
        low = values[0][0]
        for value, _ in values:
            if oracles.value_lt(value, low):
                low = value
        expect(oracles.parse_value(doc["value"]) == low, f"epsilon: {doc['value']} != {low}")
        expect(doc["certification"] == oracles.EXACT, f"epsilon: {doc['certification']}")

    @staticmethod
    def check_builtin(doc: dict, kind: str, params: dict, stratum: str) -> None:
        want = oracles.known_value(kind, params, stratum)
        expect(oracles.parse_value(doc["value"]) == want, f"epsilon {kind}{params}: {doc['value']}")
        expect(doc["certification"] == oracles.EXACT, f"epsilon {kind}: {doc['certification']}")

    @staticmethod
    def check_sublevel(doc: dict, model: dict, cut: tuple) -> None:
        want = {
            s["label"] for s in model["strata"]
            if not oracles.value_lt(cut, oracles.stratum_value(model, s["label"])[0])
        }
        expect(set(doc["strata"]) == want, f"sublevel: {doc['strata']} != {sorted(want)}")

    @staticmethod
    def check_scan(out: str, fam: dict, csv_path: str) -> None:
        want = family_expectations(fam, inputs.CLI_ALPHA)
        check_scan_document(json.loads(out), want)
        with open(csv_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()[1:]
        got = {}
        for line in lines:
            member, stratum, value = line.split(",")[:3]
            got[(member, stratum)] = oracles.parse_value(value)
        expect(got == {k: v for k, (v, _) in want["rows"].items()}, "scan: csv values")

    @staticmethod
    def check_checks(out: str) -> None:
        doc = json.loads(out)
        failed = [c["name"] for c in doc["checks"] if not c["passed"]]
        expect(doc["all_passed"] and not failed, f"check: failed {failed}")


WORKLOADS = {"bounds-ladder": BoundsLadder, "family-scan": FamilyScan, "cli-session": CliSession}


def peak_rss_mb(in_process: bool) -> float:
    """ru_maxrss of this process, or of its largest child."""
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import seshadri  # noqa: F401

    workload = WORKLOADS[args.workload](args.seed, args.work, args.trace)
    workload.setup()
    gc.collect()
    tracer = None
    if args.trace and workload.in_process:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    setup_s = time.monotonic() - args.t0

    # Imported after set-up was timed: it imports jsonschema, whose import
    # belongs to the package's set-up cost.
    import reference

    def time_reference() -> float:
        start = perf_counter()
        reference.reference_task()
        return perf_counter() - start

    time_reference()  # warm-up
    # Every time is also reported scaled by REFERENCE_S over the reference
    # task's time next to it (see reference.py): set-up by the task right
    # after it, an operation by the mean of the tasks right before and
    # right after it.
    last_ref = time_reference()
    setup_scale = reference.REFERENCE_S / last_ref
    if args.probe:
        print(json.dumps({"setup_s": setup_s, "setup_scale": setup_scale}))
        return 0

    slot_s, scaled_slot_s, failures, wrong, per_round = {}, {}, [], [], []
    wall_s = scaled_wall_s = 0.0
    for r in range(args.rounds):
        round_ms = {}
        for slot, kind, run in workload.ops(r):
            try:
                elapsed, check = run()
            except Exception as exc:  # the program failed this operation
                failures.append(f"{kind}: {type(exc).__name__}: {exc}")
                last_ref = time_reference()
                continue
            ref = time_reference()
            scaled = elapsed * 2 * reference.REFERENCE_S / (last_ref + ref)
            last_ref = ref
            wall_s += elapsed
            scaled_wall_s += scaled
            slot_s.setdefault(slot, []).append(elapsed)
            scaled_slot_s.setdefault(slot, []).append(scaled)
            round_ms[kind] = round_ms.get(kind, 0.0) + elapsed * 1e3
            try:
                check()
            except (CheckFailed, AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                wrong.append(f"{kind}: {type(exc).__name__}: {exc}")
            # the check holds the operation's output: drop it before the next
            # operation, or the peak RSS would count two outputs at once
            check = None
        per_round.append(round_ms)

    result = {
        "setup_s": setup_s,
        "setup_scale": setup_scale,
        "wall_s": wall_s,
        "scaled_wall_s": scaled_wall_s,
        "slot_s": [slot_s[slot] for slot in sorted(slot_s)],
        "scaled_slot_s": [scaled_slot_s[slot] for slot in sorted(scaled_slot_s)],
        "per_round_ms": per_round,
        "attempted": sum(map(len, slot_s.values())) + len(failures),
        "failed": len(failures),
        "failures": failures,
        "wrong": wrong,
        "peak_rss_mb": peak_rss_mb(workload.in_process),
        "extra": workload.extra,
    }
    if args.trace:
        result["trace"] = workload.snapshots + ([tracer.snapshot()] if tracer else [])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the seshadri package: three seeded workloads, end-to-end
metrics from an untraced run, per-layer metrics from a traced one.

    python3 bench/run.py --workload {bounds-ladder,family-scan,cli-session}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See
bench/README.md for the workloads, the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workload import child_env  # noqa: E402

# Rounds per --seconds: each run does a fixed amount of work, which at the
# commit that defined the benchmark (Python 3.11, 2 virtual cores) takes,
# with the reference task between operations, about --seconds when the
# host is busy and 0.6 x --seconds when it is quiet.
ROUNDS_PER_SECOND = {"bounds-ladder": 0.29, "family-scan": 0.65, "cli-session": 0.23}
# set-ups timed before and after the measured run (plus the run's own):
# the host's slow and fast stretches last from seconds to minutes, so the
# samples span the run instead of one burst before it
SETUP_PROBES = (5, 5)
STARTUP_SAMPLES = 5
# A run stops with an error after DEADLINE_BASE_S + DEADLINE_PER_SECOND x
# --seconds: 145 s at --seconds 25.  A traced run, the longest, does the
# work twice and took 2.3 x --seconds on a busy host.
DEADLINE_BASE_S = 20.0
DEADLINE_PER_SECOND = 5.0
CLI_KINDS = ("bound", "candidates", "epsilon", "sublevel", "scan", "check")


class RunError(Exception):
    pass


def run_child(cmd: list, deadline: float) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time")
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, capture_output=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"timed out: {' '.join(cmd[:6])}") from exc
    if proc.returncode != 0:
        raise RunError(f"{' '.join(cmd[:6])} exited {proc.returncode}:\n{proc.stderr.decode()[-2000:]}")
    return proc


def workload_child(args, rounds: int, work: str, deadline: float, probe=False, trace=False) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--rounds", str(rounds),
        "--work", work,
    ]
    if probe:
        cmd.append("--probe")
    if trace:
        cmd.append("--trace")
    cmd += ["--t0", repr(time.monotonic())]
    proc = run_child(cmd, deadline)
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def startup_ms(deadline: float) -> float:
    """Median time of a child that only imports seshadri.cli."""
    samples = []
    for _ in range(STARTUP_SAMPLES):
        start = time.perf_counter()
        run_child([sys.executable, "-c", "import seshadri.cli"], deadline)
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def end_to_end(args, rounds: int, work: str, deadline: float) -> tuple:
    def probes(n: int) -> list:
        return [workload_child(args, rounds, work, deadline, probe=True) for _ in range(n)]

    before, after = SETUP_PROBES
    setups = probes(before)
    res = workload_child(args, rounds, work, deadline)
    setups += [res] + probes(after)
    # Every time is scaled by the reference task timed next to it (see
    # reference.py): a shared host's speed drifts by 1.5x within seconds
    # and over minutes and slows the package and the task alike, so the
    # scaled times of the same code agree between runs where the raw ones
    # do not.  An operation's time is its mean over the rounds; a median
    # over every call would flip between the host's fast and slow states.
    per_op = [statistics.mean(times) for times in res["scaled_slot_s"]]
    raw_op = [statistics.mean(times) for times in res["slot_s"]]
    print(
        f"{args.workload}: {sum(map(len, res['slot_s']))} timed operations, {len(per_op)} per round "
        f"x {rounds} rounds; op_p50_ms is the median of n={len(per_op)} per-operation means; "
        f"setup_s is the median of {len(setups)} set-ups"
    )
    print(
        f"{args.workload}: unscaled, setup_s {statistics.median(x['setup_s'] for x in setups):.4f} s, "
        f"wall_s {res['wall_s']:.3f} s, op_p50_ms {statistics.median(raw_op) * 1e3:.3f} ms; "
        f"scaled over unscaled wall_s {res['scaled_wall_s'] / res['wall_s']:.4f}"
    )
    metrics = {
        "setup_s": {"value": statistics.median(x["setup_s"] * x["setup_scale"] for x in setups), "unit": "s"},
        "wall_s": {"value": res["scaled_wall_s"], "unit": "s"},
        "op_p50_ms": {"value": statistics.median(per_op) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }
    return res, metrics


def per_layer(args, rounds: int, work: str, deadline: float) -> tuple:
    plain = workload_child(args, rounds, work, deadline)
    traced = workload_child(args, rounds, work, deadline, trace=True)
    extra = dict(traced["extra"])
    extra["trace.overhead_s"] = traced["scaled_wall_s"] - plain["scaled_wall_s"]
    extra["cli.startup_ms"] = startup_ms(deadline)
    for kind in CLI_KINDS:
        per_round = [r.get(kind, 0.0) for r in plain["per_round_ms"]]
        extra[f"cli.{kind}_ms"] = statistics.median(per_round) if per_round else 0.0
    trace = tracing.merge(traced["trace"])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    metrics = tracing.layer_metrics(trace, extra, units)
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "rounds": rounds,
                   "aggregates": trace, "metrics": metrics}, fh, indent=1)
    print(f"{args.workload}: traced aggregates written to {os.path.relpath(path, ROOT)}")
    return plain, traced, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS_PER_SECOND))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "seshadri", "__init__.py")):
        print("error: no package source at src/seshadri; run from a source checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_BASE_S + DEADLINE_PER_SECOND * args.seconds
    rounds = max(1, round(args.seconds * ROUNDS_PER_SECOND[args.workload]))
    work = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        if args.trace:
            *runs, metrics = per_layer(args, rounds, work, deadline)
        else:
            res, metrics = end_to_end(args, rounds, work, deadline)
            runs = [res]
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # a traced run counts the operations of its plain and its traced process
    failures = [f for res in runs for f in res["failures"]]
    wrong = [w for res in runs for w in res["wrong"]]
    for line in failures[:20]:
        print(f"failed: {line}")
    for line in wrong[:20]:
        print(f"wrong: {line}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": sum(res["attempted"] for res in runs),
        "failed": sum(res["failed"] for res in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

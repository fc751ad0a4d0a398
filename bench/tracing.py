"""Spans and counts at the package's layer boundaries, for the traced run.

The tracer wraps public functions of the package by module attribute,
from outside the package: every module namespace of `seshadri` that
holds the original function object gets the wrapper, so calls through
`from .x import f` copies are seen too.  Spans stay in memory as
per-function aggregates and are written out when the run ends.  A target
that no longer exists is reported as missing, and every metric that
depends on it reads `missing`, never 0.

The untraced run installs nothing.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# (key, dotted path, layer)
TARGETS = (
    ("minimal_M", "seshadri.bounds.minimal_M", "bounds"),
    ("candidate_ratios", "seshadri.bounds.candidate_ratios", "bounds"),
    ("load_model", "seshadri.models.load_model", "models"),
    ("load_family", "seshadri.family.load_family", "models"),
    ("model_from_document", "seshadri.models.model_from_document", "models"),
    ("pair", "seshadri.lattice.pair", "lattice"),
    ("extend_blowup", "seshadri.lattice.extend_blowup", "lattice"),
    ("epsilon_via_curves", "seshadri.engine.epsilon_via_curves", "engine"),
    ("epsilon_via_nef", "seshadri.engine.epsilon_via_nef", "engine"),
    ("scan", "seshadri.family.scan", "family"),
    ("semicontinuity_check", "seshadri.family.semicontinuity_check", "family"),
    ("member_candidate_superset", "seshadri.family.member_candidate_superset", "family"),
    ("report_to_document", "seshadri.family.FamilyScanReport.to_document", "family"),
    ("report_to_csv", "seshadri.family.FamilyScanReport.to_csv", "family"),
    ("run_all_checks", "seshadri.checks.run_all_checks", "checks"),
)

LOADS = ("load_model", "load_family")

# counts read from a wrapped call: key -> ((field, read(args, result)), ...)
COUNTS = {
    "candidate_ratios": (("out", lambda args, result: len(result)),),
    "epsilon_via_curves": (("candidates", lambda args, result: len(args[1].candidates)),),
    "scan": (
        ("rows", lambda args, result: len(result.epsilon_table)),
        ("superset", lambda args, result: len(result.candidate_superset)),
    ),
}

# per-layer metric -> the targets it is read from; a metric not listed
# here is measured outside the package.  Names and units are those of
# the per_layer list in BENCHMARK.json.
LAYER_NEEDS = {
    "bounds.minimal_M_s": ("minimal_M",),
    "bounds.minimal_M_calls": ("minimal_M",),
    "bounds.candidate_ratios_s": ("candidate_ratios",),
    "bounds.ratios_out": ("candidate_ratios.out",),
    "bounds.ratios_per_s": ("candidate_ratios", "candidate_ratios.out"),
    "models.load_s": LOADS,
    "models.from_document_s": ("model_from_document",),
    "models.json_parse_s": LOADS,
    "models.bytes_in": LOADS,
    "models.load_MB_per_s": LOADS,
    "lattice.pair_calls": ("pair",),
    "lattice.pair_s": ("pair",),
    "lattice.extend_blowup_calls": ("extend_blowup",),
    "engine.curve_path_calls": ("epsilon_via_curves",),
    "engine.nef_path_calls": ("epsilon_via_nef",),
    "engine.curve_path_s": ("epsilon_via_curves",),
    "engine.nef_path_s": ("epsilon_via_nef",),
    "engine.candidates_scanned": ("epsilon_via_curves.candidates",),
    "engine.evals_per_stratum": ("epsilon_via_curves", "scan.rows"),
    "family.scan_s": ("scan",),
    "family.scan_self_s": ("scan",),
    "family.semicontinuity_s": ("semicontinuity_check",),
    "family.member_superset_s": ("member_candidate_superset",),
    "family.rows": ("scan.rows",),
    "family.superset_size": ("scan.superset",),
    "family.serialize_s": ("report_to_document", "report_to_csv"),
    "checks.run_all_s": ("run_all_checks",),
}


def _resolve(path: str):
    """(owner, attribute, original) for a dotted path, or None."""
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        original = getattr(owner, parts[-1], None)
        return None if original is None else (owner, parts[-1], original)
    return None


class Tracer:
    def __init__(self):
        self.stats = {}
        self.missing = set()
        self._stack = []  # open spans: [key, layer, time covered by other layers]

    def install(self) -> None:
        for key, path, layer in TARGETS:
            found = _resolve(path)
            if found is None:
                self.missing.add(key)
                continue
            owner, attr, original = found
            wrapper = self._wrap(key, layer, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for name, module in list(sys.modules.items()):
                if name == "seshadri" or name.startswith("seshadri."):
                    for attr_name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr_name, wrapper)

    def _wrap(self, key, layer, fn):
        rec = self.stats.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0})
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [key, layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                rec["calls"] += 1
                rec["s"] += elapsed
                rec["self_s"] += elapsed - frame[2]
                if stack:
                    parent = stack[-1]
                    parent[2] += elapsed if parent[1] != layer else frame[2]
            self._count(key, rec, args, result, elapsed)
            return result

        return wrapper

    def _count(self, key, rec, args, result, elapsed) -> None:
        """Counts read from a call's arguments and result.  A count whose
        field is gone is recorded as missing under "key.field"."""
        if key in LOADS:
            if any(f[0] in LOADS for f in self._stack):
                return  # loaded inside another load: counted by the outer one
            text = args[0]
            start = perf_counter()
            json.loads(text)
            self._add(rec, "parse_s", perf_counter() - start)
            self._add(rec, "outer_s", elapsed)
            self._add(rec, "bytes", len(text.encode("utf-8")))
            return
        if key == "epsilon_via_curves" and any(f[0] == "scan" for f in self._stack):
            self._add(rec, "in_scan", 1)
        for field, read in COUNTS.get(key, ()):
            try:
                self._add(rec, field, read(args, result))
            except (AttributeError, TypeError, IndexError):
                self.missing.add(f"{key}.{field}")

    @staticmethod
    def _add(rec, field, value) -> None:
        rec[field] = rec.get(field, 0) + value

    def snapshot(self) -> dict:
        return {"stats": self.stats, "missing": sorted(self.missing)}


def merge(snapshots) -> dict:
    """Sum the aggregates of several traced processes."""
    stats, missing = {}, set()
    for snap in snapshots:
        missing.update(snap["missing"])
        for key, rec in snap["stats"].items():
            into = stats.setdefault(key, {})
            for field, value in rec.items():
                into[field] = into.get(field, 0) + value
    return {"stats": stats, "missing": sorted(missing)}


def layer_metrics(trace: dict, extra: dict, units: dict) -> dict:
    """Per-layer metrics, by name and unit as `units` lists them, from
    merged aggregates plus the figures measured outside the package
    (`extra`: the benchmark's own `json.dumps` time as dumps_s, and
    metrics by name: report and stdout bytes, CLI timings, tracing
    overhead)."""
    stats, missing = trace["stats"], set(trace["missing"])

    def get(key, field="s"):
        return stats.get(key, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    loads = [k for k in LOADS if k not in missing]
    load_s = sum(get(k, "outer_s") for k in loads)
    bytes_in = sum(get(k, "bytes") for k in loads)
    rows = get("scan", "rows")
    values = {
        "bounds.minimal_M_s": get("minimal_M"),
        "bounds.minimal_M_calls": get("minimal_M", "calls"),
        "bounds.candidate_ratios_s": get("candidate_ratios"),
        "bounds.ratios_out": get("candidate_ratios", "out"),
        "bounds.ratios_per_s": ratio(get("candidate_ratios", "out"), get("candidate_ratios")),
        "models.load_s": load_s,
        "models.from_document_s": get("model_from_document"),
        "models.json_parse_s": sum(get(k, "parse_s") for k in loads),
        "models.bytes_in": bytes_in,
        "models.load_MB_per_s": ratio(bytes_in / 1e6, load_s),
        "lattice.pair_calls": get("pair", "calls"),
        "lattice.pair_s": get("pair"),
        "lattice.extend_blowup_calls": get("extend_blowup", "calls"),
        "engine.curve_path_calls": get("epsilon_via_curves", "calls"),
        "engine.nef_path_calls": get("epsilon_via_nef", "calls"),
        "engine.curve_path_s": get("epsilon_via_curves"),
        "engine.nef_path_s": get("epsilon_via_nef"),
        "engine.candidates_scanned": get("epsilon_via_curves", "candidates"),
        "engine.evals_per_stratum": ratio(get("epsilon_via_curves", "in_scan"), rows),
        "family.scan_s": get("scan"),
        "family.scan_self_s": get("scan", "self_s"),
        "family.semicontinuity_s": get("semicontinuity_check"),
        "family.member_superset_s": get("member_candidate_superset"),
        "family.rows": rows,
        "family.superset_size": get("scan", "superset"),
        "family.serialize_s": get("report_to_document") + get("report_to_csv")
        + extra.get("dumps_s", 0.0),
        "checks.run_all_s": get("run_all_checks"),
    }
    values.update({k: v for k, v in extra.items() if k in units})
    out = {}
    for name, unit in units.items():
        needs = LAYER_NEEDS.get(name, ())
        gone = sorted(k for k in needs if k in missing)
        if name.startswith("models.") and needs == LOADS and len(gone) < len(LOADS):
            gone = []  # one loader is enough to measure loading
        if gone:
            out[name] = {"value": None, "unit": unit, "missing": gone}
        else:
            out[name] = {"value": values.get(name, 0), "unit": unit}
    return out

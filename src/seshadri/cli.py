"""Command-line entry point.

All numeric flags are exact-rational strings ("p/q" or "p"), integral for
an integer flag; decimal input is rejected before any computation runs.
Reports embed the tool and schema versions, and output files are written
atomically.  This module holds the parser, the commands and the report
writer; each subcommand imports the layer it runs when it runs: `bound`
the degree bound (`degree`), `candidates` the walk (`bounds`), `epsilon`
and `sublevel` the models (`models`, `engine`), `scan` the family layer,
and `check` the invariant suite with the built-in models.  Without
bytecode each imported line is compiled on every call, so one call
compiles only that layer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, List, Optional

from . import SCHEMA_VERSION, __version__
from .values import cut, format_pairs, format_rational, parse_rational

_REPORT_HEADER = {"tool_version": __version__, "schema_version": SCHEMA_VERSION}


def _emit(text: str, output: Optional[str]) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if output is None:
        sys.stdout.write(text)
        return
    import tempfile

    directory = os.path.dirname(os.path.abspath(output))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".seshadri-")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        # mkstemp's 0600 becomes the replaced report's mode, or a new
        # file's 0666 less the umask, as a shell redirection would give
        umask = os.umask(0)
        os.umask(umask)
        mode = os.stat(output).st_mode & 0o7777 if os.path.exists(output) else 0o666 & ~umask
        os.chmod(tmp, mode)
        os.replace(tmp, output)
    except OSError as exc:
        # the error names the given path, not the temporary file
        raise OSError(exc.errno, exc.strerror, output) from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _emit_report(
    fmt: str,
    output: Optional[str],
    document: Callable[[], dict],
    text_lines: Callable[[], List[str]],
) -> None:
    """Emit the report in `fmt`, building only that format."""
    if fmt == "json":
        _emit(json.dumps({**_REPORT_HEADER, **document()}, indent=2), output)
    else:
        _emit("\n".join(text_lines()), output)


def _integer(args, dest: str) -> int:
    """The value of integer flag `dest`: a rational string of integer value."""
    q = parse_rational(getattr(args, dest))
    if q.denominator != 1:
        raise ValueError(f"--{dest.replace('_', '-')} must be an integer, got {cut(q)}")
    return q.numerator


def cmd_bound(args) -> int:
    from .degree import RRData, minimal_M, multiplicity_target

    rr = RRData(
        d=_integer(args, "d"), c=_integer(args, "c"), c_prime=_integer(args, "c_prime"),
        vanishing_multiplier=_integer(args, "vanishing_multiplier"),
    )
    a = parse_rational(args.a)
    bound = minimal_M(rr, a)
    target = multiplicity_target(bound.M, a)
    doc = {
        "d": rr.d,
        "c": rr.c,
        "c_prime": rr.c_prime,
        "a": format_rational(a),
        "M": bound.M,
        "B": bound.B,
        "multiplicity_target": target,
        "vanishing_multiplier": bound.vanishing_multiplier,
    }
    lines = [
        f"M = {bound.M}",
        f"B = {bound.B}",
        f"multiplicity target = {target}",
    ]
    if bound.vanishing_multiplier != 1:
        lines.append(
            f"bound applies to the polarization raised to the power "
            f"{bound.vanishing_multiplier}"
        )
    _emit_report(args.format, args.output, lambda: doc, lambda: lines)
    return 0


def cmd_candidates(args) -> int:
    from .bounds import candidate_walk

    B = _integer(args, "B")
    alpha = parse_rational(args.alpha)
    formatted = format_pairs(candidate_walk(B, alpha, require_m_le_t=not args.permissive))
    doc = {
        "B": B,
        "alpha": format_rational(alpha),
        "certified": not args.permissive,
        "ratios": formatted,
    }
    note = ["(permissive mode: not a certified superset)"] if args.permissive else []
    _emit_report(
        args.format, args.output, lambda: doc, lambda: [", ".join(formatted) or "(none)", *note]
    )
    return 0


def cmd_epsilon(args) -> int:
    from .degree import minimal_M
    from .engine import Certification, global_epsilon
    from .models import load_model_file

    model = load_model_file(args.model)
    bound = minimal_M(model.rr, parse_rational(args.alpha)) if args.alpha is not None else None
    if args.stratum is not None:
        result = model.stratum_table[model.stratum(args.stratum).label]
    else:
        result = global_epsilon(model)
    doc = {"model": model.name, "stratum": args.stratum, **result.to_document(bound)}
    approx = result.value.approx()
    lines = [
        f"epsilon = {result.value.serialize()}"
        + ("" if approx is None else f"  (approx {approx:.6g})"),
        f"certification = {result.certification.value}",
    ]
    if result.witness:
        lines.append(
            f"witness = {result.witness.label} (t={result.witness.degree_t}, "
            f"m={result.witness.mult_m})"
        )
    if result.attained_at:
        lines.append(f"attained at stratum {result.attained_at}")
    if result.warning:
        lines.append(f"warning: {result.warning}")
    _emit_report(args.format, args.output, lambda: doc, lambda: lines)
    if args.strict and result.certification is not Certification.EXACT_CERTIFIED:
        return 2
    return 0


def cmd_sublevel(args) -> int:
    from .engine import sublevel_set
    from .models import load_model_file

    model = load_model_file(args.model)
    a = parse_rational(args.a)
    labels = sublevel_set(model, a)
    doc = {
        "model": model.name,
        "a": format_rational(a),
        "strata": labels,
        "closed_under_specialization": True,
    }
    lines = [
        "strata: " + (", ".join(labels) if labels else "(none)"),
        "closed under specialization: yes",
    ]
    _emit_report(args.format, args.output, lambda: doc, lambda: lines)
    return 0


def cmd_scan(args) -> int:
    from .family import load_family, scan

    with open(args.family, "r", encoding="utf-8") as fh:
        family = load_family(fh.read(), base_dir=os.path.dirname(os.path.abspath(args.family)))
    alpha = parse_rational(args.alpha)
    report = scan(family, alpha)
    if args.csv is not None:
        _emit(report.to_csv(), args.csv)
    # each format counts the superset, so only the requested one is built
    _emit_report(args.format, args.output, report.to_document, report.text_lines)
    degraded = bool(report.uncertified) or not all(
        v.passed for v in report.semicontinuity_verdicts
    )
    if args.strict and degraded:
        return 2
    return 0


def cmd_check(args) -> int:
    from .checks import run_all_checks

    results = run_all_checks()
    passed = all(r.passed for r in results)
    checks = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
    doc = {"checks": checks, "all_passed": passed}
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results]
    _emit_report(args.format, args.output, lambda: doc, lambda: lines)
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seshadri",
        description="Certified Seshadri-constant calculator for lattice-presented "
        "polarized surfaces",
    )
    parser.add_argument("--version", action="version", version=f"seshadri {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["json", "text"], default="text")
        p.add_argument("--output", help="write the report to this path (atomically)")

    def strict(p):
        p.add_argument(
            "--strict",
            action="store_true",
            help="exit 2 when any certification-degrading condition is hit",
        )

    p = sub.add_parser("bound", help="degree bound M, B = M*d for a ratio threshold")
    p.add_argument("--d", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--c-prime", required=True, dest="c_prime")
    p.add_argument("--a", required=True, help="threshold as p/q with a^2 < d")
    p.add_argument("--vanishing-multiplier", default="1", dest="vanishing_multiplier")
    common(p)
    p.set_defaults(fn=cmd_bound)

    p = sub.add_parser("candidates", help="all ratios t/m <= alpha with m <= t <= B")
    p.add_argument("--B", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument(
        "--permissive",
        action="store_true",
        help="let m range independently of t (exploratory, not certified)",
    )
    common(p)
    p.set_defaults(fn=cmd_candidates)

    p = sub.add_parser("epsilon", help="local or global Seshadri constant of a model")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--stratum", help="stratum label (default: global value)")
    p.add_argument("--alpha", help="report the degree bound at p/q as bound_used")
    common(p)
    strict(p)
    p.set_defaults(fn=cmd_epsilon)

    p = sub.add_parser("sublevel", help="strata with value <= a, with closure verdict")
    p.add_argument("model")
    p.add_argument("--a", required=True)
    common(p)
    p.set_defaults(fn=cmd_sublevel)

    p = sub.add_parser("scan", help="family scan: value set, supremum, semicontinuity")
    p.add_argument("family", help="family JSON file")
    p.add_argument("--alpha", required=True)
    p.add_argument("--csv", help="also write the per-stratum table as CSV here")
    common(p)
    strict(p)
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("check", help="run the full invariant suite over the built-ins")
    common(p)
    p.set_defaults(fn=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

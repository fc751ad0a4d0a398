"""Golden reports: the command line's output, compared byte for byte with
the files under tests/golden/.

Each case writes the built-in models (and a two-member family of degree
8) to a directory, runs `seshadri.cli.main` there and compares what it
writes, on stdout or to its `--csv` file, with the golden file of the
same name.  Each built-in's own document, its `to_json()`, is pinned as
`model_<slug>.json`, so that a class row of a built-in cannot change
unseen.  A change that alters a report or a model on purpose says why and
rewrites the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib
import re
import subprocess
import sys

import pytest

from seshadri.cli import main
from seshadri.examples import builtin_suite, quadric

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _slug(name: str) -> str:
    return re.sub(r"\W+", "_", name).strip("_")


def _cases() -> dict:
    """Golden file name -> argv; "{slug}" names a built-in's model file,
    "{family}" the family file and "{csv}" the CSV output path."""
    cases = {"check.txt": ["check"], "check.json": ["check", "--format", "json"]}
    for model in builtin_suite():
        slug = _slug(model.name)
        for alpha in ((), ("--alpha", "1/2")):
            suffix = "_alpha" if alpha else ""
            base = ["epsilon", f"{{{slug}}}", "--format", "json", *alpha]
            cases[f"epsilon_{slug}{suffix}.json"] = base
            for stratum in model.strata:
                cases[f"epsilon_{slug}_{stratum.label}{suffix}.json"] = [
                    *base, "--stratum", stratum.label
                ]
    for a in ("1", "2"):
        cases[f"sublevel_f1_anticanonical_{a}.json"] = [
            "sublevel", "{f1_anticanonical}", "--a", a, "--format", "json"
        ]
    scan = ["scan", "{family}", "--alpha", "5/2"]
    cases["scan_d8.json"] = [*scan, "--format", "json"]
    cases["scan_d8.txt"] = scan
    cases["scan_d8.csv"] = [*scan, "--csv", "{csv}"]
    return cases


CASES = _cases()

# golden file name -> the built-in model whose to_json() it holds
MODELS = {f"model_{_slug(model.name)}.json": model for model in builtin_suite()}


def _run(argv, workdir: pathlib.Path) -> str:
    """The bytes the call writes: its CSV file if it asks for one, else
    its stdout."""
    paths = {}
    for model in builtin_suite():
        path = workdir / f"{_slug(model.name)}.json"
        path.write_text(model.to_json(), encoding="utf-8")
        paths[_slug(model.name)] = str(path)
    family = {
        "degree": 8,
        "members": [
            {"param_label": "t0", "model": "f1_anticanonical.json"},
            {"param_label": "t1", "model": json.loads(quadric(2, 2).to_json())},
        ],
    }
    paths["family"] = str(workdir / "family.json")
    pathlib.Path(paths["family"]).write_text(json.dumps(family), encoding="utf-8")
    paths["csv"] = str(workdir / "scan.csv")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([arg.format(**paths) for arg in argv])
    assert code == 0, f"{argv} exited {code}"
    if "{csv}" in argv:
        return pathlib.Path(paths["csv"]).read_text(encoding="utf-8")
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_file(tmp_path, name):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert _run(CASES[name], tmp_path) == expected


@pytest.mark.parametrize("name", sorted(MODELS))
def test_builtin_model_matches_golden_file(name):
    assert MODELS[name].to_json() == (GOLDEN / name).read_text(encoding="utf-8")


def test_golden_files_are_all_cases():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted([*CASES, *MODELS])


def test_report_digest_of_the_bench_families_is_pinned():
    # tools/reportdigest.py hashes every scan report (JSON, CSV, text) and
    # each member's global value on the family-scan families: a change to
    # any of those bytes fails here, as a golden file's would, and one made
    # on purpose updates this pin
    tool = pathlib.Path(__file__).parent.parent / "tools" / "reportdigest.py"
    proc = subprocess.run([sys.executable, str(tool)], capture_output=True, text=True, check=True)
    digest = json.loads(proc.stdout.splitlines()[-1])
    assert digest["total"] == "7ac114f6434770a3ccbeba4c19dcc6f2aa9da28ccc28466737b8411faf91c182"


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / name).write_text(_run(argv, pathlib.Path(tmp)), encoding="utf-8")
    for name, model in MODELS.items():
        (GOLDEN / name).write_text(model.to_json(), encoding="utf-8")

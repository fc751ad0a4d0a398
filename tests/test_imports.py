"""The import plan: `import seshadri` is lazy, each CLI subcommand loads
only its own layer, and the package exports the same objects it did when
it imported every submodule up front."""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import seshadri
from seshadri.examples import f1_anticanonical, quadric

SRC = os.path.dirname(os.path.dirname(seshadri.__file__))

EXPORTS = {
    "values": ["Rational", "SeshadriValue", "format_rational", "parse_rational"],
    "lattice": ["CurveGeneratorSet", "IntersectionLattice", "LatticeError",
                "extend_blowup", "pair"],
    "degree": ["BoundError", "DegreeBound", "RRData", "l_poly", "minimal_M",
               "multiplicity_target"],
    "bounds": ["candidate_ratios", "mediant_bounds"],
    "engine": ["Certification", "CurveCandidate", "EngineError", "PointStratum",
               "SeshadriResult", "epsilon", "epsilon_via_curves", "epsilon_via_nef",
               "global_epsilon", "low_epsilon_strata", "sigma_local", "sublevel_set"],
    "models": ["ModelError", "SurfaceModel", "load_model", "load_model_file"],
    "examples": ["builtin_suite", "f1_anticanonical", "projective_plane", "quadric"],
    "family": ["Family", "FamilyError", "FamilyScanReport", "load_family", "scan",
               "semicontinuity_check"],
}
NAMES = [name for names in EXPORTS.values() for name in names]

# runs the statements in argv[1], then prints every loaded module
PROBE = """
import sys
exec(sys.argv[1])
print(json.dumps(sorted(sys.modules)))
"""


def loaded_modules(statements: str, *args: str, roots=("seshadri",)) -> set:
    """The modules under the top-level names `roots` that the statements
    load in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", "import json" + PROBE, statements, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    return {m for m in json.loads(proc.stdout.splitlines()[-1]) if m.split(".")[0] in roots}


def cli_modules(*argv: str, roots=("seshadri",)) -> set:
    return loaded_modules(
        "import seshadri.cli; seshadri.cli.main(sys.argv[2:])", *argv, roots=roots
    )


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("import-plan")
    (root / "f1.json").write_text(f1_anticanonical().to_json())
    family = {
        "degree": 8,
        "members": [
            {"param_label": "t0", "model": "f1.json"},
            {"param_label": "t1", "model": json.loads(quadric(2, 2).to_json())},
        ],
    }
    (root / "family.json").write_text(json.dumps(family))
    return str(root / "f1.json"), str(root / "family.json")


def test_import_seshadri_loads_no_submodule():
    assert loaded_modules("import seshadri; seshadri.__version__, seshadri.SCHEMA_VERSION") == {
        "seshadri"
    }


DEGREE_BOUND = {"seshadri", "seshadri.cli", "seshadri.values", "seshadri.degree"}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["bound", "--d", "4", "--c", "0", "--c-prime", "2", "--a", "3/2", "--format", "json"],
         DEGREE_BOUND),
        (["candidates", "--B", "12", "--alpha", "5/2"], DEGREE_BOUND | {"seshadri.bounds"}),
    ],
    ids=["bound", "candidates"],
)
def test_degree_bound_commands_load_only_bounds(argv, expected):
    # `bound` compiles the degree bound alone, not the Farey walk and the count
    assert cli_modules(*argv) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--d", "4", "--c", "0", "--c-prime", "2", "--a", "3/2", "--format", "json"],
        ["candidates", "--B", "12", "--alpha", "5/2"],
        ["epsilon", "{model}", "--format", "json"],
        ["sublevel", "{model}", "--a", "1"],
        ["scan", "{family}", "--alpha", "5/2"],
        ["check"],
    ],
    ids=["bound", "candidates", "epsilon", "sublevel", "scan", "check"],
)
def test_degree_bound_commands_skip_dataclasses(files, argv):
    # a frozen dataclass imports dataclasses and, through it, inspect,
    # about 10 ms of every call: each command's records are plain slots
    # classes instead
    argv = [arg.format(model=files[0], family=files[1]) for arg in argv]
    assert cli_modules(*argv, roots=("dataclasses", "inspect")) == set()


@pytest.mark.parametrize(
    "argv",
    [["epsilon", "{model}", "--format", "json"], ["epsilon", "{model}", "--stratum", "on_E"],
     ["sublevel", "{model}", "--a", "1"]],
    ids=["epsilon", "epsilon_stratum", "sublevel"],
)
def test_model_commands_skip_family_and_checks(files, argv):
    # without bytecode every imported line is compiled on every call: a
    # model whose strata run forward needs no family layer, invariant
    # suite, candidate walk, built-in model or cycle check
    argv = [arg.format(model=files[0]) for arg in argv]
    loaded = cli_modules(*argv, roots=("seshadri", "graphlib"))
    assert {"seshadri.degree", "seshadri.engine", "seshadri.models"} <= loaded
    assert not loaded & {
        "seshadri.family", "seshadri.checks", "seshadri.bounds", "seshadri.examples", "graphlib"
    }


def test_scan_skips_checks(files):
    loaded = cli_modules("scan", files[1], "--alpha", "5/2")
    assert "seshadri.family" in loaded and "seshadri.checks" not in loaded


def test_check_loads_checks():
    loaded = cli_modules("check")
    assert "seshadri.checks" in loaded and "seshadri.family" not in loaded


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_exports_are_the_submodule_objects(module):
    source = importlib.import_module(f"seshadri.{module}")
    for name in EXPORTS[module]:
        assert seshadri._SOURCE[name] == module
        assert getattr(seshadri, name) is getattr(source, name)


def test_bounds_holds_the_degree_bound_names_it_builds_with():
    # the benchmark reaches RRData and minimal_M through seshadri.bounds
    import seshadri.bounds
    import seshadri.degree

    assert seshadri.bounds.RRData is seshadri.degree.RRData is seshadri.RRData
    assert seshadri.bounds.minimal_M is seshadri.degree.minimal_M is seshadri.minimal_M
    assert seshadri.bounds.candidate_ratios is seshadri.candidate_ratios


def test_star_import_binds_every_export():
    namespace = {}
    exec("from seshadri import *", namespace)
    assert sorted(seshadri.__all__) == sorted(NAMES)
    for name in NAMES:
        assert namespace[name] is getattr(seshadri, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        seshadri.no_such_name
    with pytest.raises(ImportError):
        exec("from seshadri import no_such_name", {})


def test_schema_version_is_shared():
    import seshadri.models

    assert seshadri.models.SCHEMA_VERSION is seshadri.SCHEMA_VERSION == 1


def test_tracer_targets_resolve(monkeypatch):
    # the traced benchmark wraps these names from outside the package, and
    # reads every metric of a name that does not resolve as missing
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(SRC), "bench"))
    tracing = importlib.import_module("tracing")
    assert [path for _, path, _ in tracing.TARGETS if tracing._resolve(path) is None] == []


def _unused_imports(path: str) -> list:
    """The names that an import in the module binds and nothing in it
    reads, apart from `from __future__` imports."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in bound.items() if name not in read)


@pytest.mark.parametrize(
    "module", sorted(name for name in os.listdir(seshadri.__path__[0]) if name.endswith(".py"))
)
def test_module_has_no_unused_import(module):
    assert _unused_imports(os.path.join(seshadri.__path__[0], module)) == []


def _top_level_names(tree: ast.Module) -> dict:
    """The names that the module's top-level functions, classes and
    assignments define, each with its defining statement."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node
    return defined


def _references(node: ast.AST) -> set:
    """Every name that the node reads: as a Name, an Attribute, an
    imported name or a string constant."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in sub.names)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def test_every_top_level_name_is_used_or_exported():
    # nothing is kept that nothing uses: each top-level function, class
    # and assigned name of the package is read somewhere in it outside
    # its own definition, or exported, or a dunder
    package = seshadri.__path__[0]
    trees = {}
    for module in sorted(name for name in os.listdir(package) if name.endswith(".py")):
        with open(os.path.join(package, module), encoding="utf-8") as fh:
            trees[module] = ast.parse(fh.read(), module)
    references = [(node, _references(node)) for tree in trees.values() for node in tree.body]
    unused = []
    for module, tree in trees.items():
        for name, definition in _top_level_names(tree).items():
            if name in seshadri.__all__ or (name.startswith("__") and name.endswith("__")):
                continue
            if not any(name in names for node, names in references if node is not definition):
                unused.append(f"{module}: {name}")
    assert unused == []

import json
import os
import re
import stat

import pytest

from seshadri import bounds, checks, engine, family
from seshadri.cli import main
from seshadri.examples import f1_anticanonical, projective_plane, quadric
from seshadri.values import parse_rational


@pytest.fixture
def f1_path(tmp_path):
    path = tmp_path / "f1.json"
    path.write_text(f1_anticanonical().to_json())
    return str(path)


@pytest.fixture
def family_path(tmp_path):
    (tmp_path / "f1.json").write_text(f1_anticanonical().to_json())
    doc = {
        "degree": 8,
        "members": [
            {"param_label": "t0", "model": "f1.json"},
            {"param_label": "t1", "model": json.loads(quadric(2, 2).to_json())},
        ],
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_bound_text(capsys):
    assert main(["bound", "--d", "4", "--c", "0", "--c-prime", "2", "--a", "3/2"]) == 0
    out = capsys.readouterr().out
    assert "M = 4" in out and "B = 16" in out and "multiplicity target = 7" in out


def test_bound_text_names_the_vanishing_multiplier(capsys):
    argv = ["bound", "--d", "4", "--c", "0", "--c-prime", "2", "--a", "3/2"]
    assert main([*argv, "--vanishing-multiplier", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "bound applies to the polarization raised to the power 2"
    assert main(argv) == 0
    assert "power" not in capsys.readouterr().out


def test_bound_json(capsys):
    assert main(
        ["bound", "--d", "4", "--c", "0", "--c-prime", "2", "--a", "3/2", "--format", "json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["M"], doc["B"], doc["multiplicity_target"]) == (4, 16, 7)
    assert doc["tool_version"] and doc["schema_version"] == 1


def test_bound_rejects_decimal(capsys):
    assert main(["bound", "--d", "4", "--c", "0", "--c-prime", "2", "--a", "1.5"]) == 1
    assert "error" in capsys.readouterr().err


def test_candidates_text(capsys):
    assert main(["candidates", "--B", "3", "--alpha", "3/2"]) == 0
    assert capsys.readouterr().out.strip() == "1, 3/2"


@pytest.mark.parametrize(
    "B, alpha, message",
    [("0", "1", "B must be positive, got 0"), ("3", "0", "alpha must be positive, got 0")],
    ids=["B", "alpha"],
)
def test_candidates_rejects_a_nonpositive_argument(capsys, B, alpha, message):
    assert main(["candidates", "--B", B, "--alpha", alpha]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "B, message",
    [
        ("1_0", "malformed rational '1_0'"),
        ("+1", "malformed rational '+1'"),
        ("\u0668", "malformed rational '\u0668'"),
        ("1.5", "decimal notation not accepted, use p/q: '1.5'"),
        ("3/2", "--B must be an integer, got 3/2"),
        ("", "malformed rational ''"),
    ],
    ids=["underscore", "plus", "arabic-indic", "decimal", "fraction", "empty"],
)
def test_candidates_reads_B_as_every_numeric_flag_is_read(capsys, B, message):
    # an integer flag is a rational string whose value is an integer: a
    # malformed one fails with one error line and exit 1, as --alpha does
    assert main(["candidates", "--B", B, "--alpha", "2"]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("flag", ["--d", "--c", "--c-prime", "--vanishing-multiplier"])
def test_bound_rejects_a_fraction_for_an_integer_flag(capsys, flag):
    args = {"--d": "4", "--c": "0", "--c-prime": "2", "--a": "3/2", flag: "3/2"}
    assert main(["bound", *(item for pair in args.items() for item in pair)]) == 1
    assert capsys.readouterr() == ("", f"error: {flag} must be an integer, got 3/2\n")


def test_an_integer_flag_takes_an_integral_rational(capsys):
    assert main(["candidates", "--B", "6/2", "--alpha", "3/2"]) == 0
    assert main(["candidates", "--B", "3", "--alpha", "3/2"]) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert first == second == "1, 3/2"


_SEVENS = "7" * 4000


def _put(*path, value):
    """A change to f1's document that puts `value` at `path`."""
    def change(doc):
        *keys, last = path
        for key in keys:
            doc = doc[key]
        doc[last] = value
    return change


def _long_label(doc):
    candidate = doc["strata"][1]["candidates"][0]
    candidate["label"], candidate["t"] = "x" * 100_000, 0


# (change to f1's document or None, argv with "{model}" for the changed
# document's path): each error line echoes a value far past 40 characters
ECHO_PROBES = {
    "alpha_long": (None, ["candidates", "--B", "3", "--alpha", "x" * 100_000]),
    "B_fraction": (None, ["candidates", "--B", _SEVENS + "/3", "--alpha", "2"]),
    "a_long": (None, ["bound", "--d", "8", "--c", "8", "--c-prime", "1", "--a", _SEVENS]),
    "candidate_label": (_long_label, ["epsilon", "{model}"]),
    "closure_dim": (_put("strata", 1, "closure_dim", value=int(_SEVENS)), ["epsilon", "{model}"]),
    "rr_d": (_put("rr", "d", value=-int(_SEVENS)), ["epsilon", "{model}"]),
    "threshold": (_put("strata", 1, "oracle_complete_below", value="-" + _SEVENS),
                  ["epsilon", "{model}"]),
    "candidate_t": (_put("strata", 1, "candidates", 0, "t", value=-int(_SEVENS)),
                    ["epsilon", "{model}"]),
    "rank": (_put("rank", value=-int(_SEVENS)), ["epsilon", "{model}"]),
    "blowup_key": (_put("blowup_gens", "g" * 100_000, value=[]), ["epsilon", "{model}"]),
    "blowup_key_path": (_put("blowup_gens", "g" * 100_000, value=[{"label": "Z", "class": [0]}]),
                        ["epsilon", "{model}"]),
    "stratum_flag": (_put("name", value="f1"),
                     ["epsilon", "{model}", "--stratum", "s" * 100_000]),
}


@pytest.mark.parametrize("change, argv", ECHO_PROBES.values(), ids=ECHO_PROBES.keys())
def test_an_error_line_cuts_the_value_it_echoes(capsys, tmp_path, change, argv):
    model = tmp_path / "model.json"
    if change is not None:
        doc = f1_anticanonical().to_document()
        change(doc)
        model.write_text(json.dumps(doc))
    assert main([arg.replace("{model}", str(model)) for arg in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    # one line, which shows the value cut, not left out
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
    assert "..." in err and len(err.encode()) < 300


def test_candidates_permissive_labeled(capsys):
    assert main(["candidates", "--B", "3", "--alpha", "3", "--permissive"]) == 0
    assert "not a certified superset" in capsys.readouterr().out


@pytest.mark.parametrize("permissive", [[], ["--permissive"]], ids=["certified", "permissive"])
def test_candidates_text_names_an_empty_list(capsys, permissive):
    # like the sublevel and scan reports, an empty list reads "(none)",
    # not a blank line; the JSON report keeps its empty list
    argv = ["candidates", "--B", "5", "--alpha", "1/9", *permissive]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == "(none)"
    assert main([*argv, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["ratios"] == []


def test_epsilon_stratum(capsys, f1_path):
    assert main(["epsilon", f1_path, "--stratum", "on_E", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == "1"
    assert doc["witness"]["label"] == "E"


def test_epsilon_global(capsys, f1_path):
    assert main(["epsilon", f1_path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == "1" and doc["attained_at"] == "on_E"


def test_epsilon_reports_a_certified_lower_bound(capsys, tmp_path):
    # f1's generic table complete below 3/2 only: 2 >= value >= 3/2
    doc = json.loads(f1_anticanonical().to_json())
    doc["strata"][0]["oracle_complete_below"] = "3/2"
    path = tmp_path / "f1_lower.json"
    path.write_text(json.dumps(doc))
    assert main(["epsilon", str(path), "--stratum", "generic", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["value"], doc["certified_above"]) == ("2", "3/2")
    assert doc["certification"] == "upper_bound_only"


def test_epsilon_warns_on_an_empty_table(capsys, tmp_path):
    doc = json.loads(projective_plane(1).to_json())
    doc["strata"][0]["candidates"] = []
    doc["strata"][0]["oracle_complete_below"] = None
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    warning = (
        "stratum 'generic': empty candidate table with no completeness assertion; "
        "only the sqrt(d) ceiling is known"
    )
    assert main(["epsilon", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["warning"] == warning
    assert main(["epsilon", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"warning: {warning}"


def _sqrt_ceiling_model(e):
    """The line model with gram (2) and polarization e, so d = 2e^2, and
    an empty table: its value is the sqrt(d) ceiling."""
    doc = json.loads(projective_plane(1).to_json())
    doc.update(gram=[[2]], polarization=[e], blowup_gens={})
    doc["rr"]["d"] = 2 * e * e
    doc["strata"][0].update(candidates=[], oracle_complete_below=None)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "text, value, approx",
    [
        # sqrt(2 * 10^400): d is past float range, its root is not
        (_sqrt_ceiling_model(10**200), f"sqrt({2 * 10**400})", 1.4142135623730951e200),
        # 10^400 is past float range itself
        (projective_plane(10**400).to_json(), str(10**400), None),
    ],
    ids=["sqrt", "exact"],
)
def test_epsilon_approximates_only_what_fits_a_float(capsys, tmp_path, text, value, approx):
    path = tmp_path / "huge.json"
    path.write_text(text)
    assert main(["epsilon", str(path), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["value"], doc["value_approx"]) == (value, approx)
    assert main(["epsilon", str(path)]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    shown = "" if approx is None else f"  (approx {approx:.6g})"
    assert first == f"epsilon = {value}{shown}"


def test_epsilon_unknown_stratum(capsys, f1_path):
    assert main(["epsilon", f1_path, "--stratum", "nope"]) == 1


def test_epsilon_names_an_empty_stratum_label(capsys, f1_path):
    # an empty label is a label like any other, not the global value
    assert main(["epsilon", f1_path, "--stratum", "", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: model 'f1_anticanonical' has no stratum ''\n"


def _f1_variant(tmp_path, name, edit):
    """f1 with `edit` applied to its document, written to name.json."""
    doc = f1_anticanonical().to_document()
    edit(doc)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _without_E(doc):
    # on_E's table loses its curve E: the curve path gives 2, the nef path 1
    on_E = doc["strata"][1]
    on_E["candidates"] = [c for c in on_E["candidates"] if c["label"] != "E"]


def _E_of_multiplicity_2(doc):
    # E has t = 1 < m = 2 at very_ample_multiplier 1; with on_E's blow-up
    # set gone, no nef path refutes the value 1/2 it would give
    doc["strata"][1]["candidates"][0]["m"] = 2
    del doc["blowup_gens"]["on_E"]


@pytest.mark.parametrize(
    "argv",
    [[], ["--stratum", "generic"], ["--stratum", "on_E"], ["sublevel", "--a", "3"]],
    ids=["global", "generic", "on_E", "sublevel"],
)
def test_every_command_rejects_a_model_whose_paths_clash(capsys, tmp_path, argv):
    # --stratum reads the model's checked table, so a clash in any stratum
    # fails the call, as it fails the global value and the sublevel set
    path = _f1_variant(tmp_path, "pathclash", _without_E)
    command, flags = (argv[0], argv[1:]) if argv[:1] == ["sublevel"] else ("epsilon", argv)
    assert main([command, path, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: stratum 'on_E': curve path gives 2 (exact_certified) but nef path gives 1\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["epsilon"],
        ["epsilon", "--stratum", "generic"],
        ["epsilon", "--stratum", "on_E", "--strict"],
        ["sublevel", "--a", "3"],
        ["sublevel", "--a", "2"],
        ["scan", "--alpha", "5/2"],
    ],
    ids=["global", "generic", "on_E", "sublevel_both", "sublevel_generic", "scan"],
)
def test_every_command_rejects_a_stratum_above_the_dense_one(capsys, tmp_path, f1_above_dense, argv):
    # the rule is checked as the model is loaded, so every command meets
    # it, whichever stratum or cut it asks for; a family names the member
    path = tmp_path / "above.json"
    path.write_text(json.dumps(f1_above_dense))
    command, *flags = argv
    member = ""
    if command == "scan":
        path, member = tmp_path / "family.json", "member 't': "
        members = [{"param_label": "t", "model": "above.json"}]
        path.write_text(json.dumps({"degree": 8, "members": members}))
    assert main([command, str(path), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {member}stratum 'on_E' has a value of at least sqrt(8), above the dense "
        "stratum 'generic' at most 2; the model's tables are geometrically inconsistent\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["epsilon"],
        ["epsilon", "--stratum", "pt", "--strict"],
        ["sublevel", "--a", "2"],
        ["sublevel", "--a", "1"],
        ["scan", "--alpha", "5/2"],
    ],
    ids=["global", "pt", "sublevel_all", "sublevel_on_E", "scan"],
)
def test_every_command_rejects_a_stratum_above_one_it_specializes_from(
    capsys, tmp_path, f1_above_on_E, argv
):
    # pt (exact 3/2) lies below the dense stratum but above on_E (exact
    # 1), which it specializes from: the table rejects the pair as the
    # model is loaded, so no command reports a value, a sublevel set or a
    # verdict; a family names the member
    path = tmp_path / "pt.json"
    path.write_text(json.dumps(f1_above_on_E))
    command, *flags = argv
    member = ""
    if command == "scan":
        path, member = tmp_path / "family.json", "member 't': "
        members = [{"param_label": "t", "model": "pt.json"}]
        path.write_text(json.dumps({"degree": 8, "members": members}))
    assert main([command, str(path), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {member}stratum 'pt' has a value of at least 3/2, above the stratum 'on_E' "
        "at most 1; the model's tables are geometrically inconsistent\n"
    )
    assert len(captured.err.encode()) < 300


def test_scan_names_the_one_inconsistent_member(capsys, tmp_path):
    # two members, only the second of which clashes: the load names it
    _f1_variant(tmp_path, "pathclash", _without_E)
    members = [
        {"param_label": "good", "model": f1_anticanonical().to_document()},
        {"param_label": "bad", "model": "pathclash.json"},
    ]
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"degree": 8, "members": members}))
    assert main(["scan", str(path), "--alpha", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: member 'bad': stratum 'on_E': curve path gives 2 (exact_certified) "
        "but nef path gives 1\n"
    )


def test_epsilon_stratum_evaluates_each_stratum_once(capsys, monkeypatch, f1_path):
    labels = []
    curves = engine.epsilon_via_curves

    def counted(model, stratum):
        labels.append(stratum.label)
        return curves(model, stratum)

    monkeypatch.setattr(engine, "epsilon_via_curves", counted)
    assert main(["epsilon", f1_path, "--stratum", "on_E"]) == 0
    assert labels == ["generic", "on_E"]
    assert capsys.readouterr().out.startswith("epsilon = 1  (approx 1)\n")


@pytest.mark.parametrize(
    "argv",
    [["epsilon", "--strict"], ["sublevel", "--a", "1"], ["scan", "--alpha", "5/2"]],
    ids=["epsilon", "sublevel", "scan"],
)
def test_a_row_above_the_multiplier_fails_every_command(capsys, tmp_path, argv):
    path = _f1_variant(tmp_path, "mvt", _E_of_multiplicity_2)
    message = (
        "candidate 'E' of stratum 'on_E': multiplicity 2 exceeds very_ample_multiplier 1 "
        "times degree 1"
    )
    command, *flags = argv
    if command == "scan":
        member = {"param_label": "t", "model": "mvt.json"}
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"degree": 8, "members": [member]}))
        message = f"member 't': {message}"
    assert main([command, str(path), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_epsilon_strict_on_uncertified(capsys, tmp_path, f1_path):
    doc = json.loads(f1_anticanonical().to_json())
    for sd in doc["strata"]:
        sd["oracle_complete_below"] = None
    path = tmp_path / "uncertified.json"
    path.write_text(json.dumps(doc))
    assert main(["epsilon", str(path), "--strict"]) == 2
    assert main(["epsilon", str(path)]) == 0


@pytest.mark.parametrize(
    "alpha, message",
    [("0", "threshold must be positive, got 0"),
     ("3", r"threshold\^2 must be strictly below the degree: 3\^2 >= 8"),
     ("", "malformed rational ''")],
)
@pytest.mark.parametrize("stratum", [[], ["--stratum", "on_E"]], ids=["global", "stratum"])
def test_epsilon_rejects_an_invalid_alpha(capsys, f1_path, alpha, message, stratum):
    assert main(["epsilon", f1_path, "--alpha", alpha, *stratum]) == 1
    assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--d", "4", "--c", "0", "--c-prime", "2", "--a", "3/2"],
        ["candidates", "--B", "3", "--alpha", "3/2"],
        ["sublevel", "{model}", "--a", "1"],
        ["check"],
    ],
    ids=["bound", "candidates", "sublevel", "check"],
)
def test_strict_is_only_for_epsilon_and_scan(capsys, f1_path, argv):
    with pytest.raises(SystemExit) as exc:
        main([arg.format(model=f1_path) for arg in argv] + ["--strict"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --strict" in capsys.readouterr().err


def test_sublevel(capsys, f1_path):
    assert main(["sublevel", f1_path, "--a", "1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["strata"] == ["on_E"]
    assert doc["closed_under_specialization"]


def test_scan_with_csv(capsys, tmp_path, family_path):
    csv_path = tmp_path / "out.csv"
    assert main(["scan", family_path, "--alpha", "5/2", "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "sigma(family) = 2" in out
    assert "observed values <= 5/2: 1, 2" in out
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "param_label,stratum,epsilon,certification,witness"
    assert len(lines) == 4


def test_scan_json_report(capsys, family_path):
    assert main(["scan", family_path, "--alpha", "5/2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sigma_cap"] == ["1", "2"]
    assert doc["sigma_family"] == "2"


# past sys.maxsize, which len() cannot return: each report raised
# OverflowError after counting the superset
_HUGE = 2**64


def test_scan_json_states_a_superset_size_past_sys_maxsize(capsys, monkeypatch, family_path):
    monkeypatch.setattr(bounds, "candidate_count", lambda B, alpha: _HUGE)
    assert main(["scan", family_path, "--alpha", "5/2", "--format", "json"]) == 0
    (entry,) = json.loads(capsys.readouterr().out)["candidate_supersets"]
    assert entry["size"] == _HUGE


def test_scan_text_states_a_superset_size_past_sys_maxsize(capsys, monkeypatch, family_path):
    monkeypatch.setattr(bounds, "candidate_count", lambda B, alpha: _HUGE)
    assert main(["scan", family_path, "--alpha", "5/2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].startswith(f"candidate superset: {_HUGE} ratios at v=1, B=")


def test_scan_near_sqrt_d_lists_no_candidate(capsys, monkeypatch, tmp_path):
    # f1 at 2828427/1000000, just below sqrt(8): B = 8,000,000 and about
    # 1.3e13 candidate ratios, which every report counts and none lists;
    # every walk first finds its end term
    def refuse(*_):
        raise AssertionError("the candidate walk was run")

    monkeypatch.setattr(bounds, "_farey_ceil", refuse)
    alpha = "2828427/1000000"
    size = bounds.candidate_count(8_000_000, parse_rational(alpha))
    path = tmp_path / "f1_family.json"
    members = [{"param_label": "t", "model": f1_anticanonical().to_document()}]
    path.write_text(json.dumps({"degree": 8, "members": members}))
    report = family.scan(family.load_family(path.read_text()), parse_rational(alpha))
    entry = {"very_ample_multiplier": 1, "B": 8_000_000, "size": size}
    assert report.to_document()["candidate_supersets"] == [entry]
    assert report.to_csv().startswith("param_label,stratum,epsilon,certification,witness")
    csv_path = tmp_path / "f1.csv"
    argv = ["scan", str(path), "--alpha", alpha, "--csv", str(csv_path)]
    assert main([*argv, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["candidate_supersets"] == [entry]
    assert csv_path.read_text() == report.to_csv()
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == f"candidate superset: {size} ratios at v=1, B=8000000"


def test_scan_serializes_only_the_requested_format(capsys, monkeypatch, family_path):
    # each format lists the whole candidate superset, so the other is not built
    def refuse(*_):
        raise AssertionError("the other format was built")

    monkeypatch.setattr(family.FamilyScanReport, "text_lines", refuse)
    assert main(["scan", family_path, "--alpha", "5/2", "--format", "json"]) == 0
    monkeypatch.undo()
    monkeypatch.setattr(family.FamilyScanReport, "to_document", refuse)
    assert main(["scan", family_path, "--alpha", "5/2", "--format", "text"]) == 0
    assert "sigma(family) = 2" in capsys.readouterr().out


def test_output_written_atomically(tmp_path, f1_path):
    out = tmp_path / "report.json"
    assert main(["epsilon", f1_path, "--format", "json", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["value"] == "1"
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".seshadri-")]
    assert leftovers == []


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


def test_output_files_get_the_mode_a_redirection_would(tmp_path, family_path, umask_022):
    # a new report is 0666 less the umask, not mkstemp's 0600
    (tmp_path / "out").mkdir()
    out, csv_path = tmp_path / "out" / "report.json", tmp_path / "out" / "report.csv"
    argv = ["scan", family_path, "--alpha", "5/2", "--format", "json"]
    assert main([*argv, "--output", str(out), "--csv", str(csv_path)]) == 0
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(csv_path.stat().st_mode) == 0o644
    # a replaced report keeps its own bits
    out.chmod(0o640)
    csv_path.chmod(0o640)
    assert main([*argv, "--output", str(out), "--csv", str(csv_path)]) == 0
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(csv_path.stat().st_mode) == 0o640
    assert json.loads(out.read_text())["alpha"] == "5/2"
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["report.csv", "report.json"]


def _assert_path_error(capsys, path):
    # one error line that names the given path, not the temporary file
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f": {str(path)!r}\n")
    assert err.count("\n") == 1 and ".seshadri-" not in err


def test_output_to_a_directory_is_an_input_error(capsys, tmp_path):
    # the report cannot replace a directory: the call fails with an error
    # and removes its temporary file
    out = tmp_path / "report"
    out.mkdir()
    argv = ["bound", "--d", "4", "--c", "0", "--c-prime", "2", "--a", "3/2"]
    assert main([*argv, "--output", str(out)]) == 1
    _assert_path_error(capsys, out)
    assert [p.name for p in tmp_path.iterdir()] == ["report"]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("flag", ["--output", "--csv"])
def test_output_to_a_missing_directory_names_the_path(capsys, tmp_path, family_path, flag):
    out = tmp_path / "missing" / "report"
    assert main(["scan", family_path, "--alpha", "5/2", flag, str(out)]) == 1
    _assert_path_error(capsys, out)
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("flag", ["--output", "--csv"])
def test_an_empty_output_path_is_an_input_error(capsys, monkeypatch, tmp_path, family_path, flag):
    # an empty path names no file: the call fails, writes no report and
    # leaves no temporary file behind
    monkeypatch.chdir(tmp_path)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(["scan", family_path, "--alpha", "5/2", flag, ""]) == 1
    assert capsys.readouterr() == ("", "error: [Errno 2] No such file or directory: ''\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_scan_strict_exits_2_on_an_uncertified_stratum(tmp_path, family_path):
    # f1 whose on_E stratum has no threshold and no blow-up set: its value
    # is an upper bound only
    doc = json.loads(f1_anticanonical().to_json())
    doc["strata"][1]["oracle_complete_below"] = None
    del doc["blowup_gens"]["on_E"]
    (tmp_path / "uncertified.json").write_text(json.dumps(doc))
    uncertified = tmp_path / "uncertified_family.json"
    members = [{"param_label": "t0", "model": "uncertified.json"}]
    uncertified.write_text(json.dumps({"degree": 8, "members": members}))
    for path, strict in ((str(uncertified), 2), (family_path, 0)):
        assert main(["scan", path, "--alpha", "5/2", "--strict"]) == strict
        assert main(["scan", path, "--alpha", "5/2"]) == 0


def test_check_passes_and_is_deterministic(capsys):
    assert main(["check"]) == 0
    first = capsys.readouterr().out
    assert main(["check"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert all(line.startswith("PASS") for line in first.strip().splitlines())


def test_missing_file_is_input_error(capsys):
    assert main(["epsilon", "/nonexistent/model.json"]) == 1


CHECK_NAMES = [
    "roundtrip", "cross_check", "steffens_rationality", "sublevel_closedness",
    "low_epsilon_finiteness", "candidate_membership", "minimal_M_closed_form",
    "candidate_brute_force", "mediant_inequality", "sigma_attainment", "rr_sanity",
]


def test_check_json_lists_the_invariants_in_order(capsys):
    assert main(["check", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert ([c["name"] for c in doc["checks"]], doc["all_passed"]) == (CHECK_NAMES, True)


def test_check_fails_when_one_invariant_fails(capsys, monkeypatch):
    def broken(models):
        raise AssertionError("broken on purpose")

    index = CHECK_NAMES.index("sigma_attainment")
    patched = list(checks.ALL_CHECKS)
    patched[index] = ("sigma_attainment", broken)
    monkeypatch.setattr(checks, "ALL_CHECKS", patched)
    assert main(["check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[index] == "FAIL sigma_attainment: AssertionError: broken on purpose"
    assert sum(line.startswith("PASS") for line in lines) == len(CHECK_NAMES) - 1
    assert main(["check", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["all_passed"] is False


def _write_family(tmp_path, models, specialization=()):
    """A family file whose members are the (label, model) pairs, inline."""
    doc = {
        "degree": models[0][1].rr.d,
        "members": [
            {"param_label": label, "model": json.loads(model.to_json())} for label, model in models
        ],
        "member_specialization": [list(pair) for pair in specialization],
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_scan_text_lists_a_proven_failure(capsys, tmp_path):
    # f1 (global value 1) specializing to quadric(2, 2) (global value 2):
    # the special member is proven to lie above the general one
    path = _write_family(tmp_path, [("g", f1_anticanonical()), ("s", quadric(2, 2))], [("g", "s")])
    assert main(["scan", path, "--alpha", "5/2"]) == 0
    assert "semicontinuity: FAILURES: member g->s in family\n" in capsys.readouterr().out
    assert main(["scan", path, "--alpha", "5/2", "--strict"]) == 2


def test_scan_text_lists_an_undetermined_verdict(capsys, tmp_path, violating_model):
    # with no thresholds each stratum's value is an upper bound only, so
    # the order of the two strata is not proven either way
    path = _write_family(tmp_path, [("t", violating_model())])
    assert main(["scan", path, "--alpha", "3/2"]) == 0
    out = capsys.readouterr().out
    assert "semicontinuity: UNDETERMINED: stratum generic->special in t\n" in out

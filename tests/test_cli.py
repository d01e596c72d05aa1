from __future__ import annotations

import gc
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

import gwvir
from gwvir import cli
from gwvir.cli import parse_key, run
from gwvir.engine import InvariantCache, make_key
from gwvir.errors import ParseError
from gwvir.rationals import format_rational
from gwvir.target import load_target, preset, serialize_target


def go(*argv, env=None, monkeypatch=None, tmp_path=None):
    buf = io.StringIO()
    code, report = run(list(argv), out=buf)
    return code, report, buf.getvalue()


def test_targets_list():
    code, report, text = go("targets", "list")
    assert code == 0 and "P2" in text and report.outcome == "pass"


def test_targets_show_round_trip():
    code, report, _ = go("targets", "show", "--target", "P1", "--format", "structured")
    assert code == 0
    doc = json.loads(serialize_target(preset("P1")))
    assert report.details[0] == doc


def test_nd_table():
    code, report, text = go("nd", "--target", "P2", "--max", "4")
    assert code == 0
    assert [d["N_d"] for d in report.details] == ["1", "1", "12", "620"]
    code, _, _ = go("nd", "--target", "P1", "--max", "2")
    assert code == 2


def test_invariant_key_syntax():
    key = parse_key("deg=3;ins=(0,3)(0,3)(1,1)", 1)
    assert key == make_key([(0, 3), (0, 3), (1, 1)], (3,))
    key = parse_key("deg=;ins=(0,1)(0,1)(0,1)", 0)
    assert key == make_key([(0, 1)] * 3, ())
    with pytest.raises(ParseError):
        parse_key("ins=(0,1);deg=", 0)
    with pytest.raises(ParseError):
        parse_key("deg=1;ins=(0,1)", 0)
    with pytest.raises(ParseError):  # "$" would match before a final newline
        parse_key("deg=1;ins=(0,3)(0,3)\n", 1)


def test_invariant_command():
    code, report, _ = go("invariant", "--target", "point",
                         "--key", "deg=;ins=(2,1)(0,1)(0,1)(0,1)(0,1)")
    assert code == 0 and report.details[0]["value"] == "1"


def test_invariant_class_above_range_is_usage_error():
    code, report, text = go("invariant", "--target", "P2", "--key", "deg=1;ins=(0,9)")
    assert code == 2 and report is None and "class index 9 not in [1, 3]" in text


def test_invariant_class_zero_is_usage_error():
    code, report, text = go("invariant", "--target", "P2",
                            "--key", "deg=0;ins=(0,0)(0,1)(0,1)")
    assert code == 2 and report is None and "class index 0 not in [1, 3]" in text


def test_psi_pass_and_exit_codes():
    code, report, text = go("psi", "--target", "point", "--n", "1",
                            "--insertions", "4", "--level", "3")
    assert code == 0 and report.outcome == "pass"
    assert "all coefficients zero" in text


@pytest.mark.parametrize("target", ["point", "P1", "P2"])
def test_level_zero_commands_pass(target):
    # ttilde^1_1 = t^1_1 - 1 enters every residual even when t_1 is truncated away.
    for argv in (("psi", "--n", "1"), ("psi", "--n", "2"), ("psi-tilde", "--n", "1"),
                 ("psi-tilde", "--n", "2"), ("identities", "--all")):
        code, report, text = go(*argv, "--target", target, "--level", "0")
        assert code == 0 and report.outcome == "pass", text


def test_psi_usage_error_bad_target(tmp_path):
    bad = tmp_path / "bad.json"
    doc = json.loads(serialize_target(preset("P2")))
    doc["eta"][0][1] = "1"
    bad.write_text(json.dumps(doc))
    code, report, text = go("psi", "--target", str(bad), "--n", "1")
    assert code == 2 and "eta not symmetric" in text


def test_psi_tilde_command():
    code, report, _ = go("psi-tilde", "--target", "P1", "--n", "1",
                         "--insertions", "3", "--level", "2", "--degree", "2")
    assert code == 0 and report.outcome == "pass"


def test_commutator_command():
    code, report, _ = go("commutator", "--target", "P2", "--m", "1", "--n", "2",
                         "--insertions", "2", "--level", "5", "--degree", "0")
    assert code == 0
    for m, n in (("0", "2"), ("1", "-1")):
        code, report, _ = go("commutator", "--target", "P2", "--m", m, "--n", n,
                             "--insertions", "2", "--level", "5")
        assert code == 0 and report.command == f"commutator m={m} n={n}"
        assert report.details == []
    # m < -1, and a level that leaves no window (m + n + 1 = 3): usage errors.
    for m, n, level in (("-2", "1", "5"), ("1", "-2", "5"), ("0", "2", "3")):
        code, report, _ = go("commutator", "--target", "P2", "--m", m, "--n", n,
                             "--level", level)
        assert code == 2 and report is None


def test_commutator_bracket_probe(tmp_path):
    code, report, _ = go("commutator", "--target", "P1", "--m", "-1", "--n", "1",
                         "--level", "4", "--degree", "0")
    assert code == 0 and report.command == "commutator m=-1 n=1"
    assert report.details == []
    # A wrong euler_char shows as the residual's constant: L_0's constant is off.
    doc = json.loads(serialize_target(preset("P2")))
    doc["euler_char"] = 99
    path = tmp_path / "P2c.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, report, _ = go("commutator", "--target", str(path), "--m", "-1", "--n", "1",
                         "--level", "4", "--degree", "0")
    assert code == 1 and report.outcome == "fail"
    assert report.details == [{"linear": [], "quadratic": [], "constant": "4"}]


def test_central_condition_command():
    for name, value in (("point", "1/16"), ("P1", "0"), ("P2", "-5/16")):
        code, report, _ = go("central-condition", "--target", name)
        assert code == 0 and report.details[0]["lhs"] == value


def test_identities_command_and_usage():
    code, report, _ = go("identities", "--target", "point", "--tags", "TRR,StringRec",
                         "--insertions", "3", "--level", "2", "--degree", "0")
    assert code == 0 and all(d["failures"] == 0 for d in report.details)
    code, _, _ = go("identities", "--target", "point")
    assert code == 2
    code, _, _ = go("identities", "--target", "point", "--tags", "Nope")
    assert code == 2
    # Separators alone name no tag: a usage error, not a vacuous pass.
    for tags in (",", " , ,"):
        code, report, text = go("identities", "--target", "point", "--tags", tags)
        assert code == 2 and report is None and "needs --tags or --all" in text


def test_degree_usage_names_what_the_target_accepts():
    # One integer is broadcast to every Novikov component; a rank-r target
    # with r >= 2 also takes r of them.
    p1xp1 = str(Path(__file__).parent / "data" / "P1xP1.json")
    for target, accepted in (("point", "one integer"), ("P2", "one integer"),
                             (p1xp1, "one integer or 2 comma-separated integers")):
        code, report, text = go("psi", "--target", target, "--n", "1", "--degree", "1,2,3")
        assert code == 2 and report is None
        assert f"--degree takes {accepted} on this target, not '1,2,3'" in text
    code, _, _ = go("psi", "--target", "point", "--n", "1", "--level", "1", "--degree", "1")
    assert code == 0


def test_targets_validate_zero_classes_is_usage_error(tmp_path):
    doc = json.loads(serialize_target(preset("point")))
    doc.update(classes=0, q=[], eta=[], c1_mat=[])
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    code, report, text = go("targets", "validate", "--target", str(path))
    assert code == 2 and report is None and "classes must be at least 1" in text


def test_identities_jobs_deterministic():
    args = ("identities", "--target", "point", "--tags",
            "TRR,GenWDVV,StringCorr3", "--insertions", "3", "--level", "2",
            "--degree", "0", "--format", "structured")
    _, r1, _ = go(*args)
    _, r2, _ = go(*args)
    d1, d2 = r1.to_dict(), r2.to_dict()
    d1.pop("wall_time_ms"), d2.pop("wall_time_ms")
    assert d1 == d2
    # --jobs was accepted and ignored while work ran in one thread; it is gone.
    code, _, _ = go(*args, "--jobs", "3")
    assert code == 2


def test_report_round_trip_and_determinism():
    args = ("psi", "--target", "P1", "--n", "1", "--insertions", "3",
            "--level", "2", "--degree", "1", "--format", "structured")
    code1, r1, text1 = go(*args)
    code2, r2, text2 = go(*args)
    assert code1 == code2 == 0
    assert json.loads(text1) == r1.to_dict()
    d1, d2 = r1.to_dict(), r2.to_dict()
    d1.pop("wall_time_ms"), d2.pop("wall_time_ms")
    assert d1 == d2
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_cache_workflow(tmp_path, monkeypatch):
    monkeypatch.setenv("GW_CACHE_DIR", str(tmp_path / "caches"))
    warm = ("cache", "warm", "--target", "P1", "--insertions", "2",
            "--level", "1", "--degree", "2")
    code, report, _ = go(*warm)
    assert code == 0
    path = tmp_path / "caches" / f"{preset('P1').fingerprint}.jsonl"
    assert path.exists()
    first = path.read_bytes()
    code, report, _ = go("cache", "verify", "--target", "P1")
    assert code == 0
    code, _, _ = go(*warm)
    assert path.read_bytes() == first  # byte-identical rebuild
    code, report, _ = go("cache", "clear", "--target", "P1")
    assert code == 0 and not path.exists()
    code, report, _ = go("cache", "clear", "--target", "P1")
    assert code == 0  # idempotent
    code, _, _ = go("cache", "verify", "--target", "P1")
    assert code == 3  # verify with no cache present


DATA = Path(__file__).parent / "data"


def _file_target(name):
    return ["--target", str(DATA / f"{name}.json"), "--table", str(DATA / f"{name}_seeds.jsonl")]


@pytest.mark.parametrize("target,policy,sha256", [
    (["--target", "P2"], ("6", "5", "3"),
     "47e152081d95cb8ffd85db3b497dc8955e8cc9e83057c330289195790b037d93"),
    (_file_target("P3"), ("4", "3", "2"),
     "f382b5525ba36538e50ed95568973a1e8d8e89a01bce1eec83a7697f2c0014df"),
    (_file_target("P1xP1"), ("4", "3", "2"),
     "cb97efafaea829a4c740a69b0579e811e40cdb476b2159b92a6c8bfc801b3881"),
], ids=["P2", "P3", "P1xP1"])
def test_cache_warm_writes_recorded_bytes(target, policy, sha256, tmp_path, monkeypatch):
    """A cold ``cache warm`` publishes exactly the recorded keys and values.

    The digests were recorded from the reducer that summed TRR over written-out
    term lists; a change to which sub-keys the reduction requests, or to any
    value, changes the file.
    """
    monkeypatch.setenv("GW_CACHE_DIR", str(tmp_path))
    k, m, d = policy
    code, _, _ = go("cache", "warm", *target, "--insertions", k, "--level", m, "--degree", d)
    assert code == 0
    (path,) = tmp_path.glob("*.jsonl")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


def test_cache_fingerprint_conflict(tmp_path, monkeypatch):
    monkeypatch.setenv("GW_CACHE_DIR", str(tmp_path))
    code, _, _ = go("cache", "warm", "--target", "P1", "--insertions", "2",
                    "--level", "1")
    assert code == 0
    # Pretend the P1 cache belongs to P2 by renaming it.
    src = tmp_path / f"{preset('P1').fingerprint}.jsonl"
    dst = tmp_path / f"{preset('P2').fingerprint}.jsonl"
    src.rename(dst)
    code, _, text = go("cache", "verify", "--target", "P2")
    assert code == 3 and "fingerprint" in text


def test_cache_poison_detected(tmp_path, monkeypatch):
    monkeypatch.setenv("GW_CACHE_DIR", str(tmp_path))
    code, _, _ = go("cache", "warm", "--target", "P1", "--insertions", "3",
                    "--level", "1", "--degree", "2")
    assert code == 0
    path = tmp_path / f"{preset('P1').fingerprint}.jsonl"
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        rec = json.loads(line)
        if rec["val"] != "0":
            rec["val"] = "999"
            lines[i] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
            break
    path.write_text("\n".join(lines) + "\n")
    code, _, text = go("cache", "verify", "--target", "P1")
    assert code == 3


def test_cache_verify_full_checks_every_entry(tmp_path, monkeypatch):
    monkeypatch.setenv("GW_CACHE_DIR", str(tmp_path))
    code, _, _ = go("cache", "warm", "--target", "P1", "--insertions", "3",
                    "--level", "1", "--degree", "2")
    assert code == 0
    path = tmp_path / f"{preset('P1').fingerprint}.jsonl"
    keys = sorted(InvariantCache.load(str(path), preset("P1").fingerprint).entries)
    victim = keys[1]  # the sample takes keys[0], keys[20], ...
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        rec = json.loads(line)
        if make_key([tuple(v) for v in rec["ins"]], tuple(rec["deg"])) == victim:
            rec["val"] = "999"
            lines[i] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    code, report, _ = go("cache", "verify", "--target", "P1")
    assert code == 0 and report.details[0]["sampled"] < len(keys)
    code, _, text = go("cache", "verify", "--target", "P1", "--full")
    assert code == 3 and "999" in text


def test_free_energy_command():
    code, report, _ = go("free-energy", "--target", "P2", "--insertions", "3",
                         "--level", "1", "--degree", "1", "--format", "structured")
    assert code == 0
    table = {d["monomial"]: d["value"] for d in report.details}
    assert table.get("t(0,3)^2 q^1") == "1/2"


def test_engine_error_exit_code(tmp_path):
    # A valid non-preset target has no shipped backend: TargetUnsupported -> 3.
    doc = json.loads(serialize_target(preset("P2")))
    doc["name"] = "custom-surface"
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(doc))
    code, report, text = go("invariant", "--target", str(path),
                            "--key", "deg=1;ins=(0,3)(0,3)")
    assert code == 3
    assert report is not None and report.outcome == "error"
    assert "TargetUnsupported" in text


def test_key_wdvv_cannot_reduce_is_engine_error(tmp_path):
    # P4: WDVV splits H^3 as H . H^2, and <H^3 H^3 H^3>_1 has a degree-0 term
    # <H H^3 O_e> leaving <pt H^2 H^3>_1, as many non-divisor insertions at
    # the same degree.  The descent guard refuses it instead of looping.
    n = 4
    doc = {"name": "P4", "classes": n + 1, "complex_dim": n, "q": list(range(n + 1)),
           "eta": [[str(int(i + j == n)) for j in range(n + 1)] for i in range(n + 1)],
           "cup": [[i + 1, j + 1, i + j + 1, "1"]
                   for i in range(n + 1) for j in range(n + 1) if i + j <= n],
           "c1_mat": [[str(5 * int(j == i + 1)) for j in range(n + 1)] for i in range(n + 1)],
           "novikov_rank": 1, "c1_deg": [5], "divisors": [[2, [1]]],
           "euler_char": 5, "c1_cdm1": "50"}
    path = tmp_path / "P4.json"
    path.write_text(json.dumps(doc))
    table = tmp_path / "seeds.jsonl"
    table.write_text('{"deg":[1],"ins":[[0,5],[0,5]],"val":"1"}\n')
    code, report, text = go("invariant", "--target", str(path), "--table", str(table),
                            "--key", "deg=1;ins=(0,4)(0,4)(0,4)")
    assert code == 3 and report.outcome == "error"
    assert "TargetUnsupported" in text and "Traceback" not in text


def test_p2_in_another_basis_named_p2_is_not_p2(tmp_path):
    # P2 in the basis 1, H, H^2/2 under the name "P2": valid, but not P2's
    # content, so it gets neither P2's seed <pt pt>_1 = 1 nor `gw nd`.  Its
    # own seed is <H^2/2 H^2/2>_1 = 1/4.
    doc = json.loads(serialize_target(preset("P2")))
    doc.update(eta=[["0", "0", "1/2"], ["0", "1", "0"], ["1/2", "0", "0"]],
               cup=[[1, 1, 1, "1"], [1, 2, 2, "1"], [1, 3, 3, "1"], [2, 1, 2, "1"],
                    [2, 2, 3, "2"], [3, 1, 3, "1"]],
               c1_mat=[["0", "3", "0"], ["0", "0", "6"], ["0", "0", "0"]])
    assert doc["name"] == "P2"
    path = tmp_path / "P2.json"
    path.write_text(json.dumps(doc))
    load_target(path.read_text())  # validates
    code, report, text = go("invariant", "--target", str(path), "--key", "deg=1;ins=(0,3)(0,3)")
    assert code == 3 and report.outcome == "error" and "TargetUnsupported" in text
    assert go("nd", "--target", str(path), "--max", "3")[0] == 2
    table = tmp_path / "seed.jsonl"
    table.write_text('{"deg":[1],"ins":[[0,3],[0,3]],"val":"1/4"}\n')
    code, report, _ = go("invariant", "--target", str(path), "--table", str(table),
                         "--key", "deg=2;ins=" + "(0,3)" * 5)
    assert code == 0 and report.details[0]["value"] == "1/32"


def test_table_backend_ingestion(tmp_path):
    doc = json.loads(serialize_target(preset("P2")))
    doc["name"] = "custom-surface"
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(doc))
    table = tmp_path / "table.jsonl"
    table.write_text('{"ins":[[0,3],[0,3]],"deg":[1],"val":"1"}\n')
    code, report, _ = go("invariant", "--target", str(path), "--table", str(table),
                         "--key", "deg=1;ins=(0,3)(0,3)")
    assert code == 0 and report.details[0]["value"] == "1"


@pytest.mark.parametrize("seed, slot", [
    ('{"deg":[1],"ins":[[0,9],[0,3]],"val":"7"}', "VarId(level=0, cls=9)"),  # a class P2 lacks
    ('{"deg":[1],"ins":[[0,2],[0,3]],"val":"7"}', "VarId(level=0, cls=2)"),  # weight 1, not 2
])
def test_table_seed_off_the_target_is_usage_error(tmp_path, seed, slot):
    # A seed the target cannot have would never be asked for: refused, not kept.
    table = tmp_path / "t.jsonl"
    table.write_text(seed + "\n")
    code, report, text = go("invariant", "--target", "P2", "--table", str(table),
                            "--key", "deg=1;ins=(0,3)(0,3)")
    assert code == 2 and report is None
    assert f"table file {table} " in text
    assert slot in text and "degree=(1,)" in text and "Traceback" not in text


def test_psi_families_flag():
    code, report, _ = go("psi", "--target", "P1", "--n", "1", "--insertions", "3",
                         "--level", "2", "--degree", "1", "--families",
                         "--format", "structured")
    assert code == 0
    assert {"shift_relations": "hold"} in report.details


def test_negative_policy_bound_is_usage_error():
    code, report, text = go("psi", "--target", "P2", "--n", "1", "--insertions", "-1")
    assert code == 2 and report is None and "policy bounds" in text


_HUGE = "1" + "0" * 5000  # more digits than int converts


@pytest.mark.parametrize("argv", [
    # Arabic-Indic digits: int() reads each as its ASCII digit.
    ("invariant", "--target", "P2", "--key", "deg=1;ins=(٣,3)(0,3)"),
    ("invariant", "--target", "P2", "--key", "deg=1;ins=(0,٣)(0,3)"),
    ("invariant", "--target", "P2", "--key", "deg=١;ins=(0,3)(0,3)"),
    ("invariant", "--target", "P2", "--key", "deg=1;ins=(0,3)(0,3)", "--degree", "٢"),
    ("psi", "--target", "P1xP1", "--n", "1", "--degree", "1,٢"),
    ("psi", "--target", "P2", "--n", "١"),
    ("psi", "--target", "P2", "--n", "1", "--level", "٢"),
    ("psi", "--target", "P2", "--n", "1", "--insertions", "٣"),
    ("psi-tilde", "--target", "P2", "--n", "١"),
    ("nd", "--target", "P2", "--max", "٢"),
    ("commutator", "--target", "P2", "--m", "١", "--n", "1", "--level", "4"),
    # What int() also reads: spaces and underscores.
    ("psi", "--target", "P2", "--n", " 1"),
    ("psi", "--target", "P2", "--n", "1", "--degree", "1_0"),
    # What int() raises on: an empty degree part and too many digits.
    ("invariant", "--target", "P2", "--key", "deg=1,;ins=(0,3)(0,3)"),
    ("invariant", "--target", "P2", "--key", f"deg=1;ins=({_HUGE},3)"),
    ("psi", "--target", "P2", "--n", "1", "--degree", _HUGE),
    ("psi", "--target", "P2", "--n", _HUGE),
])
def test_integers_are_ascii_digits_only(argv):
    """Every integer in a key or a flag is ASCII digits with an optional sign."""
    argv = tuple(str(Path(__file__).parent / "data" / "P1xP1.json") if a == "P1xP1" else a
                 for a in argv)
    code, report, text = go(*argv)
    assert code == 2 and report is None and text.startswith("error: "), text
    assert "Traceback" not in text and len(text) < 300


@pytest.mark.parametrize("command, n, defined", [
    ("psi", "0", "n >= 1"), ("psi", "-1", "n >= 1"),
    ("psi-tilde", "0", "n in {1, 2}"), ("psi-tilde", "3", "n in {1, 2}"),
])
def test_index_outside_the_command_is_usage_error(command, n, defined, tmp_path, monkeypatch):
    """An n the command does not define is refused before the engine is built."""
    # The cache is read when the engine is built: a corrupt one would exit 3.
    monkeypatch.setenv("GW_CACHE_DIR", str(tmp_path))
    (tmp_path / f"{preset('P2').fingerprint}.jsonl").write_text("not json\n")
    code, report, text = go(command, "--target", "P2", "--n", n)
    assert code == 2 and report is None
    assert f"{command} is defined for {defined}, not n = {n}" in text


@pytest.mark.parametrize("name", [{"a": 1}, ["P2"], 2, None, True])
def test_target_name_must_be_a_string(name, tmp_path):
    doc = json.loads(serialize_target(preset("P2")))
    doc["name"] = name
    path = tmp_path / "named.json"
    path.write_text(json.dumps(doc))
    code, report, text = go("targets", "validate", "--target", str(path))
    assert code == 2 and report is None
    assert f"name must be a string, not {json.dumps(name)}" in text


def test_corrupt_cache_header_is_engine_error(tmp_path, monkeypatch):
    monkeypatch.setenv("GW_CACHE_DIR", str(tmp_path))
    (tmp_path / f"{preset('P1').fingerprint}.jsonl").write_text("{not json\n")
    code, report, text = go("invariant", "--target", "P1", "--key", "deg=1;ins=(0,2)(0,2)")
    assert code == 3 and report.outcome == "error"
    assert report.details[0]["error"] == "CacheMismatch"


# A line too deeply nested for the JSON decoder to descend: 100,000 brackets.
DEEP = "[" * 100_000 + "\n"


def test_deeply_nested_cache_header_is_engine_error(tmp_path, monkeypatch):
    monkeypatch.setenv("GW_CACHE_DIR", str(tmp_path))
    (tmp_path / f"{preset('P1').fingerprint}.jsonl").write_text(DEEP)
    code, report, _ = go("invariant", "--target", "P1", "--key", "deg=1;ins=(0,2)(0,2)")
    assert code == 3 and report.details[0]["error"] == "CacheMismatch"


def test_deeply_nested_cache_record_is_engine_error(tmp_path, monkeypatch):
    monkeypatch.setenv("GW_CACHE_DIR", str(tmp_path))
    (tmp_path / f"{preset('P1').fingerprint}.jsonl").write_text(
        '{"fingerprint": "%s"}\n' % preset("P1").fingerprint + DEEP)
    code, report, _ = go("invariant", "--target", "P1", "--key", "deg=1;ins=(0,2)(0,2)")
    assert code == 3 and report.details[0]["error"] == "CacheMismatch"


def test_deeply_nested_table_line_is_usage_error(tmp_path):
    table = tmp_path / "table.jsonl"
    table.write_text('{"deg":[1],"ins":[[0,2],[0,2]],"val":"1"}\n' + DEEP)
    code, report, text = go("invariant", "--target", "P1", "--table", str(table),
                            "--key", "deg=1;ins=(0,2)(0,2)")
    assert code == 2 and report is None and "table file" in text


def test_deeply_nested_target_file_is_usage_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(DEEP)
    code, report, text = go("targets", "validate", "--target", str(path))
    assert code == 2 and report is None and "not valid JSON" in text


@pytest.mark.parametrize("val", [r"\u0661", r"1\n"])
def test_cache_value_outside_wire_format_is_engine_error(tmp_path, monkeypatch, val):
    # A JSON escape that decodes to a non-ASCII digit or a trailing newline is
    # no p/q literal, though int() would read it.
    monkeypatch.setenv("GW_CACHE_DIR", str(tmp_path))
    (tmp_path / f"{preset('P1').fingerprint}.jsonl").write_text(
        '{"fingerprint": "%s"}\n{"deg":[1],"ins":[[0,2],[0,2]],"val":"%s"}\n'
        % (preset("P1").fingerprint, val))
    code, report, _ = go("invariant", "--target", "P1", "--key", "deg=1;ins=(0,2)(0,2)")
    assert code == 3 and report.details[0]["error"] == "CacheMismatch"


def test_non_json_table_is_usage_error(tmp_path):
    table = tmp_path / "table.jsonl"
    table.write_text("deg=1 ins=(0,3)(0,3) val=1\n")
    code, report, text = go("invariant", "--target", "P2", "--table", str(table),
                            "--key", "deg=1;ins=(0,3)(0,3)")
    assert code == 2 and report is None and "table file" in text


def test_cache_with_inadmissible_key_is_engine_error(tmp_path, monkeypatch):
    monkeypatch.setenv("GW_CACHE_DIR", str(tmp_path))
    path = tmp_path / f"{preset('P1').fingerprint}.jsonl"
    path.write_text('{"fingerprint": "%s"}\n{"deg":[2],"ins":[[0,2]],"val":"5"}\n'
                    % preset("P1").fingerprint)
    code, report, _ = go("invariant", "--target", "P1", "--key", "deg=2;ins=(0,2)")
    assert code == 3 and report.details[0]["error"] == "CacheMismatch"


def test_repeated_key_in_cache_or_table_is_refused(tmp_path, monkeypatch):
    # save never writes a key twice, so a repeat is a corrupt file, not an update.
    records = ('{"deg":[1],"ins":[[0,2],[0,2]],"val":"1"}\n'
               '{"deg":[1],"ins":[[0,2],[0,2]],"val":"5"}\n')
    monkeypatch.setenv("GW_CACHE_DIR", str(tmp_path))
    path = tmp_path / f"{preset('P1').fingerprint}.jsonl"
    path.write_text('{"fingerprint": "%s"}\n' % preset("P1").fingerprint + records)
    code, report, _ = go("invariant", "--target", "P1", "--key", "deg=1;ins=(0,2)(0,2)")
    assert code == 3 and report.details[0]["error"] == "CacheMismatch"
    path.unlink()
    table = tmp_path / "table.jsonl"
    table.write_text(records)
    code, report, text = go("invariant", "--target", "P1", "--table", str(table),
                            "--key", "deg=1;ins=(0,2)(0,2)")
    assert code == 2 and report is None and "twice" in text


def test_deep_descendent_key_has_no_recursion_limit():
    code, report, _ = go("invariant", "--target", "P1", "--key", "deg=150;ins=(298,2)")
    assert code == 0
    assert report.details[0]["value"] == format_rational(
        Fraction(1, math.factorial(150) ** 2))


def test_main_keeps_the_verdict_when_the_reader_closes_early(tmp_path):
    """``gw ... | head -1``: exit 0 for a pass and nothing on stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(gwvir.__file__).resolve().parents[1]),
           "GW_CACHE_DIR": str(tmp_path)}
    # About 240 kB of text, more than a pipe holds, so writes meet the closed pipe.
    argv = ["free-energy", "--target", "P2", "--insertions", "6", "--level", "4", "--degree", "3"]
    proc = subprocess.Popen([sys.executable, "-m", "gwvir.cli", *argv], cwd=tmp_path, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"free-energy: pass\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
    finally:
        proc.kill()
        proc.wait()
    assert b"Traceback" not in stderr
    assert stderr == b""


# --- help, and one subcommand's parser --------------------------------------------

SUBCOMMANDS = ("targets", "invariant", "nd", "free-energy", "psi", "psi-tilde",
               "commutator", "central-condition", "identities", "cache")


def _with_full_parser(argv):
    """``go`` with the parser of every subcommand, whatever argv[0] names."""
    build = cli._build_parser
    with mock.patch.object(cli, "_build_parser", lambda cmd: build(None)):
        return go(*argv)


@pytest.mark.parametrize("argv", [("--help",), ("-h",)] + [(c, "--help") for c in SUBCOMMANDS])
def test_help_is_written_to_out_and_returned(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, report, text = go(*argv)
    assert (code, report) == (0, None)
    assert text.startswith("usage: gw" + (f" {argv[0]}" if argv[0] in SUBCOMMANDS else ""))
    assert capsys.readouterr() == ("", "")
    assert _with_full_parser(argv) == (0, None, text)


def test_main_prints_help_and_exits_zero(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "PYTHONPATH": str(Path(gwvir.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "gwvir.cli", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, go("--help")[2], "")


@pytest.mark.parametrize("argv", [(), ("bogus",), ("--format", "text", "psi"),
                                  ("psi", "--bogus"), ("psi", "--target", "P2")])
def test_usage_errors_match_the_full_parser(argv):
    code, report, text = go(*argv)
    assert code == 2 and report is None and text.startswith("error: ")
    assert _with_full_parser(argv) == (code, report, text)


# --- the cyclic collector is paused for a command ----------------------------------


def _exit_paths(tmp_path):
    """(exit code, argv) for each code ``run`` returns, and ``-h``; files go under tmp_path."""
    doc = json.loads(serialize_target(preset("P2")))
    doc["euler_char"] = 99  # L_0's constant is off, so [L_-1, L_1] = -2 L_0 fails
    off = tmp_path / "P2c.json"
    off.write_text(json.dumps(doc), encoding="utf-8")
    (tmp_path / f"{preset('P1').fingerprint}.jsonl").write_text("{not json\n")
    return [(0, ("central-condition", "--target", "P2")),
            (1, ("commutator", "--target", str(off), "--m", "-1", "--n", "1",
                 "--level", "4", "--degree", "0")),
            (2, ("psi", "--target", "P2", "--n", "0")),
            (3, ("invariant", "--target", "P1", "--key", "deg=1;ins=(0,2)(0,2)")),
            (0, ("-h",))]


@pytest.mark.parametrize("enabled", [True, False])
def test_run_pauses_the_collector_and_leaves_it_as_it_found_it(enabled, tmp_path, monkeypatch):
    """Off during the command; after it, on or off as before, on every way out."""
    monkeypatch.setenv("GW_CACHE_DIR", str(tmp_path))
    seen = []

    def crash(args):
        seen.append(gc.isenabled())
        raise RuntimeError("a handler that crashes")

    was_enabled = gc.isenabled()
    try:
        for code, argv in _exit_paths(tmp_path):
            gc.enable() if enabled else gc.disable()
            assert go(*argv)[0] == code and gc.isenabled() is enabled, argv
        gc.enable() if enabled else gc.disable()
        with mock.patch.object(cli, "_cmd_central", crash), pytest.raises(RuntimeError):
            go("central-condition", "--target", "P2")
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert seen == [False]


def test_cyclic_garbage_of_a_command_does_not_grow_with_the_policy(tmp_path, monkeypatch):
    """Keys, the monomial index and series hold no reference cycles.

    With the collector paused for a command, a cycle made per key or per
    term would pile up until the next collection; the cycles a command
    leaves (its argument parser's) are as many at K=4 as at K=2.  The
    collector stays off from the command to the count, or the first
    allocation after ``run`` could collect them.
    """
    monkeypatch.setenv("GW_CACHE_DIR", str(tmp_path))

    def garbage(k, m, d):
        gc.disable()
        try:
            code, _, _ = go("identities", "--target", "P2", "--all", "--insertions", str(k),
                            "--level", str(m), "--degree", str(d))
            assert code == 0
            return gc.collect()
        finally:
            gc.enable()

    garbage(2, 1, 1)  # warm-up: first-use tables of the target and the modules
    small = garbage(2, 1, 1)
    assert garbage(4, 3, 2) <= small


# --- the CLI contract, property-tested ---------------------------------------------

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the property test below is skipped
    st = None

if st is not None:
    _DATA = Path(__file__).parent / "data"
    _TARGETS = ["point", "P1", "P2", str(_DATA / "P3.json")]

    def _values(valid, refused):
        """Mostly ``valid`` values; one draw in eight is one the CLI refuses."""
        return st.integers(0, 7).flatmap(lambda i: st.sampled_from(refused if i == 0 else valid))

    # Tiny policies (K <= 2, M <= 1, D <= 1) mixed with values the CLI refuses.
    _K = _values(["0", "1", "2"], ["-1", "x", "٢"])
    _M = _values(["0", "1"], ["-1", "1.0"])
    _D = _values(["0", "1"], ["1,1", "", "-1"])
    _N = _values(["1", "2"], ["-1", "0", "3", "x"])
    _MN = _values(["-1", "0"], ["-2", "1", "x"])
    _KEYS = _values(["deg=1;ins=(0,3)(0,3)", "deg=1;ins=(0,3)", "deg=0;ins=(0,2)(0,2)(0,3)",
                     "deg=;ins=(0,1)(0,1)(0,1)"],
                    ["deg=1;ins=(0,9)", "deg=1;ins=(0,3", "deg=1,;ins="])
    _TAGS = _values(["StringEq", "TRR,QF1", "DilatonCorr2"], ["Bogus", "", "StringEq,Bogus"])

    def _pair(flag, values):
        return st.tuples(st.just(flag), values).map(list)

    def _flag(flag):
        return st.just([flag])

    _POLICY = [_pair("--insertions", _K), _pair("--level", _M), _pair("--degree", _D)]
    # Per subcommand: its positionals, then option groups that may come in any order.
    _GRAMMAR = {
        "targets": ([_values(["list", "show", "validate"], ["bogus"])], []),
        "invariant": ([], [*_POLICY, _pair("--key", _KEYS)]),
        "nd": ([], [_pair("--max", _values(["1", "2"], ["0", "x"]))]),
        "free-energy": ([], _POLICY),
        "psi": ([], [*_POLICY, _pair("--n", _N), _flag("--families")]),
        "psi-tilde": ([], [*_POLICY, _pair("--n", _N)]),
        "commutator": ([], [*_POLICY, _pair("--m", _MN), _pair("--n", _MN)]),
        "central-condition": ([], []),
        "identities": ([], [*_POLICY, _pair("--tags", _TAGS), _flag("--all")]),
        "cache": ([_values(["warm", "verify", "clear"], ["bogus"])],
                  [*_POLICY, _flag("--full")]),
    }

    @st.composite
    def _argvs(draw):
        cmd = draw(st.sampled_from(SUBCOMMANDS))
        positionals, options = _GRAMMAR[cmd]
        # (in how many draws of ten the group comes, the group); a required
        # option is left out now and then too.
        groups = [(9, _pair("--target", _values(_TARGETS, ["nowhere.json"]))),
                  (5, _pair("--format", _values(["text", "structured"], ["json"]))),
                  (1, _pair("--table", st.just(str(_DATA / "P3_seeds.jsonl")))),
                  (1, _flag("--bogus")), (1, _flag("-h")), *((9, g) for g in options)]
        chosen = draw(st.permutations([draw(g) for tenths, g in groups
                                       if draw(st.integers(0, 9)) < tenths]))
        return [cmd, *(draw(p) for p in positionals), *(a for g in chosen for a in g)]

    def _format(argv):
        at = max((i for i, a in enumerate(argv) if a == "--format"), default=None)
        return "text" if at is None else argv[at + 1]

    def _no_clock(result):
        code, report, text = result
        return code, re.sub(r'"wall_time_ms": [0-9]+', "", text)

    @settings(deadline=None, database=None)
    @given(_argvs())
    def test_cli_contract_on_drawn_arguments(argv):
        """Every drawn argument list ends in a documented exit code, alike under both parsers."""
        with tempfile.TemporaryDirectory() as tmp:
            cache = os.path.join(tmp, "cache")
            with mock.patch.dict(os.environ, {"GW_CACHE_DIR": cache}):
                one = go(*argv)
                shutil.rmtree(cache, ignore_errors=True)
                full = _with_full_parser(argv)
        code, report, text = one
        assert code in (0, 1, 2, 3), (argv, code)
        if report is None:
            assert code == 2 and text.startswith("error: ") or code == 0 and "-h" in argv
        else:
            assert code == {"pass": 0, "fail": 1, "error": 3}[report.outcome], (argv, text)
            if _format(argv) == "structured":
                assert json.loads(text) == report.to_dict()
        assert "Traceback" not in text
        assert _no_clock(one) == _no_clock(full), argv
        assert gc.isenabled()

    # --- the same contract over target files: mutations of the shipped ones --------

    _DOCS = {name: json.loads((_DATA / f"{name}.json").read_text(encoding="utf-8"))
             for name in ("P3", "P1xP1")}
    # Raw JSON put where a value was: an integer Python will not convert
    # (more than 4,300 digits), and nesting too deep for the decoder.
    _RAW = {"huge": "1" + "0" * 4400, "deep": "[" * 100_000 + "]" * 100_000}
    _PLACEHOLDER = "@raw@"

    def _paths(value, at=()):
        """The path of every value inside ``value``, containers and scalars alike."""
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, child in items:
            yield at + (key,)
            if isinstance(child, (dict, list)):
                yield from _paths(child, at + (key,))

    def _get(doc, path):
        for key in path:
            doc = doc[key]
        return doc

    def _put(doc, path, value):
        _get(doc, path[:-1])[path[-1]] = value

    def _non_ascii(value):
        """``value``'s text with each ASCII digit an Arabic-Indic one (a JSON string)."""
        return str(value).translate({ord("0") + i: 0x660 + i for i in range(10)})

    @st.composite
    def _mutated_targets(draw):
        """(name, target file text): a shipped target with one mutation, or none."""
        name = draw(st.sampled_from(sorted(_DOCS)))
        doc = json.loads(json.dumps(_DOCS[name]))
        kind = draw(st.sampled_from(["none", "drop", "retype", "shape", "asymmetric",
                                     "non-ascii", "huge", "deep"]))
        paths = list(_paths(doc))
        if kind == "drop":
            del doc[draw(st.sampled_from(sorted(doc)))]
        elif kind == "retype":
            # A value of another JSON type, none of which reads as a number.
            path = draw(st.sampled_from(paths))
            old = _get(doc, path)
            _put(doc, path, draw(st.sampled_from(
                [v for v in (None, True, "x", [], {}) if type(v) is not type(old)])))
        elif kind == "shape":
            rows = doc[draw(st.sampled_from(["eta", "c1_mat"]))]
            row = draw(st.integers(0, len(rows) - 1))
            change = draw(st.sampled_from(["drop row", "add row", "drop entry", "add entry"]))
            if change == "drop row":
                del rows[row]
            elif change == "add row":
                rows.append(list(rows[row]))
            elif change == "drop entry":
                del rows[row][-1]
            else:
                rows[row].append("0")
        elif kind == "asymmetric":
            i, j = draw(st.sampled_from([(i, j) for i in range(4) for j in range(4) if i != j]))
            doc["eta"][i][j] = "5"
        elif kind == "non-ascii":
            path = draw(st.sampled_from([p for p in paths if re.search(
                "[0-9]", str(_get(doc, p))) and not isinstance(_get(doc, p), (dict, list))]))
            _put(doc, path, _non_ascii(_get(doc, path)))
        elif kind in _RAW:
            _put(doc, draw(st.sampled_from(paths)), _PLACEHOLDER)
            return name, json.dumps(doc, indent=1).replace(json.dumps(_PLACEHOLDER), _RAW[kind])
        return name, json.dumps(doc, indent=1)

    _TARGET_COMMANDS = st.sampled_from([
        ["targets", "validate"], ["targets", "show"],
        ["invariant", "--key", "deg=1;ins=(0,4)(0,4)"], ["invariant", "--key", "deg=1,0;ins=(0,4)"],
        ["psi", "--n", "1"]])

    @settings(deadline=None, database=None)
    @given(_mutated_targets(), _TARGET_COMMANDS, st.integers(0, 2),
           st.sampled_from(["text", "structured"]))
    def test_cli_contract_on_drawn_target_files(target, command, k, fmt):
        """A mutated target file ends in exit 0, 2 or 3, never 1 and never a traceback."""
        name, text = target
        argv = [*command, "--format", fmt]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "target.json"
            path.write_text(text, encoding="utf-8")
            argv += ["--target", str(path)]
            if command[0] != "targets":
                argv += ["--insertions", str(k), "--level", "1", "--degree", "1"]
                if name == "P1xP1":
                    argv += ["--table", str(_DATA / "P1xP1_seeds.jsonl")]
            with mock.patch.dict(os.environ, {"GW_CACHE_DIR": os.path.join(tmp, "cache")}):
                code, report, out = go(*argv)
        assert code in (0, 2, 3), (argv, out)
        if report is None:
            assert code == 2 and out.startswith("error: "), out
        else:
            assert code == {"pass": 0, "error": 3}[report.outcome], out
            if fmt == "structured":
                assert json.loads(out) == report.to_dict()
        assert "Traceback" not in out
        assert gc.isenabled()
else:
    def test_cli_contract_on_drawn_arguments():
        pytest.skip("hypothesis is not installed")

    def test_cli_contract_on_drawn_target_files():
        pytest.skip("hypothesis is not installed")

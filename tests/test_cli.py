from __future__ import annotations

import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gwvir
from gwvir.cli import parse_key, run
from gwvir.engine import InvariantCache, make_key
from gwvir.errors import ParseError
from gwvir.rationals import format_rational
from gwvir.target import preset, serialize_target


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

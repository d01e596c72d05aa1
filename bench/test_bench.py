"""Tests of the benchmark itself, at small policies so they finish in seconds.

Run from the repository root: ``python3 -m pytest bench``.  They are kept out
of the tier-1 suite, which collects ``tests/`` only.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

import run  # imports gwvir from this checkout's src/
import spans
import speed
import workloads
from gwvir import cli
from gwvir.engine import make_key
from gwvir.series import TruncatedSeries

SMALL_TAGS = {"HoriL0": 1, "XXCorr": 6, "GenWDVV": 1296, "PsiClosedForm1": 40,
              "L1L0Corr": 6}


def small_registry():
    return workloads.Registry(policy=(3, 2, 1), expected_tuples=dict(SMALL_TAGS))


def small_constraints():
    return workloads.ConstraintsWarm(policy=(3, 2, 1))


def small_invariants():
    return workloads.Invariants(policy=(3, 2, 1), expected_keys=None)


@pytest.fixture(autouse=True)
def private_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("GW_CACHE_DIR", str(tmp_path))
    return tmp_path


def _traced(workload, state):
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        outcome = workload.run_pass(state)
    return tracer, outcome


def _details(outcome) -> list[str]:
    """Structured reports of a CLI workload's pass, without wall times."""
    results = outcome if isinstance(outcome, list) else [outcome]
    out = []
    for code, report, error in results:
        doc = report.to_dict()
        del doc["wall_time_ms"]
        out.append(json.dumps([code, error, doc], sort_keys=True))
    return out


# --- spans ----------------------------------------------------------------------


def test_self_times_on_synthetic_tree():
    # root [0,10] > a [1,4] > c [2,3];  root > b [5,9] > d [5,6], e [7,8.5]
    names = ["root", "a", "b", "leaf"]
    name = [0, 1, 3, 2, 3, 3]
    start = [0.0, 1.0, 2.0, 5.0, 5.0, 7.0]
    end = [10.0, 4.0, 3.0, 9.0, 6.0, 8.5]
    parent = [-1, 0, 1, 0, 3, 3]
    got = dict(zip(names, spans.self_times(name, start, end, parent, len(names))))
    assert got == {"root": 3.0, "a": 2.0, "b": 1.5, "leaf": 3.5}


def test_self_times_counts_overlapping_children_once():
    got = spans.self_times([0, 1, 1], [0.0, 1.0, 3.0], [10.0, 5.0, 7.0], [-1, 0, 0], 2)
    assert got == [4.0, 8.0]


def test_tracer_records_nesting_and_jobs():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer", job="j1"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner", job="j2"):
            pass
    assert tracer.self_seconds() == {"outer": 3.0, "inner": 2.0}
    assert list(tracer.parent) == [-1, 0, 0]
    assert [tracer.jobs[j] for j in tracer.job_of] == ["j1", "j1", "j2"]
    assert tracer.job == 0


def test_instrument_restores_every_binding():
    from gwvir import engine, identities, series, virasoro
    before = {
        "invariant": engine.Engine.invariant,
        "load": engine.InvariantCache.__dict__["load"],
        "add": TruncatedSeries.__add__,
        "mul": (series.series_mul, virasoro.series_mul, identities.series_mul),
        "derive": (series.series_derive, virasoro.series_derive),
        "apply": (virasoro.apply_operator, identities.apply_operator),
        "run": cli.run,
    }
    with spans.instrument(spans.Tracer()):
        assert identities.series_mul is not before["mul"][2]
        assert virasoro.series_derive is not before["derive"][1]
        assert identities.apply_operator is not before["apply"][1]
    after = {
        "invariant": engine.Engine.invariant,
        "load": engine.InvariantCache.__dict__["load"],
        "add": TruncatedSeries.__add__,
        "mul": (series.series_mul, virasoro.series_mul, identities.series_mul),
        "derive": (series.series_derive, virasoro.series_derive),
        "apply": (virasoro.apply_operator, identities.apply_operator),
        "run": cli.run,
    }
    assert after == before


# --- speed probe ----------------------------------------------------------------


def test_rescale_weights_each_probe_equally():
    ref = speed.REFERENCE_S
    # Half the interval at the reference speed, half twice as fast: 2 s of
    # wall time did 1 + 2 = 3 s of reference work.
    assert speed.rescale(2.0, [ref, ref / 2]) == pytest.approx(3.0)
    assert speed.rescale(2.0, [ref * 2] * 5) == pytest.approx(1.0)
    assert speed.rescale(2.0, []) == 2.0


def test_probe_samples_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(interval_s=0.002) as probe:
        mark = probe.mark()
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
        elapsed = probe.since(mark)
    assert elapsed.probes >= 5
    assert 0 < elapsed.raw_s < 0.1 + 0.05 and elapsed.ref_s > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# --- tracing does not change answers --------------------------------------------


@pytest.mark.parametrize("make", [small_registry, small_constraints])
def test_traced_details_match_untraced(make):
    workload = make()
    state = workload.prepare(1)
    plain = _details(workload.run_pass(state))
    tracer, outcome = _traced(workload, state)
    assert _details(outcome) == plain
    assert tracer.counts["series.mul.calls"] > 0
    assert workload.check(state, outcome)[1] == 0


def test_traced_invariants_match_untraced():
    workload = small_invariants()
    state = workload.prepare(1)
    keys, cold, warm = workload.run_pass(state)[0][:3]
    tracer, outcome = _traced(workload, state)
    assert outcome[0][:3] == (keys, cold, warm)
    assert tracer.counts["engine.invariant.misses"] == len(outcome[0][3])
    assert workload.check(state, outcome)[1] == 0


# --- seeds permute requests, never the work -------------------------------------


@pytest.mark.parametrize("make", [small_registry, small_constraints, small_invariants])
def test_seeds_give_same_verdicts_and_counts(make):
    results = []
    for seed in (1, 2):
        workload = make()
        state = workload.prepare(seed)
        tracer, outcome = _traced(workload, state)
        attempted, failed, verdicts = workload.check(state, outcome)
        assert failed == 0
        results.append((attempted, verdicts, dict(tracer.counts)))
    assert results[0] == results[1]


def test_constraints_warm_reads_only_hits():
    workload = small_constraints()
    state = workload.prepare(3)
    tracer, outcome = _traced(workload, state)
    assert tracer.counts["engine.invariant.misses"] == 0
    assert tracer.counts["engine.invariant.calls"] > 0


# --- the gate can fail ----------------------------------------------------------


def test_poisoned_warm_cache_fails_the_gate():
    workload = small_constraints()
    state = workload.prepare(1)
    assert workload.check(state, workload.run_pass(state))[1] == 0
    # Criterion 9c's string-determined entry, not the Novikov-gauge value N_1.
    target = cli.parse_key("deg=1;ins=(1,1)(0,3)(0,3)", 1)
    path = workload.cache_file()
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    poisoned = 0
    for i, line in enumerate(lines[1:], start=1):
        rec = json.loads(line)
        if make_key(rec["ins"], rec["deg"]) == target:
            rec["val"] = "7"
            lines[i] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
            poisoned += 1
    assert poisoned == 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    attempted, failed, _ = workload.check(state, workload.run_pass(state))
    assert attempted == 4 and failed > 0


def test_wrong_invariant_fails_the_string_equation():
    workload = small_invariants()
    state = workload.prepare(1)
    outcome = workload.run_pass(state)
    keys, cold, warm, entries, warm_engine = outcome[0]
    unit = (0, 1)
    i = next(i for i, k in enumerate(keys)
             if unit in k.insertions and any(k.degree) and cold[i])
    # The same wrong value everywhere, so only the string equation can see it.
    wrong = cold[i] + 1
    cold[i] = warm[i] = entries[keys[i]] = warm_engine.cache.entries[keys[i]] = wrong
    attempted, failed, verdicts = workload.check(state, outcome)
    assert (str(keys[i]), False) in verdicts


# --- the contract ---------------------------------------------------------------


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_run_fails_without_gwvir_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "registry", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

"""The benchmark's three workloads, each with its set-up, timed pass and gate.

A workload is a class with three steps:

* ``prepare(seed)`` builds everything the timed pass needs (set-up);
* ``run_pass(state)`` is the timed phase; it returns raw outputs and never
  raises for a failure of gwvir, which it hands on as an outcome;
* ``check(state, outcome)`` is the correctness gate, run outside the timed
  phase; it returns ``(attempted, failed, verdicts)`` where a job is a tag, a
  command or a key and ``verdicts`` is a sorted list a test can compare.

The seed only permutes the order of requests (tags, commands or keys); it never
changes which work is done.  gwvir is called only through ``gwvir.cli.run``,
``Engine``, ``InvariantCache`` and the ``gwvir.virasoro`` functions; the
invariants gate also uses the exposed ``string_reduce`` and ``dilaton_reduce``.
"""

from __future__ import annotations

import io
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from gwvir import cli, virasoro
from gwvir.engine import Engine, InvariantCache, dilaton_reduce, string_reduce
from gwvir.errors import NotApplicable
from gwvir.series import TruncationPolicy, VarId
from gwvir.target import preset

TARGET = "P2"

# Tuples each registry tag checks on P2 at M=2 (2,156 in all); K and D do not
# change them.
REGISTRY_TUPLES = {
    "StringEq": 1, "StringCorr1": 1, "StringCorr2": 6, "StringCorr3": 36,
    "DilatonCorr1": 1, "DilatonCorr2": 6, "DilatonCorr3": 36, "QuasiHomog": 1,
    "EulerCorr1": 1, "EulerCorr2": 6, "EulerCorr3": 36, "HoriL0": 1,
    "TRR": 108, "GenWDVV": 1296, "FRR": 36, "StringRec": 36,
    "SWDVV": 72, "XXCorr": 6, "QF1": 36, "QF2": 36,
    "WDVVRight": 36, "L1Corr": 36, "L1L0Corr": 6, "QuadRel_i": 36,
    "QuadRel_ii": 36, "QuadRel_iii": 36, "QuadForm": 36, "Tilde1Corr": 42,
    "TildeQuadForm": 36, "PsiClosedForm1": 40, "PsiClosedForm2": 58,
}


def _cache_dir() -> str:
    """The run's private cache directory; ``gw`` reads the same variable."""
    return os.environ["GW_CACHE_DIR"]


def _policy_args(k: int, m: int, d: int) -> list[str]:
    return ["--insertions", str(k), "--level", str(m), "--degree", str(d)]


def _call_cli(argv: list[str]):
    """(exit code, report, exception) of one ``gw`` command."""
    try:
        code, report = cli.run(argv, out=io.StringIO())
    except Exception as exc:  # a crash is a failed job, not a crashed benchmark
        return None, None, f"{type(exc).__name__}: {exc}"
    return code, report, None


@dataclass
class Registry:
    """``gw identities`` on P2, every registry tag, through ``cli.run``."""

    name = "registry"
    policy: tuple[int, int, int] = (3, 2, 1)
    expected_tuples: dict = field(default_factory=lambda: dict(REGISTRY_TUPLES))

    def prepare(self, seed: int):
        tags = sorted(self.expected_tuples)
        random.Random(seed).shuffle(tags)
        return ["identities", "--target", TARGET, *_policy_args(*self.policy),
                "--tags", ",".join(tags), "--format", "structured"]

    def run_pass(self, argv):
        return _call_cli(argv)

    def check(self, argv, outcome):
        code, report, error = outcome
        tags = argv[argv.index("--tags") + 1].split(",")
        entries = {} if report is None else {d.get("identity"): d for d in report.details}
        verdicts = []
        for tag in tags:
            entry = entries.get(tag)
            ok = (error is None and entry is not None and entry["failures"] == 0
                  and entry["tuples"] == self.expected_tuples[tag])
            verdicts.append((tag, ok, None if entry is None else entry["tuples"]))
        if code != cli.EXIT_PASS and all(ok for _, ok, _ in verdicts):
            verdicts = [(tag, False, n) for tag, _, n in verdicts]
        verdicts.sort()
        return len(tags), sum(not ok for _, ok, _ in verdicts), verdicts


@dataclass
class ConstraintsWarm:
    """``gw psi`` and ``gw psi-tilde`` for n = 1, 2 on P2, all from a warm cache."""

    name = "constraints_warm"
    policy: tuple[int, int, int] = (4, 4, 3)

    def cache_file(self) -> str:
        """Where ``gw`` looks for this target's cache: one file per fingerprint."""
        return os.path.join(_cache_dir(), preset(TARGET).fingerprint + ".jsonl")

    def prepare(self, seed: int):
        jobs = [("psi", 1), ("psi", 2), ("psi-tilde", 1), ("psi-tilde", 2)]
        random.Random(seed).shuffle(jobs)
        # Cold pass of the same jobs with the code under test; its cache
        # becomes the warm cache every timed command reads.
        k, m, d = self.policy
        engine = Engine(preset(TARGET))
        policy = TruncationPolicy(k, m, (d,) * engine.ts.novikov_rank)
        for command, n in jobs:
            residual = {"psi": virasoro.psi, "psi-tilde": virasoro.psi_tilde}[command]
            residual(engine, n, policy)
        engine.cache.save(self.cache_file())
        return [[command, "--n", str(n), "--target", TARGET, *_policy_args(k, m, d),
                 "--format", "structured"] for command, n in jobs]

    def run_pass(self, argvs):
        return [_call_cli(argv) for argv in argvs]

    def check(self, argvs, outcome):
        verdicts = []
        for argv, (code, report, error) in zip(argvs, outcome):
            ok = (error is None and code == cli.EXIT_PASS and report is not None
                  and report.details == [])
            verdicts.append((" ".join(argv[:3]), ok))
        verdicts.sort()
        return len(argvs), sum(not ok for _, ok in verdicts), verdicts


@dataclass
class Invariants:
    """Cold ``Engine.invariant`` over every admissible key, then a cache round trip."""

    name = "invariants"
    policy: tuple[int, int, int] = (6, 5, 3)
    expected_keys: int | None = 8359

    def prepare(self, seed: int):
        ts = preset(TARGET)
        k, m, d = self.policy
        return ts, TruncationPolicy(k, m, (d,) * ts.novikov_rank), seed

    def run_pass(self, state):
        ts, policy, seed = state
        path = os.path.join(_cache_dir(), "invariants.jsonl")
        try:
            engine = Engine(ts)
            keys = engine.admissible_keys(policy)
            random.Random(seed).shuffle(keys)
            cold = [engine.invariant(key) for key in keys]
            engine.cache.save(path)
            warm_engine = Engine(ts, None, InvariantCache.load(path, ts.fingerprint))
            warm = [warm_engine.invariant(key) for key in keys]
        except Exception as exc:  # a crash fails every key, it does not stop the run
            return None, f"{type(exc).__name__}: {exc}"
        return (keys, cold, warm, engine.cache.entries, warm_engine), None

    def check(self, state, outcome):
        result, error = outcome
        if result is None:
            n = self.expected_keys or 1
            return n, n, [("crash", error)]
        keys, cold, warm, cold_entries, warm_engine = result
        # One job beyond the keys: the key list and the whole cache survive
        # the round trip.  Checked first: the equations may add entries.
        whole = warm_engine.cache.entries == cold_entries and (
            self.expected_keys is None or len(keys) == self.expected_keys)
        verdicts = [("cache round trip", whole)]
        ts = state[0]
        for key, c, w in zip(keys, cold, warm):
            ok = c == w and _equations_hold(ts, warm_engine, key, w)
            verdicts.append((str(key), ok))
        verdicts.sort()
        return len(verdicts), sum(not ok for _, ok in verdicts), verdicts


def _equations_hold(ts, engine: Engine, key, value: Fraction) -> bool:
    """String and dilaton equations on ``key``, where they apply, hold exactly.

    They reach the value by another route than the evaluator's TRR, so a
    wrong reduction shows here even when the cache round trip agrees.
    """
    if VarId(0, 1) in key.insertions:
        try:
            terms, scalar = string_reduce(ts, key)
        except NotApplicable:
            pass
        else:
            if value != scalar + sum(c * engine.invariant(k) for k, c in terms):
                return False
    if VarId(1, 1) in key.insertions:
        try:
            lowered, factor = dilaton_reduce(ts, key)
        except NotApplicable:
            pass
        else:
            if value != factor * engine.invariant(lowered):
                return False
    return True


WORKLOADS = {cls.name: cls for cls in (Registry, ConstraintsWarm, Invariants)}

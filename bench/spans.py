"""In-memory spans and counters recorded around calls into gwvir's layers.

A span records its name, start, end, parent span and job id.  Spans are kept
in flat arrays while the run lasts and are written out once, when it ends.
A layer's self time is the length of its spans minus the part of each span
that its child spans cover.

``instrument`` wraps the public functions of each layer (named after its
module: ``engine``, ``virasoro``, ``series``, ``identities``, ``cli``), rebinds
every module attribute that refers to a wrapped function, and puts every
original back when the ``with`` block ends.  ``Engine.invariant`` recurses
about a million times per workload, so only its outermost calls get spans;
the inner ones are counted by a bare counter.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from array import array
from collections import defaultdict


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.jobs: list[str] = [""]
        self._job_ids: dict[str, int] = {"": 0}
        self.job = 0
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job_of = array("i")
        self._open: list[int] = []
        self.counts: defaultdict[str, int] = defaultdict(int)

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def job_id(self, label: str) -> int:
        jid = self._job_ids.get(label)
        if jid is None:
            jid = self._job_ids[label] = len(self.jobs)
            self.jobs.append(label)
        return jid

    def begin(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.job_of.append(self.job)
        self.end.append(0.0)
        self._open.append(sid)
        self.start.append(self.clock())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = self.clock()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str, job: str | None = None):
        """Span a block of the benchmark itself, optionally as a new job."""
        saved = self.job
        if job is not None:
            self.job = self.job_id(job)
        sid = self.begin(self.name_id(name))
        try:
            yield
        finally:
            self.finish(sid)
            self.job = saved

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name."""
        per_id = self_times(self.name, self.start, self.end, self.parent, len(self.names))
        return dict(zip(self.names, per_id))

    def to_json(self) -> dict:
        return {"names": self.names, "jobs": self.jobs,
                "span_name": list(self.name), "span_start": list(self.start),
                "span_end": list(self.end), "span_parent": list(self.parent),
                "span_job": list(self.job_of), "counts": dict(self.counts)}


def self_times(name, start, end, parent, n_names: int) -> list[float]:
    """Per-name self time: each span's length minus the union of its children.

    Spans are given in order of their start, as ``Tracer`` records them, so
    each parent's children arrive sorted by start and one sweep merges them.
    """
    covered = [0.0] * len(start)
    reach = [float("-inf")] * len(start)
    for sid in range(len(start)):
        p = parent[sid]
        if p < 0:
            continue
        lo, hi = max(start[sid], reach[p]), end[sid]
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    out = [0.0] * n_names
    for sid in range(len(start)):
        out[name[sid]] += (end[sid] - start[sid]) - covered[sid]
    return out


# --- wrapping gwvir's layers ----------------------------------------------------


def _gwvir_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "gwvir" or n.startswith("gwvir."))]


class _Patcher:
    """Replaces attributes and remembers the originals."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def rebind_function(self, original, wrapper) -> None:
        """Point every gwvir module attribute bound to ``original`` at ``wrapper``."""
        for module in _gwvir_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _spanned(tracer: Tracer, name: str, fn, after=None):
    """Wrap ``fn`` in a span; ``after(args, result)`` records counts."""
    nid = tracer.name_id(name)
    begin, finish = tracer.begin, tracer.finish

    def wrapper(*args, **kwargs):
        sid = begin(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            finish(sid)
        if after is not None:
            after(args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install span and counter wrappers on gwvir for the ``with`` block."""
    from gwvir import cli, engine, identities, series, virasoro

    counts = tracer.counts
    patch = _Patcher()
    fold_inner = None
    try:
        fold_inner = _instrument_engine(tracer, patch, engine, counts)
        _instrument_virasoro(tracer, patch, virasoro, counts)
        _instrument_series(tracer, patch, series, counts)
        _instrument_identities(tracer, patch, identities, counts)
        _instrument_cli(tracer, patch, cli)
        yield tracer
    finally:
        patch.restore()
        if fold_inner is not None:
            fold_inner()


def _instrument_engine(tracer, patch, engine, counts):
    Engine, InvariantCache = engine.Engine, engine.InvariantCache
    orig_invariant = Engine.invariant
    nid = tracer.name_id("engine.invariant")
    begin, finish = tracer.begin, tracer.finish
    depth = 0
    inner = 0

    def invariant(self, key):
        nonlocal depth, inner
        if depth:
            inner += 1
            return orig_invariant(self, key)
        depth = 1
        before = len(self.cache.entries)
        sid = begin(nid)
        try:
            return orig_invariant(self, key)
        finally:
            finish(sid)
            depth = 0
            counts["engine.invariant.outer_calls"] += 1
            counts["engine.invariant.misses"] += len(self.cache.entries) - before

    patch.set(Engine, "invariant", invariant)

    def after_corr(args, result):
        counts["engine.correlation_series.calls"] += 1
        counts["engine.correlation_series.terms"] += len(result.terms)

    patch.set(Engine, "correlation_series", _spanned(
        tracer, "engine.correlation_series", Engine.correlation_series, after_corr))
    patch.set(Engine, "admissible_keys", _spanned(
        tracer, "engine.admissible_keys", Engine.admissible_keys))

    def after_file(args, result):
        counts["engine.cache.bytes"] += os.path.getsize(args[1])

    patch.set(InvariantCache, "save", _spanned(
        tracer, "engine.cache.save", InvariantCache.save, after_file))
    load = InvariantCache.__dict__["load"].__func__
    patch.set(InvariantCache, "load", classmethod(_spanned(
        tracer, "engine.cache.load", load, after_file)))

    def fold_inner():
        counts["engine.invariant.calls"] = counts["engine.invariant.outer_calls"] + inner

    return fold_inner


def _instrument_virasoro(tracer, patch, virasoro, counts):
    CorrContext = virasoro.CorrContext
    orig_corr = CorrContext.corr

    def corr(self, *slots):
        counts["virasoro.corr.calls"] += 1
        built = counts["engine.correlation_series.calls"]
        result = orig_corr(self, *slots)
        if counts["engine.correlation_series.calls"] != built:
            counts["virasoro.corr.builds"] += 1
        return result

    patch.set(CorrContext, "corr", corr)

    seen: set = set()

    def after_field(args, result):
        counts["virasoro.field_series.calls"] += 1
        key = (args[1], tuple(sorted(tuple(s) for s in args[2:])))
        if key not in seen:
            seen.add(key)
            counts["virasoro.field_series.distinct"] += 1

    patch.set(CorrContext, "field_series", _spanned(
        tracer, "virasoro.field_series", CorrContext.field_series, after_field))
    patch.set(CorrContext, "field2_series", _spanned(
        tracer, "virasoro.field2_series", CorrContext.field2_series))
    for name in ("psi", "psi_tilde", "apply_operator"):
        original = getattr(virasoro, name)
        patch.rebind_function(original, _spanned(tracer, f"virasoro.{name}", original))


def _instrument_series(tracer, patch, series, counts):
    TruncatedSeries = series.TruncatedSeries

    def after_mul(args, result):
        a, b = args
        counts["series.mul.calls"] += 1
        counts["series.mul.pairs"] += len(a.terms) * len(b.terms)
        counts["series.mul.terms_out"] += len(result.terms)

    def after_add(args, result):
        counts["series.add.calls"] += 1
        counts["series.add.terms_copied"] += len(args[0].terms)

    def after_times_var(args, result):
        counts["series.times_var.calls"] += 1
        counts["series.times_var.terms_in"] += len(args[0].terms)
        counts["series.times_var.terms_out"] += len(result.terms)

    for name, after in (("series_mul", after_mul), ("series_derive", None)):
        original = getattr(series, name)
        label = "series." + name.split("_")[1]
        patch.rebind_function(original, _spanned(tracer, label, original, after))
    patch.set(TruncatedSeries, "__add__", _spanned(
        tracer, "series.add", TruncatedSeries.__add__, after_add))
    patch.set(TruncatedSeries, "scale", _spanned(
        tracer, "series.scale", TruncatedSeries.scale))
    patch.set(TruncatedSeries, "times_var", _spanned(
        tracer, "series.times_var", TruncatedSeries.times_var, after_times_var))


def _instrument_identities(tracer, patch, identities, counts):
    original = identities.verify_identity

    def verify_identity(ts_or_engine, tag, *args, **kwargs):
        with tracer.span("identities.verify_identity", job=tag):
            findings = original(ts_or_engine, tag, *args, **kwargs)
        counts["identities.verify_identity.calls"] += 1
        counts["identities.tuples"] += len(findings)
        return findings

    patch.rebind_function(original, verify_identity)


def _instrument_cli(tracer, patch, cli):
    original = cli.run

    def run(argv, out=None):
        with tracer.span("cli.run", job=" ".join(argv[:3])):
            return original(argv, out)

    patch.rebind_function(original, run)

"""Command-line front end.

Subcommands: targets list|show|validate, invariant, nd, free-energy, psi,
psi-tilde, commutator, central-condition, identities, cache.  Every command
accepts ``--format text|structured`` and emits a RunReport; exit codes are
0 = pass, 1 = verification fail, 2 = usage or parse error, 3 = engine error.
Policies default to K=4, M=3, D=2 so a bare invocation finishes in seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import engine as eng
from . import errors, identities, target, virasoro
from .rationals import format_rational
from .series import TruncatedSeries, TruncationPolicy

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_ENGINE = 3


@dataclass
class RunReport:
    command: str
    target: str  # fingerprint, or "" when no target applies
    policy: dict
    outcome: str  # pass | fail | error
    details: list = field(default_factory=list)
    wall_time_ms: int = 0

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "target": self.target,
            "policy": self.policy,
            "outcome": self.outcome,
            "details": self.details,
            "wall_time_ms": self.wall_time_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); raise instead
        raise errors.ParseError(message)


def _policy_dict(policy: TruncationPolicy | None) -> dict:
    if policy is None:
        return {}
    return {"max_insertions": policy.max_insertions, "max_level": policy.max_level,
            "max_degree": list(policy.max_degree)}


def _series_details(series: TruncatedSeries) -> list:
    return [{"monomial": identities.render_monomial(mon), "value": format_rational(c)}
            for mon, c in series.items_sorted()]


_KEY_RE = re.compile(r"^deg=([0-9,]*);ins=((?:\(\d+,\d+\))*)$")
_INS_RE = re.compile(r"\((\d+),(\d+)\)")


def parse_key(text: str, rank: int, classes: int | None = None) -> eng.CorrelatorKey:
    """Key syntax: deg=a1,..,ar;ins=(m,alpha)(m,alpha)...

    Given the target's class count, a class index alpha outside 1..classes is
    a ``ParseError``; ``gw invariant`` always gives it.
    """
    m = _KEY_RE.match(text)
    if m is None:
        raise errors.ParseError(f"bad key syntax: {text!r}")
    deg_part = m.group(1)
    deg = tuple(int(x) for x in deg_part.split(",")) if deg_part else ()
    if len(deg) != rank:
        raise errors.ParseError(f"degree has {len(deg)} components, target has rank {rank}")
    ins = [(int(a), int(b)) for a, b in _INS_RE.findall(m.group(2))]
    bad = [a for _, a in ins if classes is not None and not 1 <= a <= classes]
    if bad:
        raise errors.ParseError(f"class index {bad[0]} not in [1, {classes}]")
    return eng.make_key(ins, deg)


def _load_target(spec_arg: str) -> target.TargetSpace:
    if spec_arg in target.preset_names():
        return target.preset(spec_arg)
    path = Path(spec_arg)
    if not path.exists():
        raise errors.ParseError(f"target {spec_arg!r} is neither a preset nor a file")
    return target.load_target(path.read_text(encoding="utf-8"))


def _policy_from_args(args, ts: target.TargetSpace) -> TruncationPolicy:
    r = ts.novikov_rank
    if args.degree is None:
        degs = (2,) * r
    else:
        try:
            parts = [int(x) for x in str(args.degree).split(",")]
        except ValueError as exc:
            raise errors.ParseError(f"--degree: {exc}") from exc
        if len(parts) == 1:
            degs = tuple(parts * r)
        elif len(parts) == r:
            degs = tuple(parts)
        else:
            accepted = "one integer" if r < 2 else f"one integer or {r} comma-separated integers"
            raise errors.ParseError(f"--degree takes {accepted} on this target, "
                                    f"not {args.degree!r}")
    try:
        return TruncationPolicy(args.insertions, args.level, degs)
    except ValueError as exc:
        raise errors.ParseError(str(exc)) from exc


def _cache_dir() -> Path:
    return Path(os.environ.get("GW_CACHE_DIR", "gw-cache"))


def _cache_path(ts: target.TargetSpace) -> Path:
    return _cache_dir() / f"{ts.fingerprint}.jsonl"


def _backend(args, ts: target.TargetSpace) -> eng.PrimaryBackend | None:
    """The seed table ``--table`` names, checked against ``ts``; None leaves
    the target's own seeds."""
    return eng.load_table_backend(args.table, ts) if args.table else None


def _make_engine(args, ts: target.TargetSpace) -> eng.Engine:
    cache = None
    path = _cache_path(ts)
    if path.exists():
        cache = eng.InvariantCache.load(str(path), ts.fingerprint, ts)
    return eng.Engine(ts, _backend(args, ts), cache)


def _add_common(p: argparse.ArgumentParser, with_policy=True, with_target=True):
    if with_target:
        p.add_argument("--target", required=True,
                       help="preset name (point, P1, P2) or target file path")
    if with_policy:
        p.add_argument("--insertions", type=int, default=4,
                       help="total t-exponent bound K (default 4)")
        p.add_argument("--level", type=int, default=3,
                       help="descendent level bound M (default 3)")
        p.add_argument("--degree", default=None,
                       help="Novikov degree cap(s), comma separated (default 2)")
        p.add_argument("--table", default=None,
                       help="seed table of primary invariants")
    p.add_argument("--format", choices=("text", "structured"), default="text")


def _build_parser() -> _Parser:
    parser = _Parser(prog="gw", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("targets", help="list, show, or validate targets")
    p.set_defaults(handler=_cmd_targets)
    p.add_argument("action", choices=("list", "show", "validate"))
    p.add_argument("--target", default=None)
    p.add_argument("--format", choices=("text", "structured"), default="text")

    p = sub.add_parser("invariant", help="one descendent invariant, exactly")
    p.set_defaults(handler=_cmd_invariant)
    _add_common(p)
    p.add_argument("--key", required=True,
                   help="deg=a1,..,ar;ins=(m,alpha)(m,alpha)...")

    p = sub.add_parser("nd", help="table of plane-curve counts N_d")
    p.set_defaults(handler=_cmd_nd)
    _add_common(p, with_policy=False)
    p.add_argument("--max", type=int, default=6, dest="max_d")

    p = sub.add_parser("free-energy", help="truncated genus-0 free energy table")
    p.set_defaults(handler=_cmd_free_energy)
    _add_common(p)

    p = sub.add_parser("psi", help="genus-0 L_n constraint residual")
    p.set_defaults(handler=functools.partial(_cmd_psi, tilde=False))
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--families", action="store_true",
                   help="also report derivative families and shift relations")

    p = sub.add_parser("psi-tilde", help="auxiliary constraint residual")
    p.set_defaults(handler=functools.partial(_cmd_psi, tilde=True))
    _add_common(p)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("commutator", help="Virasoro commutation relation check")
    p.set_defaults(handler=_cmd_commutator)
    _add_common(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("central-condition", help="central charge condition check")
    p.set_defaults(handler=_cmd_central)
    _add_common(p, with_policy=False)

    p = sub.add_parser("identities", help="run the identity registry")
    p.set_defaults(handler=_cmd_identities)
    _add_common(p)
    p.add_argument("--tags", default=None, help="comma-separated identity tags")
    p.add_argument("--all", action="store_true", dest="all_tags")

    p = sub.add_parser("cache", help="manage the invariant cache")
    p.set_defaults(handler=_cmd_cache)
    p.add_argument("action", choices=("warm", "verify", "clear"))
    p.add_argument("--full", action="store_true",
                   help="verify: recompute every entry, not every 20th")
    _add_common(p)
    return parser


# --- command bodies -------------------------------------------------------------


def _cmd_targets(args) -> RunReport:
    if args.action == "list":
        return RunReport("targets list", "", {}, "pass",
                         [{"preset": name} for name in target.preset_names()])
    if args.target is None:
        raise errors.ParseError("targets show/validate needs --target")
    ts = _load_target(args.target)
    if args.action == "show":
        return RunReport("targets show", ts.fingerprint, {}, "pass",
                         [json.loads(target.serialize_target(ts))])
    return RunReport("targets validate", ts.fingerprint, {}, "pass",
                     [{"target": ts.name, "valid": True}])


def _cmd_invariant(args) -> RunReport:
    ts = _load_target(args.target)
    policy = _policy_from_args(args, ts)
    key = parse_key(args.key, ts.novikov_rank, ts.classes)
    # The engine is built (and its cache read) whatever the key; it takes
    # only admissible keys, and an inadmissible one is 0 by the selection rule.
    engine = _make_engine(args, ts)
    admissible = eng.dimension_admissible(ts, key)
    value = format_rational(engine.invariant(key)) if admissible else "0"
    detail = {"key": args.key, "value": value, "admissible": admissible}
    return RunReport("invariant", ts.fingerprint, _policy_dict(policy), "pass", [detail])


def _cmd_nd(args) -> RunReport:
    ts = _load_target(args.target)
    if ts.name != "P2":
        raise errors.ParseError("nd tabulates plane curve counts; use --target P2")
    if args.max_d < 1:
        raise errors.ParseError("--max must be >= 1")
    engine = eng.Engine(ts)
    details = [{"d": d, "N_d": format_rational(
                    engine.invariant(eng.make_key([(0, 3)] * (3 * d - 1), (d,))))}
               for d in range(1, args.max_d + 1)]
    return RunReport("nd", ts.fingerprint, {}, "pass", details)


def _cmd_free_energy(args) -> RunReport:
    ts = _load_target(args.target)
    policy = _policy_from_args(args, ts)
    series = _make_engine(args, ts).free_energy(policy)
    return RunReport("free-energy", ts.fingerprint, _policy_dict(policy), "pass",
                     _series_details(series))


def _cmd_psi(args, tilde: bool) -> RunReport:
    ts = _load_target(args.target)
    policy = _policy_from_args(args, ts)
    engine = _make_engine(args, ts)
    if tilde:
        series = virasoro.psi_tilde(engine, args.n, policy)
        name = "psi-tilde"
    else:
        series = virasoro.psi(engine, args.n, policy)
        name = "psi"
    details = _series_details(series)
    outcome = "pass" if series.is_zero() else "fail"
    if not tilde and args.families:
        violations = virasoro.check_shift_relations(series)
        details.append({"shift_relations": violations or "hold"})
        if violations:
            outcome = "fail"
    report = RunReport(f"{name} n={args.n}", ts.fingerprint,
                       _policy_dict(policy), outcome, details)
    return report


def _cmd_commutator(args) -> RunReport:
    ts = _load_target(args.target)
    policy = _policy_from_args(args, ts)
    if args.m < -1 or args.n < -1:
        raise errors.ParseError("commutator needs m, n >= -1")
    if policy.max_level <= args.m + args.n + 1:
        raise errors.ParseError(
            f"commutator window needs --level above m + n + 1 = {args.m + args.n + 1}")
    residual = virasoro.commutator_residual(ts, args.m, args.n, policy)
    empty = residual.is_empty()
    details = []
    if not empty:
        details = [{"linear": [[list(s), list(d), format_rational(c)]
                               for s, d, c in residual.linear],
                    "quadratic": [[list(u), list(v), format_rational(c)]
                                  for u, v, c in residual.quadratic],
                    "constant": format_rational(residual.constant)}]
    return RunReport(f"commutator m={args.m} n={args.n}", ts.fingerprint,
                     _policy_dict(policy), "pass" if empty else "fail", details)


def _cmd_central(args) -> RunReport:
    ts = _load_target(args.target)
    lhs, rhs, holds = ts.central_condition()
    detail = {"lhs": format_rational(lhs), "rhs": format_rational(rhs), "holds": holds}
    return RunReport("central-condition", ts.fingerprint, {}, "pass" if holds else "fail",
                     [detail])


def _cmd_identities(args) -> RunReport:
    ts = _load_target(args.target)
    policy = _policy_from_args(args, ts)
    if args.all_tags:
        tags = list(identities.IDENTITY_TAGS)
    else:
        tags = [t.strip() for t in (args.tags or "").split(",") if t.strip()]
        if not tags:
            raise errors.ParseError("identities needs --tags or --all")
        unknown = [t for t in tags if t not in identities.REGISTRY]
        if unknown:
            raise errors.UnknownIdentity(f"unknown identity tags: {', '.join(unknown)}")
    engine = _make_engine(args, ts)
    shared = identities.IdentityContext(engine, policy)
    results = [identities.verify_identity(engine, tag, policy, ctx=shared)
               for tag in tags]
    details = []
    outcome = "pass"
    for tag, findings in zip(tags, results):
        fails = [f for f in findings if f.status != "pass"]
        entry = {"identity": tag, "tuples": len(findings), "failures": len(fails)}
        if fails:
            outcome = "fail"
            entry["first_failures"] = [
                {"indices": list(f.indices), "monomial": f.monomial,
                 "lhs": f.lhs, "rhs": f.rhs} for f in fails[:5]]
        details.append(entry)
    return RunReport("identities", ts.fingerprint, _policy_dict(policy), outcome, details)


def _cmd_cache(args) -> RunReport:
    ts = _load_target(args.target)
    policy = _policy_from_args(args, ts)
    path = _cache_path(ts)
    if args.action == "clear":
        existed = path.exists()
        if existed:
            path.unlink()
        return RunReport("cache clear", ts.fingerprint, {}, "pass",
                         [{"removed": existed}])
    if args.action == "warm":
        engine = eng.Engine(ts, _backend(args, ts))
        keys = engine.admissible_keys(policy)
        for key in keys:
            engine.invariant(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        engine.cache.save(str(path))
        return RunReport("cache warm", ts.fingerprint, _policy_dict(policy), "pass",
                         [{"keys_requested": len(keys),
                           "entries": len(engine.cache.entries), "path": str(path)}])
    # verify: recompute every entry (--full) or a deterministic 5% sample
    # with a cold engine
    if not path.exists():
        raise errors.CacheMismatch(f"no cache file at {path}")
    cache = eng.InvariantCache.load(str(path), ts.fingerprint, ts)
    cold = eng.Engine(ts, _backend(args, ts))
    sample = sorted(cache.entries)[::1 if args.full else 20]
    bad = []
    for key in sample:
        fresh = cold.invariant(key)
        if fresh != cache.entries[key]:
            bad.append({"key": str(key), "cached": format_rational(cache.entries[key]),
                        "recomputed": format_rational(fresh)})
    if bad:
        raise errors.CacheMismatch(f"{len(bad)} cache entries do not reproduce: {bad[:3]}")
    return RunReport("cache verify", ts.fingerprint, _policy_dict(policy), "pass",
                     [{"sampled": len(sample), "entries": len(cache.entries)}])


# --- driver ---------------------------------------------------------------------


def _render(report: RunReport, fmt: str) -> str:
    if fmt == "structured":
        return report.to_json() + "\n"
    lines = [f"{report.command}: {report.outcome}\n"]
    for detail in report.details:
        if isinstance(detail, dict):
            lines.append("  " + "  ".join(f"{k}={v}" for k, v in detail.items()) + "\n")
        else:
            lines.append(f"  {detail}\n")
    if not report.details and report.outcome == "pass":
        lines.append("  all coefficients zero\n")
    return "".join(lines)


def run(argv: list[str], out=None) -> tuple[int, RunReport | None]:
    """Execute one subcommand; returns (exit code, report).

    A reader that closes ``out`` before the report is written leaves the exit
    code as the verdict gives it.
    """
    out = out if out is not None else sys.stdout
    started = time.monotonic()
    parser = _build_parser()
    fmt = "text"
    try:
        args = parser.parse_args(argv)
        fmt = args.format
        report = args.handler(args)
    except (errors.ParseError, errors.ValidationError, errors.UnknownPreset,
            errors.UnknownIdentity) as exc:
        code, report, text = EXIT_USAGE, None, f"error: {exc}\n"
    except (errors.TargetUnsupported, errors.CacheMismatch, errors.PolicyTooTight,
            errors.NotApplicable, errors.UnsupportedIndex, errors.IndexOutOfRange,
            OSError) as exc:
        code = EXIT_ENGINE
        report = RunReport(" ".join(argv[:1]) or "gw", "", {}, "error",
                           [{"error": type(exc).__name__, "message": str(exc)}])
    else:
        code = EXIT_PASS if report.outcome == "pass" else EXIT_FAIL
    if report is not None:
        report.wall_time_ms = int((time.monotonic() - started) * 1000)
        text = _render(report, fmt)
    with contextlib.suppress(BrokenPipeError):
        out.write(text)
    return code, report


def main() -> None:
    code = run(sys.argv[1:])[0]
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed standard output early.  What is still buffered
        # goes to devnull, so the interpreter's last flush does not raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()

"""Byte-for-byte golden outputs of ``--format structured`` reports.

The files under ``tests/data`` were written by the CLI before the series
ring's monomials became packed integer keys.  Every rendered monomial goes
through encode, decode and sort, so any change to the key layout or to the
term order shows up here.  Only ``wall_time_ms`` is zeroed, on both sides.
"""

from __future__ import annotations

import io
import re
from pathlib import Path

import pytest

from gwvir.cli import run

DATA = Path(__file__).parent / "data"
_WALL = re.compile(r'"wall_time_ms": \d+')

GOLDEN = [
    ("free_energy_point.json", ["free-energy", "--target", "point", "--insertions", "4",
                                "--level", "2", "--degree", "2"]),
    ("free_energy_P1.json", ["free-energy", "--target", "P1", "--insertions", "4",
                             "--level", "2", "--degree", "2"]),
    ("free_energy_P2.json", ["free-energy", "--target", "P2", "--insertions", "4",
                             "--level", "2", "--degree", "2"]),
    ("identities_P2.json", ["identities", "--target", "P2", "--all", "--insertions", "3",
                            "--level", "2", "--degree", "1"]),
]


@pytest.mark.parametrize("name,argv", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_structured_output_matches_golden(name, argv, tmp_path, monkeypatch):
    monkeypatch.setenv("GW_CACHE_DIR", str(tmp_path))
    buf = io.StringIO()
    code, _ = run(argv + ["--format", "structured"], out=buf)
    assert code == 0
    got = _WALL.sub('"wall_time_ms": 0', buf.getvalue())
    assert got == (DATA / name).read_text(encoding="utf-8")

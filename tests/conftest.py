from __future__ import annotations

import os

import pytest

from gwvir.engine import Engine
from gwvir.target import preset

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # HYPOTHESIS_PROFILE=ci gives the CLI contract tests, which take their
    # draw count from the active profile, ten times the default 100 draws.
    settings.register_profile("ci", max_examples=1000)
    if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
        settings.load_profile("ci")


@pytest.fixture(scope="session")
def point_engine() -> Engine:
    return Engine(preset("point"))


@pytest.fixture(scope="session")
def p1_engine() -> Engine:
    return Engine(preset("P1"))


@pytest.fixture(scope="session")
def p2_engine() -> Engine:
    return Engine(preset("P2"))

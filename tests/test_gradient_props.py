"""Property test: one walk of the policy's monomials gives every <<tau_v>>.

Small policies are drawn on the point, P1 and P2.  ``Engine.gradient_series``
must give, for every variable v of the policy, the series
``Engine.correlation_series((v,), policy)`` builds one slot at a time, on a
cold engine and again once that engine is warm.  The series are compared
decoded, through ``items_sorted()``.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from gwvir.engine import Engine
from gwvir.series import TruncationPolicy, VarId
from gwvir.target import preset


@settings(max_examples=50, deadline=None)
@given(name=st.sampled_from(("point", "P1", "P2")), insertions=st.integers(0, 5),
       level=st.integers(0, 3), degree=st.integers(0, 3))
def test_gradient_series_is_every_single_slot_series(name, insertions, level, degree):
    ts = preset(name)
    policy = TruncationPolicy(insertions, level, (degree,) * ts.novikov_rank)
    engine = Engine(ts)
    variables = [VarId(m, a) for m in range(level + 1) for a in range(1, ts.classes + 1)]
    cold = engine.gradient_series(policy)
    assert list(cold) == variables
    warm = engine.gradient_series(policy)
    for v in variables:
        expect = engine.correlation_series((v,), policy).items_sorted()
        assert cold[v].items_sorted() == expect
        assert warm[v].items_sorted() == expect

"""The one lane rule of the sampled evaluations: ``verify.sampled`` evaluates
once on float lanes, reruns one lane at a time when the lanes raise, and keeps,
skips or raises at each point bit for bit as the per-point reference loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liesolve import hyperdual as hd
from liesolve import verify
from liesolve.errors import DomainError
from liesolve.verify import sampled
from point_loop import point_loop


def _takes_lanes(x, y):
    return hd.exp(0.3 * x) * y + x**3 - hd.atan2(y, x + 5.0)


def _branches(x, y):  # float() of lanes raises TypeError
    return x * y if float(x) > 0.0 else hd.sin(y)


def _typed_error(x, y):  # a DomainError at x < -1, at a lane as at a point
    if np.any(np.asarray(x) < -1.0):
        raise DomainError("outside the field's domain")
    return x / (y + 5.0)


def _non_finite(x, y):  # inf where one square overflows, NaN where both do
    return 1e308 * x * x - 1e308 * y * y


def _dual(x, y):
    return hd.Dual2(x, 1.0) * hd.exp(y) + y


def _untyped_error(x, y):  # a defect at x > 1.5
    if np.any(np.asarray(x) > 1.5):
        raise RuntimeError("defect in the field")
    return x + y


FIELDS = [_takes_lanes, _branches, _typed_error, _non_finite, _dual, _untyped_error]

coord = st.floats(min_value=-3.0, max_value=3.0)
points = st.lists(st.tuples(coord, coord), max_size=8)


def _outcome(fn, pts):
    try:
        kept, skipped = fn(pts)
    except RuntimeError as err:
        return type(err).__name__, str(err)
    return [(pt, float(v).hex()) for pt, v in kept], skipped


@pytest.mark.filterwarnings("ignore:overflow encountered")
@settings(max_examples=60, deadline=None)
@given(pts=points, field=st.sampled_from(FIELDS), as_iterator=st.booleans())
def test_sampled_is_bitwise_the_point_loop(pts, field, as_iterator):
    want = _outcome(lambda p: point_loop(field, p), pts)
    got = _outcome(lambda p: sampled(field, iter(p) if as_iterator else p), pts)
    assert got == want


def test_untyped_error_propagates():
    pts = [(0.5, 0.1), (2.0, 0.2), (0.7, 0.3)]
    for fn in (sampled, point_loop):
        with pytest.raises(RuntimeError, match="defect in the field"):
            fn(_untyped_error, pts)


@pytest.mark.parametrize(
    "field, reruns",
    [(_takes_lanes, 0), (_dual, 0), (_branches, 1), (_typed_error, 1)],
    ids=["lanes", "dual", "branches", "typed-error"],
)
def test_one_lane_evaluation_then_one_rerun(monkeypatch, field, reruns):
    pts = [(0.5, 0.1), (-2.0, 0.2), (0.7, -0.3), (1.1, 2.0)]
    calls, runs = [], []
    rerun = verify._per_lane_or_nan
    monkeypatch.setattr(verify, "_per_lane_or_nan", lambda fn: runs.append(fn) or rerun(fn))

    def counted(*args):
        calls.append(args)
        return field(*args)

    got = sampled(counted, pts)
    assert len(runs) == reruns
    assert len(calls) == 1 + reruns * len(pts)
    assert got == point_loop(field, pts)
    assert sampled(field, []) == ([], 0)

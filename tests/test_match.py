"""Potential classifier: opaque bindings given as derivative tuples, the
number of potential evaluations one sampled classification costs, and the
exclusions that keep a sampled fit out of neighbouring families."""

import math

import pytest

from liesolve.exprlang import evaluate, match_case, parse

STUDY = parse("48*(x^2+y^2)/(x^2-y^2)^2 + r^2*(x^2+y^2) - 18*r")


def test_tuple_binding_runs_the_structural_exclusions():
    # a constant angular factor is excluded from 1.2a whether C comes as a
    # bare callable or as the (C, C') tuple the catalog defaults use
    expr = parse("C(theta)/r_polar^2 + 1")
    bare = match_case(expr, opaque={"C": lambda s: 2.0})
    pair = match_case(expr, opaque={"C": (lambda s: 2.0, lambda s: 0.0)})
    assert pair.case_id == bare.case_id == "1.4a"
    assert pair.bindings == bare.bindings
    assert pair.bindings["C0"] == pytest.approx(2.0, rel=1e-12)


def test_tuple_binding_is_kept_and_sampled_through_its_factor():
    C, dC = (lambda s: 2.0 + math.sin(s)), math.cos
    m = match_case(parse("C(theta)/r_polar^2 + 0.5"), opaque={"C": (C, dC)})
    assert m.case_id == "1.2a"
    assert m.bindings["C"] == (C, dC)
    assert len(m.opaque_samples) == 25
    assert all(v == C(s) for s, v in m.opaque_samples)


def test_sampled_classification_evaluates_each_grid_point_once():
    calls = 0

    def f(x, y):
        nonlocal calls
        calls += 1
        return evaluate(STUDY, {"x": x, "y": y}, {"r": 0.05})

    assert match_case(f).case_id == "1.2b"
    # 200 polar and 108 x-slice points, the 1.3 slope stencils and the 1.3
    # factor queries
    assert calls <= 1600


def test_sign_changing_inverse_square_sinusoid_is_not_12a():
    # C(theta) = 1/cos^2(theta) gives C^(-1/2) = |cos(theta)|, which changes
    # sign over the sampled angles; 1/x^2 is 1.1a as a callable and as an
    # expression, and a rotated copy is excluded from 1.2a as well
    assert match_case(lambda x, y: 1.0 / x**2).case_id == "1.1a"
    assert match_case(parse("1/x^2")).case_id == "1.1a"
    assert not match_case(parse("1/(x + 2*y)^2"))
    # a positive-definite form is not a square: still 1.2a
    assert match_case(lambda x, y: 1.0 / (x * x + 0.5 * x * y + y * y)).case_id == "1.2a"


def test_required_parameter_is_weighed_against_the_fitted_scale():
    # the sampled fits of 1.4a/1.4b read C0 and c of order 1e-8 from rounding
    # beside a = 1e9; they vanish at that scale, so only 1.5a remains
    m = match_case(lambda x, y: 1e9 * x + y)
    assert m.case_id == "1.5a"
    assert m.bindings["a"] == pytest.approx(1e9, rel=1e-12)
    assert m.bindings["b"] == pytest.approx(1.0, rel=1e-6)
    # a structural binding is exact: a small C0 beside a large c still counts
    assert match_case(parse("1e12*(x^2 + y^2) + 1/x^2")).case_id == "1.1b"

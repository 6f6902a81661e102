"""Potential classifier: the templates and case parameters the family table
gives, the cancelled-shape rule of the structural pass, opaque bindings
given as derivative tuples, the number of potential evaluations one sampled
classification costs, and the exclusions that keep a sampled fit out of
neighbouring families."""

import math

import pytest

from liesolve.exprlang import TEMPLATE_SOURCES, evaluate, match_case, parse
from liesolve.reductions import catalog

STUDY = parse("48*(x^2+y^2)/(x^2-y^2)^2 + r^2*(x^2+y^2) - 18*r")

TEMPLATES = {
    "1.1a": "C0/x^2 + b*y + c0",
    "1.1b": "C0/x^2 + c*r_polar^2 + b*y + c0",
    "1.2a": "C(theta)/r_polar^2 + c0",
    "1.2b": "C(theta)/r_polar^2 + c*r_polar^2 + c0",
    "1.3": "C(lam*ln(r_polar) + theta)/r_polar^2 + c0",
    "1.4a": "C0/r_polar^2 + a*x + b*y + c0",
    "1.4b": "C0/r_polar^2 + c*r_polar^2 + a*x + b*y + c0",
    "1.5a": "a*x + b*y + c0",
    "1.6": "C(r_polar) + d*theta",
    "1.8a": "C(x) + b*y",
    "1.8b": "C(x) + c*y^2 + b*y",
}

CASE_PARAMS = {
    "1.1a": ("C0", "b", "c0"),
    "1.1b": ("C0", "c", "b", "c0"),
    "1.2a": ("c0",),
    "1.2b": ("c", "c0"),
    "1.3": ("lam", "c0"),
    "1.4a": ("C0", "a", "b", "c0"),
    "1.4b": ("C0", "c", "a", "b", "c0"),
    "1.5a": ("a", "b", "c0"),
    "1.6": ("d",),
    "1.8a": ("b",),
    "1.8b": ("c", "b"),
}

VALUES = {"C0": 1.25, "a": -0.75, "b": 0.5, "c": 1.5, "c0": -2.0, "lam": 0.625, "d": 0.75}
FACTOR = {"C": lambda s: 2.0 + math.sin(s)}


def test_family_table_gives_the_templates_and_case_parameters():
    assert list(TEMPLATE_SOURCES.items()) == list(TEMPLATES.items())
    assert {cid: case.case_params for cid, case in catalog().items()} == CASE_PARAMS


def _params(case_id, **override):
    return {**{name: VALUES[name] for name in CASE_PARAMS[case_id]}, **override}


def _with_cancelling_pair(case_id):
    # the pair is of a shape the family lacks
    pair = "2*y^2 - 2*y^2" if "c*r_polar^2" in TEMPLATES[case_id] else "r_polar^2 - r_polar^2"
    return f"{TEMPLATES[case_id]} + {pair}"


ZERO_C = {"1.1b": "1.1a", "1.4b": "1.4a", "1.2b": "1.2a", "1.8b": "1.8a"}
# factor terms of a shape 1.8a lacks, of one symbol, whose coefficients sum to 0
CANCELLED_FACTORS = ("C(theta)/r_polar^2 - C(theta)/r_polar^2", "0*C(theta)/r_polar^2")


@pytest.mark.parametrize(
    "source, params, case_id",
    [(TEMPLATES[cid], _params(cid, c=0.0), to) for cid, to in ZERO_C.items()]
    + [(_with_cancelling_pair(cid), _params(cid), cid) for cid in TEMPLATES]
    + [(f"C(x) + {pair} + 2*y", {"b": 2.0}, "1.8a") for pair in CANCELLED_FACTORS],
    ids=[f"{cid}-c=0" for cid in ZERO_C] + [f"{cid}-pair" for cid in TEMPLATES]
    + ["1.8a-factor-pair", "1.8a-zero-factor"],
)
def test_a_cancelled_shape_is_absent_from_the_structural_match(source, params, case_id):
    # a shape whose coefficients sum to exactly 0 does not keep a family out:
    # the c = 0 members, the cancelling pairs and the cancelled factor terms
    # match exactly, not sampled
    m = match_case(parse(source), params, FACTOR)
    assert (m.case_id, m.fit_residual) == (case_id, 0.0)
    bindings = {name: v for name, v in m.bindings.items() if name != "C"}
    assert bindings == {name: params[name] for name in CASE_PARAMS[case_id]}


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

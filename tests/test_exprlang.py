"""Expression-language tests: parser, evaluator, matching."""

import math
import zlib

import numpy as np
import pytest

from liesolve import exprlang as ex
from liesolve import hyperdual as hd
from liesolve.errors import EvalDomainError, ExprSyntaxError, UnboundSymbol
from liesolve.exprlang import ast as A

# the corpus the round-trip invariant quantifies over
CORPUS = list(ex.TEMPLATE_SOURCES.values()) + [
    "48*(x^2+y^2)/(x^2-y^2)^2 + r^2*(x^2+y^2) - 18*r",
    "1/(2*x^2)",
    "exp(-S)",
    "sin(theta)^2/r_polar^2",
    "arctan(y/x) + sqrt(x^2+y^2)",
    "-x^2 + 2^x",
    "C(lam*ln(r_polar) + theta)/r_polar^2 + c0",
]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def test_parse_grammar_example():
    e = ex.parse("C0/x^2 + b*y + c0")
    expected = A.Bin(
        "+",
        A.Bin(
            "+",
            A.Bin("/", A.Param("C0"), A.Bin("^", A.Var("x"), A.Num(2.0))),
            A.Bin("*", A.Param("b"), A.Var("y")),
        ),
        A.Param("c0"),
    )
    assert e == expected


def test_parse_double_cev_potential_has_parameter_r():
    e = ex.parse("48*(x^2+y^2)/(x^2-y^2)^2 + r^2*(x^2+y^2) - 18*r")
    assert ex.free_parameters(e) == {"r"}


def test_parse_incomplete_expression_offset():
    with pytest.raises(ExprSyntaxError) as ei:
        ex.parse("x +")
    assert ei.value.offset == 3


def test_parse_errors_carry_expected_sets():
    with pytest.raises(ExprSyntaxError) as ei:
        ex.parse("x + * y")
    assert ei.value.offset == 4
    assert "(" in ei.value.expected
    with pytest.raises(ExprSyntaxError):
        ex.parse("(x + y")
    with pytest.raises(ExprSyntaxError):
        ex.parse("x ? y")


def test_precedence_and_associativity():
    # ^ binds tighter than unary minus; left-associative chains
    e = ex.parse("-x^2")
    assert e == A.Neg(A.Bin("^", A.Var("x"), A.Num(2.0)))
    e = ex.parse("a - b - c")
    assert e == A.Bin("-", A.Bin("-", A.Param("a"), A.Param("b")), A.Param("c"))
    e = ex.parse("a/b/c")
    assert e == A.Bin("/", A.Bin("/", A.Param("a"), A.Param("b")), A.Param("c"))


@pytest.mark.parametrize("src", CORPUS)
def test_roundtrip_print_parse(src):
    e = ex.parse(src)
    printed = ex.pprint(e)
    reparsed = ex.parse(printed)
    assert reparsed == e
    # print o parse o print is a fixed point
    assert ex.pprint(reparsed) == printed


def test_roundtrip_property_random_trees():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    leaves = st.one_of(
        st.sampled_from([A.Var("x"), A.Var("y"), A.Param("b"), A.Param("c0")]),
        st.floats(min_value=0.25, max_value=8.0).map(lambda v: A.Num(round(v, 3))),
    )

    def combine(children):
        op = st.sampled_from(["+", "-", "*", "/", "^"])
        return st.builds(A.Bin, op, children, children) | st.builds(A.Neg, children)

    trees = st.recursive(leaves, combine, max_leaves=12)

    @settings(max_examples=150, deadline=None)
    @given(trees)
    def inner(tree):
        printed = ex.pprint(tree)
        assert ex.parse(printed) == tree

    inner()


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_double_cev_display_value():
    # direct arithmetic: 48*5/9 + 0.0025*5 - 0.9
    e = ex.parse("48*(x^2+y^2)/(x^2-y^2)^2 + r^2*(x^2+y^2) - 18*r")
    got = ex.evaluate(e, {"x": 2.0, "y": 1.0}, {"r": 0.05})
    expected = 48 * 5 / 9 + 0.0025 * 5 - 0.9
    assert expected == pytest.approx(25.779166666666665, rel=1e-14)
    assert got == pytest.approx(expected, rel=1e-14)


def test_eval_zero_numerator():
    e = ex.parse("C0/x^2")
    assert ex.evaluate(e, {"x": 1.0}, {"C0": 0.0}) == 0.0


def test_eval_domain_errors():
    with pytest.raises(EvalDomainError):
        ex.evaluate(ex.parse("ln(x)"), {"x": 0.0})
    with pytest.raises(EvalDomainError):
        ex.evaluate(ex.parse("1/x"), {"x": 0.0})
    with pytest.raises(EvalDomainError):
        ex.evaluate(ex.parse("sqrt(x)"), {"x": -2.0})


def test_eval_unbound():
    with pytest.raises(UnboundSymbol):
        ex.evaluate(ex.parse("a*x"), {"x": 1.0})
    with pytest.raises(UnboundSymbol):
        ex.evaluate(ex.parse("C(x)"), {"x": 1.0})


def test_eval_polar_derived_from_cartesian():
    e = ex.parse("r_polar^2 + theta")
    got = ex.evaluate(e, {"x": 1.0, "y": 1.0})
    assert got == pytest.approx(2.0 + math.pi / 4)


def test_eval_derives_polar_only_when_read():
    # theta is undefined at the origin; an expression that never reads it
    # differentiates there
    e = ex.parse("2*x + 3*y + 1")
    d = hd.derivative(lambda x, y: ex.evaluate(e, {"x": x, "y": y}), (0.0, 0.0), 0)
    assert d == 2.0


def test_eval_opaque_with_derivative_chain():
    de = ex.parse("C_prime(x^2)*(2*x)")
    got = ex.evaluate(de, {"x": 1.5}, opaque={"C": (math.sin, math.cos)})
    assert got == pytest.approx(math.cos(1.5**2) * 3.0, rel=1e-12)


def test_eval_opaque_fills_missing_orders_by_stencils():
    # a bare callable under Dual2: C' and C'' come from five-point stencils
    x = hd.Dual2(1.5, 1.0, 1.0, 0.0)
    got = ex.evaluate(ex.parse("C(x^2)"), {"x": x}, opaque={"C": math.sin})
    assert got.a == math.sin(2.25)
    assert got.b == pytest.approx(3.0 * math.cos(2.25), rel=1e-9)
    assert got.d == pytest.approx(-9.0 * math.sin(2.25) + 2.0 * math.cos(2.25), rel=1e-5)


def test_eval_opaque_needs_at_most_two_orders_past_the_binding():
    x = hd.Dual2(1.5, 1.0, 1.0, 0.0)
    with pytest.raises(EvalDomainError, match="needs derivative order 3, only 0 provided"):
        ex.evaluate(ex.parse("C_prime(x)"), {"x": x}, opaque={"C": math.sin})


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------


def test_match_simple_11a():
    # samples of 1/x^2 + 2y + 3 -> case 1.1a with C0=1, b=2, c0=3
    f = lambda x, y: 1.0 / x**2 + 2.0 * y + 3.0
    m = ex.match_case(f)
    assert m.case_id == "1.1a"
    assert m.bindings["C0"] == pytest.approx(1.0, abs=1e-12)
    assert m.bindings["b"] == pytest.approx(2.0, abs=1e-12)
    assert m.bindings["c0"] == pytest.approx(3.0, abs=1e-12)
    assert m.fit_residual <= 1e-12


def test_match_structural_expression():
    e = ex.parse("1/x^2 + 2*y + 3")
    m = ex.match_case(e)
    assert m.case_id == "1.1a"
    assert m.fit_residual == 0.0
    assert m.bindings == {"C0": 1.0, "b": 2.0, "c0": 3.0}


def test_match_no_match():
    f = lambda x, y: math.exp(x)
    m = ex.match_case(f)
    assert not m
    assert m.case_id is None


def test_match_double_cev_potential_is_12b():
    # the two-asset quadratic-volatility potential, sampled
    r = 0.05
    e = ex.parse("48*(x^2+y^2)/(x^2-y^2)^2 + r^2*(x^2+y^2) - 18*r")

    def f(x, y):
        return ex.evaluate(e, {"x": x, "y": y}, {"r": r})

    m = ex.match_case(f)
    assert m.case_id == "1.2b"
    assert m.bindings["c"] == pytest.approx(r**2, rel=1e-9)
    assert m.bindings["c0"] == pytest.approx(-18 * r, rel=1e-9, abs=1e-9)
    C = m.bindings["C"]
    # angular factor: M_sing = C(theta)/rho^2 with C = 48/cos^2(2 theta),
    # equivalently (2/rho^2) * 24/cos^2(2 theta)
    for th, val in m.opaque_samples:
        assert val == pytest.approx(48.0 / math.cos(2 * th) ** 2, rel=1e-8)
        assert val == pytest.approx(2.0 * 24.0 / math.cos(2 * th) ** 2, rel=1e-8)
    assert C(0.3) == pytest.approx(48.0 / math.cos(0.6) ** 2, rel=1e-6)


def _random_params(rng, names):
    return {n: float(rng.uniform(0.5, 2.0)) for n in names}


_OPAQUE_FN = {
    # smooth non-constant profiles, away from the excluded families
    "1.2a": lambda s: 2.0 + math.sin(s) + 0.3 * math.sin(2 * s),
    "1.2b": lambda s: 2.0 + math.sin(s) + 0.3 * math.sin(2 * s),
    "1.3": lambda s: 2.0 + math.sin(s),
    "1.6": lambda s: math.exp(-s) + 0.2 * s**3,
    "1.8a": lambda s: math.sin(1.3 * s) + 0.1 * s**4,
    "1.8b": lambda s: math.sin(1.3 * s) + 0.1 * s**4,
}

_CASE_PARAM_NAMES = {
    "1.1a": ["C0", "b", "c0"],
    "1.1b": ["C0", "c", "b", "c0"],
    "1.2a": ["c0"],
    "1.2b": ["c", "c0"],
    "1.3": ["lam", "c0"],
    "1.4a": ["C0", "a", "b", "c0"],
    "1.4b": ["C0", "c", "a", "b", "c0"],
    "1.5a": ["a", "b", "c0"],
    "1.6": ["d"],
    "1.8a": ["b"],
    "1.8b": ["c", "b"],
}


@pytest.mark.parametrize("cid", ex.CASE_ORDER)
def test_match_recovers_all_templates(cid):
    rng = np.random.default_rng(zlib.crc32(cid.encode()))
    params = _random_params(rng, _CASE_PARAM_NAMES[cid])
    opaque = {"C": _OPAQUE_FN[cid]} if cid in _OPAQUE_FN else None
    expr = ex.template_expr(cid)
    m = ex.match_case(expr, params=params, opaque=opaque)
    assert m.case_id == cid
    for name, v in params.items():
        got = m.bindings[name]
        assert got == pytest.approx(v, rel=1e-8, abs=1e-8), (cid, name)
    if opaque:
        C = m.bindings["C"]
        for s in np.linspace(0.5, 2.0, 7):
            assert C(s) == pytest.approx(_OPAQUE_FN[cid](s), rel=1e-8, abs=1e-8)


@pytest.mark.parametrize("cid", ["1.1a", "1.4a", "1.4b", "1.5a", "1.6", "1.8a", "1.8b", "1.2b"])
def test_match_recovers_templates_from_samples_only(cid):
    rng = np.random.default_rng(zlib.crc32(("s" + cid).encode()))
    params = _random_params(rng, _CASE_PARAM_NAMES[cid])
    opaque = {"C": _OPAQUE_FN[cid]} if cid in _OPAQUE_FN else None
    f = ex.instantiate(cid, params, opaque)
    m = ex.match_case(f)
    assert m.case_id == cid
    for name, v in params.items():
        assert m.bindings[name] == pytest.approx(v, rel=1e-7, abs=1e-7), (cid, name)


def test_match_13_from_samples():
    params = {"lam": 1.3, "c0": 0.8}
    f = ex.instantiate("1.3", params, {"C": _OPAQUE_FN["1.3"]})
    m = ex.match_case(f)
    assert m.case_id == "1.3"
    assert m.bindings["lam"] == pytest.approx(1.3, rel=1e-6)
    assert m.bindings["c0"] == pytest.approx(0.8, rel=1e-6)


def test_ambiguous_match_carries_sorted_candidates():
    from liesolve.errors import AmbiguousMatch
    from liesolve.exprlang.match import CaseMatch

    matches = [CaseMatch("1.2a", {}, 1e-12), CaseMatch("1.4b", {}, 1e-12)]
    exc = AmbiguousMatch(sorted(matches, key=lambda m: ex.CASE_ORDER.index(m.case_id)))
    assert [m.case_id for m in exc.matches] == ["1.4b", "1.2a"]
    assert "2 templates" in str(exc)

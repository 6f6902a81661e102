"""Expression-language tests: parser, evaluator, matching.  The compiled
evaluator is checked against the tree walker it replaced, kept here as the
reference: on floats, float lanes, Dual2 lanes and nested Dual2 lanes, every
lane is bitwise the reference at its point, or the lanes raise and a rerun
one lane at a time gives the reference's error."""

import math
import re
import sys
import threading
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liesolve import exprlang as ex
from liesolve import hyperdual as hd
from liesolve import numdiff
from liesolve.errors import EvalDomainError, ExprSyntaxError, LiesolveError, UnboundSymbol
from liesolve.exprlang import ast as A
from liesolve.reductions import catalog

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


@pytest.mark.parametrize(
    "src, operation",
    [("exp(1000)", "exp"), ("10^400", "power (^)"), ("1e308^1e308", "power (^)")],
)
def test_overflow_is_a_domain_error_naming_its_operation(src, operation):
    f = ex.compile_expr(ex.parse(src), ("x", "y"))
    with pytest.raises(EvalDomainError, match=rf"^{re.escape(operation)} overflowed"):
        f(1.0, 2.0)
    with pytest.raises(EvalDomainError, match=rf"^{re.escape(operation)} overflowed"):
        f(hd.float_lanes([1.0, 0.5]), hd.float_lanes([2.0, 0.5]))
    # the classifier reads the overflowing constant as not evaluable
    assert not ex.match_case(ex.parse(src))


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


def test_unbound_symbols_raise_when_called_not_when_compiled():
    for src in ("a*x", "C(x)", "theta"):
        f = ex.compile_expr(ex.parse(src), ("x",))
        with pytest.raises(UnboundSymbol):
            f(1.0)
    for binding in (3.0, (math.sin, 3.0)):
        with pytest.raises(EvalDomainError, match="must be callable"):
            ex.compile_expr(ex.parse("C(x)"), ("x",), opaque={"C": binding})


def test_polar_variables_are_derived_once_per_call(monkeypatch):
    calls = []
    theta = A._POLAR["theta"]
    monkeypatch.setitem(A._POLAR, "theta", lambda x, y: calls.append(1) or theta(x, y))
    f = ex.compile_expr(ex.parse("theta + theta*r_polar + theta"), ("x", "y"))
    for _ in range(3):
        f(1.0, 1.0)
    assert len(calls) == 3
    assert ex.compile_expr(ex.parse("x + 2*y"), ("x", "y"))(0.0, 0.0) == 0.0


def test_one_compiled_potential_serves_many_threads():
    # the polar variables live in a per-call environment, not in the closure
    f = ex.compile_expr(ex.parse("C(theta)/r_polar^2 + c0"), ("x", "y"),
                        {"c0": 0.3}, {"C": lambda s: 2.0 + hd.sin(s)})
    pts = [(math.cos(k), 1.5 * math.sin(k)) for k in np.linspace(0.1, 6.0, 40)]
    want = [f(*pt) for pt in pts]
    got = {}

    def work(k):
        got[k] = [[f(*pt) for pt in pts] for _ in range(20)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(run == want for runs in got.values() for run in runs) and len(got) == 6


# -- the reference: the tree walker the compiled evaluator replaced ------------


class _ReferenceOpaque:
    def __init__(self, name, binding):
        self.name = name
        self.fns = (binding,) if callable(binding) else tuple(binding)

    def call(self, prime, z):
        if prime < len(self.fns):
            f = self.fns[prime]
        else:
            base = self.fns[-1]
            k = prime - (len(self.fns) - 1)
            if k == 1:
                f = lambda v: numdiff.d1(base, v, 1e-5)
            elif k == 2:
                f = lambda v: numdiff.d2(base, v, 1e-5)
            else:
                raise EvalDomainError(
                    f"opaque symbol {self.name} needs derivative order {prime}, "
                    f"only {len(self.fns) - 1} provided"
                )
        if isinstance(z, hd.Dual2):
            f0 = self.call(prime, z.a)
            f1 = self.call(prime + 1, z.a)
            f2 = self.call(prime + 2, z.a)
            return hd._chain1(z, f0, f1, f2)
        return f(z)


_REFERENCE_FUNC = {"exp": hd.exp, "ln": hd.log, "sin": hd.sin, "cos": hd.cos,
                   "sqrt": hd.sqrt, "arctan": hd.atan}


def _reference_evaluate(e, point, params, opaque):
    """One float or scalar Dual2 point, one recursive walk of the tree."""
    point = dict(point)
    opaque = {k: _ReferenceOpaque(k, v) for k, v in (opaque or {}).items()}

    def ev(n):
        if isinstance(n, A.Num):
            return n.value
        if isinstance(n, A.Var):
            if n.name not in point:
                if n.name not in A._POLAR or "x" not in point or "y" not in point:
                    raise UnboundSymbol(f"variable {n.name} not bound")
                point[n.name] = A._POLAR[n.name](point["x"], point["y"])
            return point[n.name]
        if isinstance(n, A.Param):
            if n.name not in params:
                raise UnboundSymbol(f"parameter {n.name} not bound")
            return params[n.name]
        if isinstance(n, A.Neg):
            return -ev(n.operand)
        if isinstance(n, A.Call):
            z = ev(n.arg)
            if not n.opaque:
                zv = hd.value(z)
                if n.fn == "ln" and zv <= 0:
                    raise EvalDomainError(f"ln of non-positive value {zv}")
                if n.fn == "sqrt" and zv < 0:
                    raise EvalDomainError(f"sqrt of negative value {zv}")
                return _REFERENCE_FUNC[n.fn](z)
            if n.fn not in opaque:
                raise UnboundSymbol(f"opaque function {n.fn} not bound")
            return opaque[n.fn].call(n.prime, z)
        a = ev(n.left)
        b = ev(n.right)
        if n.op == "+":
            return a + b
        if n.op == "-":
            return a - b
        if n.op == "*":
            return a * b
        if n.op == "/":
            if hd.value(b) == 0:
                raise EvalDomainError("division by zero")
            return a / b
        av, bv = hd.value(a), hd.value(b)
        if av == 0 and bv < 0:
            raise EvalDomainError("zero raised to a negative power")
        if av < 0 and bv != int(bv):
            raise EvalDomainError("negative base with non-integer exponent")
        if isinstance(b, hd.Dual2):
            return a**b
        return a ** (int(bv) if bv == int(bv) and av < 0 else bv)

    out = ev(e)
    if not math.isfinite(hd.value(out)):
        raise EvalDomainError("evaluation produced a non-finite value")
    return out


# -- lanes against the reference -------------------------------------------------

VARS = ("x", "y", "t", "S")
# seed patterns (i, j) over (x, y, t, S): e1 on VARS[i], e2 on VARS[j]
SEEDS = ((0, 1), (2, 3), (0, 0), (1, None), (3, 0))
CAUGHT = (TypeError, ValueError, ArithmeticError, LiesolveError)

# an opaque binding with four derivative orders, on hd functions and powers
_CHAIN = (
    lambda s: 2.0 + hd.sin(s) + 0.1 * s**3,
    lambda s: hd.cos(s) + 0.3 * s**2,
    lambda s: -hd.sin(s) + 0.6 * s,
    lambda s: -hd.cos(s) + 0.6,
    lambda s: hd.sin(s),
)


def _pinned_templates():
    """Every catalog template at the draws of tests/test_catalog_pins.py."""
    out = []
    for cid, case in sorted(catalog().items()):
        for seed in (0, 1, 2):
            params = case.draw_params(np.random.default_rng(seed))
            out.append((f"{cid}/{seed}", case.template, params, case.opaque_binding(params)))
    return out


SOURCES = [(src, src, None, {"C": _CHAIN}) for src in CORPUS] + _pinned_templates()


def _outcome(call):
    try:
        return call()
    except CAUGHT as err:
        return type(err).__name__, str(err)


def _slots(out, n):
    """Per point, the hex of each slot of out (nested Dual2 slots flattened)."""
    if not isinstance(out, hd.Dual2):
        return [[float(v).hex()] for v in np.broadcast_to(out, (n,)).tolist()]
    parts = [_slots(s, n) for s in (out.a, out.b, out.c, out.d)]
    return [sum(lane, []) for lane in zip(*parts)]


def _nested(f, lanes):
    """A function of every slot of a (0, 1)-seeded pass of f: under an
    enclosing pass, f sees nested Dual2 arguments."""

    def g(*args):
        if lanes:
            (p,) = hd.lane_pass(f, args, ((0, 1),))
        else:
            p = hd._seeded_pass(f, args, 0, 1)
        return p.a * p.d + p.b - p.c * args[2]

    return g


def _lane_modes(pts):
    """Per mode: f on lanes, the rerun of that call one lane at a time, and
    the reference point by point, each giving one hex list per point (per
    seed pattern and point for the jets)."""
    n = len(pts)
    lanes = hd.float_lanes(np.transpose(pts))

    def floats(f):
        return [_slots(f(*pt), 1)[0] for pt in pts]

    def jets(g):
        return [row for out in hd.lane_pass(g, lanes, SEEDS) for row in _slots(out, n)]

    def ref_jets(g):
        return [_slots(hd._seeded_pass(g, pt, i, j), 1)[0] for i, j in SEEDS for pt in pts]

    return [
        ("floats", floats, floats, floats),
        ("float lanes", lambda f: _slots(f(*lanes), n),
         lambda f: _slots(hd.per_lane(f)(*lanes), n), floats),
        ("Dual2 lanes", jets, lambda f: jets(hd.per_lane(f)), ref_jets),
        ("nested Dual2 lanes", lambda f: jets(_nested(f, True)),
         lambda f: jets(hd.per_lane(_nested(f, False))), lambda ref: ref_jets(_nested(ref, False))),
    ]


coord = st.floats(min_value=-2.0, max_value=2.0)
lane_points = st.lists(
    st.tuples(coord, coord, st.floats(0.2, 2.0), st.floats(0.1, 3.0)), min_size=1, max_size=5
)


@settings(max_examples=60, deadline=None)
@given(source=st.sampled_from(SOURCES), pts=lane_points, data=st.data())
def test_lanes_are_bitwise_the_reference_walker(source, pts, data):
    _, src, params, opaque = source
    e = ex.parse(src)
    if params is None:
        names = sorted(ex.free_parameters(e))
        values = data.draw(st.lists(st.floats(0.5, 2.0), min_size=len(names), max_size=len(names)))
        params = dict(zip(names, values))
    f = ex.compile_expr(e, VARS, params, opaque)

    def ref(*v):
        return _reference_evaluate(e, dict(zip(VARS, v)), params, opaque)

    for mode, on_lanes, rerun, reference in _lane_modes(pts):
        want = _outcome(lambda: reference(ref))
        with np.errstate(**hd.LANE_ERRSTATE):
            got = _outcome(lambda: on_lanes(f))
            if mode == "floats" or got == want:
                assert got == want, mode
                continue
            # lanes raise at a point where the reference raises, or where a
            # lane pass meets inf * 0 (LANE_ERRSTATE); one lane at a time
            # then gives the reference's values or its error
            assert isinstance(got, tuple), (mode, got)
            assert _outcome(lambda: rerun(f)) == want, mode


@pytest.mark.parametrize(
    "src, bad",
    [
        ("ln(x)", 0.0),
        ("sqrt(x) + 1", -2.0),
        ("1/x", 0.0),
        ("x^(-1)", 0.0),
        ("x^0.5", -1.0),
        ("1e300*x*x", 1e10),  # a non-finite result
    ],
    ids=["ln", "sqrt", "div", "zero-neg-power", "neg-fractional-power", "non-finite"],
)
def test_a_domain_error_at_one_lane_raises_and_reruns_one_lane_at_a_time(src, bad):
    f = ex.compile_expr(ex.parse(src), ("x",))
    good = [1.5, 0.7]
    xs = hd.float_lanes([good[0], bad, good[1]])
    with pytest.raises(EvalDomainError):
        f(xs)
    # in a jet pass, inf * 0 in a derivative slot can raise FloatingPointError first
    with pytest.raises(EvalDomainError if src != "1e300*x*x" else FloatingPointError):
        hd.lane_pass(f, (xs,), ((0, 0),))
    # one lane at a time: the scalar error, or the scalar values
    assert _outcome(lambda: hd.per_lane(f)(xs)) == _outcome(lambda: f(bad))
    want = [f(v).hex() for v in good]
    assert [v.hex() for v in hd.per_lane(f)(hd.float_lanes(good)).tolist()] == want
    assert [v.hex() for v in f(hd.float_lanes(good)).tolist()] == want


@pytest.mark.parametrize(
    "src, variables, points, bad",
    [
        (
            "x^y",
            ("x", "y"),
            [(1.5, 2.5), (0.7, -1.0), (-2.0, 3.0), (-1.5, -2.0), (0.0, 2.0)],
            [(0.0, -1.0), (-2.0, 0.5)],  # zero to a negative power, negative base to 0.5
        ),
        ("2^x", ("x",), [(0.5,), (-1.5,), (3.0,), (0.0,), (-1e-3,)], []),
    ],
    ids=["x^y", "2^x"],
)
def test_an_exponent_with_lanes_is_bitwise_the_scalar_call(src, variables, points, bad):
    f = ex.compile_expr(ex.parse(src), variables)
    lanes = [hd.float_lanes(col) for col in zip(*points)]
    want = [f(*pt).hex() for pt in points]
    assert [v.hex() for v in f(*lanes).tolist()] == want
    positive = [pt for pt in points if min(pt) > 0.0]
    jets = hd.derivative(f, [hd.float_lanes(col) for col in zip(*positive)], 0)
    assert [v.hex() for v in jets.tolist()] == [hd.derivative(f, pt, 0).hex() for pt in positive]
    for pt in bad:
        with pytest.raises(EvalDomainError):
            f(*pt)
        with pytest.raises(EvalDomainError):
            f(*(hd.float_lanes(col) for col in zip(*points, pt)))


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

"""Jet-layer tests: the Dual2 layout, bitwise equality of merged and separate
seeded passes, and golden digests of the criterion-2 residuals."""

import hashlib

import numpy as np
import pytest

from liesolve import exprlang as ex
from liesolve import hyperdual as hd
from liesolve.errors import DomainError
from liesolve.fields import random_smooth_field
from liesolve.reductions import catalog
from liesolve.symmetry import compatibility_condition, infinitesimals, symmetry_residual

POINTS = [(0.7, -0.4, 1.3), (1.9, 0.6, 0.45)]


def test_dual2_has_no_instance_dict():
    z = hd.Dual2(1.0, 2.0)
    assert not hasattr(z, "__dict__")
    assert (z.a, z.b, z.c, z.d) == (1.0, 2.0, 0.0, 0.0)


# -- test functions of (x, y, t); x0 makes a base vanish at the first point ----

X0 = POINTS[0][0]


def _ring(x, y, t):
    return (x + y - t + 2.0) * (x * y - 3.0) - (t - x) / (y - 2.0) + 1.5 / (x * t) - x / 4.0


def _power(p):
    def f(x, y, t):
        return (x - X0) ** p * y + (y * t + 2.0) ** p + 3.0 ** (x * t)

    return f


def _elementary(x, y, t):
    return (
        hd.exp(x * y)
        + hd.log(t + 2.0)
        + hd.sqrt(x * x + y * y + t)
        + hd.sin(x - t) * hd.cos(y)
        + hd.atan(x * y * t)
        + hd.atan2(y, x * t + 3.0)
    )


_OPAQUE_EXPR = ex.parse("C_prime(x*y + x^2)*(y + 2*x)*y + C_prime(x - y)")
_OPAQUE = {"C": (hd.sin, hd.cos, lambda v: -hd.sin(v), lambda v: -hd.cos(v), hd.sin, hd.cos)}


def _opaque(x, y, t):
    return ex.evaluate(_OPAQUE_EXPR, {"x": x * t, "y": y}, opaque=_OPAQUE)


PLAIN = {
    "ring": _ring,
    "pow0": _power(0),
    "pow1": _power(1),
    "pow2": _power(2),
    "pow2.5": _power(2.5),
    "elementary": _elementary,
    "opaque": _opaque,
}


def _nested(f, merged):
    """A field whose value is built from first derivatives of f."""

    def g(x, y, t):
        if merged:
            fx, fy = hd.derivative_pair(f, (x, y, t), 0, 1)
        else:
            fx = hd.derivative(f, (x, y, t), 0)
            fy = hd.derivative(f, (x, y, t), 1)
        return fx * y + fy * x * t + hd.derivative(f, (x, y, t), 2)

    return g


def _hex(*vals):
    return [float(v).hex() for v in vals]


def _assert_merged_equals_separate(merged, separate, pt):
    for i, j in ((0, 1), (2, 0), (1, 2)):
        got = hd.derivative_pair(merged, pt, i, j)
        want = (hd.derivative(separate, pt, i), hd.derivative(separate, pt, j))
        assert _hex(*got) == _hex(*want), (i, j)
    for i in range(3):
        _, first, second = hd.jet(merged, pt, i)
        want = (hd.derivative(separate, pt, i), hd.derivative(separate, pt, i, order=2))
        assert _hex(first, second) == _hex(*want), i


@pytest.mark.parametrize("pt", POINTS)
@pytest.mark.parametrize("name", sorted(PLAIN))
def test_merged_passes_bitwise_equal_separate_passes(name, pt):
    f = PLAIN[name]
    _assert_merged_equals_separate(f, f, pt)


# a nested pass of x**2.5 at x = 0 takes the derivative of 0**0.5, which is
# infinite, so that pair raises a DomainError instead (test below)
NESTED = [(n, pt) for n in sorted(PLAIN) for pt in POINTS if (n, pt) != ("pow2.5", POINTS[0])]


@pytest.mark.parametrize("name, pt", NESTED)
def test_nested_merged_passes_bitwise_equal_separate_passes(name, pt):
    f = PLAIN[name]
    assert _hex(_nested(f, True)(*pt)) == _hex(_nested(f, False)(*pt))
    _assert_merged_equals_separate(_nested(f, True), _nested(f, False), pt)


@pytest.mark.parametrize("merged", [True, False])
def test_nested_power_with_infinite_derivative_is_a_domain_error(merged):
    with pytest.raises(DomainError, match=r"x\*\*2\.5 "):
        hd.jet(_nested(PLAIN["pow2.5"], merged), POINTS[0], 0)
    with pytest.raises(DomainError, match=r"x\*\*0\.5 "):
        hd.Dual2(0.0, 1.0) ** 0.5


# sha256 per catalog case of the compatibility residual and three invariance
# residuals at each of five fixed draws, recorded with one seeded pass per
# first derivative and a frozen-dataclass Dual2.  Taking the value of E or u
# from a seeded pass instead of a float pass changes five of these digests.
RESIDUAL_GOLDEN = {
    "1.1a": "59be2bd5f483ddb16978ff612084444c48bdfaba130c5bff952e29fe7a50248b",
    "1.1b": "8540b9c2aa20efae6721d91dfa3615b89da82a0e99d60fdf0d6f768c235fa6f7",
    "1.2a": "82ef22da1030d1c907e19cf32fa26897aa6c65ddeeb97783d32c49efcde237ce",
    "1.2b": "2b539c16384f0532ed69562cd6883f24961ef728a4eacaaf3d2d7f40668ae570",
    "1.3": "f80524dc9ca9d8731c0ecd2fd2bf8fa53155a50c14e822125fd6b2903eed8d9d",
    "1.4a": "95458d55cbd4eb0ea5dde9bd723267190f96df3e837b835cd9d45da9c8257ff6",
    "1.4b": "f1a1eb5ef121836b81cc04e70a313b7c20039a088993fa86d5bf8045b8227288",
    "1.5a": "904044f43bb46f503c4ffaddbd39c058cb575080dd7f4bd76e1388212c75cc4e",
    "1.6": "5593aa4e2d685b4ba057f9042f63a912a83f03e4751b0fc00ad68cd8007f274d",
    "1.8a": "17535dba9ed91b8bc60bccbe62d008bbd1fb8cbe854668225fa9e79939d43380",
    "1.8b": "066ad87b92a7f7b7f188d8fd692f071a95996a0ef3112963c0cd28ece457b877",
}


def test_residual_golden_digests():
    got = {}
    for i, (cid, case) in enumerate(catalog().items()):
        h = hashlib.sha256()
        for draw in range(5):
            rng = np.random.default_rng([5, i, draw])
            params = case.draw_params(rng)
            M = case.potential_field(params)
            data = case.symmetry_data(params)
            pts = case.region_xyt(params, n=6, seed=draw)
            vf = infinitesimals(data)
            h.update(compatibility_condition(data, M, points=pts).hex().encode())
            for _ in range(3):
                u = random_smooth_field(rng, nargs=3)
                h.update(symmetry_residual(vf, M, u, points=pts).hex().encode())
        got[cid] = h.hexdigest()
    assert got == RESIDUAL_GOLDEN

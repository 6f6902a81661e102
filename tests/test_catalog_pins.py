"""Per-case pins of the catalog's pieces.

For each catalog case and the draws ``draw_params(default_rng(s))`` at
s = 0, 1, 2, one sha256 digest over the ``float.hex`` form of

* the ``region_xyt`` and ``region_sim`` points;
* ``to_sim``, ``prefactor_log`` and ``jacobian`` of the similarity map at the
  first three ``region_xyt`` points;
* f1-f4 of the symmetry data at two times, and its rotation constant ``k``;
* the reduced operator on a fixed ``random_smooth_field`` at the first three
  ``region_sim`` points;
* ``closed_form(params, {})`` at those points, which uses the case's own
  default constants, or the typed error and message it ends in.

An evaluation that raises a typed error contributes the error name and
message instead of its value.  A refactor of the catalog must keep every
digest.  The digests depend on the floating-point results of numpy, scipy
and the C math library; they were recorded with Python 3.11, numpy 2.4 and
scipy 1.17 on x86-64 Linux.
"""

import hashlib

import numpy as np
import pytest

from liesolve import hyperdual as hd
from liesolve.errors import LiesolveError
from liesolve.fields import random_smooth_field
from liesolve.reductions import get_case

TIMES = (0.4, 0.9)

# (case, seed) -> digest; 1.2a, 1.2b, 1.8a and 1.8b were re-recorded when
# the ODE factor moved from DOP853 at rtol 1e-10 to one Chebyshev spectral
# solve: only their closed-form values moved, by at most 7.0e-11 of max |P|.
# 1.1b was re-recorded when its factor became the real Frobenius pair: only
# its three closed-form values moved, each to the old one divided by
# cos(pi (2 mu + 1)/4) w^(mu + 1/2) of both factors (within 7e-15), and the
# first point's, at eta < 0, with its sign flipped, as the eta factor is now
# odd rather than the even reflection
PINS = {
    ("1.1a", 0): "0aea81b9a761518cb6d9e578f381e4b23aeb2d75b5e06b5c3de32ee74f66b989",
    ("1.1a", 1): "e27e7b88f6b09f768e69ecf137891a6f383ec44681b86cb5235d732d4853dfe5",
    ("1.1a", 2): "a658390b5efc48a6209060225954526098d14730599435d1ee4319647fdde4b2",
    ("1.1b", 0): "349123ec30c57eb4d81c1ae1179965f965611e56af49c456200312ebc5dad884",
    ("1.1b", 1): "e5b41fcf9a9c37a754587cba752240b43965bf456b4efc9488f7ae8384d4fcff",
    ("1.1b", 2): "05e24b3b0a7393b2bc38884f874568df32281116b157015240096b66d8516fa3",
    ("1.2a", 0): "ed3c9a1a6d690bf63727aa588de3b5f83362fa6d9e0d0a25479c93afe16a9a78",
    ("1.2a", 1): "29931fb613137cb13ea5237a9174720d6028685f68f2f21466ed7115d7237fe8",
    ("1.2a", 2): "5da1d9ed19324b554c0aeb31c36007cc14b4775a0027bcae490eff44893668d0",
    ("1.2b", 0): "1adc16d145de0bf394036d2149011d7c694b382013f04cbddc3732e1a5c41997",
    ("1.2b", 1): "1a04876506cfb7bc7412efced6f1813ec0efc0a3484831d12c3efd7e391277ba",
    ("1.2b", 2): "ce162d4b22b99fbb65d7728b2902a0e6f8c993b84c79c243587d045f8f699ebf",
    ("1.3", 0): "f6d2a35e23af1f61f97a3df68225291d5a5be212ee8cabf1018bf0278abd4d89",
    ("1.3", 1): "fce1ecd130e9dfab0bdc7302c9a3d203fcc44783f95fd2b33922b638dc7d0418",
    ("1.3", 2): "bfe7c38bcc2dcc0a9f5081205e65314cc54ea6858d901984b9633e611f7a5c42",
    ("1.4a", 0): "6d7d41971e64a965abb80f1914d3b77cb2067a6d7832f4c0518baa586c86a7f6",
    ("1.4a", 1): "87b1b4aaa9c8d4124f97d1c6aa58246f24141b26668545dbdefc4c98b5fd1a13",
    ("1.4a", 2): "c82becda0efb6ec133c44c40c0a05382c1e4ed9f30b029e5e7e85e0849055978",
    ("1.4b", 0): "93a150ae21abe744db0095add6b5c8ea9eb0d495f5e872913c1565675948a2c7",
    ("1.4b", 1): "9816d3f20ccaef0bb0a4b8f96935c69b6518b9b821c6d6d5335c6b40ff6021e7",
    ("1.4b", 2): "cd2ab67bcfd7243f18e887d6c2da40610e3d36f63395a013d013f32ad4f1bb54",
    ("1.5a", 0): "435afe21e538c790a984c1a4d5ec3d4b6fd4e5def8d9f3da4752dc9a88bf200f",
    ("1.5a", 1): "b21b90bd44bb5831868a4cbf4cb42a383c399c679daecb6e7f4aeafc71a8c137",
    ("1.5a", 2): "7b4ea66a9561ede22748cb941ef390b5fad5452e37a0e791674dd3cd3fa9ada6",
    ("1.6", 0): "168d05c6b52b31d464a74c902cf8b26357c9bc251384a1c0e7c1835852d91a56",
    ("1.6", 1): "4f6d8992b9e9abf42d58bca094cdf931921e7c10dc0c83e564982a738a2c941b",
    ("1.6", 2): "399d8cc799750f798c04c65534d57638ea1354f46e49d5134d5d0c4a2c75f372",
    ("1.8a", 0): "5a74c28ad171b6d69f94fb0ef6b37376c56023df3d0a5b055880de2fb8ef1f40",
    ("1.8a", 1): "c2c4d51898099f9e2e2df1b43e6446d86206bd5da842d4321d87e1eeb218b933",
    ("1.8a", 2): "1bb2f160732bfdbb8dfc626b107689237acbb80329c7341159415b966b7f7054",
    ("1.8b", 0): "b599f855906dcebef22375b75542c6329d56cc78890036dfa558b4d4cb6dacb2",
    ("1.8b", 1): "d6755bb93849e0172653703e3129ca26eab82980479fe8e21d5da2d5ca211784",
    ("1.8b", 2): "2f3886082314afe9bf249c1636a9614b56e53cea30c61ea89f98323f1e471421",
}


def _values(fn, *args):
    """``float.hex`` of each value ``fn(*args)`` returns, or the typed error."""
    try:
        out = fn(*args)
    except (LiesolveError, ArithmeticError, ValueError) as e:
        return [f"{type(e).__name__}: {e}"]
    return [float(hd.value(v)).hex() for v in (out if isinstance(out, tuple) else (out,))]


def case_pieces(cid, seed):
    """The tokens hashed for one case and one parameter draw."""
    case = get_case(cid)
    params = case.draw_params(np.random.default_rng(seed))
    xyt = case.region_xyt(params)
    sim = case.region_sim(params)
    lines = [" ".join(float(v).hex() for v in pt) for pt in xyt + sim]

    smap = case.similarity(params)
    for pt in xyt[:3]:
        for fn in (smap.to_sim, smap.prefactor_log, smap.jacobian):
            lines += _values(fn, *pt)

    sym = case.symmetry_data(params)
    lines.append(float(sym.k).hex())
    for f in (sym.f1, sym.f2, sym.f3, sym.f4):
        for t in TIMES:
            lines += _values(f, t)

    P = random_smooth_field(np.random.default_rng(2024), nargs=2)
    op = case.reduced_operator(params)
    for pt in sim[:3]:
        lines += _values(op, P, *pt)

    try:
        sol = case.closed_form(params, {})
    except LiesolveError as e:
        lines.append(f"{type(e).__name__}: {e}")
    else:
        for pt in sim[:3]:
            lines += _values(sol.P, *pt)
    return lines


def digest(cid, seed):
    return hashlib.sha256("\n".join(case_pieces(cid, seed)).encode()).hexdigest()


@pytest.mark.parametrize("cid, seed", sorted(PINS))
def test_case_pieces_are_pinned(cid, seed):
    assert digest(cid, seed) == PINS[cid, seed]

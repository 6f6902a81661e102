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

# (case, seed) -> digest
PINS = {
    ("1.1a", 0): "0aea81b9a761518cb6d9e578f381e4b23aeb2d75b5e06b5c3de32ee74f66b989",
    ("1.1a", 1): "e27e7b88f6b09f768e69ecf137891a6f383ec44681b86cb5235d732d4853dfe5",
    ("1.1a", 2): "a658390b5efc48a6209060225954526098d14730599435d1ee4319647fdde4b2",
    ("1.1b", 0): "47357584115fc38e798ad0159bb3ad79659ce1ba0b45e94b849c6e3c269eb229",
    ("1.1b", 1): "10c0fb8de91e560a5fce35cbe256e0233bee5d488d21a21428bf0b678b69ace8",
    ("1.1b", 2): "52ce320eb1b5cde3d44df9511f597c76c08e56c9c34472b61d37bb082038f066",
    ("1.2a", 0): "78cfe75814b3835559c52be1369db8061315d040b2339582462d34cc072865bb",
    ("1.2a", 1): "23ad51c82856db03067ce0f0fd8e5317dc93784ae4e1a6bc40151c7f0908d5af",
    ("1.2a", 2): "58d739d8b305f8435e676ccca96aa7f88361571c02fb6c3bd9fed76bcefdfed7",
    ("1.2b", 0): "609bfae5df6b7e4552972ed13aba328f8001b54b16108093ca488fe535474d37",
    ("1.2b", 1): "fa1eb9b38fa2edca0da959822fee782ed85605a114584427f29cc07f75302d0c",
    ("1.2b", 2): "d8d1c4f1b9a1726740d67c0b22ac6f267da9bc1af9606c3ccfce9bf986ed9c54",
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
    ("1.8a", 0): "17a2db7bba293b46b10c5f93af1fc77fdf64b9218eda469b05175f90eecc6a66",
    ("1.8a", 1): "87943e21aa5ca5c8085e569e3ea8232d0b0e1ffba58648e8c99a8ad0edf26553",
    ("1.8a", 2): "4f1f5f04c55d4ac47f486ea8f87f8d107cb23c0e1481bb4e272c818354dd2012",
    ("1.8b", 0): "6315646a2253a38f4d3766c6c1604fbfa1995d337b4206fc56416a4d6297f3f2",
    ("1.8b", 1): "00638ea43355e96b8c029b733aa5f7f07d95886891d7fb9cf3975f33cff2486e",
    ("1.8b", 2): "f12e2af3887d4b732e703d4b8b1020bf7de7a586d9246e8e8e275751545b23c9",
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

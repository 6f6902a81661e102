"""The reduction catalog: eleven potential families.  A
:class:`CaseReduction` is the one home of a case's metadata and bundles

* the potential template (from ``exprlang.TEMPLATE_SOURCES``), the parameter
  names, the parameters fixed in every draw, and the ``reduce`` summary,
* the admissible generator data,
* the similarity map (from :mod:`.maps`),
* the reduced operator on the similarity variables,
* the separated closed form (where one exists),
* sampling-region builders that avoid the singular loci.

One function per case binds its parameters once: it reads each parameter,
builds the similarity map and the generator data, and returns them with the
reduced operator, the closed-form builder and the region builders as one
:class:`Pieces` tuple.  The metadata of the eleven cases sits in one table
in :func:`catalog`.

Reduced operators are written exactly as verified by the Jacobian-ratio
consistency check; factor ODE conventions are

    F1: second-order in the first variable with separation constant c1,
    F2: carries the complementary constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .. import hyperdual as hd
from ..errors import NoClosedForm, SamplingError
from ..exprlang import TEMPLATE_SOURCES, instantiate
from ..fields import ScalarField
from ..symmetry import SymmetryData, exp_pair, poly
from . import maps as MP
from . import separated as SEP


@dataclass(frozen=True)
class SumTimeFn:
    parts: tuple

    def __call__(self, t):
        acc = 0.0
        for p in self.parts:
            acc = acc + p(t)
        return acc

    def d(self):
        return SumTimeFn(tuple(p.d() for p in self.parts))

    def is_zero(self):
        return all(p.is_zero() for p in self.parts)


def _lap_grad(P, xi, eta):
    """(P_xx + P_yy, P_x, P_y) at (xi, eta) from one jet along each axis."""
    _, px, pxx = hd.jet(P, (xi, eta), 0)
    _, py, pyy = hd.jet(P, (xi, eta), 1)
    return pxx + pyy, px, py


def _polar_jet(P, xi, eta):
    """(rho, theta, P, P_rho, P_rhorho, P_thetatheta) of a cartesian
    P(xi, eta) at one point, differentiated in polar form."""

    def Pp(rho, th):
        return P(rho * hd.cos(th), rho * hd.sin(th))

    rho = hd.hypot(hd.value(xi), hd.value(eta))
    th = hd.atan2(hd.value(eta), hd.value(xi))
    _, pr, prr = hd.jet(Pp, (rho, th), 0)
    ptt = hd.derivative(Pp, (rho, th), 1, order=2)
    return rho, th, Pp(rho, th), pr, prr, ptt


class Pieces(NamedTuple):
    """A case's pieces for one parameter binding."""

    similarity: MP.SimilarityMap
    symmetry: SymmetryData
    reduced: object  # callable(P, xi, eta): the catalog reduced operator
    closed: object  # callable(constants) -> SeparatedSolution, or None
    region_xyt: object  # callable(n, seed) -> [(x, y, t)]
    region_sim: object  # callable(n, seed) -> [(xi, eta)]


@dataclass
class CaseReduction:
    case_id: str
    case_params: tuple
    sym_params: tuple
    has_closed_form: bool
    summary: tuple  # (similarity variables, reduced equation), as `reduce` prints them
    _bind: object  # params -> Pieces
    _opaque_default: object = None
    fixed_params: dict = field(default_factory=dict)  # set over the draws of draw_params

    @property
    def template(self):
        return TEMPLATE_SOURCES[self.case_id]

    # -- potential ----------------------------------------------------------
    def potential_field(self, params, opaque=None):
        op = opaque if opaque is not None else self.opaque_binding(params)
        M = instantiate(self.case_id, params, op)
        return ScalarField(M, nargs=2, name=f"M[{self.case_id}]")

    def opaque_binding(self, params):
        if self._opaque_default is None:
            return None
        if "C" in params:
            return {"C": params["C"]}
        return {"C": self._opaque_default}

    # -- pieces ---------------------------------------------------------------
    def similarity(self, params) -> MP.SimilarityMap:
        return self._bind(params).similarity

    def symmetry_data(self, params) -> SymmetryData:
        return self._bind(params).symmetry

    def reduced_operator(self, params):
        """callable(P, xi, eta) evaluating the catalog reduced operator."""
        return self._bind(params).reduced

    def closed_form(self, params, constants):
        if not self.has_closed_form:
            raise NoClosedForm(f"case {self.case_id} has a reduced operator only")
        return self._bind(params).closed(constants)

    def region_xyt(self, params, n=30, seed=0):
        return self._bind(params).region_xyt(n, seed)

    def region_sim(self, params, n=40, seed=0):
        return self._bind(params).region_sim(n, seed)

    def draw_params(self, rng):
        out = {name: float(rng.uniform(0.5, 2.0)) for name in self.case_params + self.sym_params}
        out.update(self.fixed_params)
        return out


def _c_scalar(p, default):
    """The opaque factor as a plain callable (bindings may carry jets)."""
    C = p.get("C", default)
    if isinstance(C, (tuple, list)):
        return C[0]
    return C


# opaque defaults: smooth profiles with analytic derivative chains
_C_THETA = (
    lambda s: 2.0 + hd.sin(s) + 0.3 * hd.sin(2 * s),
    lambda s: hd.cos(s) + 0.6 * hd.cos(2 * s),
    lambda s: -hd.sin(s) - 1.2 * hd.sin(2 * s),
    lambda s: -hd.cos(s) - 2.4 * hd.cos(2 * s),
    lambda s: hd.sin(s) + 4.8 * hd.sin(2 * s),
)
_C_RADIAL = (
    lambda s: hd.exp(-s) + 0.2 * s**3,
    lambda s: -hd.exp(-s) + 0.6 * s**2,
    lambda s: hd.exp(-s) + 1.2 * s,
    lambda s: -hd.exp(-s) + 1.2,
    lambda s: hd.exp(-s),
)
_C_LINE = (
    lambda s: hd.sin(1.3 * s) + 0.1 * s**4 + 1.5,
    lambda s: 1.3 * hd.cos(1.3 * s) + 0.4 * s**3,
    lambda s: -1.69 * hd.sin(1.3 * s) + 1.2 * s**2,
    lambda s: -2.197 * hd.cos(1.3 * s) + 2.4 * s,
    lambda s: 2.8561 * hd.sin(1.3 * s) + 2.4,
)


def _annulus_points(n, seed, r_range=(0.5, 2.0), t_range=(0.3, 1.0), guard=None):
    rng = np.random.default_rng(seed)
    pts = []
    tries = 0
    while len(pts) < n and tries < 80 * n:
        tries += 1
        r = rng.uniform(*r_range)
        th = rng.uniform(-math.pi + 0.2, math.pi - 0.2)
        x, y = r * math.cos(th), r * math.sin(th)
        t = rng.uniform(*t_range)
        if guard is not None and guard(x, y, t):
            continue
        pts.append((x, y, t))
    if len(pts) < n:
        raise SamplingError("could not build a sampling set away from singular loci")
    return pts


def _sim_points(n, seed, xi_range=(0.4, 1.8), eta_range=(0.3, 1.5), need_xi_pos=False):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        xi = rng.uniform(*xi_range)
        if not need_xi_pos and rng.uniform() < 0.5:
            xi = -xi
        eta = rng.uniform(*eta_range)
        if rng.uniform() < 0.5:
            eta = -eta
        pts.append((xi, eta))
    return pts


def _polar_sim_points(n, seed, rho_hi=1.8, margin=0.25):
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(n):
        rho = rng.uniform(0.5, rho_hi)
        th = rng.uniform(-math.pi + margin, math.pi - margin)
        pts.append((rho * math.cos(th), rho * math.sin(th)))
    return pts


# ---------------------------------------------------------------------------
# case bindings: params -> Pieces
# ---------------------------------------------------------------------------


def _case_11a(p):
    C0, b, c0 = p["C0"], p["b"], p["c0"]
    d1, d2, b0, b1 = p["delta1"], p["delta2"], p["beta0"], p["beta1"]
    kap = 4.0 * (d2 * b0 * b0 - d1 * b0 * b1)

    def op(P, xi, eta):
        lap, px, py = _lap_grad(P, xi, eta)
        return (
            d1 * d1 * xi * xi * lap
            + d1**3 * xi**3 * px
            + d1**3 * xi * xi * eta * py
            + (kap * xi * xi - 2.0 * C0 * d1 * d1) * P(xi, eta)
        )

    def closed(c):
        c1 = c.get("c1", 1.0)
        F1 = SEP.whittaker_radial(d1, c1, C0, c.get("C1", 1.0), c.get("C2", 0.0))
        F2 = SEP.whittaker_radial(d1, kap / d1**2 - c1, 0.0, c.get("C3", 1.0), c.get("C4", 0.0))
        return SEP.SeparatedSolution(F1, F2, "cartesian")

    sym = SymmetryData(
        f1=poly(0.0, d1, d2),
        f3=poly(b0, b1, 0.75 * b * d1, 0.5 * b * d2),
        f4=poly(
            0.0,
            d2 + c0 * d1 + b * b0,
            0.5 * b * b1 + c0 * d2,
            0.25 * b * b * d1,
            0.125 * b * b * d2,
        ),
    )
    return Pieces(
        MP.map_11a(C0, b, c0, d1, d2, b0, b1),
        sym,
        op,
        closed,
        partial(_annulus_points, guard=lambda x, y, t: abs(x) < 0.4 or t < 0.25),
        partial(_sim_points, need_xi_pos=True),
    )


def _case_11b(p):
    C0, c, b, c0 = p["C0"], p["c"], p["b"], p["c0"]
    d1, d2, B1, B2 = p["delta1"], p["delta2"], p["beta1"], p["beta2"]

    def op(P, xi, eta):
        lap = _lap_grad(P, xi, eta)[0]
        return d1 * d2 * xi * xi * lap + (
            8.0 * c * d1**2 * d2**2 * xi * xi * (xi * xi + eta * eta)
            - xi * xi * (B1 * B1 * d2 + B2 * B2 * d1)
            - 2.0 * C0 * d1 * d2
        ) * P(xi, eta)

    def closed(c_):
        c1 = c_.get("c1", 1.0)
        w = math.sqrt(8.0 * c * d1 * d2)
        # separation of the normalized operator:
        #   F1'' + (w^2 xi^2 - 2 C0/xi^2 + s1) F1 = 0,  s1 = c1
        #   F2'' + (w^2 eta^2 + s2) F2 = 0, s1 + s2 = -(B1^2 d2 + B2^2 d1)/(d1 d2)
        s2 = -(B1 * B1 * d2 + B2 * B2 * d1) / (d1 * d2) - c1
        F1 = SEP.imag_whittaker_radial(w, c1, C0, c_.get("C1", 1.0), c_.get("C2", 0.0))
        F2 = SEP.imag_whittaker_radial(w, s2, 0.0, c_.get("C3", 1.0), c_.get("C4", 0.0))
        return SEP.SeparatedSolution(F1, F2, "cartesian")

    a = math.sqrt(2.0 * c)
    q = c0 + b * b / (4.0 * c)
    sym = SymmetryData(
        f1=exp_pair(d1, d2, 2 * a),
        f3=SumTimeFn((exp_pair(b * d1 / a, -b * d2 / a, 2 * a), exp_pair(B1, B2, a))),
        f4=SumTimeFn(
            (
                exp_pair((a + q) * d1, -(a - q) * d2, 2 * a),
                exp_pair(b * B1 / a, -b * B2 / a, a),
            )
        ),
    )
    return Pieces(
        MP.map_11b(C0, c, b, c0, d1, d2, B1, B2),
        sym,
        op,
        closed,
        partial(_annulus_points, guard=lambda x, y, t: abs(x) < 0.4, t_range=(-0.3, 0.6)),
        partial(_sim_points, xi_range=(0.4, 1.4), eta_range=(0.3, 1.2), need_xi_pos=True),
    )


def _case_12a(p):
    c0, d1, d2 = p["c0"], p["delta1"], p["delta2"]
    C = _c_scalar(p, _C_THETA)

    def op(P, xi, eta):
        rho, th, v, pr, prr, ptt = _polar_jet(P, xi, eta)
        return (
            rho * rho * prr
            + (d1 * rho**3 + rho) * pr
            + ptt
            - 2.0 * C(th) * v
        )

    def closed(c_):
        c1 = c_.get("c1", 1.0)
        F1 = SEP.bessel_radial_ik(d1, c1, c_.get("C1", 1.0), c_.get("C2", 0.0))
        F2 = SEP.ode_factor(
            lambda s: C(s), c1, (-math.pi, math.pi), c_.get("C3", 1.0), c_.get("C4", 0.0)
        )
        return SEP.SeparatedSolution(F1, F2, "polar")

    return Pieces(
        MP.map_12a(c0, d1, d2),
        SymmetryData(f1=poly(0.0, d1, d2), f4=poly(0.0, d2 + c0 * d1, c0 * d2)),
        op,
        closed,
        _annulus_points,
        _polar_sim_points,
    )


def _case_12b(p):
    c, c0, d1, d2 = p["c"], p["c0"], p["delta1"], p["delta2"]
    C = _c_scalar(p, _C_THETA)

    def op(P, xi, eta):
        rho, th, v, pr, prr, ptt = _polar_jet(P, xi, eta)
        return (
            rho * rho * prr
            + rho * pr
            + ptt
            + 2.0 * (4.0 * c * d1 * d2 * rho**4 - C(th)) * v
        )

    def closed(c_):
        c1 = c_.get("c1", 1.0)
        b = math.sqrt(2.0 * d1 * d2 * c)
        F1 = SEP.bessel_radial_jy(b, c1, c_.get("C1", 1.0), c_.get("C2", 0.0))
        F2 = SEP.ode_factor(
            lambda s: C(s), c1, (-math.pi, math.pi), c_.get("C3", 1.0), c_.get("C4", 0.0)
        )
        return SEP.SeparatedSolution(F1, F2, "polar")

    a = math.sqrt(2.0 * c)
    return Pieces(
        MP.map_12b(c, c0, d1, d2),
        SymmetryData(
            f1=exp_pair(d1, d2, 2 * a), f4=exp_pair((a + c0) * d1, -(a - c0) * d2, 2 * a)
        ),
        op,
        closed,
        partial(_annulus_points, t_range=(-0.3, 0.6)),
        partial(_polar_sim_points, rho_hi=1.6),
    )


def _case_13(p):
    lam, c0, k = p["lam"], p["c0"], p.get("k", 1.0)
    C = _c_scalar(p, _C_THETA)

    def op(P, xi, eta):
        rho2 = xi * xi + eta * eta
        rho = hd.sqrt(hd.value(rho2))
        th = hd.atan2(hd.value(eta), hd.value(xi))
        lap, px, py = _lap_grad(P, xi, eta)
        s = lam * hd.log(rho) + th
        return rho2 * (lap + (xi + lam * eta) * px + (eta - lam * xi) * py) - 2.0 * C(
            s
        ) * P(xi, eta)

    return Pieces(
        MP.map_13(lam, c0, k),
        SymmetryData(k=k, f1=poly(0.0, 2 * k / lam), f4=poly(0.0, 2 * k * c0 / lam)),
        op,
        None,
        _annulus_points,
        partial(_polar_sim_points, margin=0.2),
    )


def _case_14a(p):
    d1, C0 = p["delta1"], p["C0"]

    def op(P, xi, eta):
        rho2 = xi * xi + eta * eta
        lap, px, py = _lap_grad(P, xi, eta)
        return rho2 * lap + d1 * rho2 * (xi * px + eta * py) - 2.0 * C0 * P(xi, eta)

    def closed(c_):
        c1 = c_.get("c1", 2.0 * C0 + 1.0)
        F1 = SEP.bessel_radial_ik(d1, c1, c_.get("C1", 1.0), c_.get("C2", 0.0))
        F2 = SEP.trig_angular(c1, C0, c_.get("C3", 1.0), c_.get("C4", 0.0))
        return SEP.SeparatedSolution(F1, F2, "polar")

    return _case_12a(p)._replace(reduced=op, closed=closed)


def _case_14b(p):
    c, C0, d1, d2 = p["c"], p["C0"], p["delta1"], p["delta2"]

    def op(P, xi, eta):
        rho2 = xi * xi + eta * eta
        lap = _lap_grad(P, xi, eta)[0]
        return rho2 * lap + 2.0 * (4.0 * c * d1 * d2 * rho2 * rho2 - C0) * P(xi, eta)

    def closed(c_):
        c1 = c_.get("c1", 2.0 * C0 + 2.0)
        b = math.sqrt(2.0 * d1 * d2 * c)
        F1 = SEP.bessel_radial_jy(b, c1, c_.get("C1", 1.0), c_.get("C2", 0.0))
        F2 = SEP.trig_angular(c1, C0, c_.get("C3", 1.0), c_.get("C4", 0.0))
        return SEP.SeparatedSolution(F1, F2, "polar")

    return _case_12b(p)._replace(reduced=op, closed=closed)


def _case_15a(p):
    a, b, c0 = p["a"], p["b"], p["c0"]
    d1, d2 = p["delta1"], p["delta2"]
    a0, a1, b0, b1 = p["alpha0"], p["alpha1"], p["beta0"], p["beta1"]
    kap = 4.0 * (d2 * (a0 * a0 + b0 * b0) - d1 * (a0 * a1 + b0 * b1)) / d1**2

    def op(P, xi, eta):
        lap, px, py = _lap_grad(P, xi, eta)
        return d1 * d1 * (
            lap + d1 * (xi * px + eta * py) + kap * P(xi, eta)
        )

    def closed(c_):
        c1 = c_.get("c1", 1.0)
        F1 = SEP.whittaker_radial(d1, c1, 0.0, c_.get("C1", 1.0), c_.get("C2", 0.0))
        F2 = SEP.whittaker_radial(d1, kap - c1, 0.0, c_.get("C3", 1.0), c_.get("C4", 0.0))
        return SEP.SeparatedSolution(F1, F2, "cartesian")

    sym = SymmetryData(
        f1=poly(0.0, d1, d2),
        f2=poly(a0, a1, 0.75 * a * d1, 0.5 * a * d2),
        f3=poly(b0, b1, 0.75 * b * d1, 0.5 * b * d2),
        f4=poly(
            0.0,
            d2 + c0 * d1 + a * a0 + b * b0,
            0.5 * (a * a1 + b * b1) + c0 * d2,
            0.25 * (a * a + b * b) * d1,
            0.125 * (a * a + b * b) * d2,
        ),
    )
    return Pieces(
        MP.map_15a(a, b, c0, d1, d2, a0, a1, b0, b1),
        sym,
        op,
        closed,
        partial(_annulus_points, guard=lambda x, y, t: t < 0.25),
        partial(_sim_points, need_xi_pos=True),
    )


def _case_16(p):
    d, k = p["d"], p.get("k", 1.0)
    C = _c_scalar(p, _C_RADIAL)

    def op(P, xi, eta):
        # similarity variables are (xi, eta) = (rho^2, t)
        _, px, pxx = hd.jet(P, (xi, eta), 0)
        pe = hd.derivative(P, (xi, eta), 1)
        r = hd.sqrt(hd.value(xi))
        return (
            4.0 * xi * xi * pxx
            + 4.0 * xi * px
            - 2.0 * xi * pe
            + (d * d * eta * eta - 2.0 * xi * C(r)) * P(xi, eta)
        )

    def region_sim(n, seed):
        rng = np.random.default_rng(seed)
        return [(rng.uniform(0.3, 3.0), rng.uniform(0.3, 1.0)) for _ in range(n)]

    return Pieces(
        MP.map_16(d, k),
        SymmetryData(k=k, f4=poly(0.0, -d * k)),
        op,
        None,
        partial(_annulus_points, guard=lambda x, y, t: x < 0 and abs(y) < 0.3),
        region_sim,
    )


def _case_18a(p):
    b, b0, b1 = p["b"], p["beta0"], p["beta1"]
    C = _c_scalar(p, _C_LINE)

    def op(P, xi, eta):
        h = b1 * eta + b0
        pxx = hd.derivative(P, (xi, eta), 0, order=2)
        pe = hd.derivative(P, (xi, eta), 1)
        return (
            4.0 * h * h * pxx
            - 8.0 * h * h * pe
            + (
                b * b * eta * eta * (b1 * eta + 2.0 * b0) ** 2
                - 4.0 * b1 * h
                - 8.0 * C(hd.value(xi)) * h * h
            )
            * P(xi, eta)
        )

    def closed(c_):
        c1 = c_.get("c1", 1.0)
        F1 = SEP.ode_factor(lambda s: C(s), c1, (-2.5, 2.5), c_.get("C1", 1.0), c_.get("C2", 0.0))
        F2 = SEP.exp_factor_18a(c1, b, b0, b1)
        return SEP.SeparatedSolution(F1, F2, "cartesian")

    def region_sim(n, seed):
        rng = np.random.default_rng(seed)
        pts = []
        while len(pts) < n:
            eta = rng.uniform(0.3, 1.0)
            if abs(b1 * eta + b0) < 0.15:
                continue
            pts.append((rng.uniform(-2.0, 2.0), eta))
        return pts

    return Pieces(
        MP.map_18a(b, b0, b1),
        SymmetryData(f3=poly(b0, b1), f4=poly(0.0, b * b0, 0.5 * b * b1)),
        op,
        closed,
        partial(_annulus_points, guard=lambda x, y, t: abs(b1 * t + b0) < 0.15),
        region_sim,
    )


def _case_18b(p):
    c, b, B1, B2 = p["c"], p["b"], p["beta1"], p["beta2"]
    C = _c_scalar(p, _C_LINE)

    def op(P, xi, eta):
        pxx = hd.derivative(P, (xi, eta), 0, order=2)
        pe = hd.derivative(P, (xi, eta), 1)
        return pxx - 2.0 * pe - 2.0 * C(hd.value(xi)) * P(xi, eta)

    def closed(c_):
        c1 = c_.get("c1", 1.0)
        F1 = SEP.ode_factor(lambda s: C(s), c1, (-2.5, 2.5), c_.get("C1", 1.0), c_.get("C2", 0.0))
        F2 = SEP.exp_factor_18b(c1)
        return SEP.SeparatedSolution(F1, F2, "cartesian")

    def region_sim(n, seed):
        rng = np.random.default_rng(seed)
        return [(rng.uniform(-2.0, 2.0), rng.uniform(0.1, 1.0)) for _ in range(n)]

    a1 = math.sqrt(2.0 * c)
    return Pieces(
        MP.map_18b(c, b, B1, B2),
        SymmetryData(f3=exp_pair(B1, B2, a1), f4=exp_pair(b * B1 / a1, -b * B2 / a1, a1)),
        op,
        closed,
        partial(_annulus_points, t_range=(0.1, 1.0)),
        region_sim,
    )


_CASES = None


def catalog():
    """The eleven-case reduction catalog, keyed by case id."""
    global _CASES
    if _CASES is None:
        R = CaseReduction
        cases = [
            # id, case parameters, generator parameters, closed form,
            # `reduce` summary, binding, opaque default, fixed parameters
            R("1.1a", ("C0", "b", "c0"), ("delta1", "delta2", "beta0", "beta1"), True, (
                "xi = x/sqrt(f1), eta = (y + shift_b(t))/sqrt(f1), f1 = delta2 t^2 + delta1 t",
                "d1^2 xi^2 (P_xixi + P_etaeta) + d1^3 xi^3 P_xi + d1^3 xi^2 eta P_eta "
                "+ [4(delta2 beta0^2 - delta1 beta0 beta1) xi^2 - 2 C0 d1^2] P = 0",
            ), _case_11a),
            R("1.1b", ("C0", "c", "b", "c0"), ("delta1", "delta2", "beta1", "beta2"), True, (
                "xi = x/sqrt(f1), eta = (y - h(t))/sqrt(f1), f1 = delta1 e^{2at} + delta2 e^{-2at}",
                "d1 d2 xi^2 (P_xixi + P_etaeta) + [8 c d1^2 d2^2 xi^2 (xi^2+eta^2) "
                "- xi^2 (beta1^2 d2 + beta2^2 d1) - 2 C0 d1 d2] P = 0",
            ), _case_11b),
            R("1.2a", ("c0",), ("delta1", "delta2"), True, (
                "xi = x/sqrt(f1), eta = y/sqrt(f1), f1 = delta2 t^2 + delta1 t",
                "rho^2 P_rhorho + (delta1 rho^3 + rho) P_rho + P_thetatheta - 2 C(theta) P = 0",
            ), _case_12a, _C_THETA),
            R("1.2b", ("c", "c0"), ("delta1", "delta2"), True, (
                "xi = x/sqrt(f1), eta = y/sqrt(f1), f1 = delta1 e^{2at} + delta2 e^{-2at}",
                "rho^2 P_rhorho + rho P_rho + P_thetatheta + 2[4 c d1 d2 rho^4 - C(theta)] P = 0",
            ), _case_12b, _C_THETA),
            R("1.3", ("lam", "c0"), ("k",), False, (
                "rotating frame: xi + i eta = (x + i y) e^{i lam ln(t)/2} / sqrt(t)",
                "rho^2 [lap P + (xi + lam eta) P_xi + (eta - lam xi) P_eta] "
                "- 2 C(lam ln rho + theta) P = 0",
            ), _case_13, _C_THETA),
            R("1.4a", ("C0", "a", "b", "c0"), ("delta1", "delta2"), True, (
                "as 1.2a (the constant-angular-factor specialization)",
                "rho^2 lap P + delta1 rho^2 (xi P_xi + eta P_eta) - 2 C0 P = 0",
            ), _case_14a, None, {"a": 0.0, "b": 0.0}),
            R("1.4b", ("C0", "c", "a", "b", "c0"), ("delta1", "delta2"), True, (
                "as 1.2b (the constant-angular-factor specialization)",
                "rho^2 lap P + 2[4 c d1 d2 rho^4 - C0] P = 0",
            ), _case_14b, None, {"a": 0.0, "b": 0.0}),
            R("1.5a", ("a", "b", "c0"),
              ("delta1", "delta2", "alpha0", "alpha1", "beta0", "beta1"), True, (
                "xi = (x + shift_a(t))/sqrt(f1), eta = (y + shift_b(t))/sqrt(f1)",
                "lap P + delta1 (xi P_xi + eta P_eta) + kappa P = 0, "
                "kappa = 4[delta2(a0^2+b0^2) - delta1(a0 a1 + b0 b1)]/delta1^2",
            ), _case_15a),
            R("1.6", ("d",), ("k",), False, (
                "xi = x^2 + y^2, eta = t",
                "4 xi^2 P_xixi + 4 xi P_xi - 2 xi P_eta + (d^2 eta^2 - 2 xi C(sqrt(xi))) P = 0",
            ), _case_16, _C_RADIAL),
            R("1.8a", ("b",), ("beta0", "beta1"), True, (
                "xi = x, eta = t (boost along y)",
                "4 h^2 P_xixi - 8 h^2 P_eta + [b^2 eta^2 (b1 eta + 2 b0)^2 - 4 b1 h "
                "- 8 C(xi) h^2] P = 0, h = b1 eta + b0",
            ), _case_18a, _C_LINE),
            R("1.8b", ("c", "b"), ("beta1", "beta2"), True, (
                "xi = x, eta = t (exponential boost along y)",
                "P_xixi - 2 P_eta - 2 C(xi) P = 0",
            ), _case_18b, _C_LINE),
        ]
        _CASES = {c.case_id: c for c in cases}
    return _CASES

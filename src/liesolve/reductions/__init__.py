"""Similarity-reduction catalog and its operations."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .. import hyperdual as hd
from ..errors import LiesolveError, SamplingError
from ..fields import random_smooth_field, smooth_field_lanes
from ..verify import sampled
from .catalog import CaseReduction, catalog
from .separated import SeparatedSolution


def get_case(case_id) -> CaseReduction:
    try:
        return catalog()[str(case_id)]
    except KeyError:
        raise KeyError(f"unknown catalog case {case_id!r}; known: {sorted(catalog())}")


def similarity_map(case, params, point):
    """(xi, eta, P_prefactor) at (x, y, t); raises SingularPoint off-domain."""
    case = case if isinstance(case, CaseReduction) else get_case(case)
    smap = case.similarity(params)
    x, y, t = point
    smap.check(x, y, t)
    xi, eta = smap.to_sim(x, y, t)
    pref = hd.exp(smap.prefactor_log(x, y, t))
    return hd.value(xi), hd.value(eta), hd.value(pref)


def reconstruct_u(case, params, P):
    """u(x, y, t) = P(xi, eta) / prefactor, as a dual-capable field."""
    case = case if isinstance(case, CaseReduction) else get_case(case)
    Pfn = P.P if isinstance(P, SeparatedSolution) else P
    return case.similarity(params).reconstruct(Pfn)


def reduced_residual(case, params, P, points=None) -> float:
    """Max abs of the catalog reduced operator over the similarity sampling set."""
    case = case if isinstance(case, CaseReduction) else get_case(case)
    op = case.reduced_operator(params)
    Pfn = P.P if isinstance(P, SeparatedSolution) else P
    pts = points if points is not None else case.region_sim(params)
    return operator_residual(op, Pfn, pts)


def operator_residual(op, P, pts) -> float:
    """Max abs of ``op(P, *point)`` over similarity points, skipping points as
    :func:`liesolve.verify.sampled` does; raises :class:`SamplingError` when
    fewer than max(4, a quarter) evaluate.

    The operator runs once, on float lanes that hold every point (see
    :mod:`liesolve.hyperdual`), and a non-finite lane is skipped; each lane
    is bitwise its point's evaluation.  If the lanes raise a TypeError,
    ValueError, ArithmeticError or LiesolveError, the operator reruns point
    by point through :func:`~liesolve.verify.sampled`, which gives the
    scalar skips and errors.
    """
    try:
        with np.errstate(**hd.LANE_ERRSTATE):
            out = op(P, *hd.float_lanes(np.transpose(pts)))
        kept = [v for v in np.broadcast_to(out, (len(pts),)).tolist() if math.isfinite(v)]
    except (TypeError, ValueError, ArithmeticError, LiesolveError):
        kept = [v for _, v in sampled(lambda *pt: op(P, *pt), pts)[0]]
    if len(kept) < max(4, len(pts) // 4):
        raise SamplingError(
            f"reduced operator evaluable at only {len(kept)} of {len(pts)} points"
        )
    return max([0.0] + [abs(v) for v in kept])


def closed_form_solution(case, params, constants=None) -> SeparatedSolution:
    case = case if isinstance(case, CaseReduction) else get_case(case)
    constants = dict(constants or {})
    constants.setdefault("c1", 1.0)
    return case.closed_form(params, constants)


@dataclass
class ConsistencyReport:
    case_id: str
    trials: int
    max_rel_deviation: float
    consistent: bool
    per_trial: list = field(default_factory=list)


def verify_reduction_consistency(case, params, trials=3, seed=0, n_points=12) -> ConsistencyReport:
    """Jacobian-ratio test of the similarity reduction.

    Draws random smooth fields P, reconstructs u, and compares the full
    evolution operator applied to u against the catalog Jacobian times the
    reduced operator applied to P at the mapped points.  Agreement within
    1e-6 relative at every point certifies the (map, prefactor, operator)
    triple as a unit.

    All trials' points run as lanes of one evaluation, each on its trial's
    field; each lane is bitwise its point's scalar evaluation.  If the lanes
    raise a TypeError, ValueError, ArithmeticError or LiesolveError, the same
    formula reruns one point at a time, which gives the scalar skips, values
    and errors in scalar order.
    """
    case = case if isinstance(case, CaseReduction) else get_case(case)
    smap = case.similarity(params)
    op = case.reduced_operator(params)
    M = case.potential_field(params)

    def draw(k):  # trial k's generator and its points off the singular locus
        pts = case.region_xyt(params, n=n_points, seed=seed + k)
        rng = np.random.default_rng(seed + 1000 * k + 7)
        return rng, [pt for pt in pts if not smap.singular(*pt)]

    def trial_kept(rng, pts):
        P = random_smooth_field(rng, nargs=2)
        return sampled(lambda *pt: _ratio(*_sides(smap, op, M, P, *pt)), pts)[0]

    try:
        draws = [draw(k) for k in range(trials)]
        counts = [len(pts) for _, pts in draws]
        P = smooth_field_lanes([rng for rng, _ in draws], counts, nargs=2)
        xyt = hd.float_lanes(np.transpose([pt for _, pts in draws for pt in pts]))
        with np.errstate(**hd.LANE_ERRSTATE):
            sides = _sides(smap, op, M, P, *xyt)
        pairs = zip(*(np.broadcast_to(s, (sum(counts),)).tolist() for s in sides))
        kept = [sampled(_ratio, itertools.islice(pairs, n))[0] for n in counts]
    except (TypeError, ValueError, ArithmeticError, LiesolveError):
        # lazily, so that a trial's error comes before the next trial's points
        kept = (trial_kept(*draw(k)) for k in range(trials))
    per_trial = []
    for k_kept in kept:
        if len(k_kept) < max(3, n_points // 3):
            raise SamplingError(f"case {case.case_id}: only {len(k_kept)} usable sample points")
        per_trial.append(max([0.0] + [v for _, v in k_kept]))
    worst = max([0.0] + per_trial)
    return ConsistencyReport(case.case_id, trials, worst, worst <= 1e-6, per_trial)


def _sides(smap, op, M, P, x, y, t):
    """(FP(u), J * reduced_op(P)) at one point or on lanes, u rebuilt from P."""
    u, pt = smap.reconstruct(P), (x, y, t)
    u_t = hd.derivative(u, pt, 2)
    lap = hd.derivative(u, pt, 0, 2) + hd.derivative(u, pt, 1, 2)
    lhs = u_t - 0.5 * lap + M(x, y) * u(x, y, t)
    xi, eta = smap.to_sim(x, y, t)
    rhs = hd.value(smap.jacobian(x, y, t)) * hd.value(op(P, hd.value(xi), hd.value(eta)))
    return lhs, rhs


def _ratio(lhs, rhs):
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-8)


__all__ = [
    "CaseReduction",
    "ConsistencyReport",
    "SeparatedSolution",
    "catalog",
    "closed_form_solution",
    "get_case",
    "operator_residual",
    "reconstruct_u",
    "reduced_residual",
    "similarity_map",
    "verify_reduction_consistency",
]

"""Similarity-reduction catalog and its operations."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .. import hyperdual as hd
from .. import verify
from ..errors import SamplingError
from ..fields import random_smooth_field, smooth_field_lanes
from ..verify import _LANE_ERRORS, sampled
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
    fewer than max(4, a quarter) evaluate."""
    kept = sampled(lambda *pt: op(P, *pt), pts)[0]
    if len(kept) < max(4, len(pts) // 4):
        raise SamplingError(
            f"reduced operator evaluable at only {len(kept)} of {len(pts)} points"
        )
    return max([0.0] + [abs(v) for _, v in kept])


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
    field; each lane is bitwise its point's scalar evaluation, and a
    non-finite ratio is skipped.  If the lanes raise a TypeError or an error
    of :data:`~liesolve.verify.SKIPPED_ERRORS`, each trial in turn reruns its
    points one lane at a time, which gives the scalar skips, values and
    errors in scalar order.
    """
    case = case if isinstance(case, CaseReduction) else get_case(case)
    smap = case.similarity(params)
    op = case.reduced_operator(params)
    M = case.potential_field(params)

    def draw(k):  # trial k's generator and its points off the singular locus
        pts = case.region_xyt(params, n=n_points, seed=seed + k)
        rng = np.random.default_rng(seed + 1000 * k + 7)
        return rng, [pt for pt in pts if not smap.singular(*pt)]

    def trial_ratios(rng, pts):
        P = random_smooth_field(rng, nargs=2)
        ratio = verify._per_lane_or_nan(lambda *pt: hd.value(_ratio(*_sides(smap, op, M, P, *pt))))
        values = ratio(*hd.float_lanes(np.transpose(pts))).tolist() if pts else []
        return [v for v in values if math.isfinite(v)]

    try:
        draws = [draw(k) for k in range(trials)]
        counts = [len(pts) for _, pts in draws]
        P = smooth_field_lanes([rng for rng, _ in draws], counts, nargs=2)
        xyt = hd.float_lanes(np.transpose([pt for _, pts in draws for pt in pts]))
        with np.errstate(**hd.LANE_ERRSTATE):
            lanes = _ratio(*_sides(smap, op, M, P, *xyt))
        ratios = iter(np.broadcast_to(lanes, (sum(counts),)).tolist())
        kept = [[v for v in itertools.islice(ratios, n) if math.isfinite(v)] for n in counts]
    except _LANE_ERRORS:
        # lazily, so that a trial's error comes before the next trial's points
        kept = (trial_ratios(*draw(k)) for k in range(trials))
    per_trial = []
    for k_kept in kept:
        if len(k_kept) < max(3, n_points // 3):
            raise SamplingError(f"case {case.case_id}: only {len(k_kept)} usable sample points")
        per_trial.append(max([0.0] + k_kept))
    worst = max([0.0] + per_trial)
    return ConsistencyReport(case.case_id, trials, worst, worst <= 1e-6, per_trial)


def _sides(smap, op, M, P, x, y, t):
    """(FP(u), J * reduced_op(P)) at one point or on lanes, u rebuilt from P."""
    u = smap.reconstruct(P)
    u_t, u_x, u_y = hd.lane_pass(u, (x, y, t), ((2, None), (0, 0), (1, 1)))
    lhs = u_t.b - 0.5 * (u_x.d + u_y.d) + M(x, y) * u(x, y, t)
    xi, eta = smap.to_sim(x, y, t)
    rhs = hd.value(smap.jacobian(x, y, t)) * hd.value(op(P, hd.value(xi), hd.value(eta)))
    return lhs, rhs


def _ratio(lhs, rhs):
    """|lhs - rhs| / max(|lhs|, |rhs|, 1e-8) on floats or lanes; where a side
    is not finite the ratio is NaN or inf, with no lane error."""
    with np.errstate(invalid="ignore"):
        return abs(lhs - rhs) / np.maximum(np.maximum(abs(lhs), abs(rhs)), 1e-8)


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

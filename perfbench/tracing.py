"""Span recorder for the traced benchmark run.

Nothing inside ``src/`` is instrumented.  :func:`install` replaces, for the
duration of a traced pass, the public functions of each liesolve layer at
every module attribute that refers to them: the defining module (which the
benchmark itself and function-level imports go through) and each import
site in another liesolve module, for example
``liesolve.cli.compatibility_condition`` or
``liesolve.reductions.separated.bessel_jet``.  :func:`uninstall` puts the
originals back, so untraced passes run the unmodified program.

A span is opened when control crosses into a layer from another one; a call
from a layer into itself (``whittakerM_jet`` building on ``hyp1f1_jet``,
``closed_form_solution`` calling ``CaseReduction.closed_form``) stays inside
the open span.  ``transform.quad`` is the exception: every adaptive
quadrature is its own span, so that quadrature calls are counted wherever
they happen.  Spans are kept in memory and written out once, at the end.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from dataclasses import dataclass, field

_NS = time.perf_counter_ns


@dataclass
class SpanStats:
    """Aggregate of every span that carried one name."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    units: float = 0.0
    extra: dict = field(default_factory=dict)


class Tracer:
    """In-memory span store; one per traced run.

    Spans live in typed columns (8 bytes per field) because a traced pass
    can record hundreds of thousands of special-function calls.
    """

    FIELDS = ("name", "start_ns", "end_ns", "parent", "op")

    def __init__(self):
        self.names = []
        self._ids = {}
        self.cols = {f: array("q") for f in self.FIELDS}
        self._child_ns = array("q")
        self._stack = []
        self._layers = []
        self.stats = {}
        self.op = -1

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def current_layer(self):
        return self._layers[-1] if self._layers else None

    def open(self, name):
        c = self.cols
        row = len(c["name"])
        c["name"].append(self._name_id(name))
        c["parent"].append(self._stack[-1] if self._stack else -1)
        c["op"].append(self.op)
        c["end_ns"].append(0)
        self._child_ns.append(0)
        self._stack.append(row)
        self._layers.append(name.split(".", 1)[0])
        c["start_ns"].append(_NS())
        return row

    def close(self, row, units=0.0, extra=None):
        end = _NS()
        c = self.cols
        c["end_ns"][row] = end
        self._stack.pop()
        self._layers.pop()
        dur = end - c["start_ns"][row]
        parent = c["parent"][row]
        if parent >= 0:
            self._child_ns[parent] += dur
        name = self.names[c["name"][row]]
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        st.calls += 1
        st.total_ns += dur
        st.self_ns += dur - self._child_ns[row]
        st.units += units
        for k, v in (extra or {}).items():
            st.extra[k] = st.extra.get(k, 0) + v

    def layer_self_s(self, layer):
        return sum(
            st.self_ns for name, st in self.stats.items() if name.split(".", 1)[0] == layer
        ) * 1e-9

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(
                {"names": self.names, **{f: self.cols[f].tolist() for f in self.FIELDS}},
                fh, separators=(",", ":"),
            )


def _wrap(tracer, fn, layer, name, units=None, nest=False, wrap_result=None):
    """Timing wrapper for one function of ``layer``.  ``name`` is a string or
    ``f(args, kwargs) -> str``; ``units(args, kwargs, result) -> (units,
    extra)`` counts the work done."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not nest and tracer.current_layer() == layer:
            return fn(*args, **kwargs)
        row = tracer.open(name if isinstance(name, str) else name(args, kwargs))
        result = None
        try:
            result = fn(*args, **kwargs)
        finally:
            u, extra = units(args, kwargs, result) if units and result is not None else (0.0, None)
            tracer.close(row, u, extra)
        if wrap_result is not None:
            result = wrap_result(result)
        return result

    return traced


# ---------------------------------------------------------------------------
# work-unit counters, one per layer boundary that has a natural unit
# ---------------------------------------------------------------------------


def _arg(args, kwargs, i, key, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(key, default)


def _points_arg(i, default_n):
    def units(args, kwargs, result):
        pts = _arg(args, kwargs, i, "points")
        return (len(pts) if pts is not None else default_n), None

    return units


def _residual_units(args, kwargs, rep):
    attempted = rep.n_points + rep.singular_points_skipped
    return attempted, {"skipped": rep.singular_points_skipped, "attempted": attempted}


def _fd_dims(args, kwargs):
    grid = _arg(args, kwargs, 2, "grid")
    return "verify.fd_evolve_2d" if grid is not None and grid.dims == 2 else "verify.fd_evolve_1d"


def _fd_units(args, kwargs, out):
    points = 1
    for (_, _, n) in out.extents:
        points *= n
    return points * round(out.tau / out.dt), None


def _mc_dims(args, kwargs):
    cfg = _arg(args, kwargs, 0, "cfg")
    return "verify.mc_simulate_2d" if cfg is not None and cfg.vol2 is not None else "verify.mc_simulate_1d"


def _mc_units(args, kwargs, out):
    cfg = _arg(args, kwargs, 0, "cfg")
    return cfg.paths * cfg.steps, {"paths": cfg.paths, "excluded": out.n_excluded}


def _cdf_units(args, kwargs, result):
    return len(_arg(args, kwargs, 0, "samples")), None


# ---------------------------------------------------------------------------
# the instrumented surface
# ---------------------------------------------------------------------------

# (defining module, function, span name, work counter)
_FUNCTIONS = [
    ("liesolve.specfun", "gamma", "specfun.call", None),
    ("liesolve.specfun", "hypergeometric", "specfun.call", None),
    ("liesolve.specfun", "whittaker", "specfun.call", None),
    ("liesolve.specfun", "bessel", "specfun.call", None),
    ("liesolve.exprlang.match", "match_case", "exprlang.match_case", None),
    ("liesolve.transform", "quad", "transform.quad", None),
    ("liesolve.transform", "coord_map", "transform.api", None),
    ("liesolve.transform", "gauge_coord_map", "transform.api", None),
    ("liesolve.transform", "invert_coord", "transform.api", None),
    ("liesolve.transform", "drift_and_gauge", "transform.api", None),
    ("liesolve.transform", "potential_m", "transform.api", None),
    ("liesolve.transform", "price_from_u", "transform.api", None),
    ("liesolve.symmetry", "compatibility_condition", "symmetry.compatibility", _points_arg(2, 30)),
    ("liesolve.symmetry", "symmetry_residual", "symmetry.invariance", _points_arg(3, 30)),
    ("liesolve.symmetry", "infinitesimals", "symmetry.api", None),
    ("liesolve.symmetry", "transform_solution", "symmetry.api", None),
    ("liesolve.reductions", "verify_reduction_consistency", "reductions.consistency", None),
    ("liesolve.reductions", "closed_form_solution", "reductions.closed_form", None),
    ("liesolve.reductions", "reduced_residual", "reductions.reduced_residual", _points_arg(3, 40)),
    ("liesolve.reductions", "reconstruct_u", "reductions.api", None),
    ("liesolve.reductions", "get_case", "reductions.api", None),
    ("liesolve.reductions.catalog", "catalog", "reductions.api", None),
    ("liesolve.casestudies", "double_cev", "casestudies.study", None),
    ("liesolve.casestudies", "cev_1d", "casestudies.study", None),
    ("liesolve.casestudies", "expvol_1d", "casestudies.study", None),
    ("liesolve.verify", "fp_residual", "verify.fp_residual", _residual_units),
    ("liesolve.verify", "bs_residual", "verify.bs_residual", _residual_units),
    ("liesolve.verify", "fd_evolve", _fd_dims, _fd_units),
    ("liesolve.verify", "mc_simulate", _mc_dims, _mc_units),
    ("liesolve.verify", "sup_cdf_distance", "verify.sup_cdf", _cdf_units),
    ("liesolve.cli", "run", "cli.run", None),
]

# builders returning (f, f', f'') callables; every evaluation of a returned
# callable is one special-function call
_JETS = ["bessel_jet", "hyp1f1_jet", "hypU_jet", "whittakerM_jet", "whittakerW_jet"]

_CASE_METHODS = [
    "potential_field", "similarity", "symmetry_data", "reduced_operator",
    "closed_form", "region_xyt", "region_sim", "draw_params",
]


def install(tracer):
    """Wrap the instrumented surface; returns the undo list for uninstall()."""
    import liesolve.cli  # noqa: F401  (loads every layer)
    from liesolve.reductions.catalog import CaseReduction

    undo = []
    mods = [m for name, m in list(sys.modules.items())
            if m is not None and (name == "liesolve" or name.startswith("liesolve."))]

    def patch_everywhere(home, attr, wrapper):
        original = getattr(sys.modules[home], attr)
        for mod in mods:
            if mod.__dict__.get(attr) is original:
                undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    for home, attr, name, units in _FUNCTIONS:
        fn = getattr(sys.modules[home], attr)
        layer = home.split(".")[1]  # the package module: liesolve.<layer>[.sub]
        nest = name == "transform.quad"  # counted wherever it runs
        patch_everywhere(home, attr, _wrap(tracer, fn, layer, name, units, nest))

    def wrap_jet(triple):
        return tuple(_wrap(tracer, f, "specfun", "specfun.call") for f in triple)

    for attr in _JETS:
        fn = getattr(sys.modules["liesolve.specfun"], attr)
        patch_everywhere("liesolve.specfun", attr,
                         _wrap(tracer, fn, "specfun", "specfun.jet", wrap_result=wrap_jet))

    for attr in _CASE_METHODS:
        original = CaseReduction.__dict__[attr]
        undo.append((CaseReduction, attr, original))
        setattr(CaseReduction, attr, _wrap(tracer, original, "reductions", "reductions.api"))
    return undo


def uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)

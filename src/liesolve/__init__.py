"""liesolve: similarity-reduction solution machinery for option pricing
potentials, with independent finite-difference and Monte Carlo verification
oracles.

Layers, bottom up:

* :mod:`liesolve.specfun` - gamma / hypergeometric / Whittaker / Bessel kernel;
* :mod:`liesolve.exprlang` - potential expression language and classification;
* :mod:`liesolve.transform` - asset space to potential form and back;
* :mod:`liesolve.symmetry` - generator family, determining condition, brackets;
* :mod:`liesolve.reductions` - the eleven-case catalog of similarity maps,
  reduced operators and separated closed forms;
* :mod:`liesolve.casestudies` - end-to-end study chains;
* :mod:`liesolve.verify` - the oracles everything is checked against;
* :mod:`liesolve.cli` - batch front end (``liesolve`` entry point).
"""

from . import errors
from .casestudies import cev_1d, double_cev, expvol_1d, smirk_expansion
from .exprlang import match_case, parse
from .reductions import (
    catalog,
    closed_form_solution,
    reconstruct_u,
    reduced_residual,
    similarity_map,
    verify_reduction_consistency,
)
from .specfun import SpecialValue, bessel, gamma, hypergeometric, whittaker
from .symmetry import (
    SymmetryData,
    commutator,
    compatibility_condition,
    infinitesimals,
    rotation_derived_solution,
    symmetry_residual,
    transform_solution,
)
from .transform import (
    CEVVol,
    ExponentialVol,
    MarketModel,
    RescaledExponentialVol,
    TabulatedVol,
    coord_map,
    drift_and_gauge,
    invert_coord,
    potential_m,
    price_from_u,
)
from .verify import (
    Grid,
    Region,
    ResidualReport,
    SampleSet,
    SdeConfig,
    bs_residual,
    compare,
    fd_evolve,
    fp_residual,
    mc_simulate,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "cev_1d",
    "double_cev",
    "expvol_1d",
    "smirk_expansion",
    "match_case",
    "parse",
    "catalog",
    "closed_form_solution",
    "reconstruct_u",
    "reduced_residual",
    "similarity_map",
    "verify_reduction_consistency",
    "SpecialValue",
    "bessel",
    "gamma",
    "hypergeometric",
    "whittaker",
    "SymmetryData",
    "commutator",
    "compatibility_condition",
    "infinitesimals",
    "rotation_derived_solution",
    "symmetry_residual",
    "transform_solution",
    "CEVVol",
    "ExponentialVol",
    "MarketModel",
    "RescaledExponentialVol",
    "TabulatedVol",
    "coord_map",
    "drift_and_gauge",
    "invert_coord",
    "potential_m",
    "price_from_u",
    "Grid",
    "Region",
    "ResidualReport",
    "SampleSet",
    "SdeConfig",
    "bs_residual",
    "compare",
    "fd_evolve",
    "fp_residual",
    "mc_simulate",
]

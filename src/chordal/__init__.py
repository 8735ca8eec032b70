"""Chordal Loewner evolution in the half-plane with univalence diagnostics.

The package splits into five layers:

* :mod:`chordal.measures` - finitely-supported-plus-density real measures,
  their Cauchy and reciprocal Cauchy transforms, Nevanlinna data, and
  Stieltjes inversion.
* :mod:`chordal.grunsky` - moment-indexed Grunsky matrices and the
  eigenvalue univalence certificate.
* :mod:`chordal.loewner` - certified Picard solver for transition maps
  B(a, b; z) driven by time-indexed measure families.
* :mod:`chordal.capacity` - boundary tracing and discrete transfinite
  diameter, combined into the Hayman ratio diagnostic.
* :mod:`chordal.cli` - the ``chordal`` command.
"""

from .errors import InvalidInputError, NonConvergenceError
from .measures import (
    DensitySegment,
    NevanlinnaTriple,
    RealMeasure,
    affine_pushforward,
    arcsine,
    bernoulli,
    cauchy_transform,
    class_r_constant,
    measure_from_dict,
    moment,
    nevanlinna_triple,
    point_mass,
    reciprocal_cauchy,
    semicircle,
    stieltjes_invert,
)
from .grunsky import (
    GrunskyReport,
    SeriesCoefficients,
    faber_polynomials,
    grunsky_coefficients,
    measure_certificate,
    univalence_certificate,
)
from .loewner import (
    DriverFamily,
    SolverConfig,
    TransitionMap,
    driver_from_dict,
    evaluate_map,
    hydrodynamic_parameter,
    semigroup_defect,
    solve_transition,
    transition_grid,
    univalence_probe,
)
from .capacity import (
    BoundaryCurve,
    CapacityReport,
    boundary_image,
    discrete_transfinite_diameter,
    hayman_report,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryCurve",
    "CapacityReport",
    "DensitySegment",
    "DriverFamily",
    "GrunskyReport",
    "InvalidInputError",
    "NevanlinnaTriple",
    "NonConvergenceError",
    "RealMeasure",
    "SeriesCoefficients",
    "SolverConfig",
    "TransitionMap",
    "affine_pushforward",
    "arcsine",
    "bernoulli",
    "boundary_image",
    "cauchy_transform",
    "class_r_constant",
    "discrete_transfinite_diameter",
    "driver_from_dict",
    "evaluate_map",
    "faber_polynomials",
    "grunsky_coefficients",
    "hayman_report",
    "hydrodynamic_parameter",
    "measure_certificate",
    "measure_from_dict",
    "moment",
    "nevanlinna_triple",
    "point_mass",
    "reciprocal_cauchy",
    "semicircle",
    "semigroup_defect",
    "solve_transition",
    "stieltjes_invert",
    "transition_grid",
    "univalence_certificate",
    "univalence_probe",
]

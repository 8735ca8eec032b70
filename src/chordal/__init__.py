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

Each layer loads on first use (PEP 562): ``import chordal`` costs one
small module, ``chordal.errors``, and neither numpy nor any layer. The
first use of a public name, such as ``chordal.semicircle``, or of a layer,
such as ``chordal.loewner``, imports that layer and what it imports, and
the name is then cached in this module. The ``chordal`` command likewise
loads only the layer its subcommand runs.
"""

from importlib import import_module

from .errors import InvalidInputError, NonConvergenceError

__version__ = "0.1.0"

# the public names of each layer, imported from it on first use
_LAYERS = {
    "measures": (
        "DensitySegment", "NevanlinnaTriple", "RealMeasure", "affine_pushforward",
        "arcsine", "bernoulli", "cauchy_transform", "class_r_constant",
        "measure_from_dict", "moment", "nevanlinna_triple", "point_mass",
        "reciprocal_cauchy", "semicircle", "stieltjes_invert",
    ),
    "grunsky": (
        "GrunskyReport", "SeriesCoefficients", "faber_polynomials",
        "grunsky_coefficients", "measure_certificate", "univalence_certificate",
    ),
    "loewner": (
        "DriverFamily", "SolverConfig", "TransitionMap", "driver_from_dict",
        "evaluate_map", "hydrodynamic_parameter", "semigroup_defect",
        "solve_transition", "transition_grid", "univalence_probe",
    ),
    "capacity": (
        "BoundaryCurve", "CapacityReport", "boundary_image",
        "discrete_transfinite_diameter", "hayman_report",
    ),
    "numerics": (),
    "cli": (),
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = sorted(["InvalidInputError", "NonConvergenceError", *_HOME])


def __getattr__(name: str):
    if name in _LAYERS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_LAYERS})

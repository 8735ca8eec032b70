"""Fixtures shared by more than one test module."""

from dataclasses import replace

import pytest

from chordal.measures import (
    RealMeasure, affine_pushforward, arcsine, bernoulli, measure_from_dict, named_density,
    point_mass, semicircle,
)


def _half_semicircle():
    # the semicircle on [-1, 1] at half its mass: density, transform and bound halved
    seg = named_density("semicircle", -1.0, 1.0)
    return replace(seg, density=lambda x, _d=seg.density: 0.5 * _d(x),
                   cauchy=lambda z, _g=seg.cauchy: 0.5 * _g(z), peak=0.5 * seg.peak)


@pytest.fixture(scope="session")
def g_bound_measures():
    """Probability measures of every kind `RealMeasure.g_bounds` tells apart.

    The named densities (the arcsine has no density bound), each plain and
    pushed forward by x -> 0.5x + 1, then atoms, and atoms beside a bounded
    density.
    """
    dense = {
        "semicircle": semicircle(),
        "arcsine": arcsine(),
        "uniform": RealMeasure([], [named_density("uniform", -1.0, 1.0)], mass=1.0),
        # 3/32 (4 - x^2), a unit mass on [-2, 2]
        "poly": measure_from_dict({"segments": [
            {"interval": [-2.0, 2.0], "density": "poly:0.375,0,-0.09375"}]}),
    }
    pushed = {f"{name}-pushed": affine_pushforward(mu, 0.5, 1.0) for name, mu in dense.items()}
    return {**dense, **pushed,
            "delta0": point_mass(0.0),
            "bernoulli": bernoulli(0.5),
            "atom-semicircle": RealMeasure([(0.5, 0.5)], [_half_semicircle()], mass=1.0)}

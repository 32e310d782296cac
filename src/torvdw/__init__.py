"""Exact electrostatics and non-retarded dispersion forces for a grounded
conducting toroid with sources and particles on its symmetry axis."""

__version__ = "0.1.0"

from .geometry import (
    ToroidGeometry,
    ToroidalCoords,
    axis_eta_from_z,
    cartesian_to_toroidal,
    toroid_from_radii,
    toroidal_to_cartesian,
)
from .greens import (
    AxialGreens,
    AxialSource,
    axial_greens,
    axial_source,
    charge_interaction_energy,
    inverse_distance_series,
    surface_residual,
    vh_potential,
)
from .specfun import (
    HarmonicTable,
    elliptic_E,
    elliptic_K,
    harmonic_table,
    legendre_p_half,
)

__all__ = [
    "AxialGreens",
    "AxialSource",
    "HarmonicTable",
    "ToroidGeometry",
    "ToroidalCoords",
    "axial_greens",
    "axial_source",
    "axis_eta_from_z",
    "cartesian_to_toroidal",
    "charge_interaction_energy",
    "elliptic_E",
    "elliptic_K",
    "harmonic_table",
    "inverse_distance_series",
    "legendre_p_half",
    "surface_residual",
    "toroid_from_radii",
    "toroidal_to_cartesian",
    "vh_potential",
]

"""Casimir interaction of a spherical and a planar plasma sheet.

Exact mode-summation energy (round-trip determinant over imaginary
frequency), the proximity force approximation, and the small-separation
asymptotic expansion with its next-to-leading correction.
"""

from .errors import NumericsError, SpectralAnomalyError
from .scattering import (PERFECT_CONDUCTOR, PlaneSheet, Polarization, SphereSheet,
                         plane_r, sphere_t)
from .roundtrip import KappaTable, RoundTripBlock, assemble_block
from .energy_exact import EnergyResult, NumericsSpec, casimir_energy, logdet_one_minus
from .pfa import PfaParams, lifshitz_plane_plane, pfa_energy
from .asymptotics import (NtlCoefficients, e0, e1, ntl_coefficients, ntl_integrand,
                          small_gap_expansion, theta)

__all__ = [
    "EnergyResult",
    "KappaTable",
    "NtlCoefficients",
    "NumericsError",
    "NumericsSpec",
    "PERFECT_CONDUCTOR",
    "PfaParams",
    "PlaneSheet",
    "Polarization",
    "RoundTripBlock",
    "SphereSheet",
    "SpectralAnomalyError",
    "assemble_block",
    "casimir_energy",
    "e0",
    "e1",
    "lifshitz_plane_plane",
    "logdet_one_minus",
    "ntl_coefficients",
    "ntl_integrand",
    "pfa_energy",
    "plane_r",
    "small_gap_expansion",
    "sphere_t",
    "theta",
]

__version__ = "0.1.0"

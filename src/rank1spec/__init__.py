"""Direct and inverse spectral problems for rank-one perturbations of
self-adjoint operators with simple separated discrete spectrum."""

from .model import (
    AffineTail,
    BaseSpectrum,
    PerturbationCoefficients,
    PerturbedSpectrum,
    PowerTail,
    TargetSpectrum,
    validate_base,
    validate_coefficients,
    validate_target,
)
from .charfn import CharacteristicFunction, compute_Keps
from .direct import LocalizeOptions, assemble_spectrum, localize_spectrum, solve_direct
from .inverse import solve_inverse, solve_inverse_fixed_phi, check_F_equals_product
from .oracle import build_truncation, compare_spectra, dense_eigenvalues

__version__ = "0.1.0"

__all__ = [
    "AffineTail",
    "BaseSpectrum",
    "CharacteristicFunction",
    "LocalizeOptions",
    "PerturbationCoefficients",
    "PerturbedSpectrum",
    "PowerTail",
    "TargetSpectrum",
    "assemble_spectrum",
    "build_truncation",
    "check_F_equals_product",
    "compare_spectra",
    "compute_Keps",
    "dense_eigenvalues",
    "localize_spectrum",
    "solve_direct",
    "solve_inverse",
    "solve_inverse_fixed_phi",
    "validate_base",
    "validate_coefficients",
    "validate_target",
]

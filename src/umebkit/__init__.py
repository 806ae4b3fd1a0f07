"""Unextendible maximally entangled bases from equiangular projection packings.

Pipeline: validate a prime parameter (numth), build a Hadamard matrix of
order (p+1)/2 (hadamard), assemble p(p+1)/2 equiangular rank-(p-1)/2 real
projections (packing), turn them into trace-orthogonal unitaries with a
common unit phase and certify unextendibility (umeb), and check that the
family realizes the symmetric transpose channel as a uniform unitary
mixture (channels).
"""

__version__ = "0.1.0"

from .channels import (
    DecompositionReport,
    MixedUnitaryDecomposition,
    umeb_decomposition,
    verify_decomposition,
    wh_plus_apply,
)
from .errors import UmebkitError
from .hadamard import HadamardMatrix, construct
from .matcore import Tolerance
from .numth import UmebPrime, validate_prime
from .packing import (
    EquiangularReport,
    ProjectionFamily,
    build_residue_family,
    icosahedron_lines,
    verify_equiangular,
)
from .umeb import (
    FeasibilityReport,
    UmebCertificate,
    UnitaryFamily,
    build_unitaries,
    certify_umeb,
    compute_phase,
    feasibility,
)

__all__ = [
    "DecompositionReport",
    "EquiangularReport",
    "FeasibilityReport",
    "HadamardMatrix",
    "MixedUnitaryDecomposition",
    "ProjectionFamily",
    "Tolerance",
    "UmebCertificate",
    "UmebPrime",
    "UmebkitError",
    "UnitaryFamily",
    "build_residue_family",
    "build_unitaries",
    "certify_umeb",
    "compute_phase",
    "construct",
    "feasibility",
    "icosahedron_lines",
    "umeb_decomposition",
    "validate_prime",
    "verify_decomposition",
    "verify_equiangular",
    "wh_plus_apply",
]

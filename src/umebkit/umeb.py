"""Unextendible maximally entangled bases from equiangular projections.

The pipeline: decide whether a rank/dimension pair admits a common unit
phase z (exact rational feasibility test), build the unitaries
U_i = I - (1 - z) P_i, and certify the resulting family: trace
orthogonality, span of the symmetric matrices, orthogonality of the
antisymmetric complement and odd dimension.  The certificate is the
machine-checkable record that the vectorized family is an unextendible
maximally entangled basis.  A family is T bases, each moved by every
cyclic shift, and holds the bases on their union support
(matcore.SupportStack), as its projection family does.  The
certificate's Gram, unitarity check and asymmetry all read that one column
table and its values, as does the orbit kernel of channels.  The family
keeps only d, z and its bases, and reads any one member from them on demand
(matcore.OrbitMembers), so it never holds the n d^2 entries of every member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import Infeasible, RankOutOfRange
from .matcore import DEFAULT_TOL, OrbitMembers, SupportStack, Tolerance, asymmetry, cyclic_gram, gram_spectrum, gram_stats
from .matcore import spectral_rank, support_product
from .packing import ProjectionFamily


@dataclass(frozen=True)
class FeasibilityReport:
    """Exact real part of the candidate phase and whether |Re z| <= 1."""

    d: int
    r: int
    re_z: Fraction
    feasible: bool
    allowed_d_for_r: frozenset[int]


@dataclass(frozen=True, eq=False)
class UnitaryFamily:
    """Unitaries I - (1-z)P_i sharing one unit-modulus phase z: T bases, each moved by every cyclic shift.

    Members and bases are as in ProjectionFamily: member t*d + x is base t
    shifted by x, T d members in all.  The bases are a SupportStack of
    d x d matrices (ShapeMismatch for any other bases), its values cast to
    complex.  The projections they came from are not kept: a unitary
    artifact is the generator of the projection family (p, k and the
    Hadamard matrix) and z, and the unitaries are rebuilt from them.
    The family keeps d, z and the bases and nothing else: unitaries reads
    each member from the bases when it is asked for, and certify_umeb
    computes the Gram.
    """

    d: int
    z: complex
    bases: SupportStack

    def __post_init__(self):
        object.__setattr__(self, "bases", SupportStack.of(self.bases, self.d, complex))

    def __len__(self) -> int:
        return len(self.bases) * self.d

    @property
    def unitaries(self) -> OrbitMembers:
        """Every member as a read-only sequence of len(self) complex (d, d) arrays, each scattered from the bases when read."""
        return OrbitMembers(self.bases)


@dataclass(frozen=True)
class UmebCertificate:
    """Verification record; unextendible_verdict is the conjunction of the
    three structural facts (symmetric span, antisymmetric complement, odd d)
    with unitarity and CJ orthonormality within eps."""

    d: int
    cardinality: int
    max_unitarity_dev: float
    max_orthogonality_dev: float
    span_rank: int
    symmetric_span: bool
    complement_antisymmetric: bool
    d_odd: bool
    unextendible_verdict: bool
    cj_orthonormality_dev: float


def feasibility(d: int, r: int) -> FeasibilityReport:
    """Exact Re(z) = (2r(d+1)(d-r) - d(d+2)(d-1)) / (2r(d+1)(d-r)).

    Feasible iff Re(z) >= -1; the upper bound Re(z) <= 1 always holds for
    1 <= r < d.  The d admitting a solution for fixed r are exactly
    2r-1, 2r, 2r+1.
    """
    if not 1 <= r < d:
        raise RankOutOfRange(f"need 1 <= r < d, got r={r}, d={d}")
    den = 2 * r * (d + 1) * (d - r)
    re_z = Fraction(den - d * (d + 2) * (d - 1), den)
    return FeasibilityReport(
        d=d,
        r=r,
        re_z=re_z,
        feasible=re_z >= -1,
        allowed_d_for_r=frozenset(x for x in (2 * r - 1, 2 * r, 2 * r + 1) if x >= 1),
    )


def compute_phase(d: int, r: int) -> complex:
    """The unit phase with the exact rational real part and Im(z) >= 0."""
    report = feasibility(d, r)
    if not report.feasible:
        raise Infeasible(f"no unit phase exists for d={d}, r={r} (Re z = {report.re_z})")
    re = float(report.re_z)
    im = math.sqrt(max(0.0, float(1 - report.re_z * report.re_z)))
    return complex(re, im)


def build_unitaries(family: ProjectionFamily, z: complex) -> UnitaryFamily:
    """U_i = I - (1-z) P_i; eigenvalue z on range(P_i), 1 on its kernel.

    I is shift-invariant, so this maps the bases, each still moved by every
    cyclic shift: the values on the projections' support, which must list
    each row's diagonal (ShapeMismatch otherwise), into one complex
    (T, d, s) array handed to the family (SupportStack.eye_minus).
    """
    return UnitaryFamily(d=family.d, z=z, bases=family.bases.eye_minus(1.0 - z))


def certify_umeb(uf: UnitaryFamily, tol: Tolerance = DEFAULT_TOL) -> UmebCertificate:
    """Fill every certificate field; failures are verdicts, not errors.

    Unitarity and symmetry are checked on the bases: a shift permutes
    entries.  Unitarity is the largest entry of |U* U - I|, summed over the
    bases' support (matcore.support_product): the paper's unitaries have
    at most two entries a row, so a base costs O(d), not O(d^3).  The
    family's Gram (cyclic_gram), what the checks read off it (gram_stats)
    and its asymmetry are computed once each, here, and the family keeps
    none of them.  The orthogonality deviation and cj_orthonormality_dev
    are read off the stats.

    The span rank comes from Gershgorin discs, or from eigvalsh when the
    discs prove no full rank.  Every eigenvalue of the Hermitian Gram lies
    in some disc [G_ii - R_i, G_ii + R_i], R_i = sum_{j != i} |G_ij|.  If
    the lowest point of the discs exceeds rank_eps times the highest, which
    bounds the largest eigenvalue, all n eigenvalues are counted and that
    lowest point, lam, bounds the smallest of them from below.  The discs'
    centres and radii are the stats, which hold every disc of the family.
    The fallback counts the rank with spectral_rank on gram_spectrum: one
    batched eigvalsh on the d Hermitian T x T blocks of the DFT over the
    shift, so no n x n Gram is formed, and lam is then the smallest
    eigenvalue counted.  A NaN or inf entry of a member reaches the Gram
    and so the lowest point of the discs; such a Gram proves no rank (0),
    and eigvalsh, which would not converge on it, is not called.
    """
    d = uf.d
    n = len(uf)

    eye = SupportStack(np.arange(d)[:, None], np.ones((len(uf.bases), d, 1)))
    max_unitarity_dev = float(np.max(np.abs(support_product(uf.bases, eye)[1])))  # U* U - I
    del eye  # its T d ones, like the gap, are freed before the Gram

    gram = cyclic_gram(uf.bases)
    stats = gram_stats(gram)
    lower = float(np.min(stats.diag.real - stats.radii))
    if lower > tol.rank_eps * float(np.max(stats.diag.real + stats.radii)):
        span_rank, lam = n, lower
    elif not math.isfinite(lower):
        span_rank, lam = 0, 0.0
    else:
        span_rank, lam = spectral_rank(gram_spectrum(gram), tol)
    worst, sq = asymmetry(uf.bases)  # over the bases; each of the d shifts of a base adds its sq
    symmetric_span = span_rank == d * (d + 1) // 2 and worst <= tol.eps

    # for antisymmetric A, tr(U_i* A) = tr(anti(U_i)* A) with anti(U) = (U - U^T)/2,
    # so a unit A projects onto span{U_i} with squared norm at most
    # sum_i |anti(U_i)|_F^2 / lam, lam bounding the eigenvalues counted in span_rank
    complement_antisymmetric = d * sq / 4 <= tol.eps * tol.eps * lam

    # max |G/d - I| off the diagonal is max |G_ij| over d
    diag_dev = np.max(np.abs(stats.diag / d - 1.0))
    cj_orthonormality_dev = float(np.maximum(stats.max_off / d, diag_dev))

    d_odd = d % 2 == 1
    unextendible_verdict = (
        symmetric_span
        and complement_antisymmetric
        and d_odd
        and max_unitarity_dev <= tol.eps
        and cj_orthonormality_dev <= tol.eps
    )
    return UmebCertificate(
        d=d,
        cardinality=n,
        max_unitarity_dev=max_unitarity_dev,
        max_orthogonality_dev=stats.max_off,
        span_rank=span_rank,
        symmetric_span=symmetric_span,
        complement_antisymmetric=complement_antisymmetric,
        d_odd=d_odd,
        unextendible_verdict=unextendible_verdict,
        cj_orthonormality_dev=cj_orthonormality_dev,
    )

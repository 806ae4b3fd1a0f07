"""Unextendible maximally entangled bases from equiangular projections.

The pipeline: decide whether a rank/dimension pair admits a common unit
phase z (exact rational feasibility test), build the unitaries
U_i = I - (1 - z) P_i, and certify the resulting family: trace
orthogonality, span of the symmetric matrices, orthogonality of the
antisymmetric complement and odd dimension.  The certificate is the
machine-checkable record that the vectorized family is an unextendible
maximally entangled basis.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .errors import Infeasible, RankOutOfRange
from .matcore import DEFAULT_TOL, Tolerance, cj_vectorize, gram_matrix
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
    """Unitaries I - (1-z)P_i sharing one unit-modulus phase z."""

    d: int
    z: complex
    unitaries: tuple[np.ndarray, ...]
    source: ProjectionFamily | None = None

    def __len__(self) -> int:
        return len(self.unitaries)


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

    def to_json(self) -> dict:
        return asdict(self)


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
    """U_i = I - (1-z) P_i; eigenvalue z on range(P_i), 1 on its kernel."""
    eye = np.eye(family.d, dtype=complex)
    unitaries = tuple(eye - (1.0 - z) * np.asarray(p, dtype=complex) for p in family.projections)
    return UnitaryFamily(d=family.d, z=z, unitaries=unitaries, source=family)


def cj_states(uf: UnitaryFamily) -> np.ndarray:
    """Row-stacked normalized vectorizations, one d^2 state per unitary."""
    return np.asarray([cj_vectorize(u) for u in uf.unitaries])


@dataclass(frozen=True, eq=False)
class _Span:
    """Gram matrix, symmetry and span rank of a stacked (n, d, d) family."""

    gram: np.ndarray
    off_gram: np.ndarray  # |G_ij| with the diagonal zeroed
    asym: np.ndarray  # |U_i - U_i^T| entrywise
    span_rank: int
    lam: float  # lower bound on the smallest eigenvalue counted in span_rank
    symmetric_span: bool


def _span(stack: np.ndarray, d: int, tol: Tolerance) -> _Span:
    """Span rank by Gershgorin discs, by eigvalsh when the discs prove no full rank.

    Every eigenvalue of the Hermitian Gram lies in some disc
    [G_ii - R_i, G_ii + R_i], R_i = sum_{j != i} |G_ij|.  If the lowest
    point of the discs exceeds rank_eps times the highest, which bounds the
    largest eigenvalue, all n eigenvalues are counted and that lowest point
    bounds the smallest of them from below.
    """
    n = len(stack)
    asym = np.abs(stack - stack.transpose(0, 2, 1))
    gram = gram_matrix(stack)
    off_gram = np.abs(gram)
    off_gram.flat[:: n + 1] = 0.0
    radii = off_gram.sum(axis=1)
    diag = gram.diagonal().real
    lower = float(np.min(diag - radii))
    if lower > tol.rank_eps * float(np.max(diag + radii)):
        span_rank, lam = n, lower
    else:
        eigs = np.linalg.eigvalsh(gram)
        span_rank = int(np.sum(eigs > tol.rank_eps * eigs[-1])) if eigs[-1] > 0 else 0
        lam = float(eigs[-span_rank]) if span_rank else 0.0
    symmetric_span = span_rank == d * (d + 1) // 2 and float(np.max(asym)) <= tol.eps
    return _Span(gram, off_gram, asym, span_rank, lam, symmetric_span)


def certify_umeb(uf: UnitaryFamily, tol: Tolerance = DEFAULT_TOL) -> UmebCertificate:
    """Fill every certificate field from scratch; failures are verdicts, not errors."""
    d = uf.d
    n = len(uf.unitaries)

    stack = np.asarray(uf.unitaries, dtype=complex)
    max_unitarity_dev = float(np.max(np.abs(stack.conj().transpose(0, 2, 1) @ stack - np.eye(d))))
    span = _span(stack, d, tol)
    max_orthogonality_dev = float(np.max(span.off_gram))

    # for antisymmetric A, tr(U_i* A) = tr(anti(U_i)* A) with anti(U) = (U - U^T)/2,
    # so a unit A projects onto span{U_i} with squared norm at most
    # sum_i |anti(U_i)|_F^2 / lam, lam bounding the eigenvalues counted in span_rank
    complement_antisymmetric = float(np.sum(span.asym**2)) / 4 <= tol.eps**2 * span.lam

    cj_orthonormality_dev = float(np.max(np.abs(span.gram / d - np.eye(n))))

    d_odd = d % 2 == 1
    unextendible_verdict = (
        span.symmetric_span
        and complement_antisymmetric
        and d_odd
        and max_unitarity_dev <= tol.eps
        and cj_orthonormality_dev <= tol.eps
    )
    return UmebCertificate(
        d=d,
        cardinality=n,
        max_unitarity_dev=max_unitarity_dev,
        max_orthogonality_dev=max_orthogonality_dev,
        span_rank=span.span_rank,
        symmetric_span=span.symmetric_span,
        complement_antisymmetric=complement_antisymmetric,
        d_odd=d_odd,
        unextendible_verdict=unextendible_verdict,
        cj_orthonormality_dev=cj_orthonormality_dev,
    )


def line_feasibility_sweep(d_max: int) -> list[FeasibilityReport]:
    """Rank-one feasibility for every d = 2..d_max; feasible only at d = 2, 3."""
    return [feasibility(d, 1) for d in range(2, d_max + 1)]

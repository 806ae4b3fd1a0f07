"""Unextendible maximally entangled bases from equiangular projections.

The pipeline: decide whether a rank/dimension pair admits a common unit
phase z (exact rational feasibility test), build the unitaries
U_i = I - (1 - z) P_i, and certify the resulting family: trace
orthogonality, span of the symmetric matrices, orthogonality of the
antisymmetric complement and odd dimension.  The certificate is the
machine-checkable record that the vectorized family is an unextendible
maximally entangled basis.  A unitary family is its projection family and
z: it maps the projections' bases on their union support
(matcore.SupportStack) to its own when they are read, and reads any one
member from those on demand (matcore.OrbitMembers), so it never holds the
n d^2 entries of every member.  The certificate is read off the
projections' equiangular report and z, since U = I - (1 - z)P is unitary,
symmetric and trace-orthogonal exactly as far as the projections are
symmetric idempotents of trace r at the angle beta and z is the exact
unit phase: it computes no Gram, product or asymmetry of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import Infeasible, RankOutOfRange
from .matcore import DEFAULT_TOL, OrbitMembers, SupportStack, Tolerance
from .packing import ProjectionFamily, verify_equiangular


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
    """Unitaries I - (1-z)P_i sharing one unit-modulus phase z: a projection family and z, and nothing else.

    Members are as in ProjectionFamily: member t*d + x is base t shifted by
    x, T d members in all.  d, the bases and the members are read from the
    projection family and z on demand, and nothing is cached: bases maps
    the projections' bases to I - (1 - z)P_t at each read, and unitaries
    reads each member from those.  certify_umeb reads the projection
    family's equiangular report and z, and the orbit kernel of channels
    reads the bases once a call.  A unitary artifact is the generator of
    the projection family (p, k and the Hadamard matrix) and z, and the
    unitaries are rebuilt from them.
    """

    family: ProjectionFamily
    z: complex

    @property
    def d(self) -> int:
        return self.family.d

    def __len__(self) -> int:
        return len(self.family)

    @property
    def bases(self) -> SupportStack:
        """The T complex bases I - (1 - z)P_t on the projections' support, mapped afresh at each read (SupportStack.eye_minus)."""
        return self.family.bases.eye_minus(1 - complex(self.z))

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

    The family is the projections and z: its bases map the projections'
    values on their support, which must list each row's diagonal
    (ShapeMismatch when they are read otherwise), into one complex
    (T, d, s) array when they are read (SupportStack.eye_minus).
    """
    return UnitaryFamily(family, z)


def certify_umeb(uf: UnitaryFamily, tol: Tolerance = DEFAULT_TOL) -> UmebCertificate:
    """Fill every certificate field from the projections' equiangular report and z; failures are verdicts, not errors.

    Every field is an upper bound derived from one verify_equiangular
    report of uf.family, whose deviations are the angle deviation A =
    max |tr(P_i^T P_j) - beta| (i != j), the idempotency deviation
    max |Delta|, Delta = P^T P - P, and the trace deviation max |delta_i|,
    delta_i = tr(P_i) - r, and from O(T d) scalars: a = 1 - z, the phase
    residual phi = d - 2 r Re a + |a|^2 beta, |z|^2 - 1, m = max |P| and
    the support width s.  The members are never formed and no Gram of
    them is computed.  With U = I - aP and P real:
    - tr(U_i* U_j) = |a|^2 (tr(P_i^T P_j) - beta) + phi - conj(a) delta_i
      - a delta_j, so for i != j |tr(U_i* U_j)| <= |phi| + |a|^2 A
      + 2 |a| max |delta| (max_orthogonality_dev); compute_phase makes phi
      0 up to rounding, by feasibility's exact Re z;
    - tr(U_i* U_i) - d = (|z|^2 - 1)(r + delta_i) + |a|^2 tr(Delta_i), at
      most ||z|^2 - 1| (r + max |delta|) + |a|^2 d max |Delta| in magnitude;
    - U* U - I = |a|^2 Delta + conj(a)(P - P^T) + (|z|^2 - 1)P, and
      P - P^T = Delta^T - Delta, so |P - P^T| <= 2 max |Delta| entrywise
      and max_unitarity_dev <= (|a|^2 + 2|a|) max |Delta| + ||z|^2 - 1| m;
    - U - U^T = -a(P - P^T), at most 2 |a| max |Delta| an entry, and a
      base holds at most 2 d s entries of it.
    Each bound adds a float-rounding term: 4 s u (1 + |a| m)^2 for an
    entry, u the float epsilon, which is 4 u times the s products of at
    most (1 + |a| m)^2 that an entry of U* U sums, and d times that for a
    trace, which sums d rows of them.  It covers the rounding of the
    members' values and of the sums the report and a computed certificate
    form, which round within a few units of u of their terms' magnitude:
    a model of the rounding, not a worst case, which for a sum of N terms
    reaches N u times that magnitude.
    cj_orthonormality_dev is the larger of the two trace bounds over d.
    The span rank comes from Gershgorin discs: every eigenvalue of the
    Gram lies in some disc [G_ii - R_i, G_ii + R_i], R_i = sum_{j != i}
    |G_ij| <= (n - 1) times the orthogonality bound.  If the lowest point
    of the discs exceeds rank_eps times the highest, which bounds the
    largest eigenvalue, span_rank is n = len(uf) and lam, that lowest
    point, bounds the smallest eigenvalue from below; otherwise no rank is
    proved, span_rank is 0 and lam 0.  A NaN or inf value of a base
    reaches the report and m, so every bound, and proves no rank.
    For antisymmetric A, tr(U_i* A) = tr(anti(U_i)* A) with
    anti(U) = (U - U^T)/2, so a unit A projects onto span{U_i} with
    squared norm at most sum_i |anti(U_i)|_F^2 / lam: the complement is
    antisymmetric when the bound on that sum is within eps^2 lam.  Each
    derived field bounds the one computed from the members, so a derived
    PASS implies the computed PASS, but not the reverse.
    """
    family = uf.family
    d, n, r = family.d, len(family), family.r
    report = verify_equiangular(family, tol)
    z = complex(uf.z)
    a = 1 - z
    size = abs(a)
    phase = d - 2 * r * a.real + size * size * float(family.beta)  # phi
    norm = abs(z.real * z.real + z.imag * z.imag - 1)  # ||z|^2 - 1|
    m = float(np.max(np.abs(family.bases.values), initial=0.0))
    s = family.bases.cols.shape[1]
    entry_err = 4 * s * math.ulp(1.0) * (1 + size * m) ** 2  # ulp(1): the float epsilon u
    idem, trace = report.max_idempotency_dev, report.max_rank_dev

    max_unitarity_dev = (size * size + 2 * size) * idem + norm * m + entry_err
    max_orthogonality_dev = abs(phase) + size * size * report.max_angle_dev + 2 * size * trace + d * entry_err
    own = norm * (r + trace) + size * size * d * idem + d * entry_err  # max |tr(U_i* U_i) - d|
    asym = 2 * size * idem + entry_err  # max |U - U^T|

    radius = (n - 1) * max_orthogonality_dev
    lower = d - own - radius
    span_rank, lam = (n, lower) if lower > tol.rank_eps * (d + own + radius) else (0, 0.0)
    symmetric_span = span_rank == d * (d + 1) // 2 and asym <= tol.eps
    # n members, each with at most 2 d s entries of U - U^T, so sum_i |anti(U_i)|_F^2 <= n 2 d s asym^2 / 4
    complement_antisymmetric = n * d * s * asym * asym / 2 <= tol.eps * tol.eps * lam
    cj_orthonormality_dev = float(np.maximum(max_orthogonality_dev, own)) / d  # keeps a NaN, as max() would not

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
        max_orthogonality_dev=max_orthogonality_dev,
        span_rank=span_rank,
        symmetric_span=symmetric_span,
        complement_antisymmetric=complement_antisymmetric,
        d_odd=d_odd,
        unextendible_verdict=unextendible_verdict,
        cj_orthonormality_dev=cj_orthonormality_dev,
    )

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
from functools import cached_property

import numpy as np

from .errors import Infeasible, OutOfRange, RankOutOfRange
from .matcore import DEFAULT_TOL, Tolerance, _blocks, gram_matrix, orbit_stack, read_only_stack
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
    """Unitaries I - (1-z)P_i sharing one unit-modulus phase z: bases and a shift count.

    Members, shifts and bases are as in ProjectionFamily; the bases are
    complex.  Because no caller can write to them through the family, its
    trace Gram rows, its symmetry deviations and its dense members are
    computed once, on first use, and kept on the object.
    """

    d: int
    z: complex
    bases: np.ndarray
    shifts: int = 1
    source: ProjectionFamily | None = None

    def __post_init__(self):
        object.__setattr__(self, "bases", read_only_stack(self.bases, self.d, complex))
        if self.shifts not in (1, self.d):
            raise OutOfRange(f"shifts must be 1 or d={self.d}, got {self.shifts}")

    def __len__(self) -> int:
        return len(self.bases) * self.shifts

    @cached_property
    def unitaries(self) -> np.ndarray:
        """Every member as one read-only complex (n, d, d) array, gathered from the bases on first use."""
        return orbit_stack(self.bases, self.shifts)

    @cached_property
    def gram_rows(self) -> np.ndarray:
        """gram_matrix(bases, shifts), read-only: row t of G_ij = tr(U_i* U_j) per base, shape (n / shifts, n).

        For whole orbits these (n/d) rows fix the block-circulant Gram,
        G[t*d + x, t'*d + x'] = gram_rows[t, t'*d + (x' - x) mod d]; for
        shifts = 1 they are the whole n x n Gram.
        """
        rows = gram_matrix(self.bases, self.shifts)
        rows.flags.writeable = False
        return rows

    @cached_property
    def asymmetry(self) -> tuple[float, float]:
        """(max |U - U^T|, sum |U - U^T|^2) over all members, from the bases in blocks: a shift permutes entries."""
        worst, sq = [], 0.0
        for members in _blocks(len(self.bases), self.d * self.d * self.bases.itemsize):
            chunk = self.bases[members]
            dev = np.abs(chunk - chunk.transpose(0, 2, 1))
            worst.append(np.max(dev))
            sq += float(np.vdot(dev, dev))
        return float(np.max(worst)), self.shifts * sq


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
    """U_i = I - (1-z) P_i; eigenvalue z on range(P_i), 1 on its kernel.

    I is shift-invariant, so this maps the bases, with the same shifts: one
    broadcast into one complex (T, d, d) array, handed to the family.
    """
    bases = family.bases.astype(complex)
    bases *= 1.0 - z
    np.subtract(np.eye(family.d), bases, out=bases)
    bases.flags.writeable = False
    return UnitaryFamily(d=family.d, z=z, bases=bases, shifts=family.shifts, source=family)


def cj_states(uf: UnitaryFamily) -> np.ndarray:
    """Row-stacked normalized vectorizations, one d^2 state per unitary."""
    n, d = len(uf), uf.d
    # vec stacks columns, so row i is U_i transposed, read in C order
    return uf.unitaries.transpose(0, 2, 1).reshape(n, d * d) / math.sqrt(d)


@dataclass(frozen=True, eq=False)
class _Span:
    """The tolerance-dependent span facts of a family, read off its Gram rows."""

    max_off_gram: float  # max_{i != j} |G_ij|
    span_rank: int
    lam: float  # lower bound on the smallest eigenvalue counted in span_rank
    symmetric_span: bool
    diag: np.ndarray  # G_ii of the Gram rows' own members, one per row


def _whole_gram(rows: np.ndarray, s: int) -> np.ndarray:
    """The n x n Gram spread out of its rows for s shifts: G[t*s + x, t'*s + x'] = rows[t, t'*s + (x' - x) mod s]."""
    ts, xs = np.arange(len(rows)), np.arange(s)
    at = (xs - xs[:, None, None]) % s  # at[x, 0, x'] = (x' - x) mod s
    return rows.reshape(len(ts), len(ts), s)[ts[:, None, None, None], ts[:, None], at].reshape(len(rows) * s, -1)


def _span(uf: UnitaryFamily, tol: Tolerance) -> _Span:
    """Span rank by Gershgorin discs, by eigvalsh when the discs prove no full rank.

    Every eigenvalue of the Hermitian Gram lies in some disc
    [G_ii - R_i, G_ii + R_i], R_i = sum_{j != i} |G_ij|.  If the lowest
    point of the discs exceeds rank_eps times the highest, which bounds the
    largest eigenvalue, all n eigenvalues are counted and that lowest point
    bounds the smallest of them from below.  The discs, max |G_ij| off the
    diagonal and the diagonal come from uf.gram_rows: a row of a member
    shifted by x is its base's row permuted, so the base rows have every
    radius, off-diagonal entry and diagonal entry of the family.  The
    eigvalsh fallback needs the whole Gram, and _whole_gram spreads the
    rows into it.
    """
    n, d = len(uf), uf.d
    gram = uf.gram_rows
    m = len(gram)
    own = np.arange(m) * uf.shifts  # the column of each row's diagonal entry
    radii = np.empty(m)
    max_off = []
    for rows in _blocks(m, n * gram.itemsize):
        off = np.abs(gram[rows])
        off[np.arange(len(off)), own[rows]] = 0.0
        radii[rows] = off.sum(axis=1)
        max_off.append(np.max(off))
    diag = gram[np.arange(m), own]
    lower = float(np.min(diag.real - radii))
    if lower > tol.rank_eps * float(np.max(diag.real + radii)):
        span_rank, lam = n, lower
    else:
        eigs = np.linalg.eigvalsh(_whole_gram(gram, uf.shifts))
        span_rank = int(np.sum(eigs > tol.rank_eps * eigs[-1])) if eigs[-1] > 0 else 0
        lam = float(eigs[-span_rank]) if span_rank else 0.0
    symmetric_span = span_rank == d * (d + 1) // 2 and uf.asymmetry[0] <= tol.eps
    return _Span(float(np.max(max_off)), span_rank, lam, symmetric_span, diag)


def certify_umeb(uf: UnitaryFamily, tol: Tolerance = DEFAULT_TOL) -> UmebCertificate:
    """Fill every certificate field; failures are verdicts, not errors.

    Unitarity and symmetry are checked on the bases, in blocks: a shift
    permutes entries.  The orthogonality deviation, the span rank and
    cj_orthonormality_dev come from the family's Gram rows through _span.
    """
    d = uf.d
    n = len(uf)

    eye = np.eye(d)
    unitarity_devs = []
    for members in _blocks(len(uf.bases), d * d * uf.bases.itemsize):
        chunk = uf.bases[members]
        dev = chunk.conj().transpose(0, 2, 1) @ chunk
        dev -= eye
        unitarity_devs.append(np.max(np.abs(dev)))
    max_unitarity_dev = float(np.max(unitarity_devs))
    span = _span(uf, tol)
    max_orthogonality_dev = span.max_off_gram

    # for antisymmetric A, tr(U_i* A) = tr(anti(U_i)* A) with anti(U) = (U - U^T)/2,
    # so a unit A projects onto span{U_i} with squared norm at most
    # sum_i |anti(U_i)|_F^2 / lam, lam bounding the eigenvalues counted in span_rank
    complement_antisymmetric = uf.asymmetry[1] / 4 <= tol.eps * tol.eps * span.lam

    # max |G/d - I| off the diagonal is the span pass's max |G_ij| over d
    diag_dev = np.max(np.abs(span.diag / d - 1.0))
    cj_orthonormality_dev = float(np.maximum(span.max_off_gram / d, diag_dev))

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

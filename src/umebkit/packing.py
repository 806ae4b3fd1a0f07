"""Equiangular projection families.

Two sources: the quadratic-residue/Hadamard construction that yields
p(p+1)/2 rank-(p-1)/2 real projections in dimension p (for p = 3 or
p = 7 mod 8), and the six icosahedron diagonals as rank-one projections in
dimension 3.  Also the duality map Q_i = I - P_i and the closed-form common
angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    HadamardOrderMismatch,
    IndexOutOfRange,
    MalformedArtifact,
    NotOrthogonal,
    OutOfRange,
    RankOutOfRange,
)
from .hadamard import HadamardMatrix
from .matcore import (
    DEFAULT_TOL,
    Tolerance,
    block_deviation,
    gram_matrix,
    gram_row_stats,
    json_int,
    json_number,
    orbit_stack,
    read_only_stack,
    stack_from_json,
    stack_to_json,
)
from .numth import UmebPrime


@dataclass(frozen=True, eq=False)
class ProjectionFamily:
    """Same-rank real symmetric projections with a common target angle: bases and a shift count.

    Member t*shifts + x is bases[t] shifted by x (matcore.orbit_stack);
    shifts is d for whole Z_d orbits and 1 otherwise.  bases is one
    read-only (T, d, d) array that the family owns: a sequence or a writable
    array given to the constructor is copied into it.  beta is the exact
    rational target of tr(P_i P_j) for i != j; scale is the off-support
    coefficient (1 + sqrt(p+2))/sqrt(p+1) when applicable.
    """

    d: int
    r: int
    bases: np.ndarray
    beta: Fraction
    shifts: int = 1
    scale: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "bases", read_only_stack(self.bases, self.d))
        if self.shifts not in (1, self.d):
            raise OutOfRange(f"shifts must be 1 or d={self.d}, got {self.shifts}")

    def __len__(self) -> int:
        return len(self.bases) * self.shifts

    @cached_property
    def projections(self) -> np.ndarray:
        """Every member as one read-only (n, d, d) array, gathered from the bases on first use."""
        return orbit_stack(self.bases, self.shifts)


@dataclass(frozen=True)
class EquiangularReport:
    """Deviations of a family from its contract, all as max-abs values."""

    pairs: int
    beta: float
    max_angle_dev: float
    max_idempotency_dev: float
    max_rank_dev: float
    passed: bool


def beta_lines(d: int) -> float:
    """Common angle 1/sqrt(d+2) of a maximal set of real equiangular lines."""
    return 1.0 / math.sqrt(d + 2)


def beta_projections(d: int, r: int) -> Fraction:
    """Exact common trace r(rd + r - 2)/((d+2)(d-1)) of a maximal rank-r family."""
    if not 1 <= r < d:
        raise RankOutOfRange(f"need 1 <= r < d, got r={r}, d={d}")
    return Fraction(r * (r * d + r - 2), (d + 2) * (d - 1))


def off_support_scale(p: int) -> float:
    """The coefficient (1 + sqrt(p+2))/sqrt(p+1) placed on the non-residue index."""
    return (1.0 + math.sqrt(p + 2)) / math.sqrt(p + 1)


def residue_base_vectors(prime: UmebPrime, h: HadamardMatrix) -> np.ndarray:
    """The unnormalized base vectors of every subspace, as one (p+1)/2 x (p-1)/2 x p array.

    Vector s - 1 of subspace t (s = 1..(p-1)/2) has a 1 at index q_s and
    h[s, t] * h[0, t] * scale at index k*q_s mod p, using 0-indexed
    coordinates; rows 0..(p-1)/2 and columns 0..(p-1)/2 of h are consumed.
    The factor h[0, t] normalizes row 0 of h to all +1, which the
    construction needs and not every Hadamard strategy provides.  Each
    vector has squared norm 1 + scale^2.  The support indices must lie in
    1..p-1 (IndexOutOfRange otherwise) and be p - 1 distinct ones, so that
    the supports are pairwise disjoint (NotOrthogonal otherwise): a
    UmebPrime built by hand can break either.
    """
    p = prime.p
    half = prime.half
    if h.order != (p + 1) // 2:
        raise HadamardOrderMismatch(f"need Hadamard order {(p + 1) // 2}, got {h.order}")
    residues = np.asarray(prime.residues, dtype=np.int64)
    partners = prime.k * residues % p
    supports = np.concatenate((residues, partners))
    if not np.all((supports >= 1) & (supports < p)):
        raise IndexOutOfRange(f"a support index of p={p}, k={prime.k} is outside 1..{p - 1}")
    if len(supports) != p - 1 or np.max(np.bincount(supports)) > 1:
        raise NotOrthogonal(f"support indices collide for p={p}, k={prime.k}")
    signs = h.entries[1 : half + 1, : half + 1] * h.entries[0, : half + 1]  # signs[s - 1, t]
    vectors = np.zeros(((p + 1) // 2, half, p))
    s = np.arange(half)
    vectors[:, s, residues] = 1.0
    vectors[:, s, partners] = signs.T * off_support_scale(p)
    return vectors


def projection_from_basis(vectors: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projection onto the span of pairwise-orthogonal vectors, for one basis or a stack of them.

    vectors is (r, d), the rows one basis, or (T, r, d), one basis per
    entry; the result is (d, d) or (T, d, d).  NotOrthogonal if, in some
    basis, an inner product of two vectors exceeds eps times its largest
    squared norm.
    """
    stack = np.asarray(vectors, dtype=float)
    overlap = stack @ stack.swapaxes(-1, -2)
    norms = np.diagonal(overlap, axis1=-2, axis2=-1).copy()
    own = np.arange(overlap.shape[-1])
    overlap[..., own, own] = 0.0
    worst = np.max(np.abs(overlap, out=overlap), axis=(-2, -1))
    del overlap  # not alive beside the vectors, their normalized copy and the product
    if np.any(worst > tol.eps * np.max(norms, axis=-1)):
        raise NotOrthogonal(f"basis vectors overlap, max inner product {float(np.max(worst)):.3e}")
    normalized = stack / np.sqrt(norms)[..., None]
    return normalized.swapaxes(-1, -2) @ normalized


def build_residue_family(prime: UmebPrime, h: HadamardMatrix) -> ProjectionFamily:
    """All p(p+1)/2 projections: bases t = 0..(p-1)/2, each cyclically shifted p ways.

    The family holds the (p+1)/2 base projections with shifts = p, built
    from residue_base_vectors in one batched projection_from_basis: moving
    every basis vector by x maps P to P[i - x, j - x], and a shift only
    permutes coordinates, so the orthogonality check on a base covers all
    its shifts.
    """
    p = prime.p
    bases = projection_from_basis(residue_base_vectors(prime, h))
    bases.flags.writeable = False
    return ProjectionFamily(
        d=p,
        r=prime.half,
        bases=bases,
        beta=beta_projections(p, prime.half),
        shifts=p,
        scale=off_support_scale(p),
    )


def verify_equiangular(
    family: ProjectionFamily, tol: Tolerance = DEFAULT_TOL
) -> EquiangularReport:
    """Check pairwise traces, idempotency and trace-rank of every member.

    The pairwise traces come from the Gram rows gram_matrix(bases, shifts),
    which hold every entry: max_angle_dev is the largest off-diagonal
    magnitude of the rows minus beta (matcore.gram_row_stats).  A shift
    permutes entries, so idempotency and traces are checked on the bases
    alone; idempotency as chunk @ chunk - chunk in one block_deviation
    pass, which keeps a NaN.
    """
    bases = family.bases
    n = len(family)
    beta = float(family.beta)
    angle_devs = gram_matrix(bases, family.shifts).real
    angle_devs -= beta
    max_angle_dev = gram_row_stats(angle_devs, family.shifts).max_off

    def idempotency_gap(chunk):
        gap = chunk @ chunk
        gap -= chunk  # in place, as block_deviation takes the magnitude: one array per block
        return gap

    max_idem_dev = block_deviation(bases, idempotency_gap)[0]
    traces = np.einsum("nii->n", bases)
    max_rank_dev = float(np.max(np.abs(traces - family.r)))
    passed = (
        max_angle_dev <= tol.eps
        and max_idem_dev <= tol.eps
        and max_rank_dev <= tol.eps
    )
    return EquiangularReport(
        pairs=n * (n - 1) // 2,
        beta=beta,
        max_angle_dev=max_angle_dev,
        max_idempotency_dev=max_idem_dev,
        max_rank_dev=max_rank_dev,
        passed=passed,
    )


def dual_family(family: ProjectionFamily) -> ProjectionFamily:
    """Complementary projections I - P_i, from the bases (I is shift-invariant); rank d - r, angle beta + d - 2r."""
    d = family.d
    dual = np.eye(d) - family.bases
    dual.flags.writeable = False
    return ProjectionFamily(
        d=d,
        r=d - family.r,
        bases=dual,
        beta=family.beta + (d - 2 * family.r),
        shifts=family.shifts,
        scale=family.scale,
    )


def icosahedron_lines() -> ProjectionFamily:
    """Rank-one projections onto the six diagonals of a regular icosahedron.

    Standard golden-ratio coordinates (0, +-1, phi) and cyclic rotations;
    pairwise trace 1/5, matching beta_projections(3, 1).
    """
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    raw = np.array([
        (0.0, 1.0, phi),
        (0.0, -1.0, phi),
        (1.0, phi, 0.0),
        (-1.0, phi, 0.0),
        (phi, 0.0, 1.0),
        (phi, 0.0, -1.0),
    ])
    v = raw / math.sqrt(1.0 + phi * phi)
    return ProjectionFamily(
        d=3,
        r=1,
        bases=v[:, :, None] * v[:, None, :],
        beta=Fraction(1, 5),
    )


def identity_coefficient(d: int, r: int, beta: Fraction) -> Fraction:
    """Exact x with x * sum(P_i) = I for a maximal family: (r^2 - d*beta)/(r(r - beta))."""
    return (Fraction(r * r) - d * beta) / (r * (r - beta))


FAMILY_FIELDS = ["C", "bases", "beta_den", "beta_num", "d", "r", "shifts"]  # sorted


def family_to_json(family: ProjectionFamily) -> dict:
    """The family's fields, its shift count and its bases as one stack: exactly FAMILY_FIELDS."""
    return {
        "d": family.d,
        "r": family.r,
        "beta_num": family.beta.numerator,
        "beta_den": family.beta.denominator,
        "C": family.scale,
        "shifts": family.shifts,
        "bases": stack_to_json(family.bases),
    }


def family_from_json(obj: dict) -> ProjectionFamily:
    """Inverse of family_to_json; MalformedArtifact, ShapeMismatch or OutOfRange on bad input.

    The fields must be exactly FAMILY_FIELDS, which rejects the dense format
    of earlier versions.  A family of whole orbits (shifts = d) was built by
    the residue construction, so its C must be exactly off_support_scale(d).
    """
    fields = sorted(obj) if isinstance(obj, dict) else type(obj).__name__
    if fields != FAMILY_FIELDS:
        raise MalformedArtifact(f"a family has the fields {FAMILY_FIELDS}, not {fields}")
    try:
        d, r = json_int(obj["d"], "d"), json_int(obj["r"], "r")
        beta = Fraction(json_int(obj["beta_num"], "beta_num"), json_int(obj["beta_den"], "beta_den"))
        scale = None if obj["C"] is None else json_number(obj["C"], "C")
        shifts = json_int(obj["shifts"], "shifts")
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise MalformedArtifact(f"malformed family field: {exc}") from None
    family = ProjectionFamily(
        d=d,
        r=r,
        bases=stack_from_json(obj["bases"], d),
        beta=beta,
        shifts=shifts,
        scale=scale,
    )
    if shifts == d and scale != off_support_scale(d):
        raise MalformedArtifact(
            f"C = {scale!r} of a family of whole orbits is not the coefficient {off_support_scale(d)!r} for d={d}"
        )
    return family

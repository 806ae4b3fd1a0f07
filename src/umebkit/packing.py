"""Equiangular projection families.

Two sources: the quadratic-residue/Hadamard construction that yields
p(p+1)/2 rank-(p-1)/2 real projections in dimension p (for p = 3 or
p = 7 mod 8), and the six icosahedron diagonals as rank-one projections in
dimension 3, which are that construction at p = 3; and the closed-form
common angle.  The paper's dual family Q_i = I - P_i is no new UMEB (its
unitaries are z conj(U_i), member by member), so the package does not
build it.  A family is T bases, each moved by every cyclic shift, and
holds the bases on their support (matcore.SupportStack), and takes no
other kind of bases: the residue bases are written there directly, each
base vector's two nonzero entries given by their indices and
coefficients.
verify_equiangular reads each family's pairwise traces off its Gram, held
by its parts from the bases' cyclic diagonals, and its idempotency off
products summed over that support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import (
    HadamardOrderMismatch,
    IndexOutOfRange,
    NotOrthogonal,
    NotReal,
    RankOutOfRange,
)
from .hadamard import HadamardMatrix, construct
from .matcore import (
    DEFAULT_TOL,
    OrbitMembers,
    SupportStack,
    Tolerance,
    cyclic_gram,
    gram_stats,
    support_product,
)
from .numth import UmebPrime, validate_prime


@dataclass(frozen=True, eq=False)
class ProjectionFamily:
    """Same-rank real symmetric projections with a common target angle: T bases, each moved by every cyclic shift.

    Member t*d + x is base t shifted by x, so the family has T d members,
    whole Z_d orbits.  bases is the T real bases on their support, one
    read-only matcore.SupportStack of d x d matrices (ShapeMismatch for
    any other bases, a dense array among them; NotReal for complex
    values).  r is the common rank, 1 <= r < d (RankOutOfRange otherwise),
    the range in which beta_projections and feasibility are defined.  beta
    is the exact rational target of tr(P_i P_j) for i != j.  The family
    keeps d, r, bases and beta and nothing else: projections reads each
    member from the bases when it is asked for, as UnitaryFamily.unitaries
    does, so it never holds the n d^2 entries of every member.
    """

    d: int
    r: int
    bases: SupportStack
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "bases", SupportStack.of(self.bases, self.d))
        if np.iscomplexobj(self.bases.values):  # verify_equiangular compares only the real part of each trace with beta
            raise NotReal(f"a family's projections are real, got bases of dtype {self.bases.values.dtype}")
        if not 1 <= self.r < self.d:
            raise RankOutOfRange(f"need 1 <= r < d, got r={self.r}, d={self.d}")

    def __len__(self) -> int:
        return len(self.bases) * self.d

    @property
    def projections(self) -> OrbitMembers:
        """Every member as a read-only sequence of len(self) real (d, d) arrays, each scattered from the bases when read."""
        return OrbitMembers(self.bases)


@dataclass(frozen=True)
class EquiangularReport:
    """Deviations of a family from its contract, all as max-abs values."""

    pairs: int
    beta: float
    max_angle_dev: float
    max_idempotency_dev: float
    max_rank_dev: float
    passed: bool


def beta_projections(d: int, r: int) -> Fraction:
    """Exact common trace r(rd + r - 2)/((d+2)(d-1)) of a maximal rank-r family."""
    if not 1 <= r < d:
        raise RankOutOfRange(f"need 1 <= r < d, got r={r}, d={d}")
    return Fraction(r * (r * d + r - 2), (d + 2) * (d - 1))


def off_support_scale(p: int) -> float:
    """The coefficient (1 + sqrt(p+2))/sqrt(p+1) placed on the non-residue index."""
    return (1.0 + math.sqrt(p + 2)) / math.sqrt(p + 1)


def residue_base_vectors(prime: UmebPrime, h: HadamardMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(ends, coefficients): the unnormalized base vectors of every subspace on their two-entry supports.

    Vector s - 1 of subspace t (s = 1..(p-1)/2) has a 1 at index
    ends[0, s - 1] = q_s and coefficients[t, s - 1] = h[s, t] * h[0, t] *
    scale at index ends[1, s - 1] = k*q_s mod p, using 0-indexed
    coordinates, and is 0 elsewhere; rows 0..(p-1)/2 and columns
    0..(p-1)/2 of h are consumed.  The factor h[0, t] normalizes row 0 of h
    to all +1, which the construction needs and not every Hadamard strategy
    provides.  Each vector has squared norm 1 + scale^2.  The support
    indices must lie in 1..p-1 (IndexOutOfRange otherwise) and be p - 1
    distinct ones, so that the supports are pairwise disjoint
    (NotOrthogonal otherwise): a UmebPrime built by hand can break either.
    """
    p = prime.p
    half = prime.half
    if h.order != (p + 1) // 2:
        raise HadamardOrderMismatch(f"need Hadamard order {(p + 1) // 2}, got {h.order}")
    residues = np.asarray(prime.residues, dtype=np.int64)
    partners = prime.k * residues % p
    supports = np.concatenate((residues, partners))
    if supports.min(initial=1) < 1 or supports.max(initial=1) >= p:
        raise IndexOutOfRange(f"a support index of p={p}, k={prime.k} is outside 1..{p - 1}")
    if len(supports) != p - 1 or np.bincount(supports).max() > 1:
        raise NotOrthogonal(f"support indices collide for p={p}, k={prime.k}")
    signs = h.entries[1 : half + 1, : half + 1] * h.entries[0, : half + 1]  # signs[s - 1, t]
    return np.stack((residues, partners)), signs.T * off_support_scale(p)


def build_residue_family(prime: UmebPrime, h: HadamardMatrix) -> ProjectionFamily:
    """All p(p+1)/2 projections: bases t = 0..(p-1)/2, each cyclically shifted p ways.

    The family holds the (p+1)/2 base projections, built on their support from residue_base_vectors, which proves the vectors
    of every base orthogonal: their two-entry supports are pairwise
    disjoint, or it raises NotOrthogonal.  So each base is the sum of the
    outer products of its normalized vectors, and each outer product is the
    2 x 2 block of one vector's two entries: rows q and kq hold the
    columns {q, kq}, in ascending order, and row 0, in no support, the
    padding columns 0 and 1.  That is one (p, 2) column table for every
    base and 2p values a base, written directly, with no (T, p, p) array.
    Moving every basis vector by x maps P to P[i - x, j - x], and a shift
    only permutes coordinates, so what holds for a base holds for every
    shift of it.
    """
    p = prime.p
    ends, coefficients = residue_base_vectors(prime, h)  # ends[:, s]: the two support indices of vector s
    norm = np.sqrt(1.0 + coefficients**2)
    x = np.zeros(((p + 1) // 2, p))  # x[t, i]: entry i of the normalized vector of base t whose support holds i
    x[:, ends[0]] = 1.0 / norm
    x[:, ends[1]] = coefficients / norm
    partner = np.empty(p, dtype=np.intp)
    partner[ends] = ends[::-1]
    partner[0] = 1  # row 0 lies in no support: its padding columns are 0 and 1
    coords = np.arange(p)
    cols = np.stack((np.minimum(coords, partner), np.maximum(coords, partner)), axis=1)
    values = np.take(x, cols, axis=1)  # owns its data, unlike x[:, cols], so the stack keeps it uncopied
    values *= x[:, :, None]  # the 2 x 2 block x x^T of each vector, row by row
    values[:, 0] = 0.0
    return ProjectionFamily(
        d=p,
        r=prime.half,
        bases=SupportStack(cols, values),
        beta=beta_projections(p, prime.half),
    )


def verify_equiangular(
    family: ProjectionFamily, tol: Tolerance = DEFAULT_TOL
) -> EquiangularReport:
    """Check pairwise traces, idempotency and trace-rank of every member.

    The pairwise traces come from the Gram cyclic_gram(bases), held by its
    parts, which fix every entry: G - beta is its products c
    beside its correlations h - beta, and max_angle_dev is the largest
    off-diagonal magnitude of that (matcore.gram_stats), O(T^2 + g^2 d)
    however many pairs there are.  A shift permutes entries, so
    idempotency and traces are checked on the bases alone.
    max_idempotency_dev is the largest entry of |P^T P - P|, which is 0
    exactly when P is a symmetric idempotent, an orthogonal projection: an
    oblique idempotent (P P = P, P^T != P) fails it.  It is summed over the
    bases' support (matcore.support_product, which keeps a NaN): the
    paper's projections have two entries a row, so a base costs O(d), not
    O(d^3).  Each trace is summed in order along the diagonal.
    """
    bases = family.bases
    n = len(family)
    beta = float(family.beta)
    gram = cyclic_gram(bases)
    max_angle_dev = gram_stats(replace(gram, h=gram.h - beta)).max_off
    gap = support_product(bases, bases)[1]  # P^T P - P
    max_idem_dev = float(np.max(np.abs(gap)))
    coords = np.arange(family.d)
    traces = np.cumsum(bases.at(coords, coords), axis=1)[:, -1]
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


def icosahedron_lines() -> ProjectionFamily:
    """Rank-one projections onto the six diagonals of a regular icosahedron: the residue family at p = 3.

    Its two bases project onto (0, 1, phi) and (0, -1, phi), with phi =
    off_support_scale(3) the golden ratio, and their moves by each cyclic
    shift are the standard golden-ratio coordinates (0, +-1, phi) rotated.
    Pairwise trace 1/5, matching beta_projections(3, 1).
    """
    return build_residue_family(validate_prime(3), construct(2))

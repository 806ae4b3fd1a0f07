"""Dense complex matrix core: trace inner products, Gram-matrix numerical rank,
symmetric/antisymmetric splits, column-stacking vectorization, unitarity tests.

Vectorization convention, fixed once for the whole package: vec(U) stacks the
columns of U, so vec(U)[j*d + i] = U[i, j] and the normalized image of a
unitary is a unit vector in C^(d^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MalformedArtifact, NotSquare, ShapeMismatch

DEFAULT_EPS = 1e-9
DEFAULT_RANK_EPS = 1e-7


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds: eps for entrywise checks, rank_eps for spectra."""

    eps: float = DEFAULT_EPS
    rank_eps: float = DEFAULT_RANK_EPS

    def __post_init__(self):
        if self.eps <= 0 or self.rank_eps <= 0:
            raise ValueError("tolerances must be positive")


DEFAULT_TOL = Tolerance()


def frobenius_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """tr(a* b) = sum of conj(a_ij) * b_ij."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"shapes {a.shape} and {b.shape} differ")
    return complex(np.vdot(a, b))


def gram_matrix(mats: list[np.ndarray] | np.ndarray) -> np.ndarray:
    """Hermitian Gram matrix G_ij = tr(m_i* m_j) of same-shape matrices.

    A stacked array is used without a copy; real input gives a real Gram.
    """
    stack = np.asarray(mats)
    if stack.ndim < 2:
        raise ShapeMismatch("need at least one matrix")
    flat = stack.reshape(stack.shape[0], -1)
    return flat.conj() @ flat.T


def numerical_rank(mats: list[np.ndarray] | np.ndarray, tol: Tolerance = DEFAULT_TOL) -> int:
    """Rank of the Gram matrix, counting eigenvalues above rank_eps * largest."""
    if len(mats) == 0:
        return 0
    shapes = {np.asarray(m).shape for m in mats}
    if len(shapes) > 1:
        raise ShapeMismatch(f"mixed shapes {sorted(shapes)}")
    eigs = np.linalg.eigvalsh(gram_matrix(mats))
    top = eigs[-1]
    if top <= 0:
        return 0
    return int(np.sum(eigs > tol.rank_eps * top))


def sym_antisym_split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """((a + a.T)/2, (a - a.T)/2); plain transpose, no conjugation."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {a.shape}")
    return (a + a.T) / 2, (a - a.T) / 2


def cj_vectorize(u: np.ndarray) -> np.ndarray:
    """Column-stacking of u rescaled by 1/sqrt(d); unit vector for unitary u."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {u.shape}")
    d = u.shape[0]
    return u.flatten(order="F") / math.sqrt(d)


def is_unitary(u: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """(verdict, deviation) with deviation = max entry of |u* u - I|."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {u.shape}")
    dev = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    return dev <= tol.eps, dev


def matrix_to_json(m: np.ndarray) -> dict:
    """Row-major {"rows", "cols", "data": [[re, im], ...]} encoding."""
    m = np.asarray(m, dtype=complex)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "data": np.stack((m.real, m.imag), -1).reshape(-1, 2).tolist(),
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    """Bit-exact inverse of matrix_to_json, signed zeros included.

    ShapeMismatch unless rows and cols are sizes and data is rows*cols pairs
    of JSON numbers; MalformedArtifact if one of them is NaN or infinite.
    """
    try:
        shape = (int(obj["rows"]), int(obj["cols"]))
        data = np.array(obj["data"])
    except (TypeError, ValueError, ArithmeticError) as exc:  # ValueError: ragged data
        raise ShapeMismatch(f"malformed matrix: {exc}") from None
    if min(shape) < 0 or data.shape != (shape[0] * shape[1], 2) or data.dtype.kind not in "iuf":
        raise ShapeMismatch(
            f"matrix data of shape {data.shape} and dtype {data.dtype} "
            f"is not {shape[0]}*{shape[1]} [re, im] pairs"
        )
    if not np.isfinite(data).all():
        raise MalformedArtifact("matrix data has a NaN or infinite entry")
    return data.astype(float).view(complex).reshape(shape)

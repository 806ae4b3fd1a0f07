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

from .errors import MalformedArtifact, NotSquare, OutOfRange, ShapeMismatch

DEFAULT_EPS = 1e-9
DEFAULT_RANK_EPS = 1e-7
# bytes per block of every chunked pass in the package: one budget, so the
# temporaries of a pass stay near 8 MiB however large the family grows
_BLOCK_BYTES = 8 << 20


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds: eps for entrywise checks, rank_eps for spectra.

    Both lie strictly between 0 and 1.  An eps of 1 or more passes a deviation
    as large as a unitary's entries, and a relative rank threshold of 1 or
    more counts no eigenvalue, so either would make every check vacuous.
    """

    eps: float = DEFAULT_EPS
    rank_eps: float = DEFAULT_RANK_EPS

    def __post_init__(self):
        for name in ("eps", "rank_eps"):
            value = getattr(self, name)
            if not 0 < value < 1:
                raise OutOfRange(f"tolerance {name} must be > 0 and < 1, got {value}")


DEFAULT_TOL = Tolerance()


def _blocks(n: int, item_bytes: int):
    """Slices of range(n) with at most _BLOCK_BYTES // item_bytes items each, and at least one."""
    step = max(1, _BLOCK_BYTES // max(1, item_bytes))
    for start in range(0, n, step):
        yield slice(start, min(n, start + step))


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
    Real input is one product of the stack with its own transpose, which
    numpy computes as a symmetric rank-k update at half the cost.  Complex
    input needs conjugated members, so its rows are computed in blocks of
    _BLOCK_BYTES of Gram rows, and only that block's members exist conjugated
    at once.
    """
    stack = np.asarray(mats)
    if stack.ndim < 2:
        raise ShapeMismatch("need at least one matrix")
    n = stack.shape[0]
    flat = stack.reshape(n, -1)
    if not np.iscomplexobj(flat):
        return flat @ flat.T
    gram = np.empty((n, n), dtype=flat.dtype)
    for rows in _blocks(n, n * gram.itemsize):
        np.matmul(flat[rows].conj(), flat.T, out=gram[rows])
    return gram


def read_only_stack(members, d: int, dtype=None) -> np.ndarray:
    """members as one read-only (n, d, d) array that no caller can write through.

    An array that is read-only down to the memory it views, and already of
    dtype, is kept: its builder has handed it over.  Anything else (a
    sequence, a writable array, a read-only view of a writable one) is
    copied first.  ShapeMismatch unless the members are d x d matrices.
    """
    base = members
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    handed_over = base is None and isinstance(members, np.ndarray)
    if handed_over and (dtype is None or members.dtype == dtype):
        stack = members
    else:
        stack = np.array(members, dtype=dtype)
        stack.flags.writeable = False
    if stack.ndim != 3 or stack.shape[1:] != (d, d):
        raise ShapeMismatch(f"members of shape {stack.shape} in a family with d={d}")
    return stack


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


def stack_from_json(entries: list, d: int) -> np.ndarray:
    """Decode matrix_to_json objects into one preallocated (n, d, d) complex stack.

    ShapeMismatch unless there is at least one entry and every entry is d x d;
    the first entry is decoded before the stack is allocated, so its size
    comes from the data and not from d alone.
    """
    first = matrix_from_json(entries[0]) if entries else None
    if first is None or first.shape != (d, d):
        raise ShapeMismatch(f"need one or more {d}x{d} matrices")
    stack = np.empty((len(entries), d, d), dtype=complex)
    stack[0] = first
    for i in range(1, len(entries)):
        m = matrix_from_json(entries[i])
        if m.shape != (d, d):
            raise ShapeMismatch(f"matrix {i} has shape {m.shape}, need {d}x{d}")
        stack[i] = m
    return stack

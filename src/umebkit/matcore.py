"""Dense complex matrix core: whole cyclic-shift orbits of base matrices, trace
inner products and Gram rows, Gram-matrix numerical rank, symmetric/antisymmetric
splits, column-stacking vectorization, unitarity tests.

Vectorization convention, fixed once for the whole package: vec(U) stacks the
columns of U, so vec(U)[j*d + i] = U[i, j] and the normalized image of a
unitary is a unit vector in C^(d^2).
"""

from __future__ import annotations

import math
import sys
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


def orbit_stack(bases: np.ndarray, shifts: int) -> np.ndarray:
    """The read-only (T * shifts, d, d) members: member t*shifts + x is bases[t] shifted by x, [i, j] -> [i - x, j - x].

    Indices are mod d, and shifts = 1 gives the bases themselves.  For
    shifts = d it is one gather whose index arrays are at most d x d and
    broadcast; an index array on every axis makes it C-ordered, so the
    reshape copies nothing.
    """
    if shifts == 1:
        return bases
    d = bases.shape[-1]
    coords = np.arange(d)
    idx = (coords[None, :] - coords[:, None]) % d  # idx[x, i] = (i - x) mod d
    stack = bases[np.arange(len(bases))[:, None, None, None], idx[:, :, None], idx[:, None, :]].reshape(-1, d, d)
    stack.flags.writeable = False
    return stack


def gram_matrix(bases: list[np.ndarray] | np.ndarray, shifts: int = 1) -> np.ndarray:
    """Row t of the Hermitian Gram G_ij = tr(m_i* m_j) of the members m = orbit_stack(bases, shifts), one per base.

    Column t'*shifts + x of row t is tr(bases[t]* m), m base t' shifted by
    x.  A shift is a permutation similarity, so for shifts = d the Gram is
    block-circulant, G[t*d + x, t'*d + x'] = rows[t, t'*d + (x' - x) mod d],
    and its T rows fix every entry.  Real input gives a real Gram.  shifts =
    1 is the whole Gram: one symmetric rank-k update for real input, blocks
    of rows for complex input, each counting its conjugated members and its
    rows against _BLOCK_BYTES.  For shifts = d each shift x <= d/2 is one
    product of a shape that no budget changes, G = conj(bases @
    conj(shifted)^T) with the shift conjugated in place; the block of shift
    -x is the conjugate transpose of the block of shift x.
    """
    stack = np.asarray(bases)
    if stack.ndim < 2:
        raise ShapeMismatch("need at least one matrix")
    m = stack.shape[0]
    flat = stack.reshape(m, -1)
    if shifts == 1:
        if not np.iscomplexobj(flat):
            return flat @ flat.T
        gram = np.empty((m, m), dtype=flat.dtype)
        for rows in _blocks(m, (m + flat.shape[1]) * gram.itemsize):
            np.matmul(flat[rows].conj(), flat.T, out=gram[rows])
        return gram
    gram = np.empty((m, m, shifts), dtype=flat.dtype)
    for x in range(shifts // 2 + 1):
        shifted = np.roll(stack, (x, x), axis=(1, 2)).reshape(m, -1)
        np.conjugate(shifted, out=shifted)
        np.conjugate(flat @ shifted.T, out=gram[:, :, x])
        del shifted  # else it stays bound while the next shift is made
        if 0 < x < shifts - x:  # G[t, t', -x] = conj(G[t', t, x]): shifting by -x is the adjoint similarity
            gram[:, :, shifts - x] = gram[:, :, x].T.conj()
    return gram.reshape(m, m * shifts)


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


def json_int(value, what: str) -> int:
    """value itself if it is a JSON integer; MalformedArtifact otherwise (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedArtifact(f"{what} must be an integer, got {type(value).__name__}")
    return value


def json_number(value, what: str) -> float:
    """value as a float if it is a finite JSON number; MalformedArtifact otherwise (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise MalformedArtifact(f"{what} must be a finite number, got {value!r:.40}")
    return float(value)


def stack_to_json(stack: np.ndarray) -> dict:
    """{"shape": [n, d, d], "re": [...], "im": [...]}: the entries in C order, "im" only for a complex stack."""
    obj = {"shape": list(stack.shape), "re": stack.real.ravel().tolist()}
    if np.iscomplexobj(stack):
        obj["im"] = stack.imag.ravel().tolist()
    return obj


def stack_from_json(obj: dict, d: int) -> np.ndarray:
    """Bit-exact inverse of stack_to_json for n >= 1 members of size d x d, signed zeros included.

    ShapeMismatch unless shape is [n, d, d] with n, d >= 1 and "re", and "im"
    if present, are flat lists of n*d*d JSON numbers, which is checked before
    the stack is allocated; MalformedArtifact if an entry is NaN or infinite.
    The stack is read-only, complex when "im" is present and float otherwise.
    """
    try:
        shape = tuple(json_int(n, "stack shape") for n in obj["shape"])
        parts = [obj["re"], obj["im"]] if "im" in obj else [obj["re"]]
    except TypeError as exc:
        raise MalformedArtifact(f"malformed stack: {exc}") from None
    if len(shape) != 3 or min(shape) < 1 or shape[1:] != (d, d):
        raise ShapeMismatch(f"stack of shape {list(shape)} is not one or more {d}x{d} matrices")
    try:
        data = np.array(parts)
    except (ValueError, ArithmeticError) as exc:  # ValueError: ragged entries
        raise ShapeMismatch(f"malformed stack entries: {exc}") from None
    if data.shape != (len(parts), math.prod(shape)) or data.dtype.kind not in "iuf":
        raise ShapeMismatch(
            f"stack parts of shape {data.shape} and dtype {data.dtype} "
            f"are not flat lists of {math.prod(shape)} numbers"
        )
    if not np.isfinite(data).all():
        raise MalformedArtifact("stack has a NaN or infinite entry")
    stack = np.empty(shape, dtype=complex if len(parts) == 2 else float)
    stack.real[...] = data[0].reshape(shape)
    if len(parts) == 2:
        stack.imag[...] = data[1].reshape(shape)
    stack.flags.writeable = False
    return stack

"""Dense complex matrix core: whole cyclic-shift orbits of base matrices, trace
inner products and Gram rows, the one pass that every check reads off those
rows, the Gram spectrum from its shift blocks and its numerical rank, the
budgeted deviation pass over a stack, symmetric/antisymmetric splits,
column-stacking vectorization, unitarity tests.

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
    rows against _BLOCK_BYTES.  For shifts = d the sum runs over the union
    support S of the bases, the flat entries (i, j) where some base is not
    exactly 0 (a NaN or inf is not 0, so it stays in the sum): a dropped
    term conj(bases[t][i, j]) * bases[t'][i - x, j - x] has a factor 0 for
    every t.  Each shift x <= d/2 is one product conj(bases[:, S]) @
    bases[:, S - (x, x)]^T, of a shape that no budget changes; the block of
    shift -x is the conjugate transpose of the block of shift x.  The
    paper's bases have 2(d - 1) nonzero entries (2d - 1 for the unitaries),
    so a shift costs O(T^2 d) in place of O(T^2 d^2); dense bases make S
    every entry.
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
    d = stack.shape[-1]
    support = np.flatnonzero(np.any(flat != 0, axis=0))
    i, j = np.divmod(support, d)
    lhs = flat[:, support].conj()
    gram = np.empty((m, m, shifts), dtype=flat.dtype)
    for x in range(shifts // 2 + 1):
        np.matmul(lhs, flat[:, (i - x) % d * d + (j - x) % d].T, out=gram[:, :, x])
        if 0 < x < shifts - x:  # G[t, t', -x] = conj(G[t', t, x]): shifting by -x is the adjoint similarity
            gram[:, :, shifts - x] = gram[:, :, x].T.conj()
    return gram.reshape(m, m * shifts)


@dataclass(frozen=True, eq=False)
class GramRowStats:
    """What the checks read off the Gram rows of gram_matrix(bases, shifts), from gram_row_stats."""

    diag: np.ndarray  # diag[t]: row t's own entry, G[t*shifts, t*shifts], of the rows' dtype
    radii: np.ndarray  # radii[t]: row t's Gershgorin radius, the sum of |G| off its own entry
    max_off: float  # the largest |G| off the own entries
    sq_off: np.ndarray  # sq_off[t, t']: sum over x of |rows[t, t'*shifts + x]|^2, the own entry left out


def gram_row_stats(rows: np.ndarray, shifts: int) -> GramRowStats:
    """The own entries, Gershgorin radii, largest off-diagonal magnitude and per-orbit sums of squares of the rows, in one pass.

    rows is gram_matrix(bases, shifts), shape (T, T * shifts).  The row of
    a member shifted by x is its base's row permuted, so these T rows hold
    every radius, off-diagonal entry and diagonal entry of the n x n Gram,
    and sq_off[t, t'] is the sum of |G|^2 over the off-diagonal entries of
    any row of orbit t in the columns of orbit t'.  This is the one place
    that knows a row's own entry sits at column t * shifts.  The rows go in
    blocks of _BLOCK_BYTES; a NaN reaches the radii, max_off and sq_off.
    """
    m, n = rows.shape
    own = np.arange(m) * shifts
    radii = np.empty(m)
    sq_off = np.empty((m, m))
    worst = []
    for block in _blocks(m, n * rows.itemsize):
        off = np.abs(rows[block])
        off[np.arange(len(off)), own[block]] = 0.0
        radii[block] = off.sum(axis=1)
        worst.append(np.max(off))
        off *= off
        sq_off[block] = off.reshape(len(off), m, shifts).sum(axis=2)
    return GramRowStats(rows[np.arange(m), own], radii, float(np.max(worst)), sq_off)


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


def gram_spectrum(rows: np.ndarray, shifts: int) -> np.ndarray:
    """Every eigenvalue of the Hermitian Gram whose rows gram_matrix(bases, shifts) gives, in ascending order.

    The Gram of whole orbits is block-circulant, G[t*s + x, t'*s + x'] =
    c[t, t', (x' - x) mod s] with c = rows reshaped (T, T, s), so a DFT over
    the shift splits it into s Hermitian T x T blocks, sum_y c[:, :, y]
    exp(-2 pi i k y / s) for k = 0..s-1, whose eigenvalues together are
    those of G: one batched eigvalsh on the (shifts, T, T) blocks, never
    the n x n Gram.  The T^2 transforms of length s (numpy.fft) cost little
    beside the eigensolves.  For shifts = 1 the single block is the rows
    themselves, not a copy.
    """
    m = len(rows)
    blocks = rows[None] if shifts == 1 else np.fft.fft(rows.reshape(m, m, shifts).transpose(2, 0, 1), axis=0)
    return np.sort(np.linalg.eigvalsh(blocks), axis=None)


def spectral_rank(eigs: np.ndarray, tol: Tolerance) -> tuple[int, float]:
    """(rank, lam) of ascending eigenvalues: those above rank_eps * largest, and the smallest of them (0.0 if none)."""
    if eigs[-1] <= 0:
        return 0, 0.0
    rank = int(np.sum(eigs > tol.rank_eps * eigs[-1]))
    return rank, float(eigs[-rank])


def numerical_rank(mats: list[np.ndarray] | np.ndarray, tol: Tolerance = DEFAULT_TOL) -> int:
    """Rank of the Gram matrix, counting eigenvalues above rank_eps * largest."""
    if len(mats) == 0:
        return 0
    shapes = {np.asarray(m).shape for m in mats}
    if len(shapes) > 1:
        raise ShapeMismatch(f"mixed shapes {sorted(shapes)}")
    return spectral_rank(gram_spectrum(gram_matrix(mats), 1), tol)[0]


def block_deviation(stack: np.ndarray, dev) -> tuple[float, float]:
    """(max, sum of squares) of |dev(block)| over blocks of stack, each at most _BLOCK_BYTES of items, and at least one.

    The block maxima are combined by np.max and the sums by +, so a NaN
    in any block reaches both.  dev returns a fresh array, which the pass
    may overwrite: a real one becomes its own magnitude, in place.
    """
    worst, sq = [], 0.0
    for items in _blocks(len(stack), stack[0].nbytes):
        gap = dev(stack[items])
        gap = np.abs(gap, out=gap if gap.dtype.kind == "f" else None)
        worst.append(np.max(gap))
        sq += float(np.vdot(gap, gap))
    return float(np.max(worst)), sq


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

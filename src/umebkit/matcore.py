"""Dense complex matrix core: whole cyclic-shift orbits of base matrices, the
bases' union support and each row's columns in it, the trace Gram of whole
orbits held by its parts from the bases' cyclic diagonals, what every check
reads off it, the Gram spectrum from its shift blocks and its numerical
rank, the budgeted product a* b - c of stacks summed over their supports,
read-only member stacks, the tolerances and the JSON coding of real stacks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import MalformedArtifact, NotReal, OutOfRange, ShapeMismatch

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


def _dft(d: int) -> np.ndarray:
    """The symmetric d x d DFT matrix, dft[k, a] = exp(-2 pi i k a / d).

    Every DFT of the package is a product with it, not numpy.fft, whose
    Bluestein path is slower at prime d and whose first use loads an
    extension into the process.  Entry [k, a] is the exponential of
    -2 pi i / d * m for m = k a mod d, so the d roots, one exponential of
    each m, are evaluated once and gathered at k a mod d: the bits of one
    exponential per entry, at d exponentials instead of d^2.  The d^2
    index table and the gather remain: about 55 us at d = 79 against 190 us
    on 2 cores.
    """
    coords = np.arange(d)
    return np.exp(-2j * np.pi / d * coords)[coords[:, None] * coords % d]


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


def union_support(bases: np.ndarray) -> np.ndarray:
    """The (d, d) mask of the entries where some base of the (T, d, d) stack is not exactly 0.

    A NaN or inf is not 0, so it stays in the support, and a sum over the
    support meets it.  A sum of products that each have a factor
    bases[t][i, j] loses no term by skipping the entries outside it.  One
    pass of ndarray.any, with no (T, d, d) bool temporary: the complex
    bases of a p=79 unitary family take about 0.2 ms, against 0.5 ms with
    bases != 0 formed first (2 cores).
    """
    return bases.any(axis=0)


def support_columns(on: np.ndarray) -> np.ndarray:
    """cols[i, :s]: the columns of row i where the (d, d) mask on is true, in order, then its other columns.

    s is the largest row count, and at least 1.  A row with fewer entries
    is padded with columns outside the mask, which read 0 in every base of
    the mask's union support: a sum over cols[i] adds exact zeros there,
    and a NaN or inf of another factor still meets at least one entry.
    The mask holds at most count[i] of row i's first s columns, so its
    first s - count[i] columns outside the mask lie among them: one
    np.nonzero of the mask beside the negation of its first s columns lists
    each row's candidates in order, and each is placed by counting, not by
    sorting (a process's first sort maps code pages that show in its peak
    RSS).  One O(d^2) scan, and O(d s) work beside it.
    """
    count = on.sum(axis=1)
    s = max(1, int(count.max(initial=0)))
    i, j = np.nonzero(np.concatenate((on, ~on[:, :s]), axis=1))  # by row: the mask's columns, then its first s columns off it
    listed = count + s - on[:, :s].sum(axis=1)
    cols = np.empty((len(on), on.shape[1] + s), dtype=np.intp)
    cols[i, np.arange(len(i)) - (np.cumsum(listed) - listed)[i]] = j % on.shape[1]
    return cols[:, :s]


def _slots(reach: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(cols, slot) of the columns reach[i] < d of each row: cols[i] the distinct ones in ascending order, padded with -1 up to the longest row; slot[i, m] the place of reach[i, m] in cols[i]."""
    rows = np.arange(len(reach))[:, None]
    reached = np.zeros((len(reach), d), dtype=bool)
    reached[rows, reach] = True
    place = np.cumsum(reached, axis=1) - 1  # place[i, j]: the place of column j in cols[i], if reached
    cols = np.full((len(reach), int(place[:, -1].max()) + 1), -1, dtype=np.intp)
    i, j = np.nonzero(reached)
    cols[i, place[i, j]] = j
    return cols, place[rows, reach]


def support_product(a, b, c, left, right, own) -> tuple[np.ndarray, np.ndarray]:
    """(cols, gap): row i of a[t]* @ b[t] - c[t] at the columns cols[i], for stacks of T d x d matrices.

    a* is the conjugate transpose of a.  Row i of a* is read at the columns
    k of left[i], row k of b at right[k] and row i of c at own[i], each
    support_columns of its stack's union support (of on.T for a* when a
    has support on), so each row of the product is at most s_a s_b terms.
    cols[i] lists, once each, the columns those terms and c's entries
    reach, in ascending order, padded with -1 up to the longest row;
    gap[t, i, r] is the entry of a[t]* @ b[t] - c[t] at column cols[i, r],
    and 0 where cols[i, r] is -1.  Every entry outside cols is a sum of
    terms that each have a factor 0, minus a 0.  A NaN or inf entry of a
    or c meets at least one term, a padded one at worst, and reaches gap
    as a NaN or inf; so does one of b in a row that a* reads, which holds
    for every entry of b when b is a or c.

    The bases go in blocks of _BLOCK_BYTES, each holding its terms, their
    keys and its sums: each block sums its terms into their entries with
    one np.bincount and subtracts c's entries from theirs.  The paper's
    bases have s = 2 entries a row (the diagonal and each row's partner in
    its pair {q, kq}), so a base costs O(d), against the O(d^3) of its
    dense product.  When left and right both have width d, every row of
    both factors is read whole and the terms are those of the dense
    product, so each block is one batched matmul instead, and cols lists
    every column of every row.  Real stacks give a real gap.
    """
    t, d = len(b), b.shape[-1]
    dtype = np.result_type(a, b, c)
    if left.shape[1] == right.shape[1] == d:
        gap = np.empty((t, d, d), dtype=dtype)
        for block in _blocks(t, 2 * d * d * dtype.itemsize):  # a block's conjugated a and its product
            with np.errstate(invalid="ignore", over="ignore"):  # an inf times a 0 is a NaN deviation, not a warning
                np.matmul(a[block].conj().swapaxes(-1, -2), b[block], out=gap[block])
                gap[block] -= c[block]
        return np.tile(np.arange(d), (d, 1)), gap
    rows = np.arange(d)[:, None]
    reached = right[left].reshape(d, -1)  # the column of each product term of row i
    cols, slot = _slots(np.concatenate((reached, own), axis=1), d)
    width = cols.shape[1]
    parts = 2 if dtype.kind == "c" else 1  # a complex term adds its real and imaginary parts to two halves of its slot
    products = left.shape[1] * right.shape[1]
    entries = np.repeat(left, right.shape[1], axis=1) * d + reached  # b's flat entry of each product term of row i
    keys = parts * (rows * width + slot[:, :products])[..., None] + np.arange(parts)  # keys[i, term, part] in one base
    size = d * products * (dtype.itemsize + 8 * parts) + d * width * dtype.itemsize  # one base's terms, keys and sums
    step = next(_blocks(t, size)).stop
    keys = (keys + parts * d * width * np.arange(step)[:, None, None, None]).ravel()  # every block's first bases
    gap = np.empty((t, d, width), dtype=dtype)
    for block in _blocks(t, size):
        n = block.stop - block.start
        values = np.take(b[block].reshape(n, d * d), entries, axis=1).astype(dtype, copy=False)
        values.shape = (n, d, left.shape[1], right.shape[1])  # b[t, k, right[k, :]], k = left[i, m]
        sums = gap[block]
        with np.errstate(invalid="ignore", over="ignore"):  # an inf times a 0 is a NaN deviation, not a warning
            values *= np.conj(a[block][:, left, rows])[..., None]  # conj(a[t, k, i])
            sums.reshape(-1).view(float)[:] = np.bincount(
                keys[: n * d * products * parts], values.ravel().view(float), parts * n * d * width
            )
            sums[:, rows, slot[:, products:]] -= c[block][:, rows, own]
    return cols, gap


@dataclass(frozen=True, eq=False)
class CyclicGram:
    """The trace Gram G_ij = tr(m_i* m_j) of the members m = orbit_stack(bases, shifts), held by its parts (cyclic_gram).

    With s = shifts and indices mod s,
    G[t*s + y, t'*s + y + x] = c[t, t'] [x = 0] + h[group[t], group[t'], x]:
    the Gram of whole orbits is block-circulant, so the T x T products c
    and the g x g x s correlations h fix every entry.  Real bases give a
    real c and h.
    """

    c: np.ndarray  # (T, T): the terms that meet at x = 0 alone
    group: np.ndarray  # (T,): the group of base t, the bases whose shared diagonals are exactly equal
    h: np.ndarray  # (g, g, s): the cyclic cross-correlations of the groups' shared diagonals


def cyclic_gram(bases: np.ndarray, shifts: int, support: np.ndarray) -> CyclicGram:
    """The Gram of the members of the (T, d, d) bases, from their cyclic diagonals b[t, e, a] = bases[t, a, a + e].

    G[t*s, t'*s + x] = sum_e sum_a conj(b[t, e, a]) b[t', e, a - x], and a
    term is 0 unless both of its entries lie in support, the bases' union
    support.  An offset e that holds one row of the support adds at x = 0
    alone, so all such entries together are one product c = conj(V) V^T,
    in blocks of rows for complex bases, each counting its conjugated rows
    and its products against _BLOCK_BYTES.  The diagonals of the other
    offsets, the shared ones, are grouped by exact equality across the
    bases: each is compared with the first of each group, with no sort (a
    process's first sort maps code pages that show in its peak RSS), and a
    NaN equals nothing, so its base forms a group of its own.  One DFT over
    a of each group's diagonals (a product with _dft) and one g x g product
    per frequency give every cross-correlation h at once, O(g^2 d) beside
    the transforms.  The
    paper's bases hold their 2(d - 1) off-diagonal entries on as many
    offsets, one entry each, and every base has the same main diagonal, so
    g = 1; bases whose diagonals all differ have g = T, and then the
    transforms cost O(T d^3) and the grouping O(T^2 d^2).  Through the DFT
    a shift block where no two supported entries meet is 0 only up to
    rounding, not an exact 0.  For shifts = 1
    every entry meets at x = 0 alone, so c is the whole Gram, read off
    every entry of the bases, and h is 0.
    """
    stack = np.asarray(bases)
    m, d = len(stack), stack.shape[-1]
    flat = stack.reshape(m, -1)
    if shifts == 1:
        single, shared = flat, np.empty(0, dtype=np.intp)
    else:
        entries = np.flatnonzero(support)
        i, j = np.divmod(entries, d)
        offset = (j - i) % d
        rows = np.bincount(offset, minlength=d)  # rows[e]: the rows of the support on offset e
        single, shared = flat[:, entries[rows[offset] == 1]], np.flatnonzero(rows > 1)
    a = np.arange(shifts)
    diagonals = stack[:, a, (a + shared[:, None]) % d]  # (T, shared offsets, s)
    group = np.empty(m, dtype=np.intp)
    firsts, left = [], np.arange(m)
    while len(left):
        same = np.all(diagonals[left] == diagonals[left[0]], axis=(1, 2))
        same[0] = True  # a diagonal with a NaN equals nothing, not even itself
        group[left[same]] = len(firsts)
        firsts.append(left[0])
        left = left[~same]
    dft = _dft(shifts)
    with np.errstate(invalid="ignore", over="ignore"):  # an inf times a 0 is a NaN entry, not a warning
        spectra = (diagonals[firsts] @ dft).transpose(2, 0, 1)  # (s, g, shared offsets)
        if np.iscomplexobj(single):
            c = np.empty((m, m), dtype=single.dtype)
            for block in _blocks(m, (m + single.shape[1]) * c.itemsize):
                np.matmul(single[block].conj(), single.T, out=c[block])
        else:
            c = single @ single.T
        # sum_a conj(u[a]) v[a - x] is the DFT over k of conj(U[k]) V[k], over s
        h = (spectra.conj() @ spectra.transpose(0, 2, 1)).transpose(1, 2, 0) @ dft / shifts
    return CyclicGram(c, group, h if np.iscomplexobj(stack) else h.real)


@dataclass(frozen=True, eq=False)
class GramStats:
    """What the checks read off the Gram of a CyclicGram, from gram_stats."""

    diag: np.ndarray  # diag[t]: the own entry G[t*s, t*s] of base t, of the Gram's dtype
    radii: np.ndarray  # radii[t]: the Gershgorin radius of row t*s, the sum of |G| off its own entry
    max_off: float  # the largest |G| off the own entries
    sq_off: np.ndarray  # sq_off[t, t']: sum over x of |G[t*s, t'*s + x]|^2, the own entry left out


def gram_stats(gram: CyclicGram) -> GramStats:
    """The own entries, Gershgorin radii, largest off-diagonal magnitude and per-orbit sums of squares of the Gram.

    The row of a member shifted by y is its base's row permuted, so the T
    rows G[t*s] hold every radius, off-diagonal entry and diagonal entry of
    the n x n Gram, and sq_off[t, t'] is the sum of |G|^2 over the
    off-diagonal entries of any row of orbit t in the columns of orbit t'.
    The x = 0 entries are the T x T matrix c + h[group, group, 0], and the
    entries at x != 0 are those of h, one g x g x (s - 1) pass that stands
    for every pair of bases in each pair of groups: O(T^2 + g^2 s) in all.
    A NaN reaches the radii, max_off and sq_off.
    """
    own = np.arange(len(gram.c))
    pair = gram.group[:, None], gram.group
    near = gram.c + gram.h[:, :, 0][pair]
    diag = near[own, own]
    near = np.abs(near)
    near[own, own] = 0.0
    far = np.abs(gram.h[:, :, 1:])
    radii = near.sum(axis=1) + far.sum(axis=2)[pair].sum(axis=1)
    sq_off = near * near + (far * far).sum(axis=2)[pair]
    return GramStats(diag, radii, float(np.maximum(near.max(), far.max(initial=0.0))), sq_off)


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


def gram_spectrum(gram: CyclicGram) -> np.ndarray:
    """Every eigenvalue of the Hermitian Gram of a CyclicGram, in ascending order.

    The Gram of whole orbits is block-circulant, so a DFT over the shift
    splits it into s Hermitian T x T blocks, sum_x G[t*s, t'*s + x]
    exp(-2 pi i k x / s) = c + hhat[group, group, k], hhat the DFT of h
    over x, whose eigenvalues together are those of G: one batched
    eigvalsh on the (s, T, T) blocks, never the n x n Gram.  For shifts = 1
    h is 0 and the single block is a view of c, copied by nothing and real
    for real bases.
    """
    if gram.h.shape[-1] == 1:
        return np.linalg.eigvalsh(gram.c[None])[0]
    blocks = (gram.h @ _dft(gram.h.shape[-1])).transpose(2, 0, 1)[:, gram.group[:, None], gram.group]
    blocks += gram.c
    return np.sort(np.linalg.eigvalsh(blocks), axis=None)


def spectral_rank(eigs: np.ndarray, tol: Tolerance) -> tuple[int, float]:
    """(rank, lam) of ascending eigenvalues: those above rank_eps * largest, and the smallest of them (0.0 if none)."""
    if eigs[-1] <= 0:
        return 0, 0.0
    rank = int(np.sum(eigs > tol.rank_eps * eigs[-1]))
    return rank, float(eigs[-rank])


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
    """{"shape": [n, d, d], "re": [...]}: the entries of a real stack in C order; NotReal for a complex stack."""
    if np.iscomplexobj(stack):
        raise NotReal(f"only real stacks are written, got one of dtype {stack.dtype}")
    return {"shape": list(stack.shape), "re": stack.ravel().tolist()}


def stack_from_json(obj: dict, d: int) -> np.ndarray:
    """Bit-exact inverse of stack_to_json for n >= 1 members of size d x d, signed zeros included.

    MalformedArtifact if the stack has an "im" part, which a real stack
    never has.  ShapeMismatch unless shape is [n, d, d] with n, d >= 1 and
    "re" is a flat list of n*d*d JSON numbers, which is checked before the
    stack is allocated; MalformedArtifact if an entry is NaN or infinite.
    The stack is read-only and of dtype float.
    """
    try:
        shape = tuple(json_int(n, "stack shape") for n in obj["shape"])
        entries = obj["re"]
        if "im" in obj:
            raise MalformedArtifact('a stack is real, but this one has an "im" part')
    except TypeError as exc:
        raise MalformedArtifact(f"malformed stack: {exc}") from None
    if len(shape) != 3 or min(shape) < 1 or shape[1:] != (d, d):
        raise ShapeMismatch(f"stack of shape {list(shape)} is not one or more {d}x{d} matrices")
    try:
        data = np.array(entries)
    except (ValueError, ArithmeticError) as exc:  # ValueError: ragged entries
        raise ShapeMismatch(f"malformed stack entries: {exc}") from None
    if data.shape != (math.prod(shape),) or data.dtype.kind not in "iuf":
        raise ShapeMismatch(
            f"stack entries of shape {data.shape} and dtype {data.dtype} "
            f"are not a flat list of {math.prod(shape)} numbers"
        )
    if not np.isfinite(data).all():
        raise MalformedArtifact("stack has a NaN or infinite entry")
    stack = np.empty(shape)
    stack[...] = data.reshape(shape)
    stack.flags.writeable = False
    return stack

"""Matrix core: stacks of base matrices stored on their union support
(SupportStack: one column table, and the values there, both written by
the builder that knows the support), whole
cyclic-shift orbits of base matrices (every family is T bases, each moved
by every cyclic shift, T d members, which OrbitMembers reads one at a time
from the support), the trace Gram of those orbits held
by its parts from the bases' cyclic diagonals, its largest off-diagonal
magnitude (the one number the equiangular check reads off it), the
largest entry of P^T P - P summed over the support (the one number it
reads of idempotency) and the tolerance.  The package computes Grams and
such products of the real projections only: the UMEB certificate is read
off the equiangular report they give.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange, ShapeMismatch

DEFAULT_EPS = 1e-9
# bytes per block of every chunked pass in the package: one budget, so the
# temporaries of a pass stay near 8 MiB however large the family grows
_BLOCK_BYTES = 8 << 20


@dataclass(frozen=True)
class Tolerance:
    """The numerical threshold eps of every check, strictly between 0 and 1.

    An eps of 1 or more passes a deviation as large as a unitary's entries,
    which would make every check vacuous.
    """

    eps: float = DEFAULT_EPS

    def __post_init__(self):
        if not 0 < self.eps < 1:
            raise OutOfRange(f"tolerance eps must be > 0 and < 1, got {self.eps}")


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


@dataclass(frozen=True, eq=False)
class OrbitMembers:
    """The T d members of a SupportStack's bases, each read on demand: member t*d + x is base t shifted by x.

    Both families read their members through it (ProjectionFamily's real,
    UnitaryFamily's complex, from the bases it maps), so no object of the
    package holds the T d^3 entries of every member.  Reading member t*d + x scatters base t's
    values straight from the support into a fresh read-only (d, d) array of
    the values' dtype, value [a, i] to [a + x, cols[a, i] + x] (indices mod
    d) and 0 elsewhere: base t rolled by x on both axes, bit for bit.  An
    index is an integer (operator.index: a slice or a float
    raises TypeError); a negative one counts from the end, and one past
    either end raises IndexError, which ends an iteration or a reversed()
    after the last member.  Members are arrays, so `in` is not defined on
    them and raises TypeError.
    """

    bases: SupportStack

    def __len__(self) -> int:
        return len(self.bases) * len(self.bases.cols)

    def __getitem__(self, index) -> np.ndarray:
        index = operator.index(index)
        n, d = len(self), len(self.bases.cols)
        if not -n <= index < n:
            raise IndexError(f"member {index} of {n}")
        t, x = divmod(index % n, d)
        out = np.zeros((d, d), dtype=self.bases.values.dtype)
        out[(np.arange(d)[:, None] + x) % d, (self.bases.cols + x) % d] = self.bases.values[t]
        out.flags.writeable = False
        return out

    def __contains__(self, item):
        raise TypeError("the members are arrays and are not compared: `in` is not defined on them")


@dataclass(frozen=True, eq=False)
class SupportStack:
    """T d x d bases stored on their union support: values[t, a, i] = bases[t][a, cols[a, i]].

    cols (d, s) is one column table for all the bases: row a lists s
    distinct integer columns in 0..d-1, and every entry of row a off them
    is 0 in every base.  values has shape (T, d, s).  Any other table or
    shape raises ShapeMismatch, by one vectorised check, O(d s^2).  Every
    builder knows its support and writes cols and values directly, and a
    family takes nothing else as its bases (of): no (T, d, d) array is read
    into one.  Both arrays are made read-only, and an array that does not
    own its data (a view, whose base a caller may still write) is copied
    first, so no caller can write to a stack.
    Every reader of a family's bases goes through this type: the dense
    view, the entries at any (i, j), the cyclic offset of each column, and
    the checks below, which read cols and values and never a (T, d, d)
    array.  The paper's bases have s = 2 (the diagonal and each row's
    partner in its pair {q, kq}), so a stack holds 2 T d values, against
    T d^2 dense.
    """

    cols: np.ndarray  # (d, s) intp
    values: np.ndarray  # (T, d, s)

    def __post_init__(self):
        cols, values = self.cols, self.values
        if cols.ndim != 2 or cols.dtype.kind not in "iu" or values.shape[1:] != cols.shape:
            raise ShapeMismatch(f"values of shape {values.shape} on columns of shape {cols.shape} and dtype {cols.dtype}")
        d = len(cols)
        if not np.all((cols >= 0) & (cols < d)) or (cols[:, :, None] == cols[:, None]).sum() != cols.size:
            raise ShapeMismatch(f"a row of the {d} x {d} bases lists a column outside 0..{d - 1} or a column twice")
        for name, array in (("cols", cols), ("values", values)):
            if not array.flags.owndata:
                array = array.copy()
                object.__setattr__(self, name, array)
            array.flags.writeable = False

    @classmethod
    def of(cls, bases, d: int) -> SupportStack:
        """bases, a SupportStack of d x d matrices, kept as it is: ShapeMismatch for a stack of another size or any other type."""
        if not isinstance(bases, cls):
            raise ShapeMismatch(f"a family's bases are a SupportStack, got {type(bases).__name__}")
        if len(bases.cols) != d:
            raise ShapeMismatch(f"bases of size {len(bases.cols)} in a family with d={d}")
        return bases

    def __len__(self) -> int:
        return len(self.values)

    def dense(self) -> np.ndarray:
        """The read-only (T, d, d) bases, scattered from the values: 0 off the columns."""
        d = len(self.cols)
        out = np.zeros((len(self), d, d), dtype=self.values.dtype)
        out[:, np.arange(d)[:, None], self.cols] = self.values
        out.flags.writeable = False
        return out

    def at(self, i, j) -> np.ndarray:
        """bases[t][i, j] of every base t, for broadcast index arrays i and j: 0 where row i's columns lack j.

        Each entry finds j among row i's s columns, O(s) an entry and no
        d x d table, and one gather reads its value from every base.
        """
        held = self.cols[i] == np.asarray(j)[..., None]
        return np.where(held.any(axis=-1), self.values[:, i, held.argmax(axis=-1)], 0)

    def offsets(self) -> np.ndarray:
        """offs[a, i] = (cols[a, i] - a) mod d: the cyclic diagonal bases[t][a, a + e] that each value lies on."""
        return (self.cols - np.arange(len(self.cols))[:, None]) % len(self.cols)

    def eye_minus(self, w) -> SupportStack:
        """I - w B for every base B, as a new stack on these columns: ShapeMismatch unless every row lists its own column.

        I is 0 off the diagonal, so the columns hold I - w B only where
        each row holds its diagonal, as every support the package builds
        does (the paper's rows q hold {q, kq}, and row 0 pads with 0 and 1);
        on any other support I's 1 would be dropped.  The values are mapped
        in place of a copy: values * w, then I's entries at the columns
        minus that.
        """
        rows = np.arange(len(self.cols))[:, None]
        if not (self.cols == rows).any(axis=1).all():
            raise ShapeMismatch("I - w B needs every row of the support to list its own column")
        values = self.values.astype(np.result_type(self.values, w))
        values *= w
        np.subtract(self.cols == rows, values, out=values)
        return SupportStack(self.cols, values)


def max_idempotency_dev(bases: SupportStack) -> float:
    """The largest |P^T P - P| of the real bases P, summed over their support: a NaN or inf of any value reaches it.

    P^T P = sum_k (row k)^T row k: row k, read on its columns, adds
    P[k, i] P[k, j] at (i, j) for each pair of its columns, s^2 terms a
    row.  Only the entries those terms and P's own columns reach are
    summed; every other entry of P^T P - P is a sum of terms that each have
    a factor 0, minus a 0.  It is 0 exactly when P is a symmetric
    idempotent.  A NaN or inf value meets itself in the term at its own
    (j, j), so it reaches its base's sums.

    The bases go in blocks of _BLOCK_BYTES, each holding its terms, their
    keys and its sums: each block lays out every base's terms and then its
    values negated, one np.bincount sums them into their entries, and the
    block's largest magnitude is combined with the others' by np.maximum,
    which keeps a NaN.  No array of every base's sums is held.
    The paper's bases have s = 2, so a base costs O(d), against the O(d^3)
    of its dense product; bases with full rows (s = d) cost O(d^3) the same
    way.
    """
    values, cols = bases.values, bases.cols
    t, d, s = values.shape
    own = np.arange(d)[:, None] * d + cols  # P's entries
    terms = cols.T[:, None] * d + cols.T  # terms[i, j, k]: the entry of P[k, i] P[k, j]
    reached = np.zeros(d * d, dtype=bool)
    reached[terms] = reached[own] = True
    width = int(np.count_nonzero(reached))
    place = np.empty(d * d, dtype=np.intp)
    place[reached] = np.arange(width)  # place[i d + j]: the slot of a reached entry
    slots = np.concatenate((place[terms].ravel(), place[own].ravel()))  # a base's terms, then its values
    worst = 0.0
    for block in _blocks(t, len(slots) * (values.itemsize + 8) + width * 8):  # terms, keys, sums
        n = block.stop - block.start
        weights = np.empty((n, len(slots)), dtype=values.dtype)  # [t, (i, j, k)], then -P[t]
        read = values[block].transpose(0, 2, 1)  # read[t, i, k] = P[t][k, cols[k, i]]
        with np.errstate(invalid="ignore", over="ignore"):  # an inf times a 0 is a NaN deviation, not a warning
            np.multiply(read[:, :, None], read[:, None], out=weights[:, : d * s * s].reshape(n, s, s, d))
            np.negative(values[block], out=weights[:, d * s * s :].reshape(n, d, -1))
            # the keys are made in the call, so they are freed before the next block's terms are made
            sums = np.bincount((slots + width * np.arange(n)[:, None]).ravel(), weights.ravel(), n * width)
        worst = np.maximum(worst, np.abs(sums, out=sums).max())
    return float(worst)


@dataclass(frozen=True, eq=False)
class CyclicGram:
    """The trace Gram G_ij = tr(m_i* m_j) of the members m, every base moved by every shift, held by its parts (cyclic_gram).

    With indices mod d, G[t*d + y, t'*d + y + x] = c[t, t'] [x = 0] +
    h[group[t], group[t'], x]: the Gram of whole orbits is block-circulant,
    so the T x T products c and the g x g x d correlations h fix every
    entry.  Real bases give a real c and h.
    """

    c: np.ndarray  # (T, T): the terms that meet at x = 0 alone
    group: np.ndarray  # (T,): the group of base t, the bases whose shared diagonals are exactly equal
    h: np.ndarray  # (g, g, d): the cyclic cross-correlations of the groups' shared diagonals


def cyclic_gram(bases: SupportStack) -> CyclicGram:
    """The Gram of the members of the bases, from their cyclic diagonals b[t, e, a] = bases[t][a, a + e].

    G[t*d, t'*d + x] = sum_e sum_a conj(b[t, e, a]) b[t', e, a - x], and a
    term is 0 unless both of its entries lie in the bases' union support,
    the stored entries where some base is not 0.  An offset e that holds
    one row of the support adds at x = 0 alone, so all such entries
    together are one product c = conj(V) V^T, in blocks of rows, each
    counting its conjugated rows and its products against _BLOCK_BYTES
    (for real bases conj() copies nothing).  The diagonals of the other
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
    rounding, not an exact 0.
    """
    values = bases.values
    m, d = len(values), len(bases.cols)
    on = values.any(axis=0)  # the union support, a NaN in it
    offset = bases.offsets()
    rows = np.bincount(offset[on], minlength=d)  # rows[e]: the rows of the support on offset e
    single, shared = values[:, on & (rows[offset] == 1)], np.flatnonzero(rows > 1)
    a = np.arange(d)
    diagonals = bases.at(a, (a + shared[:, None]) % d)  # (T, shared offsets, d)
    group = np.empty(m, dtype=np.intp)
    firsts, left = [], np.arange(m)
    while len(left):
        same = np.all(diagonals[left] == diagonals[left[0]], axis=(1, 2))
        same[0] = True  # a diagonal with a NaN equals nothing, not even itself
        group[left[same]] = len(firsts)
        firsts.append(left[0])
        left = left[~same]
    dft = _dft(d)
    with np.errstate(invalid="ignore", over="ignore"):  # an inf times a 0 is a NaN entry, not a warning
        spectra = (diagonals[firsts] @ dft).transpose(2, 0, 1)  # (d, g, shared offsets)
        c = np.empty((m, m), dtype=single.dtype)
        for block in _blocks(m, (m + single.shape[1]) * c.itemsize):  # conj() of a real array is the array itself
            np.matmul(single[block].conj(), single.T, out=c[block])
        # sum_a conj(u[a]) v[a - x] is the DFT over k of conj(U[k]) V[k], over d
        h = (spectra.conj() @ spectra.transpose(0, 2, 1)).transpose(1, 2, 0) @ dft / d
    return CyclicGram(c, group, h if np.iscomplexobj(values) else h.real)


def max_off_diagonal(gram: CyclicGram) -> float:
    """The largest |G_ij|, i != j, of the Gram: a NaN or inf of any entry reaches it.

    The row of a member shifted by y is its base's row permuted, so the T
    rows G[t*d] hold every off-diagonal entry of the n x n Gram.  The x = 0
    entries are the T x T matrix c + h[group, group, 0], whose diagonal is
    the own entries, and the entries at x != 0 are those of h, one
    g x g x (d - 1) pass that stands for every pair of bases in each pair
    of groups: O(T^2 + g^2 d) in all.
    """
    near = np.abs(gram.c + gram.h[:, :, 0][gram.group[:, None], gram.group])
    np.fill_diagonal(near, 0.0)
    return float(np.maximum(near.max(), np.abs(gram.h[:, :, 1:]).max(initial=0.0)))

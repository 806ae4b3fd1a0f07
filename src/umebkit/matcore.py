"""Matrix core: stacks of base matrices stored on their union support
(SupportStack: one column table, and the values there), whole
cyclic-shift orbits of base matrices (every family is T bases, each moved
by every cyclic shift, T d members), the trace Gram of those orbits held
by its parts from the bases' cyclic diagonals, what every check reads off it,
the Gram spectrum from its shift blocks and its numerical rank, the budgeted
product a* a - c summed over the support, the bases' asymmetry and the
tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange, ShapeMismatch

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


def orbit_stack(bases: np.ndarray) -> np.ndarray:
    """The read-only (T * d, d, d) members: member t*d + x is bases[t] shifted by x, [i, j] -> [i - x, j - x].

    Indices are mod d.  It is one gather whose index arrays are at most
    d x d and broadcast; an index array on every axis makes it C-ordered,
    so the reshape copies nothing.
    """
    d = bases.shape[-1]
    coords = np.arange(d)
    idx = (coords[None, :] - coords[:, None]) % d  # idx[x, i] = (i - x) mod d
    stack = bases[np.arange(len(bases))[:, None, None, None], idx[:, :, None], idx[:, None, :]].reshape(-1, d, d)
    stack.flags.writeable = False
    return stack


def union_support(bases: np.ndarray) -> np.ndarray:
    """The (d, d) mask of the entries where some base of the dense (T, d, d) stack is not exactly 0.

    A NaN or inf is not 0, so it stays in the support, and a sum over the
    support meets it.  A sum of products that each have a factor
    bases[t][i, j] loses no term by skipping the entries outside it.  One
    pass of ndarray.any, with no (T, d, d) bool temporary, when
    SupportStack.of compresses a dense stack; a family's checks never scan
    one.
    """
    return bases.any(axis=0)


def support_columns(on: np.ndarray) -> np.ndarray:
    """cols[i, :s]: the columns of row i where the (d, d) mask on is true, in order, then its other columns.

    s is the largest row count, and at least 1.  A row with fewer entries
    is padded with columns outside the mask, which read 0 in every base of
    the mask's union support: a sum over cols[i] adds exact zeros there,
    and a NaN or inf of another factor still meets at least one entry.
    One stable argsort of the negated mask puts each row's columns first,
    in order, and the columns off it after them.  Only a hand-made dense
    stack and a support widened by eye_minus come here; the package's own
    builds write their column tables directly.
    """
    s = max(1, int(on.sum(axis=1).max(initial=0)))
    return np.argsort(~on, axis=1, kind="stable")[:, :s]


@dataclass(frozen=True, eq=False)
class SupportStack:
    """T d x d bases stored on their union support: values[t, a, i] = bases[t][a, cols[a, i]].

    cols (d, s) is one column table for all the bases: row a lists s
    distinct columns, and every entry of row a off them is 0 in every base.
    A stack built from a dense one (of) lists the columns of the union
    support in ascending order, then pads with columns outside it
    (support_columns), where every value is 0; a builder that knows its
    support writes cols and values directly.  Both arrays are handed over
    and made read-only.  Every reader of a family's bases goes through this
    type: the dense view, the entries at any (i, j), the cyclic offset of
    each column, and the checks below, which read cols and values and never
    a (T, d, d) array.  The paper's bases have s = 2 (the
    diagonal and each row's partner in its pair {q, kq}), so a stack holds
    2 T d values, against T d^2 dense.
    """

    cols: np.ndarray  # (d, s) intp
    values: np.ndarray  # (T, d, s)

    def __post_init__(self):
        self.cols.flags.writeable = False
        self.values.flags.writeable = False

    @classmethod
    def of(cls, bases, d: int, dtype=None) -> SupportStack:
        """bases as a SupportStack of d x d matrices: a SupportStack kept (its values cast to dtype), a dense stack compressed.

        A dense stack (a sequence or an array of shape (T, d, d)) is read
        once, on its union support, and not kept, so no caller can write to
        the values through it.  ShapeMismatch unless the members are d x d
        matrices.
        """
        if isinstance(bases, cls):
            stack = bases if dtype is None or bases.values.dtype == dtype else cls(bases.cols, bases.values.astype(dtype))
        else:
            dense = np.asarray(bases, dtype=dtype)
            if dense.ndim != 3 or dense.shape[1:] != (d, d):
                raise ShapeMismatch(f"members of shape {dense.shape} in a family with d={d}")
            cols = support_columns(union_support(dense))
            stack = cls(cols, np.ascontiguousarray(dense[:, np.arange(d)[:, None], cols]))
        if len(stack.cols) != d:
            raise ShapeMismatch(f"bases of size {len(stack.cols)} in a family with d={d}")
        return stack

    def __len__(self) -> int:
        return len(self.values)

    def dense(self) -> np.ndarray:
        """The read-only (T, d, d) bases, scattered from the values: 0 off the columns."""
        d = len(self.cols)
        out = np.zeros((len(self), d, d), dtype=self.values.dtype)
        out[:, np.arange(d)[:, None], self.cols] = self.values
        out.flags.writeable = False
        return out

    def at(self, i, j, block: slice = slice(None)) -> np.ndarray:
        """bases[t][i, j] of every base t of block, for broadcast index arrays i and j: 0 where row i's columns lack j.

        Each entry finds j among row i's s columns, O(s) an entry and no
        d x d table, and one gather reads its value from every base.
        """
        held = self.cols[i] == np.asarray(j)[..., None]
        return np.where(held.any(axis=-1), self.values[block][:, i, held.argmax(axis=-1)], 0)

    def offsets(self) -> np.ndarray:
        """offs[a, i] = (cols[a, i] - a) mod d: the cyclic diagonal bases[t][a, a + e] that each value lies on."""
        return (self.cols - np.arange(len(self.cols))[:, None]) % len(self.cols)

    def eye_minus(self, w) -> SupportStack:
        """I - w B for every base B, as a new stack on these columns, each row's diagonal added where they lack it.

        I is 0 off the diagonal, so only the diagonal can widen the
        support; when every row lists its own column, as the paper's bases
        do, the columns are kept and the values mapped in place of a copy:
        values * w, then I's entries at the columns minus that.
        """
        d = len(self.cols)
        rows = np.arange(d)[:, None]
        stack = self
        if not (self.cols == rows).any(axis=1).all():
            on = np.zeros((d, d), dtype=bool)
            on[rows, self.cols] = self.values.any(axis=0)
            cols = support_columns(on | np.eye(d, dtype=bool))
            stack = SupportStack(cols, self.at(rows, cols))
        values = stack.values.astype(np.result_type(stack.values, w))
        values *= w
        np.subtract(stack.cols == rows, values, out=values)
        return SupportStack(stack.cols, values)


def support_product(a: SupportStack, c: SupportStack) -> tuple[np.ndarray, np.ndarray]:
    """(entries, gap): gap[t, m] is the entry entries[m] = i d + j of a[t]* a[t] - c[t], over every entry a term or c reaches.

    a* is the conjugate transpose of a, and a* a = sum_k conj(row k)^T row k:
    row k of a, read on its columns, adds conj(a[k, i]) a[k, j] at (i, j)
    for each pair of its columns, s^2 terms a row.  entries lists, once
    each and in ascending order, the entries those terms and c's columns
    reach; every other entry of a* a - c is a sum of terms that each have a
    factor 0, minus a 0.  With c = a it is P^T P - P, which is 0 exactly
    when P is a symmetric idempotent; with c = I it is U* U - I.  A NaN or
    inf value of a meets itself in the term at its own (j, j), and one of c
    is subtracted at its entry, so each reaches gap as a NaN or inf.

    The bases go in blocks of _BLOCK_BYTES, each holding its terms, their
    keys and its sums: each block lays out every base's terms and then c's
    values negated, and one np.bincount (one a part for complex stacks)
    sums them into their entries, so an entry is its terms' sum minus c.
    The paper's bases have s = 2, so a base costs O(d), against the O(d^3)
    of its dense product; bases with full rows (s = d) cost O(d^3) the same
    way.  Real stacks give a real gap.
    """
    t, d, s = a.values.shape
    dtype = np.result_type(a.values, c.values)
    own = np.arange(d)[:, None] * d + c.cols  # c's entries
    terms = a.cols.T[:, None] * d + a.cols.T  # terms[i, j, k]: the entry of conj(a[k, i]) a[k, j]
    reached = np.zeros(d * d, dtype=bool)
    reached[terms] = reached[own] = True
    entries = np.flatnonzero(reached)
    width = len(entries)
    place = np.empty(d * d, dtype=np.intp)
    place[entries] = np.arange(width)  # place[i d + j]: the slot of a reached entry
    slots = np.concatenate((place[terms].ravel(), place[own].ravel()))  # a base's terms, then c's values
    gap = np.empty((t, width), dtype=dtype)
    for block in _blocks(t, len(slots) * (dtype.itemsize + 8) + width * (dtype.itemsize + 8)):  # terms, keys, sums
        n = block.stop - block.start
        keys = (slots + width * np.arange(n)[:, None]).ravel()
        weights = np.empty((n, len(slots)), dtype=dtype)  # [t, (i, j, k)], then -c[t]
        read = a.values[block].transpose(0, 2, 1)  # read[t, i, k] = a[t][k, cols[k, i]]
        with np.errstate(invalid="ignore", over="ignore"):  # an inf times a 0 is a NaN deviation, not a warning
            np.multiply(np.conj(read)[:, :, None], read[:, None], out=weights[:, : d * s * s].reshape(n, s, s, d))
            np.negative(c.values[block], out=weights[:, d * s * s :].reshape(n, d, -1))
            gap[block].real = np.bincount(keys, weights.real.ravel(), n * width).reshape(n, width)
            if dtype.kind == "c":
                gap[block].imag = np.bincount(keys, weights.imag.ravel(), n * width).reshape(n, width)
    return entries, gap


def asymmetry(stack: SupportStack) -> tuple[float, float]:
    """(max |B - B^T|, sum |B - B^T|^2) over the bases B of the stack.

    B - B^T is 0 outside S | S^T, S the stored entries, so each value
    B[a, b] is compared with its mirror B[b, a], 0 where row b's columns
    lack a.  An entry whose mirror is not stored stands for the mirror too,
    so it counts twice in the sum.  The bases go in blocks of
    _BLOCK_BYTES; the block maxima are combined by np.max and the sums by
    +, so a NaN reaches both.
    """
    d, s = stack.cols.shape
    rows = np.arange(d)[:, None]
    weight = np.where((stack.cols[stack.cols] == rows[..., None]).any(axis=-1), 1.0, 2.0)
    worst, sq = [], 0.0
    for block in _blocks(len(stack), 2 * d * s * stack.values.itemsize):
        gap = np.abs(stack.values[block] - stack.at(stack.cols, rows, block))
        worst.append(np.max(gap, initial=0.0))
        sq += float(np.vdot(weight * gap, gap))
    return float(np.max(worst)), sq


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
    together are one product c = conj(V) V^T,
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
        if np.iscomplexobj(single):
            c = np.empty((m, m), dtype=single.dtype)
            for block in _blocks(m, (m + single.shape[1]) * c.itemsize):
                np.matmul(single[block].conj(), single.T, out=c[block])
        else:
            c = single @ single.T
        # sum_a conj(u[a]) v[a - x] is the DFT over k of conj(U[k]) V[k], over d
        h = (spectra.conj() @ spectra.transpose(0, 2, 1)).transpose(1, 2, 0) @ dft / d
    return CyclicGram(c, group, h if np.iscomplexobj(values) else h.real)


@dataclass(frozen=True, eq=False)
class GramStats:
    """What the checks read off the Gram of a CyclicGram, from gram_stats."""

    diag: np.ndarray  # diag[t]: the own entry G[t*d, t*d] of base t, of the Gram's dtype
    radii: np.ndarray  # radii[t]: the Gershgorin radius of row t*d, the sum of |G| off its own entry
    max_off: float  # the largest |G| off the own entries


def gram_stats(gram: CyclicGram) -> GramStats:
    """The own entries, Gershgorin radii and largest off-diagonal magnitude of the Gram.

    The row of a member shifted by y is its base's row permuted, so the T
    rows G[t*d] hold every radius, off-diagonal entry and diagonal entry of
    the n x n Gram.  The x = 0 entries are the T x T matrix
    c + h[group, group, 0], and the entries at x != 0 are those of h, one
    g x g x (d - 1) pass that stands for every pair of bases in each pair
    of groups: O(T^2 + g^2 d) in all.  A NaN reaches the radii and max_off.
    """
    own = np.arange(len(gram.c))
    pair = gram.group[:, None], gram.group
    near = gram.c + gram.h[:, :, 0][pair]
    diag = near[own, own]
    near = np.abs(near)
    near[own, own] = 0.0
    far = np.abs(gram.h[:, :, 1:])
    radii = near.sum(axis=1) + far.sum(axis=2)[pair].sum(axis=1)
    return GramStats(diag, radii, float(np.maximum(near.max(), far.max(initial=0.0))))


def gram_spectrum(gram: CyclicGram) -> np.ndarray:
    """Every eigenvalue of the Hermitian Gram of a CyclicGram, in ascending order.

    The Gram of whole orbits is block-circulant, so a DFT over the shift
    splits it into d Hermitian T x T blocks, sum_x G[t*d, t'*d + x]
    exp(-2 pi i k x / d) = c + hhat[group, group, k], hhat the DFT of h
    over x, whose eigenvalues together are those of G: one batched
    eigvalsh on the (d, T, T) blocks, never the n x n Gram.
    """
    blocks = (gram.h @ _dft(gram.h.shape[-1])).transpose(2, 0, 1)[:, gram.group[:, None], gram.group]
    blocks += gram.c
    return np.sort(np.linalg.eigvalsh(blocks), axis=None)


def spectral_rank(eigs: np.ndarray, tol: Tolerance) -> tuple[int, float]:
    """(rank, lam) of ascending eigenvalues: those above rank_eps * largest, and the smallest of them (0.0 if none)."""
    if eigs[-1] <= 0:
        return 0, 0.0
    rank = int(np.sum(eigs > tol.rank_eps * eigs[-1]))
    return rank, float(eigs[-rank])

"""Reference computations that the tests compare the package with.

Each is a direct, unoptimized formula: a dense stack of bases compressed to
the SupportStack a family takes (each row's columns found by one argsort),
every member of a family as one dense stack, gathered from the shifted
dense bases, the paper's dual family
I - P_i, the exact uniform weight, a seeded random Hermitian matrix, the
SWAP matrix and a channel's Choi
matrix under the package's column-stacking vec, the Choi matrix's rank, a
mixture of unitaries applied member by member, the Choi distance of a
mixture from the target channel's (and the same distance from the
members' Gram, for symmetric members), the
coefficient x with x * sum(P_i) = I for a maximal equiangular family, the
whole Gram of a stack of matrices as one dense product and its rank, the
equiangular report and the certificate read off every member of a dense
stack, the certificate computed from the unitary bases' Gram, support
product a* a - c and asymmetry (with the Gram's own entries and Gershgorin
radii, its spectrum, its rank and the asymmetry it reads),
as the package computed it before it read the certificate off the
equiangular report, the residue base vectors as one dense array, the projection onto the
span of orthogonal vectors as a dense product, the Legendre symbol by
Euler's criterion and the DFT matrix as one exponential per entry.  A
rank counts the eigenvalues above RANK_EPS times the largest.  None calls
the package's checks: each reads the members themselves, but for the
computed certificate, which reads the unitary bases through matcore's Gram
where a dense stack would not fit (p >= 263).
"""

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from umebkit.errors import NotOrthogonal, ShapeMismatch
from umebkit.matcore import DEFAULT_TOL, CyclicGram, SupportStack, Tolerance, _blocks, _dft, cyclic_gram
from umebkit.packing import ProjectionFamily, residue_base_vectors

Channel = Callable[[np.ndarray], np.ndarray]
# the relative threshold below which an oracle counts no eigenvalue of a spectrum
RANK_EPS = 1e-7


def support_columns(on: np.ndarray) -> np.ndarray:
    """cols[i, :s]: the columns of row i where the (d, d) mask on is true, in order, then its other columns.

    s is the largest row count, and at least 1.  A row with fewer entries
    is padded with columns outside the mask, which read 0 in every base of
    the mask's union support: a sum over cols[i] adds exact zeros there,
    and a NaN or inf of another factor still meets at least one entry.
    One stable argsort of the negated mask puts each row's columns first,
    in order, and the columns off it after them.
    """
    s = max(1, int(on.sum(axis=1).max(initial=0)))
    return np.argsort(~on, axis=1, kind="stable")[:, :s]


def support_stack(bases, d: int, dtype=None) -> SupportStack:
    """A dense (T, d, d) stack, cast to dtype, as the SupportStack of its union support: what a family takes as bases.

    Row i lists the columns where some base is not exactly 0, in ascending
    order (a NaN or inf is not 0, so it stays), then columns outside them,
    where every value is 0 (support_columns).  ShapeMismatch unless
    the members are d x d matrices.
    """
    dense = np.asarray(bases, dtype=dtype)
    if dense.ndim != 3 or dense.shape[1:] != (d, d):
        raise ShapeMismatch(f"members of shape {dense.shape} in a family with d={d}")
    cols = support_columns(dense.any(axis=0))
    return SupportStack(cols, np.ascontiguousarray(dense[:, np.arange(d)[:, None], cols]))


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


def member_stack(family) -> np.ndarray:
    """Every member of a family as one read-only (T d, d, d) array, gathered from its dense bases (orbit_stack)."""
    return orbit_stack(family.bases.dense())


def dual_family(family: ProjectionFamily) -> ProjectionFamily:
    """The paper's dual family, the complementary projections I - P_i: rank d - r, common trace beta + d - 2r.

    I is shift-invariant, so it maps the bases (SupportStack.eye_minus,
    ShapeMismatch unless every row of the support lists its own column).
    Its unitaries are z conj(U_i), member by member, U_i those of family.
    """
    d = family.d
    return ProjectionFamily(
        d=d,
        r=d - family.r,
        bases=family.bases.eye_minus(1.0),
        beta=family.beta + (d - 2 * family.r),
    )


def uniform_weight(d: int) -> Fraction:
    """The exact weight 2/(d(d+1)) of each of the d(d+1)/2 members of a uniform mixture."""
    return Fraction(2, d * (d + 1))


def random_hermitian(d: int, seed: int) -> np.ndarray:
    """(G + G*)/2, G's entries uniform on [0,1) + i[0,1): np.random.default_rng(seed) draws the real parts, then the imaginary."""
    rng = np.random.default_rng(seed)
    g = rng.random((d, d)) + 1j * rng.random((d, d))
    return (g + g.conj().T) / 2


def choi_of_channel(apply: Channel, d: int) -> np.ndarray:
    """Assemble the d^2 x d^2 Choi matrix block by block from apply(E_jk)."""
    choi = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        for k in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[j, k] = 1.0
            choi[j * d : (j + 1) * d, k * d : (k + 1) * d] = apply(e)
    return choi


def swap_matrix(d: int) -> np.ndarray:
    """Tensor flip on C^d x C^d under the package vec convention."""
    s = np.zeros((d * d, d * d))
    for a in range(d):
        for b in range(d):
            s[b * d + a, a * d + b] = 1.0
    return s


def choi_rank(apply: Channel, d: int) -> int:
    """Numerical rank of the Choi matrix via Hermitian eigenvalues."""
    eigs = np.linalg.eigvalsh(choi_of_channel(apply, d))
    top = float(np.max(np.abs(eigs)))
    if top <= 0:
        return 0
    return int(np.sum(np.abs(eigs) > RANK_EPS * top))


def identity_coefficient(d: int, r: int, beta: Fraction) -> Fraction:
    """Exact x with x * sum(P_i) = I for a maximal family: (r^2 - d*beta)/(r(r - beta))."""
    return (Fraction(r * r) - d * beta) / (r * (r - beta))


def dense_gram(stack) -> np.ndarray:
    """The whole Gram G_ij = tr(m_i* m_j) of a stack of matrices, one product of every entry."""
    stack = np.asarray(stack)
    flat = stack.reshape(len(stack), -1)
    return flat.conj() @ flat.T


def _rank(eigs: np.ndarray) -> int:
    """The count of ascending eigenvalues above RANK_EPS * largest; 0 if the largest is not positive."""
    return int(np.sum(eigs > RANK_EPS * eigs[-1])) if eigs[-1] > 0 else 0


def numerical_rank(mats: list[np.ndarray] | np.ndarray) -> int:
    """Rank of the Gram matrix, counting eigenvalues above RANK_EPS * largest."""
    if len(mats) == 0:
        return 0
    shapes = {np.asarray(m).shape for m in mats}
    if len(shapes) > 1:
        raise ShapeMismatch(f"mixed shapes {sorted(shapes)}")
    return _rank(np.linalg.eigvalsh(dense_gram(mats)))


def _off_diagonal(gram: np.ndarray) -> np.ndarray:
    return gram[~np.eye(len(gram), dtype=bool)]


def dense_equiangular(projections, r: int, beta, tol: Tolerance = DEFAULT_TOL) -> dict:
    """The fields of verify_equiangular's report, from every member of the (n, d, d) stack.

    The whole Gram minus beta off its diagonal, P^T P - P by matmul and
    np.trace; a NaN in a member reaches the deviations it enters and fails.
    """
    stack = np.asarray(projections)
    n = len(stack)
    devs = {
        "max_angle_dev": float(np.max(np.abs(_off_diagonal(dense_gram(stack)) - float(beta)), initial=0.0)),
        "max_idempotency_dev": float(np.max(np.abs(stack.transpose(0, 2, 1) @ stack - stack))),
        "max_rank_dev": float(np.max(np.abs(np.trace(stack, axis1=1, axis2=2) - r))),
    }
    passed = all(dev <= tol.eps for dev in devs.values())
    return {"pairs": n * (n - 1) // 2, "beta": float(beta), **devs, "passed": passed}


def dense_certificate(members, tol: Tolerance = DEFAULT_TOL) -> dict:
    """The fields of certify_umeb's certificate, from every member of the (n, d, d) stack.

    U* U - I by matmul, the whole Gram, its eigvalsh for the span rank and
    for lam, the smallest eigenvalue counted, and |U - U^T| entry by entry.
    The members must be finite: eigvalsh does not converge on a NaN.
    """
    stack = np.asarray(members)
    n, d = len(stack), stack.shape[-1]
    gram = dense_gram(stack)
    eigs = np.linalg.eigvalsh(gram)
    rank = _rank(eigs)
    lam = float(eigs[-rank]) if rank else 0.0
    anti = np.abs(stack - stack.transpose(0, 2, 1))
    unitarity = float(np.max(np.abs(stack.conj().transpose(0, 2, 1) @ stack - np.eye(d))))
    cj = float(np.max(np.abs(gram / d - np.eye(n))))
    symmetric_span = rank == d * (d + 1) // 2 and float(np.max(anti)) <= tol.eps
    complement = float(np.sum(anti**2)) / 4 <= tol.eps**2 * lam
    return {
        "d": d,
        "cardinality": n,
        "max_unitarity_dev": unitarity,
        "max_orthogonality_dev": float(np.max(np.abs(_off_diagonal(gram)), initial=0.0)),
        "span_rank": rank,
        "symmetric_span": symmetric_span,
        "complement_antisymmetric": complement,
        "d_odd": d % 2 == 1,
        "unextendible_verdict": symmetric_span and complement and d % 2 == 1 and unitarity <= tol.eps and cj <= tol.eps,
        "cj_orthonormality_dev": cj,
    }


def asymmetry(stack: SupportStack) -> tuple[float, float]:
    """(max |B - B^T|, sum |B - B^T|^2) over the bases B of the stack.

    B - B^T is 0 outside S | S^T, S the stored entries, so each value
    B[a, b] is compared with its mirror B[b, a], 0 where row b's columns
    lack a.  An entry whose mirror is not stored stands for the mirror too,
    so it counts twice in the sum.  The bases go in blocks of matcore's
    budget; the block maxima are combined by np.max and the sums by +, so a
    NaN reaches both.
    """
    d, s = stack.cols.shape
    held = stack.cols[stack.cols] == np.arange(d)[:, None, None]  # held[a, i, k]: row cols[a, i] lists a at k
    mirrored, at = held.any(axis=-1), held.argmax(axis=-1)
    weight = np.where(mirrored, 1.0, 2.0)
    worst, sq = [], 0.0
    for block in _blocks(len(stack), 2 * d * s * stack.values.itemsize):
        values = stack.values[block]
        gap = np.abs(values - np.where(mirrored, values[:, stack.cols, at], 0))
        worst.append(np.max(gap, initial=0.0))
        sq += float(np.vdot(weight * gap, gap))
    return float(np.max(worst)), sq


@dataclass(frozen=True, eq=False)
class GramStats:
    """The own entries, Gershgorin radii and largest off-diagonal magnitude of a Gram, from gram_stats."""

    diag: np.ndarray  # diag[t]: the own entry G[t*d, t*d] of base t, of the Gram's dtype
    radii: np.ndarray  # radii[t]: the Gershgorin radius of row t*d, the sum of |G| off its own entry
    max_off: float  # the largest |G| off the own entries


def gram_stats(gram: CyclicGram) -> GramStats:
    """The own entries, Gershgorin radii and largest off-diagonal magnitude of the Gram of a matcore.CyclicGram.

    The row of a member shifted by y is its base's row permuted, so the T
    rows G[t*d] hold every radius, off-diagonal entry and diagonal entry of
    the n x n Gram.  The x = 0 entries are the T x T matrix
    c + h[group, group, 0], and the entries at x != 0 are those of h, one
    g x g x (d - 1) pass that stands for every pair of bases in each pair
    of groups.  A NaN reaches the radii and max_off.
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


def gram_spectrum(gram) -> np.ndarray:
    """Every eigenvalue of the Hermitian Gram of a matcore.CyclicGram, in ascending order.

    The Gram of whole orbits is block-circulant, so a DFT over the shift
    splits it into d Hermitian T x T blocks, sum_x G[t*d, t'*d + x]
    exp(-2 pi i k x / d) = c + hhat[group, group, k], hhat the DFT of h
    over x, whose eigenvalues together are those of G: one batched
    eigvalsh on the (d, T, T) blocks, never the n x n Gram.
    """
    blocks = (gram.h @ _dft(gram.h.shape[-1])).transpose(2, 0, 1)[:, gram.group[:, None], gram.group]
    blocks += gram.c
    return np.sort(np.linalg.eigvalsh(blocks), axis=None)


def spectral_rank(eigs: np.ndarray, rank_eps: float = RANK_EPS) -> tuple[int, float]:
    """(rank, lam) of ascending eigenvalues: those above rank_eps * largest, and the smallest of them (0.0 if none)."""
    if eigs[-1] <= 0:
        return 0, 0.0
    rank = int(np.sum(eigs > rank_eps * eigs[-1]))
    return rank, float(eigs[-rank])


def support_product(a: SupportStack, c: SupportStack) -> tuple[np.ndarray, np.ndarray]:
    """(entries, gap): gap[t, m] is the entry entries[m] = i d + j of a[t]* a[t] - c[t], over every entry a term or c reaches.

    a* is the conjugate transpose of a, and a* a = sum_k conj(row k)^T row k:
    row k of a, read on its columns, adds conj(a[k, i]) a[k, j] at (i, j)
    for each pair of its columns, s^2 terms a row.  entries lists, once
    each and in ascending order, the entries those terms and c's columns
    reach; every other entry of a* a - c is a sum of terms that each have a
    factor 0, minus a 0.  With c = a it is P^T P - P, whose largest
    magnitude matcore.max_idempotency_dev sums the same way, and with c = I
    it is U* U - I.  A NaN or inf value of a meets itself in the term at
    its own (j, j), and one of c is subtracted at its entry, so each
    reaches gap as a NaN or inf.

    The bases go in blocks of matcore's _BLOCK_BYTES, each holding its
    terms, their keys and its sums: each block lays out every base's terms
    and then c's values negated, and one np.bincount (one a part for
    complex stacks) sums them into their entries, so an entry is its terms'
    sum minus c.
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


def orbit_certificate(uf, tol: Tolerance = DEFAULT_TOL) -> dict:
    """The fields of certify_umeb's certificate computed from the unitary bases, with no dense stack.

    Unitarity is the largest entry of U* U - I summed over the support
    (support_product with c = I); the orthogonality and CJ
    deviations are read off the unitary Gram's stats (cyclic_gram, then
    gram_stats), and the span rank off its Gershgorin discs, or, when they
    prove no full rank, off its spectrum (gram_spectrum), with lam the
    smallest eigenvalue counted; a Gram with a NaN or inf proves no rank.
    The symmetry flags read the bases' asymmetry.  Up to p = 79 it agrees
    with dense_certificate to rounding, and it runs where that one does not
    fit: at p = 1087 in about 0.4 s and 46 MiB traced.
    """
    bases = uf.bases
    d, n = uf.d, len(uf)
    eye = SupportStack(np.arange(d)[:, None], np.ones((len(bases), d, 1)))
    unitarity = float(np.max(np.abs(support_product(bases, eye)[1])))
    gram = cyclic_gram(bases)
    stats = gram_stats(gram)
    lower = float(np.min(stats.diag.real - stats.radii))
    if lower > RANK_EPS * float(np.max(stats.diag.real + stats.radii)):
        rank, lam = n, lower
    elif not math.isfinite(lower):
        rank, lam = 0, 0.0
    else:
        rank, lam = spectral_rank(gram_spectrum(gram))
    worst, sq = asymmetry(bases)
    symmetric_span = rank == d * (d + 1) // 2 and worst <= tol.eps
    complement = d * sq / 4 <= tol.eps**2 * lam
    cj = float(np.maximum(stats.max_off / d, np.max(np.abs(stats.diag / d - 1.0))))
    return {
        "d": d,
        "cardinality": n,
        "max_unitarity_dev": unitarity,
        "max_orthogonality_dev": stats.max_off,
        "span_rank": rank,
        "symmetric_span": symmetric_span,
        "complement_antisymmetric": complement,
        "d_odd": d % 2 == 1,
        "unextendible_verdict": symmetric_span and complement and d % 2 == 1 and unitarity <= tol.eps and cj <= tol.eps,
        "cj_orthonormality_dev": cj,
    }


def gram_choi_dev(weights, members) -> float:
    """|W^(1/2) G W^(1/2) - (2/(d+1)) I_n|_F from the whole Gram G of the members, W = diag(weights).

    It is the Choi distance that mixture_choi_dev assembles when the
    n = d(d+1)/2 members are symmetric and no weight is negative: their
    vec(U_j) lie in the symmetric subspace, where the target is (2/(d+1))
    times the identity.  O(n^2 d^2), against O(n d^5).
    """
    stack = np.asarray(members)
    root = np.sqrt(np.asarray(weights, dtype=float))
    d = stack.shape[-1]
    return float(np.linalg.norm(root[:, None] * dense_gram(stack) * root - 2 / (d + 1) * np.eye(len(stack))))


def mixture_choi_dev(weights, members) -> float:
    """|C - (I + SWAP)/(d+1)|_F, C the Choi matrix of X -> sum_j w_j U_j X U_j*, assembled by choi_of_channel.

    It applies every member to each of the d^2 inputs E_jk, O(n d^5) in all.
    """
    stack = np.asarray(members)
    w = np.asarray(weights, dtype=float)
    d = stack.shape[-1]
    adjoints = stack.conj().transpose(0, 2, 1)
    choi = choi_of_channel(lambda x: np.tensordot(w, stack @ x @ adjoints, axes=1), d)
    return float(np.linalg.norm(choi - (np.eye(d * d) + swap_matrix(d)) / (d + 1)))


def member_sum(weights, members, xs) -> np.ndarray:
    """sum_j w_j U_j x U_j* for one (d, d) input x or each of a (T, d, d) stack, one member at a time."""
    xs = np.asarray(xs, dtype=complex)
    out = np.zeros_like(xs)
    for w, u in zip(weights, members, strict=True):
        out += w * (u @ xs @ u.conj().T)
    return out


def dense_base_vectors(prime, h) -> np.ndarray:
    """residue_base_vectors scattered into one (p+1)/2 x (p-1)/2 x p array: vector s of subspace t is row [t, s]."""
    ends, coefficients = residue_base_vectors(prime, h)
    vectors = np.zeros((len(coefficients), prime.half, prime.p))
    s = np.arange(prime.half)
    vectors[:, s, ends[0]] = 1.0
    vectors[:, s, ends[1]] = coefficients
    return vectors


def projection_from_basis(vectors: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projection onto the span of pairwise-orthogonal vectors, for one basis or a stack of them.

    vectors is (r, d), the rows one basis, or (T, r, d), one basis per
    entry; the result is (d, d) or (T, d, d), the dense product of the
    normalized vectors.  NotOrthogonal if, in some basis, an inner product
    of two vectors exceeds eps times its largest squared norm.
    """
    stack = np.asarray(vectors, dtype=float)
    overlap = stack @ stack.swapaxes(-1, -2)
    norms = np.diagonal(overlap, axis1=-2, axis2=-1).copy()
    own = np.arange(overlap.shape[-1])
    overlap[..., own, own] = 0.0
    worst = np.max(np.abs(overlap), axis=(-2, -1))
    if np.any(worst > tol.eps * np.max(norms, axis=-1)):
        raise NotOrthogonal(f"basis vectors overlap, max inner product {float(np.max(worst)):.3e}")
    normalized = stack / np.sqrt(norms)[..., None]
    return normalized.swapaxes(-1, -2) @ normalized


def legendre(a: int, q: int) -> int:
    """The Legendre symbol of a modulo the prime q by Euler's criterion: 0, 1 or -1 as a^((q-1)/2) is 0, 1 or q - 1 mod q."""
    a %= q
    if a == 0:
        return 0
    return 1 if pow(a, (q - 1) // 2, q) == 1 else -1


def direct_dft(d: int) -> np.ndarray:
    """The d x d DFT matrix exp(-2 pi i (k a mod d) / d), one exponential per entry."""
    coords = np.arange(d)
    return np.exp(-2j * np.pi / d * (coords[:, None] * coords % d))

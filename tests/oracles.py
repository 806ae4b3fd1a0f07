"""Reference computations that the tests compare the package with.

Each is a direct, unoptimized formula: the SWAP matrix and a channel's Choi
matrix under the package's column-stacking vec, the Choi matrix's rank, the
coefficient x with x * sum(P_i) = I for a maximal equiangular family, the
whole Gram of a stack of matrices as one dense product and its rank, the
residue base vectors as one dense array, the projection onto the span
of orthogonal vectors as a dense product, the Legendre symbol by Euler's
criterion and the DFT matrix as one exponential per entry.
"""

from collections.abc import Callable
from fractions import Fraction

import numpy as np

from umebkit.errors import NotOrthogonal, ShapeMismatch
from umebkit.matcore import DEFAULT_TOL, Tolerance, spectral_rank
from umebkit.packing import residue_base_vectors

Channel = Callable[[np.ndarray], np.ndarray]


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


def choi_rank(apply: Channel, d: int, tol: Tolerance = DEFAULT_TOL) -> int:
    """Numerical rank of the Choi matrix via Hermitian eigenvalues."""
    eigs = np.linalg.eigvalsh(choi_of_channel(apply, d))
    top = float(np.max(np.abs(eigs)))
    if top <= 0:
        return 0
    return int(np.sum(np.abs(eigs) > tol.rank_eps * top))


def identity_coefficient(d: int, r: int, beta: Fraction) -> Fraction:
    """Exact x with x * sum(P_i) = I for a maximal family: (r^2 - d*beta)/(r(r - beta))."""
    return (Fraction(r * r) - d * beta) / (r * (r - beta))


def dense_gram(stack) -> np.ndarray:
    """The whole Gram G_ij = tr(m_i* m_j) of a stack of matrices, one product of every entry."""
    stack = np.asarray(stack)
    flat = stack.reshape(len(stack), -1)
    return flat.conj() @ flat.T


def numerical_rank(mats: list[np.ndarray] | np.ndarray, tol: Tolerance = DEFAULT_TOL) -> int:
    """Rank of the Gram matrix, counting eigenvalues above rank_eps * largest."""
    if len(mats) == 0:
        return 0
    shapes = {np.asarray(m).shape for m in mats}
    if len(shapes) > 1:
        raise ShapeMismatch(f"mixed shapes {sorted(shapes)}")
    return spectral_rank(np.linalg.eigvalsh(dense_gram(mats)), tol)[0]


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

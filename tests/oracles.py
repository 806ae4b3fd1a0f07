"""Reference computations that the tests compare the package with.

Each is a direct, unoptimized formula: the SWAP matrix and a channel's Choi
matrix under the package's column-stacking vec, the Choi matrix's rank, the
coefficient x with x * sum(P_i) = I for a maximal equiangular family, and the
rank of the whole Gram of a list of matrices.
"""

from collections.abc import Callable
from fractions import Fraction

import numpy as np

from umebkit.errors import ShapeMismatch
from umebkit.matcore import DEFAULT_TOL, Tolerance, gram_matrix, gram_spectrum, spectral_rank, union_support

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


def numerical_rank(mats: list[np.ndarray] | np.ndarray, tol: Tolerance = DEFAULT_TOL) -> int:
    """Rank of the Gram matrix, counting eigenvalues above rank_eps * largest."""
    if len(mats) == 0:
        return 0
    shapes = {np.asarray(m).shape for m in mats}
    if len(shapes) > 1:
        raise ShapeMismatch(f"mixed shapes {sorted(shapes)}")
    stack = np.asarray(mats)
    return spectral_rank(gram_spectrum(gram_matrix(stack, 1, union_support(stack)), 1), tol)[0]

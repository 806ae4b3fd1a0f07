"""The symmetric transpose-plus-trace channel X -> (Tr(X) I + X^T)/(d+1),
its Choi matrix, and the check that a certified unitary family realizes it
as a uniform mixture of d(d+1)/2 conjugations.

Choi convention matches matcore's column-stacking vec: the Choi matrix of
X -> U X U* is vec(U) vec(U)* (unnormalized), i.e. block (j, k) of the Choi
matrix is the channel applied to E_jk.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .errors import NotCertified, NotSquare
from .matcore import DEFAULT_TOL, Tolerance
from .umeb import UnitaryFamily, certify_umeb

Channel = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class MixedUnitaryDecomposition:
    """Convex mixture sum_j weights[j] U_j X U_j* over a unitary family."""

    weights: tuple[float, ...]
    unitaries: UnitaryFamily


@dataclass(frozen=True)
class DecompositionReport:
    """Outcome of the Choi-equality and random-input checks."""

    choi_dev: float
    apply_dev_max: float
    trials: int
    seed: int
    verdict: bool

    def to_json(self) -> dict:
        return asdict(self)


def wh_plus_apply(x: np.ndarray, d: int) -> np.ndarray:
    """(Tr(x) I + x^T)/(d+1); trace preserving and unital."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (d, d):
        raise NotSquare(f"expected a {d}x{d} matrix, got shape {x.shape}")
    return (np.trace(x) * np.eye(d) + x.T) / (d + 1)


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


def uniform_weight(d: int) -> Fraction:
    """Exact weight 2/(d(d+1)) shared by all members of the decomposition."""
    return Fraction(2, d * (d + 1))


def umeb_decomposition(
    uf: UnitaryFamily, tol: Tolerance = DEFAULT_TOL
) -> MixedUnitaryDecomposition:
    """Uniform mixture over a family certified to span the symmetric matrices."""
    cert = certify_umeb(uf, tol)
    if not cert.symmetric_span:
        raise NotCertified(
            f"family of {len(uf)} unitaries in d={uf.d} does not span the "
            f"symmetric matrices (rank {cert.span_rank})"
        )
    w = float(uniform_weight(uf.d))
    return MixedUnitaryDecomposition(weights=(w,) * len(uf), unitaries=uf)


def apply_decomposition(dec: MixedUnitaryDecomposition, x: np.ndarray) -> np.ndarray:
    """sum_j weights[j] U_j x U_j*."""
    x = np.asarray(x, dtype=complex)
    out = np.zeros_like(x)
    for w, u in zip(dec.weights, dec.unitaries.unitaries):
        out += w * (u @ x @ u.conj().T)
    return out


def random_hermitian(d: int, seed: int) -> np.ndarray:
    """(G + G*)/2 with G entries uniform on [0,1) + i[0,1); seeded, reproducible."""
    rng = np.random.default_rng(seed)
    g = rng.random((d, d)) + 1j * rng.random((d, d))
    return (g + g.conj().T) / 2


def verify_decomposition(
    dec: MixedUnitaryDecomposition,
    trials: int = 20,
    seed: int = 42,
    tol: Tolerance = DEFAULT_TOL,
) -> DecompositionReport:
    """Two independent checks of the mixture against the direct channel formula.

    (a) Frobenius distance between sum_j w_j vec(U_j) vec(U_j)* and the
    closed-form Choi matrix (I + SWAP)/(d+1), within eps * d^2.  (b) For
    `trials` seeded random Hermitian inputs (per-trial seed = seed + index),
    max-entry distance between the mixture output and the formula output,
    within eps * max|X|.
    """
    uf = dec.unitaries
    d = uf.d
    flat = np.asarray([np.asarray(u, dtype=complex).flatten(order="F") for u in uf.unitaries])
    weights = np.asarray(dec.weights)
    choi_mix = (weights[:, None] * flat).T @ flat.conj()
    choi_direct = (np.eye(d * d) + swap_matrix(d)) / (d + 1)
    choi_dev = float(np.linalg.norm(choi_mix - choi_direct))

    apply_dev_max = 0.0
    apply_ok = True
    for t in range(trials):
        x = random_hermitian(d, seed + t)
        dev = float(np.max(np.abs(apply_decomposition(dec, x) - wh_plus_apply(x, d))))
        apply_dev_max = max(apply_dev_max, dev)
        if dev > tol.eps * float(np.max(np.abs(x))):
            apply_ok = False

    verdict = choi_dev <= tol.eps * d * d and apply_ok
    return DecompositionReport(
        choi_dev=choi_dev,
        apply_dev_max=apply_dev_max,
        trials=trials,
        seed=seed,
        verdict=verdict,
    )


def choi_rank(apply: Channel, d: int, tol: Tolerance = DEFAULT_TOL) -> int:
    """Numerical rank of the Choi matrix via Hermitian eigenvalues."""
    eigs = np.linalg.eigvalsh(choi_of_channel(apply, d))
    top = float(np.max(np.abs(eigs)))
    if top <= 0:
        return 0
    return int(np.sum(np.abs(eigs) > tol.rank_eps * top))

"""The symmetric transpose-plus-trace channel X -> (Tr(X) I + X^T)/(d+1),
its Choi matrix, and the check that a certified unitary family realizes it
as a uniform mixture of d(d+1)/2 conjugations.

Choi convention matches matcore's column-stacking vec: the Choi matrix of
X -> U X U* is vec(U) vec(U)* (unnormalized), i.e. block (j, k) of the Choi
matrix is the channel applied to E_jk.

verify_decomposition makes two checks.
(a) The Choi check measures |C_mix - (I + SWAP)/(d+1)|_F.  When every
member is exactly symmetric, there are n = d(d+1)/2 of them, no weight is
negative and the weights are equal within each orbit of the family's shifts,
it reads that distance off the family's trace Gram G:
|W^(1/2) G W^(1/2) - (2/(d+1)) I_n|_F, an exact identity (the vec(U_j) lie
in the n-dimensional symmetric subspace, where the target is (2/(d+1)) times
the identity, and F W F* and W^(1/2) F* F W^(1/2) have the same spectrum).
It sums the Gram rows the certificate also reads, times the shift count.
Otherwise it sums the squared distance over the d-row blocks
(w o F[:, rows])^T @ conj(F), F the rows vec(U_j), subtracting the target
in place at its identity and SWAP entries; C_mix is Hermitian, so each
block starts at the diagonal block and the blocks right of it count twice,
and no d^2 x d^2 matrix is formed.  (b) The random-input check
applies the mixture to the seeded inputs, a batch per call, through
apply_decomposition, and compares each output with wh_plus_apply.  When the
members come in Z_d orbits of shifts with equal weights, as the paper's
UMEB does (member t*d + x is base t shifted by x), the mixture is one
shift-covariant kernel K with d^3 entries: out[i, i + D] =
sum_{e,f} K[D, e, f] X[i + e, i + f], indices mod d.  The structure is the
family's shift count, given when it was built; K is built from its bases
once per decomposition, in O(T d^3 + d^4) for the correlation (T = n/d
orbits), and each input then costs one gather and
one (d x d^2)(d^2 x d) product, O(d^4), against O(n d^3) member by member.
Any other mixture is applied member by member, in blocks of members.
Either way check (b) reads only the members and the weights, neither the
Gram nor vec(U), so it stays independent of (a).  Every pass but the d-row
blocks and the d^3 kernel itself sizes its blocks from matcore's one byte
budget.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import NotCertified, NotSquare, OutOfRange, ShapeMismatch
from .matcore import DEFAULT_TOL, Tolerance, _blocks
from .umeb import UnitaryFamily, _span

Channel = Callable[[np.ndarray], np.ndarray]


def _cyclic(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(coords, plus, minus) with plus[i, e] = (i + e) mod d and minus[i, k] = (k - i) mod d."""
    coords = np.arange(d)
    return coords, (coords[:, None] + coords) % d, (coords - coords[:, None]) % d


@dataclass(frozen=True, eq=False)
class MixedUnitaryDecomposition:
    """Convex mixture sum_j weights[j] U_j X U_j* over a unitary family.

    The weights are kept as a tuple and the family's stack is read-only, so
    the orbit kernel is computed once, on first use, and kept on the object.
    """

    weights: tuple[float, ...]
    unitaries: UnitaryFamily

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))

    @cached_property
    def _orbit_kernel(self) -> np.ndarray | None:
        """The read-only orbit kernel, kmat[e*d + f, D] = K[D, e, f]; None without orbit structure.

        Orbit structure: a family with shifts = d, member t*d + x its base
        t shifted by x, U_{t,x}[i, j] = U_t[i - x, j - x], and the weights
        equal within each orbit, w_{t,x} = w_t.  Then, indices mod d
        and a = i - x, the mixture is out[i, i + D] =
        sum_{e,f} K[D, e, f] X[i + e, i + f] with
        K[D, e, f] = sum_t w_t sum_a U_t[a, a + e] conj(U_t[a + D, a + f]).
        In the diagonals diag[t, a, e] = U_t[a, a + e] that is
        K[D, e, f] = C[D, e, f - D], C[D, e, g] = sum_t w_t sum_a
        diag[t, a, e] conj(diag[t, a + D, g]), a cyclic correlation over a: C
        is the DFT over k of M[k, e, g] = sum_t w_t F[t, k, e] conj(F[t, k, g]),
        divided by d, with F the DFT of diag over a.  Each DFT is one product
        with the d x d DFT matrix, so K costs O(T d^3 + d^4) in gemms.  K reads
        only the bases and the weights.
        """
        w = _weights(self)
        uf = self.unitaries
        d = uf.d
        if uf.shifts != d:
            return None
        orbit_w = w[::d]
        if np.any(w.reshape(-1, d) != orbit_w[:, None]):
            return None
        coords, plus, _ = _cyclic(d)
        dft = np.exp(-2j * np.pi / d * (coords[:, None] * coords % d))  # dft[k, a], symmetric
        f = (dft @ uf.bases[:, coords[:, None], plus]).transpose(1, 0, 2)  # f[k, t, e] = F[t, k, e]
        fbar = f.conj()
        f *= orbit_w[:, None]
        m = f.transpose(0, 2, 1) @ fbar
        del f, fbar  # m and the arrays below are the size of the kernel: hold at most two
        c = (dft @ m.reshape(d, d * d)).reshape(d, d, d)
        c /= d
        del m
        # kmat[e, f, D] = c[D, e, f - D]; a C-ordered index keeps the gather C-ordered, so reshape copies nothing
        kmat = c[coords, coords[:, None, None], (coords[:, None] - coords) % d].reshape(d * d, d)
        kmat.flags.writeable = False
        return kmat


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
    """Uniform mixture over d(d+1)/2 unitaries that span the symmetric matrices.

    Checks only that precondition (member count, symmetry and span rank),
    not the rest of the certificate.
    """
    d = uf.d
    span = _span(uf, tol)
    if len(uf) != d * (d + 1) // 2 or not span.symmetric_span:
        raise NotCertified(
            f"family of {len(uf)} unitaries in d={d} is not a basis of the "
            f"symmetric matrices (rank {span.span_rank}, need {d * (d + 1) // 2})"
        )
    w = float(uniform_weight(d))
    return MixedUnitaryDecomposition(weights=(w,) * len(uf), unitaries=uf)


def _weights(dec: MixedUnitaryDecomposition) -> np.ndarray:
    w = np.asarray(dec.weights, dtype=float)
    if w.shape != (len(dec.unitaries),):
        raise ShapeMismatch(f"{w.size} weights for {len(dec.unitaries)} unitaries")
    return w


def apply_decomposition(dec: MixedUnitaryDecomposition, x: np.ndarray) -> np.ndarray:
    """sum_j weights[j] U_j x U_j*, for one (d, d) input or a (T, d, d) stack.

    When the members come in Z_d orbits of shifts with equal weights (see
    MixedUnitaryDecomposition._orbit_kernel), the mixture is applied through
    its d^3-entry kernel, built once per decomposition: O(d^4) per input.
    Any other mixture is applied member by member, O(n d^3) per input.
    """
    d = dec.unitaries.d
    xs = np.asarray(x, dtype=complex)
    if xs.ndim not in (2, 3) or xs.shape[-2:] != (d, d):
        raise ShapeMismatch(f"expected a ({d}, {d}) matrix or a stack of them, got {xs.shape}")
    w = _weights(dec)
    stack = xs.reshape(-1, d, d)
    kernel = dec._orbit_kernel
    if kernel is None:
        out = _apply_by_members(w, dec.unitaries.unitaries, stack)
    else:
        out = _apply_by_kernel(kernel, stack)
    return out.reshape(xs.shape)


def _apply_by_kernel(kmat: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """out[s, i, i + D] = sum_{e,f} K[D, e, f] xs[s, i + e, i + f], indices mod d.

    Inputs go in blocks, each one gather of the d^3 shifted entries per
    input and one (k*d x d^2)(d^2 x d) gemm; the gather is what matcore's
    block budget bounds (at least one input per block).
    """
    t, d = len(xs), xs.shape[-1]
    coords, plus, minus = _cyclic(d)
    gather_at = (plus[:, :, None] * d + plus[:, None, :]).ravel()
    flat = xs.reshape(t, d * d)
    out = np.empty_like(xs)
    for inputs in _blocks(t, d * d * d * xs.itemsize):
        # the gather is a temporary, so one block's gather is alive at a time
        diagonals = (np.take(flat[inputs], gather_at, axis=1).reshape(-1, d * d) @ kmat).reshape(-1, d, d)
        out[inputs] = diagonals[:, coords[:, None], minus]
    return out


def _apply_by_members(w: np.ndarray, us: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """sum_j w_j U_j x U_j* for every input x of the (T, d, d) stack xs.

    Members go in blocks, each two matmuls: the block's U_j times all inputs
    side by side, rearranged so that row (s, i) holds (U_j x_s)[i, :] for
    every j of the block, times the stacked w_j U_j*.  One member's share of
    that intermediate is the size of the inputs, so matcore's block budget
    bounds the intermediate (at least one member per block).
    """
    t, d = len(xs), xs.shape[-1]
    x_side = xs.transpose(1, 0, 2).reshape(d, t * d)
    out = np.zeros((t * d, d), dtype=complex)
    for members in _blocks(len(us), x_side.nbytes):
        u = us[members]
        k = len(u)
        ux = (u.reshape(k * d, d) @ x_side).reshape(k, d, t, d).transpose(2, 1, 0, 3)
        wu = (w[members, None, None] * u.conj().transpose(0, 2, 1)).reshape(k * d, d)
        out += np.ascontiguousarray(ux).reshape(t * d, k * d) @ wu
    return out.reshape(t, d, d)


def random_hermitian(d: int, seed: int) -> np.ndarray:
    """(G + G*)/2 with G entries uniform on [0,1) + i[0,1); seeded, reproducible."""
    rng = np.random.default_rng(seed)
    g = rng.random((d, d)) + 1j * rng.random((d, d))
    return (g + g.conj().T) / 2


def _choi_dev_from_gram(w: np.ndarray, uf: UnitaryFamily) -> float:
    """|W^(1/2) G W^(1/2) - (2/(d+1)) I_n|_F, equal to the Choi distance when the
    n = d(d+1)/2 members are exactly symmetric and the weights are >= 0.

    The weights must be equal within each orbit of uf.shifts members.  Then
    row t*d + x of W^(1/2) G W^(1/2) is row t*d permuted, so the squared
    distance is uf.shifts times its sum over the family's Gram rows.  Each
    block of rows is scaled in place, in one buffer reused across blocks.
    """
    size = uf.shifts
    gram = uf.gram_rows
    s = np.sqrt(w)
    m, n = gram.shape
    own = np.arange(m) * size  # the column of each row's diagonal entry
    blocks = list(_blocks(m, n * gram.itemsize))
    buffer = np.empty((blocks[0].stop, n), dtype=gram.dtype)  # the first block is the largest
    sq = 0.0
    for rows in blocks:
        dev = buffer[: rows.stop - rows.start]
        np.multiply(s[own[rows], None], gram[rows], out=dev)
        dev *= s
        dev[np.arange(len(dev)), own[rows]] -= 2 / (uf.d + 1)
        sq += float(np.vdot(dev, dev).real)
    return math.sqrt(size * sq)


def _choi_dev_by_blocks(w: np.ndarray, uf: UnitaryFamily) -> float:
    """|sum_j w_j vec(U_j) vec(U_j)* - (I + SWAP)/(d+1)|_F over blocks of d rows."""
    d = uf.d
    n = len(uf)
    # conj(vec(U_j)) as rows; vec stacks columns, so column b*d + a holds U[a, b]
    fbar = np.empty((n, d, d), dtype=complex)
    np.conjugate(uf.unitaries.transpose(0, 2, 1), out=fbar)
    fbar = fbar.reshape(n, d * d)
    a = np.arange(d)
    sq = 0.0
    for b in range(d):
        # rows b*d + a, columns b*d onward, of the mixture's Choi matrix minus
        # (I + SWAP)/(d+1): the difference is Hermitian (real weights), so the
        # blocks right of the diagonal block stand for their mirror images too
        block = (w[:, None] * fbar[:, b * d : (b + 1) * d].conj()).T @ fbar[:, b * d :]
        block[a, a] -= 1 / (d + 1)
        block[a[b:], (a[b:] - b) * d + b] -= 1 / (d + 1)
        diag, right = block[:, :d], block[:, d:]
        sq += float(np.vdot(diag, diag).real) + 2 * float(np.vdot(right, right).real)
    return math.sqrt(sq)


def verify_decomposition(
    dec: MixedUnitaryDecomposition,
    trials: int = 20,
    seed: int = 42,
    tol: Tolerance = DEFAULT_TOL,
) -> DecompositionReport:
    """Two checks of the mixture against the direct channel formula.

    (a) Frobenius distance between sum_j w_j vec(U_j) vec(U_j)* and the
    closed-form Choi matrix (I + SWAP)/(d+1), within eps * d^2.  For
    d(d+1)/2 exactly symmetric members with weights >= 0, equal within each
    orbit of the family's shifts, it comes from the Gram rows the
    certificate reads, times the shift count; otherwise it is accumulated
    over blocks of d rows, so no d^2 x d^2 matrix is formed.
    (b) For `trials` seeded random Hermitian inputs (per-trial seed =
    seed + index), max-entry distance between the mixture output and the
    formula output, within eps * max|X|.  Check (b) applies the mixture to a
    batch of inputs per apply_decomposition call: through the orbit kernel
    when the members come in Z_d orbits of shifts with equal weights, member
    by member otherwise.  It reads neither the Gram nor vec(U), so it does
    not share check (a)'s data or convention.
    """
    if trials < 0:
        raise OutOfRange(f"trials must be >= 0, got {trials}")
    if seed < 0:
        raise OutOfRange(f"seed must be >= 0, got {seed}")
    w = _weights(dec)
    uf = dec.unitaries
    d = uf.d
    equal_in_orbits = np.all(w.reshape(-1, uf.shifts) == w[:: uf.shifts, None])
    if uf.asymmetry[0] == 0.0 and len(uf) == d * (d + 1) // 2 and np.all(w >= 0) and equal_in_orbits:
        choi_dev = _choi_dev_from_gram(w, uf)
    else:
        choi_dev = _choi_dev_by_blocks(w, uf)

    apply_dev_max = 0.0
    apply_ok = True
    for batch in _blocks(trials, 16 * d * d):  # one complex (d, d) input per trial
        xs = [random_hermitian(d, seed + t) for t in range(batch.start, batch.stop)]
        mixed = apply_decomposition(dec, np.asarray(xs))
        for x, y in zip(xs, mixed):
            dev = float(np.max(np.abs(y - wh_plus_apply(x, d))))
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

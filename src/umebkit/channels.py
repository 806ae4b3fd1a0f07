"""The symmetric transpose-plus-trace channel X -> (Tr(X) I + X^T)/(d+1) and
the check that a certified unitary family realizes it as a uniform mixture
of d(d+1)/2 conjugations.

Choi convention: vec(U) stacks the columns of U, vec(U)[j*d + i] = U[i, j],
and the Choi matrix of X -> U X U* is vec(U) vec(U)* (unnormalized), i.e.
block (j, k) of the Choi matrix is the channel applied to E_jk; the target
channel's is (I + SWAP)/(d+1).

verify_decomposition makes two checks.
(a) The Choi check measures |C_mix - (I + SWAP)/(d+1)|_F.  When every
member is exactly symmetric, there are n = d(d+1)/2 of them and no weight is
negative, it reads that distance off the family's trace Gram G:
|W^(1/2) G W^(1/2) - (2/(d+1)) I_n|_F, an exact identity (the vec(U_j) lie
in the n-dimensional symmetric subspace, where the target is (2/(d+1)) times
the identity, and F W F* and W^(1/2) F* F W^(1/2) have the same spectrum).
It reads the family's Gram stats, uf.gram_stats, which the certificate also
reads: the per-orbit sums of squares and the diagonal.
Otherwise it reads the distance off the sums L of the orbit kernel below:
every family is T bases, each moved by every cyclic shift (member t*d + x
is base t shifted by x), and a mixture has one weight per orbit, so every
entry of C_mix is an entry of K, each standing for d of them, and the
squared distance is d sum |L - L_target|^2.  The blocks of L are summed one at a
time, the target subtracted in place, with no d^2 x d^2 matrix, no member
and no d^3 array formed; in these cases (a) and (b) share the kernel's
terms, and the tests hold (a) to the whole Choi matrix.
(b) The random-input check draws
each batch of seeded inputs into one buffer, bit for bit those of
random_hermitian, applies the mixture to the batch in one
apply_decomposition call, and compares it with wh_plus_apply of the batch,
one stack at a time.  With one weight per orbit the mixture is one
shift-covariant kernel K with d^3 entries: out[i, i + D] =
sum_{e,f} K[D, e, f] X[i + e, i + f], indices mod d.  In the input's
diagonals X[a, a + g] that sum is a cyclic correlation over the row i, so K
is kept transformed over the row index.  It is built once per decomposition
from the bases' values on their union support alone, at most s a row (s = 2
for the paper's unitaries): one (s d x T)(T x s d) product of those values
(T = n/d orbits), its terms summed by their place in K, and one product
with the d x d DFT matrix per block of K, O(T s^2 d^2 + d^4) with one
budgeted block and the terms beside the kernel.  It turns each batch of
inputs into a DFT of their diagonals, one product with the d x d DFT
matrix, d products of d x d matrices and an inverse DFT, O(d^3) per input,
against O(n d^3) for the sum over the members, and reads the kernel once
per batch; the DFT tables are the ones the kernel build made.  Every DFT
is a product with the d x d DFT matrix.  Check (b) reads only the bases
and the weights, neither the Gram nor vec(U), so it stays independent of
(a)'s Gram path, the one every certified decomposition takes; a deviation
that is not finite fails it.  No check forms the family's members.  Every
pass but the d^3 kernel itself sizes its blocks from matcore's one byte
budget; check (b)'s batches are the one place that sizes its inputs, one
complex d x d input per trial.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import NotCertified, NotSquare, OutOfRange, ShapeMismatch
from .matcore import DEFAULT_TOL, Tolerance, _blocks, _dft
from .umeb import UnitaryFamily, _span


def _cyclic(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(coords, plus, dft) with plus[i, e] = (i + e) mod d and dft = matcore._dft(d), dft[k, a] = exp(-2 pi i k a / d).

    dft is symmetric; every DFT here is a product with it or its conjugate.
    """
    coords = np.arange(d)
    return coords, (coords[:, None] + coords) % d, _dft(d)


@dataclass(frozen=True, eq=False)
class MixedUnitaryDecomposition:
    """Convex mixture sum_t orbit_weights[t] sum_x U_{t,x} X U_{t,x}* over a unitary family: one weight per Z_d orbit.

    orbit_weights holds one float per base of the family (ShapeMismatch
    otherwise), the weight of that base moved by each cyclic shift.  It is
    kept as a tuple and the family's stack is read-only, so the orbit kernel
    and its DFT tables are computed once, on first use, and kept on the
    object.
    """

    orbit_weights: tuple[float, ...]
    unitaries: UnitaryFamily

    def __post_init__(self):
        w = np.asarray(self.orbit_weights, dtype=float)
        if w.shape != (len(self.unitaries.bases),):
            raise ShapeMismatch(f"{w.size} orbit weights for the {len(self.unitaries.bases)} orbits of the family")
        object.__setattr__(self, "orbit_weights", tuple(w.tolist()))

    @property
    def weights(self) -> tuple[float, ...]:
        """The weight of every member, read-only: member t*d + x weighs orbit_weights[t]."""
        return tuple(w for w in self.orbit_weights for _ in range(self.unitaries.d))

    @cached_property
    def _dft(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """_cyclic(d) of the family, read-only: the tables that the kernel build and every apply through the kernel share."""
        tables = _cyclic(self.unitaries.d)
        for table in tables:
            table.flags.writeable = False
        return tables

    @cached_property
    def _orbit_kernel(self) -> np.ndarray:
        """The read-only orbit kernel transformed over the row index, lhat[k, D, g].

        Member t*d + x of every family is its base t shifted by x,
        U_{t,x}[i, j] = U_t[i - x, j - x], and it weighs w_t, the weight
        of its orbit.  Then, indices mod d and a = i - x, the
        mixture is out[i, i + D] =
        sum_{e,f} K[D, e, f] X[i + e, i + f] with
        K[D, e, f] = sum_t w_t sum_a U_t[a, a + e] conj(U_t[a + D, a + f]).
        In the input's diagonals X[a, a + g] the mixture is a cyclic
        correlation over the row i with L[D, e, g] = K[D, e, e + g], so the
        kernel is L transformed over e, lhat[k, D, g] = sum_e zeta^(k e)
        L[D, e, g] with zeta = exp(2 pi i / d) (see _apply_by_kernel).
        Only the bases' union support adds to K.  Row a of the bases holds
        s values, its supported entries and padding whose values are 0, at
        the offsets offs[a] (SupportStack.offsets).  For entries
        (a, a + e) and (a2, a2 + e2), the product sum_t w_t U_t[a, a + e]
        conj(U_t[a2, a2 + e2]) is one term of L at D = a2 - a, e and
        g = D + e2 - e.  All (s d)^2 terms are one (s d x T)(T x s d)
        product.  Each block of D sums its terms into their slots of an
        (e, D, g) buffer, one np.bincount (_kernel_blocks, which check (a)'s
        fallback reads too), and lhat is each buffer transformed by one
        product with the DFT matrix.  The paper's unitaries have s = 2 (the
        diagonal and each row's partner in its pair {q, kq}), so the build
        costs O(T d^2 + d^4) and holds, beyond lhat, one block of matcore's
        budget and O(d^2) terms; dense bases make s = d, O(T d^4) and d^4
        terms.  lhat reads only the bases and the weights.
        """
        d = self.unitaries.d
        blocks = _kernel_blocks(np.asarray(self.orbit_weights), self.unitaries)  # the terms, before lhat
        zeta = self._dft[2].conj()  # zeta[k, e] = exp(2 pi i k e / d)
        lhat = np.empty((d, d, d), dtype=complex)
        rows = lhat.reshape(d, d * d)  # rows[k, D * d + g]
        for block, buf in blocks:
            np.matmul(zeta, buf.reshape(d, -1), out=rows[:, block.start * d : block.stop * d])
            del buf  # freed before the next block's buffer is made
        lhat.flags.writeable = False
        return lhat


def _kernel_blocks(w: np.ndarray, uf: UnitaryFamily):
    """An iterator of (block, buf) for each block of D in turn, buf[e, D - block.start, g] = L[D, e, g] of the orbit weights w.

    The terms are those of MixedUnitaryDecomposition._orbit_kernel: one
    (s d x T)(T x s d) product of the bases' values, each term at its (D,
    e, g), made by this call, so their temporaries are gone before a
    caller allocates its output.  Each block of D, as many as matcore's
    budget holds of d^2 complex entries, sums its terms into a new buffer
    by one np.bincount and hands it over, keeping no reference to it: a
    consumer that drops each buffer before asking for the next holds one
    block at a time beside the O((s d)^2) terms.
    """
    d = uf.d
    coords = np.arange(d)
    offs = uf.bases.offsets()  # offs[a, i]: the offset e of row a's value i, at (a, a + e)
    s = offs.shape[1]
    values = uf.bases.values.transpose(0, 2, 1).reshape(len(uf.bases), s * d)  # [t, i, a]
    terms = ((w[:, None] * values).T @ values.conj()).reshape(s, d, s, d)  # [i, a, j, a2]
    partner = (coords[:, None] + coords) % d  # partner[D, a] = a + D, the row a2 of a term at D
    terms = terms[:, coords, :, partner]  # [D, a, i, j]
    big_d = coords[:, None, None, None]
    e = offs[:, :, None]  # e[a, i, 0] = offs[a, i]
    g = (big_d + offs[partner][:, :, None, :] - e) % d
    # each term goes to the slot (e, D, g) of its block's buffer; its real and imaginary
    # parts go to the two halves of that complex slot
    keys = 2 * (big_d * d + g)[..., None] + np.arange(2)

    def block_sum(block: slice) -> np.ndarray:
        n = block.stop - block.start
        block_keys = keys[block]
        block_keys += 2 * (e[..., None] * n * d - block.start * d)  # in place: each block reads its keys once
        return np.bincount(block_keys.ravel(), terms[block].view(float).ravel(), 2 * d * n * d).view(complex).reshape(d, n, d)

    return ((block, block_sum(block)) for block in _blocks(d, d * d * 16))


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
    """(Tr(x) I + x^T)/(d+1), for one (d, d) input or each of a (T, d, d) stack; trace preserving and unital.

    One array of the input's size: a copy of the transpose, the trace added
    to its diagonal and the whole divided, in place.
    """
    x = np.asarray(x, dtype=complex)
    if x.ndim not in (2, 3) or x.shape[-2:] != (d, d):
        raise NotSquare(f"expected a {d}x{d} matrix or a stack of them, got shape {x.shape}")
    out = x.swapaxes(-1, -2).copy()
    out.reshape(-1, d * d)[:, :: d + 1] += np.trace(x, axis1=-2, axis2=-1).reshape(-1, 1)
    out /= d + 1
    return out


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
    return MixedUnitaryDecomposition(orbit_weights=(w,) * len(uf.bases), unitaries=uf)


def apply_decomposition(dec: MixedUnitaryDecomposition, x: np.ndarray) -> np.ndarray:
    """sum_j weights[j] U_j x U_j*, for one (d, d) input or a (T, d, d) stack.

    The mixture is applied through its d^3-entry orbit kernel (see
    MixedUnitaryDecomposition._orbit_kernel), built once per decomposition
    and transformed over the row index: a DFT of the input's diagonals, d
    products of d x d matrices and an inverse DFT, O(d^3) per input, the
    whole stack in one pass that reads the kernel once.
    """
    d = dec.unitaries.d
    xs = np.asarray(x, dtype=complex)
    if xs.ndim not in (2, 3) or xs.shape[-2:] != (d, d):
        raise ShapeMismatch(f"expected a ({d}, {d}) matrix or a stack of them, got {xs.shape}")
    return _apply_by_kernel(dec._orbit_kernel, dec._dft, xs.reshape(-1, d, d)).reshape(xs.shape)


def _apply_by_kernel(lhat: np.ndarray, tables: tuple, xs: np.ndarray) -> np.ndarray:
    """out[s, i, i + D] = sum_{e,f} K[D, e, f] xs[s, i + e, i + f], indices mod d, through lhat.

    tables is the decomposition's _cyclic(d), which the kernel build made.
    With the inputs' diagonals Xd[a, g, s] = xs[s, a, a + g] and their DFT
    over the row, xh[k, g, s] = sum_a dft[k, a] Xd[a, g, s], the outputs'
    diagonals out[s, i, i + D] have the DFT over i
    oh[k, D, s] = sum_g lhat[k, D, g] xh[k, g, s]: one (d x d)(d x d n)
    product with the DFT matrix for n inputs, d products (d x d)(d x n)
    and one product with its inverse, O(d^3) per input.  All the inputs go
    in one pass, gathered and scattered through one flat index of d^2
    entries, so the d^3 kernel is read once per call; the pass holds two
    arrays of d^2 entries per input beside the inputs and the outputs, and
    the caller sizes the stack (verify_decomposition draws its trials in
    batches of matcore's block budget).
    """
    t, d = len(xs), xs.shape[-1]
    coords, plus, dft = tables
    idft = dft.conj() / d
    diagonals = coords[:, None] * d + plus  # diagonals[a, g]: the flat index of entry (a, a + g)
    xh = (dft @ xs.reshape(t, d * d).T[diagonals].reshape(d, d * t)).reshape(d, d, t)  # xh[k, g, s]
    oh = lhat @ xh  # oh[k, D, s]
    del xh
    flat_out = np.empty((t, d * d), dtype=xs.dtype)
    flat_out.T[diagonals] = (idft @ oh.reshape(d, d * t)).reshape(d, d, t)
    return flat_out.reshape(xs.shape)


def random_hermitian(d: int, seed: int) -> np.ndarray:
    """(G + G*)/2 with G entries uniform on [0,1) + i[0,1); seeded, reproducible."""
    rng = np.random.default_rng(seed)
    g = rng.random((d, d)) + 1j * rng.random((d, d))
    return (g + g.conj().T) / 2


def _random_hermitians(d: int, seeds: range) -> np.ndarray:
    """random_hermitian(d, s) for every seed s, bit for bit, as one (len(seeds), d, d) stack.

    Each seed's generator makes its two draws into the real and imaginary
    parts of one reused d x d matrix G, and G* + G goes straight into the
    seed's slot of the stack, which is halved at the end: one stack and one
    d x d matrix, each step on arrays that stay in cache.
    """
    xs = np.empty((len(seeds), d, d), dtype=complex)
    g = np.empty((d, d), dtype=complex)
    for x, seed in zip(xs, seeds):
        rng = np.random.default_rng(seed)
        g.real = rng.random((d, d))
        g.imag = rng.random((d, d))
        np.conjugate(g.T, out=x)
        x += g
    xs /= 2
    return xs


def _choi_dev_from_gram(w: np.ndarray, uf: UnitaryFamily) -> float:
    """|W^(1/2) G W^(1/2) - (2/(d+1)) I_n|_F for one weight w[t] >= 0 per orbit, equal to the Choi
    distance when the n = d(d+1)/2 members are exactly symmetric.

    Entry (i, j) of W^(1/2) G W^(1/2) is sqrt(w_i w_j) G_ij, and row t*d + x
    is row t*d permuted, so the squared distance is d times its sum
    over the rows G[t*d], read off uf.gram_stats: w^T sq_off w off the
    diagonal and sum_t |w_t G_tt - 2/(d+1)|^2 on it, two sums of
    nonnegative terms kept apart.
    """
    stats = uf.gram_stats
    on = np.abs(w * stats.diag - 2 / (uf.d + 1))
    return math.sqrt(uf.d * (float(w @ stats.sq_off @ w) + float(np.vdot(on, on))))


def _choi_dev_by_blocks(w: np.ndarray, uf: UnitaryFamily) -> float:
    """|sum_j w_j vec(U_j) vec(U_j)* - (I + SWAP)/(d+1)|_F for one weight w[t] per orbit, from the kernel's blocks.

    Entry (j d + i, l d + k) of the mixture's Choi matrix is
    sum_m w_m U_m[i, j] conj(U_m[k, l]) = K[k - i, j - i, l - i], the orbit
    kernel (see MixedUnitaryDecomposition._orbit_kernel), and the target
    (I + SWAP)/(d+1) is shift-covariant the same way, its K at (0, e, e)
    and at (D, D, 0).  Each K[D, e, f] then stands for d entries, and
    L[D, e, g] = K[D, e, e + g] only relabels them, so the squared
    distance is d sum |L - L_target|^2, with L_target 1/(d+1) at (0, e, 0)
    and at (D, D, -D).  The blocks of L come from _kernel_blocks one at a
    time, each with its target subtracted in place: no d^2 x d^2 matrix,
    no member and no d^3 array is formed.  The members need not be
    symmetric or d(d+1)/2, and the weights may have any sign.
    """
    d = uf.d
    sq = 0.0
    for block, buf in _kernel_blocks(w, uf):
        big_d = np.arange(block.start, block.stop)
        buf[big_d, big_d - block.start, -big_d % d] -= 1 / (d + 1)  # SWAP at (D, D, -D)
        if block.start == 0:
            buf[:, 0, 0] -= 1 / (d + 1)  # I at (0, e, 0)
        sq += float(np.vdot(buf, buf).real)
        del buf
    return math.sqrt(d * sq)


def verify_decomposition(
    dec: MixedUnitaryDecomposition,
    trials: int = 20,
    seed: int = 42,
    tol: Tolerance = DEFAULT_TOL,
) -> DecompositionReport:
    """Two checks of the mixture against the direct channel formula.

    (a) Frobenius distance between sum_j w_j vec(U_j) vec(U_j)* and the
    closed-form Choi matrix (I + SWAP)/(d+1), within eps * d^2.  For
    d(d+1)/2 exactly symmetric members with weights >= 0 it comes from the
    Gram stats the certificate reads, times d; otherwise from the orbit
    kernel's sums, one block at a time, times d, so no d^2 x d^2 matrix is
    formed.
    (b) For `trials` seeded random Hermitian inputs (per-trial seed =
    seed + index), max-entry distance between the mixture output and the
    formula output, within eps * max|X|; a distance that is not finite
    fails and is reported as it is.  Check (b) draws its inputs in batches,
    as many as matcore's block budget holds at one complex d x d input
    each, and applies the mixture to a batch per apply_decomposition call,
    through the orbit kernel in one pass per batch.
    It reads neither the Gram nor vec(U), so it does not share the data or
    the convention of check (a)'s Gram path.
    """
    if trials < 0:
        raise OutOfRange(f"trials must be >= 0, got {trials}")
    if seed < 0:
        raise OutOfRange(f"seed must be >= 0, got {seed}")
    uf = dec.unitaries
    d = uf.d
    w = np.asarray(dec.orbit_weights)
    if uf.asymmetry[0] == 0.0 and len(uf) == d * (d + 1) // 2 and np.all(w >= 0):
        choi_dev = _choi_dev_from_gram(w, uf)
    else:
        choi_dev = _choi_dev_by_blocks(w, uf)

    apply_dev_max = 0.0
    apply_ok = True
    for batch in _blocks(trials, 16 * d * d):  # one complex (d, d) input per trial
        xs = _random_hermitians(d, range(seed + batch.start, seed + batch.stop))
        gap = apply_decomposition(dec, xs)
        gap -= wh_plus_apply(xs, d)
        devs = np.max(np.abs(gap), axis=(1, 2))
        # a NaN deviation fails and stays NaN in the report: max() and > would both drop it
        apply_dev_max = float(np.maximum(apply_dev_max, np.max(devs)))
        apply_ok = apply_ok and bool(np.all(devs <= tol.eps * np.max(np.abs(xs), axis=(1, 2))))

    verdict = choi_dev <= tol.eps * d * d and apply_ok
    return DecompositionReport(
        choi_dev=choi_dev,
        apply_dev_max=apply_dev_max,
        trials=trials,
        seed=seed,
        verdict=verdict,
    )

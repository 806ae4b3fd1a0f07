"""The symmetric transpose-plus-trace channel X -> (Tr(X) I + X^T)/(d+1) and
the check that a certified unitary family realizes it as a uniform mixture
of d(d+1)/2 conjugations.

Choi convention: vec(U) stacks the columns of U, vec(U)[j*d + i] = U[i, j],
and the Choi matrix of X -> U X U* is vec(U) vec(U)* (unnormalized), i.e.
block (j, k) of the Choi matrix is the channel applied to E_jk; the target
channel's is (I + SWAP)/(d+1).

Every family is T bases, each moved by every cyclic shift (member t*d + x
is base t shifted by x), and a mixture has one weight per orbit, so the
mixture is one shift-covariant kernel K with d^3 entries:
out[i, i + D] = sum_{e,f} K[D, e, f] X[i + e, i + f], indices mod d.  Its
sums L[D, e, g] = K[D, e, e + g] come from the bases' values on their
union support alone, at most s a row (s = 2 for the paper's unitaries):
one (s d x T)(T x s d) product of those values, its terms summed by their
place in L one block of D at a time (_kernel).  verify_decomposition makes
both of its checks from that one pass.
(a) The Choi check measures |C_mix - (I + SWAP)/(d+1)|_F.  Every entry of
C_mix is an entry of K, each standing for d of them, and the target is
shift-covariant the same way, so the squared distance is
d sum |L - L_target|^2.  Each block of L has the target subtracted in
place and its squares summed: no d^2 x d^2 matrix and no member is formed,
whatever the members and the signs of the weights, and the tests hold it
to the whole Choi matrix.
(b) The random-input check draws each batch of seeded random Hermitian
inputs into the call's workspace (_random_hermitians), applies the
mixture to the batch there (_apply_by_kernel) and compares it with
wh_plus_apply of the batch, one stack at a time.  In the input's
diagonals X[a, a + g] the mixture is a cyclic correlation over the row
i, so it goes through L transformed over the row index, lhat, which the
same pass writes into the workspace block by block before (a)
subtracts the target: one product with the d x d DFT matrix per block,
O(T s^2 d^2 + d^4) in all, with one budgeted block and the terms beside
lhat.  Each batch costs a DFT of the inputs' diagonals, d products of
d x d matrices and an inverse DFT, O(d^3) per input, against O(n d^3) for
the sum over the members, and reads lhat once; one DFT matrix serves the
pass and every batch.  Every DFT is a product with it.  A deviation that
is not finite fails.  Without trials no d^3 array is made.
No check reads the Gram or forms the family's members, and a decomposition
keeps nothing between calls.  Every pass but lhat itself sizes its blocks
from matcore's one byte budget; check (b)'s batches are the one place that
sizes its inputs, one complex d x d input per trial.  With trials, a call
makes one complex workspace, lhat and then one batch's inputs and two
arrays of as many entries, and every batch reuses it, so no other array
of the call is as large.  The allocator then hands the same memory back
to each later call, whatever the caller freed before: at d = 47 a call
with 20 trials, after 5 warm-up calls in a fresh process, faulted 0 pages
(ru_minflt), where lhat and each batch's arrays made on their own
faulted 1,500 to 1,700 a call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotCertified, NotSquare, OutOfRange, ShapeMismatch
from .matcore import DEFAULT_TOL, Tolerance, _blocks, _dft
from .umeb import UnitaryFamily


@dataclass(frozen=True, eq=False)
class MixedUnitaryDecomposition:
    """Convex mixture sum_t orbit_weights[t] sum_x U_{t,x} X U_{t,x}* over a unitary family: one weight per Z_d orbit.

    orbit_weights holds one float per base of the family (ShapeMismatch
    otherwise), the weight of that base moved by each cyclic shift, kept as
    a tuple so that a caller's list does not reach it.  The object holds its
    two fields and nothing else: every check builds the kernel it reads.
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


def _kernel(w: np.ndarray, uf: UnitaryFamily, dft: np.ndarray | None, lhat: np.ndarray | None) -> float:
    """choi_dev of the orbit weights w over uf, and lhat written in place: one pass over the blocks of the orbit kernel's sums L.

    Member t*d + x of every family is its base t shifted by x,
    U_{t,x}[i, j] = U_t[i - x, j - x], and it weighs w_t, the weight of
    its orbit.  Then, indices mod d and a = i - x, the mixture is
    out[i, i + D] = sum_{e,f} K[D, e, f] X[i + e, i + f] with
    K[D, e, f] = sum_t w_t sum_a U_t[a, a + e] conj(U_t[a + D, a + f]),
    and L[D, e, g] = K[D, e, e + g] relabels K.  Only the bases' union
    support adds to K.  Row a of the bases holds s values, its supported
    entries and padding whose values are 0, at the offsets offs[a]
    (SupportStack.offsets).  For entries (a, a + e) and (a2, a2 + e2), the
    product sum_t w_t U_t[a, a + e] conj(U_t[a2, a2 + e2]) is one term of
    L at D = a2 - a, e and g = D + e2 - e.  All (s d)^2 terms are one
    (s d x T)(T x s d) product.  Each block of D, as many as matcore's
    budget holds of d^2 complex entries, sums its terms into an (e, D, g)
    buffer by one np.bincount, and then:
    - given dft, matcore._dft(d), and the caller's (d, d, d) complex
      lhat, writes its slice of the kernel transformed over the row index,
      lhat[k, D, g] = sum_e zeta^(k e) L[D, e, g] with zeta = conj(dft)
      (see _apply_by_kernel), by one product with zeta into lhat; without
      them (both None) no d^3 array is read or made;
    - subtracts L_target in place, 1/(d+1) at (0, e, 0) and at (D, D, -D):
      entry (j d + i, l d + k) of the mixture's Choi matrix is
      K[k - i, j - i, l - i], and the target (I + SWAP)/(d+1) is
      shift-covariant the same way, its K at (0, e, e) and at (D, D, 0);
    - adds its sum of |L - L_target|^2.
    Each K[D, e, f] stands for d entries of the Choi matrix, so
    choi_dev = sqrt(d sum) = |C_mix - (I + SWAP)/(d+1)|_F, for members of
    any kind and weights of any sign.  The paper's unitaries have s = 2
    (the diagonal and each row's partner in its pair {q, kq}), so the pass
    costs O(T d^2 + d^3), d^4 more with lhat, and holds the O(d^2) terms
    and one block of matcore's budget with its terms' keys; dense bases
    make s = d, O(T d^4) and d^4 terms.
    """
    d = uf.d
    coords = np.arange(d)
    offs = uf.bases.offsets()  # offs[a, i]: the offset e of row a's value i, at (a, a + e)
    s = offs.shape[1]
    values = uf.bases.values.transpose(0, 2, 1).reshape(len(uf.bases), s * d)  # [t, i, a]
    terms = ((w[:, None] * values).T @ values.conj()).reshape(s, d, s, d)  # [i, a, j, a2]
    partner = (coords[:, None] + coords) % d  # partner[D, a] = a + D, the row a2 of a term at D
    terms = terms[:, coords, :, partner]  # [D, a, i, j]
    e = offs[:, :, None]  # e[a, i, 0] = offs[a, i]
    zeta = None if dft is None else dft.conj()  # zeta[k, e] = exp(2 pi i k e / d)
    sq = 0.0
    for block in _blocks(d, d * d * 16):
        n = block.stop - block.start
        ds = np.arange(block.start, block.stop)
        big_d = ds[:, None, None, None]
        g = (big_d + offs[partner[block]][:, :, None, :] - e) % d
        # each term of the block goes to the slot (e, D, g) of its buffer; its real and imaginary
        # parts go to the two halves of that complex slot
        keys = 2 * ((e * n + big_d - block.start) * d + g)[..., None] + np.arange(2)
        buf = np.bincount(keys.ravel(), terms[block].view(float).ravel(), 2 * d * n * d).view(complex).reshape(d, n, d)
        if lhat is not None:
            np.matmul(zeta, buf.reshape(d, -1), out=lhat.reshape(d, d * d)[:, block.start * d : block.stop * d])
        buf[ds, ds - block.start, -ds % d] -= 1 / (d + 1)  # SWAP at (D, D, -D)
        if block.start == 0:
            buf[:, 0, 0] -= 1 / (d + 1)  # I at (0, e, 0)
        sq += float(np.vdot(buf, buf).real)
        del buf  # freed before the next block's buffer is made
    return math.sqrt(d * sq)


@dataclass(frozen=True)
class DecompositionReport:
    """Outcome of the Choi-equality and random-input checks."""

    choi_dev: float
    apply_dev_max: float
    trials: int
    seed: int
    verdict: bool


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


def umeb_decomposition(uf: UnitaryFamily) -> MixedUnitaryDecomposition:
    """Uniform mixture with weight 2/(d(d+1)) over a family of d(d+1)/2 unitaries; NotCertified for any other count.

    Checks only what the uniform weight needs, the member count, and reads
    no Gram.  That the members span the symmetric matrices, which the
    paper's claim rests on, is the certificate's (certify_umeb), and
    verify_decomposition's check (a) implies it: d(d+1)/2 members whose
    mixture realizes the channel span the symmetric matrices.
    """
    d = uf.d
    if len(uf) != d * (d + 1) // 2:
        raise NotCertified(f"family of {len(uf)} unitaries in d={d}; a uniform mixture needs {d * (d + 1) // 2}")
    w = 2 / (d * (d + 1))  # int / int is correctly rounded: float(Fraction(2, d(d+1))) bit for bit
    return MixedUnitaryDecomposition(orbit_weights=(w,) * len(uf.bases), unitaries=uf)


def _apply_by_kernel(lhat: np.ndarray, dft: np.ndarray, xs: np.ndarray, work: np.ndarray) -> np.ndarray:
    """out[s, i, i + D] = sum_{e,f} K[D, e, f] xs[s, i + e, i + f], indices mod d, through lhat, in work's memory.

    dft is matcore._dft(d), the matrix the kernel was transformed with.
    With the inputs' diagonals Xd[a, g, s] = xs[s, a, a + g] and their DFT
    over the row, xh[k, g, s] = sum_a dft[k, a] Xd[a, g, s], the outputs'
    diagonals out[s, i, i + D] have the DFT over i
    oh[k, D, s] = sum_g lhat[k, D, g] xh[k, g, s]: one (d x d)(d x d n)
    product with the DFT matrix for n inputs, d products (d x d)(d x n)
    and one product with its inverse, O(d^3) per input.  All the inputs go
    in one pass, gathered and scattered through one flat index of d^2
    entries, so the d^3 kernel is read once per call.  work is 2 n d^2
    contiguous complex entries, two arrays of n d^2, and the three
    products run in place in them: xh into the first, oh into the second,
    the inverse transform back into the first, and the outputs are
    scattered into the second, which is returned as (n, d, d).  Beside
    work the pass makes only the gather of the inputs' diagonals (by fancy
    index, which reads them faster than np.take into work) and the d x d
    tables.
    """
    t, d = len(xs), xs.shape[-1]
    coords = np.arange(d)
    diagonals = coords[:, None] * d + (coords[:, None] + coords) % d  # diagonals[a, g]: the flat index of entry (a, a + g)
    xh, oh = work.reshape(2, d, d, t)  # xh[k, g, s], oh[k, D, s]
    np.matmul(dft, xs.reshape(t, d * d).T[diagonals].reshape(d, d * t), out=xh.reshape(d, d * t))
    np.matmul(lhat, xh, out=oh)
    np.matmul(dft.conj() / d, oh.reshape(d, d * t), out=xh.reshape(d, d * t))  # the outputs' diagonals
    out = oh.reshape(t, d * d)  # oh is read: its memory takes the outputs
    out.T[diagonals] = xh
    return out.reshape(xs.shape)


def _random_hermitians(seeds: range, xs: np.ndarray) -> np.ndarray:
    """xs, a (len(seeds), d, d) complex array, filled with (G + G*)/2 for every seed s: check (b)'s seeded random Hermitian inputs.

    G's entries are uniform on [0,1) + i[0,1): np.random.default_rng(s)
    draws random((d, d)) for the real parts and then random((d, d)) for
    the imaginary parts.  Each seed's two draws go into one reused d x d
    matrix G, and G* + G goes straight into the seed's slot of xs, which
    is halved at the end: xs and one d x d matrix, each step on arrays that
    stay in cache.
    """
    d = xs.shape[-1]
    g = np.empty((d, d), dtype=complex)
    for x, seed in zip(xs, seeds, strict=True):
        rng = np.random.default_rng(seed)
        g.real = rng.random((d, d))
        g.imag = rng.random((d, d))
        np.conjugate(g.T, out=x)
        x += g
    xs /= 2
    return xs


def _check_probe(trials: int, seed: int) -> None:
    """OutOfRange unless trials >= 0 and seed >= 0: the arguments of check (b)'s random probe."""
    if trials < 0:
        raise OutOfRange(f"trials must be >= 0, got {trials}")
    if seed < 0:
        raise OutOfRange(f"seed must be >= 0, got {seed}")


def verify_decomposition(
    dec: MixedUnitaryDecomposition,
    trials: int = 20,
    seed: int = 42,
    tol: Tolerance = DEFAULT_TOL,
) -> DecompositionReport:
    """Two checks of the mixture against the direct channel formula, from one pass over the orbit kernel (_kernel).

    (a) Frobenius distance between sum_j w_j vec(U_j) vec(U_j)* and the
    closed-form Choi matrix (I + SWAP)/(d+1), within eps * d^2: the
    kernel's sums against the target's, one block at a time, times d, so
    no d^2 x d^2 matrix is formed, and with trials = 0 no d^3 array.
    The target is 2/(d+1) times the projection onto the symmetric
    subspace, of dimension d(d+1)/2, so uniform weights over d(d+1)/2
    members pass (a) only if their vec(U) span that subspace: (a) implies
    the span that umeb_decomposition does not check.
    (b) For `trials` seeded random Hermitian inputs (per-trial seed =
    seed + index), max-entry distance between the mixture output and the
    formula output, within eps * max|X|; a distance that is not finite
    fails and is reported as it is.  Check (b) draws its inputs in batches,
    as many as matcore's block budget holds at one complex d x d input
    each, and applies the kernel that the same pass transformed to one
    batch at a time.  With trials the call makes one complex workspace of
    d^3 + 3 n d^2 entries, n the largest batch, read from the budget at
    call time: lhat, then the batch's inputs, then the two arrays that
    _apply_by_kernel works in; each batch uses the start of each region.
    Neither check reads the Gram or vec(U).
    """
    _check_probe(trials, seed)
    d = dec.unitaries.d
    cube = d**3
    batches = list(_blocks(trials, 16 * d * d))  # one complex (d, d) input per trial
    lhat = dft = None
    if trials:
        size = batches[0].stop * d * d  # the entries of the largest batch
        # the call's one workspace: lhat, then a batch's inputs, then the two arrays _apply_by_kernel works in
        work = np.empty(cube + 3 * size, dtype=complex)
        lhat, dft = work[:cube].reshape(d, d, d), _dft(d)
    choi_dev = _kernel(np.asarray(dec.orbit_weights), dec.unitaries, dft, lhat)

    apply_dev_max = 0.0
    apply_ok = True
    for batch in batches:
        held = (batch.stop - batch.start) * d * d  # this batch's entries, at the start of each region
        xs = _random_hermitians(range(seed + batch.start, seed + batch.stop), work[cube : cube + held].reshape(-1, d, d))
        gap = _apply_by_kernel(lhat, dft, xs, work[cube + size : cube + size + 2 * held])
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

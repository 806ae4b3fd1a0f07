import functools
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umebkit import channels, matcore, packing
from umebkit.channels import (
    MixedUnitaryDecomposition,
    umeb_decomposition,
    verify_decomposition,
    wh_plus_apply,
)
from umebkit.errors import NotCertified, NotSquare, OutOfRange, ShapeMismatch
from umebkit.hadamard import construct
from umebkit.matcore import SupportStack
from umebkit.numth import validate_prime
from umebkit.packing import ProjectionFamily, build_residue_family, icosahedron_lines, verify_equiangular
from umebkit.umeb import build_unitaries, certify_umeb, compute_phase

from oracles import (
    choi_of_channel,
    choi_rank,
    gram_choi_dev,
    member_stack,
    member_sum,
    mixture_choi_dev,
    orbit_stack,
    random_hermitian,
    support_stack,
    dense_certificate,
    swap_matrix,
    uniform_weight,
)
from test_umeb import assert_bounds  # the derived certificate against the dense one

EPS = 1e-9


def p7_unitaries():
    fam = build_residue_family(validate_prime(7), construct(4))
    return build_unitaries(fam, compute_phase(7, 3))


@pytest.fixture(scope="module")
def p23_decomposition():
    fam = build_residue_family(validate_prime(23), construct(12))
    return umeb_decomposition(build_unitaries(fam, compute_phase(23, 11)))


def kernel_apply(dec, xs):
    """The mixture dec applied to each of a (T, d, d) stack of inputs through its orbit kernel, as check (b) applies it."""
    dft = matcore._dft(dec.unitaries.d)
    xs = np.asarray(xs, dtype=complex)
    return channels._apply_by_kernel(orbit_kernel(dec, dft), dft, xs, np.empty(2 * xs.size, dtype=complex))


def kron_assembled_choi(apply, d):
    """Independent assembly sum_jk kron(E_jk, apply(E_jk))."""
    total = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        for k in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[j, k] = 1.0
            total += np.kron(e, apply(e))
    return total


def test_wh_plus_fixes_identity():
    for d in (2, 3, 7):
        assert np.max(np.abs(wh_plus_apply(np.eye(d), d) - np.eye(d))) < EPS


def test_wh_plus_elementary_matrix():
    e01 = np.zeros((3, 3))
    e01[0, 1] = 1.0
    out = wh_plus_apply(e01, 3)
    expected = np.zeros((3, 3))
    expected[1, 0] = 0.25
    assert np.max(np.abs(out - expected)) < EPS


def test_wh_plus_trace_preserving_and_hermitian():
    for t in range(5):
        x = random_hermitian(4, seed=100 + t)
        out = wh_plus_apply(x, 4)
        assert abs(np.trace(out) - np.trace(x)) < EPS
        assert np.max(np.abs(out - out.conj().T)) < EPS


def test_wh_plus_not_square():
    with pytest.raises(NotSquare):
        wh_plus_apply(np.ones((2, 3)), 2)
    with pytest.raises(NotSquare):
        wh_plus_apply(np.eye(3), 2)


def test_wh_plus_applies_a_stack_matrix_by_matrix():
    xs = np.array([random_hermitian(5, seed=110 + t) for t in range(4)])
    xs[1] = xs[1] @ xs[2]  # one input that is not Hermitian
    out = wh_plus_apply(xs, 5)
    assert out.shape == (4, 5, 5)
    for x, y in zip(xs, out):
        assert np.array_equal(y, wh_plus_apply(x, 5))
    with pytest.raises(NotSquare):
        wh_plus_apply(np.ones((4, 5, 6)), 5)
    with pytest.raises(NotSquare):
        wh_plus_apply(xs[None], 5)


def test_choi_of_identity_channel():
    choi = choi_of_channel(lambda x: x, 2)
    vec = np.eye(2).flatten(order="F")
    assert np.max(np.abs(choi - np.outer(vec, vec.conj()))) < EPS
    assert choi_rank(lambda x: x, 2) == 1


def test_choi_of_transpose_is_swap():
    choi = choi_of_channel(lambda x: x.T, 2)
    assert np.max(np.abs(choi - swap_matrix(2))) < EPS
    choi3 = choi_of_channel(lambda x: x.T, 3)
    assert np.max(np.abs(choi3 - swap_matrix(3))) < EPS


def test_choi_of_unitary_conjugation_is_vec_outer():
    rng = np.random.default_rng(19)
    u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    choi = choi_of_channel(lambda x: u @ x @ u.conj().T, 3)
    vec = u.flatten(order="F")
    assert np.max(np.abs(choi - np.outer(vec, vec.conj()))) < EPS


def test_choi_of_wh_plus_d3():
    d = 3
    choi = choi_of_channel(lambda x: wh_plus_apply(x, d), d)
    target = (np.eye(d * d) + swap_matrix(d)) / (d + 1)
    assert np.max(np.abs(choi - target)) < EPS
    assert np.max(np.abs(choi - kron_assembled_choi(lambda x: wh_plus_apply(x, d), d))) < EPS
    eigs = np.linalg.eigvalsh(choi)
    assert eigs[0] > -EPS
    assert np.max(np.abs(choi - choi.conj().T)) < EPS


@pytest.mark.parametrize("d,rank", [(3, 6), (7, 28)])
def test_choi_rank_of_wh_plus(d, rank):
    assert choi_rank(lambda x: wh_plus_apply(x, d), d) == rank


def test_uniform_orbit_weights_are_the_exact_weight_rounded_once():
    # each of the d(d+1)/2 members weighs exactly 2/(d(d+1)), and the package's float is that
    # fraction correctly rounded, bit for bit
    assert uniform_weight(7) == Fraction(1, 28)
    assert uniform_weight(3) == Fraction(1, 6)
    for d in (3, 7, 23, 79):
        uf = _residue_unitaries(d)
        assert uniform_weight(d) * len(uf) == 1
        weights = umeb_decomposition(uf).orbit_weights
        assert [w.hex() for w in weights] == [float(Fraction(2, d * (d + 1))).hex()] * len(uf.bases)


def test_umeb_decomposition_p7():
    dec = umeb_decomposition(p7_unitaries())
    assert len(dec.weights) == 28
    assert all(w == dec.weights[0] for w in dec.weights)
    assert abs(dec.weights[0] - 1 / 28) < 1e-15
    assert abs(sum(dec.weights) - 1) < EPS


def test_umeb_decomposition_icosahedron():
    dec = umeb_decomposition(build_unitaries(icosahedron_lines(), compute_phase(3, 1)))
    assert len(dec.weights) == 6
    assert abs(dec.weights[0] - 1 / 6) < 1e-15


def test_umeb_decomposition_rejects_uncertified():
    uf = p7_unitaries()
    values = uf.family.bases.values
    truncated = _with_bases(uf, values[:3])  # 3 of the 4 orbits
    with pytest.raises(NotCertified):
        umeb_decomposition(truncated)
    # spans the symmetric matrices, but 35 weights 1/28 do not sum to 1
    duplicated = _with_bases(uf, np.concatenate((values, values[:1])))
    with pytest.raises(NotCertified):
        umeb_decomposition(duplicated)


def test_decomposition_keeps_its_own_weights():
    # every check builds the orbit kernel from the weights, so a caller's list must not reach them
    dec = umeb_decomposition(p7_unitaries())
    weights = list(dec.orbit_weights)
    mine = MixedUnitaryDecomposition(orbit_weights=weights, unitaries=dec.unitaries)
    xs = random_hermitian(7, seed=3)[None]
    before = kernel_apply(mine, xs)
    weights[0] = 0.5
    assert mine.orbit_weights == dec.orbit_weights
    assert np.array_equal(kernel_apply(mine, xs), before)


def test_member_weights_are_a_view_of_the_orbit_weights():
    uf = p7_unitaries()
    dec = umeb_decomposition(uf)
    assert dec.orbit_weights == (1 / 28,) * 4
    orbit_weights = (0.1, 0.2, 0.3, 0.4)
    tilted = MixedUnitaryDecomposition(orbit_weights, uf)
    # member t*d + x is base t shifted by x, so it weighs orbit_weights[t]
    assert tilted.weights == tuple(orbit_weights[j // 7] for j in range(28))
    assert dec.weights == (1 / 28,) * 28
    with pytest.raises(AttributeError):
        tilted.weights = dec.weights
    # T - 1, T + 1 and n weights are refused when the mixture is made
    for weights in (orbit_weights[:-1], orbit_weights + (0.5,), tilted.weights):
        with pytest.raises(ShapeMismatch):
            MixedUnitaryDecomposition(weights, uf)


def test_verify_decomposition_p7():
    rep = verify_decomposition(umeb_decomposition(p7_unitaries()), trials=20, seed=42)
    assert rep.verdict
    assert rep.choi_dev <= 1e-8
    assert rep.apply_dev_max <= 1e-9
    assert (rep.trials, rep.seed) == (20, 42)


def test_verify_decomposition_identity_input():
    dec = umeb_decomposition(p7_unitaries())
    out = member_sum(dec.weights, dec.unitaries.unitaries, np.eye(7))
    assert np.max(np.abs(out - np.eye(7))) < EPS
    assert np.max(np.abs(wh_plus_apply(np.eye(7), 7) - np.eye(7))) < EPS


def test_verify_decomposition_perturbed_weights_fail():
    dec = umeb_decomposition(p7_unitaries())
    w = np.array(dec.orbit_weights)
    w[0] += 0.01  # orbit 0
    w /= 7 * w.sum()
    bad = MixedUnitaryDecomposition(orbit_weights=tuple(w), unitaries=dec.unitaries)
    rep = verify_decomposition(bad, trials=20, seed=42)
    assert not rep.verdict
    assert rep.apply_dev_max > 1e-4


def test_verify_decomposition_icosahedron():
    dec = umeb_decomposition(build_unitaries(icosahedron_lines(), compute_phase(3, 1)))
    rep = verify_decomposition(dec, trials=10, seed=7)
    assert rep.verdict


def test_mixture_reproduces_channel_on_random_inputs():
    dec = umeb_decomposition(p7_unitaries())
    for t in range(5):
        x = random_hermitian(7, seed=500 + t)
        lhs = member_sum(dec.weights, dec.unitaries.unitaries, x)
        rhs = wh_plus_apply(x, 7)
        assert np.max(np.abs(lhs - rhs)) < EPS * np.max(np.abs(x))


def test_random_hermitian_reproducible():
    a = random_hermitian(5, seed=1)
    b = random_hermitian(5, seed=1)
    assert np.array_equal(a, b)
    assert np.max(np.abs(a - a.conj().T)) < EPS


def test_verify_decomposition_rejects_bad_arguments():
    dec = umeb_decomposition(p7_unitaries())
    with pytest.raises(OutOfRange):
        verify_decomposition(dec, trials=-3)
    with pytest.raises(OutOfRange):
        verify_decomposition(dec, seed=-1)
    rep = verify_decomposition(dec, trials=0)
    assert rep.verdict and (rep.trials, rep.apply_dev_max) == (0, 0.0)


def test_verify_decomposition_fails_on_the_last_weight(p23_decomposition):
    dec = p23_decomposition
    assert verify_decomposition(dec).verdict
    w = np.array(dec.orbit_weights)
    w[-1] *= 1.5  # the last orbit
    bad = MixedUnitaryDecomposition(orbit_weights=tuple(w), unitaries=dec.unitaries)
    rep = verify_decomposition(bad)
    assert not rep.verdict
    assert rep.choi_dev > EPS * 23 * 23
    assert rep.apply_dev_max > 1e-4
    # the whole 529 x 529 Choi matrix, as sum_j w_j vec(U_j) vec(U_j)*
    flat = np.array([u.flatten(order="F") for u in dec.unitaries.unitaries])
    choi = (np.array(bad.weights)[:, None] * flat).T @ flat.conj()
    target = (np.eye(23 * 23) + swap_matrix(23)) / 24
    assert rep.choi_dev == pytest.approx(np.linalg.norm(choi - target), rel=1e-9)


def test_verify_decomposition_checks_the_last_batch_of_trials(monkeypatch):
    monkeypatch.setattr(matcore, "_BLOCK_BYTES", 64 * 16 * 3 * 3)  # 64 complex 3 x 3 inputs
    uf = build_unitaries(icosahedron_lines(), compute_phase(3, 1))
    w = np.full(2, 1 / 6)
    w[0] += 0.05  # orbit 0
    bad = MixedUnitaryDecomposition(orbit_weights=tuple(w / (3 * w.sum())), unitaries=uf)

    def dev(seed):
        x = random_hermitian(3, seed)
        return np.max(np.abs(member_sum(bad.weights, uf.unitaries, x) - wh_plus_apply(x, 3)))

    devs = [dev(s) for s in range(400)]
    batch = matcore._BLOCK_BYTES // (16 * 3 * 3)
    # a seed whose last input, alone in the second batch, deviates most
    seed = next(s for s in range(400 - batch) if devs[s + batch] > max(devs[s : s + batch]))
    rep = verify_decomposition(bad, trials=batch + 1, seed=seed)
    assert rep.apply_dev_max == pytest.approx(devs[seed + batch], rel=1e-9)


@pytest.mark.parametrize("budget", ["one-batch", "three-a-batch"])
@pytest.mark.parametrize("d", [3, 7, 47])  # 3: the icosahedron
def test_check_b_inputs_are_the_seeded_random_hermitians(d, budget, monkeypatch):
    dec = umeb_decomposition(_unitaries(d))
    if budget == "three-a-batch":
        monkeypatch.setattr(matcore, "_BLOCK_BYTES", 3 * 16 * d * d)  # three complex d x d inputs
    batches = []
    apply = channels._apply_by_kernel
    monkeypatch.setattr(channels, "_apply_by_kernel", lambda lhat, dft, xs, work: batches.append(xs.copy()) or apply(lhat, dft, xs, work))
    assert verify_decomposition(dec, trials=8, seed=31).verdict
    assert [len(xs) for xs in batches] == ([8] if budget == "one-batch" else [3, 3, 2])
    for t, x in enumerate(np.concatenate(batches)):
        assert x.tobytes() == random_hermitian(d, 31 + t).tobytes()


def test_wh_plus_apply_is_the_formula_bit_for_bit():
    xs = np.array([random_hermitian(5, seed=120 + t) for t in range(3)])
    xs[1] = xs[1] @ xs[2]  # one input that is not Hermitian
    out = wh_plus_apply(xs, 5)
    for x, y in zip(xs, out):
        direct = (np.trace(x) * np.eye(5) + x.T) / 6
        assert y.tobytes() == direct.tobytes() == wh_plus_apply(x, 5).tobytes()


def _residue_unitaries(p):
    fam = build_residue_family(validate_prime(p), construct((p + 1) // 2))
    return build_unitaries(fam, compute_phase(p, (p - 1) // 2))


def _unitaries(p):
    if p == 3:
        return build_unitaries(icosahedron_lines(), compute_phase(3, 1))
    return _residue_unitaries(p)


def _with_bases(uf, values):
    """The unitaries at uf's phase of the projection bases `values` on uf's support: whole orbits kept, dropped or repeated."""
    return build_unitaries(replace(uf.family, bases=SupportStack(uf.family.bases.cols, values)), uf.z)


def _edited(uf, edit):
    """The unitaries at uf's phase of its dense projection bases edited in place: every shift of an edited base changes with it."""
    fam = uf.family
    return build_unitaries(replace(fam, bases=support_stack(edit(np.array(fam.bases.dense())), fam.d)), uf.z)


def full_choi_dev(dec):
    """|sum_j w_j vec(U_j) vec(U_j)* - (I + SWAP)/(d+1)|_F from the whole d^2 x d^2 matrix."""
    uf = dec.unitaries
    d = uf.d
    flat = np.array([u.flatten(order="F") for u in uf.unitaries])
    choi = (np.array(dec.weights)[:, None] * flat).T @ flat.conj()
    return np.linalg.norm(choi - (np.eye(d * d) + swap_matrix(d)) / (d + 1))


def spy_paths(monkeypatch, names):
    """Record which of the named private paths of channels run, in order."""
    ran = []
    for name in names:
        path = getattr(channels, name)
        monkeypatch.setattr(channels, name, lambda *a, path=path, name=name: ran.append(name) or path(*a))
    return ran


def spy_kernel_applies(monkeypatch):
    """Record each pass of a stack of inputs through the orbit kernel."""
    return spy_paths(monkeypatch, ("_apply_by_kernel",))


# "icosahedron" is d=3 from the six icosahedron lines, bit for bit the residue family at p = 3
CHOI_FAMILIES = {
    "icosahedron": lambda: _unitaries(3),
    "p7": lambda: _unitaries(7),
    "p23": lambda: _unitaries(23),
    "p31": lambda: _unitaries(31),
    "p47": lambda: _unitaries(47),
}


@pytest.mark.parametrize("weights", ["uniform", "perturbed"])
@pytest.mark.parametrize(
    "name", [pytest.param(n, marks=pytest.mark.slow) if n == "p47" else n for n in CHOI_FAMILIES]
)
def test_choi_check_from_the_gram_is_the_block_sum(name, weights):
    # the kernel's block sums against the Gram identity, which holds for these d(d+1)/2 symmetric
    # members and weights >= 0, and against the whole Choi matrix where it is small
    dec = umeb_decomposition(CHOI_FAMILIES[name]())
    w = np.array(dec.orbit_weights)
    if weights == "perturbed":  # still >= 0, so the Gram identity holds
        w[-1] *= 1.5
        w[1] *= 0.2
        dec = MixedUnitaryDecomposition(orbit_weights=tuple(w), unitaries=dec.unitaries)
    rep = verify_decomposition(dec, trials=0)
    gram = gram_choi_dev(dec.weights, member_stack(dec.unitaries))
    assert rep.choi_dev == pytest.approx(gram, rel=1e-12, abs=1e-14)
    if dec.unitaries.d <= 23:
        assert rep.choi_dev == pytest.approx(full_choi_dev(dec), rel=1e-12, abs=1e-14)
    assert rep.verdict == (weights == "uniform")


def spy_gram_shapes(monkeypatch):
    """Record the shapes (c, h) of every Gram that matcore computes, for the equiangular check or any other caller."""
    shapes = []
    cyclic_gram = matcore.cyclic_gram

    def spy(*args, **kwargs):
        gram = cyclic_gram(*args, **kwargs)
        shapes.append((gram.c.shape, gram.h.shape))
        return gram

    for module in (matcore, packing):
        monkeypatch.setattr(module, "cyclic_gram", spy)
    return shapes


@pytest.mark.parametrize(
    "p, weights",
    [(p, w) for p in (3, 7, 23, 31, 47) for w in ("uniform", "per-orbit")]
    + [pytest.param(p, "uniform", marks=pytest.mark.slow) for p in (71, 79)],
)
def test_choi_check_from_orbit_rows_matches_the_dense_rows(p, weights, monkeypatch):
    uf = _residue_unitaries(p)
    n = len(uf)
    shapes = spy_gram_shapes(monkeypatch)
    dec = umeb_decomposition(uf)
    w = np.array(dec.orbit_weights)
    if weights == "per-orbit":  # every member of orbit 0: still the orbit rows
        w[0] *= 1.5
    dec = MixedUnitaryDecomposition(orbit_weights=tuple(w), unitaries=uf)
    rep = verify_decomposition(dec, trials=0)
    monkeypatch.undo()
    # the decomposition counts the members and its check reads the bases' values: neither reads a Gram
    assert shapes == [] and n == (p + 1) // 2 * p
    # the oracle: the Choi matrix itself where it is small, else the whole Gram of the members
    oracle = (mixture_choi_dev if p <= 7 else gram_choi_dev)(dec.weights, member_stack(uf))
    assert rep.verdict == (oracle <= EPS * p * p) == (weights == "uniform")
    assert abs(rep.choi_dev - oracle) <= 1e-13
    if weights == "per-orbit":
        assert rep.choi_dev == pytest.approx(oracle, rel=1e-12)
    if weights == "uniform":
        assert rep.choi_dev <= 1e-15 * p * p


def test_a_pipeline_reads_the_unitary_gram_rows_once(monkeypatch):
    # the certificate reads the one Gram of the real projections, through their equiangular report,
    # and the decomposition and its check read none: no Gram of the unitaries is computed
    uf = _residue_unitaries(23)
    grams = []
    for module in (matcore, packing):
        cyclic_gram = module.cyclic_gram
        monkeypatch.setattr(module, "cyclic_gram", lambda bases, gram=cyclic_gram: grams.append(bases.values.dtype) or gram(bases))
    assert certify_umeb(uf).unextendible_verdict
    assert verify_decomposition(umeb_decomposition(uf), trials=20).verdict
    assert grams == [float]


@pytest.mark.parametrize("p", [3, 7, 23])
def test_a_family_of_the_right_count_that_does_not_span_fails_the_choi_check(p):
    # orbit 1 replaced by orbit 0: d(d+1)/2 members, so the uniform mixture is built, but they span
    # d fewer dimensions, which no Gershgorin disc proves (span rank 0); the decomposition counts
    # members only, and check (a) implies the span
    uf = _residue_unitaries(p)
    orbits = np.arange(len(uf.family.bases))
    orbits[1] = 0
    twice = _with_bases(uf, uf.family.bases.values[orbits])
    cert = certify_umeb(twice)
    assert (cert.span_rank, cert.symmetric_span, cert.unextendible_verdict) == (0, False, False)
    dec = umeb_decomposition(twice)
    assert dec.orbit_weights == (float(uniform_weight(p)),) * len(orbits)
    rep = verify_decomposition(dec, trials=20, seed=42)
    assert not rep.verdict
    # the mixture misses orbit 1 and weighs orbit 0 twice, two sets of d orthogonal members of
    # norm^2 d: |C_mix - C_target|_F = w d sqrt(2d) = 2 sqrt(2d)/(d+1), 1.22 / 0.935 / 0.565
    assert rep.choi_dev == pytest.approx(2 * math.sqrt(2 * p) / (p + 1), rel=1e-12)
    assert rep.choi_dev == pytest.approx(full_choi_dev(dec), rel=1e-12)
    assert rep.choi_dev > 1e5 * EPS * p * p
    # check (b) against the members applied one at a time: 0.57 / 0.21 / 0.070
    xs = [random_hermitian(p, 42 + i) for i in range(20)]
    oracle = max(np.max(np.abs(member_sum(dec.weights, twice.unitaries, x) - wh_plus_apply(x, p))) for x in xs)
    assert rep.apply_dev_max == pytest.approx(oracle, rel=1e-9)


def _nonsymmetric_member():
    def skew(bases):
        bases[0, 0, 1] += 1e-13  # projection base 0, and so every member of orbit 0
        return bases

    return umeb_decomposition(_edited(_unitaries(7), skew))  # within eps of symmetric, so still accepted


def _negative_weight(p=7):
    uf = _unitaries(p)
    w = np.array(umeb_decomposition(uf).orbit_weights)
    w[1] = -w[1]  # orbit 1
    return MixedUnitaryDecomposition(orbit_weights=tuple(w), unitaries=uf)


def _member_count():
    uf = _unitaries(7)
    part = _with_bases(uf, uf.family.bases.values[:3])  # 3 of the 4 orbits: 21 members
    return MixedUnitaryDecomposition(orbit_weights=(1 / 21,) * 3, unitaries=part)


def _random_members():
    """I - aB for random real d=5 bases B, neither unitary nor symmetric, so the members are not orthogonal:
    the distance depends on which members each orbit weight falls on, not only on the weights."""
    return MixedUnitaryDecomposition((0.1, 0.2, 0.3), _random_unitaries(_random_bases(5, 3, seed=59)))


@pytest.mark.parametrize(
    "build",
    [_nonsymmetric_member, _negative_weight, _member_count, _random_members]
    + [lambda p=p: _negative_weight(p) for p in (3, 23, 31)],
    ids=["_nonsymmetric_member", "_negative_weight", "_member_count", "random-members"]
    + [f"negative-weight-p{p}" for p in (3, 23, 31)],
)
def test_choi_check_falls_back_to_the_blocks(build):
    # decompositions outside the Gram identity: the same block sums, held to the whole Choi matrix
    dec = build()
    rep = verify_decomposition(dec, trials=0)
    assert "unitaries" not in dec.unitaries.__dict__  # the check leaves no dense view on the family
    # the kernel's sums against the whole d^2 x d^2 matrix; the non-symmetric member's distance is
    # 3.5e-14, and it agrees within 4e-19
    assert rep.choi_dev == pytest.approx(full_choi_dev(dec), rel=1e-12, abs=1e-17)
    assert rep.verdict == (build is _nonsymmetric_member)


def test_gram_passes_cover_the_last_row_block(monkeypatch):
    # the product c of the p=23 bases: each of the 12 rows counts its conjugated values and its
    # products, 22 + 12 entries (the 22 off-diagonal entries sit alone on their offsets), so a
    # budget of five such rows gives blocks of 5, 5 and 2, for the complex unitary bases as for
    # the real projection bases, which conj() does not copy
    uf = _residue_unitaries(23)
    matmul, blocks = np.matmul, []
    monkeypatch.setattr(np, "matmul", lambda a, b, **k: ("out" in k and blocks.append(len(a))) or matmul(a, b, **k))
    for bases in (uf.bases, uf.family.bases):
        monkeypatch.setattr(matcore, "_BLOCK_BYTES", 5 * (22 + 12) * bases.values.itemsize)
        matcore.cyclic_gram(bases)
        assert blocks == [5, 5, 2], bases.values.dtype
        blocks.clear()
    monkeypatch.setattr(np, "matmul", matmul)
    w = np.array(umeb_decomposition(uf).orbit_weights)
    w[-1] *= 1.5  # the last orbit
    dec = MixedUnitaryDecomposition(orbit_weights=tuple(w), unitaries=uf)
    assert verify_decomposition(dec, trials=0).choi_dev == pytest.approx(full_choi_dev(dec), rel=1e-12)
    # a longer last projection base shows on the last diagonal entries of G/d - I: tr(U* U) - d is
    # |a|^2 r (c^2 - c) there, for P scaled by c
    longer = _edited(uf, lambda bases: np.concatenate((bases[:-1], [bases[-1] * (1 + 1e-6)])))
    cert, oracle = certify_umeb(longer), dense_certificate(member_stack(longer))
    a2 = abs(1 - uf.z) ** 2
    assert oracle["cj_orthonormality_dev"] == pytest.approx(a2 * 11 * ((1 + 1e-6) ** 2 - (1 + 1e-6)) / 23, rel=1e-5)
    assert_bounds(cert, oracle)
    # the last two projection bases mixed show off the diagonal of the last row block
    def mix(bases):
        bases[-1] += 1e-3 * bases[-2]
        return bases

    mixed = _edited(uf, mix)
    cert, oracle = certify_umeb(mixed), dense_certificate(member_stack(mixed))
    assert oracle["max_orthogonality_dev"] > 1e-3 and oracle["cj_orthonormality_dev"] > 1e-4
    assert not cert.unextendible_verdict
    assert_bounds(cert, oracle)


SIGNED_WEIGHT_FAMILIES = {
    "icosahedron": lambda: _unitaries(3),
    "p7": lambda: _unitaries(7),
    "dense-d5": lambda: _random_unitaries(_random_bases(5, 3, seed=59)),  # neither unitary nor symmetric
}


@functools.cache
def _signed_weight_family(name):
    return SIGNED_WEIGHT_FAMILIES[name]()


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(list(SIGNED_WEIGHT_FAMILIES)),
    scale=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1.0]),
    data=st.data(),
)
def test_choi_check_is_the_dense_choi_distance_for_signed_orbit_weights(name, scale, data):
    # the uniform weights moved by `scale` times a random offset in [-1, 1] per orbit: at scale 1
    # the weights take either sign, and at the small scales the distance lies near eps * d^2
    uf = _signed_weight_family(name)
    offsets = data.draw(st.lists(st.floats(-1, 1), min_size=len(uf.bases), max_size=len(uf.bases)))
    dec = MixedUnitaryDecomposition(tuple(1 / len(uf) + scale * np.array(offsets)), uf)
    rep = verify_decomposition(dec, trials=0)
    oracle = mixture_choi_dev(dec.weights, member_stack(uf))
    # relative where the distance is above rounding; a distance at rounding level is compared absolutely
    assert rep.choi_dev == pytest.approx(oracle, rel=1e-12, abs=1e-14)
    assert rep.verdict == (oracle <= EPS * uf.d**2)


def test_a_decomposition_keeps_nothing_between_calls():
    dec = umeb_decomposition(p7_unitaries())
    assert verify_decomposition(dec, trials=3).verdict
    kernel_apply(dec, random_hermitian(7, seed=4)[None])
    assert dec.__dict__.keys() == {"orbit_weights", "unitaries"}


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_choi_fallback_holds_at_most_one_dense_stack():
    dec = _negative_weight(23)
    dense_bytes = len(dec.unitaries) * 23 * 23 * 16
    assert _traced_peak(lambda: verify_decomposition(dec, trials=2)) < 1.5 * dense_bytes


def test_the_choi_fallback_reads_the_kernel_blocks_one_at_a_time(monkeypatch):
    # p=79 with orbit 1's weight negated: the check holds one block of the (e, D, g) sums and the
    # terms, never the 3160 members (the dense stack is 315 MiB)
    p = 79
    dec = _negative_weight(p)
    uf = dec.unitaries
    reports = []
    peak = _traced_peak(lambda: reports.append(verify_decomposition(dec, trials=0)))
    assert peak <= 16 << 20
    # the uniform mixture is the channel, so the distance is that of the orbit's members counted
    # -w instead of w: 2 w |sum_x vec(U_1x) vec(U_1x)*|_F, whose square is d sum_x |tr(U_1x* U_10)|^2
    w = -dec.orbit_weights[1]
    members = orbit_stack(uf.bases.dense()[[1]]).reshape(p, -1)  # orbit 1 alone: 79 members
    overlaps = members.conj() @ members[0]
    expected = 2 * w * math.sqrt(p * np.vdot(overlaps, overlaps).real)
    assert reports[0].choi_dev == pytest.approx(expected, rel=1e-12) and not reports[0].verdict
    # one D per block gives the same sums
    monkeypatch.setattr(matcore, "_BLOCK_BYTES", p * p * 16)
    assert verify_decomposition(dec, trials=0).choi_dev == pytest.approx(reports[0].choi_dev, rel=1e-14)


def test_the_choi_check_of_a_certified_decomposition_reads_the_blocks_one_at_a_time():
    # the uniform p=79 mixture, the decomposition of every certified family: no trials, so no d^3
    # array, and the same traced bound as with a negated weight
    dec = umeb_decomposition(_residue_unitaries(79))
    reports = []
    peak = _traced_peak(lambda: reports.append(verify_decomposition(dec, trials=0)))
    assert peak <= 16 << 20
    assert reports[0].verdict and reports[0].choi_dev <= 1e-15 * 79 * 79


def test_orbit_kernel_passes_stay_inside_the_byte_budget(p23_decomposition, monkeypatch):
    dec = p23_decomposition
    expected = verify_decomposition(dec, trials=12)
    # check (b) draws five complex 23 x 23 inputs per budget, so the twelve trials go in
    # batches of 5, 5 and 2, and each batch goes through the kernel in one pass
    monkeypatch.setattr(matcore, "_BLOCK_BYTES", 5 * 23 * 23 * 16)
    reports = []
    peak = _traced_peak(lambda: reports.append(verify_decomposition(dec, trials=12)))
    assert reports[0].verdict and abs(reports[0].apply_dev_max - expected.apply_dev_max) <= 1e-15
    # beside the d^3 kernel, the call's workspace holds one batch's inputs and the two arrays
    # the kernel pass works in, three budgets; a batch adds its gathered diagonals, the
    # formula's outputs and the DFT tables, and the kernel build one block and its terms:
    # under seven budgets (5.9 measured).  The twelve in one pass would take ten
    assert peak - 23**3 * 16 <= 7 * matcore._BLOCK_BYTES


# builds the p=47 decomposition, makes 5 warm-up calls, then prints the minor page faults per
# call over 20 more calls
FAULTS_PER_CALL = """
import resource
from umebkit.channels import umeb_decomposition, verify_decomposition
from umebkit.hadamard import construct
from umebkit.numth import validate_prime
from umebkit.packing import build_residue_family
from umebkit.umeb import build_unitaries, compute_phase

dec = umeb_decomposition(build_unitaries(build_residue_family(validate_prime(47), construct(24)), compute_phase(47, 23)))
for _ in range(5):
    verify_decomposition(dec, trials=20)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    assert verify_decomposition(dec, trials=20).verdict
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="counts the minor page faults (ru_minflt) of glibc's allocator, which reuses the workspace's memory; "
    "other systems count and allocate differently",
)
def test_check_b_reuses_its_memory_from_call_to_call():
    # a fresh process, so no earlier test has moved the allocator's thresholds: after the warm-up
    # each call gets back the memory of the call before and faults no new page (0 measured); lhat
    # and each batch's arrays made on their own faulted about 1,600 pages a call
    src = str(Path(channels.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", FAULTS_PER_CALL], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert float(run.stdout) <= 50


def orbit_kernel(dec, dft=None):
    """The kernel transformed over the row index, lhat, that verify_decomposition builds."""
    d = dec.unitaries.d
    lhat = np.empty((d, d, d), dtype=complex)
    channels._kernel(np.asarray(dec.orbit_weights), dec.unitaries, matcore._dft(d) if dft is None else dft, lhat)
    return lhat


def test_orbit_kernel_build_holds_at_most_two_cubes():
    uf = _residue_unitaries(31)
    dec = MixedUnitaryDecomposition(orbit_weights=(float(uniform_weight(31)),) * len(uf.bases), unitaries=uf)
    d, orbits = 31, len(uf.bases)
    dft = matcore._dft(d)  # made once by the caller, as verify_decomposition does
    kernel = []
    peak = _traced_peak(lambda: kernel.append(orbit_kernel(dec, dft)))
    assert kernel[0].shape == (d, d, d)
    # beyond the kernel the build holds one block buffer of at most d^3 entries and the terms
    # of the bases' union support, a few arrays of (2d)^2 entries; T d^2 entries more are
    # allowed, but a third d^3 array would not fit (at p=31, T d^2 is about d^3 / 2)
    assert peak - kernel[0].nbytes <= (d**3 + orbits * d * d) * 16


def test_orbit_kernel_build_holds_one_block_beyond_its_terms(monkeypatch):
    d = 31
    uf = _residue_unitaries(d)
    w = (float(uniform_weight(d)),) * len(uf.bases)
    expected = orbit_kernel(MixedUnitaryDecomposition(w, uf))
    on = uf.bases.dense().any(axis=0)  # the union support
    assert on.sum() == 2 * d - 1 and on.sum(axis=1).max() == 2  # the diagonal and each row's partner
    terms = (2 * d) ** 2  # s = 2 entries a row, every pair of them
    # 11 D per block: blocks of 11, 11 and 9 D, each buffer (165 KiB) larger than the slack
    # the bound leaves beyond one of them, so a second buffer alive at once does not fit
    monkeypatch.setattr(matcore, "_BLOCK_BYTES", 11 * d * d * 16)
    dec = MixedUnitaryDecomposition(w, uf)
    dft = matcore._dft(d)
    kernel = []
    peak = _traced_peak(lambda: kernel.append(orbit_kernel(dec, dft)))
    assert np.max(np.abs(kernel[0] - expected)) <= 1e-13
    # beyond the kernel: one block's buffer, and the terms with the DFT matrix and the gathered
    # entries, less than four complex arrays of `terms` entries (3.24 measured).  A block buffer
    # kept until the next one is made (6.0 measured), the d^3 buffer of one block for all D
    # (476 KiB) or a T d^2 gather of the bases (246 KiB) would not fit
    assert peak - kernel[0].nbytes <= matcore._BLOCK_BYTES + 4 * terms * 16


def _random_bases(d, orbits, seed):
    """Random real d x d bases, no projections; whole orbits of their shifts make a family's members."""
    return np.random.default_rng(seed).normal(size=(orbits, d, d))


def _random_unitaries(bases):
    """The members I - aB of real d x d bases B, a = 1 - z non-real at z = compute_phase(d, d // 2): neither unitary nor symmetric."""
    d = bases.shape[-1]
    return build_unitaries(ProjectionFamily(d, d // 2, support_stack(bases, d), Fraction(0)), compute_phase(d, d // 2))


def _unequal_row_support():
    """d=7: row a supports offset 0 and its min(a, 3) largest offsets, 1 to 4 entries a row, so
    the short rows are padded; base 0 leaves row 3 empty, so the union is wider than one base."""
    d = 7
    a = np.arange(d)
    in_row = (a == 0) | (a >= d - np.minimum(a, 3)[:, None])  # in_row[a, e]
    support = np.zeros((d, d), dtype=bool)
    support[a[:, None], (a[:, None] + a) % d] = in_row
    bases = _random_bases(d, 3, seed=61) * support
    bases[0, 3] = 0
    return _random_unitaries(bases)


KERNEL_CASES = {
    7: lambda: _residue_unitaries(7),
    23: lambda: _residue_unitaries(23),
    47: lambda: _residue_unitaries(47),
    "dense": lambda: _random_unitaries(_random_bases(5, 3, seed=59)),  # every entry: s = d
    "unequal-row-support": _unequal_row_support,
}


@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_orbit_kernel_is_the_row_transform_of_the_member_sum(case):
    uf = KERNEL_CASES[case]()
    p = uf.d
    w = np.full(len(uf.bases), float(uniform_weight(p)))
    w[0] *= 1.5  # orbit 0 weighs more: the kernel holds one weight per orbit
    dec = MixedUnitaryDecomposition(orbit_weights=tuple(w), unitaries=uf)
    a = np.arange(p)
    u = uf.bases.dense()
    # K[D, e, f] = sum_t w_t sum_a U_t[a, a + e] conj(U_t[a + D, a + f]), summed as written
    first = u[:, a[:, None], (a[:, None] + a) % p]
    second = u[:, (a[:, None, None] + a[:, None]) % p, (a[:, None, None] + a) % p]
    kernel = np.einsum("t,tae,tadf->def", w, first, second.conj())
    # L[D, e, g] = K[D, e, e + g], transformed over e with zeta = exp(2 pi i / p)
    rows = kernel[:, a[:, None], (a[:, None] + a) % p]
    lhat = np.einsum("ke,deg->kdg", np.exp(2j * np.pi / p * (np.outer(a, a) % p)), rows)
    kernel = orbit_kernel(dec)
    assert kernel.shape == (p, p, p)
    assert np.max(np.abs(kernel - lhat)) <= 1e-13
    xs = _inputs(p, seed=600)
    out = kernel_apply(dec, xs)
    loop = member_sum(dec.weights, uf.unitaries, xs)
    for x, y, z in zip(xs, out, loop):
        assert np.max(np.abs(kernel_apply(dec, x[None])[0] - y)) <= 1e-13
        assert np.max(np.abs(y - z)) <= 1e-13


def _nan_weights():
    uf = _residue_unitaries(7)
    return MixedUnitaryDecomposition((math.nan,) * 4, uf)


def _nonfinite_base_entry(value):
    def build():
        def edit(bases):
            bases[2, 1, 3] = value  # of projection base 2, so of every unitary of orbit 2
            return bases

        return MixedUnitaryDecomposition((1 / 28,) * 4, _edited(_residue_unitaries(7), edit))

    return build


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "build",
    [_nan_weights, _nonfinite_base_entry(math.nan), _nonfinite_base_entry(math.inf)],
    ids=["nan-weights", "nan-base-entry", "inf-base-entry"],
)
def test_a_deviation_that_is_not_finite_fails_the_random_input_check(build, monkeypatch):
    dec = build()
    kernel = channels._kernel

    def passing_choi_check(*args):  # check (a) passes, so (b) alone decides
        kernel(*args)
        return 0.0

    monkeypatch.setattr(channels, "_kernel", passing_choi_check)
    ran = spy_kernel_applies(monkeypatch)
    rep = verify_decomposition(dec, trials=3)
    assert ran == ["_apply_by_kernel"]
    assert rep.choi_dev == 0.0
    assert not math.isfinite(rep.apply_dev_max)
    assert not rep.verdict


def _all_reports(p):
    fam = icosahedron_lines() if p == 3 else build_residue_family(validate_prime(p), construct((p + 1) // 2))
    uf = build_unitaries(fam, compute_phase(p, fam.r))
    reports = verify_equiangular(fam), certify_umeb(uf), verify_decomposition(umeb_decomposition(uf))
    return [asdict(report) for report in reports]


@pytest.mark.parametrize("p", [3, 7, 23])  # 3: the icosahedron
def test_reports_do_not_depend_on_the_block_budget(p, monkeypatch):
    default = _all_reports(p)
    monkeypatch.setattr(matcore, "_BLOCK_BYTES", 1)  # one item per block in every pass
    # a raw trace of d x d matrices rounds at d times the scale of the other deviations
    scale = {"max_orthogonality_dev": p}
    for by_default, by_item in zip(default, _all_reports(p), strict=True):
        assert by_default.keys() == by_item.keys()
        for field, value in by_default.items():
            if isinstance(value, float):
                assert abs(by_item[field] - value) <= 1e-15 * scale.get(field, 1), field
            else:
                assert by_item[field] == value, field


def _inputs(d, seed):
    xs = np.array([random_hermitian(d, seed + t) for t in range(3)])
    xs[1] = xs[1] @ xs[2]  # one input that is not Hermitian
    return xs


@pytest.mark.parametrize(
    "p", [3, 7, 23, 31, 47, pytest.param(71, marks=pytest.mark.slow), pytest.param(79, marks=pytest.mark.slow)]
)
def test_orbit_kernel_matches_the_member_sum(p, monkeypatch):
    uf = _residue_unitaries(p)
    dec = MixedUnitaryDecomposition(orbit_weights=(float(uniform_weight(p)),) * len(uf.bases), unitaries=uf)
    xs = _inputs(p, seed=700)
    trials = 2 if p > 47 else 6
    ran = spy_kernel_applies(monkeypatch)
    out, rep = kernel_apply(dec, xs), verify_decomposition(dec, trials=trials, seed=11)
    assert ran == ["_apply_by_kernel"] * 2
    assert np.max(np.abs(out - member_sum(dec.weights, uf.unitaries, xs))) <= 1e-13 * np.max(np.abs(xs))
    # check (b) of the member sum: the same seeded inputs against the formula
    trial_xs = np.array([random_hermitian(p, 11 + t) for t in range(trials)])
    dense_dev = np.max(np.abs(member_sum(dec.weights, uf.unitaries, trial_xs) - wh_plus_apply(trial_xs, p)))
    assert rep.verdict
    assert rep.apply_dev_max <= 1e-14 and dense_dev <= 1e-13


def _tilted(uf, by=1e-12):
    """The uniform mixture over uf with the weights of orbits 0 and 1 moved apart by `by`."""
    w = np.full(len(uf.bases), 1 / len(uf))
    w[0] += by
    w[1] -= by
    return MixedUnitaryDecomposition(tuple(w), uf)


def _perturbed_entry():
    def edit(bases):
        bases[-1, 2, 4] += 1e-12  # the last projection base, and so every member of the last orbit
        return bases

    return _tilted(_edited(_residue_unitaries(7), edit))


def _part_of_the_orbits():
    uf = _residue_unitaries(7)
    return _tilted(_with_bases(uf, uf.family.bases.values[:3]))  # 3 of the 4 orbits: 21 members


# every mixture has one weight per orbit and goes through the orbit kernel: weights 1e-12 apart
# are within eps, where the mixture should still pass
@pytest.mark.parametrize(
    "build, passes",
    [
        (lambda: _tilted(_unitaries(3)), True),  # the icosahedron
        (_perturbed_entry, True),
        (lambda: _tilted(_residue_unitaries(7), by=0.01), False),
        (_part_of_the_orbits, False),
    ],
    ids=["icosahedron", "perturbed-entry", "tilted-orbits", "three-of-four-orbits"],
)
def test_the_orbit_kernel_applies_every_mixture(build, passes, monkeypatch):
    dec = build()
    xs = _inputs(dec.unitaries.d, seed=800)
    ran = spy_kernel_applies(monkeypatch)
    out, rep = kernel_apply(dec, xs), verify_decomposition(dec, trials=6, seed=5)
    assert ran == ["_apply_by_kernel"] * 2
    assert np.max(np.abs(out - member_sum(dec.weights, dec.unitaries.unitaries, xs))) < 1e-13
    assert rep.verdict == passes

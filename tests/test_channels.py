import math
import tracemalloc
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

from umebkit import channels, matcore, umeb
from umebkit.channels import (
    MixedUnitaryDecomposition,
    apply_decomposition,
    choi_of_channel,
    choi_rank,
    random_hermitian,
    swap_matrix,
    umeb_decomposition,
    uniform_weight,
    verify_decomposition,
    wh_plus_apply,
)
from umebkit.errors import NotCertified, NotSquare, OutOfRange, ShapeMismatch
from umebkit.hadamard import construct
from umebkit.matcore import cj_vectorize
from umebkit.numth import validate_prime
from umebkit.packing import build_residue_family, icosahedron_lines, verify_equiangular
from umebkit.umeb import UnitaryFamily, build_unitaries, certify_umeb, compute_phase

EPS = 1e-9


def p7_unitaries():
    fam = build_residue_family(validate_prime(7), construct(4))
    return build_unitaries(fam, compute_phase(7, 3))


@pytest.fixture(scope="module")
def p23_decomposition():
    fam = build_residue_family(validate_prime(23), construct(12))
    return umeb_decomposition(build_unitaries(fam, compute_phase(23, 11)))


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
    vec = cj_vectorize(np.eye(2)) * math.sqrt(2)
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


def test_uniform_weight_exact():
    assert uniform_weight(7) == Fraction(1, 28)
    assert uniform_weight(3) == Fraction(1, 6)
    for d in (3, 7, 23):
        assert uniform_weight(d) * (d * (d + 1) // 2) == 1


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
    truncated = UnitaryFamily(d=7, z=uf.z, bases=uf.unitaries[:27], source=None)
    with pytest.raises(NotCertified):
        umeb_decomposition(truncated)
    # spans the symmetric matrices, but 29 weights 1/28 do not sum to 1
    members = np.concatenate((uf.unitaries, uf.unitaries[:1]))
    duplicated = UnitaryFamily(d=7, z=uf.z, bases=members, source=None)
    with pytest.raises(NotCertified):
        umeb_decomposition(duplicated)


def test_decomposition_keeps_its_own_weights():
    # the orbit kernel is cached from the weights, so a caller's list must not reach them
    dec = umeb_decomposition(p7_unitaries())
    weights = list(dec.weights)
    mine = MixedUnitaryDecomposition(weights=weights, unitaries=dec.unitaries)
    x = random_hermitian(7, seed=3)
    before = apply_decomposition(mine, x)
    weights[0] = 0.5
    assert mine.weights == dec.weights
    assert np.array_equal(apply_decomposition(mine, x), before)


def test_verify_decomposition_p7():
    rep = verify_decomposition(umeb_decomposition(p7_unitaries()), trials=20, seed=42)
    assert rep.verdict
    assert rep.choi_dev <= 1e-8
    assert rep.apply_dev_max <= 1e-9
    assert (rep.trials, rep.seed) == (20, 42)


def test_verify_decomposition_identity_input():
    dec = umeb_decomposition(p7_unitaries())
    out = apply_decomposition(dec, np.eye(7))
    assert np.max(np.abs(out - np.eye(7))) < EPS
    assert np.max(np.abs(wh_plus_apply(np.eye(7), 7) - np.eye(7))) < EPS


def test_verify_decomposition_perturbed_weights_fail():
    dec = umeb_decomposition(p7_unitaries())
    w = np.array(dec.weights)
    w[0] += 0.01
    w /= w.sum()
    bad = MixedUnitaryDecomposition(weights=tuple(w), unitaries=dec.unitaries)
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
        lhs = apply_decomposition(dec, x)
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
    for weights in (dec.weights[:-1], dec.weights + dec.weights[:1], dec.weights[:1]):
        short = MixedUnitaryDecomposition(weights=weights, unitaries=dec.unitaries)
        with pytest.raises(ShapeMismatch):
            verify_decomposition(short)
        with pytest.raises(ShapeMismatch):
            apply_decomposition(short, np.eye(7))
    with pytest.raises(ShapeMismatch):
        apply_decomposition(dec, np.eye(6))
    rep = verify_decomposition(dec, trials=0)
    assert rep.verdict and (rep.trials, rep.apply_dev_max) == (0, 0.0)


def test_apply_decomposition_stack_is_the_per_input_sum(p23_decomposition, monkeypatch):
    dec = p23_decomposition
    xs = np.array([random_hermitian(23, seed=900 + t) for t in range(20)])
    xs[3] = xs[3] @ xs[5]  # one input that is not Hermitian
    # five bases, 115 members, per block of the member-by-member path: 12 bases end in a partial block
    monkeypatch.setattr(matcore, "_BLOCK_BYTES", 5 * 23 * xs.nbytes)
    out = apply_decomposition(dec, xs)  # through the orbit kernel
    by_members = channels._apply_by_members(np.array(dec.weights), dec.unitaries, xs)
    assert out.shape == by_members.shape == xs.shape
    for x, y, z in zip(xs, out, by_members):
        loop = sum(w * (u @ x @ u.conj().T) for w, u in zip(dec.weights, dec.unitaries.unitaries))
        assert np.max(np.abs(y - loop)) < 1e-13
        assert np.max(np.abs(z - loop)) < 1e-13
    assert np.max(np.abs(apply_decomposition(dec, xs[7]) - out[7])) < 1e-13


def test_verify_decomposition_fails_on_the_last_weight(p23_decomposition):
    dec = p23_decomposition
    assert verify_decomposition(dec).verdict
    w = np.array(dec.weights)
    w[-1] *= 1.5
    rep = verify_decomposition(MixedUnitaryDecomposition(weights=tuple(w), unitaries=dec.unitaries))
    assert not rep.verdict
    assert rep.choi_dev > EPS * 23 * 23
    assert rep.apply_dev_max > 1e-4
    # the whole 529 x 529 Choi matrix, as sum_j w_j vec(U_j) vec(U_j)*
    flat = np.array([u.flatten(order="F") for u in dec.unitaries.unitaries])
    choi = (w[:, None] * flat).T @ flat.conj()
    target = (np.eye(23 * 23) + swap_matrix(23)) / 24
    assert rep.choi_dev == pytest.approx(np.linalg.norm(choi - target), rel=1e-9)


def test_verify_decomposition_checks_the_last_batch_of_trials(monkeypatch):
    monkeypatch.setattr(matcore, "_BLOCK_BYTES", 64 * 16 * 3 * 3)  # 64 complex 3 x 3 inputs
    uf = build_unitaries(icosahedron_lines(), compute_phase(3, 1))
    w = np.full(6, 1 / 6)
    w[0] += 0.05
    bad = MixedUnitaryDecomposition(weights=tuple(w / w.sum()), unitaries=uf)

    def dev(seed):
        x = random_hermitian(3, seed)
        loop = sum(wj * (u @ x @ u.conj().T) for wj, u in zip(bad.weights, uf.unitaries))
        return np.max(np.abs(loop - wh_plus_apply(x, 3)))

    devs = [dev(s) for s in range(400)]
    batch = matcore._BLOCK_BYTES // (16 * 3 * 3)
    # a seed whose last input, alone in the second batch, deviates most
    seed = next(s for s in range(400 - batch) if devs[s + batch] > max(devs[s : s + batch]))
    rep = verify_decomposition(bad, trials=batch + 1, seed=seed)
    assert rep.apply_dev_max == pytest.approx(devs[seed + batch], rel=1e-9)


def _residue_unitaries(p):
    fam = build_residue_family(validate_prime(p), construct((p + 1) // 2))
    return build_unitaries(fam, compute_phase(p, (p - 1) // 2))


def _unitaries(p):
    if p == 3:
        return build_unitaries(icosahedron_lines(), compute_phase(3, 1))
    return _residue_unitaries(p)


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


def spy_choi_paths(monkeypatch):
    """Record which Choi path verify_decomposition takes."""
    return spy_paths(monkeypatch, ("_choi_dev_from_gram", "_choi_dev_by_blocks"))


def spy_apply_paths(monkeypatch):
    """Record which path apply_decomposition takes, once per call."""
    return spy_paths(monkeypatch, ("_apply_by_kernel", "_apply_by_members"))


# "icosahedron" is d=3 from the six icosahedron lines; "p3" is the residue family
CHOI_FAMILIES = {
    "icosahedron": lambda: _unitaries(3),
    "p3": lambda: _residue_unitaries(3),
    "p7": lambda: _unitaries(7),
    "p23": lambda: _unitaries(23),
    "p31": lambda: _unitaries(31),
    "p47": lambda: _unitaries(47),
}


@pytest.mark.parametrize("weights", ["uniform", "perturbed"])
@pytest.mark.parametrize(
    "name", [pytest.param(n, marks=pytest.mark.slow) if n == "p47" else n for n in CHOI_FAMILIES]
)
def test_choi_check_from_the_gram_is_the_block_sum(name, weights, monkeypatch):
    dec = umeb_decomposition(CHOI_FAMILIES[name]())
    w = np.array(dec.weights)
    if weights == "perturbed":  # still >= 0 and equal within each orbit, so the Gram path applies
        size = dec.unitaries.shifts
        w[-size:] *= 1.5
        w[size : 2 * size] *= 0.2
        dec = MixedUnitaryDecomposition(weights=tuple(w), unitaries=dec.unitaries)
    ran = spy_choi_paths(monkeypatch)
    rep = verify_decomposition(dec, trials=0)
    monkeypatch.undo()
    assert ran == ["_choi_dev_from_gram"]
    blocks = channels._choi_dev_by_blocks(w, dec.unitaries)
    assert rep.choi_dev == pytest.approx(blocks, rel=1e-12, abs=1e-14)
    if dec.unitaries.d <= 23:
        assert rep.choi_dev == pytest.approx(full_choi_dev(dec), rel=1e-12, abs=1e-14)
    assert rep.verdict == (weights == "uniform")


def dense(uf):
    """The dense twin of a family: its members as bases with shifts = 1, the oracle that reads every Gram row."""
    return UnitaryFamily(d=uf.d, z=uf.z, bases=uf.unitaries)


def spy_gram_shapes(monkeypatch):
    """Record the shape of every Gram, or block of Gram rows, that a family computes."""
    shapes = []
    gram_matrix = umeb.gram_matrix

    def spy(*args, **kwargs):
        gram = gram_matrix(*args, **kwargs)
        shapes.append(gram.shape)
        return gram

    monkeypatch.setattr(umeb, "gram_matrix", spy)
    return shapes


@pytest.mark.parametrize(
    "p, weights",
    [(p, w) for p in (3, 7, 23, 31, 47) for w in ("uniform", "per-orbit", "inside-an-orbit")]
    + [pytest.param(p, "uniform", marks=pytest.mark.slow) for p in (71, 79)],
)
def test_choi_check_from_orbit_rows_matches_the_dense_rows(p, weights, monkeypatch):
    uf = _residue_unitaries(p)
    n = len(uf)
    ran = spy_choi_paths(monkeypatch)
    shapes = spy_gram_shapes(monkeypatch)
    dec = umeb_decomposition(uf)
    w = np.array(dec.weights)
    if weights == "per-orbit":  # every member of orbit 0: still the orbit rows
        w[:p] *= 1.5
    if weights == "inside-an-orbit":  # shifts 1 and 2 of orbit 0: the d-row blocks
        w[1] *= 1.5
        w[2] *= 0.5
    dec = MixedUnitaryDecomposition(weights=tuple(w), unitaries=uf)
    rep = verify_decomposition(dec, trials=0)
    oracle = verify_decomposition(MixedUnitaryDecomposition(dec.weights, dense(uf)), trials=0)
    monkeypatch.undo()
    inside = weights == "inside-an-orbit"
    assert ran == ["_choi_dev_by_blocks" if inside else "_choi_dev_from_gram", "_choi_dev_from_gram"]
    assert uf.shifts == p
    # the orbit rows once, for the decomposition and its check; the whole Gram for the oracle
    assert shapes == [((p + 1) // 2, n), (n, n)]
    assert rep.verdict == oracle.verdict == (weights == "uniform")
    assert abs(rep.choi_dev - oracle.choi_dev) <= 1e-13
    if weights == "per-orbit":
        assert rep.choi_dev == pytest.approx(channels._choi_dev_by_blocks(w, uf), rel=1e-12)
    if weights == "uniform":
        assert rep.choi_dev <= 1e-15 * p * p


def test_a_pipeline_reads_the_unitary_gram_rows_once(monkeypatch):
    uf = _residue_unitaries(23)
    calls = []
    gram_row_stats = umeb.gram_row_stats
    monkeypatch.setattr(umeb, "gram_row_stats", lambda rows, shifts: calls.append(rows) or gram_row_stats(rows, shifts))
    assert certify_umeb(uf).unextendible_verdict
    assert verify_decomposition(umeb_decomposition(uf), trials=20).verdict
    # the discs, the certificate, the decomposition's precondition and check (a) read one pass
    assert len(calls) == 1 and calls[0] is uf.gram_rows


def _nonsymmetric_member():
    members = np.array(_unitaries(7).unitaries)
    members[0, 0, 1] += 1e-13
    uf = UnitaryFamily(d=7, z=compute_phase(7, 3), bases=members)
    return umeb_decomposition(uf)  # within eps of symmetric, so still accepted


def _negative_weight():
    dec = umeb_decomposition(_unitaries(7))
    w = np.array(dec.weights)
    w[2] = -w[2]
    return MixedUnitaryDecomposition(weights=tuple(w), unitaries=dec.unitaries)


def _member_count():
    uf = _unitaries(7)
    part = UnitaryFamily(d=7, z=uf.z, bases=uf.unitaries[:27])
    return MixedUnitaryDecomposition(weights=(1 / 27,) * 27, unitaries=part)


@pytest.mark.parametrize("build", [_nonsymmetric_member, _negative_weight, _member_count])
def test_choi_check_falls_back_to_the_blocks(build, monkeypatch):
    dec = build()
    ran = spy_choi_paths(monkeypatch)
    rep = verify_decomposition(dec, trials=0)
    assert ran == ["_choi_dev_by_blocks"]
    assert rep.choi_dev == pytest.approx(full_choi_dev(dec), rel=1e-9, abs=1e-14)
    assert rep.verdict == (build is _nonsymmetric_member)


def test_gram_passes_cover_the_last_row_block(p23_decomposition, monkeypatch):
    # the dense twin's 276 rows at p=23: blocks of 100 complex Gram rows in the passes
    # over the Gram (100 + 100 + 76), and of 34 in gram_matrix, which also counts each
    # row's conjugated member (8 * 34 + 4)
    monkeypatch.setattr(matcore, "_BLOCK_BYTES", 100 * 276 * 16)
    uf = dense(p23_decomposition.unitaries)
    w = np.array(p23_decomposition.weights)
    w[-1] *= 1.5
    dec = MixedUnitaryDecomposition(weights=tuple(w), unitaries=uf)
    assert verify_decomposition(dec, trials=0).choi_dev == pytest.approx(full_choi_dev(dec), rel=1e-12)
    # a longer last member shows only on the last diagonal entry of G/d - I
    longer = np.concatenate((uf.unitaries[:-1], [uf.unitaries[-1] * (1 + 1e-6)]))
    cert = certify_umeb(UnitaryFamily(d=23, z=uf.z, bases=longer))
    assert cert.cj_orthonormality_dev == pytest.approx(2e-6, rel=1e-5)
    # the last two members mixed show only off the diagonal of the last row block
    mixed = np.array(uf.unitaries)
    mixed[-1] += 1e-3 * mixed[-2]
    cert = certify_umeb(UnitaryFamily(d=23, z=uf.z, bases=mixed))
    assert cert.max_orthogonality_dev == pytest.approx(1e-3 * 23, rel=1e-9)
    assert cert.cj_orthonormality_dev == pytest.approx(1e-3, rel=1e-9)


def _weights_inside_orbit_zero(uf):
    w = np.array(umeb_decomposition(uf).weights)
    w[1] *= 1.5  # shifts 1 and 2 of orbit 0: the d-row blocks and the member-by-member path
    w[2] *= 0.5
    return MixedUnitaryDecomposition(weights=tuple(w), unitaries=uf)


@pytest.mark.parametrize("p", [7, 23])
def test_weights_inside_an_orbit_leave_no_dense_view_on_the_family(p, monkeypatch):
    uf = _residue_unitaries(p)
    dec = _weights_inside_orbit_zero(uf)
    ran = spy_paths(monkeypatch, ("_choi_dev_by_blocks", "_apply_by_members"))
    rep = verify_decomposition(dec, trials=3, seed=21)
    assert ran == ["_choi_dev_by_blocks", "_apply_by_members"]
    assert "unitaries" not in uf.__dict__
    assert not rep.verdict
    # the oracles read the dense view: the whole Choi matrix and the sum over the members
    assert abs(rep.choi_dev - full_choi_dev(dec)) <= 1e-13
    devs = []
    for seed in (21, 22, 23):
        x = random_hermitian(p, seed)
        loop = sum(w * (u @ x @ u.conj().T) for w, u in zip(dec.weights, uf.unitaries))
        devs.append(np.max(np.abs(loop - wh_plus_apply(x, p))))
    assert abs(rep.apply_dev_max - max(devs)) <= 1e-13


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_weights_inside_an_orbit_hold_at_most_one_dense_stack(monkeypatch):
    uf = _residue_unitaries(23)
    dense_bytes = len(uf) * 23 * 23 * 16
    dec = _weights_inside_orbit_zero(uf)
    monkeypatch.setattr(matcore, "_BLOCK_BYTES", 64 << 10)  # a base's 23 shifts are 195 KiB: one base per block
    assert _traced_peak(lambda: verify_decomposition(dec, trials=2)) < 1.5 * dense_bytes


def test_orbit_kernel_passes_stay_inside_the_byte_budget(p23_decomposition, monkeypatch):
    dec = p23_decomposition
    dec._orbit_kernel  # built and kept before the trace
    xs = np.array([random_hermitian(23, seed=40 + t) for t in range(12)])
    expected = apply_decomposition(dec, xs)
    # a block holds at most two arrays of d^2 entries per input: five inputs per budget,
    # so the twelve inputs go in blocks of 5, 5 and 2
    monkeypatch.setattr(matcore, "_BLOCK_BYTES", 5 * 2 * 23 * 23 * 16)
    out = []
    peak = _traced_peak(lambda: out.append(apply_decomposition(dec, xs)))
    assert np.max(np.abs(out[0] - expected)) <= 1e-13
    # beyond the output: one budget for a block, and the DFT matrix, its inverse and the
    # flat index, 3 d^2 entries (the twelve inputs in one block would be 2.7 budgets)
    assert peak - out[0].nbytes <= 2 * matcore._BLOCK_BYTES


def test_orbit_kernel_build_holds_at_most_two_cubes():
    uf = _residue_unitaries(31)
    dec = MixedUnitaryDecomposition(weights=(float(uniform_weight(31)),) * len(uf), unitaries=uf)
    d, orbits = 31, len(uf.bases)
    kernel = []
    peak = _traced_peak(lambda: kernel.append(dec._orbit_kernel))
    assert kernel[0].shape == (d, d, d)
    # beyond the kernel: one more d^3 array (M's buffer, reused for L) and the DFTs of the
    # bases' diagonals, T d^2 entries each; a third d^3 array, such as a wrapped copy of C,
    # would not fit (at p=31, T d^2 is about d^3 / 2)
    assert peak - kernel[0].nbytes <= (d**3 + orbits * d * d) * 16


@pytest.mark.parametrize("p", [7, 23])
def test_orbit_kernel_is_the_row_transform_of_the_member_sum(p):
    uf = _residue_unitaries(p)
    w = np.full(len(uf), float(uniform_weight(p)))
    w[:p] *= 1.5  # orbit 0 weighs more: the kernel holds one weight per orbit
    dec = MixedUnitaryDecomposition(weights=tuple(w), unitaries=uf)
    a = np.arange(p)
    u = uf.bases
    # K[D, e, f] = sum_t w_t sum_a U_t[a, a + e] conj(U_t[a + D, a + f]), summed as written
    first = u[:, a[:, None], (a[:, None] + a) % p]
    second = u[:, (a[:, None, None] + a[:, None]) % p, (a[:, None, None] + a) % p]
    kernel = np.einsum("t,tae,tadf->def", w[::p], first, second.conj())
    # L[D, e, g] = K[D, e, e + g], transformed over e with zeta = exp(2 pi i / p)
    rows = kernel[:, a[:, None], (a[:, None] + a) % p]
    lhat = np.einsum("ke,deg->kdg", np.exp(2j * np.pi / p * (np.outer(a, a) % p)), rows)
    assert dec._orbit_kernel.shape == (p, p, p) and not dec._orbit_kernel.flags.writeable
    assert np.max(np.abs(dec._orbit_kernel - lhat)) <= 1e-13
    xs = _inputs(p, seed=600)
    out = apply_decomposition(dec, xs)
    for x, y in zip(xs, out):
        assert np.max(np.abs(apply_decomposition(dec, x) - y)) <= 1e-13
        loop = sum(wj * (m @ x @ m.conj().T) for wj, m in zip(w, uf.unitaries))
        assert np.max(np.abs(y - loop)) <= 1e-13


def _nan_weights():
    uf = _residue_unitaries(7)
    return MixedUnitaryDecomposition((math.nan,) * 28, uf)


def _nonfinite_base_entry(value):
    def build():
        uf = _residue_unitaries(7)
        bases = np.array(uf.bases)
        bases[2, 1, 3] = value
        return MixedUnitaryDecomposition((1 / 28,) * 28, UnitaryFamily(7, uf.z, bases, shifts=7))

    return build


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "build, path",
    [
        (_nan_weights, "_apply_by_members"),
        (_nonfinite_base_entry(math.nan), "_apply_by_kernel"),
        (_nonfinite_base_entry(math.inf), "_apply_by_kernel"),
    ],
    ids=["nan-weights", "nan-base-entry", "inf-base-entry"],
)
def test_a_deviation_that_is_not_finite_fails_the_random_input_check(build, path, monkeypatch):
    dec = build()
    for name in ("_choi_dev_from_gram", "_choi_dev_by_blocks"):  # check (a) passes, so (b) alone decides
        monkeypatch.setattr(channels, name, lambda w, uf: 0.0)
    ran = spy_apply_paths(monkeypatch)
    rep = verify_decomposition(dec, trials=3)
    assert ran == [path]
    assert rep.choi_dev == 0.0
    assert not math.isfinite(rep.apply_dev_max)
    assert not rep.verdict


def _all_reports(p):
    uf = _unitaries(p)
    reports = verify_equiangular(uf.source), certify_umeb(uf), verify_decomposition(umeb_decomposition(uf))
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


def _member_by_member(dec):
    """The same mixture with its orbit kernel switched off: the dense oracle."""
    oracle = MixedUnitaryDecomposition(weights=dec.weights, unitaries=dec.unitaries)
    oracle.__dict__["_orbit_kernel"] = None  # what the cached property would have stored
    return oracle


def _inputs(d, seed):
    xs = np.array([random_hermitian(d, seed + t) for t in range(3)])
    xs[1] = xs[1] @ xs[2]  # one input that is not Hermitian
    return xs


@pytest.mark.parametrize(
    "p", [3, 7, 23, 31, 47, pytest.param(71, marks=pytest.mark.slow), pytest.param(79, marks=pytest.mark.slow)]
)
def test_orbit_kernel_matches_the_member_sum(p, monkeypatch):
    uf = _residue_unitaries(p)
    dec = MixedUnitaryDecomposition(weights=(float(uniform_weight(p)),) * len(uf), unitaries=uf)
    oracle = _member_by_member(dec)
    xs = _inputs(p, seed=700)
    trials = 2 if p > 47 else 6
    ran = spy_apply_paths(monkeypatch)
    out, rep = apply_decomposition(dec, xs), verify_decomposition(dec, trials=trials, seed=11)
    assert ran == ["_apply_by_kernel"] * 2
    dense, dense_rep = apply_decomposition(oracle, xs), verify_decomposition(oracle, trials=trials, seed=11)
    assert ran[2:] == ["_apply_by_members"] * 2
    assert np.max(np.abs(out - dense)) <= 1e-13 * np.max(np.abs(xs))
    assert rep.verdict and dense_rep.verdict
    assert rep.choi_dev == dense_rep.choi_dev
    assert rep.apply_dev_max <= 1e-14 and dense_rep.apply_dev_max <= 1e-13


def _perturbed_entry():
    members = np.array(_residue_unitaries(7).unitaries)
    members[-1, 2, 4] += 1e-12  # the last member; a dense family, shifts = 1
    return MixedUnitaryDecomposition((1 / 28,) * 28, UnitaryFamily(7, compute_phase(7, 3), members))


def _swapped_orbits():
    members = np.array(_residue_unitaries(7).unitaries)
    members[[3, 10]] = members[[10, 3]]  # shift 3 of orbits 0 and 1: the same mixture
    return MixedUnitaryDecomposition((1 / 28,) * 28, UnitaryFamily(7, compute_phase(7, 3), members))


def _weights_inside_an_orbit():
    w = np.full(28, 1 / 28)
    w[8] += 0.01  # orbit 1, shifts 1 and 2
    w[9] -= 0.01
    return MixedUnitaryDecomposition(tuple(w), _residue_unitaries(7))


def _not_whole_orbits():
    uf = _residue_unitaries(7)
    return MixedUnitaryDecomposition((1 / 27,) * 27, UnitaryFamily(7, uf.z, uf.unitaries[:27]))


@pytest.mark.parametrize(
    "build, passes",
    [
        (lambda: umeb_decomposition(_unitaries(3)), True),  # the icosahedron
        (_perturbed_entry, True),
        (_swapped_orbits, True),
        (_weights_inside_an_orbit, False),
        (_not_whole_orbits, False),
    ],
    ids=["icosahedron", "perturbed-entry", "swapped-orbits", "weights-inside-an-orbit", "not-whole-orbits"],
)
def test_mixture_without_orbit_structure_is_applied_member_by_member(build, passes, monkeypatch):
    dec = build()
    d = dec.unitaries.d
    xs = _inputs(d, seed=800)
    ran = spy_apply_paths(monkeypatch)
    out, rep = apply_decomposition(dec, xs), verify_decomposition(dec, trials=6, seed=5)
    assert ran == ["_apply_by_members"] * 2
    assert dec._orbit_kernel is None
    for x, y in zip(xs, out):
        loop = sum(w * (u @ x @ u.conj().T) for w, u in zip(dec.weights, dec.unitaries.unitaries))
        assert np.max(np.abs(y - loop)) < 1e-13
    assert rep.verdict == passes

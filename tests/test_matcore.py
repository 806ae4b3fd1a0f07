import math
import tracemalloc

import numpy as np
import pytest

from umebkit import channels, matcore
from umebkit.errors import MalformedArtifact, OutOfRange, ShapeMismatch
from umebkit.hadamard import construct
from umebkit.matcore import (
    OrbitMembers,
    SupportStack,
    Tolerance,
    asymmetry,
    cyclic_gram,
    gram_spectrum,
    gram_stats,
    spectral_rank,
    support_product,
)
from umebkit.numth import validate_prime
from umebkit.packing import build_residue_family, icosahedron_lines
from umebkit.umeb import build_unitaries, compute_phase

from oracles import dense_gram, direct_dft, dual_family, numerical_rank, orbit_stack, support_stack
from test_cli import read_rows  # the artifact's Hadamard rows, as the cli tests read them

EPS = 1e-9


def gram_of(bases):
    """cyclic_gram of a dense stack of bases compressed onto its own union support."""
    bases = np.asarray(bases)
    return cyclic_gram(support_stack(bases, bases.shape[-1]))


def identity(t, d):
    """T identity matrices as a SupportStack: one column a row, the diagonal."""
    return SupportStack(np.arange(d)[:, None], np.broadcast_to(1.0, (t, d, 1)))


def rows_of(gram):
    """The rows G[t*d] of a CyclicGram as one (T, T*d) array: column t'*d + x is c[t, t'] [x = 0] + h[group[t], group[t'], x]."""
    t, s = len(gram.c), gram.h.shape[-1]
    rows = gram.h[np.ix_(gram.group, gram.group)].astype(np.result_type(gram.c, gram.h))
    rows[:, :, 0] += gram.c
    return rows.reshape(t, t * s)


def p7_family():
    return build_residue_family(validate_prime(7), construct(4))


def test_numerical_rank_single():
    assert numerical_rank([np.eye(3)]) == 1


def test_numerical_rank_empty():
    assert numerical_rank([]) == 0


def test_numerical_rank_icosahedron():
    assert numerical_rank(list(icosahedron_lines().projections)) == 6


def test_numerical_rank_p7():
    assert numerical_rank(list(p7_family().projections)) == 28


def test_numerical_rank_detects_dependence():
    p = np.diag([1.0, 0.0, 0.0])
    q = np.diag([0.0, 1.0, 0.0])
    assert numerical_rank([p, q, p + q]) == 2


def test_numerical_rank_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        numerical_rank([np.eye(2), np.eye(3)])


def _random_bases(d, seed, zero=False):
    rng = np.random.default_rng(seed)
    bases = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
    if zero:
        bases[1] = 0.0
    return bases


def _residue_bases(p, kind):
    fam = build_residue_family(validate_prime(p), construct((p + 1) // 2))
    if kind == "U":
        return build_unitaries(fam, compute_phase(p, fam.r)).bases.dense()
    return (dual_family(fam) if kind == "dual" else fam).bases.dense()


SPECTRUM_CASES = {
    # d = 6 is even: the shift d/2 is its own mirror
    **{f"random-d{d}": (lambda d=d: _random_bases(d, 40 + d)) for d in (5, 6)},
    "zero-base": lambda: _random_bases(5, 47, zero=True),
    "shifts-1": lambda: _random_bases(1, 48),  # d = 1: one shift, so one block
    **{f"{kind}-p{p}": (lambda p=p, kind=kind: _residue_bases(p, kind)) for p in (7, 23) for kind in ("P", "U", "dual")},
}


@pytest.mark.parametrize("name", SPECTRUM_CASES)
def test_gram_spectrum_is_the_spectrum_of_the_whole_gram(name, monkeypatch):
    bases = SPECTRUM_CASES[name]()
    d = bases.shape[-1]
    gram = gram_of(bases)
    eigvalsh = np.linalg.eigvalsh
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    spectrum = gram_spectrum(gram)
    monkeypatch.undo()
    expected = np.linalg.eigvalsh(dense_gram(orbit_stack(bases)))
    assert spectrum.shape == expected.shape == (len(bases) * d,)
    assert np.max(np.abs(spectrum - expected)) <= 1e-12 * d * d
    # one batched eigensolve on the shift blocks
    assert [a.shape for a in calls] == [(d, len(bases), len(bases))]


ROW_STATS_CASES = {
    **{f"{kind}-p{p}": (lambda p=p, kind=kind: _residue_bases(p, kind)) for p in (7, 23) for kind in ("P", "U")},
    "icosahedron": lambda: icosahedron_lines().bases.dense(),
    "random-d5": lambda: _random_bases(5, 50),
}


def _close(got, expected):
    return np.max(np.abs(got - expected)) <= 1e-12 * max(1.0, float(np.max(np.abs(expected))))


@pytest.mark.parametrize("budget", ["default", "one-row"])
@pytest.mark.parametrize("name", ROW_STATS_CASES)
def test_gram_row_stats_match_the_whole_gram(name, budget, monkeypatch):
    bases = ROW_STATS_CASES[name]()
    if budget == "one-row":
        monkeypatch.setattr(matcore, "_BLOCK_BYTES", 1)
    stats = gram_stats(gram_of(bases))
    # the oracle reads every row of the whole Gram: a shifted member's row is its base's row permuted
    gram = dense_gram(orbit_stack(bases))
    t, d, n = len(bases), bases.shape[-1], len(gram)
    off = np.abs(gram)
    off[np.arange(n), np.arange(n)] = 0.0
    assert stats.diag.dtype == gram.dtype
    assert _close(stats.diag[:, None], np.diag(gram).reshape(t, d))
    assert _close(stats.radii[:, None], off.sum(axis=1).reshape(t, d))
    assert _close(stats.max_off, np.max(off))


def test_gram_row_stats_carry_a_nan():
    bases = _random_bases(5, 51)
    bases[1, 2, 3] = np.nan
    stats = gram_stats(gram_of(bases))
    # the NaN meets every base shifted: every row has it in the columns of orbit 1
    assert np.isnan(stats.radii).all() and math.isnan(stats.max_off)
    assert math.isnan(stats.diag[1].real) and np.isfinite(stats.diag[[0, 2]]).all()


def _one_ulp_apart(p):
    """The p-bases with the main diagonal of base 1 moved by one ulp at one entry: two groups."""
    bases = np.array(_residue_bases(p, "P"))
    bases[1, 1, 1] = np.nextafter(bases[1, 1, 1], 2.0)
    return bases


def _lone_off_diagonal_entry():
    """Two complex bases, nonzero at one entry off the diagonal alone: no shared diagonal, no correlation."""
    bases = np.zeros((2, 7, 7), dtype=complex)
    bases[:, 2, 5] = [0.5 + 1j, -2.0]
    return bases


# name -> (bases, number of groups)
STATS_CASES = {
    **{f"{kind}-p{p}": (lambda p=p, kind=kind: _residue_bases(p, kind), 1) for p in (7, 23, 79) for kind in ("P", "U", "dual")},
    **{f"dense-d{d}": (lambda d=d: _random_bases(d, 80 + d), 3) for d in (5, 6)},
    "one-ulp-apart-p23": (lambda: _one_ulp_apart(23), 2),
    "unequal-rows": (lambda: _unequal_rows(), 3),
    "lone-off-diagonal-entry": (_lone_off_diagonal_entry, 1),
    "icosahedron": (lambda: icosahedron_lines().bases.dense(), 1),
}


@pytest.mark.parametrize("name", STATS_CASES)
def test_cyclic_gram_stats_and_spectrum_are_those_of_the_dense_gram(name):
    build, groups = STATS_CASES[name]
    bases = np.asarray(build())
    t, d = len(bases), bases.shape[-1]
    gram = gram_of(bases)
    assert len(gram.c) == len(gram.group) == t and gram.h.shape == (groups, groups, d)
    assert gram.group.max() == groups - 1 and gram.group[0] == 0
    stats = gram_stats(gram)
    # the oracle: the rows G[t*d] of the dense Gram, each base against every member gathered,
    # one orbit at a time; a shifted member's row is its base's row permuted
    flat = bases.reshape(t, -1)
    rows = np.concatenate([flat.conj() @ orbit_stack(bases[[u]]).reshape(d, -1).T for u in range(t)], axis=1)
    own = np.arange(t) * d
    off = np.abs(rows)
    off[np.arange(t), own] = 0.0
    assert stats.diag.dtype == rows.dtype
    assert _close(stats.diag, rows[np.arange(t), own])
    assert _close(stats.radii, off.sum(axis=1))
    assert _close(stats.max_off, np.max(off))
    if name == "lone-off-diagonal-entry":
        assert np.all(gram.h == 0)
    if t * d <= 300:  # the whole n x n Gram and its eigenvalues
        whole = dense_gram(orbit_stack(bases))
        assert np.max(np.abs(gram_spectrum(gram) - np.linalg.eigvalsh(whole))) <= 1e-12 * d * d


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
@pytest.mark.parametrize("at", [(1, 1, 3), (1, 3, 3)], ids=["single-row-entry", "shared-diagonal"])
@pytest.mark.parametrize("kind", ["P", "U"])
def test_cyclic_gram_stats_carry_a_non_finite_entry(kind, at, value):
    # p=7, k=3: (1, 3) is the pair entry (q, kq) of q = 1, alone on its offset; (3, 3) lies on
    # the main diagonal that every base shares
    bases = np.array(_residue_bases(7, kind))
    assert bases[at] != 0
    bases[at] = value
    stats = gram_stats(gram_of(bases))
    assert not np.isfinite(stats.radii).any() and not math.isfinite(stats.max_off)
    assert not np.isfinite(stats.diag[1]) and np.isfinite(np.delete(stats.diag, 1)).all()


def _unequal_rows():
    """d=7: rows of 1 to 4 entries, so the short rows are padded; base 0 leaves row 3 empty,
    so the union is wider than any single base."""
    d = 7
    a = np.arange(d)
    support = (a == a[:, None]) | (a >= d - np.minimum(a, 3)[:, None])
    bases = _random_bases(d, 60) * support
    bases[0, 3] = 0
    return bases


def test_orbit_members_are_the_gathered_orbits_on_any_support():
    # padded rows, a union wider than any base, real values, a NaN and no base at all: each member is
    # scattered from the support bit for bit as orbit_stack gathers it from the dense bases
    poisoned = _unequal_rows()
    poisoned[2, 4, 4] = np.nan
    for bases in (_unequal_rows(), _unequal_rows().real, poisoned, np.zeros((0, 7, 7))):
        stack = support_stack(bases, 7)
        members, dense = OrbitMembers(stack), orbit_stack(stack.dense())
        assert len(members) == len(dense) == 7 * len(bases)
        assert [(m.dtype, m.tobytes()) for m in members] == [(m.dtype, m.tobytes()) for m in dense]
    with pytest.raises(IndexError):  # the last stack has no base, so even member 0 is past the end
        members[0]


def _tampered_p79(kind):
    """The p=79 bases with base 0 replaced by base 0 + 2 base 1, as a tampered artifact holds them."""
    fam = build_residue_family(validate_prime(79), construct(40))
    bases = np.array(fam.bases.dense())
    bases[0] += 2 * bases[1]
    if kind == "U":
        return bases * (compute_phase(79, 39) - 1) + np.eye(79)
    return bases


PRODUCT_CASES = {
    "dense-real": lambda: np.random.default_rng(62).standard_normal((4, 6, 6)),
    "dense-complex": lambda: _random_bases(5, 63),
    "unequal-rows": _unequal_rows,
    "zero-base": lambda: _random_bases(5, 64, zero=True),
    "icosahedron": lambda: icosahedron_lines().bases.dense(),
    **{f"{kind}-p23": (lambda kind=kind: _residue_bases(23, kind)) for kind in ("P", "U")},
    **{f"tampered-{kind}-p79": (lambda kind=kind: _tampered_p79(kind)) for kind in ("P", "U")},
}


def assert_is_the_dense_gap(entries, gap, dense):
    """gap holds every entry of dense that a term reaches, at the flat entries i*d + j, and dense is exactly 0 elsewhere."""
    t, d = dense.shape[:2]
    assert entries.shape == gap.shape[1:] and gap.shape[0] == t and gap.dtype == dense.dtype
    assert np.all(np.diff(entries) > 0)  # each entry once, in ascending order
    flat = dense.reshape(t, d * d)
    scale = max(1.0, float(np.max(np.abs(dense))))
    assert np.max(np.abs(gap - flat[:, entries])) <= 1e-13 * d * scale
    elsewhere = np.ones(d * d, dtype=bool)
    elsewhere[entries] = False
    assert np.all(flat[:, elsewhere] == 0)


@pytest.mark.parametrize("name", PRODUCT_CASES)
def test_support_product_is_the_dense_product(name):
    bases = PRODUCT_CASES[name]()
    d = bases.shape[-1]
    stack = support_stack(bases, d)
    # idempotency of an orthogonal projection: p* p - p
    entries, gap = support_product(stack, stack)
    assert_is_the_dense_gap(entries, gap, bases.conj().transpose(0, 2, 1) @ bases - bases)
    # unitarity: u* u - I
    entries, gap = support_product(stack, identity(len(bases), d))
    assert_is_the_dense_gap(entries, gap, bases.conj().transpose(0, 2, 1) @ bases - np.eye(d))


def _dense_with_a_zero_row():
    """Four dense real 7 x 7 bases, base 1 with row 0 exactly 0: every row of the union is full,
    and an entry at (1, 0, 4) meets exact zeros in the terms of its row."""
    bases = np.random.default_rng(68).standard_normal((4, 7, 7))
    bases[1, 0] = 0.0
    return bases


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
@pytest.mark.parametrize("at", [(0, 0, 0), (2, 3, 5), (3, 6, 6), (1, 0, 4)])  # on and off the support
@pytest.mark.parametrize("kind", ["P", "U", "dense"])
def test_support_product_carries_a_non_finite_entry(kind, at, value):
    bases = _dense_with_a_zero_row() if kind == "dense" else np.array(_residue_bases(7, kind))
    bases[at] = value
    stack = support_stack(bases, 7)
    idempotency = support_product(stack, stack)[1]
    unitarity = support_product(stack, identity(len(bases), 7))[1]
    for gap in (idempotency, unitarity):
        assert not np.isfinite(np.max(np.abs(gap)))
        assert not np.isfinite(gap[at[0]]).all() and np.isfinite(np.delete(gap, at[0], axis=0)).all()


def test_support_product_stays_inside_the_byte_budget(monkeypatch):
    # complex bases, d = 12, whose last column is 0: rows of s = 11 columns.  A base's
    # 12 * 11 * 11 terms and c's 12 * 11
    # values, their keys and its sums take 40 KiB, so a budget of 120 KiB holds two bases and
    # the twelve bases go in six blocks
    bases = np.random.default_rng(65).standard_normal((12, 12, 12)) + 0j
    bases[:, :, -1] = 0.0
    stack = support_stack(bases, 12)
    assert stack.cols.shape == (12, 11)
    expected = support_product(stack, stack)
    assert expected[0].shape == (12 * 11,)  # every row's 11 columns
    monkeypatch.setattr(matcore, "_BLOCK_BYTES", 120 << 10)
    terms = 12 * 11 * 11 + 12 * 11  # a base's products and c's values
    assert len(list(matcore._blocks(12, terms * (16 + 8) + 12 * 11 * (16 + 8)))) == 6
    tracemalloc.start()
    try:
        cols, gap = support_product(stack, stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(cols, expected[0]) and np.max(np.abs(gap - expected[1])) <= 1e-13
    # beyond the result: one budget, four integer arrays of a base's terms (their entries and
    # slots), a contiguous copy of one part of a block's terms for np.bincount, and numpy's
    # buffers for the broadcast product of a block, one for each of its three operands
    products = 2 * 12 * 11 * 11
    assert peak - gap.nbytes - cols.nbytes <= matcore._BLOCK_BYTES + 4 * terms * 8 + 2 * terms * 8 + 3 * products * 16


@pytest.mark.parametrize("name", ["unequal-rows", "dense-complex", "U-p23", "tampered-U-p79"])
def test_asymmetry_is_the_dense_sum_over_every_entry(name):
    # a stored value whose mirror is not stored stands for the mirror too; dense bases store both
    bases = {
        "unequal-rows": _unequal_rows,
        "dense-complex": lambda: _random_bases(5, 63),
        "U-p23": lambda: _residue_bases(23, "U"),
        "tampered-U-p79": lambda: _tampered_p79("U"),
    }[name]()
    gap = np.abs(bases - bases.transpose(0, 2, 1))
    worst, sq = asymmetry(support_stack(bases, bases.shape[-1]))
    assert worst == np.max(gap)
    assert sq == pytest.approx(float(np.sum(gap**2)), rel=1e-12, abs=0.0)


def test_union_support_keeps_every_entry_that_is_not_exactly_zero():
    bases = np.zeros((3, 4, 4), dtype=complex)
    bases[0, 1, 2] = 1e-300
    bases[0, 2, 2] = -0.0  # equal to 0
    bases[1, 2, 1] = 1j
    bases[1, 3, 0] = np.nan
    bases[2, 0, 3] = np.inf
    bases[2, 1, 2] = 5.0  # also in base 0: counted once
    # each row's one entry that is not exactly 0, entries (0, 3), (1, 2), (2, 1) and (3, 0)
    assert support_stack(bases, 4).cols.tolist() == [[3], [2], [1], [0]]


def test_spectral_rank_counts_above_the_relative_threshold():
    tol = Tolerance(rank_eps=1e-3)
    assert spectral_rank(np.array([1e-9, 5e-4, 0.5, 1.0]), tol) == (2, 0.5)
    assert spectral_rank(np.array([1e-4, 2e-3, 1.0]), tol) == (2, 2e-3)
    assert spectral_rank(np.array([-1.0, 0.0]), tol) == (0, 0.0)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_odd_antisymmetric_determinant_vanishes(d):
    rng = np.random.default_rng(d)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    anti = (a - a.T) / 2
    assert abs(np.linalg.det(anti)) < math.factorial(d) * EPS


def test_is_unitary_phase_reflection():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    z = complex(-7 / 8, math.sqrt(15) / 8)
    u = np.eye(3) - (1 - z) * np.outer(v, v)
    dev = float(np.max(np.abs(u.conj().T @ u - np.eye(3))))
    ok = dev <= EPS
    assert ok
    assert dev <= 1e-12


def whole_of(gram):
    """The n x n Gram that the parts of a CyclicGram fix: G[t*d + x, t'*d + x'] = c[t, t'] [x' = x] + h[group[t], group[t'], x' - x]."""
    d = gram.h.shape[-1]
    t, x = np.divmod(np.arange(len(gram.c) * d), d)
    shift = (x - x[:, None]) % d
    return gram.h[gram.group[t][:, None], gram.group[t], shift] + np.where(shift == 0, gram.c[t[:, None], t], 0)


def test_gram_matrix_is_hermitian():
    rng = np.random.default_rng(13)
    mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(4)]
    g = whole_of(gram_of(mats))
    assert g.shape == (12, 12)
    assert np.max(np.abs(g - g.conj().T)) < EPS


def test_gram_matrix_row_blocks_match_one_product(monkeypatch):
    # bases nonzero on row 0 alone: every entry is alone on its offset, so c is their whole product
    rng = np.random.default_rng(29)
    complex_stack = np.zeros((10, 4, 4), dtype=complex)
    complex_stack[:, 0] = rng.standard_normal((10, 4)) + 1j * rng.standard_normal((10, 4))
    real_stack = np.zeros((10, 4, 4))
    real_stack[:, 0] = rng.standard_normal((10, 4))
    monkeypatch.setattr(matcore, "_BLOCK_BYTES", 3 * (10 + 4) * 16)  # three complex rows of c and their values
    assert [rows.stop - rows.start for rows in matcore._blocks(10, (10 + 4) * 16)] == [3, 3, 3, 1]
    for stack in (complex_stack, real_stack):
        flat = stack.reshape(10, 16)
        gram = gram_of(stack)
        assert gram.c.dtype == stack.dtype and np.all(gram.h == 0)
        assert np.max(np.abs(gram.c - flat.conj() @ flat.T)) < 1e-12


@pytest.mark.parametrize("dtype", [float, complex])
def test_gram_rows_of_shifted_bases_are_rows_of_the_whole_gram(dtype):
    rng = np.random.default_rng(31)
    bases = rng.standard_normal((3, 5, 5)).astype(dtype)
    if dtype is complex:
        bases += 1j * rng.standard_normal((3, 5, 5))
    members = orbit_stack(bases)
    assert members.shape == (15, 5, 5) and not members.flags.writeable
    rows = rows_of(gram_of(bases))
    whole = dense_gram(members)
    assert rows.shape == (3, 15) and rows.dtype == dtype
    assert np.max(np.abs(rows - whole[::5])) < 1e-12


def rolled_rows(bases):
    """Row t, column t'*d + x: tr(bases[t]* bases[t'] shifted by x), every shift rolled over all d^2 entries.

    The dense reference for the rows of cyclic_gram(bases): no support, no DFT.
    """
    m, d = len(bases), bases.shape[-1]
    flat = bases.reshape(m, -1)
    rows = np.empty((m, m, d), dtype=np.result_type(bases, float))
    for x in range(d):
        rows[:, :, x] = flat.conj() @ np.roll(bases, (x, x), axis=(1, 2)).reshape(m, -1).T
    return rows.reshape(m, m * d)


def assert_rows_match_the_rolled_rows(bases):
    rows = rows_of(gram_of(bases))
    reference = rolled_rows(bases)
    assert rows.shape == reference.shape and rows.dtype == reference.dtype
    # each entry sums at most d^2 products, so a change of order moves it by at most d^2 ulps of max |B|^2
    d = bases.shape[-1]
    bound = d * d * np.finfo(float).eps * float(np.max(np.abs(bases), initial=0.0)) ** 2
    assert np.max(np.abs(rows - reference)) <= bound


@pytest.mark.parametrize("kind", ["P", "U", "dual"])
@pytest.mark.parametrize(
    "p", [3, 7, 23, 31, 47, pytest.param(71, marks=pytest.mark.slow), pytest.param(79, marks=pytest.mark.slow)]
)
def test_support_gram_rows_of_the_families_match_the_rolled_rows(p, kind):
    fam = build_residue_family(validate_prime(p), construct((p + 1) // 2))
    bases = {
        "P": lambda: fam.bases,
        "U": lambda: build_unitaries(fam, compute_phase(p, (p - 1) // 2)).bases,
        "dual": lambda: dual_family(fam).bases,
    }[kind]().dense()
    assert_rows_match_the_rolled_rows(bases)


def _sparse_bases(rng, d, density):
    """Three complex bases, each nonzero on its own random entries, so their union is the support."""
    masks = rng.random((3, d, d)) < density
    masks[1] &= ~masks[0]  # base 1 lives where base 0 is 0
    return np.where(masks, rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d)), 0)


def _single_entry(rng, d):
    base = np.zeros((1, d, d))
    base[0, 1, d - 1] = 2.5
    return base


def _with_a_zero_base(rng, d):
    bases = rng.standard_normal((3, d, d))
    bases[1] = 0.0
    return bases


@pytest.mark.parametrize("d", [5, 6])  # 6: the shift d/2 is its own mirror
@pytest.mark.parametrize(
    "build",
    [
        lambda rng, d: rng.standard_normal((3, d, d)),
        lambda rng, d: rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d)),
        lambda rng, d: _sparse_bases(rng, d, 0.2),
        lambda rng, d: _sparse_bases(rng, d, 0.05),
        _single_entry,
        _with_a_zero_base,
        lambda rng, d: np.zeros((2, d, d)),
    ],
    ids=["dense-real", "dense-complex", "supports-differ", "sparse-supports-differ", "single-entry",
         "zero-base", "all-zero"],
)
def test_support_gram_rows_match_the_rolled_rows(build, d):
    assert_rows_match_the_rolled_rows(build(np.random.default_rng(37 + d), d))


def _one_off_diagonal_entry(rng, d):
    """One entry off the diagonal: its shift by (x, x) is off the support for every x != 0."""
    base = np.zeros((2, d, d), dtype=complex)
    base[:, 1, 3] = [1.5 - 2j, -0.5j]
    return base


def _one_diagonal_pair(rng, d):
    """Two entries on one diagonal, two apart: only the shifts 2 and -2 match them with each other."""
    bases = np.zeros((3, d, d))
    bases[:, 1, 2] = rng.standard_normal(3)
    bases[:, 3, 4] = rng.standard_normal(3)
    return bases


MATCHED_PAIR_CASES = {
    **{f"{kind}-p{p}": (lambda rng, d, p=p, kind=kind: _residue_bases(p, kind)) for p in (7, 23) for kind in ("P", "U")},
    "dense-real": lambda rng, d: rng.standard_normal((3, d, d)),
    "dense-complex": lambda rng, d: rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d)),
    "unequal-rows": lambda rng, d: _unequal_rows(),
    "one-off-diagonal-entry": _one_off_diagonal_entry,
    "one-diagonal-pair": _one_diagonal_pair,
}


@pytest.mark.parametrize("name", MATCHED_PAIR_CASES)
def test_matched_pair_gram_rows_are_rows_of_the_dense_gram(name):
    # the reference: every member gathered and the whole n x n Gram as one dense product
    bases = np.asarray(MATCHED_PAIR_CASES[name](np.random.default_rng(70), 7))
    t, d = len(bases), bases.shape[-1]
    members = orbit_stack(bases).reshape(t * d, -1)
    whole = members.conj() @ members.T
    rows = rows_of(gram_of(bases))
    assert rows.shape == (t, t * d) and rows.dtype == whole.dtype
    scale = max(1.0, float(np.max(np.abs(bases)))) ** 2
    bound = d * d * np.finfo(float).eps * scale
    assert np.max(np.abs(rows - whole[::d])) <= bound
    # a shift whose entries meet no supported entry is a block of exact zeros in the reference and
    # within rounding of the DFT here; with no shared diagonal there is no correlation, and it is exact
    blocks = rows.reshape(t, t, d)
    on = bases.any(axis=0)  # the union support
    unmatched = [x for x in range(d) if not np.any(on & np.roll(on, (x, x), axis=(0, 1)))]
    assert np.max(np.abs(blocks[:, :, unmatched]), initial=0.0) <= bound
    assert np.all(whole[::d].reshape(t, t, d)[:, :, unmatched] == 0)
    if name == "one-off-diagonal-entry":
        assert unmatched == list(range(1, d)) and np.all(blocks[:, :, unmatched] == 0)
    if name == "one-diagonal-pair":
        assert unmatched == [1, 3, 4, 6]


@pytest.mark.parametrize("kind", ["P", "U"])
def test_matched_pair_gram_multiplies_the_diagonal_alone_off_shift_zero(kind):
    # of the 2(p - 1) supported entries (2p - 1 for U), the p - 1 off the diagonal sit on offsets
    # of their own, one entry each, so they meet at x = 0 alone and make up c: the pair entry
    # (q, kq) shifted is another pair's only if -q is a residue, and -1 is no residue mod 23.
    # The diagonal, the same in every base, is the one correlation, for every x
    bases = _residue_bases(23, kind)
    gram = gram_of(bases)
    assert gram.group.tolist() == [0] * 12 and gram.h.shape == (1, 1, 23)
    off = (bases * (1 - np.eye(23))).reshape(12, -1)
    assert np.count_nonzero(off.any(axis=0)) == 22
    assert np.max(np.abs(gram.c - off.conj() @ off.T)) <= 1e-14
    diagonal = np.diagonal(bases[0])
    assert np.all(np.diagonal(bases, axis1=1, axis2=2) == diagonal)
    autocorrelation = [np.vdot(diagonal, np.roll(diagonal, x)) for x in range(23)]
    assert np.max(np.abs(gram.h[0, 0] - autocorrelation)) <= 1e-14


@pytest.mark.parametrize("p", [47])
def test_gram_passes_stay_inside_the_byte_budget(p, monkeypatch):
    # at p=47 one conjugated member is 76 KiB, and the family's diagonals and
    # off-diagonal entries are a few KiB: a 1 MiB budget holds them
    fam = build_residue_family(validate_prime(p), construct((p + 1) // 2))
    bases = build_unitaries(fam, compute_phase(p, (p - 1) // 2)).bases
    monkeypatch.setattr(matcore, "_BLOCK_BYTES", 1 << 20)
    tracemalloc.start()
    try:
        gram = cyclic_gram(bases)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gram.c.shape == (len(bases), len(bases)) and gram.h.shape == (1, 1, p)
    assert peak - gram.c.nbytes - gram.h.nbytes <= matcore._BLOCK_BYTES


def test_support_stack_of_a_dense_stack_owns_its_values():
    handed = np.eye(3)[None].repeat(4, axis=0)
    handed.flags.writeable = False
    writable = np.eye(3)[None].repeat(4, axis=0)
    view = writable.view()
    view.flags.writeable = False  # read-only, but writable through `writable`
    for given in (handed, writable, view, list(writable), handed.astype(np.float32)):
        stack = support_stack(given, 3, float)
        assert not np.shares_memory(stack.values, writable) and not np.shares_memory(stack.values, handed)
        assert not stack.values.flags.writeable and not stack.cols.flags.writeable and stack.values.dtype == float
        assert stack.cols.tolist() == [[0], [1], [2]]  # the union support: the diagonal
        assert np.array_equal(stack.dense(), handed) and not stack.dense().flags.writeable
    for wrong in (handed, handed[0], []):
        with pytest.raises(ShapeMismatch):
            support_stack(wrong, 4)


def test_support_stack_of_keeps_a_stack_and_refuses_anything_else():
    # a family's bases are a SupportStack of its size; a dense stack or sequence is no such stack
    stack = identity(4, 3)
    assert SupportStack.of(stack, 3) is stack and SupportStack.of(stack, 3, float) is stack
    assert SupportStack.of(stack, 3, complex).values.tolist() == stack.values.astype(complex).tolist()
    for wrong, kind in ((stack.dense(), "ndarray"), (list(stack.dense()), "list"), ((), "tuple")):
        with pytest.raises(ShapeMismatch, match=f"SupportStack, got {kind}$"):
            SupportStack.of(wrong, 3)
    with pytest.raises(ShapeMismatch, match="size 3 in a family with d=4"):
        SupportStack.of(stack, 4)


def _repeat_first_column(cols):
    cols = np.array(cols)
    cols[1, 1] = cols[1, 0]
    return cols


# a malformed p=7 stack, each from the residue family's (7, 2) columns and (4, 7, 2) values
MALFORMED_STACKS = {
    "values-too-wide": lambda cols, values: (cols, np.zeros((4, 7, 3))),
    "values-cut-to-6-rows": lambda cols, values: (cols, values[:, :6]),
    "values-2d": lambda cols, values: (cols, values[0]),
    "column-7": lambda cols, values: (cols + 1, values),
    "float-cols": lambda cols, values: (cols.astype(float), values),
    "negative-column": lambda cols, values: (cols - 1, values),
    "repeated-column": lambda cols, values: (_repeat_first_column(cols), values),
}


@pytest.mark.parametrize("name", MALFORMED_STACKS)
def test_support_stack_rejects_a_malformed_stack(name):
    # each row lists distinct integer columns in 0..d-1, and values has shape (T, d, s) for
    # cols of shape (d, s); else the dense view and the checks would read different bases
    fam = p7_family()
    cols, values = MALFORMED_STACKS[name](fam.bases.cols, fam.bases.values)
    with pytest.raises(ShapeMismatch):
        SupportStack(cols, values)


def test_support_stack_copies_only_an_array_that_does_not_own_its_data():
    # an array that owns its data is kept and made read-only; a view, whose base a caller may still
    # write, is copied
    cols, values = np.array([[0, 1], [1, 0]]), np.arange(8.0).reshape(2, 2, 2).copy()
    stack = SupportStack(cols, values)
    assert stack.cols is cols and stack.values is values and not values.flags.writeable
    cols, values = np.array([[0, 1], [1, 0]]), np.arange(8.0).reshape(2, 2, 2).copy()
    stack = SupportStack(cols.view(), values.view())
    assert not np.shares_memory(stack.cols, cols) and not np.shares_memory(stack.values, values)
    assert stack.values.flags.owndata
    cols[0] = [1, 0]
    values *= 2
    assert stack.cols.tolist() == [[0, 1], [1, 0]] and stack.values.ravel().tolist() == list(range(8))


@pytest.mark.parametrize(
    "rows",
    [
        pytest.param([], id="no-member"),
        pytest.param([1, 1, 1, -1], id="two-axes"),
        pytest.param([[[1], [1]], [[1], [-1]]], id="four-axes"),
        pytest.param([[1, 1], [1, -1], [1, 1]], id="not-d-by-d"),
        pytest.param([[], []], id="no-column"),
        pytest.param([[1, 1, 1], [1, -1, 1]], id="more-columns-than-d"),
        pytest.param(7, id="values-not-a-list"),
        pytest.param([{"0": 1, "1": 1}, [1, -1]], id="cols-not-a-list"),
        pytest.param("[[1, 1], [1, -1]]", id="shape-not-a-list"),
        pytest.param([[1, 1], [1, float("nan")]], id="nan"),
        pytest.param([[1, 1], [1, float("-inf")]], id="inf"),
        pytest.param([[1, 1], [1, 10**400]], id="value-past-any-float"),
        pytest.param([[1, "1"], [1, -1]], id="string-value"),
        pytest.param([[1, [1]], [1, -1]], id="list-value"),
        pytest.param([[1, None], [1, -1]], id="null-value"),
        # a bool is no JSON integer, though numpy would read true as 1 and false as 0
        pytest.param([[1, True], [1, -1]], id="true-value"),
        pytest.param([[1, 1], [1, False]], id="false-value"),
        pytest.param([[True, 1], [1, -1]], id="true-column"),
        pytest.param([[1.0, 1], [1, -1]], id="float-column"),
        pytest.param([[1, 1], [-(2**63) - 1, -1]], id="negative-column"),
        pytest.param([[1, 2**63], [1, -1]], id="column-past-any-int"),
        # the dense stack of earlier versions, and no rows at all
        pytest.param({"shape": [1, 2, 2], "re": [1.0, 1.0, 1.0, -1.0]}, id="dense-re"),
        pytest.param(None, id="no-cols"),
    ],
)
def test_stack_json_rejects_bad_shape_or_value(rows):
    with pytest.raises(MalformedArtifact):
        read_rows(rows)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(eps=0.0)
    with pytest.raises(ValueError):
        Tolerance(rank_eps=-1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -1.0, 0.0, 1.0, 1e300])
def test_tolerance_must_be_finite_and_positive(value):
    for field in ("eps", "rank_eps"):
        with pytest.raises(OutOfRange, match=field):
            Tolerance(**{field: value})


@pytest.mark.parametrize(
    "n, per_block, sizes",
    [
        (0, 4, []),
        (3, 4, [3]),  # fewer items than one block holds
        (12, 4, [4, 4, 4]),  # an exact multiple
        (10, 4, [4, 4, 2]),  # a partial last block
        (3, 0.5, [1, 1, 1]),  # an item larger than the whole budget
    ],
)
def test_blocks_split_range_by_the_byte_budget(n, per_block, sizes):
    blocks = list(matcore._blocks(n, int(matcore._BLOCK_BYTES / per_block)))
    assert [rows.stop - rows.start for rows in blocks] == sizes
    assert [i for rows in blocks for i in range(n)[rows]] == list(range(n))


def test_dft_is_the_direct_exponentials_bit_for_bit():
    # d exponentials gathered at k*a mod d hold the bytes of d^2 exponentials, one per entry
    for d in range(1, 601):
        dft = matcore._dft(d)
        assert dft.dtype == np.complex128 and dft.shape == (d, d) and dft.flags.c_contiguous, d
        assert dft.tobytes() == direct_dft(d).tobytes(), d
    assert channels._dft is matcore._dft  # the orbit kernel transforms with the same matrix

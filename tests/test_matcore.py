import json
import math
import tracemalloc

import numpy as np
import pytest

from umebkit import matcore
from umebkit.errors import MalformedArtifact, NotSquare, OutOfRange, ShapeMismatch
from umebkit.hadamard import construct
from umebkit.matcore import (
    Tolerance,
    cj_vectorize,
    frobenius_inner,
    gram_matrix,
    gram_row_stats,
    gram_spectrum,
    is_unitary,
    numerical_rank,
    orbit_stack,
    read_only_stack,
    spectral_rank,
    stack_from_json,
    stack_to_json,
    sym_antisym_split,
)
from umebkit.numth import validate_prime
from umebkit.packing import build_residue_family, dual_family, icosahedron_lines
from umebkit.umeb import build_unitaries, compute_phase

EPS = 1e-9


def p7_family():
    return build_residue_family(validate_prime(7), construct(4))


def test_frobenius_inner_identity():
    assert frobenius_inner(np.eye(3), np.eye(3)) == 3


def test_frobenius_inner_trace_of_projection():
    fam = p7_family()
    for p in fam.projections[:4]:
        assert abs(frobenius_inner(np.eye(7), p) - 3) < EPS


def test_frobenius_inner_orthogonal_unitaries():
    fam = p7_family()
    uf = build_unitaries(fam, compute_phase(7, 3))
    assert abs(frobenius_inner(uf.unitaries[0], uf.unitaries[1])) < EPS


def test_frobenius_inner_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        frobenius_inner(np.eye(2), np.eye(3))


def test_frobenius_inner_is_squared_norm():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    val = frobenius_inner(a, a)
    assert abs(val.imag) < EPS
    assert abs(val.real - np.linalg.norm(a) ** 2) < EPS


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
        return build_unitaries(fam, compute_phase(p, fam.r)).bases
    return (dual_family(fam) if kind == "dual" else fam).bases


SPECTRUM_CASES = {
    # d = 6 is even: the shift d/2 is its own mirror
    **{f"random-d{d}": (lambda d=d: _random_bases(d, 40 + d), d) for d in (5, 6)},
    "zero-base": (lambda: _random_bases(5, 47, zero=True), 5),
    "shifts-1": (lambda: _random_bases(5, 48), 1),
    **{f"{kind}-p{p}": (lambda p=p, kind=kind: _residue_bases(p, kind), p) for p in (7, 23) for kind in ("P", "U", "dual")},
}


@pytest.mark.parametrize("name", SPECTRUM_CASES)
def test_gram_spectrum_is_the_spectrum_of_the_whole_gram(name, monkeypatch):
    build, shifts = SPECTRUM_CASES[name]
    bases = build()
    d = bases.shape[-1]
    rows = gram_matrix(bases, shifts)
    eigvalsh = np.linalg.eigvalsh
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    spectrum = gram_spectrum(rows, shifts)
    monkeypatch.undo()
    expected = np.linalg.eigvalsh(gram_matrix(orbit_stack(bases, shifts)))
    assert spectrum.shape == expected.shape == (len(bases) * shifts,)
    assert np.max(np.abs(spectrum - expected)) <= 1e-12 * d * d
    # one batched eigensolve on the shift blocks; for shifts = 1 its one block is a view of the rows
    assert [a.shape for a in calls] == [(shifts, len(bases), len(bases))]
    assert (shifts == 1) == np.shares_memory(calls[0], rows)


ROW_STATS_CASES = {
    **{f"{kind}-p{p}": (lambda p=p, kind=kind: _residue_bases(p, kind), p) for p in (7, 23) for kind in ("P", "U")},
    "icosahedron": (lambda: icosahedron_lines().bases, 1),
    "random-d5": (lambda: _random_bases(5, 50), 5),
}


def _close(got, expected):
    return np.max(np.abs(got - expected)) <= 1e-12 * max(1.0, float(np.max(np.abs(expected))))


@pytest.mark.parametrize("budget", ["default", "one-row"])
@pytest.mark.parametrize("name", ROW_STATS_CASES)
def test_gram_row_stats_match_the_whole_gram(name, budget, monkeypatch):
    build, shifts = ROW_STATS_CASES[name]
    bases = build()
    if budget == "one-row":
        monkeypatch.setattr(matcore, "_BLOCK_BYTES", 1)
    stats = gram_row_stats(gram_matrix(bases, shifts), shifts)
    # the oracle reads every row of the whole Gram: a shifted member's row is its base's row permuted
    gram = gram_matrix(orbit_stack(bases, shifts))
    t, n = len(bases), len(gram)
    off = np.abs(gram)
    off[np.arange(n), np.arange(n)] = 0.0
    assert stats.diag.dtype == gram.dtype
    assert _close(stats.diag[:, None], np.diag(gram).reshape(t, shifts))
    assert _close(stats.radii[:, None], off.sum(axis=1).reshape(t, shifts))
    assert _close(stats.max_off, np.max(off))
    assert _close(stats.sq_off[:, None, :], (off**2).reshape(t, shifts, t, shifts).sum(axis=3))


def test_gram_row_stats_carry_a_nan():
    bases = _random_bases(5, 51)
    bases[1, 2, 3] = np.nan
    stats = gram_row_stats(gram_matrix(bases, 5), 5)
    # the NaN meets every base shifted: every row has it in the columns of orbit 1
    assert np.isnan(stats.radii).all() and math.isnan(stats.max_off)
    assert np.isnan(stats.sq_off[1]).all() and np.isnan(stats.sq_off[:, 1]).all()
    assert np.isfinite(stats.sq_off[[0, 0, 2, 2], [0, 2, 0, 2]]).all()
    assert math.isnan(stats.diag[1].real) and np.isfinite(stats.diag[[0, 2]]).all()


def test_spectral_rank_counts_above_the_relative_threshold():
    tol = Tolerance(rank_eps=1e-3)
    assert spectral_rank(np.array([1e-9, 5e-4, 0.5, 1.0]), tol) == (2, 0.5)
    assert spectral_rank(np.array([1e-4, 2e-3, 1.0]), tol) == (2, 2e-3)
    assert spectral_rank(np.array([-1.0, 0.0]), tol) == (0, 0.0)


def test_sym_antisym_split_symmetric_input():
    s = np.array([[1.0, 2.0], [2.0, 5.0]])
    sym, anti = sym_antisym_split(s)
    assert np.allclose(sym, s)
    assert np.allclose(anti, 0)


def test_sym_antisym_split_elementary():
    e01 = np.zeros((2, 2))
    e01[0, 1] = 1
    sym, anti = sym_antisym_split(e01)
    assert np.allclose(sym, [[0, 0.5], [0.5, 0]])
    assert np.allclose(anti, [[0, 0.5], [-0.5, 0]])


def test_sym_antisym_split_reconstructs_and_is_orthogonal():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    sym, anti = sym_antisym_split(a)
    assert np.max(np.abs(sym + anti - a)) < EPS
    assert abs(frobenius_inner(sym, anti)) < EPS


def test_sym_antisym_split_not_square():
    with pytest.raises(NotSquare):
        sym_antisym_split(np.ones((2, 3)))


@pytest.mark.parametrize("d", [3, 5, 7])
def test_odd_antisymmetric_determinant_vanishes(d):
    rng = np.random.default_rng(d)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    _, anti = sym_antisym_split(a)
    assert abs(np.linalg.det(anti)) < math.factorial(d) * EPS


def test_cj_vectorize_identity():
    vec = cj_vectorize(np.eye(2))
    assert np.allclose(vec, np.array([1, 0, 0, 1]) / math.sqrt(2))


def test_cj_vectorize_diagonal_sign():
    vec = cj_vectorize(np.diag([1.0, -1.0]))
    assert np.allclose(vec, np.array([1, 0, 0, -1]) / math.sqrt(2))


def test_cj_vectorize_column_stacking_order():
    u = np.arange(4.0).reshape(2, 2)  # [[0,1],[2,3]]
    assert np.allclose(cj_vectorize(u) * math.sqrt(2), [0, 2, 1, 3])


def test_cj_vectorize_not_square():
    with pytest.raises(NotSquare):
        cj_vectorize(np.ones((2, 3)))


def test_cj_vectorize_isometry():
    rng = np.random.default_rng(3)
    d = 4
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    lhs = np.vdot(cj_vectorize(a), cj_vectorize(b))
    assert abs(lhs - frobenius_inner(a, b) / d) < EPS


def test_is_unitary_identity():
    ok, dev = is_unitary(np.eye(5))
    assert ok and dev == 0


def test_is_unitary_scaled_identity():
    ok, dev = is_unitary(2 * np.eye(4))
    assert not ok
    assert abs(dev - 3) < EPS


def test_is_unitary_phase_reflection():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    z = complex(-7 / 8, math.sqrt(15) / 8)
    u = np.eye(3) - (1 - z) * np.outer(v, v)
    ok, dev = is_unitary(u)
    assert ok
    assert dev <= 1e-12


def test_is_unitary_not_square():
    with pytest.raises(NotSquare):
        is_unitary(np.ones((2, 3)))


def test_gram_matrix_is_hermitian():
    rng = np.random.default_rng(13)
    mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(4)]
    g = gram_matrix(mats)
    assert np.max(np.abs(g - g.conj().T)) < EPS


def test_gram_matrix_row_blocks_match_one_product(monkeypatch):
    rng = np.random.default_rng(29)
    complex_stack = rng.standard_normal((10, 4, 4)) + 1j * rng.standard_normal((10, 4, 4))
    real_stack = rng.standard_normal((10, 4, 4))
    monkeypatch.setattr(matcore, "_BLOCK_BYTES", 3 * 10 * 16)  # three complex Gram rows
    assert [rows.stop - rows.start for rows in matcore._blocks(10, 10 * 16)] == [3, 3, 3, 1]
    for stack in (complex_stack, real_stack):
        flat = stack.reshape(10, 16)
        g = gram_matrix(stack)
        assert g.dtype == stack.dtype
        assert np.max(np.abs(g - flat.conj() @ flat.T)) < 1e-12


@pytest.mark.parametrize("dtype", [float, complex])
def test_gram_rows_of_shifted_bases_are_rows_of_the_whole_gram(dtype):
    rng = np.random.default_rng(31)
    bases = rng.standard_normal((3, 5, 5)).astype(dtype)
    if dtype is complex:
        bases += 1j * rng.standard_normal((3, 5, 5))
    members = orbit_stack(bases, 5)
    assert members.shape == (15, 5, 5) and not members.flags.writeable
    assert orbit_stack(bases, 1) is bases
    rows = gram_matrix(bases, 5)
    whole = gram_matrix(members)
    assert rows.shape == (3, 15) and rows.dtype == dtype
    assert np.max(np.abs(rows - whole[::5])) < 1e-12


def rolled_rows(bases):
    """Row t, column t'*d + x: tr(bases[t]* bases[t'] shifted by x), every shift rolled over all d^2 entries.

    The dense reference for gram_matrix(bases, d): no support, no Hermitian mirror.
    """
    m, d = len(bases), bases.shape[-1]
    flat = bases.reshape(m, -1)
    rows = np.empty((m, m, d), dtype=np.result_type(bases, float))
    for x in range(d):
        rows[:, :, x] = flat.conj() @ np.roll(bases, (x, x), axis=(1, 2)).reshape(m, -1).T
    return rows.reshape(m, m * d)


def assert_rows_match_the_rolled_rows(bases):
    rows = gram_matrix(bases, bases.shape[-1])
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
    }[kind]()
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


@pytest.mark.parametrize("shifts", [1, 47])
def test_gram_passes_stay_inside_the_byte_budget(shifts, monkeypatch):
    # at p=47 one conjugated member is 76 KiB and one gathered shift of the
    # 24 bases 0.81 MiB: a 1 MiB budget holds a shift but not the 58 rows
    # that Gram-row bytes alone would allow with their conjugated members
    fam = build_residue_family(validate_prime(47), construct(24))
    uf = build_unitaries(fam, compute_phase(47, 23))
    bases = uf.unitaries if shifts == 1 else uf.bases
    monkeypatch.setattr(matcore, "_BLOCK_BYTES", 1 << 20)
    tracemalloc.start()
    try:
        rows = gram_matrix(bases, shifts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (len(bases), len(uf))
    assert peak - rows.nbytes <= matcore._BLOCK_BYTES


def test_read_only_stack_copies_unless_handed_over():
    handed = np.eye(3)[None].repeat(4, axis=0)
    handed.flags.writeable = False
    assert read_only_stack(handed, 3) is handed
    tail = handed[1:]  # a view of read-only memory is kept too
    assert read_only_stack(tail, 3) is tail
    writable = np.eye(3)[None].repeat(4, axis=0)
    view = writable.view()
    view.flags.writeable = False  # read-only, but writable through `writable`
    for given in (writable, view, list(writable), handed.astype(np.float32)):
        stack = read_only_stack(given, 3, float)
        assert not np.shares_memory(stack, writable) and not np.shares_memory(stack, handed)
        assert not stack.flags.writeable and stack.dtype == float
        assert np.array_equal(stack, handed)
    assert read_only_stack(handed, 3, complex).dtype == complex
    for wrong in (handed, handed[0], []):
        with pytest.raises(ShapeMismatch):
            read_only_stack(wrong, 4)


def test_stack_json_round_trip_is_exact():
    rng = np.random.default_rng(17)
    signed_zeros = np.array([[complex(-0.0, 1.5), complex(2.0, -0.0)], [complex(-0.0, -0.0), 0j]])
    complex_stack = rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5))
    for stack in (complex_stack, signed_zeros[None], complex_stack.real, signed_zeros.real[None]):
        obj = json.loads(json.dumps(stack_to_json(stack)))
        assert ("im" in obj) == np.iscomplexobj(stack)
        again = stack_from_json(obj, stack.shape[1])
        assert again.shape == stack.shape and again.dtype == stack.dtype
        assert again.tobytes() == stack.tobytes()  # bit-exact, sign of zero included
        assert not again.flags.writeable


def test_stack_json_rejects_bad_length():
    def drop_last(obj, part):
        del obj[part][-1]

    def string_entry(obj, part):
        obj[part][0] = "1.0"

    def list_entry(obj, part):
        obj[part][0] = [1.0]

    def null_entry(obj, part):
        obj[part][0] = None

    def shape_disagrees(obj, part):
        obj["shape"][0] += 1

    for mutate in (drop_last, string_entry, list_entry, null_entry, shape_disagrees):
        for stack in (np.eye(2)[None], np.eye(2)[None] * 1j):
            for part in ("re", "im") if np.iscomplexobj(stack) else ("re",):
                obj = stack_to_json(stack)
                mutate(obj, part)
                with pytest.raises(ShapeMismatch):
                    stack_from_json(obj, 2)


@pytest.mark.parametrize(
    "edit, error",
    [
        pytest.param(lambda obj: obj.update(shape=[0, 2, 2], re=[]), ShapeMismatch, id="no-member"),
        pytest.param(lambda obj: obj.update(shape=[1, 2]), ShapeMismatch, id="two-axes"),
        pytest.param(lambda obj: obj.update(shape=[1, 2, 2, 1]), ShapeMismatch, id="four-axes"),
        pytest.param(lambda obj: obj.update(shape=[1, 3, 3]), ShapeMismatch, id="not-d-by-d"),
        pytest.param(lambda obj: obj.update(re=7), ShapeMismatch, id="re-not-a-list"),
        pytest.param(lambda obj: obj.update(shape=[1, 2.0, 2]), MalformedArtifact, id="float-size"),
        pytest.param(lambda obj: obj.update(shape=[True, 2, 2]), MalformedArtifact, id="bool-size"),
        pytest.param(lambda obj: obj.update(shape=7), MalformedArtifact, id="shape-not-a-list"),
        pytest.param(lambda obj: obj["re"].__setitem__(1, float("nan")), MalformedArtifact, id="nan"),
        pytest.param(lambda obj: obj["re"].__setitem__(1, float("-inf")), MalformedArtifact, id="inf"),
    ],
)
def test_stack_json_rejects_bad_shape_or_value(edit, error):
    obj = stack_to_json(np.eye(2)[None])
    edit(obj)
    with pytest.raises(error):
        stack_from_json(obj, 2)


def test_stack_json_compares_lengths_before_allocating(monkeypatch):
    calls = []
    monkeypatch.setattr(np, "empty", lambda *a, **k: calls.append(a))
    obj = {"shape": [10**6, 10**4, 10**4], "re": [0.0]}
    with pytest.raises(ShapeMismatch):
        stack_from_json(obj, 10**4)
    assert calls == []


@pytest.mark.parametrize(
    "convert, value",
    [
        (matcore.json_int, True),
        (matcore.json_int, "7"),
        (matcore.json_int, 7.0),
        (matcore.json_int, None),
        (matcore.json_number, True),
        (matcore.json_number, "0.5"),
        (matcore.json_number, [0.5]),
        (matcore.json_number, float("nan")),
        (matcore.json_number, float("-inf")),
        (matcore.json_number, 10**400),
    ],
    ids=["int-bool", "int-string", "int-float", "int-null", "number-bool", "number-string",
         "number-list", "number-nan", "number-inf", "number-huge-int"],
)
def test_json_scalars_must_be_numbers_of_their_kind(convert, value):
    with pytest.raises(MalformedArtifact):
        convert(value, "field")
    assert matcore.json_int(7, "d") == 7 and matcore.json_number(-7, "z") == -7.0


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

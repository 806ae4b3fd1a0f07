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
    is_unitary,
    numerical_rank,
    orbit_stack,
    read_only_stack,
    stack_from_json,
    stack_to_json,
    sym_antisym_split,
)
from umebkit.numth import validate_prime
from umebkit.packing import build_residue_family, icosahedron_lines
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

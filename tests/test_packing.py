import json
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from umebkit import matcore, packing
from umebkit.cli import artifact_from_json, artifact_to_json
from umebkit.errors import (
    HadamardOrderMismatch,
    IndexOutOfRange,
    MalformedArtifact,
    NotOrthogonal,
    NotReal,
    RankOutOfRange,
    ShapeMismatch,
)
from umebkit.hadamard import HadamardMatrix, construct
from umebkit.matcore import SupportStack
from umebkit.numth import validate_prime
from umebkit.packing import (
    ProjectionFamily,
    beta_projections,
    build_residue_family,
    residue_base_vectors,
    icosahedron_lines,
    off_support_scale,
    verify_equiangular,
)
from umebkit.umeb import build_unitaries, compute_phase

from oracles import (
    dense_base_vectors,
    dense_equiangular,
    dual_family,
    identity_coefficient,
    member_stack,
    numerical_rank,
    projection_from_basis,
    support_stack,
)

EPS = 1e-9
SQRT2 = math.sqrt(2.0)


def p7_family():
    return build_residue_family(validate_prime(7), construct(4))


def test_beta_projections_values():
    assert beta_projections(7, 3) == Fraction(11, 9)
    assert beta_projections(23, 11) == Fraction(131, 25)
    # closed form (p^2 - 5)/(4(p+2)) at r = (p-1)/2
    for p in (3, 7, 23, 31):
        assert beta_projections(p, (p - 1) // 2) == Fraction(p * p - 5, 4 * (p + 2))
    for d in (3, 5, 9):
        assert beta_projections(d, 1) == Fraction(1, d + 2)


def test_beta_projections_rank_range():
    with pytest.raises(RankOutOfRange):
        beta_projections(7, 0)
    with pytest.raises(RankOutOfRange):
        beta_projections(7, 7)


@pytest.mark.parametrize("r", [0, 7])
def test_a_family_needs_a_rank_strictly_between_0_and_d(r):
    fam = p7_family()
    with pytest.raises(RankOutOfRange):
        ProjectionFamily(7, r, fam.bases, fam.beta)


def test_off_support_scale():
    assert abs(off_support_scale(7) - SQRT2) < 1e-15
    assert abs(off_support_scale(3) - (1 + math.sqrt(5)) / 2) < 1e-15


def loop_base_vectors(prime, h, t):
    """The base vectors of subspace t one at a time, as the construction states them: the reference."""
    p = prime.p
    c = off_support_scale(p)
    vectors = []
    for s in range(1, prime.half + 1):
        q = prime.residues[s - 1]
        v = np.zeros(p)
        v[q] = 1.0
        v[prime.k * q % p] = h.entries[s, t] * h.entries[0, t] * c
        vectors.append(v)
    return vectors


def test_residue_base_vectors_are_support_indices_and_coefficients():
    # p=7, k=3: the residues 1, 2, 4 and their partners 3, 6, 5; every coefficient is +-sqrt(2)
    ends, coefficients = residue_base_vectors(validate_prime(7), construct(4))
    assert ends.tolist() == [[1, 2, 4], [3, 6, 5]]
    assert coefficients.shape == (4, 3) and coefficients.dtype == float
    assert np.allclose(np.abs(coefficients), SQRT2, atol=1e-15)
    assert np.array_equal(dense_base_vectors(validate_prime(7), construct(4))[:, np.arange(3), ends[1]], coefficients)


def test_residue_base_vectors_p7_t0():
    vectors = dense_base_vectors(validate_prime(7), construct(4))
    assert vectors.shape == (4, 3, 7)
    expected = [
        [0, 1, 0, SQRT2, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, SQRT2],
        [0, 0, 0, 0, 1, SQRT2, 0],
    ]
    assert np.allclose(vectors[0], expected, atol=1e-15)


def test_residue_base_vectors_p7_t1_signs():
    vectors = dense_base_vectors(validate_prime(7), construct(4))
    expected = [
        [0, 1, 0, -SQRT2, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, SQRT2],
        [0, 0, 0, 0, 1, -SQRT2, 0],
    ]
    assert np.allclose(vectors[1], expected, atol=1e-15)


def test_residue_base_vectors_p3():
    golden = (1 + math.sqrt(5)) / 2
    vectors = dense_base_vectors(validate_prime(3), construct(2))
    assert vectors.shape == (2, 1, 3)
    assert np.allclose(vectors[0, 0], [0, 1, golden], atol=1e-15)


def test_residue_base_vector_norms():
    c = off_support_scale(7)
    vectors = dense_base_vectors(validate_prime(7), construct(4))
    assert np.max(np.abs(np.sum(vectors * vectors, axis=-1) - (1 + c * c))) < 1e-12


@pytest.mark.parametrize("p", [3, 7, 23, 31, 47, 71, 79])
def test_residue_base_vectors_are_the_vector_by_vector_construction(p):
    prime = validate_prime(p)
    h = construct((p + 1) // 2)
    # every column negated but the first: row 0 is no longer all +1, so the h[0, t] factor shows
    flipped = HadamardMatrix(h.order, h.entries * np.where(np.arange(h.order) == 0, 1, -1))
    for hadamard in (h, flipped):
        vectors = dense_base_vectors(prime, hadamard)
        assert vectors.shape == ((p + 1) // 2, prime.half, p)
        for t in range((p + 1) // 2):
            assert vectors[t].tobytes() == np.array(loop_base_vectors(prime, hadamard, t)).tobytes()


def test_residue_base_vectors_errors():
    prime = validate_prime(7)
    with pytest.raises(HadamardOrderMismatch):
        residue_base_vectors(prime, construct(8))
    # a prime built by hand: a residue index past p - 1, or one at 0; one far past p - 1 is refused
    # before the collision count, whose table would reach it
    for residues in ((1, 2, 11), (0, 2, 4), (1, 2, 1 << 50)):
        with pytest.raises(IndexOutOfRange):
            residue_base_vectors(replace(prime, residues=residues), construct(4))
    # k = 2 is a residue mod 7 (2 and 3 mod 23), so k*q lands on the residues: the supports
    # collide, and the build, which scatters each vector's outer product, refuses them
    for p, k in ((7, 2), (23, 2), (23, 3)):
        with pytest.raises(NotOrthogonal):
            build_residue_family(replace(validate_prime(p), k=k), construct((p + 1) // 2))
    fourth = replace(prime, residues=(1, 2, 4, 5))  # a fourth residue: 8 support indices among 6
    for build in (residue_base_vectors, build_residue_family):
        with pytest.raises(NotOrthogonal):
            build(fourth, construct(4))


@pytest.mark.parametrize("p", [3, 7, 23, 31, 47, 71, 79, 151])
def test_scattered_bases_are_the_projections_onto_the_base_vectors(p):
    # the scatter of each vector's 2 x 2 outer product against the dense product of the normalized vectors
    prime = validate_prime(p)
    h = construct((p + 1) // 2)
    bases = build_residue_family(prime, h).bases.dense()
    expected = projection_from_basis(dense_base_vectors(prime, h))
    assert bases.shape == expected.shape == ((p + 1) // 2, p, p) and bases.dtype == expected.dtype
    assert np.max(np.abs(bases - expected)) <= 2.3e-16
    assert np.array_equal(bases != 0, expected != 0)
    assert np.count_nonzero(bases[0]) == 2 * (p - 1)


def test_projection_families_are_real():
    fam = p7_family()
    for values in (fam.bases.values + 0j, fam.bases.values * 1j):
        with pytest.raises(NotReal):
            ProjectionFamily(7, 3, SupportStack(fam.bases.cols, values), fam.beta)


def test_residue_family_shift_one_matches_worked_case():
    # member 1 of the p=7 family is base 0 shifted by 1: every vector of base 0 moved one index on
    fam = p7_family()
    expected = [
        [0, 0, 1, 0, SQRT2, 0, 0],
        [SQRT2, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, SQRT2],
    ]
    assert np.max(np.abs(fam.projections[1] - projection_from_basis(expected))) <= 1e-15
    assert fam.projections[0].tobytes() == fam.bases.dense()[0].tobytes()  # shift 0 is the base itself


def test_projection_from_basis_single_vector():
    e0 = np.zeros(3)
    e0[0] = 1.0
    p = projection_from_basis([e0])
    assert np.allclose(p, np.diag([1.0, 0.0, 0.0]))


def test_projection_from_basis_p7_block():
    vectors = dense_base_vectors(validate_prime(7), construct(4))[0]
    p = projection_from_basis(vectors)
    assert abs(np.trace(p) - 3) < EPS
    assert np.max(np.abs(p @ p - p)) < EPS
    assert np.max(np.abs(p - p.T)) < EPS


def test_projection_from_basis_eigenvalues():
    p = projection_from_basis([np.array([1.0, 0, 0, 0]), np.array([0, 1.0, 0, 0])])
    assert np.allclose(sorted(np.linalg.eigvalsh(p)), [0, 0, 1, 1], atol=EPS)


def test_projection_from_basis_rejects_overlap():
    with pytest.raises(NotOrthogonal):
        projection_from_basis([np.array([1.0, 1.0, 0]), np.array([0.0, 1.0, 1.0])])


def test_projection_from_basis_of_a_stack_is_one_per_basis():
    vectors = dense_base_vectors(validate_prime(23), construct(12))
    stack = projection_from_basis(vectors)
    assert stack.shape == (12, 23, 23)
    for t, basis in enumerate(vectors):
        assert stack[t].tobytes() == projection_from_basis(basis).tobytes()
    # one overlapping basis, last in the stack: each basis is checked on its own
    bad = np.concatenate((vectors, [[[1.0, 1.0] + [0.0] * 21] + [[0.0, 1.0, 1.0] + [0.0] * 20] * 10]))
    with pytest.raises(NotOrthogonal):
        projection_from_basis(bad)
    with pytest.raises(NotOrthogonal):
        projection_from_basis(bad[-1])


def test_build_residue_family_p7():
    fam = p7_family()
    assert len(fam) == 28
    assert (fam.d, fam.r) == (7, 3)
    assert fam.beta == Fraction(11, 9)
    assert fam.bases.dense().shape == (4, 7, 7)
    report = verify_equiangular(fam)
    assert report.pairs == 378
    assert report.passed


def test_build_residue_family_p23():
    fam = build_residue_family(validate_prime(23), construct(12))
    assert len(fam) == 276
    assert fam.r == 11
    assert fam.beta == Fraction(131, 25)
    assert verify_equiangular(fam).passed


def test_build_residue_family_p3():
    fam = build_residue_family(validate_prime(3), construct(2))
    assert len(fam) == 6
    assert fam.r == 1
    assert fam.beta == Fraction(1, 5)
    report = verify_equiangular(fam)
    assert report.passed
    assert report.max_angle_dev < EPS


@pytest.mark.parametrize("k", [3, 5, 6])
def test_equiangularity_for_every_nonresidue_choice(k):
    fam = build_residue_family(validate_prime(7, k=k), construct(4))
    assert verify_equiangular(fam).passed


def test_verify_equiangular_single_base_is_one_orbit():
    # one base of the p=7 family: its 7 shifts, every pair of them at the common angle
    fam = p7_family()
    single = ProjectionFamily(d=7, r=3, bases=SupportStack(fam.bases.cols, fam.bases.values[:1]), beta=fam.beta)
    report = verify_equiangular(single)
    assert len(single) == 7 and report.pairs == 21
    assert report.passed


def test_verify_equiangular_flags_duplicate():
    fam = p7_family()
    dup = ProjectionFamily(
        d=7,
        r=3,
        bases=SupportStack(fam.bases.cols, np.concatenate((fam.bases.values, fam.bases.values[:1]))),
        beta=fam.beta,
    )
    report = verify_equiangular(dup)
    assert not report.passed
    # each member of the duplicated orbit pairs with its copy: tr(P P) = 3 against target 11/9
    assert abs(report.max_angle_dev - 16 / 9) < EPS


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
@pytest.mark.parametrize("at", [(0, 0, 0), (2, 3, 5), (3, 6, 6), (1, 0, 4)])  # on and off the support
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verify_equiangular_fails_a_base_with_a_non_finite_entry(value, at):
    fam = p7_family()
    bases = np.array(fam.bases.dense())
    bases[at] = value
    report = verify_equiangular(ProjectionFamily(7, 3, support_stack(bases, 7), fam.beta))
    assert not report.passed
    # the Gram rows carry it to the angles, not only the idempotency check
    assert not report.max_angle_dev <= EPS
    assert not report.max_idempotency_dev <= EPS


def test_an_oblique_idempotent_family_fails_the_idempotency_check():
    # P = e3 (e3 + e1)^T in d = 5: P P = P, tr P = 1 and no two of its shifts share an entry, but
    # P is not symmetric, so it is not an orthogonal projection.  P^T P - P is 1 at (1, 1) and (1, 3)
    e = np.eye(5)
    bases = np.outer(e[3], e[3] + e[1])[None]
    assert np.array_equal(bases @ bases, bases)
    report = verify_equiangular(ProjectionFamily(d=5, r=1, bases=support_stack(bases, 5), beta=Fraction(0)))
    assert report.max_angle_dev == 0.0 and report.max_rank_dev == 0.0
    assert report.max_idempotency_dev == 1.0
    assert not report.passed


def test_the_residue_family_is_built_without_a_dense_base():
    # at p=263 the dense bases alone are 132 * 263^2 doubles, 70 MiB; on their support they are 0.5 MiB
    prime, h = validate_prime(263), construct(132)
    build_residue_family(prime, h)  # the first call maps what numpy loads once
    tracemalloc.start()
    try:
        family = build_residue_family(prime, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert family.bases.values.shape == (132, 263, 2)
    assert peak <= 2 << 20


def test_dual_family_p7():
    dual = dual_family(p7_family())
    assert dual.r == 4
    assert dual.beta == Fraction(20, 9)
    assert dual.beta == beta_projections(7, 4)
    assert verify_equiangular(dual).passed


def test_dual_family_involution():
    fam = p7_family()
    again = dual_family(dual_family(fam))
    for p, q in zip(fam.projections, again.projections):
        assert np.max(np.abs(p - q)) < EPS


def test_dual_family_icosahedron():
    dual = dual_family(icosahedron_lines())
    assert dual.r == 2
    assert dual.beta == Fraction(6, 5)
    assert dual.beta == beta_projections(3, 2)
    assert verify_equiangular(dual).passed


def test_eye_minus_rejects_a_support_without_its_diagonal():
    # the rank-1 projection onto e0 in d = 3, compressed from its dense stack: rows 1 and 2 hold
    # padding column 0 and not their own, so I - w P, whose 1 lies on their diagonal, is refused
    # rather than held without it, when the unitary family's bases are read
    p = np.zeros((3, 3))
    p[0, 0] = 1.0
    fam = ProjectionFamily(d=3, r=1, bases=support_stack(p[None], 3), beta=Fraction(0))  # e0, e1 and e2
    assert fam.bases.cols.tolist() == [[0], [0], [0]]
    for build in (lambda: build_unitaries(fam, 1j).bases, lambda: dual_family(fam)):
        with pytest.raises(ShapeMismatch, match="its own column"):
            build()
    # the same projection on the support of its diagonal maps to I - w P on those columns
    fam = ProjectionFamily(d=3, r=1, bases=SupportStack(np.arange(3)[:, None], p.diagonal()[None, :, None]), beta=Fraction(0))
    dual, uf = dual_family(fam), build_unitaries(fam, 1j)
    for family, expected in ((dual, np.eye(3) - p), (uf, np.eye(3) - (1 - 1j) * p)):
        assert np.array_equal(family.bases.dense()[0], expected)
        assert family.bases.cols.tolist() == [[0], [1], [2]]
    assert np.array_equal(member_stack(dual), np.eye(3) - member_stack(fam))
    assert verify_equiangular(dual).passed


def test_dual_preserves_gap():
    fam = p7_family()
    dual = dual_family(fam)
    assert dual.beta - dual.r == fam.beta - fam.r


def test_icosahedron_lines():
    fam = icosahedron_lines()
    assert len(fam) == 6
    assert (fam.d, fam.r) == (3, 1)
    report = verify_equiangular(fam)
    assert report.passed
    assert report.max_angle_dev < 1e-12
    assert numerical_rank(list(fam.projections)) == 6
    # the six projections resolve the identity with coefficient 1/2
    total = sum(fam.projections)
    assert np.max(np.abs(total - 2 * np.eye(3))) < EPS


@pytest.mark.parametrize("p", [3, 7, 23, 31, 47, 71, 79])
def test_residue_family_equiangular_from_shift_zero(p):
    # P_(t, s) is P_(t, 0) conjugated by the s-fold cyclic shift, so the pairs
    # with a shift-0 member carry every value of tr(P_i P_j)
    prime = validate_prime(p)
    fam = build_residue_family(prime, construct((p + 1) // 2))
    stack = member_stack(fam).reshape(len(fam), -1)
    rows = np.arange(0, len(fam), p)  # member t*p + 0
    traces = stack[rows] @ stack.T
    traces[np.arange(len(rows)), rows] = float(fam.beta)
    assert np.max(np.abs(traces - float(fam.beta))) <= EPS


@pytest.mark.parametrize(
    "p", [3, 7, 23, 31, 47, pytest.param(71, marks=pytest.mark.slow),
          pytest.param(79, marks=pytest.mark.slow)]
)
def test_residue_family_is_the_per_shift_construction(p):
    # the orbit gather against one projection_from_basis per shifted basis
    prime = validate_prime(p)
    h = construct((p + 1) // 2)
    fam = build_residue_family(prime, h)
    assert len(fam.bases) == (p + 1) // 2
    for i, proj in enumerate(fam.projections):
        t, shift = divmod(i, p)
        expected = projection_from_basis(np.roll(loop_base_vectors(prime, h, t), shift, axis=-1))
        # byte equality: bit for bit, signed zeros included
        assert proj.dtype == expected.dtype and proj.shape == expected.shape
        assert proj.tobytes() == expected.tobytes()


def _with_last_base(fam, edit):
    """fam with its last base, and so every shift of it, replaced by edit(base)."""
    bases = np.array(fam.bases.dense())
    bases[-1] = edit(bases[-1])
    return replace(fam, bases=support_stack(bases, fam.d))


@pytest.mark.parametrize("p", [3, 7, 23])
def test_dense_members_are_the_shifted_bases(p):
    # member t*p + x is P_t[i - x, j - x], bit for bit, for the family, its dual and its unitaries
    fam = residue_family(p)
    uf = build_unitaries(fam, compute_phase(p, fam.r))
    families = [fam, dual_family(fam), uf] + ([icosahedron_lines()] if p == 3 else [])
    for family in families:
        # both families' members are a sequence read member by member
        members = family.unitaries if family is uf else family.projections
        assert len(members) == p * (p + 1) // 2
        bases = family.bases.dense()
        for i, member in enumerate(members):
            t, x = divmod(i, p)
            assert member.shape == (p, p) and not member.flags.writeable
            assert member.tobytes() == np.roll(bases[t], (x, x), axis=(0, 1)).tobytes()
        assert i == len(members) - 1
    # reading the members leaves nothing on the family
    assert list(vars(fam)) == ["d", "r", "bases", "beta"]


def test_verify_equiangular_checks_the_last_chunk(monkeypatch):
    # a base's idempotency terms at p=23: 23 * 2 * 2 products and 23 * 2 values of c, with
    # their keys, and 47 sums with theirs, 16 bytes each; a budget of five such bases sums
    # the 12 bases in blocks of 5, 5 and 2, one np.bincount each
    monkeypatch.setattr(matcore, "_BLOCK_BYTES", 5 * (23 * 2 * 2 + 23 * 2 + 47) * 16)
    fam = build_residue_family(validate_prime(23), construct(12))
    bincount, sums = np.bincount, []
    monkeypatch.setattr(np, "bincount", lambda *a, **k: (len(a) == 3 and sums.append(a[2])) or bincount(*a, **k))
    assert verify_equiangular(fam).passed
    assert sums == [5 * 47, 5 * 47, 2 * 47]

    def poison(base):
        base[0, 1] = np.nan
        return base

    report = verify_equiangular(_with_last_base(fam, poison))
    assert not report.passed
    assert math.isnan(report.max_angle_dev)
    assert math.isnan(report.max_idempotency_dev)

    report = verify_equiangular(_with_last_base(fam, lambda base: base * (1 + 1e-6)))
    assert not report.passed
    assert report.max_idempotency_dev > EPS


def residue_family(p):
    return build_residue_family(validate_prime(p), construct((p + 1) // 2))


def spy_gram_shapes(monkeypatch, module):
    """Record the shapes (c, h) of every Gram that module computes: its T x T products and its correlations."""
    shapes = []
    cyclic_gram = module.cyclic_gram

    def spy(*args, **kwargs):
        gram = cyclic_gram(*args, **kwargs)
        shapes.append((gram.c.shape, gram.h.shape))
        return gram

    monkeypatch.setattr(module, "cyclic_gram", spy)
    return shapes


def rebuilt(obj):
    """The projection family of a generator artifact, read by cli.artifact_from_json."""
    prime, h, z = artifact_from_json(obj)
    assert z is None
    return build_residue_family(prime, h)


def assert_matches_dense(report, oracle):
    """Every float field within 1e-13 of the oracle's, every other field equal."""
    for field, value in oracle.items():
        if isinstance(value, float):
            assert abs(getattr(report, field) - value) <= 1e-13, field
        else:
            assert getattr(report, field) == value, field


ORBIT_FAMILIES = {
    **{f"p{p}": (lambda p=p: residue_family(p)) for p in (3, 7, 23, 31, 47, 71, 79)},
    "dual7": lambda: dual_family(p7_family()),
    "json7": lambda: rebuilt(artifact_to_json(validate_prime(7), construct(4))),
}


@pytest.mark.parametrize(
    "name", [pytest.param(n, marks=pytest.mark.slow) if n in ("p71", "p79") else n for n in ORBIT_FAMILIES]
)
def test_equiangular_check_from_orbit_rows_matches_the_dense_check(name, monkeypatch):
    fam = ORBIT_FAMILIES[name]()
    p, n = fam.d, len(fam)
    shapes = spy_gram_shapes(monkeypatch, packing)
    report = verify_equiangular(fam)
    t = (p + 1) // 2
    assert shapes == [((t, t), (1, 1, p))] and n == t * p
    assert report.passed
    assert_matches_dense(report, dense_equiangular(member_stack(fam), fam.r, fam.beta))


def test_gram_matrix_nonsingular_for_generated_families():
    for fam in (p7_family(), icosahedron_lines()):
        flat = np.asarray([p.ravel() for p in fam.projections])
        eigs = np.linalg.eigvalsh(flat @ flat.T)
        assert eigs[0] > 1e-7 * eigs[-1]


@pytest.mark.parametrize(
    "family,coeff",
    [
        (lambda: p7_family(), Fraction(1, 12)),
        (lambda: icosahedron_lines(), Fraction(1, 2)),
    ],
)
def test_identity_reconstruction(family, coeff):
    fam = family()
    x = identity_coefficient(fam.d, fam.r, fam.beta)
    assert x == coeff
    total = float(x) * sum(fam.projections)
    assert np.max(np.abs(total - np.eye(fam.d))) < EPS * len(fam)


def test_projections_real_symmetric():
    fam = p7_family()
    for p in fam.projections:
        assert np.isrealobj(p)
        assert np.max(np.abs(p - p.T)) < EPS


def test_family_json_round_trip():
    fam = p7_family()
    obj = artifact_to_json(validate_prime(7), construct(4))
    assert obj == {"p": 7, "k": 3, "hadamard": {"order": 4, "rows": construct(4).entries.tolist()}}
    prime, h, z = artifact_from_json(obj)  # the generator, read back, and no phase
    assert prime == validate_prime(7) and z is None and h.entries.tobytes() == construct(4).entries.tobytes()
    again = build_residue_family(prime, h)
    assert (again.d, again.r, again.beta) == (fam.d, fam.r, fam.beta) and len(again) == len(fam) == 28
    assert again.bases.values.dtype == float
    assert again.bases.dense().tobytes() == fam.bases.dense().tobytes()
    assert member_stack(again).tobytes() == member_stack(fam).tobytes()
    before = verify_equiangular(fam)
    after = verify_equiangular(again)
    assert before == after


@pytest.mark.parametrize("p", [3, 7, 23, 31, 47, 79])
def test_family_json_round_trips_the_support_table_bit_for_bit(p):
    # the artifact holds the generator, not the table: the loader rebuilds the same cols and values
    prime, h = validate_prime(p), construct((p + 1) // 2)
    fam = build_residue_family(prime, h)
    obj = artifact_to_json(prime, h)
    assert sorted(obj) == ["hadamard", "k", "p"] and obj["hadamard"]["order"] == (p + 1) // 2
    again = rebuilt(json.loads(json.dumps(obj, sort_keys=True, separators=(",", ":"))))
    for mine, theirs in ((again.bases.cols, fam.bases.cols), (again.bases.values, fam.bases.values)):
        assert (mine.dtype, mine.shape, mine.tobytes()) == (theirs.dtype, theirs.shape, theirs.tobytes())


def test_family_json_checks_the_coefficient_of_an_orbit_family():
    # the rebuilt family puts off_support_scale(p) on the non-residue index: row q of every base,
    # q a residue, holds (1, +-C) times the same factor at its columns q and kq
    for p in (3, 7, 23):
        prime = validate_prime(p)
        fam = rebuilt(artifact_to_json(prime, construct((p + 1) // 2)))
        q = np.asarray(prime.residues)
        cols = fam.bases.cols[q]
        assert np.array_equal(cols, np.sort(np.stack((q, prime.k * q % p), axis=1), axis=1))
        on_q, on_kq = (fam.bases.at(q, c) for c in (q, prime.k * q % p))
        assert np.allclose(np.abs(on_kq / on_q), off_support_scale(p), rtol=1e-14, atol=0)


def test_family_json_icosahedron_round_trips_with_three_shifts():
    fam = icosahedron_lines()
    obj = artifact_to_json(validate_prime(3), construct(2))
    assert obj == {"p": 3, "k": 2, "hadamard": {"order": 2, "rows": [[1, 1], [1, -1]]}}
    again = rebuilt(json.loads(json.dumps(obj)))
    assert len(again) == 6
    assert again.bases.dense().tobytes() == fam.bases.dense().tobytes()
    assert verify_equiangular(again) == verify_equiangular(fam)


def test_icosahedron_lines_are_the_residue_family_at_p3():
    # the paper's construction at p = 3 gives the projections onto the six icosahedron diagonals:
    # the standard golden-ratio coordinates (0, 1, phi) and (0, -1, phi), with phi = (1 + sqrt 5)/2,
    # and their cyclic rotations, computed here independently of the construction
    lines = icosahedron_lines()
    residue = residue_family(3)
    assert (lines.d, lines.r, lines.beta, len(lines)) == (residue.d, residue.r, residue.beta, 6)
    for mine, theirs in ((lines.bases.cols, residue.bases.cols), (lines.bases.values, residue.bases.values)):
        assert (mine.dtype, mine.shape, mine.tobytes()) == (theirs.dtype, theirs.shape, theirs.tobytes())
    phi = (1 + math.sqrt(5)) / 2
    assert phi == off_support_scale(3)
    diagonals = np.array([(0.0, 1.0, phi), (0.0, -1.0, phi)]) / math.sqrt(1.0 + phi * phi)
    # member t*3 + x is base t shifted by x, the projection onto diagonal t rotated x places
    lines_by_rotation = [np.outer(np.roll(v, x), np.roll(v, x)) for v in diagonals for x in range(3)]
    assert all(np.array_equal(mine, theirs) for mine, theirs in zip(lines.projections, lines_by_rotation, strict=True))


def test_a_hand_made_family_round_trips():
    # a Hadamard matrix that is not construct's (columns negated, rows permuted) writes and reads
    # back as itself, and builds a family of the construction that passes the check
    prime = validate_prime(23)
    rows = construct(12).entries * np.where(np.arange(12) % 5 == 1, -1, 1)
    made = HadamardMatrix(12, rows[np.random.default_rng(3).permutation(12)])
    obj = json.loads(json.dumps(artifact_to_json(prime, made)))
    assert obj["hadamard"]["rows"] == made.entries.tolist() != construct(12).entries.tolist()
    again = rebuilt(obj)
    assert again.bases.dense().tobytes() == build_residue_family(prime, made).bases.dense().tobytes()
    assert verify_equiangular(again).passed


def test_family_json_rejects_the_dense_format():
    obj = artifact_to_json(validate_prime(7), construct(4))
    bases = p7_family().bases
    dense = {"shape": [4, 7, 7], "re": bases.dense().ravel().tolist()}
    table = {"shape": [4, 7, 2], "cols": bases.cols.ravel().tolist(), "values": bases.values.ravel().tolist()}
    # provenance and members of earlier versions, the shift count, dense bases and the support table
    for key, value in (("provenance", [[0, 0]]), ("projections", dense), ("shifts", 7), ("bases", dense), ("bases", table)):
        with pytest.raises(MalformedArtifact, match="fields"):
            artifact_from_json({**obj, key: value})
    with pytest.raises(MalformedArtifact, match="fields"):
        artifact_from_json({"d": 7, "r": 3, "beta_num": 11, "beta_den": 9, "C": off_support_scale(7), "bases": table})

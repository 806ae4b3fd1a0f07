import json
import math
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest

from umebkit import matcore, packing
from umebkit.errors import (
    HadamardOrderMismatch,
    IndexOutOfRange,
    MalformedArtifact,
    NotOrthogonal,
    OutOfRange,
    RankOutOfRange,
)
from umebkit.hadamard import HadamardMatrix, construct
from umebkit.matcore import numerical_rank
from umebkit.numth import validate_prime
from umebkit.packing import (
    ProjectionFamily,
    beta_lines,
    beta_projections,
    build_residue_family,
    residue_base_vectors,
    dual_family,
    family_from_json,
    family_to_json,
    icosahedron_lines,
    identity_coefficient,
    off_support_scale,
    projection_from_basis,
    verify_equiangular,
)
from umebkit.umeb import build_unitaries, compute_phase

EPS = 1e-9
SQRT2 = math.sqrt(2.0)


def p7_family():
    return build_residue_family(validate_prime(7), construct(4))


def test_beta_lines_values():
    assert abs(beta_lines(3) - 1 / math.sqrt(5)) < 1e-15
    assert abs(beta_lines(7) - 1 / 3) < 1e-15
    assert abs(beta_lines(23) - 1 / 5) < 1e-15


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


def test_residue_base_vectors_p7_t0():
    vectors = residue_base_vectors(validate_prime(7), construct(4))
    assert vectors.shape == (4, 3, 7)
    expected = [
        [0, 1, 0, SQRT2, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, SQRT2],
        [0, 0, 0, 0, 1, SQRT2, 0],
    ]
    assert np.allclose(vectors[0], expected, atol=1e-15)


def test_residue_base_vectors_p7_t1_signs():
    vectors = residue_base_vectors(validate_prime(7), construct(4))
    expected = [
        [0, 1, 0, -SQRT2, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, SQRT2],
        [0, 0, 0, 0, 1, -SQRT2, 0],
    ]
    assert np.allclose(vectors[1], expected, atol=1e-15)


def test_residue_base_vectors_p3():
    golden = (1 + math.sqrt(5)) / 2
    vectors = residue_base_vectors(validate_prime(3), construct(2))
    assert vectors.shape == (2, 1, 3)
    assert np.allclose(vectors[0, 0], [0, 1, golden], atol=1e-15)


def test_residue_base_vector_norms():
    c = off_support_scale(7)
    vectors = residue_base_vectors(validate_prime(7), construct(4))
    assert np.max(np.abs(np.sum(vectors * vectors, axis=-1) - (1 + c * c))) < 1e-12


@pytest.mark.parametrize("p", [3, 7, 23, 31, 47, 71, 79])
def test_residue_base_vectors_are_the_vector_by_vector_construction(p):
    prime = validate_prime(p)
    h = construct((p + 1) // 2)
    # every column negated but the first: row 0 is no longer all +1, so the h[0, t] factor shows
    flipped = HadamardMatrix(h.order, h.entries * np.where(np.arange(h.order) == 0, 1, -1))
    for hadamard in (h, flipped):
        vectors = residue_base_vectors(prime, hadamard)
        assert vectors.shape == ((p + 1) // 2, prime.half, p)
        for t in range((p + 1) // 2):
            assert vectors[t].tobytes() == np.array(loop_base_vectors(prime, hadamard, t)).tobytes()


def test_residue_base_vectors_errors():
    prime = validate_prime(7)
    with pytest.raises(HadamardOrderMismatch):
        residue_base_vectors(prime, construct(8))
    # a prime built by hand: a residue index past p - 1, or one at 0
    for residues in ((1, 2, 11), (0, 2, 4)):
        with pytest.raises(IndexOutOfRange):
            residue_base_vectors(replace(prime, residues=residues), construct(4))
    # k = 2 is a residue mod 7, so k*q lands on the residues: the supports collide
    with pytest.raises(NotOrthogonal):
        build_residue_family(replace(prime, k=2), construct(4))
    with pytest.raises(NotOrthogonal):  # a fourth residue: 8 support indices among 6
        residue_base_vectors(replace(prime, residues=(1, 2, 4, 5)), construct(4))


def test_residue_family_shift_one_matches_worked_case():
    # member 1 of the p=7 family is base 0 shifted by 1: every vector of base 0 moved one index on
    fam = p7_family()
    expected = [
        [0, 0, 1, 0, SQRT2, 0, 0],
        [SQRT2, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, SQRT2],
    ]
    assert np.max(np.abs(fam.projections[1] - projection_from_basis(expected))) <= 1e-15
    assert fam.projections[0].tobytes() == fam.bases[0].tobytes()  # shift 0 is the base itself


def test_projection_from_basis_single_vector():
    e0 = np.zeros(3)
    e0[0] = 1.0
    p = projection_from_basis([e0])
    assert np.allclose(p, np.diag([1.0, 0.0, 0.0]))


def test_projection_from_basis_p7_block():
    vectors = residue_base_vectors(validate_prime(7), construct(4))[0]
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
    vectors = residue_base_vectors(validate_prime(23), construct(12))
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
    assert fam.shifts == 7 and fam.bases.shape == (4, 7, 7)
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


def test_verify_equiangular_single_projection_vacuous():
    fam = p7_family()
    single = ProjectionFamily(d=7, r=3, bases=fam.projections[:1], beta=fam.beta, scale=fam.scale)
    report = verify_equiangular(single)
    assert report.pairs == 0
    assert report.passed


def test_verify_equiangular_flags_duplicate():
    fam = p7_family()
    dup = ProjectionFamily(
        d=7,
        r=3,
        bases=np.concatenate((fam.projections, fam.projections[:1])),
        beta=fam.beta,
        scale=fam.scale,
    )
    report = verify_equiangular(dup)
    assert not report.passed
    # duplicated member pairs with itself: tr(P P) = 3 against target 11/9
    assert abs(report.max_angle_dev - 16 / 9) < EPS


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
@pytest.mark.parametrize("at", [(0, 0, 0), (2, 3, 5), (3, 6, 6), (1, 0, 4)])  # on and off the support
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verify_equiangular_fails_a_base_with_a_non_finite_entry(value, at):
    fam = p7_family()
    bases = np.array(fam.bases)
    bases[at] = value
    report = verify_equiangular(ProjectionFamily(7, 3, bases, fam.beta, shifts=7))
    assert not report.passed
    # the Gram rows carry it to the angles, not only the idempotency check
    assert not report.max_angle_dev <= EPS
    assert not report.max_idempotency_dev <= EPS


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
    stack = np.asarray(fam.projections).reshape(len(fam), -1)
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
    assert fam.shifts == p and len(fam.bases) == (p + 1) // 2
    for i, proj in enumerate(fam.projections):
        t, shift = divmod(i, p)
        expected = projection_from_basis(np.roll(loop_base_vectors(prime, h, t), shift, axis=-1))
        # byte equality: bit for bit, signed zeros included
        assert proj.dtype == expected.dtype and proj.shape == expected.shape
        assert proj.tobytes() == expected.tobytes()


def _with_last_member(fam, last):
    """The dense twin of fam with its last member replaced: shifts = 1, every member a base."""
    return ProjectionFamily(fam.d, fam.r, np.concatenate((fam.projections[:-1], [last])), fam.beta)


@pytest.mark.parametrize("p", [3, 7, 23])
def test_dense_members_are_the_shifted_bases(p):
    # member t*p + x is P_t[i - x, j - x], bit for bit, for the family, its dual and its unitaries
    fam = residue_family(p)
    uf = build_unitaries(fam, compute_phase(p, fam.r))
    for family, members in ((fam, fam.projections), (dual_family(fam), dual_family(fam).projections), (uf, uf.unitaries)):
        assert members.shape == (p * (p + 1) // 2, p, p) and not members.flags.writeable
        for i, member in enumerate(members):
            t, x = divmod(i, p)
            assert member.tobytes() == np.roll(family.bases[t], (x, x), axis=(0, 1)).tobytes()
    assert fam.projections is fam.projections  # gathered once
    icosahedron = icosahedron_lines()
    assert icosahedron.projections is icosahedron.bases


def test_families_reject_a_shift_count_other_than_one_or_d():
    fam = p7_family()
    uf = build_unitaries(fam, compute_phase(7, 3))
    for shifts in (0, 2, 6, 8, 49, -7):
        with pytest.raises(OutOfRange, match="shifts"):
            replace(fam, shifts=shifts)
        with pytest.raises(OutOfRange, match="shifts"):
            replace(uf, shifts=shifts)
    assert len(replace(fam, shifts=1)) == 4 and len(replace(uf, shifts=1)) == 4


def test_verify_equiangular_checks_the_last_chunk(monkeypatch):
    # blocks of 100 real 23 x 23 bases: 100 + 100 + 76 idempotency blocks of the dense twin
    monkeypatch.setattr(matcore, "_BLOCK_BYTES", 100 * 23 * 23 * 8)
    fam = build_residue_family(validate_prime(23), construct(12))
    per_block = matcore._BLOCK_BYTES // (23 * 23 * fam.projections.itemsize)
    assert per_block < len(fam) and len(fam) % per_block and verify_equiangular(fam).passed

    poisoned = fam.projections[-1].copy()
    poisoned[0, 1] = np.nan
    report = verify_equiangular(_with_last_member(fam, poisoned))
    assert not report.passed
    assert math.isnan(report.max_angle_dev)
    assert math.isnan(report.max_idempotency_dev)

    report = verify_equiangular(_with_last_member(fam, fam.projections[-1] * (1 + 1e-6)))
    assert not report.passed
    assert report.max_idempotency_dev > EPS


def residue_family(p):
    return build_residue_family(validate_prime(p), construct((p + 1) // 2))


def dense(fam):
    """The dense twin of a family: its members as bases with shifts = 1, the oracle that reads every Gram row."""
    return ProjectionFamily(fam.d, fam.r, fam.projections, fam.beta, scale=fam.scale)


def spy_gram_shapes(monkeypatch, module):
    """Record the shape of every Gram, or block of Gram rows, that module computes."""
    shapes = []
    gram_matrix = module.gram_matrix

    def spy(*args, **kwargs):
        gram = gram_matrix(*args, **kwargs)
        shapes.append(gram.shape)
        return gram

    monkeypatch.setattr(module, "gram_matrix", spy)
    return shapes


def assert_matches_dense(report, oracle):
    """Every float field within 1e-13 of the oracle's, every other field equal."""
    for field, value in asdict(oracle).items():
        if isinstance(value, float):
            assert abs(getattr(report, field) - value) <= 1e-13, field
        else:
            assert getattr(report, field) == value, field


ORBIT_FAMILIES = {
    **{f"p{p}": (lambda p=p: residue_family(p)) for p in (3, 7, 23, 31, 47, 71, 79)},
    "dual7": lambda: dual_family(p7_family()),
    "json7": lambda: family_from_json(family_to_json(p7_family())),
}


@pytest.mark.parametrize(
    "name", [pytest.param(n, marks=pytest.mark.slow) if n in ("p71", "p79") else n for n in ORBIT_FAMILIES]
)
def test_equiangular_check_from_orbit_rows_matches_the_dense_check(name, monkeypatch):
    fam = ORBIT_FAMILIES[name]()
    p, n = fam.d, len(fam)
    shapes = spy_gram_shapes(monkeypatch, packing)
    report = verify_equiangular(fam)
    oracle = verify_equiangular(dense(fam))
    assert fam.shifts == p
    assert shapes == [((p + 1) // 2, n), (n, n)]
    assert report.passed
    assert_matches_dense(report, oracle)


def _perturbed_entry(fam):
    members = np.array(fam.projections)
    members[-1, 2, 4] += 1e-12  # the last member
    return replace(fam, bases=members, shifts=1)


def _swapped_orbits(fam):
    members = np.array(fam.projections)
    members[[3, 10]] = members[[10, 3]]  # shift 3 of orbits 0 and 1
    return replace(fam, bases=members, shifts=1)


def _not_whole_orbits(fam):
    return replace(fam, bases=fam.projections[:27], shifts=1)


@pytest.mark.parametrize(
    "build",
    [lambda: icosahedron_lines(), lambda: _perturbed_entry(p7_family()),
     lambda: _swapped_orbits(p7_family()), lambda: _not_whole_orbits(p7_family())],
    ids=["icosahedron", "perturbed-entry", "swapped-orbits", "not-whole-orbits"],
)
def test_equiangular_check_without_orbit_structure_reads_every_gram_row(build, monkeypatch):
    fam = build()
    n = len(fam)
    shapes = spy_gram_shapes(monkeypatch, packing)
    report = verify_equiangular(fam)
    assert fam.shifts == 1
    assert shapes == [(n, n)]
    assert report.passed  # each is still equiangular within eps
    assert report == verify_equiangular(dense(fam))


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
    again = family_from_json(family_to_json(fam))
    assert (again.d, again.r, again.beta) == (fam.d, fam.r, fam.beta)
    assert again.shifts == fam.shifts == 7
    assert again.bases.dtype == float
    assert again.bases.tobytes() == fam.bases.tobytes()
    assert again.projections.tobytes() == fam.projections.tobytes()
    before = verify_equiangular(fam)
    after = verify_equiangular(again)
    assert before == after


def test_family_json_checks_the_coefficient_of_an_orbit_family():
    for fam in (p7_family(), dual_family(p7_family())):
        obj = family_to_json(fam)
        assert family_from_json(obj).scale == off_support_scale(7)
        for scale in (None, off_support_scale(7) * (1 + 1e-12), off_support_scale(23)):
            with pytest.raises(MalformedArtifact, match="C = "):
                family_from_json({**obj, "C": scale})
    # with shifts = 1 C is not the residue coefficient, and any value loads
    obj = family_to_json(icosahedron_lines())
    assert family_from_json({**obj, "C": 1.5}).scale == 1.5
    obj = family_to_json(dense(p7_family()))
    assert family_from_json({**obj, "C": None}).scale is None


def test_family_json_icosahedron_has_one_shift():
    fam = icosahedron_lines()
    obj = family_to_json(fam)
    assert obj["C"] is None
    assert obj["shifts"] == 1 and obj["bases"]["shape"] == [6, 3, 3]
    again = family_from_json(json.loads(json.dumps(obj)))
    assert again.shifts == 1 and len(again) == 6
    assert again.bases.tobytes() == fam.bases.tobytes()
    assert verify_equiangular(again) == verify_equiangular(fam)


def test_family_json_rejects_the_dense_format():
    obj = family_to_json(p7_family())
    for key, value in (("provenance", [[0, 0]]), ("projections", obj["bases"])):
        with pytest.raises(MalformedArtifact, match="fields"):
            family_from_json({**obj, key: value})

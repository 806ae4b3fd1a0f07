import json
import math
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest

from umebkit import matcore, umeb
from umebkit.cli import unitary_family_from_json, unitary_family_to_json
from umebkit.errors import Infeasible, RankOutOfRange, ShapeMismatch
from umebkit.hadamard import construct
from umebkit.matcore import Tolerance, gram_matrix, numerical_rank
from umebkit.numth import validate_prime
from umebkit.packing import (
    ProjectionFamily,
    build_residue_family,
    dual_family,
    icosahedron_lines,
    verify_equiangular,
)
from umebkit.umeb import (
    UnitaryFamily,
    build_unitaries,
    certify_umeb,
    cj_states,
    compute_phase,
    feasibility,
    line_feasibility_sweep,
)

EPS = 1e-9


def cubic(d, r):
    """Sign oracle from expanding d(d+2)(d-1) <= 4r(d+1)(d-r)."""
    return d**3 + d**2 * (1 - 4 * r) + d * (4 * r**2 - 4 * r - 2) + 4 * r**2


def p7_unitaries():
    fam = build_residue_family(validate_prime(7), construct(4))
    return build_unitaries(fam, compute_phase(7, 3))


def test_feasibility_d3_lines():
    rep = feasibility(3, 1)
    assert rep.feasible
    assert rep.re_z == Fraction(-7, 8)
    assert rep.allowed_d_for_r == frozenset({1, 2, 3})


def test_feasibility_d5_lines_infeasible():
    rep = feasibility(5, 1)
    assert not rep.feasible
    assert rep.re_z == Fraction(-23, 12)


def test_feasibility_p7():
    rep = feasibility(7, 3)
    assert rep.feasible
    assert rep.re_z == Fraction(-31, 32)
    # d = 2r+1 closed form: -1 + 2/(d+1)^2
    assert rep.re_z == -1 + Fraction(2, 8 * 8)


def test_feasibility_d_equals_2r():
    rep = feasibility(6, 3)
    assert rep.feasible
    assert rep.re_z == Fraction(-19, 21)
    assert rep.re_z == -1 + Fraction(4, 6 * 7)


def test_feasibility_rank_range():
    with pytest.raises(RankOutOfRange):
        feasibility(7, 0)
    with pytest.raises(RankOutOfRange):
        feasibility(7, 7)


@pytest.mark.parametrize("r", range(1, 11))
def test_feasibility_matches_cubic_oracle(r):
    for d in range(r + 1, 4 * r + 5):
        assert feasibility(d, r).feasible == (cubic(d, r) <= 0)
    feasible_set = {d for d in range(r + 1, 4 * r + 5) if feasibility(d, r).feasible}
    assert feasible_set == {2 * r - 1, 2 * r, 2 * r + 1} & set(range(r + 1, 4 * r + 5))


@pytest.mark.parametrize("r", range(1, 11))
def test_allowed_set_matches_cubic_over_positive_integers(r):
    expected = {d for d in range(1, 4 * r + 5) if cubic(d, r) <= 0}
    assert feasibility(r + 1, r).allowed_d_for_r == expected


def test_compute_phase_d3():
    z = compute_phase(3, 1)
    assert z.real == -7 / 8
    assert abs(z.imag - math.sqrt(15) / 8) < 1e-15
    assert abs(abs(z) - 1) < 1e-15


def test_compute_phase_p7():
    z = compute_phase(7, 3)
    assert z.real == -31 / 32
    assert abs(z.imag - math.sqrt(63) / 32) < 1e-15


def test_compute_phase_infeasible():
    with pytest.raises(Infeasible):
        compute_phase(5, 1)


@pytest.mark.parametrize("d,r", [(7, 3), (23, 11), (9, 4)])
def test_phase_duality(d, r):
    assert feasibility(d, r).re_z == feasibility(d, d - r).re_z
    assert compute_phase(d, r) == compute_phase(d, d - r)


def test_build_unitaries_degenerate_phase():
    fam = icosahedron_lines()
    uf = build_unitaries(fam, 1.0 + 0.0j)
    for u in uf.unitaries:
        assert np.max(np.abs(u - np.eye(3))) < EPS
    # degenerate family is rejected by the certificate, not the builder
    assert not certify_umeb(uf).unextendible_verdict


def test_unitarity_for_any_unit_phase():
    rng = np.random.default_rng(23)
    basis = np.linalg.qr(rng.standard_normal((7, 3)))[0]
    proj = basis @ basis.T
    for theta in (0.3, 1.2, 2.9):
        z = complex(math.cos(theta), math.sin(theta))
        u = np.eye(7) - (1 - z) * proj
        assert np.max(np.abs(u.conj().T @ u - np.eye(7))) < EPS


def test_orthogonality_identity():
    # tr(U_i* U_j) = d + (beta - r)(2 - 2 Re z) for i != j, any unit phase
    fam = build_residue_family(validate_prime(7), construct(4))
    z = complex(math.cos(2.0), math.sin(2.0))
    uf = build_unitaries(fam, z)
    expected = 7 + float(fam.beta - fam.r) * (2 - 2 * z.real)
    for i, j in ((0, 1), (3, 17), (10, 27)):
        got = np.trace(uf.unitaries[i].conj().T @ uf.unitaries[j])
        assert abs(got - expected) < EPS


def test_eigenstructure_of_unitaries():
    fam = build_residue_family(validate_prime(7), construct(4))
    z = compute_phase(7, 3)
    uf = build_unitaries(fam, z)
    eigs = np.linalg.eigvals(uf.unitaries[0])
    close_to_z = np.sum(np.abs(eigs - z) < 1e-9)
    close_to_one = np.sum(np.abs(eigs - 1) < 1e-9)
    assert (close_to_z, close_to_one) == (3, 4)


def test_certify_p7():
    cert = certify_umeb(p7_unitaries())
    assert cert.d == 7
    assert cert.cardinality == 28
    assert cert.max_unitarity_dev <= 1e-10
    assert cert.max_orthogonality_dev <= 1e-8
    assert cert.span_rank == 28
    assert cert.symmetric_span
    assert cert.complement_antisymmetric
    assert cert.d_odd
    assert cert.unextendible_verdict
    assert cert.cj_orthonormality_dev <= 1e-10


def test_certify_icosahedron():
    fam = icosahedron_lines()
    cert = certify_umeb(build_unitaries(fam, compute_phase(3, 1)))
    assert cert.cardinality == 6
    assert cert.span_rank == 6
    assert cert.unextendible_verdict


def test_certify_truncated_family_fails():
    uf = p7_unitaries()
    truncated = UnitaryFamily(d=7, z=uf.z, bases=uf.unitaries[:27], source=None)
    cert = certify_umeb(truncated)
    assert cert.span_rank == 27
    assert not cert.symmetric_span
    assert not cert.unextendible_verdict


def test_certify_verdict_monotone_under_removal():
    uf = p7_unitaries()
    for drop in range(28):
        rest = np.delete(uf.unitaries, drop, axis=0)
        cert = certify_umeb(UnitaryFamily(d=7, z=uf.z, bases=rest, source=None))
        assert not cert.symmetric_span
        assert not cert.unextendible_verdict


def _p7_with_first(replace):
    uf = p7_unitaries()
    first = replace(uf.unitaries[0], uf.source.projections[0])
    return UnitaryFamily(d=7, z=uf.z, bases=np.concatenate(([first], uf.unitaries[1:])), source=None)


def test_certify_rejects_member_with_other_phase():
    # still unitary and symmetric, so the three structural facts hold
    w = complex(math.cos(0.3), math.sin(0.3))
    cert = certify_umeb(_p7_with_first(lambda u, p: np.eye(7) - (1 - w) * p))
    assert cert.symmetric_span and cert.complement_antisymmetric and cert.d_odd
    assert cert.max_unitarity_dev <= EPS
    assert cert.max_orthogonality_dev > 1.0
    assert cert.cj_orthonormality_dev > EPS
    assert not cert.unextendible_verdict


def test_certify_rejects_non_unitary_member():
    cert = certify_umeb(_p7_with_first(lambda u, p: 2 * u))
    assert cert.symmetric_span and cert.complement_antisymmetric and cert.d_odd
    assert abs(cert.max_unitarity_dev - 3.0) < 1e-12
    assert cert.cj_orthonormality_dev > EPS
    assert not cert.unextendible_verdict


def test_certify_flags_non_symmetric_member():
    phases = np.diag(np.exp(1j * np.arange(7)))
    cert = certify_umeb(_p7_with_first(lambda u, p: u @ phases))
    assert cert.max_unitarity_dev <= EPS
    assert not cert.symmetric_span
    assert not cert.complement_antisymmetric
    assert not cert.unextendible_verdict


NON_FINITE = [
    pytest.param(value, at, id=f"{name}-at-{'-'.join(map(str, at))}")
    for name, value in (("nan", np.nan), ("inf", np.inf), ("minus-inf", -np.inf))
    for at in ((0, 0, 0), (2, 3, 5), (3, 6, 6), (1, 0, 4))  # on and off the support of the bases
]


@pytest.mark.parametrize("value, at", NON_FINITE)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_certify_fails_a_base_with_a_non_finite_entry(value, at):
    def edit(bases):
        bases = np.array(bases)
        bases[at] = value
        return bases

    for uf in (_p7_bases(edit), _p7_members(edit)):  # whole orbits and the dense twin
        cert = certify_umeb(uf)  # a verdict, not a LinAlgError from eigvalsh
        assert not cert.unextendible_verdict and not cert.symmetric_span
        assert cert.span_rank == 0
        assert not cert.cj_orthonormality_dev <= EPS


def test_certify_even_dimension_flagged():
    # d=6, r=3 is feasible but even; the structural argument needs odd d
    rng = np.random.default_rng(5)
    basis = np.linalg.qr(rng.standard_normal((6, 3)))[0]
    proj = basis @ basis.T
    fam = ProjectionFamily(d=6, r=3, bases=(proj,), beta=Fraction(1), scale=None)
    cert = certify_umeb(build_unitaries(fam, compute_phase(6, 3)))
    assert not cert.d_odd
    assert not cert.unextendible_verdict


def _residue_unitaries(p):
    fam = build_residue_family(validate_prime(p), construct((p + 1) // 2))
    return build_unitaries(fam, compute_phase(p, (p - 1) // 2))


def _p7_members(edit):
    uf = p7_unitaries()
    return UnitaryFamily(d=7, z=uf.z, bases=edit(uf.unitaries), source=None)


def _p7_bases(edit):
    uf = p7_unitaries()
    return UnitaryFamily(d=7, z=uf.z, bases=edit(uf.bases), shifts=7)


# name -> (family, whether the Gershgorin discs prove the rank, verdict)
RANK_CASES = {
    "icosahedron": (lambda: build_unitaries(icosahedron_lines(), compute_phase(3, 1)), True, True),
    "p3": (lambda: _residue_unitaries(3), True, True),
    "p7": (lambda: _residue_unitaries(7), True, True),
    "p23": (lambda: _residue_unitaries(23), True, True),
    "p31": (lambda: _residue_unitaries(31), True, True),
    # discs around 8.75 and 7, both of radius 3.5: full rank, proved by the discs
    "p7-u0+0.5u1": (lambda: _p7_members(lambda us: np.concatenate(([us[0] + 0.5 * us[1]], us[1:]))), True, False),
    # disc of row 1 is 7 +- 14: full rank, but only the spectrum shows it
    "p7-u0+2u1": (lambda: _p7_members(lambda us: np.concatenate(([us[0] + 2 * us[1]], us[1:]))), False, False),
    "p7-duplicate": (lambda: _p7_members(lambda us: np.concatenate((us, us[:1]))), False, False),
    # the same edit on base 0 of the orbit family: every shift of it, and the
    # spectrum from the shift blocks of the orbit rows
    "p7-orbit-u0+2u1": (lambda: _p7_bases(lambda bs: np.concatenate(([bs[0] + 2 * bs[1]], bs[1:]))), False, False),
    "p7-nonsymmetric": (
        lambda: _p7_members(
            lambda us: np.concatenate(([us[0] @ np.diag(np.exp(1j * np.arange(7)))], us[1:]))
        ),
        False,
        False,
    ),
}


def spectral_fields(uf, tol=Tolerance()):
    """The certificate fields that rest on the rank proof, computed the way
    certify_umeb did before the disc bound: from every Gram eigenvalue."""
    stack = np.asarray(uf.unitaries)
    anti = np.abs(stack - stack.transpose(0, 2, 1))
    eigs = np.linalg.eigvalsh(gram_matrix(stack))
    rank = numerical_rank(uf.unitaries, tol)
    lam = eigs[-rank] if rank else 0.0
    return {
        "span_rank": rank,
        "symmetric_span": rank == uf.d * (uf.d + 1) // 2 and np.max(anti) <= tol.eps,
        "complement_antisymmetric": np.sum(anti**2) / 4 <= tol.eps**2 * lam,
    }


@pytest.mark.parametrize("name", RANK_CASES)
def test_span_rank_proof_matches_the_spectrum(name, monkeypatch):
    build, by_discs, verdict = RANK_CASES[name]
    uf = build()
    expected = spectral_fields(uf)
    eigvalsh = np.linalg.eigvalsh
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    cert = certify_umeb(uf)
    monkeypatch.undo()
    assert calls == ([] if by_discs else [(uf.shifts, len(uf.bases), len(uf.bases))])
    assert cert.span_rank == numerical_rank(uf.unitaries)
    assert cert == replace(cert, **expected)
    assert cert.unextendible_verdict == verdict


# every way a family is built or loaded; each must hold read-only stacks
STACKED_FAMILIES = {
    "residue": lambda: p7_unitaries(),
    "dual": lambda: build_unitaries(dual_family(p7_unitaries().source), compute_phase(7, 3)),
    "icosahedron": lambda: build_unitaries(icosahedron_lines(), compute_phase(3, 1)),
    "json": lambda: unitary_family_from_json(
        json.loads(json.dumps(unitary_family_to_json(p7_unitaries())))
    ),
}


@pytest.mark.parametrize("name", STACKED_FAMILIES)
def test_member_stacks_are_read_only(name):
    uf = STACKED_FAMILIES[name]()
    fam = uf.source
    assert uf.unitaries.shape == (len(uf), uf.d, uf.d) and uf.unitaries.dtype == complex
    # real by contract, also after a JSON round trip
    assert fam.projections.shape == (len(fam), fam.d, fam.d) and fam.projections.dtype == float
    for stack in (uf.unitaries, uf.bases, fam.projections, fam.bases):
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 1
    with pytest.raises(ValueError):
        uf.gram_rows[0, 0] = 1
    assert certify_umeb(uf).unextendible_verdict


def test_unitary_json_round_trip_is_bit_exact():
    # with a source the unitaries are rebuilt from it, without one they are read back
    # and without a source, with either shift count
    uf = p7_unitaries()
    for written in (uf, UnitaryFamily(uf.d, uf.z, uf.unitaries), UnitaryFamily(uf.d, uf.z, uf.bases, shifts=7)):
        obj = json.loads(json.dumps(unitary_family_to_json(written)))
        assert ("source" in obj) != ("bases" in obj)
        assert obj.get("shifts", written.shifts) == written.shifts
        again = unitary_family_from_json(obj)
        assert again.z == uf.z and (again.source is None) == (written.source is None)
        assert again.shifts == written.shifts
        assert again.bases.tobytes() == written.bases.tobytes()
        assert again.unitaries.tobytes() == uf.unitaries.tobytes()


def _callers_arrays(stack):
    """(members, mutate) pairs: a writable stack, a read-only view of writable
    memory and a list of writable matrices, each with a write into it."""
    writable = np.array(stack)
    view = np.array(stack).view()
    view.flags.writeable = False
    listed = [m.copy() for m in stack]
    return [
        (writable, lambda: writable.__setitem__((0, 0, 1), 5.0)),
        (view, lambda: view.base.__setitem__((0, 0, 1), 5.0)),
        (listed, lambda: listed[0].__setitem__((0, 1), 5.0)),
    ]


def test_families_keep_their_own_copy_of_the_callers_arrays():
    uf = p7_unitaries()
    expected = certify_umeb(uf)
    for members, mutate in _callers_arrays(uf.bases):
        mine = UnitaryFamily(d=7, z=uf.z, bases=members, shifts=7)
        assert certify_umeb(mine) == expected
        mutate()
        assert np.array_equal(mine.unitaries, uf.unitaries)
        assert certify_umeb(mine) == expected
    fam = uf.source
    expected = verify_equiangular(fam)
    for members, mutate in _callers_arrays(fam.bases):
        mine = replace(fam, bases=members)
        mutate()
        assert np.array_equal(mine.projections, fam.projections)
        assert verify_equiangular(mine) == expected


def test_gram_is_cached_and_is_the_gram_of_the_stack():
    uf = _residue_unitaries(23)
    rows = uf.gram_rows
    assert rows is uf.gram_rows
    assert uf.shifts == 23 and rows.shape == (12, len(uf))
    dense = gram_matrix(uf.unitaries)
    assert np.max(np.abs(rows - dense[::23])) <= 1e-13 * 23
    # the orbit rows fix every entry: G[t*d + x, t'*d + x'] = rows[t, t'*d + (x' - x) mod d]
    t, x = np.divmod(np.arange(len(uf)), 23)
    column = t * 23 + (x - x[:, None]) % 23
    assert np.max(np.abs(rows[t[:, None], column] - dense)) <= 1e-13 * 23
    assert uf.asymmetry == (0.0, 0.0)  # built families are exactly symmetric


def dense(uf):
    """The dense twin of a family: its members as bases with shifts = 1, the oracle that reads every Gram row."""
    return UnitaryFamily(d=uf.d, z=uf.z, bases=uf.unitaries)


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


def assert_matches_dense(cert, oracle):
    """Every deviation within 1e-13 of the oracle's, every verdict, span_rank and cardinality equal."""
    for field, value in asdict(oracle).items():
        if isinstance(value, float):
            assert abs(getattr(cert, field) - value) <= 1e-13, field
        else:
            assert getattr(cert, field) == value, field


ORBIT_FAMILIES = {
    **{f"p{p}": (lambda p=p: _residue_unitaries(p)) for p in (3, 7, 23, 31, 47, 71, 79)},
    "dual7": STACKED_FAMILIES["dual"],
    "json7": STACKED_FAMILIES["json"],
}


@pytest.mark.parametrize(
    "name", [pytest.param(n, marks=pytest.mark.slow) if n in ("p71", "p79") else n for n in ORBIT_FAMILIES]
)
def test_certificate_from_orbit_rows_matches_the_dense_certificate(name, monkeypatch):
    uf = ORBIT_FAMILIES[name]()
    p, n = uf.d, len(uf)
    shapes = spy_gram_shapes(monkeypatch, umeb)
    cert = certify_umeb(uf)
    oracle = certify_umeb(dense(uf))
    assert uf.shifts == p
    assert shapes == [((p + 1) // 2, n), (n, n)]
    assert cert.unextendible_verdict and cert.span_rank == cert.cardinality == p * (p + 1) // 2
    assert_matches_dense(cert, oracle)


def _edited_p7(edit):
    uf = p7_unitaries()
    return UnitaryFamily(d=7, z=uf.z, bases=edit(np.array(uf.unitaries)), source=None)


def _perturbed_entry(members):
    members[-1, 2, 4] += 1e-12  # the last member
    return members


def _swapped_orbits(members):
    members[[3, 10]] = members[[10, 3]]  # shift 3 of orbits 0 and 1
    return members


@pytest.mark.parametrize(
    "build, verdict",
    [
        (lambda: build_unitaries(icosahedron_lines(), compute_phase(3, 1)), True),
        (lambda: _edited_p7(_perturbed_entry), True),
        (lambda: _edited_p7(_swapped_orbits), True),
        (lambda: _edited_p7(lambda members: members[:27]), False),  # 27 members span rank 27 < 28
    ],
    ids=["icosahedron", "perturbed-entry", "swapped-orbits", "not-whole-orbits"],
)
def test_certificate_without_orbit_structure_reads_every_gram_row(build, verdict, monkeypatch):
    uf = build()
    n = len(uf)
    shapes = spy_gram_shapes(monkeypatch, umeb)
    cert = certify_umeb(uf)
    assert uf.shifts == 1
    assert shapes == [(n, n)]
    assert cert.unextendible_verdict == verdict
    assert cert == replace(cert, **spectral_fields(uf))


def test_families_reject_members_of_the_wrong_shape():
    uf = p7_unitaries()
    for members in (uf.unitaries[:, :6, :6], uf.unitaries[0], []):
        with pytest.raises(ShapeMismatch):
            UnitaryFamily(d=7, z=uf.z, bases=members)
    with pytest.raises(ShapeMismatch):
        replace(uf.source, bases=uf.source.bases[:, :, :6])


def test_asymmetry_of_orbits_is_read_off_the_bases():
    uf = _residue_unitaries(23)
    bases = np.array(uf.bases)
    bases[-1, 0, 1] += 1e-6
    skewed = UnitaryFamily(d=23, z=uf.z, bases=bases, shifts=23)
    assert skewed.asymmetry[0] == dense(skewed).asymmetry[0] == pytest.approx(1e-6, rel=1e-6)
    assert skewed.asymmetry[1] == pytest.approx(23 * 2e-12, rel=1e-5)
    assert skewed.asymmetry[1] == pytest.approx(dense(skewed).asymmetry[1], rel=1e-12)
    cert = certify_umeb(skewed)
    assert not cert.symmetric_span and not cert.complement_antisymmetric


def test_certify_checks_the_last_member_chunk(monkeypatch):
    # blocks of 100 complex 23 x 23 members of the dense twins: 100 + 100 + 76 unitarity and symmetry blocks
    monkeypatch.setattr(matcore, "_BLOCK_BYTES", 100 * 23 * 23 * 16)
    uf = _residue_unitaries(23)
    per_block = matcore._BLOCK_BYTES // (23 * 23 * uf.unitaries.itemsize)
    assert per_block < len(uf) and len(uf) % per_block and certify_umeb(uf).unextendible_verdict
    last = uf.unitaries[-1]
    scaled = UnitaryFamily(d=23, z=uf.z, bases=np.concatenate((uf.unitaries[:-1], [2 * last])))
    assert abs(certify_umeb(scaled).max_unitarity_dev - 3.0) < 1e-12
    skewed = np.array(uf.unitaries)
    skewed[-1, 0, 1] += 1e-6
    skewed = UnitaryFamily(d=23, z=uf.z, bases=skewed)
    assert skewed.asymmetry[0] == pytest.approx(1e-6, rel=1e-6)
    assert skewed.asymmetry[1] == pytest.approx(2e-12, rel=1e-5)
    assert not certify_umeb(skewed).symmetric_span


def test_a_nan_in_the_last_partial_block_reaches_every_budgeted_report(monkeypatch):
    # 12 bases at p=23; a budget of five complex bases gives U blocks of 5, 5, 2 and P blocks of 10, 2
    monkeypatch.setattr(matcore, "_BLOCK_BYTES", 5 * 23 * 23 * 16)
    fam = build_residue_family(validate_prime(23), construct(12))
    assert [b.stop - b.start for b in matcore._blocks(12, fam.bases[0].nbytes)] == [10, 2]
    assert [b.stop - b.start for b in matcore._blocks(12, 2 * fam.bases[0].nbytes)] == [5, 5, 2]
    bases = np.array(fam.bases)
    bases[-1, 0, 1] = np.nan
    poisoned = replace(fam, bases=bases)
    report = verify_equiangular(poisoned)
    assert math.isnan(report.max_idempotency_dev) and not report.passed
    uf = build_unitaries(poisoned, compute_phase(23, 11))
    assert all(math.isnan(value) for value in uf.asymmetry)
    cert = certify_umeb(uf)
    assert math.isnan(cert.max_unitarity_dev)
    assert not cert.unextendible_verdict and not cert.symmetric_span and not cert.complement_antisymmetric


@pytest.mark.parametrize("off_diagonal", [True, False], ids=["two-members-mixed", "one-member-scaled"])
def test_cj_orthonormality_dev_is_the_full_max_of_g_over_d_minus_i(off_diagonal):
    uf = p7_unitaries()
    members = np.array(uf.unitaries)
    if off_diagonal:
        members[1] += 1e-3 * members[0]
    else:
        members[0] *= 1 + 1e-3
    flat = members.reshape(len(uf), -1)
    dev = np.abs(flat.conj() @ flat.T / 7 - np.eye(len(uf)))
    off = np.max(dev - np.diag(np.diag(dev)))
    assert (off > np.max(np.diag(dev))) == off_diagonal
    cert = certify_umeb(UnitaryFamily(d=7, z=uf.z, bases=members))
    assert cert.cj_orthonormality_dev == pytest.approx(np.max(dev), rel=1e-15)


def test_cj_states_p7():
    states = cj_states(p7_unitaries())
    assert states.shape == (28, 49)
    gram = states.conj() @ states.T
    assert np.max(np.abs(gram - np.eye(28))) < EPS


def test_cj_states_identity():
    uf = UnitaryFamily(d=3, z=1.0, bases=(np.eye(3, dtype=complex),), source=None)
    states = cj_states(uf)
    phi = np.zeros(9)
    phi[[0, 4, 8]] = 1 / math.sqrt(3)
    assert np.allclose(states[0], phi)


def test_cj_states_icosahedron():
    fam = icosahedron_lines()
    states = cj_states(build_unitaries(fam, compute_phase(3, 1)))
    assert states.shape == (6, 9)
    gram = states.conj() @ states.T
    assert np.max(np.abs(gram - np.eye(6))) < EPS


def test_dual_unitaries_share_phase():
    fam = build_residue_family(validate_prime(7), construct(4))
    z = compute_phase(7, 3)
    cert = certify_umeb(build_unitaries(dual_family(fam), z))
    assert cert.max_orthogonality_dev <= 1e-8
    assert cert.unextendible_verdict


def test_line_feasibility_sweep():
    rows = line_feasibility_sweep(10)
    assert [rep.d for rep in rows] == list(range(2, 11))
    feasible = {rep.d for rep in rows if rep.feasible}
    assert feasible == {2, 3}
    by_d = {rep.d: rep.re_z for rep in rows}
    assert by_d[3] == Fraction(-7, 8)
    assert by_d[4] == Fraction(-7, 5)
    assert by_d[7] == Fraction(-47, 16)

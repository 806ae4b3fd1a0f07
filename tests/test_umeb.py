import json
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from umebkit import matcore, umeb
from umebkit.cli import artifact_from_json, artifact_to_json
from umebkit.errors import Infeasible, RankOutOfRange, ShapeMismatch
from umebkit.hadamard import construct
from umebkit.matcore import SupportStack, Tolerance
from umebkit.numth import validate_prime
from umebkit.packing import (
    ProjectionFamily,
    build_residue_family,
    icosahedron_lines,
    verify_equiangular,
)
from umebkit.umeb import (
    UnitaryFamily,
    build_unitaries,
    certify_umeb,
    compute_phase,
    feasibility,
)

from oracles import dense_certificate, dense_gram, dual_family, member_stack, numerical_rank, support_stack

EPS = 1e-9


def cubic(d, r):
    """Sign oracle from expanding d(d+2)(d-1) <= 4r(d+1)(d-r)."""
    return d**3 + d**2 * (1 - 4 * r) + d * (4 * r**2 - 4 * r - 2) + 4 * r**2


def p7_family():
    return build_residue_family(validate_prime(7), construct(4))


def p7_unitaries():
    return build_unitaries(p7_family(), compute_phase(7, 3))


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
    truncated = UnitaryFamily(d=7, z=uf.z, bases=SupportStack(uf.bases.cols, uf.bases.values[:3]))  # 3 of the 4 orbits: 21 members
    cert = certify_umeb(truncated)
    assert cert.span_rank == 21
    assert not cert.symmetric_span
    assert not cert.unextendible_verdict


def test_certify_verdict_monotone_under_removal():
    uf = p7_unitaries()
    for drop in range(4):  # each orbit in turn
        rest = SupportStack(uf.bases.cols, np.delete(uf.bases.values, drop, axis=0))
        cert = certify_umeb(UnitaryFamily(d=7, z=uf.z, bases=rest))
        assert not cert.symmetric_span
        assert not cert.unextendible_verdict


def _p7_with_first(replace):
    """The p=7 unitaries with base 0, and so every shift of it, replaced by replace(U_0, P_0)."""
    uf = p7_unitaries()
    bases = uf.bases.dense()
    first = replace(bases[0], p7_family().bases.dense()[0])
    return UnitaryFamily(d=7, z=uf.z, bases=support_stack(np.concatenate(([first], bases[1:])), 7))


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

    cert = certify_umeb(_p7_bases(edit))  # a verdict, not a LinAlgError from eigvalsh
    assert not cert.unextendible_verdict and not cert.symmetric_span
    assert cert.span_rank == 0
    assert not cert.cj_orthonormality_dev <= EPS


def test_certify_even_dimension_flagged():
    # d=6, r=3 is feasible but even; the structural argument needs odd d
    rng = np.random.default_rng(5)
    basis = np.linalg.qr(rng.standard_normal((6, 3)))[0]
    proj = basis @ basis.T
    fam = ProjectionFamily(d=6, r=3, bases=support_stack(proj[None], 6), beta=Fraction(1))
    cert = certify_umeb(build_unitaries(fam, compute_phase(6, 3)))
    assert not cert.d_odd
    assert not cert.unextendible_verdict


def _residue_unitaries(p):
    fam = build_residue_family(validate_prime(p), construct((p + 1) // 2))
    return build_unitaries(fam, compute_phase(p, (p - 1) // 2))


def _p7_bases(edit):
    """The p=7 unitaries with their bases edited: every shift of an edited base changes with it."""
    uf = p7_unitaries()
    return UnitaryFamily(d=7, z=uf.z, bases=support_stack(edit(uf.bases.dense()), 7))


def _shifted_once(base):
    """base shifted by 1, [i, j] -> [i - 1, j - 1]: member 1 of its orbit."""
    return np.roll(base, (1, 1), axis=(0, 1))


# name -> (family, whether the Gershgorin discs prove the rank, verdict); the edits are of
# the bases, so every shift of an edited base changes with it
RANK_CASES = {
    # bit for bit the residue family at p = 3 (test_packing), which it stands for
    "icosahedron": (lambda: build_unitaries(icosahedron_lines(), compute_phase(3, 1)), True, True),
    "p7": (lambda: _residue_unitaries(7), True, True),
    "p23": (lambda: _residue_unitaries(23), True, True),
    "p31": (lambda: _residue_unitaries(31), True, True),
    # discs around 8.75 and 7, both of radius 3.5: full rank, proved by the discs
    "p7-u0+0.5u1": (lambda: _p7_bases(lambda bs: np.concatenate(([bs[0] + 0.5 * bs[1]], bs[1:]))), True, False),
    # disc of a row of orbit 1 is 7 +- 14: full rank, but only the spectrum shows it
    "p7-u0+2u1": (lambda: _p7_bases(lambda bs: np.concatenate(([bs[0] + 2 * bs[1]], bs[1:]))), False, False),
    "p7-duplicate": (lambda: _p7_bases(lambda bs: np.concatenate((bs, bs[:1]))), False, False),
    # base 0 plus twice its own shift by 1: discs around 35 of radius 28, and 7 of radius 0,
    # so the discs prove the full rank of a circulant orbit
    "p7-orbit-u0+2u1": (lambda: _p7_bases(lambda bs: np.concatenate(([bs[0] + 2 * _shifted_once(bs[0])], bs[1:]))), True, False),
    "p7-nonsymmetric": (
        lambda: _p7_bases(
            lambda bs: np.concatenate(([bs[0] @ np.diag(np.exp(1j * np.arange(7)))], bs[1:]))
        ),
        False,
        False,
    ),
}


def spectral_fields(uf, tol=Tolerance()):
    """The certificate fields that rest on the rank proof, computed the way
    certify_umeb did before the disc bound: from every Gram eigenvalue."""
    oracle = dense_certificate(member_stack(uf), tol)
    return {field: oracle[field] for field in ("span_rank", "symmetric_span", "complement_antisymmetric")}


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
    assert calls == ([] if by_discs else [(uf.d, len(uf.bases), len(uf.bases))])
    assert cert.span_rank == numerical_rank(member_stack(uf))
    assert cert == replace(cert, **expected)
    assert cert.unextendible_verdict == verdict


def _built(prime, h, z):
    """(family, z) from a loaded generator and phase."""
    return build_residue_family(prime, h), z


# every way a projection family and its phase are built or loaded; each must hold read-only stacks
STACKED_FAMILIES = {
    "residue": lambda: (p7_family(), compute_phase(7, 3)),
    "dual": lambda: (dual_family(p7_family()), compute_phase(7, 3)),
    "icosahedron": lambda: (icosahedron_lines(), compute_phase(3, 1)),
    "json": lambda: _built(
        *artifact_from_json(json.loads(json.dumps(artifact_to_json(validate_prime(7), construct(4), compute_phase(7, 3)))))
    ),
}


@pytest.mark.parametrize("name", STACKED_FAMILIES)
def test_member_stacks_are_read_only(name):
    fam, z = STACKED_FAMILIES[name]()
    uf = build_unitaries(fam, z)
    # the unitaries are read one member at a time, each its own read-only complex d x d array
    members = list(uf.unitaries)
    assert len(members) == len(uf)
    for member in members:
        assert member.shape == (uf.d, uf.d) and member.dtype == complex
        with pytest.raises(ValueError):
            member[0, 0] = 1
    # the projections too, each real by contract, also after a JSON round trip
    members = list(fam.projections)
    assert len(members) == len(fam)
    for member in members:
        assert member.shape == (fam.d, fam.d) and member.dtype == float
        with pytest.raises(ValueError):
            member[0, 0] = 1
    assert list(vars(fam)) == ["d", "r", "bases", "beta"]
    for stack in (uf.bases.values, fam.bases.values):
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 1
    for cols in (uf.bases.cols, fam.bases.cols):
        with pytest.raises(ValueError):
            cols[0, 0] = 1
    # neither reading the members nor the certificate, which computes its Gram, leaves anything on the family
    held = dict(vars(uf))
    assert certify_umeb(uf).unextendible_verdict
    assert vars(uf) == held and list(held) == ["d", "z", "bases"]


MEMBER_FAMILIES = {
    **{name: lambda name=name: build_unitaries(*STACKED_FAMILIES[name]()) for name in STACKED_FAMILIES},
    **{f"p{p}": (lambda p=p: _residue_unitaries(p)) for p in (47, 79)},
}


@pytest.mark.parametrize("name", MEMBER_FAMILIES)
def test_each_member_is_the_member_of_the_gathered_orbits(name):
    # member t*d + x, scattered from the support when read, is bit for bit orbit_stack(dense bases)[t*d + x]
    uf = MEMBER_FAMILIES[name]()
    stack = member_stack(uf)
    assert len(uf.unitaries) == len(stack) == len(uf)
    for i in range(len(uf)):
        member = uf.unitaries[i]
        assert member.dtype == stack.dtype and member.shape == stack[i].shape
        assert member.tobytes() == stack[i].tobytes()


def test_the_members_are_a_sequence_of_the_family_length():
    uf = p7_unitaries()
    members, stack = uf.unitaries, member_stack(uf)
    assert len(members) == len(uf) == 28
    for i in (-1, -28, np.int64(-1), 27):  # negative indices count from the end
        assert members[i].tobytes() == stack[i].tobytes()
    for i in (28, -29):
        with pytest.raises(IndexError):
            members[i]
    assert sum(1 for _ in members) == 28


def test_the_members_take_an_integer_index_and_are_not_compared():
    # a slice or a float is no member index, and an array member is not compared with `in`
    uf = p7_unitaries()
    members = uf.unitaries
    for index in (slice(1, 3), 1.0):
        with pytest.raises(TypeError, match=f"'{type(index).__name__}'"):
            members[index]
    with pytest.raises(TypeError, match="not compared"):
        members[3] in members
    assert not hasattr(members, "index") and not hasattr(members, "count")  # no mixin compares members either
    assert [m.tobytes() for m in reversed(members)] == [m.tobytes() for m in member_stack(uf)[::-1]]


def test_reading_one_member_at_p79_holds_no_stack():
    # every member of the p=79 unitaries is 3160 x 79 x 79 complex, 301 MiB; one is 98 KiB
    uf = _residue_unitaries(79)
    tracemalloc.start()
    try:
        member = uf.unitaries[-1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert member.shape == (79, 79)
    assert peak <= 1 << 20


def test_reading_one_projection_member_at_p79_holds_no_stack():
    # every member of the p=79 projections is 3160 x 79 x 79 real, 150 MiB; one is 49 KiB
    fam = build_residue_family(validate_prime(79), construct(40))
    tracemalloc.start()
    try:
        member = fam.projections[-1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert member.shape == (79, 79) and member.dtype == float
    assert member.tobytes() == np.roll(fam.bases.dense()[-1], (78, 78), axis=(0, 1)).tobytes()  # base 39 shifted by 78
    assert peak <= 1 << 20


def test_unitary_json_round_trip_is_bit_exact():
    # the generator and z are read back, and the family and its unitaries rebuilt from them
    for p in (7, 3):
        prime, h = validate_prime(p), construct((p + 1) // 2)
        fam, z = build_residue_family(prime, h), compute_phase(p, prime.half)
        obj = json.loads(json.dumps(artifact_to_json(prime, h, z)))
        assert sorted(obj) == ["hadamard", "k", "p", "z"]
        again, again_z = _built(*artifact_from_json(obj))
        assert again_z == z
        assert (again.d, again.r, again.beta) == (fam.d, fam.r, fam.beta)
        assert again.bases.dense().tobytes() == fam.bases.dense().tobytes()
        assert member_stack(build_unitaries(again, again_z)).tobytes() == member_stack(build_unitaries(fam, z)).tobytes()


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
    # a hand-made family's bases are gathered from the caller's dense arrays, so a later write
    # into those arrays reaches neither its members nor its checks
    uf = p7_unitaries()
    expected = certify_umeb(uf)
    for members, mutate in _callers_arrays(uf.bases.dense()):
        mine = UnitaryFamily(d=7, z=uf.z, bases=support_stack(members, 7))
        assert certify_umeb(mine) == expected
        mutate()
        assert np.array_equal(member_stack(mine), member_stack(uf))
        assert certify_umeb(mine) == expected
    fam = p7_family()
    expected = verify_equiangular(fam)
    for members, mutate in _callers_arrays(fam.bases.dense()):
        mine = replace(fam, bases=support_stack(members, 7))
        mutate()
        assert np.array_equal(member_stack(mine), member_stack(fam))
        assert verify_equiangular(mine) == expected


def test_a_family_on_a_view_of_the_callers_values_does_not_go_stale():
    # a view does not own its data, so the stack copies it: the caller's later write into the
    # values the view shares reaches neither the dense bases, the members nor the checks
    fam = p7_family()
    expected = verify_equiangular(fam)
    mine = np.array(fam.bases.values)
    held = replace(fam, bases=SupportStack(fam.bases.cols, mine.view()))
    assert held.projections[0].max() == pytest.approx(2 / 3)
    mine[0, 1, :] *= 2
    assert verify_equiangular(held) == expected and expected.passed
    assert np.array_equal(held.bases.dense(), fam.bases.dense())
    assert np.array_equal(member_stack(held), member_stack(fam))


def test_the_unitaries_are_built_without_a_dense_base():
    # at p=263 the dense complex bases alone are 140 MiB; on their support they are 1.1 MiB
    fam = build_residue_family(validate_prime(263), construct(132))
    z = compute_phase(263, 131)
    build_unitaries(fam, z)
    tracemalloc.start()
    try:
        uf = build_unitaries(fam, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert uf.bases.values.shape == (132, 263, 2) and uf.bases.values.dtype == complex
    assert peak <= 2 << 20


def test_the_cyclic_gram_is_the_gram_of_the_members():
    # the family holds no Gram: cyclic_gram of its bases is the Gram of its members
    uf = _residue_unitaries(23)
    gram = matcore.cyclic_gram(uf.bases)
    assert not any(hasattr(uf, name) for name in ("gram", "gram_stats", "asymmetry"))
    assert len(uf) == 276 and gram.c.shape == (12, 12) and gram.h.shape == (1, 1, 23)
    dense = dense_gram(member_stack(uf))
    # the parts fix every entry: G[t*d + x, t'*d + x'] = c[t, t'] [x' = x] + h[group[t], group[t'], (x' - x) mod d]
    t, x = np.divmod(np.arange(len(uf)), 23)
    shift = (x - x[:, None]) % 23
    whole = gram.h[gram.group[t][:, None], gram.group[t], shift] + np.where(shift == 0, gram.c[t[:, None], t], 0)
    assert np.max(np.abs(whole - dense)) <= 1e-13 * 23
    assert matcore.asymmetry(uf.bases) == (0.0, 0.0)  # built families are exactly symmetric


def test_certifying_a_p263_family_holds_no_gram_rows():
    # the (T, T*d) rows of the U Gram alone were 132 x 34716 complex, 73 MB; the Gram's parts
    # are a 132 x 132 product and one correlation, and the rest of the certificate runs in
    # blocks of the 8 MiB budget
    uf = _residue_unitaries(263)
    tracemalloc.start()
    try:
        cert = certify_umeb(uf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.unextendible_verdict and cert.span_rank == 34716
    assert peak <= 20 << 20


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


def assert_matches_dense(cert, oracle):
    """Every deviation within 1e-13 of the oracle's, every verdict, span_rank and cardinality equal."""
    for field, value in oracle.items():
        if isinstance(value, float):
            assert abs(getattr(cert, field) - value) <= 1e-13, field
        else:
            assert getattr(cert, field) == value, field


ORBIT_FAMILIES = {
    **{f"p{p}": (lambda p=p: _residue_unitaries(p)) for p in (3, 7, 23, 31, 47, 71, 79)},
    "dual7": lambda: build_unitaries(*STACKED_FAMILIES["dual"]()),
    "json7": lambda: build_unitaries(*STACKED_FAMILIES["json"]()),
}


@pytest.mark.parametrize(
    "name", [pytest.param(n, marks=pytest.mark.slow) if n in ("p71", "p79") else n for n in ORBIT_FAMILIES]
)
def test_certificate_from_orbit_rows_matches_the_dense_certificate(name, monkeypatch):
    uf = ORBIT_FAMILIES[name]()
    p, n = uf.d, len(uf)
    shapes = spy_gram_shapes(monkeypatch, umeb)
    cert = certify_umeb(uf)
    t = (p + 1) // 2
    assert shapes == [((t, t), (1, 1, p))] and n == t * p
    assert cert.unextendible_verdict and cert.span_rank == cert.cardinality == p * (p + 1) // 2
    assert_matches_dense(cert, dense_certificate(member_stack(uf)))


def test_families_reject_members_of_the_wrong_shape():
    uf = p7_unitaries()
    # a stack of 6 x 6 bases, as sliced and as compressed, in a family with d = 7: the sliced rows
    # still list column 6, so the stack itself is malformed
    with pytest.raises(ShapeMismatch):
        UnitaryFamily(d=7, z=uf.z, bases=SupportStack(uf.bases.cols[:6], uf.bases.values[:, :6]))
    with pytest.raises(ShapeMismatch):
        UnitaryFamily(d=7, z=uf.z, bases=support_stack(member_stack(uf)[:, :6, :6], 6))
    fam = p7_family()
    with pytest.raises(ShapeMismatch):
        replace(fam, bases=SupportStack(fam.bases.cols[:6], fam.bases.values[:, :6]))


def test_asymmetry_of_orbits_is_read_off_the_bases():
    uf = _residue_unitaries(23)
    bases = np.array(uf.bases.dense())
    bases[-1, 0, 1] += 1e-6
    skewed = UnitaryFamily(d=23, z=uf.z, bases=support_stack(bases, 23))
    members = member_stack(skewed)
    anti = np.abs(members - members.transpose(0, 2, 1))  # every member, entry by entry
    worst, sq = matcore.asymmetry(skewed.bases)  # over the bases: each of the 23 shifts of a base adds its sq
    assert worst == np.max(anti) == pytest.approx(1e-6, rel=1e-6)
    assert 23 * sq == pytest.approx(23 * 2e-12, rel=1e-5)
    assert 23 * sq == pytest.approx(float(np.sum(anti**2)), rel=1e-12)
    cert = certify_umeb(skewed)
    assert not cert.symmetric_span and not cert.complement_antisymmetric


def test_certify_checks_the_last_member_chunk(monkeypatch):
    # a budget of five complex bases' value pairs at p=23: the symmetry check reads the 12 bases in
    # blocks of 5, 5 and 2, and unitarity, whose terms are larger, one base a block
    monkeypatch.setattr(matcore, "_BLOCK_BYTES", 5 * 2 * 23 * 2 * 16)
    uf = _residue_unitaries(23)
    assert [b.stop - b.start for b in matcore._blocks(12, 2 * uf.bases.values[0].nbytes)] == [5, 5, 2]
    assert certify_umeb(uf).unextendible_verdict

    def with_last_base(edit):
        bases = np.array(uf.bases.dense())
        bases[-1] = edit(bases[-1])
        return UnitaryFamily(d=23, z=uf.z, bases=support_stack(bases, 23))

    scaled = with_last_base(lambda u: 2 * u)
    assert abs(certify_umeb(scaled).max_unitarity_dev - 3.0) < 1e-12

    def skew(u):
        u[0, 1] += 1e-6
        return u

    skewed = with_last_base(skew)
    worst, sq = matcore.asymmetry(skewed.bases)
    assert worst == pytest.approx(1e-6, rel=1e-6)
    assert 23 * sq == pytest.approx(23 * 2e-12, rel=1e-5)  # every shift of the last base
    assert not certify_umeb(skewed).symmetric_span


def test_a_nan_in_the_last_partial_block_reaches_every_budgeted_report(monkeypatch):
    # 12 bases at p=23; a budget of five complex bases' values gives U blocks of 5, 5, 2 and P blocks of 10, 2
    monkeypatch.setattr(matcore, "_BLOCK_BYTES", 5 * 23 * 2 * 16)
    fam = build_residue_family(validate_prime(23), construct(12))
    assert [b.stop - b.start for b in matcore._blocks(12, fam.bases.values[0].nbytes)] == [10, 2]
    assert [b.stop - b.start for b in matcore._blocks(12, 2 * fam.bases.values[0].nbytes)] == [5, 5, 2]
    bases = np.array(fam.bases.dense())
    bases[-1, 0, 1] = np.nan
    poisoned = replace(fam, bases=support_stack(bases, 23))
    report = verify_equiangular(poisoned)
    assert math.isnan(report.max_idempotency_dev) and not report.passed
    uf = build_unitaries(poisoned, compute_phase(23, 11))
    assert all(math.isnan(value) for value in matcore.asymmetry(uf.bases))
    cert = certify_umeb(uf)
    assert math.isnan(cert.max_unitarity_dev)
    assert not cert.unextendible_verdict and not cert.symmetric_span and not cert.complement_antisymmetric


@pytest.mark.parametrize("off_diagonal", [True, False], ids=["two-members-mixed", "one-member-scaled"])
def test_cj_orthonormality_dev_is_the_full_max_of_g_over_d_minus_i(off_diagonal):
    uf = p7_unitaries()
    bases = np.array(uf.bases.dense())  # an edited base edits every shift of it
    if off_diagonal:
        bases[1] += 1e-3 * bases[0]
    else:
        bases[0] *= 1 + 1e-3
    edited = UnitaryFamily(d=7, z=uf.z, bases=support_stack(bases, 7))
    flat = member_stack(edited).reshape(len(uf), -1)
    dev = np.abs(flat.conj() @ flat.T / 7 - np.eye(len(uf)))
    off = np.max(dev - np.diag(np.diag(dev)))
    assert (off > np.max(np.diag(dev))) == off_diagonal
    cert = certify_umeb(edited)
    assert cert.cj_orthonormality_dev == pytest.approx(np.max(dev), rel=1e-15)


def test_cj_states_p7():
    uf = p7_unitaries()
    states = member_stack(uf).transpose(0, 2, 1).reshape(28, 49) / math.sqrt(7)  # rows vec(U_i) / sqrt(d)
    assert states.shape == (28, 49)
    gram = states.conj() @ states.T
    assert np.max(np.abs(gram - np.eye(28))) < EPS


def test_cj_states_icosahedron():
    fam = icosahedron_lines()
    uf = build_unitaries(fam, compute_phase(3, 1))
    states = member_stack(uf).transpose(0, 2, 1).reshape(6, 9) / math.sqrt(3)  # rows vec(U_i) / sqrt(d)
    assert states.shape == (6, 9)
    gram = states.conj() @ states.T
    assert np.max(np.abs(gram - np.eye(6))) < EPS


def test_dual_unitaries_share_phase():
    fam = build_residue_family(validate_prime(7), construct(4))
    z = compute_phase(7, 3)
    cert = certify_umeb(build_unitaries(dual_family(fam), z))
    assert cert.max_orthogonality_dev <= 1e-8
    assert cert.unextendible_verdict


@pytest.mark.parametrize("p", [3, 7, 23])
def test_the_dual_unitaries_are_z_times_the_conjugate_unitaries(p):
    # I - (1 - z)(I - P) = z I + (1 - z)P = z conj(I - (1 - z)P), as |z| = 1: the dual family's UMEB is
    # no new one, and Re z is symmetric in r <-> d - r, so both families get the same z
    fam = build_residue_family(validate_prime(p), construct((p + 1) // 2))
    z = compute_phase(p, fam.r)
    assert compute_phase(p, p - fam.r) == z
    uf, dual = build_unitaries(fam, z), build_unitaries(dual_family(fam), z)
    assert len(dual) == len(uf) == p * (p + 1) // 2
    for u, v in zip(uf.unitaries, dual.unitaries):
        assert np.max(np.abs(v - z * u.conj())) <= 1e-15


def test_line_feasibility_sweep():
    rows = [feasibility(d, 1) for d in range(2, 11)]
    assert [rep.d for rep in rows] == list(range(2, 11))
    feasible = {rep.d for rep in rows if rep.feasible}
    assert feasible == {2, 3}
    by_d = {rep.d: rep.re_z for rep in rows}
    assert by_d[3] == Fraction(-7, 8)
    assert by_d[4] == Fraction(-7, 5)
    assert by_d[7] == Fraction(-47, 16)

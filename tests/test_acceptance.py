"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from umebkit.channels import (
    MixedUnitaryDecomposition,
    umeb_decomposition,
    verify_decomposition,
    wh_plus_apply,
)
from umebkit.cli import artifact_from_json, main
from umebkit.hadamard import construct, paley_one, sylvester
from umebkit.numth import validate_prime
from umebkit.packing import (
    build_residue_family,
    icosahedron_lines,
    verify_equiangular,
)
from umebkit.umeb import build_unitaries, certify_umeb, compute_phase, feasibility

from oracles import choi_rank as channel_choi_rank
from oracles import dual_family, identity_coefficient, numerical_rank, swap_matrix

H4_REFERENCE = np.array(
    [
        [1, 1, 1, 1],
        [1, -1, 1, -1],
        [1, 1, -1, -1],
        [1, -1, -1, 1],
    ]
)


def check(num, description, ok):
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {num}: {description}"


@pytest.fixture(scope="module")
def family_p7():
    return build_residue_family(validate_prime(7), construct(4))


@pytest.fixture(scope="module")
def unitaries_p7(family_p7):
    return build_unitaries(family_p7, compute_phase(7, 3))


def pairwise_traces(family):
    flat = np.asarray([p.ravel() for p in family.projections])
    overlaps = flat @ flat.T
    return overlaps[~np.eye(len(flat), dtype=bool)]


def test_criterion_1_p7_generate(tmp_path):
    out = tmp_path / "family7.json"
    start = time.perf_counter()
    code = main(["generate", "--p", "7", "--out", str(out)])
    elapsed = time.perf_counter() - start
    prime, h, _ = artifact_from_json(json.loads(out.read_text()))
    family = build_residue_family(prime, h)
    traces = np.array([np.trace(p).real for p in family.projections])
    idem = max(np.max(np.abs(p @ p - p)) for p in family.projections)
    offdiag = pairwise_traces(family)
    ok = (
        code == 0
        and len(family.projections) == 28
        and family.d == 7
        and np.max(np.abs(traces - 3)) <= 1e-9
        and idem <= 1e-9
        and offdiag.size == 2 * 378
        and np.max(np.abs(offdiag - 11 / 9)) <= 1e-9
        and numerical_rank(list(family.projections)) == 28
        and elapsed < 1.0
    )
    check(1, f"p=7 generate: 28 rank-3 projections, traces 11/9, rank 28 ({elapsed:.2f}s)", ok)


def test_criterion_2_p7_umeb(tmp_path):
    out = tmp_path / "unitaries7.json"
    cert_path = tmp_path / "cert7.json"
    start = time.perf_counter()
    code = main(["umeb", "--p", "7", "--out", str(out), "--cert", str(cert_path)])
    elapsed = time.perf_counter() - start
    cert = json.loads(cert_path.read_text())
    uf = json.loads(out.read_text())
    z_re, z_im = uf["z"]
    ok = (
        code == 0
        and "unitaries" not in uf
        and uf["p"] * uf["hadamard"]["order"] == cert["cardinality"] == 28  # d shifts of (p+1)/2 bases
        and z_re == -31 / 32
        and abs(z_im - math.sqrt(63) / 32) <= 1e-15
        and cert["max_unitarity_dev"] <= 1e-10
        and cert["max_orthogonality_dev"] <= 1e-8
        and cert["symmetric_span"] is True
        and cert["unextendible_verdict"] is True
        and elapsed < 1.0
    )
    check(2, f"p=7 umeb: 28 unitaries, z = -31/32 + i*sqrt(63)/32, verdict true ({elapsed:.2f}s)", ok)


def test_criterion_3_p23_pipeline():
    start = time.perf_counter()
    h = construct(12)
    family = build_residue_family(validate_prime(23), h)
    report = verify_equiangular(family)
    rank = numerical_rank(list(family.projections))
    cert = certify_umeb(build_unitaries(family, compute_phase(23, 11)))
    elapsed = time.perf_counter() - start
    ok = (
        len(family.projections) == 276
        and family.r == 11
        and family.beta == Fraction(131, 25)
        and report.max_angle_dev <= 1e-8
        and rank == 276
        and cert.unextendible_verdict
        and np.array_equal(h.entries, paley_one(11).entries)
        and elapsed < 10.0
    )
    check(3, f"p=23: 276 rank-11 projections, traces 131/25, Paley-I order 12 ({elapsed:.2f}s)", ok)


def test_criterion_4_p31_pipeline():
    start = time.perf_counter()
    h = construct(16)
    family = build_residue_family(validate_prime(31), h)
    report = verify_equiangular(family)
    rank = numerical_rank(list(family.projections))
    cert = certify_umeb(build_unitaries(family, compute_phase(31, 15)))
    elapsed = time.perf_counter() - start
    ok = (
        len(family.projections) == 496
        and family.r == 15
        and family.beta == Fraction(239, 33)
        and report.max_angle_dev <= 1e-8
        and rank == 496
        and cert.unextendible_verdict
        and np.array_equal(h.entries, sylvester(4).entries)
        and elapsed < 60.0
    )
    check(4, f"p=31: 496 rank-15 projections, traces 239/33, Sylvester order 16 ({elapsed:.2f}s)", ok)


def test_criterion_5_icosahedron():
    family = icosahedron_lines()
    offdiag = pairwise_traces(family)
    rep = feasibility(3, 1)
    cert = certify_umeb(build_unitaries(family, compute_phase(3, 1)))
    ok = (
        len(family.projections) == 6
        and np.max(np.abs(offdiag - 0.2)) <= 1e-12
        and rep.re_z == Fraction(-7, 8)
        and cert.cardinality == 6
        and cert.max_orthogonality_dev <= 1e-8
        and cert.unextendible_verdict
    )
    check(5, "d=3 icosahedron: traces 1/5, Re(z) = -7/8 exactly, verdict true", ok)


def test_criterion_6_feasibility_oracle():
    def cubic(d, r):
        return d**3 + d**2 * (1 - 4 * r) + d * (4 * r**2 - 4 * r - 2) + 4 * r**2

    ok = True
    for r in range(1, 11):
        valid = range(r + 1, 4 * r + 5)
        for d in valid:
            ok = ok and feasibility(d, r).feasible == (cubic(d, r) <= 0)
        feasible_set = {d for d in valid if feasibility(d, r).feasible}
        ok = ok and feasible_set == {2 * r - 1, 2 * r, 2 * r + 1} & set(valid)
    feasible_r1 = {d for d in range(2, 49) if feasibility(d, 1).feasible}
    ok = ok and feasible_r1 == {2, 3}
    check(6, "feasibility matches cubic sign oracle; r=1 feasible set is {2, 3}", ok)


def test_criterion_7_duality(family_p7):
    dual = dual_family(family_p7)
    report = verify_equiangular(dual)
    z = compute_phase(7, 3)
    cert = certify_umeb(build_unitaries(dual, z))
    ok = (
        dual.r == 4
        and dual.beta == Fraction(20, 9)
        and report.max_angle_dev <= 1e-9
        and cert.cardinality == 28
        and cert.max_orthogonality_dev <= 1e-8
        and cert.unextendible_verdict
    )
    check(7, "dual family: rank 4, traces 20/9, same z gives 28 orthogonal unitaries", ok)


def test_criterion_8_werner_holevo(unitaries_p7):
    code = main(["wh-check", "--p", "7", "--trials", "20", "--seed", "42"])
    dec = umeb_decomposition(unitaries_p7)
    flat = np.asarray([np.asarray(u).flatten(order="F") for u in dec.unitaries.unitaries])
    weights = np.asarray(dec.weights)
    choi_mix = (weights[:, None] * flat).T @ flat.conj()
    target = (np.eye(49) + swap_matrix(7)) / 8  # assembled independently
    choi_dev = float(np.linalg.norm(choi_mix - target))
    rep = verify_decomposition(dec, trials=20, seed=42)
    rank = channel_choi_rank(lambda x: wh_plus_apply(x, 7), 7)
    perturbed = np.array(dec.orbit_weights)
    perturbed[0] += 0.01  # orbit 0
    perturbed /= 7 * perturbed.sum()
    bad = MixedUnitaryDecomposition(orbit_weights=tuple(perturbed), unitaries=dec.unitaries)
    bad_rep = verify_decomposition(bad, trials=20, seed=42)
    ok = (
        code == 0
        and choi_dev <= 1e-8
        and rep.apply_dev_max <= 1e-9
        and rep.verdict
        and rank == 28
        and not bad_rep.verdict
        and bad_rep.apply_dev_max > 1e-4
    )
    check(8, "wh-check p=7: Choi equals (I+SWAP)/8, 20 trials pass, rank 28, control fails", ok)


def test_criterion_9_hadamard_suite():
    ok = True
    for n in (1, 2, 4, 8, 12, 16, 20, 24, 36, 40):
        h = construct(n)
        ok = ok and np.array_equal(h.entries @ h.entries.T, n * np.eye(n, dtype=np.int64))
    ok = ok and np.array_equal(construct(4).entries, H4_REFERENCE)
    check(9, "construct(n) validates exactly for n in {1,2,4,8,12,16,20,24,36,40}", ok)


@pytest.mark.slow
def test_extended_p47_pipeline():
    start = time.perf_counter()
    h = construct(24)
    family = build_residue_family(validate_prime(47), h)
    report = verify_equiangular(family)
    cert = certify_umeb(build_unitaries(family, compute_phase(47, 23)))
    elapsed = time.perf_counter() - start
    ok = (
        len(family.projections) == 1128
        and family.r == 23
        and report.max_angle_dev <= 1e-8
        and cert.span_rank == 1128
        and cert.unextendible_verdict
        and elapsed < 300.0
    )
    check(0, f"extended p=47: 1128 rank-23 projections, verdict true ({elapsed:.2f}s)", ok)


def test_criterion_10_identity_reconstruction(family_p7):
    families = [
        family_p7,
        build_residue_family(validate_prime(3), construct(2)),
        build_residue_family(validate_prime(23), construct(12)),
        icosahedron_lines(),
    ]
    ok = True
    for family in families:
        x = identity_coefficient(family.d, family.r, family.beta)
        total = float(x) * sum(family.projections)
        ok = ok and np.max(np.abs(total - np.eye(family.d))) <= 1e-8
    x7 = identity_coefficient(7, 3, Fraction(11, 9))
    total7 = sum(family_p7.projections)
    ok = ok and x7 == Fraction(1, 12) and np.max(np.abs(total7 - 12 * np.eye(7))) <= 1e-8
    check(10, "x * sum(P_i) = I for all generated families; sum = 12*I at p=7", ok)

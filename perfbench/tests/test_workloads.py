import json
from dataclasses import replace
from pathlib import Path

import numpy as np

import umebkit as uk

from perfbench.layers import LAYER_METRICS
from perfbench.run import END_TO_END
from perfbench.workloads import (
    WORKLOADS,
    Op,
    _gate_family,
    _gate_umeb_output,
    gating,
    pipeline_op,
    sweep_op,
)

ROOT = Path(__file__).resolve().parents[2]

# `umebkit umeb --p 7 --no-timestamp` and its certificate
UMEB_P7_OUTPUT = """\
family: d=7 r=3 count=28 beta=11/9
max pairwise-trace deviation: 4.441e-16
max idempotency deviation:    1.110e-16
max trace-rank deviation:     0.000e+00
equiangular: PASS
phase z = -0.96875 + 0.24803918541230538i
cardinality: 28
max unitarity deviation:     2.225e-16
max orthogonality deviation: 9.853e-16
span rank: 28 (symmetric span: True)
unextendible: PASS
"""
CERT_P7 = {
    "unextendible_verdict": True,
    "cardinality": 28,
    "span_rank": 28,
    "max_unitarity_dev": 2.2247786310271853e-16,
    "max_orthogonality_dev": 9.853229343548264e-16,
    "cj_orthonormality_dev": 2.220446049250313e-16,
}


def test_non_equiangular_family_at_p71_counts_as_failed_without_raising():
    seconds, op, devs = sweep_op(71, seed=1)
    assert seconds > 0
    assert op.failed
    assert not op.claimed_pass and not op.contradicted
    assert "equiangular verdict FAIL" in op.problems
    assert devs["packing.max_angle_dev"] > 0.5


def test_raising_operation_counts_as_failed():
    _, op, devs = sweep_op(5, seed=1)
    assert op.failed and devs == {}
    assert op.problems[0].startswith("raised WrongResidueClass")


def test_small_pipeline_passes_the_gate():
    _, op, devs = pipeline_op(7, seed=11)
    assert op.claimed_pass and not op.failed, op.problems
    assert set(devs) == {"packing.max_angle_dev", "umeb.max_dev", "channels.choi_dev"}


def test_spot_check_contradicts_a_pass_for_a_wrong_family():
    prime = uk.validate_prime(7)
    family = uk.build_residue_family(prime, uk.construct(4))
    report = uk.verify_equiangular(family)
    assert report.passed
    scaled = replace(family, projections=tuple(p * (1 + 1e-6) for p in family.projections))
    op = Op("family p=7", claimed_pass=report.passed)
    _gate_family(op, scaled, report, 7, np.random.default_rng(0))
    assert op.contradicted
    assert any(p.startswith("sampled pairwise-trace deviation") for p in op.problems)


def test_cli_output_gate_reads_verdicts_and_exact_values():
    op = Op("umeb")
    devs = _gate_umeb_output(op, UMEB_P7_OUTPUT, CERT_P7, 7)
    assert op.problems == []
    assert devs["packing.max_angle_dev"] == 4.441e-16

    op = Op("umeb")
    _gate_umeb_output(op, UMEB_P7_OUTPUT.replace("beta=11/9", "beta=11/8")
                      .replace("unextendible: PASS", "unextendible: FAIL"), CERT_P7, 7)
    assert "unextendible verdict FAIL" in op.problems
    assert any(p.startswith("beta 11/8") for p in op.problems)


def test_output_too_malformed_to_read_fails_the_operation_without_raising():
    op = Op("umeb", claimed_pass=True)
    with gating(op):
        _gate_umeb_output(op, UMEB_P7_OUTPUT, {**CERT_P7, "max_unitarity_dev": "n/a"}, 7)
    assert op.contradicted
    assert op.problems[-1].startswith("raised ValueError")


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (m.name, m.unit) for m in LAYER_METRICS
    ]

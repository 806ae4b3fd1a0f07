import dataclasses
import hashlib
import importlib
import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from umebkit import cli, umeb
from umebkit.cli import canonical_json, main, unitary_family_to_json
from umebkit.hadamard import HadamardMatrix, construct
from umebkit.matcore import SupportStack, Tolerance, support_to_json
from umebkit.numth import validate_prime
from umebkit.packing import FAMILY_FIELDS, build_residue_family, family_from_json, off_support_scale, verify_equiangular
from umebkit.umeb import build_unitaries, compute_phase


def run(argv):
    return main(argv)


def test_generate_p7(tmp_path, capsys):
    out = tmp_path / "family7.json"
    assert run(["generate", "--p", "7", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "PASS" in text
    obj = json.loads(out.read_text())
    assert obj["d"] == 7
    assert obj["r"] == 3
    assert (obj["beta_num"], obj["beta_den"]) == (11, 9)
    assert sorted(obj) == FAMILY_FIELDS and obj["bases"]["shape"] == [4, 7, 2]  # two entries a row
    assert sorted(obj["bases"]) == ["cols", "shape", "values"]
    assert "provenance" not in obj and "projections" not in obj


def test_generate_round_trip_deviations_identical(tmp_path):
    out = tmp_path / "family7.json"
    run(["generate", "--p", "7", "--out", str(out)])
    family = family_from_json(json.loads(out.read_text()))
    in_memory = verify_equiangular(family, Tolerance())
    report_path = tmp_path / "report.json"
    assert run(["verify", "--in", str(out), "--report", str(report_path), "--no-timestamp"]) == 0
    report = json.loads(report_path.read_text())
    assert report["max_angle_dev"] == in_memory.max_angle_dev
    assert report["max_idempotency_dev"] == in_memory.max_idempotency_dev
    assert report["max_rank_dev"] == in_memory.max_rank_dev


def test_umeb_p7_writes_certificate(tmp_path):
    out = tmp_path / "unitaries.json"
    cert_path = tmp_path / "cert.json"
    code = run(["umeb", "--p", "7", "--out", str(out), "--cert", str(cert_path), "--no-timestamp"])
    assert code == 0
    cert = json.loads(cert_path.read_text())
    assert cert["cardinality"] == 28
    assert cert["unextendible_verdict"] is True
    assert cert["symmetric_span"] is True
    assert cert["tool_version"]
    assert len(cert["input_sha256"]) == 64
    assert "generated_at" not in cert
    uf = json.loads(out.read_text())
    assert uf["d"] == 7
    assert "unitaries" not in uf  # rebuilt from the source family
    assert sorted(uf["source"]) == FAMILY_FIELDS and uf["source"]["bases"]["shape"] == [4, 7, 2]
    assert uf["z"][0] == -31 / 32


def test_umeb_certificate_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["umeb", "--p", "7", "--cert", str(a), "--no-timestamp"])
    run(["umeb", "--p", "7", "--cert", str(b), "--no-timestamp"])
    assert a.read_bytes() == b.read_bytes()


def test_verify_unitary_family(tmp_path):
    out = tmp_path / "unitaries.json"
    run(["umeb", "--p", "7", "--out", str(out)])
    assert run(["verify", "--in", str(out)]) == 0


def _deviation_lines(text):
    return [line for line in text.splitlines() if line.startswith(("max unitarity", "max orthogonality"))]


def test_umeb_artifact_is_reproducible_and_verifies_alike(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["umeb", "--p", "23", "--out", str(a), "--no-timestamp"]) == 0
    written = capsys.readouterr().out
    assert run(["umeb", "--p", "23", "--out", str(b), "--no-timestamp"]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert run(["verify", "--in", str(a), "--no-timestamp"]) == 0
    read = capsys.readouterr().out
    assert len(_deviation_lines(read)) == 2 and _deviation_lines(read) == _deviation_lines(written)


def test_umeb_rejects_wrong_residue_class(capsys):
    assert run(["umeb", "--p", "5"]) == 1
    assert "p mod 8" in capsys.readouterr().err


def test_feasibility_table(capsys):
    assert run(["feasibility", "--r", "1", "--dmax", "10", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    feasible = [row["d"] for row in obj["rows"] if row["feasible"]]
    assert feasible == [2, 3]
    by_d = {row["d"]: (row["re_z_num"], row["re_z_den"]) for row in obj["rows"]}
    assert by_d[3] == (-7, 8)


def test_wh_check(capsys):
    assert run(["wh-check", "--p", "7", "--trials", "20", "--seed", "42", "--format", "json", "--no-timestamp"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["verdict"] is True
    assert obj["trials"] == 20
    assert obj["seed"] == 42
    assert obj["choi_dev"] <= 1e-8
    assert obj["apply_dev_max"] <= 1e-9


@pytest.mark.parametrize(
    "argv",
    [
        ["wh-check", "--p", "7", "--seed", "-1"],
        ["wh-check", "--p", "7", "--trials", "-3"],
        ["demo-icosahedron", "--seed", "-5"],
        ["demo-icosahedron", "--trials", "-1"],
    ],
    ids=["wh-seed", "wh-trials", "demo-seed", "demo-trials"],
)
def test_negative_seed_or_trials_is_rejected(argv, capsys, monkeypatch):
    built = []
    for name in ("build_residue_family", "icosahedron_lines"):
        build = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, build=build, name=name: built.append(name) or build(*a))
    assert run(argv) == 1
    assert built == []  # rejected before any family is built
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("umebkit:")


def test_hadamard_command(tmp_path):
    out = tmp_path / "h12.json"
    assert run(["hadamard", "--order", "12", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    h = HadamardMatrix(order=obj["order"], entries=obj["rows"])
    assert h.order == 12


def test_hadamard_command_unsupported():
    assert run(["hadamard", "--order", "6"]) == 1


def test_demo_icosahedron(capsys):
    assert run(["demo-icosahedron"]) == 0
    text = capsys.readouterr().out
    re_z, im_z = re.search(r"^phase z = (\S+) \+ (\S+)i$", text, re.MULTILINE).groups()
    assert float(re_z) == float(Fraction(-7, 8))
    assert abs(complex(float(re_z), float(im_z))) == pytest.approx(1.0)
    assert "FAIL" not in text


@pytest.mark.parametrize("fmt", [[], ["--format", "json", "--no-timestamp"]], ids=["text", "json"])
def test_demo_icosahedron_is_the_wh_check_of_p3(fmt, capsys):
    # the icosahedron lines are the residue family at p=3, and the demo checks the same three claims on them
    assert run(["demo-icosahedron"] + fmt) == 0
    demo = capsys.readouterr().out
    assert run(["wh-check", "--p", "3"] + fmt) == 0
    assert capsys.readouterr().out == demo


@pytest.mark.parametrize(
    "check, field, line",
    [
        ("verify_equiangular", "passed", "equiangular"),
        ("certify_umeb", "unextendible_verdict", "unextendible"),
        ("verify_decomposition", "verdict", "decomposition"),
    ],
    ids=["equiangular", "certificate", "decomposition"],
)
def test_wh_check_exits_2_when_any_claim_fails(check, field, line, monkeypatch, capsys):
    # every claim that runs counts toward the exit code, the family's too
    passing = getattr(cli, check)
    monkeypatch.setattr(cli, check, lambda *args, **kwargs: dataclasses.replace(passing(*args, **kwargs), **{field: False}))
    assert run(["wh-check", "--p", "7"]) == 2
    verdicts = re.findall(r"^(\w+): (PASS|FAIL)$", capsys.readouterr().out, re.MULTILINE)
    assert verdicts == [(name, "FAIL" if name == line else "PASS") for name in ("equiangular", "unextendible", "decomposition")]


def test_the_certificate_holds_the_equiangular_report(tmp_path):
    cert_path = tmp_path / "cert.json"
    assert run(["umeb", "--p", "7", "--cert", str(cert_path), "--no-timestamp"]) == 0
    cert = json.loads(cert_path.read_text())
    report = verify_equiangular(build_residue_family(validate_prime(7), construct(4)), Tolerance())
    for key in ("max_angle_dev", "max_idempotency_dev", "max_rank_dev", "passed"):
        assert cert[key] == getattr(report, key), key
    assert (cert["d"], cert["r"], cert["count"]) == (7, 3, 28)


def assert_json_is_stamped_unless_asked_not_to(argv, capsys):
    assert run(argv + ["--format", "json"]) == 0
    assert "generated_at" in json.loads(capsys.readouterr().out)
    outputs = []
    for _ in range(2):
        assert run(argv + ["--format", "json", "--no-timestamp"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "generated_at" not in json.loads(outputs[0])


def test_demo_icosahedron_json_is_stamped_unless_asked_not_to(capsys):
    assert_json_is_stamped_unless_asked_not_to(["demo-icosahedron"], capsys)


def test_generate_json_is_stamped_unless_asked_not_to(capsys):
    assert_json_is_stamped_unless_asked_not_to(["generate", "--p", "7"], capsys)


def test_k_override_pipeline():
    assert run(["umeb", "--p", "7", "--k", "5"]) == 0
    assert run(["umeb", "--p", "7", "--k", "4"]) == 1  # 4 is a residue


def test_usage_error_exit_code():
    assert run(["umeb"]) == 1  # missing --p
    assert run(["no-such-command"]) == 1


def test_verify_missing_file():
    assert run(["verify", "--in", "/nonexistent/file.json"]) == 1


def test_verify_rejects_unknown_payload(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps({"hello": 1}))
    assert run(["verify", "--in", str(path)]) == 1


def test_verify_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(["verify", "--in", str(path)]) == 1


@pytest.mark.parametrize(
    "content",
    [
        pytest.param(b"[" * 100000 + b"]" * 100000, id="deeply-nested"),
        pytest.param(b'{"d": "\xff"}', id="not-utf8"),
        # UTF-16 JSON is valid JSON in another encoding: an artifact is UTF-8
        pytest.param('{"d": 7}'.encode("utf-16"), id="utf-16"),
    ],
)
def test_verify_rejects_unreadable_json(tmp_path, capsys, content):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    assert run(["verify", "--in", str(path)]) == 1
    assert "invalid JSON" in _one_error_line(capsys)


def test_verify_rejects_missing_fields(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"unitaries": []}))  # no "z", no "d"
    assert run(["verify", "--in", str(path)]) == 1


@pytest.mark.parametrize(
    "argv, stage",
    [(["umeb", "--p", "7"], "build_residue_family"), (["hadamard", "--order", "16"], "construct")],
    ids=["umeb", "hadamard"],
)
def test_running_out_of_memory_is_one_error_line(argv, stage, monkeypatch, capsys):
    # the stage raises as numpy does when an array does not fit; nothing is allocated
    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.04 GiB for an array with shape (516, 515, 1031) and data type float64")

    monkeypatch.setattr(cli, stage, fail)
    assert run(argv) == 1
    assert _one_error_line(capsys) == (
        "umebkit: error: out of memory: Unable to allocate 2.04 GiB for an array with shape (516, 515, 1031) "
        "and data type float64"
    )


def test_feasibility_empty_range_is_usage_error():
    assert run(["feasibility", "--r", "5", "--dmax", "3"]) == 1


@pytest.mark.parametrize(
    "argv", [["feasibility", "--r", "1", "--dmax", "10"], ["hadamard", "--order", "4"]], ids=["feasibility", "hadamard"]
)
def test_commands_that_check_nothing_take_no_tolerance(argv, capsys):
    # neither command reads a tolerance or stamps a report, so these options are usage errors
    for extra in (["--eps", "5"], ["--eps", "-1"], ["--rank-eps", "0.5"], ["--no-timestamp"]):
        assert run(argv + extra) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
    assert run(argv + ["--format", "json"]) == 0


def test_a_tampered_p79_artifact_ends_in_a_verdict_from_the_shift_blocks(tmp_path, monkeypatch, capsys):
    # source base 0 replaced by base 0 + 2 (base 1 - base 2), of the same trace r, which the loader
    # checks: the discs prove nothing, and the rank comes from one batched eigvalsh on the 79
    # blocks of 40 x 40, never from the 3160 x 3160 Gram
    path = tmp_path / "umeb79.json"
    assert run(["umeb", "--p", "79", "--out", str(path), "--no-timestamp"]) == 0
    obj = json.loads(path.read_text())
    stack = obj["source"]["bases"]
    values = np.reshape(stack["values"], stack["shape"])  # every base on the one column table
    values[0] += 2 * (values[1] - values[2])
    stack["values"] = values.ravel().tolist()
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    eigvalsh = np.linalg.eigvalsh
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    passes = []
    gram_stats = umeb.gram_stats
    monkeypatch.setattr(umeb, "gram_stats", lambda gram: passes.append((gram.c.shape, gram.h.shape)) or gram_stats(gram))
    assert run(["verify", "--in", str(path), "--no-timestamp"]) == 2
    assert "unextendible: FAIL" in capsys.readouterr().out
    assert calls == [(79, 40, 40)]
    # the unitary family's Gram, read in one pass: the tampered base keeps the shared diagonal
    # (2 (base 1 - base 2) adds exact zeros to it), so one correlation stands for every pair
    assert passes == [((40, 40), (1, 1, 79))]


@pytest.mark.parametrize("p", [7, 31])
def test_the_umeb_artifact_is_the_canonical_json_of_the_family(p, tmp_path):
    out, cert = tmp_path / "umeb.json", tmp_path / "cert.json"
    assert run(["umeb", "--p", str(p), "--out", str(out), "--cert", str(cert), "--no-timestamp"]) == 0
    fam = build_residue_family(validate_prime(p), construct((p + 1) // 2))
    uf_obj = unitary_family_to_json(fam, compute_phase(p, fam.r))
    assert out.read_bytes() == canonical_json(uf_obj).encode("utf-8")
    source = canonical_json(uf_obj["source"]).encode("utf-8")
    assert json.loads(cert.read_text())["input_sha256"] == hashlib.sha256(source).hexdigest()


def test_eps_flag_tightens_verdict(tmp_path):
    # an absurdly small eps turns machine-precision deviations into failures
    assert run(["generate", "--p", "7", "--eps", "1e-20"]) == 2


def test_env_tolerance_override(monkeypatch):
    monkeypatch.setenv("UMEB_TOL", "1e-20")
    assert run(["generate", "--p", "7"]) == 2
    monkeypatch.delenv("UMEB_TOL")
    assert run(["generate", "--p", "7"]) == 0


@pytest.fixture(scope="module")
def p7_artifacts(tmp_path_factory):
    """p=7 family (`generate --out`), unitary family (`umeb --out`) and certificate."""
    d = tmp_path_factory.mktemp("p7")
    paths = {"family": d / "family.json", "unitary": d / "umeb.json", "cert": d / "cert.json"}
    assert run(["generate", "--p", "7", "--out", str(paths["family"])]) == 0
    assert run(["umeb", "--p", "7", "--out", str(paths["unitary"]), "--cert", str(paths["cert"])]) == 0
    return paths


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of the --no-timestamp artifacts on the bases' support, {"shape", "cols", "values"}:
# a change to these bytes is a change of the artifact format
RECORDED_ARTIFACTS = {
    ("umeb", 7): "8f8a1f0abd7ddce67b79b673184a8b108b4cef16a386d165ffb369d6e4a95c51",
    ("umeb", 31): "da1fc5d4c4ff6e1ffdf9a00dfae728a62507c6b00e8481c239703e39ead51ad0",
    ("umeb", 79): "fdd1be409b9fc8ba3be73f583d9fc56c561de3a28127eeb38584ebf44d6b42de",
    ("generate", 7): "352651f8c9a3a6f8340c71d16d0c2a9f4cbe80738399813bd3aaec9678ad0295",
    ("generate", 31): "2246af4beffddb51cb926d5d5c5f9ca89dd1cc032e002213fab9ab625e4b4e18",
    ("generate", 79): "cce0e7fc94f80f0a7851621bbf7789e8db66a8cc46439dec5388331bf212fa9e",
}


@pytest.mark.parametrize("command, p", list(RECORDED_ARTIFACTS), ids=[f"{c}-p{p}" for c, p in RECORDED_ARTIFACTS])
def test_artifacts_keep_their_recorded_bytes(command, p, tmp_path):
    out = tmp_path / "artifact.json"
    assert run([command, "--p", str(p), "--out", str(out), "--no-timestamp"]) == 0
    assert _sha256(out) == RECORDED_ARTIFACTS[command, p]


@pytest.mark.parametrize("p", [7, 31])
def test_the_benchmark_gates_pass_the_live_output(p, tmp_path, monkeypatch, capsys):
    # the benchmark reads umeb's and verify's stdout and the certificate through these gates,
    # imported as they are, so what they read is a contract of the command line
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    workloads = importlib.import_module("perfbench.workloads")
    artifact, cert = tmp_path / "umeb.json", tmp_path / "cert.json"
    capsys.readouterr()
    assert run(["umeb", "--p", str(p), "--out", str(artifact), "--cert", str(cert), "--no-timestamp"]) == 0
    umeb_out = capsys.readouterr().out
    assert run(["verify", "--in", str(artifact), "--no-timestamp"]) == 0
    verify_out = capsys.readouterr().out
    write, read, empty = workloads.Op("umeb"), workloads.Op("verify"), workloads.Op("no output")
    workloads._gate_umeb_output(write, umeb_out, json.loads(cert.read_text()), p)
    workloads._gate_verify_output(read, verify_out, umeb_out, p)
    workloads._gate_verify_output(empty, "", umeb_out, p)
    assert write.problems == [] and read.problems == []
    assert empty.problems  # the gates read the output


def test_umeb_stdout_is_the_certificate_file(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert run(["umeb", "--p", "7", "--cert", str(cert_path), "--format", "json"]) == 0
    emitted = json.loads(capsys.readouterr().out)
    assert "generated_at" in emitted
    assert emitted == json.loads(cert_path.read_text())


def test_verify_input_sha256_is_the_file_digest(p7_artifacts, capsys):
    capsys.readouterr()
    assert run(["verify", "--in", str(p7_artifacts["unitary"]), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["input_sha256"] == _sha256(p7_artifacts["unitary"])


@pytest.mark.parametrize("artifact", ["family", "unitary"])
def test_verify_hashes_the_bytes_it_read(p7_artifacts, tmp_path, capsys, artifact):
    # a pretty-printed artifact is the same artifact in other bytes: it verifies, and the
    # report's input_sha256 is that of the file as read, not of a canonical re-encoding
    pretty = tmp_path / "pretty.json"
    pretty.write_text(json.dumps(json.loads(p7_artifacts[artifact].read_text()), indent=1))
    capsys.readouterr()
    assert run(["verify", "--in", str(pretty), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["input_sha256"] == _sha256(pretty) != _sha256(p7_artifacts[artifact])


def test_umeb_text_report_encodes_no_family(monkeypatch, capsys):
    # the text report prints no digest, so without --out, --cert or --format json the family
    # is not encoded; with --cert it is, once
    encoded = []
    canonical = cli.canonical_json
    monkeypatch.setattr(cli, "canonical_json", lambda obj: encoded.append(obj) or canonical(obj))
    assert run(["umeb", "--p", "7"]) == 0
    assert "unextendible: PASS" in capsys.readouterr().out
    assert encoded == []
    assert run(["umeb", "--p", "7", "--format", "json", "--no-timestamp"]) == 0
    assert [sorted(obj) for obj in encoded if isinstance(obj, dict)][0] == FAMILY_FIELDS
    report = json.loads(capsys.readouterr().out)
    fam = build_residue_family(validate_prime(7), construct(4))
    source = canonical_json(unitary_family_to_json(fam, compute_phase(7, fam.r))["source"])
    assert report["input_sha256"] == hashlib.sha256(source.encode("utf-8")).hexdigest()


def test_certificate_input_sha256_is_the_generated_family_digest(p7_artifacts, tmp_path):
    alone = tmp_path / "cert.json"  # without --out the family is encoded on its own
    assert run(["umeb", "--p", "7", "--cert", str(alone)]) == 0
    for cert_path in (p7_artifacts["cert"], alone):
        assert json.loads(cert_path.read_text())["input_sha256"] == _sha256(p7_artifacts["family"])


def dense_stack_json(stack):
    """A dense stack {"shape": [n, d, d], "re": [...]}, as earlier versions wrote a family's members or bases."""
    return {"shape": list(stack.shape), "re": stack.real.ravel().tolist()}


def complex_stack_json(stack):
    """A dense stack with an "im" part, as earlier versions wrote complex stacks."""
    return dict(dense_stack_json(stack), im=stack.imag.ravel().tolist())


DELETE = object()
IDENTITIES = complex_stack_json(np.tile(np.eye(7, dtype=complex), (28, 1, 1)))
# hand-made d=3 families of two bases whose rank r lies outside 1 <= r < d: with beta
# set to tr(P_i P_j), each meets the equiangular check, so only the rank rule rejects it
ZERO_BASES = {
    "d": 3, "r": 0, "beta_num": 0, "beta_den": 1, "C": off_support_scale(3),
    "bases": support_to_json(SupportStack.of(np.zeros((2, 3, 3)), 3)),
}
IDENTITY_BASES = dict(ZERO_BASES, r=3, beta_num=3, bases=support_to_json(SupportStack.of(np.tile(np.eye(3), (2, 1, 1)), 3)))
# the p=7 bases conjugated by a diagonal phase, D P D*: complex projections with the traces of P,
# on the real bases' column table, their imaginary parts beside the values
PHASES = np.exp(0.7j * np.arange(7))
P7_BASES = build_residue_family(validate_prime(7), construct(4)).bases
PHASED = PHASES[:, None] * P7_BASES.values * PHASES[P7_BASES.cols].conj()
COMPLEX_BASES = dict(support_to_json(SupportStack(P7_BASES.cols, PHASED.real)), im=PHASED.imag.ravel().tolist())
# the p=7 family as the parent format wrote it: every base dense, and the shift count d beside it
DENSE_BASES = dense_stack_json(P7_BASES.dense())


@pytest.mark.parametrize(
    "artifact, path, value, code",
    [
        pytest.param("family", ("bases", "values", 0), "0.5", 1, id="family-string-entry"),
        pytest.param("family", ("bases", "values", 0), [0.5], 1, id="family-short-pair"),
        pytest.param("family", ("bases", "values", 0), None, 1, id="family-null-entry"),
        pytest.param("family", ("bases", "shape", 0), 27, 1, id="family-shape-disagrees"),
        # the bases' shape is three integers [T, d, s], T >= 1, 1 <= s <= d, d the family's
        pytest.param("family", ("bases", "shape"), [4, 14], 1, id="family-shape-two-axes"),
        pytest.param("family", ("bases", "shape", 1), 5, 1, id="family-shape-d-disagrees"),
        pytest.param("family", ("bases", "shape", 2), 2.0, 1, id="family-shape-float"),
        pytest.param("family", ("bases",), {"shape": [4, 7, 0], "cols": [], "values": []}, 1, id="family-no-column"),
        pytest.param("family", ("bases",), {"shape": [1, 7, 8], "cols": list(range(8)) * 7, "values": [0.0] * 56}, 1, id="family-more-columns-than-d"),
        # each list's length is that of the shape
        pytest.param("family", ("bases", "values", -1), DELETE, 1, id="family-values-short"),
        pytest.param("family", ("bases", "cols", -1), DELETE, 1, id="family-cols-short"),
        pytest.param("unitary", ("source", "bases", "values", -1), DELETE, 1, id="unitary-values-short"),
        # each column is an integer in 0..d-1, listed once in its row: row 1 is the pair {1, 3}
        pytest.param("family", ("bases", "cols", 2), 1.0, 1, id="family-float-column"),
        pytest.param("family", ("bases", "cols", 2), -1, 1, id="family-negative-column"),
        pytest.param("family", ("bases", "cols", 2), 7, 1, id="family-column-d"),
        pytest.param("family", ("bases", "cols", 3), 1, 1, id="family-repeated-column"),
        pytest.param("unitary", ("source", "bases", "cols", 3), 1, 1, id="unitary-repeated-column"),
        # each value is finite
        pytest.param("family", ("bases", "values", 2), float("nan"), 1, id="family-nan-value"),
        pytest.param("unitary", ("source", "bases", "values", 2), float("inf"), 1, id="unitary-inf-value"),
        # a JSON bool is no number: false in place of row 0's padding value 0.0, and true in
        # place of its padding column 1, would each read as the same family
        pytest.param("family", ("bases", "values", 0), False, 1, id="family-false-value"),
        pytest.param("family", ("bases", "cols", 1), True, 1, id="family-true-column"),
        pytest.param("unitary", ("source", "bases", "values", 0), False, 1, id="unitary-false-value"),
        pytest.param("unitary", ("source", "bases", "cols", 1), True, 1, id="unitary-true-column"),
        # a provenance field belongs to the dense format of earlier versions
        pytest.param("family", ("provenance",), [[0, 0]], 1, id="family-provenance-short"),
        # the "shifts" field of the parent format, at any value, marks that earlier format
        pytest.param("family", ("shifts",), 7, 1, id="family-shifts-d"),
        pytest.param("family", ("shifts",), 7.0, 1, id="family-shift-float"),
        pytest.param("family", ("shifts",), 2, 1, id="family-shifts-other"),
        pytest.param("family", ("shifts",), 1, 1, id="family-shifts-one"),
        pytest.param("family", ("shifts",), 6, 1, id="family-shifts-d-minus-1"),
        pytest.param("family", ("shifts",), 14, 1, id="family-shifts-2d"),
        # and its dense bases, with or without the shift count
        pytest.param("family", ("bases",), DENSE_BASES, 1, id="family-dense-bases"),
        pytest.param("unitary", ("source", "bases"), DENSE_BASES, 1, id="unitary-source-dense-bases"),
        pytest.param("family", ("beta_den",), 0, 1, id="family-beta-den-0"),
        pytest.param("family", ("d",), "seven", 1, id="family-d-string"),
        pytest.param("family", ("d",), 5, 1, id="family-d-disagrees"),
        pytest.param("family", ("d",), 7.0, 1, id="family-d-float"),
        pytest.param("family", ("C",), float("nan"), 1, id="family-scale-nan"),
        pytest.param("family", ("C",), off_support_scale(7) * (1 + 1e-6), 1, id="family-scale-off"),
        pytest.param("family", ("C",), None, 1, id="family-scale-null"),
        pytest.param("unitary", ("source", "C"), off_support_scale(7) * (1 - 1e-6), 1, id="unitary-scale-off"),
        pytest.param("family", ("bases",), {"shape": [0, 7, 2], "cols": [0] * 14, "values": []}, 1, id="family-empty"),
        # a family's bases are real: complex ones would pass the equiangular check
        pytest.param("family", ("bases",), COMPLEX_BASES, 1, id="family-complex"),
        pytest.param("unitary", ("source", "bases"), COMPLEX_BASES, 1, id="unitary-source-complex"),
        pytest.param("unitary", ("source", "bases", "values", 0), "0.5", 1, id="unitary-string-entry"),
        pytest.param("unitary", ("source", "bases", "values", 0), [0.5], 1, id="unitary-short-pair"),
        pytest.param("unitary", ("source", "bases", "values", 0), None, 1, id="unitary-null-entry"),
        # the members of the dense format of earlier versions beside the source
        pytest.param("unitary", ("unitaries",), IDENTITIES, 1, id="bare-dense-format"),
        pytest.param("unitary", ("source", "shifts"), 1, 1, id="unitary-source-one-shift"),
        pytest.param("unitary", ("source", "shifts"), 6, 1, id="unitary-source-shifts-d-minus-1"),
        pytest.param("unitary", ("source", "shifts"), 14, 1, id="unitary-source-shifts-2d"),
        pytest.param("unitary", ("source", "beta_den"), 0, 1, id="unitary-beta-den-0"),
        pytest.param("unitary", ("d",), "seven", 1, id="unitary-d-string"),
        pytest.param("unitary", ("d",), 5, 1, id="unitary-d-disagrees"),
        pytest.param("unitary", ("source", "bases"), {"shape": [0, 7, 2], "cols": [0] * 14, "values": []}, 1, id="unitary-empty"),
        pytest.param("unitary", ("z", 0), float("nan"), 1, id="unitary-z-nan"),
        pytest.param("unitary", ("bases",), IDENTITIES, 1, id="unitary-both-keys"),
        pytest.param("unitary", ("source",), DELETE, 1, id="unitary-neither-key"),
        # the unitaries are rebuilt with this z, so a wrong phase is a failed verdict
        pytest.param("unitary", ("z",), [1.0, 0.0], 2, id="unitary-z-disagrees"),
        # an empty path replaces the whole artifact
        pytest.param("family", (), ZERO_BASES, 1, id="family-rank-0"),
        pytest.param("family", (), IDENTITY_BASES, 1, id="family-rank-d"),
        pytest.param("family", ("r",), 10**400, 1, id="family-rank-huge"),
        pytest.param("unitary", ("source", "r"), 10**400, 1, id="unitary-source-rank-huge"),
        pytest.param("family", ("beta_num",), 10**400, 1, id="family-beta-huge"),
        pytest.param("unitary", ("source", "beta_num"), 10**400, 1, id="unitary-source-beta-huge"),
        # the source's r (3 at p=7) is the trace the equiangular check compares each base with
        pytest.param("unitary", ("source", "r"), 2, 2, id="unitary-source-rank-disagrees"),
    ],
)
def test_verify_rejects_malformed_artifact(p7_artifacts, tmp_path, capsys, artifact, path, value, code):
    if path:
        obj = json.loads(p7_artifacts[artifact].read_text())
        *parents, last = path
        target = obj
        for key in parents:
            target = target[key]
        if value is DELETE:
            del target[last]
        else:
            target[last] = value
    else:
        obj = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["verify", "--in", str(bad)]) == code
    if code == 1:
        _one_error_line(capsys)
    else:
        assert re.search(r"^\w+: FAIL$", capsys.readouterr().out, re.MULTILINE)


@pytest.mark.parametrize("field, value", [("beta_num", 12), ("beta_den", 10**400)], ids=["beta-num-12", "beta-den-huge"])
def test_a_source_whose_bases_miss_its_beta_fails_verify(p7_artifacts, tmp_path, capsys, field, value):
    # beta is 11/9 at p=7: 12/9, or a beta_den past any float, is a valid beta that the bases do not meet,
    # and only the equiangular check reads it
    obj = json.loads(p7_artifacts["unitary"].read_text())
    obj["source"][field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["verify", "--in", str(bad)]) == 2
    out = capsys.readouterr().out
    assert "equiangular: FAIL" in out and "unextendible: PASS" in out


def _one_error_line(capsys):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("umebkit:"), err
    return err[0]


@pytest.mark.parametrize(
    "argv, env",
    [
        pytest.param(["umeb", "--p", "7", "--eps", "-1"], None, id="eps-negative"),
        pytest.param(["umeb", "--p", "7", "--rank-eps", "0"], None, id="rank-eps-zero"),
        pytest.param(["umeb", "--p", "7"], "abc", id="env-not-a-number"),
        pytest.param(["wh-check", "--p", "7", "--eps", "nan"], None, id="eps-nan"),
        # a tolerance of 1 or more would make every check vacuous
        pytest.param(["umeb", "--p", "7", "--eps", "1e300"], None, id="eps-huge"),
        pytest.param(["umeb", "--p", "7", "--eps", "1"], None, id="eps-one"),
        pytest.param(["wh-check", "--p", "7", "--rank-eps", "1"], None, id="rank-eps-one"),
        pytest.param(["umeb", "--p", "7"], "1e300", id="env-huge"),
    ],
)
def test_bad_tolerance_is_rejected(argv, env, monkeypatch, capsys):
    if env is not None:
        monkeypatch.setenv("UMEB_TOL", env)
    assert run(argv) == 1
    assert "tol" in _one_error_line(capsys).lower()


def test_infinite_tolerance_cannot_pass_a_bad_artifact(p7_artifacts, tmp_path, capsys):
    obj = json.loads(p7_artifacts["unitary"].read_text())
    obj["source"]["bases"]["values"][1] = 5.0  # base 0 at (0, 1), where it is 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    for eps in ("inf", "1e300"):
        assert run(["verify", "--in", str(bad), "--eps", eps]) == 1
        assert "tol" in _one_error_line(capsys).lower()
    assert run(["verify", "--in", str(bad)]) == 2  # the finite default fails it
    assert "unextendible: FAIL" in capsys.readouterr().out


def test_dense_format_of_earlier_versions_exits_1_with_one_line(tmp_path, capsys):
    # the artifacts as earlier versions wrote or read them: every member, and provenance; then
    # the dense bases with their shift count, which the parent format wrote
    family = build_residue_family(validate_prime(7), construct(4))
    uf = build_unitaries(family, compute_phase(7, 3))
    old_family = {
        "d": 7, "r": 3, "beta_num": 11, "beta_den": 9, "C": off_support_scale(7),
        "provenance": [[t, x] for t in range(4) for x in range(7)],
        "projections": dense_stack_json(family.projections),
    }
    dense_family = {"d": 7, "r": 3, "beta_num": 11, "beta_den": 9, "C": off_support_scale(7), "shifts": 7, "bases": DENSE_BASES}
    for i, obj in enumerate((
        old_family,
        {"d": 7, "z": [uf.z.real, uf.z.imag], "source": old_family},
        {"d": 7, "z": [uf.z.real, uf.z.imag], "unitaries": complex_stack_json(uf.unitaries)},
        # the bases of the unitaries without their source, which no command wrote
        {"d": 7, "z": [uf.z.real, uf.z.imag], "shifts": 7, "bases": complex_stack_json(uf.bases.dense())},
        dense_family,
        {"d": 7, "z": [uf.z.real, uf.z.imag], "source": dense_family},
        # the dense bases alone, without the shift count
        {key: value for key, value in dense_family.items() if key != "shifts"},
    )):
        path = tmp_path / f"old{i}.json"
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert run(["verify", "--in", str(path)]) == 1
        assert "the fields" in _one_error_line(capsys)

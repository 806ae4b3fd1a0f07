import cmath
import dataclasses
import hashlib
import importlib
import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from umebkit import cli, hadamard, matcore, packing
from umebkit.channels import MixedUnitaryDecomposition
from umebkit.cli import artifact_from_json, artifact_to_json, canonical_json, main
from umebkit.errors import MalformedArtifact
from umebkit.hadamard import HadamardMatrix, construct
from umebkit.matcore import SupportStack, Tolerance
from umebkit.numth import validate_prime
from umebkit.packing import build_residue_family, off_support_scale, verify_equiangular
from umebkit.umeb import build_unitaries, certify_umeb, compute_phase

from oracles import member_stack, support_stack

GENERATOR_FIELDS = ["hadamard", "k", "p"]


def run(argv):
    return main(argv)


def test_generate_p7(tmp_path, capsys):
    out = tmp_path / "family7.json"
    assert run(["generate", "--p", "7", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "PASS" in text
    obj = json.loads(out.read_text())
    # the family's generator: p, the default non-residue k and construct's H
    assert obj == {"p": 7, "k": 3, "hadamard": {"order": 4, "rows": construct(4).entries.tolist()}}


def test_generate_round_trip_deviations_identical(tmp_path):
    out = tmp_path / "family7.json"
    run(["generate", "--p", "7", "--out", str(out)])
    prime, h, z = artifact_from_json(json.loads(out.read_text()))
    assert z is None  # a projection family's artifact holds no phase
    family = build_residue_family(prime, h)
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
    assert sorted(uf) == GENERATOR_FIELDS + ["z"]  # the unitaries are rebuilt from the generator and z
    assert (uf["p"], uf["k"], uf["hadamard"]["order"]) == (7, 3, 4)
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


def test_umeb_with_another_k_verifies_to_the_same_report_byte_for_byte(tmp_path, capsys):
    # 7 is a non-residue mod 23 other than the default 5: the artifact carries it, and verify
    # rebuilds the same family, so it prints umeb's text report byte for byte
    out = tmp_path / "umeb23.json"
    assert run(["umeb", "--p", "23", "--k", "7", "--out", str(out), "--no-timestamp"]) == 0
    written = capsys.readouterr().out
    assert json.loads(out.read_text())["k"] == 7
    assert run(["verify", "--in", str(out), "--no-timestamp"]) == 0
    read = capsys.readouterr().out
    assert len(_deviation_lines(read)) == 2 and read == written
    # and it is the family of k = 7, whose support pairs q with 7q, not the default's 5q
    prime, h, _ = artifact_from_json(json.loads(out.read_text()))
    assert prime.k == 7 and h.entries.tobytes() == construct(12).entries.tobytes()
    cols = build_residue_family(prime, h).bases.cols
    assert cols.tobytes() == build_residue_family(validate_prime(23, 7), construct(12)).bases.cols.tobytes()
    assert cols.tobytes() != build_residue_family(validate_prime(23), construct(12)).bases.cols.tobytes()


def test_a_hadamard_matrix_that_is_not_constructs_loads_and_certifies(tmp_path, capsys):
    # construct's order-12 matrix with rows 1 and 4 negated and the rows permuted: another Hadamard
    # matrix, so another family of the construction, which every claim still holds for
    rows = construct(12).entries * np.where(np.isin(np.arange(12), [1, 4]), -1, 1)[:, None]
    rows = rows[np.random.default_rng(5).permutation(12)]
    z = compute_phase(23, 11)
    artifact = {"p": 23, "k": 5, "hadamard": {"order": 12, "rows": rows.tolist()}, "z": [z.real, z.imag]}
    path = tmp_path / "other-h.json"
    path.write_text(json.dumps(artifact))
    assert not np.array_equal(rows, construct(12).entries)
    capsys.readouterr()
    assert run(["verify", "--in", str(path), "--no-timestamp"]) == 0
    out = capsys.readouterr().out
    assert "equiangular: PASS" in out and "unextendible: PASS" in out


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


def test_the_channel_report_builds_no_member_weights(monkeypatch, capsys):
    # the mixture line reads the member count off the family and the one weight off the orbit
    # weights: the n member weights are never built, and the text is the same
    lines = {"wh-check": "mixture of 28 unitaries, weight 0.03571428571428571", "demo-icosahedron": "mixture of 6 unitaries, weight 0.16666666666666666"}
    argvs = [["wh-check", "--p", "7"], ["demo-icosahedron"]]
    expected = []
    for argv in argvs:
        assert run(argv) == 0
        expected.append(capsys.readouterr().out)
        assert lines[argv[0]] in expected[-1].splitlines()

    def built(self):
        raise AssertionError("the member weights were built")

    monkeypatch.setattr(MixedUnitaryDecomposition, "weights", property(built))
    for argv, out in zip(argvs, expected):
        assert run(argv) == 0
        assert capsys.readouterr().out == out


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
        ("certificate_from_report", "unextendible_verdict", "unextendible"),
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
    # the command line derives its certificate from the report it prints, and every field is the
    # one certify_umeb derives from its own pass, so the two paths cannot drift apart
    cert_path = tmp_path / "cert.json"
    for p in (3, 7, 23):
        assert run(["umeb", "--p", str(p), "--cert", str(cert_path), "--no-timestamp"]) == 0
        cert = json.loads(cert_path.read_text())
        family = build_residue_family(validate_prime(p), construct((p + 1) // 2))
        report = verify_equiangular(family, Tolerance())
        for key in ("max_angle_dev", "max_idempotency_dev", "max_rank_dev", "passed"):
            assert cert[key] == getattr(report, key), key
        assert (cert["d"], cert["r"], cert["count"]) == (p, (p - 1) // 2, p * (p + 1) // 2)
        certificate = dataclasses.asdict(certify_umeb(build_unitaries(family, compute_phase(p, family.r))))
        assert {key: cert[key] for key in certificate} == certificate, p


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


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--p", "7"],
        ["umeb", "--p", "7"],
        ["verify", "--in", "family"],
        ["wh-check", "--p", "7"],
        ["demo-icosahedron"],
    ],
    ids=["generate", "umeb", "verify", "wh-check", "demo-icosahedron"],
)
def test_checking_commands_take_no_rank_threshold(argv, p7_artifacts, capsys):
    # eps is the one tolerance: the certificate proves the span rank against a margin of its own
    argv = [str(p7_artifacts[arg]) if arg in p7_artifacts else arg for arg in argv]
    for value in ("1e-7", "0.5"):
        assert run(argv + ["--rank-eps", value]) == 1
        assert "unrecognized arguments: --rank-eps" in capsys.readouterr().err


def test_a_tampered_p79_artifact_ends_in_a_verdict_from_the_discs(tmp_path, monkeypatch, capsys):
    # the phase z turned by 0.1 rad, still of modulus 1: the unitaries are no longer trace-orthogonal,
    # so the Gershgorin discs of the derived bounds prove no rank (0) and no spectrum is computed; the
    # one Gram is the projections', whose equiangular report the certificate is read off
    path = tmp_path / "umeb79.json"
    assert run(["umeb", "--p", "79", "--out", str(path), "--no-timestamp"]) == 0
    obj = json.loads(path.read_text())
    z = complex(*obj["z"]) * cmath.exp(0.1j)
    obj["z"] = [z.real, z.imag]
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    eigvalsh = np.linalg.eigvalsh
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    passes = []
    max_off_diagonal = packing.max_off_diagonal
    monkeypatch.setattr(
        packing, "max_off_diagonal", lambda gram: passes.append((gram.c.dtype, gram.h.shape)) or max_off_diagonal(gram)
    )
    assert run(["verify", "--in", str(path), "--no-timestamp", "--format", "json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert (report["span_rank"], report["unextendible_verdict"], report["passed"]) == (0, False, True)
    assert calls == []
    # every base keeps the shared diagonal, so one correlation stands for every pair
    assert passes == [(np.dtype(float), (1, 1, 79))]


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--p", "7"],
        ["umeb", "--p", "7"],
        ["verify", "--in", "family"],
        ["verify", "--in", "unitary"],
        ["wh-check", "--p", "7", "--trials", "2"],
        ["demo-icosahedron"],
    ],
    ids=["generate", "umeb", "verify-family", "verify-unitary", "wh-check", "demo-icosahedron"],
)
def test_every_command_runs_the_equiangular_pass_once(argv, p7_artifacts, monkeypatch, capsys):
    # the certificate is read off the report the command prints, so one family gets one Gram
    # and one idempotency pass, whether or not a phase z follows
    argv = [str(p7_artifacts[arg]) if arg in p7_artifacts else arg for arg in argv]
    passes = []
    for name in ("cyclic_gram", "max_idempotency_dev"):
        for module in (matcore, packing):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, name=name, original=original: passes.append(name) or original(*args))
    assert run(argv + ["--no-timestamp"]) == 0
    assert passes == ["cyclic_gram", "max_idempotency_dev"]


@pytest.mark.parametrize("p", [7, 31])
def test_the_umeb_artifact_is_the_canonical_json_of_the_family(p, tmp_path):
    out, cert = tmp_path / "umeb.json", tmp_path / "cert.json"
    assert run(["umeb", "--p", str(p), "--out", str(out), "--cert", str(cert), "--no-timestamp"]) == 0
    prime, h = validate_prime(p), construct((p + 1) // 2)
    uf_obj = artifact_to_json(prime, h, compute_phase(p, prime.half))
    assert out.read_bytes() == canonical_json(uf_obj).encode("utf-8")
    generator = canonical_json(artifact_to_json(prime, h)).encode("utf-8")
    assert json.loads(cert.read_text())["input_sha256"] == hashlib.sha256(generator).hexdigest()


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


# sha256 of the --no-timestamp artifacts, each the family's generator {"p", "k", "hadamard"} (and "z"):
# a change to these bytes is a change of the artifact format or of construct's matrices
RECORDED_ARTIFACTS = {
    ("umeb", 7): "18fa51c208dc01b9be68c083097b28f9b4de81ff935f6ee098ea860d0aa65ec2",
    ("umeb", 31): "7d81b2e3a24f51ff866c13ea29e7721cf4639512767e3603c4ee4eb043500856",
    ("umeb", 79): "703ee1ca55e11cb742e9913253838b9f047f21a5000b88300973c60306585eed",
    ("generate", 7): "d6826b5f1ce27add1f0f0b320cf48f64e0873ecab7cce140937804cdcdacd49a",
    ("generate", 31): "f8edb36d139882487aa47497c56788d0d930dfd4a60417bb3437a9f5aa7b719a",
    ("generate", 79): "b3f37984a1988e677700869227b0e179ad292820acf8354961aafbfd9bd2d022",
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
    # the text report prints no digest, so without --out, --cert or --format json the family's
    # generator is not encoded; with --format json it is, once
    encoded = []
    canonical = cli.canonical_json
    monkeypatch.setattr(cli, "canonical_json", lambda obj: encoded.append(obj) or canonical(obj))
    assert run(["umeb", "--p", "7"]) == 0
    assert "unextendible: PASS" in capsys.readouterr().out
    assert encoded == []
    assert run(["umeb", "--p", "7", "--format", "json", "--no-timestamp"]) == 0
    assert [sorted(obj) for obj in encoded if isinstance(obj, dict)][0] == GENERATOR_FIELDS
    report = json.loads(capsys.readouterr().out)
    generator = canonical_json(artifact_to_json(validate_prime(7), construct(4)))
    assert report["input_sha256"] == hashlib.sha256(generator.encode("utf-8")).hexdigest()


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


def support_stack_json(stack):
    """A stack on its support {"shape": [T, d, s], "cols": [...], "values": [...]}, as the support-table format wrote bases."""
    return {"shape": list(stack.values.shape), "cols": stack.cols.ravel().tolist(), "values": stack.values.ravel().tolist()}


def support_table_json(family):
    """A family in the support-table format of earlier versions: its fields and its bases on their support."""
    return {
        "d": family.d, "r": family.r, "beta_num": family.beta.numerator, "beta_den": family.beta.denominator,
        "C": off_support_scale(family.d), "bases": support_stack_json(family.bases),
    }


DELETE = object()
P7 = build_residue_family(validate_prime(7), construct(4))
IDENTITIES = complex_stack_json(np.tile(np.eye(7, dtype=complex), (28, 1, 1)))
# the p=7 artifacts in the support-table format, with the source family beside z for the unitaries
SUPPORT_TABLES = {
    "support-family": support_table_json(P7),
    "support-unitary": {"d": 7, "z": [-31 / 32, 63**0.5 / 32], "source": support_table_json(P7)},
}
# hand-made d=3 families of two bases whose rank r lies outside 1 <= r < d, in the support-table format
ZERO_BASES = {
    "d": 3, "r": 0, "beta_num": 0, "beta_den": 1, "C": off_support_scale(3),
    "bases": support_stack_json(support_stack(np.zeros((2, 3, 3)), 3)),
}
IDENTITY_BASES = dict(ZERO_BASES, r=3, beta_num=3, bases=support_stack_json(support_stack(np.tile(np.eye(3), (2, 1, 1)), 3)))
# the p=7 bases conjugated by a diagonal phase, D P D*: complex projections with the traces of P,
# on the real bases' column table, their imaginary parts beside the values
PHASES = np.exp(0.7j * np.arange(7))
PHASED = PHASES[:, None] * P7.bases.values * PHASES[P7.bases.cols].conj()
COMPLEX_BASES = dict(support_stack_json(SupportStack(P7.bases.cols, PHASED.real)), im=PHASED.imag.ravel().tolist())
# the p=7 bases as the format before the support table wrote them: every base dense
DENSE_BASES = dense_stack_json(P7.bases.dense())
H1, H2, H8 = ({"order": n, "rows": construct(n).entries.tolist()} for n in (1, 2, 8))
# the p=7 unitary artifact, its phase an integer among the JSON numbers
P7_ARTIFACT = {"p": 7, "k": 3, "hadamard": {"order": 4, "rows": construct(4).entries.tolist()}, "z": [-7, 0]}


@pytest.mark.parametrize(
    "path, value",
    [
        (("p",), True),
        (("k",), "7"),
        (("hadamard", "order"), 7.0),
        (("p",), None),
        (("z", 0), True),
        (("z", 1), "0.5"),
        (("z", 0), [0.5]),
        (("z", 1), float("nan")),
        (("z", 0), float("-inf")),
        (("z", 1), 10**400),
    ],
    ids=["int-bool", "int-string", "int-float", "int-null", "number-bool", "number-string",
         "number-list", "number-nan", "number-inf", "number-huge-int"],
)
def test_artifact_scalars_must_be_numbers_of_their_kind(path, value):
    # p, k and H's order are JSON integers, and z a pair of finite JSON numbers, an integer among them
    obj = json.loads(json.dumps(P7_ARTIFACT))
    *parents, last = path
    target = obj
    for key in parents:
        target = target[key]
    target[last] = value
    with pytest.raises(MalformedArtifact):
        artifact_from_json(obj)
    prime, _, z = artifact_from_json(P7_ARTIFACT)
    assert (prime.p, prime.k, z) == (7, 3, -7)


H2_ROWS = [[1, 1], [1, -1]]


# an artifact's one matrix is H: cli.artifact_from_json reads its rows, and these cases read them
# through it, as the rows of the order-2 matrix of p = 3 unless another order is named
def read_rows(rows, n=2):
    """The int64 entries of H as the artifact of p = 2n - 1, with its default k, reads them."""
    p = 2 * n - 1
    return artifact_from_json({"p": p, "k": validate_prime(p).k, "hadamard": {"order": n, "rows": rows}})[1].entries


def test_artifact_hadamard_rows_round_trip_exactly():
    # H's rows read back as int64, entry for entry, whichever Hadamard matrix they hold
    made = construct(12).entries[np.random.default_rng(17).permutation(12)] * np.where(np.arange(12) % 2, -1, 1)
    for rows in (construct(2).entries.tolist(), construct(4).entries.tolist(), construct(12).entries.tolist(), made.tolist()):
        again = read_rows(json.loads(json.dumps(rows)), len(rows))
        assert again.dtype == np.int64 and again.shape == (len(rows), len(rows)) and again.tolist() == rows


def test_artifact_hadamard_rows_are_integers_only():
    # an artifact's matrix is real, and integral: a [re, im] pair, a complex dict or a float is no entry
    for rows in ([[1, [1, 0]], [1, -1]], [[1, {"re": 1, "im": 0}], [1, -1]], [[1, 1], [1, -1.0]]):
        with pytest.raises(MalformedArtifact):
            read_rows(rows)


def test_artifact_hadamard_rows_reject_a_bad_length():
    def drop_last_entry(rows):
        del rows[-1][-1]

    def extra_entry(rows):
        rows[0].append(1)

    def drop_last_row(rows):
        del rows[-1]

    def extra_row(rows):
        rows.append([1, 1])

    for mutate in (drop_last_entry, extra_entry, drop_last_row, extra_row):
        rows = json.loads(json.dumps(H2_ROWS))
        mutate(rows)
        with pytest.raises(MalformedArtifact, match="2 lists of 2 integers"):
            read_rows(rows)


def test_artifact_hadamard_rows_compare_lengths_before_allocating(monkeypatch):
    calls = []
    for name in ("array", "empty", "zeros"):
        monkeypatch.setattr(np, name, lambda *a, name=name, **k: calls.append(name))
    with pytest.raises(MalformedArtifact):
        artifact_from_json({"p": 2 * 10**6 - 1, "k": 3, "hadamard": {"order": 10**6, "rows": H2_ROWS}})
    assert calls == []


@pytest.mark.parametrize(
    "artifact, path, value, code",
    [
        # the generator {"p", "k", "hadamard": {"order", "rows"}} of the p=7 family, and "z" beside it
        # for the unitaries: rows is 4 lists of 4 entries, each the JSON integer 1 or -1
        pytest.param("family", ("hadamard", "rows", 0, 0), "1", 1, id="family-string-entry"),
        pytest.param("family", ("hadamard", "rows", 0, 0), [1], 1, id="family-hadamard-list-entry"),
        pytest.param("family", ("hadamard", "rows", 0, 0), None, 1, id="family-null-entry"),
        pytest.param("family", ("hadamard", "rows", 0, 0), 2, 1, id="family-entry-two"),
        pytest.param("family", ("hadamard", "rows", 0, 0), 0, 1, id="family-entry-zero"),
        pytest.param("family", ("hadamard", "rows", 2, 0), float("nan"), 1, id="family-nan-value"),
        pytest.param("unitary", ("hadamard", "rows", 2, 0), float("inf"), 1, id="unitary-inf-value"),
        # a JSON bool or float is no integer, though numpy would read false as 0, and true or
        # 1.0 in place of a 1 as the same matrix
        pytest.param("family", ("hadamard", "rows", 0, 0), False, 1, id="family-false-value"),
        pytest.param("family", ("hadamard", "rows", 0, 1), True, 1, id="family-true-column"),
        pytest.param("family", ("hadamard", "rows", 0, 1), 1.0, 1, id="family-float-column"),
        pytest.param("unitary", ("hadamard", "rows", 0, 0), False, 1, id="unitary-false-value"),
        pytest.param("unitary", ("hadamard", "rows", 0, 1), True, 1, id="unitary-true-column"),
        pytest.param("unitary", ("hadamard", "rows", 0, 0), "1", 1, id="unitary-string-entry"),
        pytest.param("unitary", ("hadamard", "rows", 0, 0), [1], 1, id="unitary-short-pair"),
        pytest.param("unitary", ("hadamard", "rows", 0, 0), None, 1, id="unitary-null-entry"),
        # rows that are not order lists of order entries
        pytest.param("family", ("hadamard", "order"), 27, 1, id="family-shape-disagrees"),
        pytest.param("family", ("hadamard", "rows"), [1] * 16, 1, id="family-rows-flat"),
        pytest.param("family", ("hadamard", "order"), 4.0, 1, id="family-shape-float"),
        pytest.param("family", ("hadamard", "order"), True, 1, id="family-order-bool"),
        pytest.param("family", ("hadamard", "rows"), [[]] * 4, 1, id="family-no-column"),
        pytest.param("family", ("hadamard", "rows", 0), [1] * 5, 1, id="family-row-long"),
        pytest.param("family", ("hadamard", "rows", 3, -1), DELETE, 1, id="family-row-short"),
        pytest.param("family", ("hadamard", "rows", -1), DELETE, 1, id="family-rows-short"),
        pytest.param("unitary", ("hadamard", "rows", 3, -1), DELETE, 1, id="unitary-hadamard-row-short"),
        pytest.param("family", ("hadamard", "rows"), {"0": [1, 1, 1, 1]}, 1, id="family-rows-not-a-list"),
        pytest.param("family", ("hadamard",), {"order": 0, "rows": []}, 1, id="family-empty"),
        pytest.param("unitary", ("hadamard",), {"order": 0, "rows": []}, 1, id="unitary-empty"),
        # entries +-1 whose rows are not orthogonal: row 1 repeats row 0
        pytest.param("family", ("hadamard", "rows", 1), [1, 1, 1, 1], 1, id="family-repeated-column"),
        pytest.param("unitary", ("hadamard", "rows", 1), [1, 1, 1, 1], 1, id="unitary-repeated-column"),
        # a Hadamard matrix of an order other than (p+1)/2
        pytest.param("family", ("hadamard",), H2, 1, id="family-shape-d-disagrees"),
        pytest.param("family", ("hadamard",), H8, 1, id="family-order-8"),
        pytest.param("family", ("p",), 5, 1, id="family-d-disagrees"),
        pytest.param("unitary", ("p",), 5, 1, id="unitary-d-disagrees"),
        # p is a JSON integer, a prime p = 3 or 7 (mod 8), and (p+1)/2 the order of H
        pytest.param("family", ("p",), "seven", 1, id="family-d-string"),
        pytest.param("family", ("p",), 7.0, 1, id="family-d-float"),
        pytest.param("family", ("p",), True, 1, id="family-p-bool"),
        pytest.param("unitary", ("p",), "seven", 1, id="unitary-d-string"),
        pytest.param("family", (), {"p": 15, "k": 3, "hadamard": H8}, 1, id="family-p-not-prime"),
        pytest.param("family", (), {"p": 1, "k": 1, "hadamard": H1}, 1, id="family-p-one"),
        pytest.param("family", (), {"p": 3, "k": 2, "hadamard": H2}, 0, id="family-p-three"),
        # a p too large for any file: its order is checked before p's primality
        pytest.param("family", ("p",), 10**400, 1, id="family-rank-huge"),
        pytest.param("unitary", ("p",), 10**400, 1, id="unitary-p-huge"),
        # k is a JSON integer, a non-residue in 1..p-1: the residues mod 7 are 1, 2 and 4, and
        # -4 and 10 are the non-residue 3 mod 7, which a reduction mod p would accept
        pytest.param("family", ("k",), 2, 1, id="family-k-residue"),
        pytest.param("family", ("k",), -4, 1, id="family-negative-column"),
        pytest.param("family", ("k",), 7, 1, id="family-k-equals-p"),
        pytest.param("family", ("k",), 10, 1, id="family-k-past-p"),
        pytest.param("family", ("k",), 0, 1, id="family-k-zero"),
        pytest.param("family", ("k",), 5.0, 1, id="family-k-float"),
        pytest.param("family", ("k",), True, 1, id="family-k-bool"),
        pytest.param("family", ("k",), 5, 0, id="family-k-other-nonresidue"),
        pytest.param("unitary", ("k",), 4, 1, id="unitary-k-residue"),
        # exactly the generator's fields
        pytest.param("family", ("k",), DELETE, 1, id="family-no-k"),
        pytest.param("family", ("hadamard",), DELETE, 1, id="family-no-hadamard"),
        pytest.param("family", ("hadamard", "im"), [[0] * 4] * 4, 1, id="family-complex"),
        pytest.param("family", ("hadamard",), DENSE_BASES, 1, id="family-dense-bases"),
        pytest.param("family", ("provenance",), [[0, 0]], 1, id="family-provenance-short"),
        # the "shifts" field of earlier formats, at any value, marks an earlier format
        pytest.param("family", ("shifts",), 7, 1, id="family-shifts-d"),
        pytest.param("family", ("shifts",), 7.0, 1, id="family-shift-float"),
        pytest.param("family", ("shifts",), 2, 1, id="family-shifts-other"),
        pytest.param("family", ("shifts",), 1, 1, id="family-shifts-one"),
        pytest.param("family", ("shifts",), 6, 1, id="family-shifts-d-minus-1"),
        pytest.param("family", ("shifts",), 14, 1, id="family-shifts-2d"),
        pytest.param("family", ("d",), 7, 1, id="family-extra-d"),
        # the members of the dense format of earlier versions beside the generator
        pytest.param("unitary", ("unitaries",), IDENTITIES, 1, id="bare-dense-format"),
        pytest.param("unitary", ("bases",), IDENTITIES, 1, id="unitary-both-keys"),
        pytest.param("unitary", ("hadamard",), DELETE, 1, id="unitary-neither-key"),
        # z is a pair of finite numbers; the unitaries are rebuilt with it, so a wrong phase is a failed verdict
        pytest.param("unitary", ("z", 0), float("nan"), 1, id="unitary-z-nan"),
        pytest.param("unitary", ("z", 1), True, 1, id="unitary-z-bool"),
        pytest.param("unitary", ("z",), [1.0], 1, id="unitary-z-short"),
        pytest.param("unitary", ("z",), [1.0, 0.0, 0.0], 1, id="unitary-z-long"),
        pytest.param("unitary", ("z",), "z", 1, id="unitary-z-string"),
        pytest.param("unitary", ("z",), None, 1, id="unitary-z-null"),
        pytest.param("unitary", ("z",), [1.0, 0.0], 2, id="unitary-z-disagrees"),
        # the support-table format of earlier versions, however it is edited, exits 1 as an earlier format
        pytest.param("support-unitary", ("source", "bases"), DENSE_BASES, 1, id="unitary-source-dense-bases"),
        pytest.param("support-unitary", ("source", "bases"), COMPLEX_BASES, 1, id="unitary-source-complex"),
        pytest.param("support-unitary", ("source", "shifts"), 1, 1, id="unitary-source-one-shift"),
        pytest.param("support-unitary", ("source", "shifts"), 6, 1, id="unitary-source-shifts-d-minus-1"),
        pytest.param("support-unitary", ("source", "shifts"), 14, 1, id="unitary-source-shifts-2d"),
        pytest.param("support-unitary", ("source", "beta_den"), 0, 1, id="unitary-beta-den-0"),
        pytest.param("support-unitary", ("source", "C"), off_support_scale(7) * (1 - 1e-6), 1, id="unitary-scale-off"),
        pytest.param("support-unitary", ("source", "beta_num"), 10**400, 1, id="unitary-source-beta-huge"),
        pytest.param("support-unitary", ("source", "r"), 2, 1, id="unitary-source-rank-disagrees"),
        pytest.param("support-family", ("beta_den",), 0, 1, id="family-beta-den-0"),
        pytest.param("support-family", ("C",), float("nan"), 1, id="family-scale-nan"),
        pytest.param("support-family", ("C",), off_support_scale(7) * (1 + 1e-6), 1, id="family-scale-off"),
        pytest.param("support-family", ("C",), None, 1, id="family-scale-null"),
        pytest.param("support-family", ("beta_num",), 10**400, 1, id="family-beta-huge"),
        pytest.param("support-family", (), ZERO_BASES, 1, id="family-rank-0"),
        pytest.param("support-family", (), IDENTITY_BASES, 1, id="family-rank-d"),
    ],
)
def test_verify_rejects_malformed_artifact(p7_artifacts, tmp_path, capsys, artifact, path, value, code):
    if not path:
        obj = value  # an empty path replaces the whole artifact
    else:
        if artifact in SUPPORT_TABLES:
            obj = json.loads(json.dumps(SUPPORT_TABLES[artifact]))
        else:
            obj = json.loads(p7_artifacts[artifact].read_text())
        *parents, last = path
        target = obj
        for key in parents:
            target = target[key]
        if value is DELETE:
            del target[last]
        else:
            target[last] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["verify", "--in", str(bad)]) == code
    if code == 1:
        _one_error_line(capsys)
    else:
        verdicts = re.findall(r"^\w+: (PASS|FAIL)$", capsys.readouterr().out, re.MULTILINE)
        assert verdicts and ("FAIL" in verdicts) == (code == 2)


def test_a_phase_that_misses_the_family_fails_only_the_certificate(p7_artifacts, tmp_path, capsys):
    # z turned by 0.1 rad keeps |z| = 1: the family is the generator's, and only the unitaries miss their contract
    obj = json.loads(p7_artifacts["unitary"].read_text())
    z = complex(*obj["z"]) * cmath.exp(0.1j)
    obj["z"] = [z.real, z.imag]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["verify", "--in", str(bad)]) == 2
    out = capsys.readouterr().out
    assert "equiangular: PASS" in out and "unextendible: FAIL" in out


def test_a_huge_p_is_rejected_before_its_primality_is_tried(tmp_path, monkeypatch, capsys):
    # validate_prime's trial division and residue set cost O(sqrt p) and O(p): a small file with the
    # Mersenne prime 2^61 - 1 and an order-2 matrix must not reach it
    def tried(*args, **kwargs):
        raise AssertionError("validate_prime was called")

    monkeypatch.setattr(cli, "validate_prime", tried)
    for artifact in ({"p": 2**61 - 1, "k": 3, "hadamard": H2}, {"p": 2**61 - 1, "k": 3, "hadamard": H2, "z": [1.0, 0.0]}):
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(artifact))
        capsys.readouterr()
        assert run(["verify", "--in", str(bad)]) == 1
        assert "order" in _one_error_line(capsys)


def test_an_order_other_than_half_of_p_plus_1_is_rejected_before_h_is_built(tmp_path, monkeypatch, capsys):
    # p=7 needs order 4: an order-8 Hadamard matrix, whole and valid, is rejected on its order
    # alone, before HadamardMatrix forms its O(n^3) product
    def built(*args, **kwargs):
        raise AssertionError("HadamardMatrix was called")

    monkeypatch.setattr(cli, "HadamardMatrix", built)
    monkeypatch.setattr(hadamard, "HadamardMatrix", built)
    for artifact in ({"p": 7, "k": 3, "hadamard": H8}, {"p": 7, "k": 3, "hadamard": H8, "z": [1.0, 0.0]}):
        bad = tmp_path / "order8.json"
        bad.write_text(json.dumps(artifact))
        capsys.readouterr()
        assert run(["verify", "--in", str(bad)]) == 1
        assert "order" in _one_error_line(capsys)


def _one_error_line(capsys):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("umebkit:"), err
    return err[0]


@pytest.mark.parametrize(
    "argv, env",
    [
        pytest.param(["umeb", "--p", "7", "--eps", "-1"], None, id="eps-negative"),
        pytest.param(["umeb", "--p", "7"], "abc", id="env-not-a-number"),
        pytest.param(["wh-check", "--p", "7", "--eps", "nan"], None, id="eps-nan"),
        # a tolerance of 1 or more would make every check vacuous
        pytest.param(["umeb", "--p", "7", "--eps", "1e300"], None, id="eps-huge"),
        pytest.param(["umeb", "--p", "7", "--eps", "1"], None, id="eps-one"),
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
    obj["z"] = [1.0, 0.0]  # every unitary I: unitary, and as far from trace-orthogonal as can be
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
    # the dense bases with their shift count; then the bases on their support table
    family = P7
    uf = build_unitaries(family, compute_phase(7, 3))
    old_family = {
        "d": 7, "r": 3, "beta_num": 11, "beta_den": 9, "C": off_support_scale(7),
        "provenance": [[t, x] for t in range(4) for x in range(7)],
        "projections": dense_stack_json(member_stack(family)),
    }
    dense_family = {"d": 7, "r": 3, "beta_num": 11, "beta_den": 9, "C": off_support_scale(7), "shifts": 7, "bases": DENSE_BASES}
    for i, obj in enumerate((
        old_family,
        {"d": 7, "z": [uf.z.real, uf.z.imag], "source": old_family},
        {"d": 7, "z": [uf.z.real, uf.z.imag], "unitaries": complex_stack_json(member_stack(uf))},
        # the bases of the unitaries without their source, which no command wrote
        {"d": 7, "z": [uf.z.real, uf.z.imag], "shifts": 7, "bases": complex_stack_json(uf.bases.dense())},
        dense_family,
        {"d": 7, "z": [uf.z.real, uf.z.imag], "source": dense_family},
        # the dense bases alone, without the shift count
        {key: value for key, value in dense_family.items() if key != "shifts"},
        *SUPPORT_TABLES.values(),
    )):
        path = tmp_path / f"old{i}.json"
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert run(["verify", "--in", str(path)]) == 1
        assert "the fields" in _one_error_line(capsys)

import hashlib
import json

import numpy as np
import pytest

from umebkit import umeb
from umebkit.cli import main, unitary_family_from_json, unitary_family_to_json, write_json
from umebkit.hadamard import construct, hadamard_from_json
from umebkit.matcore import Tolerance, stack_to_json
from umebkit.numth import validate_prime
from umebkit.packing import build_residue_family, family_from_json, off_support_scale, verify_equiangular
from umebkit.umeb import UnitaryFamily, build_unitaries, compute_phase


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
    assert obj["shifts"] == 7 and obj["bases"]["shape"] == [4, 7, 7]
    assert "im" not in obj["bases"]
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
    assert uf["source"]["shifts"] == 7 and uf["source"]["bases"]["shape"] == [4, 7, 7]
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
def test_negative_seed_or_trials_is_rejected(argv, capsys):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("umebkit:")


def test_hadamard_command(tmp_path):
    out = tmp_path / "h12.json"
    assert run(["hadamard", "--order", "12", "--out", str(out)]) == 0
    h = hadamard_from_json(json.loads(out.read_text()))
    assert h.order == 12


def test_hadamard_command_unsupported():
    assert run(["hadamard", "--order", "6"]) == 1


def test_demo_icosahedron(capsys):
    assert run(["demo-icosahedron"]) == 0
    text = capsys.readouterr().out
    assert "Re z = -7/8" in text
    assert "FAIL" not in text


def test_demo_icosahedron_json_is_stamped_unless_asked_not_to(capsys):
    assert run(["demo-icosahedron", "--format", "json"]) == 0
    assert "generated_at" in json.loads(capsys.readouterr().out)
    outputs = []
    for _ in range(2):
        assert run(["demo-icosahedron", "--format", "json", "--no-timestamp"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "generated_at" not in json.loads(outputs[0])


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
    # source base 0 replaced by base 0 + 2 base 1: the discs prove nothing, and the rank comes
    # from one batched eigvalsh on the 79 blocks of 40 x 40, never from the 3160 x 3160 Gram
    path = tmp_path / "umeb79.json"
    assert run(["umeb", "--p", "79", "--out", str(path), "--no-timestamp"]) == 0
    obj = json.loads(path.read_text())
    stack = obj["source"]["bases"]
    bases = np.reshape(stack["re"], stack["shape"])
    bases[0] += 2 * bases[1]
    stack["re"] = bases.ravel().tolist()
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    eigvalsh = np.linalg.eigvalsh
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    passes = []
    gram_row_stats = umeb.gram_row_stats
    monkeypatch.setattr(umeb, "gram_row_stats", lambda rows, shifts: passes.append(rows.shape) or gram_row_stats(rows, shifts))
    assert run(["verify", "--in", str(path), "--no-timestamp"]) == 2
    assert "unextendible: FAIL" in capsys.readouterr().out
    assert calls == [(79, 40, 40)]
    assert passes == [(40, 3160)]  # the unitary family's Gram rows, read in one pass


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
    """p=7 family (`generate --out`), unitary family (`umeb --out`), the same
    unitaries written without their source, and certificate."""
    d = tmp_path_factory.mktemp("p7")
    paths = {
        "family": d / "family.json",
        "unitary": d / "umeb.json",
        "bare": d / "bare.json",
        "cert": d / "cert.json",
    }
    assert run(["generate", "--p", "7", "--out", str(paths["family"])]) == 0
    assert run(["umeb", "--p", "7", "--out", str(paths["unitary"]), "--cert", str(paths["cert"])]) == 0
    uf = unitary_family_from_json(json.loads(paths["unitary"].read_text()))
    write_json(str(paths["bare"]), unitary_family_to_json(UnitaryFamily(uf.d, uf.z, uf.unitaries)))
    return paths


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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


def test_certificate_input_sha256_is_the_generated_family_digest(p7_artifacts, tmp_path):
    alone = tmp_path / "cert.json"  # without --out the family is encoded on its own
    assert run(["umeb", "--p", "7", "--cert", str(alone)]) == 0
    for cert_path in (p7_artifacts["cert"], alone):
        assert json.loads(cert_path.read_text())["input_sha256"] == _sha256(p7_artifacts["family"])


DELETE = object()
IDENTITIES = stack_to_json(np.tile(np.eye(7, dtype=complex), (28, 1, 1)))


@pytest.mark.parametrize(
    "artifact, path, value, code",
    [
        pytest.param("family", ("bases", "re", 0), "0.5", 1, id="family-string-entry"),
        pytest.param("family", ("bases", "re", 0), [0.5], 1, id="family-short-pair"),
        pytest.param("family", ("bases", "re", 0), None, 1, id="family-null-entry"),
        pytest.param("family", ("bases", "shape", 0), 27, 1, id="family-shape-disagrees"),
        # a provenance field belongs to the dense format of earlier versions
        pytest.param("family", ("provenance",), [[0, 0]], 1, id="family-provenance-short"),
        pytest.param("family", ("shifts",), 7.0, 1, id="family-shift-float"),
        pytest.param("family", ("shifts",), 2, 1, id="family-shifts-other"),
        pytest.param("family", ("shifts",), DELETE, 1, id="family-shifts-missing"),
        pytest.param("family", ("beta_den",), 0, 1, id="family-beta-den-0"),
        pytest.param("family", ("d",), "seven", 1, id="family-d-string"),
        pytest.param("family", ("d",), 5, 1, id="family-d-disagrees"),
        pytest.param("family", ("d",), 7.0, 1, id="family-d-float"),
        pytest.param("family", ("C",), float("nan"), 1, id="family-scale-nan"),
        pytest.param("family", ("C",), off_support_scale(7) * (1 + 1e-6), 1, id="family-scale-off"),
        pytest.param("family", ("C",), None, 1, id="family-scale-null"),
        pytest.param("unitary", ("source", "C"), off_support_scale(7) * (1 - 1e-6), 1, id="unitary-scale-off"),
        pytest.param("family", ("bases",), {"shape": [0, 7, 7], "re": []}, 1, id="family-empty"),
        pytest.param("bare", ("bases", "re", 0), "0.5", 1, id="unitary-string-entry"),
        pytest.param("bare", ("bases", "im", 0), [0.5], 1, id="unitary-short-pair"),
        pytest.param("bare", ("bases", "re", 0), None, 1, id="unitary-null-entry"),
        pytest.param("bare", ("shifts",), 3, 1, id="bare-shifts-other"),
        pytest.param("bare", ("unitaries",), IDENTITIES, 1, id="bare-dense-format"),
        # the four bases alone, read as a family of four: a rank of 4 < 28
        pytest.param("unitary", ("source", "shifts"), 1, 2, id="unitary-source-one-shift"),
        pytest.param("unitary", ("source", "beta_den"), 0, 1, id="unitary-beta-den-0"),
        pytest.param("unitary", ("d",), "seven", 1, id="unitary-d-string"),
        pytest.param("unitary", ("d",), 5, 1, id="unitary-d-disagrees"),
        pytest.param("bare", ("bases",), {"shape": [0, 7, 7], "re": [], "im": []}, 1, id="unitary-empty"),
        pytest.param("unitary", ("z", 0), float("nan"), 1, id="unitary-z-nan"),
        # without a source, z must turn every (d - tr U)/(1 - z) into one rank 1 <= r < d
        pytest.param("bare", ("z", 0), -31 / 64, 1, id="bare-z-halved"),
        pytest.param("bare", ("z",), [1.0, 0.0], 1, id="bare-z-one"),
        pytest.param("bare", ("z",), [-1.0, 0.0], 1, id="bare-z-minus-one"),
        pytest.param("unitary", ("bases",), IDENTITIES, 1, id="unitary-both-keys"),
        pytest.param("unitary", ("source",), DELETE, 1, id="unitary-neither-key"),
        # the unitaries are rebuilt with this z, so a wrong phase is a failed verdict
        pytest.param("unitary", ("z",), [1.0, 0.0], 2, id="unitary-z-disagrees"),
    ],
)
def test_verify_rejects_malformed_artifact(p7_artifacts, tmp_path, capsys, artifact, path, value, code):
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
        assert "unextendible: FAIL" in capsys.readouterr().out


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
    sourced = json.loads(p7_artifacts["unitary"].read_text())
    sourced["source"]["bases"]["re"][0] = 5.0
    bare = json.loads(p7_artifacts["bare"].read_text())
    bare["bases"]["re"][0] = 5.0
    for i, obj in enumerate((sourced, bare)):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(json.dumps(obj))
        capsys.readouterr()
        for eps in ("inf", "1e300"):
            assert run(["verify", "--in", str(bad), "--eps", eps]) == 1
            assert "tol" in _one_error_line(capsys).lower()
        if obj is sourced:
            assert run(["verify", "--in", str(bad)]) == 2  # the finite default fails it
            assert "unextendible: FAIL" in capsys.readouterr().out
        else:  # the changed diagonal entry moves tr U_0, which z no longer fits
            assert run(["verify", "--in", str(bad)]) == 1
            assert "phase z" in _one_error_line(capsys)


def test_dense_format_of_earlier_versions_exits_1_with_one_line(tmp_path, capsys):
    # the artifacts as earlier versions wrote them: every member, and provenance
    family = build_residue_family(validate_prime(7), construct(4))
    uf = build_unitaries(family, compute_phase(7, 3))
    old_family = {
        "d": 7, "r": 3, "beta_num": 11, "beta_den": 9, "C": family.scale,
        "provenance": [[t, x] for t in range(4) for x in range(7)],
        "projections": stack_to_json(family.projections),
    }
    for i, obj in enumerate((
        old_family,
        {"d": 7, "z": [uf.z.real, uf.z.imag], "source": old_family},
        {"d": 7, "z": [uf.z.real, uf.z.imag], "unitaries": stack_to_json(uf.unitaries)},
    )):
        path = tmp_path / f"old{i}.json"
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert run(["verify", "--in", str(path)]) == 1
        assert "has the fields" in _one_error_line(capsys)

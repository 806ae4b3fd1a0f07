"""The package's public surface: the names it exports, and no public function without a caller."""

import argparse
import ast
import dataclasses
import functools
from pathlib import Path

import pytest

import umebkit
from umebkit import channels, cli, hadamard, matcore, packing, umeb
from umebkit.errors import ShapeMismatch
from umebkit.hadamard import construct
from umebkit.numth import validate_prime

SRC = Path(umebkit.__file__).parent
EXPORTS = [
    "DecompositionReport",
    "EquiangularReport",
    "FeasibilityReport",
    "HadamardMatrix",
    "MixedUnitaryDecomposition",
    "ProjectionFamily",
    "Tolerance",
    "UmebCertificate",
    "UmebPrime",
    "UmebkitError",
    "UnitaryFamily",
    "build_residue_family",
    "build_unitaries",
    "certify_umeb",
    "compute_phase",
    "construct",
    "feasibility",
    "icosahedron_lines",
    "umeb_decomposition",
    "validate_prime",
    "verify_decomposition",
    "verify_equiangular",
    "wh_plus_apply",
]
# helpers that no pipeline stage or command called; the tests' oracles among them live in tests/oracles.py
# (random_hermitian, dual_family, support_columns, and union_support with the dense branch of
# SupportStack.of as support_stack), and the JSON coders outside cli, which the one artifact writer
# and reader replace; uniform_weight is the one float 2 / (d(d+1)) in umeb_decomposition
DELETED = {
    channels: ["choi_of_channel", "swap_matrix", "choi_rank", "apply_decomposition", "random_hermitian", "uniform_weight"],
    matcore: [
        "frobenius_inner", "sym_antisym_split", "cj_vectorize", "is_unitary", "numerical_rank",
        "json_int", "json_number", "json_int_matrix", "union_support", "support_columns", "orbit_stack",
    ],
    umeb: ["cj_states", "line_feasibility_sweep"],
    packing: [
        "beta_lines", "identity_coefficient", "projection_from_basis", "family_to_json", "family_from_json", "dual_family",
    ],
    hadamard: ["hadamard_to_json", "hadamard_from_json"],
    cli: ["unitary_family_to_json", "unitary_family_from_json"],
}
# the option strings of every command, in order: an option added, renamed or dropped fails here
OPTIONS = {
    "generate": ["-h", "--help", "--p", "--k", "--out", "--eps", "--rank-eps", "--no-timestamp", "--format"],
    "umeb": ["-h", "--help", "--p", "--k", "--out", "--cert", "--eps", "--rank-eps", "--no-timestamp", "--format"],
    "verify": ["-h", "--help", "--in", "--report", "--eps", "--rank-eps", "--no-timestamp", "--format"],
    "feasibility": ["-h", "--help", "--r", "--dmax", "--format"],
    "wh-check": [
        "-h", "--help", "--p", "--k", "--trials", "--seed", "--report", "--eps", "--rank-eps", "--no-timestamp", "--format",
    ],
    "hadamard": ["-h", "--help", "--order", "--out", "--format"],
    "demo-icosahedron": ["-h", "--help", "--trials", "--seed", "--eps", "--rank-eps", "--no-timestamp", "--format"],
}


def test_all_is_the_exported_names():
    assert len(EXPORTS) == 23
    assert umebkit.__all__ == EXPORTS
    for name in EXPORTS:
        assert hasattr(umebkit, name), name


def test_deleted_helpers_are_gone():
    left = [f"{module.__name__}.{name}" for module, names in DELETED.items() for name in names if hasattr(module, name)]
    assert left == []
    assert not any(name in umebkit.__all__ for names in DELETED.values() for name in names)


def test_every_public_function_is_called_by_a_module_other_than_init():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    used = set()
    for stem, tree in trees.items():
        if stem != "__init__":
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    public = {
        f"{stem}.{node.name}": node.name
        for stem, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert sorted(path for path, name in public.items() if name not in used) == []


def test_no_module_imports_a_name_it_never_uses():
    # a name bound by an import counts as used when the module reads it, or, in __init__, exports it
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.stem == "__init__":
            used |= set(umebkit.__all__)
        unused += [f"{path.stem}.{name}" for name in sorted(imported - used)]
    assert unused == []


def test_no_family_caches_its_members():
    # neither family caches a view: each reads a member from its bases when asked, and everything
    # the checks read off the bases, the Gram among them, is computed by the check that reads it
    for cls in (packing.ProjectionFamily, umeb.UnitaryFamily):
        cached = [key for key, value in vars(cls).items() if isinstance(value, functools.cached_property)]
        assert cached == [], cls.__name__


def test_a_unitary_artifact_has_one_format():
    # U_i = I - (1 - z)P_i: the family's generator and z fix the unitaries, so the one
    # artifact is those two, and a unitary family keeps no family of its own
    obj = cli.artifact_to_json(validate_prime(7), construct(4), 1j)
    assert obj == {**cli.artifact_to_json(validate_prime(7), construct(4)), "z": [0.0, 1.0]}
    assert sorted(obj) == ["hadamard", "k", "p", "z"]
    prime, h, z = cli.artifact_from_json(obj)
    assert (prime, h.entries.tolist(), z) == (validate_prime(7), construct(4).entries.tolist(), 1j)
    # the reports are their dataclasses' fields: no module but cli codes JSON
    for module in (channels, hadamard, matcore, packing, umeb):
        assert not [name for name, value in vars(module).items() if "json" in name.lower() or hasattr(value, "to_json")]
    assert [field.name for field in dataclasses.fields(umeb.UnitaryFamily)] == ["d", "z", "bases"]


def test_a_family_takes_its_bases_as_a_support_stack_only():
    # a dense (T, d, d) stack is no SupportStack: a hand-made family compresses its bases first
    fam = packing.build_residue_family(validate_prime(7), construct(4))
    uf = umeb.build_unitaries(fam, umeb.compute_phase(7, 3))
    for dense in (fam.bases.dense(), uf.bases.dense()):
        with pytest.raises(ShapeMismatch, match="SupportStack, got ndarray"):
            packing.ProjectionFamily(7, 3, dense, fam.beta)
        with pytest.raises(ShapeMismatch, match="SupportStack, got ndarray"):
            umeb.UnitaryFamily(7, uf.z, dense)


def test_a_family_holds_no_shift_count():
    # every family is T bases, each moved by all d shifts, so its size is T d and no field counts shifts
    assert [field.name for field in dataclasses.fields(packing.ProjectionFamily)] == ["d", "r", "bases", "beta"]


def test_a_decomposition_holds_one_weight_per_orbit():
    # a mixture weighs whole Z_d orbits, so it holds T weights; its n member weights are a view
    assert [field.name for field in dataclasses.fields(channels.MixedUnitaryDecomposition)] == ["orbit_weights", "unitaries"]


def test_every_command_keeps_its_options():
    subs = next(action for action in cli.build_parser()._actions if isinstance(action, argparse._SubParsersAction))
    options = {name: [s for action in sub._actions for s in action.option_strings] for name, sub in subs.choices.items()}
    assert options == OPTIONS

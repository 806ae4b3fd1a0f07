"""Mutation fuzz of the artifact loaders through `umebkit verify`.

Each example takes a p=7 artifact, the family's generator
{"p", "k", "hadamard": {"order", "rows"}} and, for a unitary family, its
phase "z", mutates one place in it and runs `verify --in`.  The mutations
change p, k, one entry of H, H's order or z, delete or retype any place,
or add a field.  Every outcome must be exit 1 with one `umebkit:` line, or
a verdict, and never a traceback: the equiangular verdict for a family,
and for a unitary family that verdict and the certificate's, as `umeb`
prints them.

Each mutation's exit code is known in advance.  Order 4 fixes p at 7 (p = 8
is no prime), and only the non-residues 3, 5 and 6 are a k, so any other p
or k exits 1, and another non-residue builds another family of the
construction, which passes.  One entry of H changed, or another order,
leaves no Hadamard matrix of order 4.  A z scaled by 1 +- 1e-6 or more is
no unit phase, so the certificate fails at p=7, and a non-finite z is
rejected.  A JSON bool is no integer, so a bool anywhere exits 1.  Only
deleting z leaves an artifact that passes: the generator alone, a family.
"""

import copy
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from umebkit.cli import main, unitary_family_to_json
from umebkit.hadamard import construct
from umebkit.numth import validate_prime
from umebkit.packing import family_to_json
from umebkit.umeb import compute_phase

PRIME, H = validate_prime(7), construct(4)
ARTIFACTS = {
    "family": family_to_json(PRIME, H),
    "unitary": unitary_family_to_json(PRIME, H, compute_phase(7, 3)),
}
NONRESIDUES = {3, 5, 6}


def _places(obj, path=()):
    """(path, value) for every node below the root."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _places(value, path + (key,))


PLACES = {kind: [path for path, _ in _places(obj)] for kind, obj in ARTIFACTS.items()}
SWAPS = ["x", None, True, False, [], {}, [0.5], {"order": 2, "rows": [[1, 1], [1, -1]]}]
OPS = ["delete", "swap", "add", "p", "k", "entry", "order"]


@st.composite
def mutations(draw, kind):
    """(mutated artifact, the exit code verify must give)."""
    obj = copy.deepcopy(ARTIFACTS[kind])
    op = draw(st.sampled_from(OPS + (["z"] if kind == "unitary" else [])))
    if op == "delete":
        path = draw(st.sampled_from(PLACES[kind]))
        *parents, last = path
        target = obj
        for key in parents:
            target = target[key]
        del target[last]
        return obj, 0 if path == ("z",) else 1
    if op == "swap":
        *parents, last = draw(st.sampled_from(PLACES[kind]))
        target = obj
        for key in parents:
            target = target[key]
        old = target[last]
        target[last] = draw(st.sampled_from([c for c in SWAPS + [str(old)] if type(c) is not type(old)]))
        return obj, 1
    if op == "add":
        target = draw(st.sampled_from([obj, obj["hadamard"]]))
        target[draw(st.sampled_from(["d", "r", "shifts", "source", "bases", "im"]))] = draw(st.sampled_from([7, [], None]))
        return obj, 1
    if op == "p":
        obj["p"] = draw(st.one_of(st.integers(-10, 100), st.sampled_from([2**61 - 1, 10**400])))
        return obj, 0 if obj["p"] == 7 else 1
    if op == "k":
        obj["k"] = draw(st.one_of(st.integers(-10, 20), st.just(10**400)))
        return obj, 0 if obj["k"] in NONRESIDUES else 1
    if op == "entry":
        row = obj["hadamard"]["rows"][draw(st.integers(0, 3))]
        i = draw(st.integers(0, 3))
        row[i] = draw(st.sampled_from([-row[i], 0, 2, -2, 3]))
        return obj, 1
    if op == "order":
        obj["hadamard"]["order"] = draw(st.integers(-2, 10).filter(lambda n: n != 4))
        return obj, 1
    i = draw(st.integers(0, 1))
    scale = 1 + draw(st.floats(1e-6, 0.5)) * draw(st.sampled_from((-1, 1)))
    obj["z"][i] = draw(st.sampled_from([obj["z"][i] * scale, math.nan, math.inf, -math.inf]))
    return obj, 2 if math.isfinite(obj["z"][i]) else 1


def _verify(tmp_path, obj):
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", "--in", str(path)])
    return code, out.getvalue(), err.getvalue().splitlines()


@pytest.mark.parametrize("kind", sorted(ARTIFACTS))
def test_unmutated_artifacts_pass(kind, tmp_path):
    assert _verify(tmp_path, ARTIFACTS[kind])[0] == 0


@pytest.mark.parametrize("kind", sorted(ARTIFACTS))
@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_artifacts_end_in_one_line_or_a_verdict(kind, tmp_path, data):
    obj, expected = data.draw(mutations(kind))
    code, out, err = _verify(tmp_path, obj)
    if code == 1:
        assert len(err) == 1 and err[0].startswith("umebkit:"), err
    else:
        assert code in (0, 2) and err == []
        assert "equiangular: " in out
        assert ("unextendible: " in out) == ("z" in obj)
    assert code == expected, (obj, out, err)

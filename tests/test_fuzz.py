"""Mutation fuzz of the artifact loaders through `umebkit verify`.

Each example takes a p=7 artifact (a family, or a unitary family written
as its family and phase), mutates one place in it and runs `verify --in`.
Every place is a target: the bases' shape, every entry of their column
table and every value included.  Every outcome must be exit 1 with one
`umebkit:` line, or a verdict, and never a traceback: the equiangular
verdict for a family, and for a unitary family that verdict and the
certificate's, as `umeb` prints them.  A JSON bool put in the bases'
columns or values exits 1, though it would read as the number 0 or 1.

A changed number does not pass, with one exception.  Row 0 of the bases
lies in no support: its two columns, 0 and 1, are padding whose values are
0 in every base.  Moving its column 1 to a column that the row does not
list describes the same family, so PASS is the correct verdict there.
Every other changed number fails or is rejected: every nonzero value
scaled by 1 +- 1e-6 moves some deviation well past eps at p=7, a column
moved by one in rows 1..6 moves a nonzero entry, and a changed shape
disagrees with its lists.  That holds for the off-support coefficient C,
which must equal off_support_scale(d), since every family is whole
orbits.  Nor does an integer place set to 10**400, past any float: a
beta_den that large is a valid, tiny beta, which the equiangular check
fails, and every other such place is rejected.
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
from umebkit.packing import build_residue_family, family_to_json
from umebkit.umeb import compute_phase

FAMILY = build_residue_family(validate_prime(7), construct(4))
ARTIFACTS = {
    "family": family_to_json(FAMILY),
    "unitary": unitary_family_to_json(FAMILY, compute_phase(7, 3)),
}


def _places(obj, path=()):
    """(path, value) for every node below the root."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _places(value, path + (key,))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


PLACES = {kind: list(_places(obj)) for kind, obj in ARTIFACTS.items()}
TARGETS = {
    kind: {
        "delete": [path for path, _ in places],
        "swap": [path for path, _ in places],
        "nan": [path for path, _ in places],
        "shift": [path for path, _ in places if {"shape", "cols"} & set(path[:-1])],
        "scale": [path for path, value in places if _is_number(value) and value != 0],
        "big": [path for path, value in places if _is_number(value) and isinstance(value, int)],
    }
    for kind, places in PLACES.items()
}
SWAPS = ["x", None, True, False, [], {}, [0.5], {"shape": [1, 7, 2]}]


@st.composite
def mutations(draw, kind):
    op = draw(st.sampled_from(sorted(TARGETS[kind])))
    path = draw(st.sampled_from(TARGETS[kind][op]))
    obj = copy.deepcopy(ARTIFACTS[kind])
    *parents, last = path
    target = obj
    for key in parents:
        target = target[key]
    old = target[last]
    if op == "delete":
        del target[last]
        return obj, False, False
    if op == "swap":
        choices = SWAPS + ([str(old)] if _is_number(old) else [])
        new = draw(st.sampled_from([c for c in choices if type(c) is not type(old)]))
    elif op == "nan":
        new = math.nan
    elif op == "shift":
        new = old + draw(st.sampled_from((-1, 1)))
    elif op == "big":
        new = 10**400
    else:
        new = old * (1 + draw(st.floats(1e-6, 0.5)) * draw(st.sampled_from((-1, 1))))
    target[last] = new
    # true in place of 1.0 reads as the same number, and a column of row 0 moved to a free
    # column describes the same family
    padding = "cols" in parents and last < 2
    changed = _is_number(old) and new != old and not padding
    return obj, changed, isinstance(new, bool) and bool({"cols", "values"} & set(parents))


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
    obj, changed, bool_in_bases = data.draw(mutations(kind))
    code, out, err = _verify(tmp_path, obj)
    if code == 1:
        assert len(err) == 1 and err[0].startswith("umebkit:"), err
    else:
        assert code in (0, 2) and err == []
        assert "equiangular: " in out
        assert ("unextendible: " in out) == (kind == "unitary")
    if changed:
        assert code != 0, "a changed number passed"
    if bool_in_bases:
        assert code == 1, "a bool in the bases was read as a number"

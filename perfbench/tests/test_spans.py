import umebkit
from umebkit import numth

from perfbench.spans import Span, Tracer, self_times, totals


def test_self_time_subtracts_nested_children():
    spans = [
        Span("root", 0, 100, None),
        Span("a", 10, 40, 0),
        Span("a.inner", 20, 30, 1),
        Span("b", 50, 70, 0),
    ]
    assert self_times(spans) == [50, 20, 10, 20]


def test_self_time_counts_overlapping_or_overhanging_children_once():
    spans = [
        Span("root", 0, 10, None),
        Span("x", 2, 6, 0),
        Span("y", 4, 15, 0),
    ]
    assert self_times(spans) == [2, 4, 11]


def test_recursive_calls_count_inclusive_time_once():
    spans = [
        Span("hadamard.construct", 0, 100, None),
        Span("hadamard.construct", 10, 50, 0),
        Span("numth.is_prime", 60, 70, 0),
    ]
    t = totals(spans)
    assert t["hadamard.construct"].ns == 100
    assert t["hadamard.construct"].calls == 2
    assert t["hadamard.construct"].self_ns == 50 + 40
    assert t["numth.is_prime"].ns == 10


def test_tracer_nests_cross_module_calls_and_restores_originals():
    original = umebkit.validate_prime
    tracer = Tracer()
    with tracer.active():
        assert umebkit.validate_prime is not original
        umebkit.validate_prime(7)
    assert umebkit.validate_prime is original
    assert numth.is_quadratic_residue.__module__ == "umebkit.numth"
    assert numth.is_quadratic_residue is vars(numth)["is_quadratic_residue"]
    names = [s.name for s in tracer.spans]
    assert names[0] == "numth.validate_prime"
    assert names.count("numth.is_quadratic_residue") == 6
    assert all(s.parent == 0 for s in tracer.spans[1:])
    own = self_times(tracer.spans)
    assert own[0] == tracer.spans[0].end - tracer.spans[0].start - sum(
        s.end - s.start for s in tracer.spans[1:]
    )


def test_adopted_spans_nest_under_the_given_parent(tmp_path):
    child = Tracer()
    with child.span("cli.main"):
        with child.span("cli.cmd_umeb"):
            pass
    path = tmp_path / "spans.json"
    child.write(str(path))

    from perfbench.spans import read_spans

    parent = Tracer()
    with parent.span("process.umeb") as index:
        pass
    parent.adopt(read_spans(str(path)), index)
    assert [(s.name, s.parent) for s in parent.spans] == [
        ("process.umeb", None),
        ("cli.main", 0),
        ("cli.cmd_umeb", 1),
    ]

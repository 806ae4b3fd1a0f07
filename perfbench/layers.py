"""Per-layer metrics of the traced run, and what each one is expected to move.

A name `<module>.<function>.<kind>` is read from the spans of that umebkit
function: `s` is inclusive time, `self_s` time not spent in traced callees,
`calls` the call count and `bytes` a recorded counter, each per traced
iteration.  The remaining names are computed from the iterations
themselves.  A layer a workload never calls reads 0 on it.
"""

from __future__ import annotations

from dataclasses import dataclass

from perfbench.spans import Totals

SWEEP, CERTIFY, ROUNDTRIP = "family-sweep", "certify-p47", "artifact-roundtrip-p31"


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    moves: str
    flat_on: str


_JSON = f"wall_s on {ROUNDTRIP}"
LAYER_METRICS = (
    LayerMetric("numth.validate_prime.s", "s", f"wall_s on {SWEEP} (guard only)", CERTIFY),
    LayerMetric("hadamard.construct.s", "s", f"wall_s on {SWEEP} (guard only)", CERTIFY),
    LayerMetric("packing.build_residue_family.s", "s", f"wall_s, peak_rss_mb on {SWEEP}; part of {CERTIFY}", ROUNDTRIP),
    LayerMetric("packing.verify_equiangular.s", "s", f"wall_s, peak_rss_mb on {SWEEP}; part of {CERTIFY}", ROUNDTRIP),
    LayerMetric("umeb.certify_umeb.s", "s", f"wall_s on {CERTIFY}; a little on {ROUNDTRIP}", SWEEP),
    LayerMetric("umeb.certify_umeb.calls", "count", f"wall_s on {CERTIFY}", SWEEP),
    LayerMetric("channels.umeb_decomposition.self_s", "s", f"wall_s on {CERTIFY}", SWEEP),
    LayerMetric("channels.verify_decomposition.s", "s", f"wall_s on {CERTIFY}", SWEEP),
    LayerMetric("channels.choi_of_channel.s", "s", f"wall_s on {CERTIFY}", SWEEP),
    LayerMetric("channels.apply_decomposition.calls", "count", f"wall_s on {CERTIFY}", SWEEP),
    LayerMetric("matcore.matrix_to_json.s", "s", _JSON, CERTIFY),
    LayerMetric("matcore.matrix_to_json.calls", "count", _JSON, CERTIFY),
    LayerMetric("matcore.matrix_from_json.s", "s", _JSON, CERTIFY),
    LayerMetric("matcore.matrix_from_json.calls", "count", _JSON, CERTIFY),
    LayerMetric("cli.unitary_family_to_json.s", "s", _JSON, CERTIFY),
    LayerMetric("cli.unitary_family_from_json.s", "s", _JSON, CERTIFY),
    LayerMetric("cli.write_json.s", "s", _JSON, CERTIFY),
    LayerMetric("cli.write_json.bytes", "bytes", f"wall_s and the artifact size on {ROUNDTRIP}", CERTIFY),
    LayerMetric("cli.cmd_umeb.self_s", "s", _JSON, CERTIFY),
    LayerMetric("cli.cmd_verify.self_s", "s", _JSON, CERTIFY),
    LayerMetric("cli.artifact_mb", "MB", f"wall_s on {ROUNDTRIP}", CERTIFY),
    LayerMetric("process.self_s", "s", f"wall_s on {ROUNDTRIP} (interpreter start, imports, exit)", SWEEP),
    LayerMetric("packing.max_angle_dev", "1", "accuracy guard: must not grow with a speed-up", CERTIFY),
    LayerMetric("umeb.max_dev", "1", "accuracy guard: must not grow with a speed-up", SWEEP),
    LayerMetric("channels.choi_dev", "1", "accuracy guard: must not grow with a speed-up", SWEEP),
    LayerMetric("trace.untraced_wall_s", "s", "wall_s of the same run, tracing off", "-"),
    LayerMetric("trace.traced_wall_s", "s", "wall_s with tracing on", "-"),
    LayerMetric("trace.overhead_s", "s", "traced minus untraced wall_s", "-"),
    LayerMetric("trace.self_sum_s", "s", "sum of all self times; accounts for traced_wall_s", "-"),
    LayerMetric("trace.spans", "count", "spans recorded per traced iteration", "-"),
)

_SPAN_KINDS = {
    "s": lambda t: t.ns / 1e9,
    "self_s": lambda t: t.self_ns / 1e9,
    "calls": lambda t: t.calls,
    "bytes": lambda t: t.counters.get("bytes", 0),
}


def layer_values(
    totals: dict[str, Totals],
    traced_iterations: int,
    measured: dict[str, float],
) -> dict[str, float]:
    """Every layer metric per traced iteration; `measured` supplies the rest."""
    out = {}
    for metric in LAYER_METRICS:
        if metric.name in measured:
            out[metric.name] = measured[metric.name]
            continue
        if metric.name == "process.self_s":
            value = sum(t.self_ns for name, t in totals.items() if name.startswith("process.")) / 1e9
        else:
            key, kind = metric.name.rsplit(".", 1)
            t = totals.get(key)
            value = _SPAN_KINDS[kind](t) if t is not None else 0
        out[metric.name] = value / traced_iterations
    return out

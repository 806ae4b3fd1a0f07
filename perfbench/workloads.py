"""The three benchmark workloads and the correctness gate run on each operation.

An operation is one unit of user work: one library pipeline (certify-p47),
one CLI call (artifact-roundtrip-p31) or one p of the sweep (family-sweep).
Only the program's own calls are timed; the gate runs afterwards.

The gate turns every output into a list of problems.  An operation with a
problem, or one that raised, counts as failed and the run goes on.  The
gate's exact values (beta, Re z, cardinality, span rank) come from the
paper's closed forms written out here, not from the library.  Sampled
spot checks recompute traces directly, so they can contradict a PASS
verdict but never confirm one: an operation the program reported as
PASS while the gate found a problem is a wrong output, and makes the run
incorrect.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import umebkit as uk

from perfbench.spans import Tracer, read_spans

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
EPS = uk.Tolerance().eps
SAMPLE_PAIRS = 16
DECOMPOSITION_TRIALS = 20
SWEEP_PRIMES = (3, 7, 23, 31, 47, 71, 79)
DEVIATIONS = ("packing.max_angle_dev", "umeb.max_dev", "channels.choi_dev")


def expected_beta(d: int, r: int) -> Fraction:
    """Common trace r(rd + r - 2)/((d+2)(d-1)) of a maximal rank-r family."""
    return Fraction(r * (r * d + r - 2), (d + 2) * (d - 1))


def expected_re_z(d: int, r: int) -> Fraction:
    """Re z = 1 - d(d+2)(d-1) / (2r(d+1)(d-r))."""
    den = 2 * r * (d + 1) * (d - r)
    return Fraction(den - d * (d + 2) * (d - 1), den)


@dataclass
class Op:
    name: str
    claimed_pass: bool = False
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def contradicted(self) -> bool:
        """The program reported PASS for an output the gate rejects."""
        return self.claimed_pass and bool(self.problems)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def within(self, label: str, value: float, limit: float = EPS) -> None:
        self.check(value <= limit, f"{label} {value:.3e} > {limit:.3e}")

    def raised(self, exc: BaseException) -> Op:
        traceback.print_exception(exc, file=sys.stderr)
        self.problems.append(f"raised {type(exc).__name__}: {exc}")
        return self


@dataclass
class Iteration:
    wall_s: float
    ops: list[Op]
    devs: dict[str, float] = field(default_factory=dict)
    child_rss_mib: list[float] = field(default_factory=list)
    artifact_bytes: int = 0


@contextmanager
def gating(op: Op):
    """Checks on output too malformed to read raise; that fails the operation, not the run."""
    try:
        yield
    except Exception as exc:
        op.raised(exc)


def _tracing(tracer: Tracer | None):
    return nullcontext() if tracer is None else tracer.active()


def _sample_pairs(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    i = rng.integers(0, n, SAMPLE_PAIRS)
    j = (i + rng.integers(1, n, SAMPLE_PAIRS)) % n
    return list(zip(i.tolist(), j.tolist()))


def _gate_family(op: Op, family, report, p: int, rng: np.random.Generator) -> None:
    r = (p - 1) // 2
    n = p * (p + 1) // 2
    op.check(report.passed, "equiangular verdict FAIL")
    op.check(len(family) == n, f"cardinality {len(family)} != p(p+1)/2 = {n}")
    op.check(family.beta == expected_beta(p, r), f"beta {family.beta} != {expected_beta(p, r)}")
    op.within("max_angle_dev", report.max_angle_dev)
    op.within("max_idempotency_dev", report.max_idempotency_dev)
    op.within("max_rank_dev", report.max_rank_dev)
    beta = float(expected_beta(p, r))
    worst = max(
        abs(float(np.sum(family.projections[i] * family.projections[j])) - beta)
        for i, j in _sample_pairs(len(family), rng)
    )
    op.within("sampled pairwise-trace deviation", worst)


def _gate_phase(op: Op, z: complex, d: int, r: int) -> None:
    exact = expected_re_z(d, r)
    op.check(uk.feasibility(d, r).re_z == exact, f"feasibility Re z != {exact}")
    op.check(z.real == float(exact), f"phase Re z {z.real!r} != {float(exact)!r}")
    op.within("phase |z| - 1", abs(abs(z) - 1.0))


def _gate_certificate(op: Op, cert, d: int) -> None:
    n = d * (d + 1) // 2
    op.check(cert.unextendible_verdict, "unextendible verdict FAIL")
    op.check(cert.symmetric_span and cert.complement_antisymmetric and cert.d_odd,
             "certificate structural fact FAIL")
    op.check(cert.cardinality == n, f"certificate cardinality {cert.cardinality} != {n}")
    op.check(cert.span_rank == n, f"span_rank {cert.span_rank} != d(d+1)/2 = {n}")
    op.within("max_unitarity_dev", cert.max_unitarity_dev)
    op.within("max_orthogonality_dev", cert.max_orthogonality_dev)
    op.within("cj_orthonormality_dev", cert.cj_orthonormality_dev)


def pipeline_op(p: int, seed: int, tracer: Tracer | None = None) -> tuple[float, Op, dict]:
    """validate .. verify_decomposition at one p; returns (seconds, op, deviations)."""
    op = Op(f"pipeline p={p}")
    with _tracing(tracer):
        start = time.perf_counter()
        try:
            prime = uk.validate_prime(p)
            h = uk.construct((p + 1) // 2)
            family = uk.build_residue_family(prime, h)
            report = uk.verify_equiangular(family)
            z = uk.compute_phase(p, prime.half)
            unitaries = uk.build_unitaries(family, z)
            cert = uk.certify_umeb(unitaries)
            dec = uk.umeb_decomposition(unitaries)
            rep = uk.verify_decomposition(dec, trials=DECOMPOSITION_TRIALS, seed=seed)
        except Exception as exc:  # a raising operation is a failed one, not a crash
            return time.perf_counter() - start, op.raised(exc), {}
        seconds = time.perf_counter() - start

    devs = {}
    with gating(op):
        op.claimed_pass = report.passed and cert.unextendible_verdict and rep.verdict
        rng = np.random.default_rng(seed)
        _gate_family(op, family, report, p, rng)
        _gate_phase(op, z, p, prime.half)
        _gate_certificate(op, cert, p)
        n = len(unitaries)
        us = unitaries.unitaries
        worst = max(abs(complex(np.vdot(us[i], us[j]))) for i, j in _sample_pairs(n, rng))
        op.within("sampled unitary overlap", worst)

        op.check(rep.verdict, "decomposition verdict FAIL")
        op.check(len(dec.weights) == n and all(w == 2 / (p * (p + 1)) for w in dec.weights),
                 "weights are not uniform 2/(d(d+1))")
        op.within("choi_dev", rep.choi_dev, EPS * p * p)
        op.within("apply_dev_max", rep.apply_dev_max)
        # one seeded input through the whole mixture, against the channel formula;
        # a loop, so the gate adds little to the process's peak RSS
        x = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        x = (x + x.conj().T) / 2
        mixed = sum(u @ x @ u.conj().T for u in us) * (2 / (p * (p + 1)))
        direct = (np.trace(x) * np.eye(p) + x.T) / (p + 1)
        op.within("sampled channel deviation", float(np.max(np.abs(mixed - direct))),
                  EPS * float(np.max(np.abs(x))))
        devs = {
            "packing.max_angle_dev": report.max_angle_dev,
            "umeb.max_dev": max(cert.max_unitarity_dev, cert.max_orthogonality_dev,
                                cert.cj_orthonormality_dev),
            "channels.choi_dev": rep.choi_dev,
        }
    return seconds, op, devs


def sweep_op(p: int, seed: int, tracer: Tracer | None = None) -> tuple[float, Op, dict]:
    """validate_prime, construct, build_residue_family, verify_equiangular at one p."""
    op = Op(f"family p={p}")
    with _tracing(tracer):
        start = time.perf_counter()
        try:
            prime = uk.validate_prime(p)
            h = uk.construct((p + 1) // 2)
            family = uk.build_residue_family(prime, h)
            report = uk.verify_equiangular(family)
        except Exception as exc:  # a raising operation is a failed one, not a crash
            return time.perf_counter() - start, op.raised(exc), {}
        seconds = time.perf_counter() - start
    devs = {}
    with gating(op):
        op.claimed_pass = report.passed
        _gate_family(op, family, report, p, np.random.default_rng(seed + p))
        devs["packing.max_angle_dev"] = report.max_angle_dev
    return seconds, op, devs


def merge_devs(into: dict, devs: dict) -> None:
    """Keep the worst value of each deviation."""
    for key, value in devs.items():
        into[key] = max(into.get(key, 0.0), value)


class InProcess:
    """A workload run in the benchmark process: one operation per p."""

    name: str
    primes: tuple[int, ...]
    op: staticmethod

    def warm_up(self, seed: int) -> None:
        self.op(7, seed)

    def probe_argv(self) -> list[str]:
        return [sys.executable, str(ROOT / "perfbench" / "run.py"), "--setup-probe", self.name]

    def iteration(self, seed: int, tracer: Tracer | None) -> Iteration:
        return self._interleaved(seed, [tracer], 0)[0]

    def pair(self, seed: int, tracer: Tracer, flip: int) -> tuple[Iteration, Iteration]:
        """An untraced and a traced iteration, interleaved operation by operation.

        Later operations in a process can run faster than earlier ones, so
        the two sides take turns going first and neither is favoured.
        """
        return self._interleaved(seed, [None, tracer], flip)

    def _interleaved(self, seed: int, tracers: list, flip: int) -> list[Iteration]:
        its = [Iteration(0.0, []) for _ in tracers]
        for k, p in enumerate(self.primes):
            order = range(len(tracers))
            for i in reversed(order) if (k + flip) % 2 else order:
                seconds, op, devs = self.op(p, seed, tracers[i])
                its[i].wall_s += seconds
                its[i].ops.append(op)
                merge_devs(its[i].devs, devs)
        return its


class CertifyP47(InProcess):
    name = "certify-p47"
    primes = (47,)
    op = staticmethod(pipeline_op)


class FamilySweep(InProcess):
    name = "family-sweep"
    primes = SWEEP_PRIMES
    op = staticmethod(sweep_op)


@dataclass
class Child:
    seconds: float
    rss_mib: float
    code: int
    out: str


def run_child(argv: list[str]) -> Child:
    """Run a process to its end; wall time from spawn to exit, and its own peak RSS."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, cwd=ROOT)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(seconds, usage.ru_maxrss / 1024, proc.returncode, out.decode(errors="replace"))


def _field(op: Op, pattern: str, text: str) -> tuple[str, ...] | None:
    m = re.search(pattern, text, re.MULTILINE)
    op.check(m is not None, f"output has no line matching {pattern!r}")
    return m.groups() if m else None


def _gate_umeb_output(op: Op, out: str, cert: dict | None, p: int) -> dict:
    """Check `umebkit umeb` stdout and certificate; returns its reported deviations."""
    r, n = (p - 1) // 2, p * (p + 1) // 2
    devs = {}
    fam = _field(op, r"^family: d=(\d+) r=(\d+) count=(\d+) beta=(\S+)$", out)
    if fam:
        op.check(tuple(map(int, fam[:3])) == (p, r, n), f"family header {fam[:3]} != {(p, r, n)}")
        op.check(Fraction(fam[3]) == expected_beta(p, r), f"beta {fam[3]} != {expected_beta(p, r)}")
    for label in ("pairwise-trace", "idempotency", "trace-rank"):
        value = _field(op, rf"^max {label} deviation:\s+(\S+)$", out)
        if value:
            op.within(f"max {label} deviation", float(value[0]))
            if label == "pairwise-trace":
                devs["packing.max_angle_dev"] = float(value[0])
    op.check(_field(op, r"^equiangular: (\w+)$", out) == ("PASS",), "equiangular verdict FAIL")
    phase = _field(op, r"^phase z = (\S+) \+ (\S+)i$", out)
    if phase:
        exact = expected_re_z(p, r)
        op.check(float(phase[0]) == float(exact), f"phase Re z {phase[0]} != {float(exact)!r}")
        op.within("phase |z| - 1", abs(abs(complex(float(phase[0]), float(phase[1]))) - 1.0))
    op.check(_field(op, r"^cardinality: (\d+)$", out) == (str(n),), f"cardinality != {n}")
    op.check(_field(op, r"^span rank: (\d+) ", out) == (str(n),), f"span rank != {n}")
    op.check(_field(op, r"^unextendible: (\w+)$", out) == ("PASS",), "unextendible verdict FAIL")
    op.check(cert is not None, "no certificate file")
    if cert is not None:
        op.check(cert.get("unextendible_verdict") is True, "certificate verdict is not true")
        op.check(cert.get("cardinality") == n, f"certificate cardinality != {n}")
        op.check(cert.get("span_rank") == n, f"certificate span_rank != {n}")
        for key in ("max_unitarity_dev", "max_orthogonality_dev", "cj_orthonormality_dev"):
            op.check(key in cert, f"certificate has no {key}")
            if key in cert:
                op.within(f"certificate {key}", float(cert[key]))
                devs["umeb.max_dev"] = max(devs.get("umeb.max_dev", 0.0), float(cert[key]))
    return devs


def _gate_verify_output(op: Op, out: str, umeb_out: str, p: int) -> None:
    n = p * (p + 1) // 2
    fam = _field(op, r"^unitary family: d=(\d+) count=(\d+)$", out)
    if fam:
        op.check(fam == (str(p), str(n)), f"re-read family {fam} != d={p} count={n}")
    for label in ("unitarity", "orthogonality"):
        pattern = rf"^max {label} deviation:\s+(\S+)$"
        value = _field(op, pattern, out)
        if value:
            op.within(f"max {label} deviation", float(value[0]))
            # JSON round-trips floats exactly, so the re-read family certifies alike
            written = re.search(pattern, umeb_out, re.MULTILINE)
            op.check(written is not None and written.group(1) == value[0],
                     f"{label} deviation changed across the JSON round trip")
    op.check(_field(op, r"^unextendible: (\w+)$", out) == ("PASS",), "unextendible verdict FAIL")


class ArtifactRoundtrip:
    name = "artifact-roundtrip-p31"
    P = 31

    def __init__(self) -> None:
        self.digest: str | None = None

    def warm_up(self, seed: int) -> None:
        WORK.mkdir(exist_ok=True)

    def probe_argv(self) -> list[str]:
        return [sys.executable, str(ROOT / "perfbench" / "cli_main.py"), "--version"]

    def _cli(self, args: list[str], tracer: Tracer | None, label: str) -> Child:
        argv = [sys.executable, str(ROOT / "perfbench" / "cli_main.py")]
        if tracer is None:
            return run_child(argv + args)
        spans_path = WORK / f"spans-{label}.json"
        with tracer.span(f"process.{label}") as index:
            child = run_child(argv + ["--spans", str(spans_path)] + args)
        if spans_path.exists():
            tracer.adopt(read_spans(str(spans_path)), index)
            spans_path.unlink()
        return child

    def pair(self, seed: int, tracer: Tracer, flip: int) -> tuple[Iteration, Iteration]:
        """An untraced and a traced iteration; `flip` picks which goes first."""
        if flip % 2:
            traced = self.iteration(seed, tracer)
            return self.iteration(seed, None), traced
        plain = self.iteration(seed, None)
        return plain, self.iteration(seed, tracer)

    def iteration(self, seed: int, tracer: Tracer | None) -> Iteration:
        p = self.P
        artifact, cert_path = WORK / f"umeb-p{p}.json", WORK / f"cert-p{p}.json"
        for path in (artifact, cert_path):
            path.unlink(missing_ok=True)
        umeb = self._cli(["umeb", "--p", str(p), "--out", str(artifact), "--cert", str(cert_path),
                          "--no-timestamp"], tracer, "umeb")
        verify = self._cli(["verify", "--in", str(artifact), "--no-timestamp"], tracer, "verify")

        write = Op(f"umeb --p {p} --out", claimed_pass=umeb.code == 0)
        devs = {}
        size = artifact.stat().st_size if artifact.exists() else 0
        with gating(write):
            write.check(umeb.code == 0, f"exit code {umeb.code}")
            cert = json.loads(cert_path.read_text()) if cert_path.exists() else None
            devs = _gate_umeb_output(write, umeb.out, cert, p)
            write.check(size > 0, "no artifact written")
            if size:
                digest = hashlib.sha256(artifact.read_bytes()).hexdigest()
                self.digest = self.digest or digest
                write.check(digest == self.digest, "--no-timestamp artifact differs between iterations")

        read = Op("verify --in", claimed_pass=verify.code == 0)
        with gating(read):
            read.check(verify.code == 0, f"exit code {verify.code}")
            _gate_verify_output(read, verify.out, umeb.out, p)
        for path in (artifact, cert_path):
            path.unlink(missing_ok=True)
        return Iteration(
            umeb.seconds + verify.seconds,
            [write, read],
            devs,
            child_rss_mib=[umeb.rss_mib, verify.rss_mib],
            artifact_bytes=size,
        )


WORKLOADS = {w.name: w for w in (CertifyP47, ArtifactRoundtrip, FamilySweep)}

"""Batch command-line front end.

Subcommands: generate (projection family), umeb (unitary family plus
certificate), verify (re-check an exported JSON artifact), feasibility
(rank/dimension table), wh-check (mixed-unitary decomposition of the
symmetric transpose channel), hadamard, demo-icosahedron.

Exit status: 0 when every verdict passes, 2 when a verdict fails,
1 for usage or I/O errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .channels import umeb_decomposition, verify_decomposition
from .errors import MalformedArtifact, OutOfRange, ShapeMismatch, UmebkitError
from .hadamard import construct, hadamard_to_json
from .matcore import DEFAULT_EPS, DEFAULT_RANK_EPS, DEFAULT_TOL, Tolerance, json_int, json_number
from .matcore import stack_from_json, stack_to_json
from .numth import validate_prime
from .packing import (
    ProjectionFamily,
    build_residue_family,
    family_from_json,
    family_to_json,
    icosahedron_lines,
    verify_equiangular,
)
from .umeb import UnitaryFamily, build_unitaries, certify_umeb, compute_phase, feasibility


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def input_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def write_json(path: str, obj) -> None:
    """Write exactly canonical_json(obj): the file's bytes are what input_hash hashes."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(obj))


UNITARY_FIELDS = (("d", "source", "z"), ("bases", "d", "shifts", "z"))


def unitary_family_to_json(uf: UnitaryFamily) -> dict:
    """{"d", "z", "source": family} when the family has a source, else {"d", "z", "shifts", "bases": stack}."""
    obj = {"d": uf.d, "z": [uf.z.real, uf.z.imag]}
    if uf.source is None:
        obj["shifts"] = uf.shifts
        obj["bases"] = stack_to_json(uf.bases)
    else:
        obj["source"] = family_to_json(uf.source)
    return obj


def unitary_family_from_json(obj: dict, tol: Tolerance = DEFAULT_TOL) -> UnitaryFamily:
    """Inverse of unitary_family_to_json; MalformedArtifact, ShapeMismatch or OutOfRange on bad input.

    A source is rebuilt by build_unitaries, as when written, so the unitaries are bit-identical.
    Without a source, U_i = I - (1 - z)P_i has trace d - r(1 - z) for a rank-r projection P_i,
    so every (d - tr U_i)/(1 - z), read off the bases, must lie within eps * d of one integer r
    with 1 <= r < d.  The fields must be exactly one of UNITARY_FIELDS.
    """
    if tuple(sorted(obj)) not in UNITARY_FIELDS:
        sourced, bare = map(list, UNITARY_FIELDS)
        raise MalformedArtifact(f"a unitary family has the fields {sourced} or {bare}, not {sorted(obj)}")
    d = json_int(obj["d"], "d")
    try:
        re, im = obj["z"]
    except (TypeError, ValueError):
        raise MalformedArtifact("phase z must be a pair [re, im]") from None
    z = complex(json_number(re, "z"), json_number(im, "z"))
    if "bases" in obj:
        bases = stack_from_json(obj["bases"], d)
        uf = UnitaryFamily(d=d, z=z, bases=bases, shifts=json_int(obj["shifts"], "shifts"))
        with np.errstate(all="ignore"):  # z = 1 or a huge trace fails the check below instead
            ranks = (d - np.einsum("nii->n", uf.bases)) / (1 - z)
            r = np.rint(ranks[0].real)
            fits = 1 <= r < d and np.max(np.abs(ranks - r)) <= tol.eps * d
        if not fits:
            raise MalformedArtifact(
                f"phase z = {z} does not fit the unitaries: (d - tr U_i)/(1 - z) is not one rank 1 <= r < {d}"
            )
        return uf
    source = family_from_json(obj["source"])
    if source.d != d:
        raise ShapeMismatch(f"source family of {source.d}x{source.d} projections for d={d}")
    return build_unitaries(source, z)


def _stamp(obj: dict, no_timestamp: bool) -> dict:
    if not no_timestamp:
        obj["generated_at"] = datetime.now(timezone.utc).isoformat()
    return obj


def _certificate_json(cert, source_obj, no_timestamp: bool) -> dict:
    obj = cert.to_json()
    obj["tool_version"] = __version__
    obj["input_sha256"] = input_hash(source_obj)
    return _stamp(obj, no_timestamp)


def _tolerance(args) -> Tolerance:
    eps = args.eps
    if eps is None:
        env = os.environ.get("UMEB_TOL")
        try:
            eps = DEFAULT_EPS if env is None else float(env)
        except ValueError:
            raise OutOfRange(f"UMEB_TOL={env!r} is not a number") from None
    return Tolerance(eps=eps, rank_eps=args.rank_eps)


def _emit(args, text_lines: list[str], json_obj: dict) -> None:
    if args.format == "json":
        print(canonical_json(json_obj))
    else:
        for line in text_lines:
            print(line)


def _build_family(args) -> ProjectionFamily:
    prime = validate_prime(args.p, args.k)
    h = construct((prime.p + 1) // 2)
    return build_residue_family(prime, h)


def _family_report_lines(family: ProjectionFamily, report) -> list[str]:
    return [
        f"family: d={family.d} r={family.r} count={len(family)} beta={family.beta}",
        f"max pairwise-trace deviation: {report.max_angle_dev:.3e}",
        f"max idempotency deviation:    {report.max_idempotency_dev:.3e}",
        f"max trace-rank deviation:     {report.max_rank_dev:.3e}",
        f"equiangular: {'PASS' if report.passed else 'FAIL'}",
    ]


def cmd_generate(args) -> int:
    tol = _tolerance(args)
    family = _build_family(args)
    report = verify_equiangular(family, tol)
    family_obj = family_to_json(family)
    if args.out:
        write_json(args.out, family_obj)
    _emit(
        args,
        _family_report_lines(family, report),
        {"d": family.d, "r": family.r, "count": len(family), "passed": report.passed},
    )
    return 0 if report.passed else 2


def cmd_umeb(args) -> int:
    tol = _tolerance(args)
    family = _build_family(args)
    report = verify_equiangular(family, tol)
    z = compute_phase(family.d, family.r)
    uf = build_unitaries(family, z)
    cert = certify_umeb(uf, tol)
    uf_obj = unitary_family_to_json(uf)
    cert_obj = _certificate_json(cert, uf_obj["source"], args.no_timestamp)
    if args.out:
        write_json(args.out, uf_obj)
    if args.cert:
        write_json(args.cert, cert_obj)
    lines = _family_report_lines(family, report)
    lines += [
        f"phase z = {z.real} + {z.imag}i",
        f"cardinality: {cert.cardinality}",
        f"max unitarity deviation:     {cert.max_unitarity_dev:.3e}",
        f"max orthogonality deviation: {cert.max_orthogonality_dev:.3e}",
        f"span rank: {cert.span_rank} (symmetric span: {cert.symmetric_span})",
        f"unextendible: {'PASS' if cert.unextendible_verdict else 'FAIL'}",
    ]
    if family.d == 3:
        lines.append("note: p=3 is the special small case outside the main prime family")
    _emit(args, lines, cert_obj)
    return 0 if cert.unextendible_verdict and report.passed else 2


def cmd_verify(args) -> int:
    tol = _tolerance(args)
    with open(args.infile, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:  # ValueError: bad JSON or bad UTF-8
            raise MalformedArtifact(f"invalid JSON input: {exc}") from None
    if not isinstance(obj, dict):
        raise MalformedArtifact("input file is not a JSON object")
    if "r" in obj:
        family = family_from_json(obj)
        report = verify_equiangular(family, tol)
        report_obj = _stamp(
            {
                "kind": "equiangular",
                "pairs": report.pairs,
                "max_angle_dev": report.max_angle_dev,
                "max_idempotency_dev": report.max_idempotency_dev,
                "max_rank_dev": report.max_rank_dev,
                "passed": report.passed,
            },
            args.no_timestamp,
        )
        lines = _family_report_lines(family, report)
        passed = report.passed
    elif "z" in obj:
        uf = unitary_family_from_json(obj, tol)
        cert = certify_umeb(uf, tol)
        report_obj = _certificate_json(cert, obj, args.no_timestamp)
        lines = [
            f"unitary family: d={uf.d} count={len(uf)}",
            f"max unitarity deviation:     {cert.max_unitarity_dev:.3e}",
            f"max orthogonality deviation: {cert.max_orthogonality_dev:.3e}",
            f"unextendible: {'PASS' if cert.unextendible_verdict else 'FAIL'}",
        ]
        passed = cert.unextendible_verdict
    else:
        raise UmebkitError("input file is neither a projection family nor a unitary family")
    if args.report:
        write_json(args.report, report_obj)
    _emit(args, lines, report_obj)
    return 0 if passed else 2


def cmd_feasibility(args) -> int:
    if args.dmax <= args.r:
        raise UmebkitError(f"--dmax must exceed --r (got r={args.r}, dmax={args.dmax})")
    rows = [feasibility(d, args.r) for d in range(args.r + 1, args.dmax + 1)]
    json_rows = [
        {
            "d": rep.d,
            "r": rep.r,
            "re_z_num": rep.re_z.numerator,
            "re_z_den": rep.re_z.denominator,
            "feasible": rep.feasible,
        }
        for rep in rows
    ]
    lines = [f"r={args.r}: admissible d are {sorted(x for x in rows[0].allowed_d_for_r)}"]
    for rep in rows:
        lines.append(
            f"d={rep.d:4d}  Re(z) = {str(rep.re_z):>12s}  "
            f"{'feasible' if rep.feasible else 'infeasible'}"
        )
    _emit(args, lines, {"r": args.r, "rows": json_rows})
    return 0


def cmd_wh_check(args) -> int:
    tol = _tolerance(args)
    family = _build_family(args)
    z = compute_phase(family.d, family.r)
    uf = build_unitaries(family, z)
    dec = umeb_decomposition(uf, tol)
    rep = verify_decomposition(dec, trials=args.trials, seed=args.seed, tol=tol)
    report_obj = _stamp(rep.to_json(), args.no_timestamp)
    if args.report:
        write_json(args.report, report_obj)
    _emit(
        args,
        [
            f"mixture of {len(dec.weights)} unitaries, weight {dec.weights[0]}",
            f"Choi deviation (Frobenius): {rep.choi_dev:.3e}",
            f"max apply deviation ({rep.trials} trials, seed {rep.seed}): {rep.apply_dev_max:.3e}",
            f"decomposition: {'PASS' if rep.verdict else 'FAIL'}",
        ],
        report_obj,
    )
    return 0 if rep.verdict else 2


def cmd_hadamard(args) -> int:
    h = construct(args.order)
    obj = hadamard_to_json(h)
    if args.out:
        write_json(args.out, obj)
    _emit(args, [f"Hadamard order {h.order}: H @ H.T = {h.order}*I verified"], obj)
    return 0


def cmd_demo_icosahedron(args) -> int:
    tol = _tolerance(args)
    family = icosahedron_lines()
    report = verify_equiangular(family, tol)
    z = compute_phase(3, 1)
    uf = build_unitaries(family, z)
    cert = certify_umeb(uf, tol)
    dec = umeb_decomposition(uf, tol)
    wh = verify_decomposition(dec, trials=args.trials, seed=args.seed, tol=tol)
    ok = report.passed and cert.unextendible_verdict and wh.verdict
    lines = _family_report_lines(family, report)
    lines += [
        f"phase z = {z.real} + {z.imag}i  (Re z = -7/8)",
        f"cardinality: {cert.cardinality}",
        f"unextendible: {'PASS' if cert.unextendible_verdict else 'FAIL'}",
        f"channel decomposition: {'PASS' if wh.verdict else 'FAIL'}",
    ]
    obj = {"equiangular": report.passed, "certificate": cert.to_json(), "wh_check": wh.to_json()}
    _emit(args, lines, _stamp(obj, args.no_timestamp))
    return 0 if ok else 2


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 on usage errors (2 is a verdict failure)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_checks(sub) -> None:
    """The options of a command that checks something: its tolerances and its report's timestamp."""
    sub.add_argument("--eps", type=float, default=None, help="entrywise tolerance in (0, 1), default 1e-9 or $UMEB_TOL")
    sub.add_argument("--rank-eps", type=float, default=DEFAULT_RANK_EPS, help="relative rank threshold in (0, 1)")
    sub.add_argument("--no-timestamp", action="store_true", help="omit generated_at from reports")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="umebkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"umebkit {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = subs.add_parser("generate", help="build and verify a projection family")
    gen.add_argument("--p", type=int, required=True)
    gen.add_argument("--k", type=int, default=None, help="override the non-residue k")
    gen.add_argument("--out", default=None, help="write family JSON here")
    _add_checks(gen)
    gen.set_defaults(func=cmd_generate)

    um = subs.add_parser("umeb", help="build unitaries and certify the basis")
    um.add_argument("--p", type=int, required=True)
    um.add_argument("--k", type=int, default=None)
    um.add_argument("--out", default=None, help="write unitary family JSON here")
    um.add_argument("--cert", default=None, help="write certificate JSON here")
    _add_checks(um)
    um.set_defaults(func=cmd_umeb)

    ver = subs.add_parser("verify", help="re-verify an exported JSON artifact")
    ver.add_argument("--in", dest="infile", required=True)
    ver.add_argument("--report", default=None, help="write verification report here")
    _add_checks(ver)
    ver.set_defaults(func=cmd_verify)

    fea = subs.add_parser("feasibility", help="rank/dimension feasibility table")
    fea.add_argument("--r", type=int, required=True)
    fea.add_argument("--dmax", type=int, required=True)
    fea.set_defaults(func=cmd_feasibility)

    wh = subs.add_parser("wh-check", help="verify the mixed-unitary decomposition")
    wh.add_argument("--p", type=int, required=True)
    wh.add_argument("--k", type=int, default=None)
    wh.add_argument("--trials", type=int, default=20)
    wh.add_argument("--seed", type=int, default=42)
    wh.add_argument("--report", default=None)
    _add_checks(wh)
    wh.set_defaults(func=cmd_wh_check)

    had = subs.add_parser("hadamard", help="construct a Hadamard matrix")
    had.add_argument("--order", type=int, required=True)
    had.add_argument("--out", default=None)
    had.set_defaults(func=cmd_hadamard)

    demo = subs.add_parser("demo-icosahedron", help="dimension-3 pipeline end to end")
    demo.add_argument("--trials", type=int, default=20)
    demo.add_argument("--seed", type=int, default=42)
    _add_checks(demo)
    demo.set_defaults(func=cmd_demo_icosahedron)

    for sub in subs.choices.values():
        sub.add_argument("--format", choices=("json", "text"), default="text")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UmebkitError as exc:
        print(f"umebkit: error: {exc}", file=sys.stderr)
        return 1
    except KeyError as exc:
        print(f"umebkit: malformed input, missing field {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"umebkit: i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Batch command-line front end.

Subcommands: generate (projection family), umeb (unitary family plus
certificate), verify (re-check an exported JSON artifact), feasibility
(rank/dimension table), wh-check (mixed-unitary decomposition of the
symmetric transpose channel), hadamard, demo-icosahedron.

Every command that checks something is a view of one run of the paper's
chain of claims (_check): the family is equiangular; with a phase z, the
unitaries I - (1 - z)P_i form a UMEB; with the channel, that UMEB is a
uniform mixed-unitary decomposition of the symmetric transpose channel.
generate runs the first claim, umeb the first two, wh-check and
demo-icosahedron (the wh-check of p=3, on icosahedron_lines) all three.
The report is one text layout and one flat JSON object for all of them.

An artifact is the generator of a residue family, {"p", "k", "hadamard"}
(`generate --out`), with its phase "z" for a unitary family (`umeb
--out`): the family is build_residue_family of p, k and H, and
U_i = I - (1 - z)P_i fixes the unitaries.  artifact_to_json writes it
and artifact_from_json reads it, the package's one JSON writer and one
reader of artifacts.  `verify` rebuilds the family and its unitaries and
re-runs the claims of the command that wrote it, and its report's
input_sha256 is the sha256 of the file's bytes; that of a `umeb`
certificate is the sha256 of the family's generator as `generate --out`
writes it.

Exit status: 0 when every verdict passes, 2 when a verdict fails,
1 for usage or I/O errors, for malformed artifacts and when memory runs out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .channels import _check_probe, umeb_decomposition, verify_decomposition
from .errors import HadamardOrderMismatch, MalformedArtifact, OutOfRange, UmebkitError
from .hadamard import HadamardMatrix, construct
from .matcore import DEFAULT_EPS, Tolerance
from .numth import UmebPrime, validate_prime
from .packing import ProjectionFamily, build_residue_family, icosahedron_lines, verify_equiangular
from .umeb import build_unitaries, certificate_from_report, compute_phase, feasibility


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def text_hash(text: str) -> str:
    """sha256 of the UTF-8 bytes of text, such as the canonical_json of a certificate's input."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_json(path: str, obj) -> None:
    """Write exactly canonical_json(obj): the file's bytes are what text_hash hashes."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(obj))


def _hadamard_json(h: HadamardMatrix) -> dict:
    """{"order", "rows"}: the form `hadamard --out` writes and an artifact holds."""
    return {"order": h.order, "rows": h.entries.tolist()}


def artifact_to_json(prime: UmebPrime, h: HadamardMatrix, z: complex | None = None) -> dict:
    """The generator of build_residue_family(prime, h), {"p", "k", "hadamard"}, and "z": [re, im] for its unitaries I - (1 - z)P_i."""
    obj = {"p": prime.p, "k": prime.k, "hadamard": _hadamard_json(h)}
    if z is not None:
        obj["z"] = [z.real, z.imag]
    return obj


def _json_int(value, what: str) -> int:
    if type(value) is not int:  # a JSON bool is no integer
        raise MalformedArtifact(f"{what} must be an integer, got {type(value).__name__}")
    return value


def artifact_from_json(obj) -> tuple[UmebPrime, HadamardMatrix, complex | None]:
    """Inverse of artifact_to_json: (prime, h, z or None for a projection family); a typed UmebkitError on bad input.

    The fields must be exactly "hadamard", "k", "p" and, for a unitary
    family, "z", which rejects the formats of earlier versions; p, k and
    H's order must be JSON integers, the order (p+1)/2, H's fields exactly
    "order" and "rows", its rows order lists of order JSON integers that
    int64 holds, and z a pair of finite JSON numbers.  All of that is
    checked before any array is built, so a short file that claims a large
    order allocates nothing, and before HadamardMatrix's O(n^3) product and
    validate_prime's O(sqrt p) trial division, so it cannot reach them with
    a huge p.  HadamardMatrix then checks that every entry is +-1 and that
    H @ H.T = order*I, and validate_prime checks p and k: any Hadamard
    matrix of the order is read, not only construct's.
    build_residue_family(prime, h) and build_unitaries(family, z) rebuild
    the family and its unitaries bit for bit as the command that wrote them
    built them; whether they hold is for the checks to decide.
    """
    fields = sorted(obj) if isinstance(obj, dict) else type(obj).__name__
    if fields not in (["hadamard", "k", "p"], ["hadamard", "k", "p", "z"]):
        raise MalformedArtifact(f"an artifact has the fields ['hadamard', 'k', 'p'] and optionally 'z', not {fields}")
    p, k, had = _json_int(obj["p"], "p"), _json_int(obj["k"], "k"), obj["hadamard"]
    fields = sorted(had) if isinstance(had, dict) else type(had).__name__
    if fields != ["order", "rows"]:
        raise MalformedArtifact(f"a Hadamard matrix has the fields ['order', 'rows'], not {fields}")
    n, rows = _json_int(had["order"], "Hadamard order"), had["rows"]
    if n != (p + 1) // 2:
        raise HadamardOrderMismatch(f"p={p} needs Hadamard order {(p + 1) // 2}, got {n}")
    if not isinstance(rows, list) or len(rows) != n or not all(
        isinstance(row, list) and len(row) == n and set(map(type, row)) <= {int} for row in rows
    ):
        raise MalformedArtifact(f"Hadamard rows must be {n} lists of {n} integers")
    z = obj.get("z")
    if "z" in obj and not (
        isinstance(z, list) and len(z) == 2 and all(type(x) in (int, float) and abs(x) <= sys.float_info.max for x in z)
    ):
        raise MalformedArtifact(f"phase z must be a pair [re, im] of finite numbers, got {z!r:.40}")
    try:
        entries = np.array(rows, dtype=np.int64)
    except OverflowError:
        raise MalformedArtifact("an integer of the Hadamard rows is past int64") from None
    return validate_prime(p, k), HadamardMatrix(order=n, entries=entries), None if z is None else complex(*z)


def _tolerance(args) -> Tolerance:
    eps = args.eps
    if eps is None:
        env = os.environ.get("UMEB_TOL")
        try:
            eps = DEFAULT_EPS if env is None else float(env)
        except ValueError:
            raise OutOfRange(f"UMEB_TOL={env!r} is not a number") from None
    return Tolerance(eps=eps)


def _emit(args, text_lines: list[str], json_obj: dict) -> None:
    if args.format == "json":
        print(canonical_json(json_obj))
    else:
        for line in text_lines:
            print(line)


def _generator(args) -> tuple[UmebPrime, HadamardMatrix]:
    prime = validate_prime(args.p, args.k)
    return prime, construct((prime.p + 1) // 2)


def _check(args, family: ProjectionFamily, z: complex | None = None, *, channel=False, input_sha256=None) -> int:
    """Check the paper's claims on family, print the report and write it to --report; 0 when every claim passes, else 2.

    The claims form a chain, and each one runs on what the one before it
    checked: the family is equiangular; with z, the unitaries
    I - (1 - z)P_i form a UMEB; with channel, that UMEB is a
    uniform mixed-unitary decomposition of the symmetric transpose channel
    (umeb_decomposition, which checks only the member count, then
    verify_decomposition with --trials and --seed, whose Choi check implies
    the span again).  The certificate is read off the equiangular report
    that the first block prints (certificate_from_report), so the
    equiangular pass runs once a command, and no Gram of the unitaries is
    computed.  The text report has
    one block per claim, in that order.  The JSON report is the flat union
    of {"d", "r", "count"} and the fields of the reports that ran, with the
    tool version, input_sha256 when given and generated_at unless
    --no-timestamp; their field names do not collide, and "d" is the same
    in each.
    """
    report = verify_equiangular(family, args.tol)
    lines = [
        f"family: d={family.d} r={family.r} count={len(family)} beta={family.beta}",
        f"max pairwise-trace deviation: {report.max_angle_dev:.3e}",
        f"max idempotency deviation:    {report.max_idempotency_dev:.3e}",
        f"max trace-rank deviation:     {report.max_rank_dev:.3e}",
        f"equiangular: {'PASS' if report.passed else 'FAIL'}",
    ]
    obj = {"d": family.d, "r": family.r, "count": len(family), **asdict(report)}
    passed = report.passed
    if z is not None:
        uf = build_unitaries(family, z)
        cert = certificate_from_report(uf, report, args.tol)
        lines += [
            f"phase z = {z.real} + {z.imag}i",
            f"unitary family: d={uf.d} count={len(uf)}",
            f"cardinality: {cert.cardinality}",
            f"max unitarity deviation:     {cert.max_unitarity_dev:.3e}",
            f"max orthogonality deviation: {cert.max_orthogonality_dev:.3e}",
            f"span rank: {cert.span_rank} (symmetric span: {cert.symmetric_span})",
            f"unextendible: {'PASS' if cert.unextendible_verdict else 'FAIL'}",
        ]
        obj.update(asdict(cert))
        passed = passed and cert.unextendible_verdict
        if channel:
            dec = umeb_decomposition(uf)
            rep = verify_decomposition(dec, trials=args.trials, seed=args.seed, tol=args.tol)
            lines += [
                f"mixture of {len(uf)} unitaries, weight {dec.orbit_weights[0]}",
                f"Choi deviation (Frobenius): {rep.choi_dev:.3e}",
                f"max apply deviation ({rep.trials} trials, seed {rep.seed}): {rep.apply_dev_max:.3e}",
                f"decomposition: {'PASS' if rep.verdict else 'FAIL'}",
            ]
            obj.update(asdict(rep))
            passed = passed and rep.verdict
    if family.d == 3:
        lines.append("note: p=3 is the special small case outside the main prime family")
    obj["tool_version"] = __version__
    if input_sha256 is not None:
        obj["input_sha256"] = input_sha256
    if not args.no_timestamp:
        obj["generated_at"] = datetime.now(timezone.utc).isoformat()
    if args.report:
        write_json(args.report, obj)
    _emit(args, lines, obj)
    return 0 if passed else 2


def cmd_generate(args) -> int:
    prime, h = _generator(args)
    if args.out:
        write_json(args.out, artifact_to_json(prime, h))
    return _check(args, build_residue_family(prime, h))


def cmd_umeb(args) -> int:
    prime, h = _generator(args)
    family = build_residue_family(prime, h)
    z = compute_phase(family.d, family.r)
    if args.out:
        write_json(args.out, artifact_to_json(prime, h, z))
    # the text report prints no digest, so only a certificate or a JSON report encodes the generator
    digest = text_hash(canonical_json(artifact_to_json(prime, h))) if args.report or args.format == "json" else None
    return _check(args, family, z, input_sha256=digest)


def _read_artifact(path: str) -> tuple[UmebPrime, HadamardMatrix, complex | None, str]:
    """(prime, h, z or None for a projection family, sha256 of the file's bytes); the bytes are dropped once parsed, and the JSON on return."""
    with open(path, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).hexdigest()
    try:  # decoded first: json.loads(bytes) would also read UTF-16 and UTF-32
        obj = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise MalformedArtifact(f"invalid JSON input: {exc}") from None
    del data
    return *artifact_from_json(obj), digest


def cmd_verify(args) -> int:
    prime, h, z, digest = _read_artifact(args.infile)
    return _check(args, build_residue_family(prime, h), z, input_sha256=digest)


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
    family = build_residue_family(*_generator(args))
    return _check(args, family, compute_phase(family.d, family.r), channel=True)


def cmd_hadamard(args) -> int:
    h = construct(args.order)
    obj = _hadamard_json(h)
    if args.out:
        write_json(args.out, obj)
    _emit(args, [f"Hadamard order {h.order}: H @ H.T = {h.order}*I verified"], obj)
    return 0


def cmd_demo_icosahedron(args) -> int:
    return _check(args, icosahedron_lines(), compute_phase(3, 1), channel=True)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 on usage errors (2 is a verdict failure)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_checks(sub) -> None:
    """The options of a command that checks something: its tolerance and its report's timestamp."""
    sub.add_argument("--eps", type=float, default=None, help="entrywise tolerance in (0, 1), default 1e-9 or $UMEB_TOL")
    sub.add_argument("--no-timestamp", action="store_true", help="omit generated_at from reports")
    sub.set_defaults(report=None)  # generate and demo-icosahedron write no report file


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
    um.add_argument("--cert", dest="report", default=None, help="write certificate JSON here")
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
        if "eps" in args:  # a checking command rejects a bad tolerance before any work
            args.tol = _tolerance(args)
        if "trials" in args:  # and a bad random probe
            _check_probe(args.trials, args.seed)
        return args.func(args)
    except UmebkitError as exc:
        print(f"umebkit: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"umebkit: i/o error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's "Unable to allocate ..." for an input too large for this machine
        print(f"umebkit: error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

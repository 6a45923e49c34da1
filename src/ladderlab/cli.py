"""Command-line front end.

Exit codes are a stable contract: 0 success/verified, 2 parse or validation
error (including a certificate that breaks the bound rules), 3 resource cap
exceeded (including a bound nested too deeply to walk), 4 cutoff-inconclusive
verification, 5 bound violation (an implementation bug, reported loudly).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from .bounds import BoundCertificate, check_base_indices, check_certificate, theorem_bound
from .errors import (
    BallTooLarge,
    BoundTooLarge,
    DomainTooLarge,
    FactorTooLarge,
    LadderLabError,
)
from .freeproduct import DEFAULT_BALL_CAP, FreeProduct
from .groups import load_group
from .ladder import DEFAULT_CUTOFF, SearchDomain, qf_stability_index, word_index
from .ramsey import ramsey_upper
from .report import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RESOURCE,
    run_verify,
    serialize_witness,
)
from .words import parse_word

RESOURCE_ERRORS = (BallTooLarge, DomainTooLarge, BoundTooLarge, FactorTooLarge)


def _load_context(paths: list[str]) -> FreeProduct:
    return FreeProduct(
        [load_group(Path(p), index=i) for i, p in enumerate(paths)]
    )


def _emit(args, payload: dict, human: str, csv_data=None) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif getattr(args, "csv", False) and csv_data is not None:
        header, row = csv_data
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerow(row)
        print(buf.getvalue(), end="")
    else:
        print(human)


def cmd_reduce(args) -> int:
    context = _load_context(args.groups)
    word = context.parse_word_text(args.text)
    rendered = word.render()
    _emit(
        args,
        {"input": args.text, "reduced": rendered, "length": len(word)},
        rendered,
        (["input", "reduced", "length"], [args.text, rendered, str(len(word))]),
    )
    return EXIT_OK


def cmd_ball(args) -> int:
    context = _load_context(args.groups)
    ball = context.ball(args.radius, cap=args.cap)
    listing = [w.render() for w in ball]
    human = "\n".join(listing + [f"count: {len(ball)}"])
    _emit(
        args,
        {"radius": args.radius, "count": len(ball), "members": listing},
        human,
        (["radius", "count"], [str(args.radius), str(len(ball))]),
    )
    return EXIT_OK


def cmd_index(args) -> int:
    context = _load_context(args.groups)
    word = parse_word(args.word)
    if args.factor is not None:
        factor = context.factor(args.factor)
        domain = SearchDomain.from_factor(factor)
        result = qf_stability_index(factor, word, cutoff=args.cutoff)
    else:
        ball = context.ball(args.radius, cap=args.cap)
        domain = SearchDomain.from_ball(ball)
        result = word_index(context, word, domain, cutoff=args.cutoff)
    payload = {
        "word": args.word,
        "domain": domain.kind,
        "index": result.index,
        "cutoff": args.cutoff,
        "cutoff_hit": result.cutoff_hit,
        "nodes_explored": result.nodes_explored,
        "witness": serialize_witness(result.witness),
    }
    human = (
        f"index {result.index} over {domain.kind}"
        f" (cutoff {args.cutoff}, hit: {str(result.cutoff_hit).lower()},"
        f" nodes {result.nodes_explored})"
    )
    _emit(
        args,
        payload,
        human,
        (
            ["word", "domain", "index", "cutoff_hit"],
            [args.word, domain.kind, str(result.index), str(result.cutoff_hit).lower()],
        ),
    )
    return EXIT_OK


def cmd_bound(args) -> int:
    context = _load_context(args.groups)
    word = parse_word(args.word)
    cert = theorem_bound(word, args.radius, context.factors)
    human = (
        f"bound {cert.bound_text()}\n"
        f"rewritten word: {cert.rewritten or '(empty)'}\n"
        f"blocks (ell): {cert.ell}"
    )
    _emit(
        args,
        cert.to_json(),
        human,
        (
            ["word", "radius", "ell", "bound"],
            [args.word, str(args.radius), str(cert.ell), cert.bound_text()],
        ),
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    context = _load_context(args.groups)
    word = parse_word(args.word)
    report = run_verify(
        context,
        word,
        args.radius,
        cutoff=args.cutoff,
        ball_cap=args.cap,
        force_bound=args.force_bound,
    )
    _emit(args, report.to_json(), report.human_table(), report.csv_row())
    return report.exit_code()


def cmd_check_cert(args) -> int:
    cert = BoundCertificate.from_json(json.loads(Path(args.file).read_text(encoding="utf-8")))
    factors = _load_context(args.groups).factors if args.groups else None
    payload = {"file": args.file, "format": cert.format, "ell": cert.ell, "valid": True,
               "error": None, "bases_searched": None}
    try:
        check_certificate(cert)
        if factors is not None:
            payload["bases_searched"] = check_base_indices(cert, factors)
    except (ValueError, TypeError, LadderLabError) as exc:
        payload.update(valid=False, error=str(exc))
    if payload["valid"]:
        human = f"valid {cert.format} certificate, ell {cert.ell}"
        if factors is not None:
            human += f", {payload['bases_searched']} base entries searched again"
    else:
        human = f"invalid {cert.format} certificate: {payload['error']}"
    _emit(args, payload, human)
    return EXIT_OK if payload["valid"] else EXIT_PARSE


def cmd_ramsey(args) -> int:
    value = ramsey_upper(args.colors, args.target)
    _emit(
        args,
        {"colors": args.colors, "target": args.target, "value": str(value)},
        str(value),
        (["colors", "target", "value"], [str(args.colors), str(args.target), str(value)]),
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ladderlab",
        description=(
            "Free-product normal forms, stability-ladder search, and "
            "Ramsey bound certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, groups=True, cap=False):
        if groups:
            p.add_argument(
                "--groups",
                nargs="+",
                required=True,
                metavar="SPEC",
                help="group spec files, one per factor in order",
            )
        p.add_argument("--json", action="store_true", help="emit a JSON document")
        p.add_argument("--csv", action="store_true", help="emit flat CSV rows")
        if cap:
            p.add_argument(
                "--cap",
                type=int,
                default=DEFAULT_BALL_CAP,
                help="resource cap for ball members",
            )

    p = sub.add_parser("reduce", help="reduce a raw letter sequence to normal form")
    p.add_argument("text", help="letters like 'f0:1 f1:2' (ε or empty for identity)")
    add_common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("ball", help="enumerate the ball of a given radius")
    p.add_argument("--radius", type=int, required=True)
    add_common(p, cap=True)
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser("index", help="brute-force stability index of a word")
    p.add_argument("--word", required=True, help="word-DSL string")
    p.add_argument("--radius", type=int, default=None, help="ball domain radius")
    p.add_argument(
        "--factor", type=int, default=None, help="search over one whole finite factor"
    )
    p.add_argument("--cutoff", type=int, default=DEFAULT_CUTOFF)
    add_common(p, cap=True)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("bound", help="compute a bound certificate")
    p.add_argument("--word", required=True)
    p.add_argument("--radius", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("verify", help="check that the bound dominates the search")
    p.add_argument("--word", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--cutoff", type=int, default=DEFAULT_CUTOFF)
    p.add_argument(
        "--force-bound",
        type=int,
        default=None,
        help="fault injection: replace the computed bound (testing only)",
    )
    add_common(p, cap=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("check-cert", help="check a bound certificate file against the rules")
    p.add_argument("file", help="a certificate document written by 'bound --json'")
    p.add_argument(
        "--groups",
        nargs="+",
        metavar="SPEC",
        help="also search every base entry's indices again in these factors",
    )
    p.add_argument("--json", action="store_true", help="emit a JSON document")
    p.set_defaults(func=cmd_check_cert)

    p = sub.add_parser("ramsey", help="diagonal Ramsey upper bound for pairs")
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--target", type=int, required=True)
    add_common(p, groups=False)
    p.set_defaults(func=cmd_ramsey)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "index" and (args.radius is None) == (args.factor is None):
        parser.error("index needs exactly one of --radius or --factor")
    try:
        return args.func(args)
    except RESOURCE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (LadderLabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RecursionError:
        print("error: a bound value is nested too deeply to walk", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    raise SystemExit(main())

"""Command line: build units, list skew generators, run the verifier.

Exit codes: 0 success, 2 the requested element is not invertible,
3 invalid input, 4 a verification suite reported failures, 5 an exact
arithmetic check failed (a result that does not certify).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from .algebra import (
    SkewGenerator,
    element_to_json,
    format_element,
    materialize,
    oracle_inverse,
    skew_basis,
)
from .cayley import TABLE_ORDERS, cayley_from_generator, cayley_transform, table_rows
from .groups import (
    FiniteGroup,
    Orientation,
    cyclic,
    dihedral4,
    load_group_table,
    orientation_from_generators,
    quaternion8,
    symmetric3,
)
from .parsing import parse_element
from .verify import run_suite

EXIT_OK = 0
EXIT_NOT_INVERTIBLE = 2
EXIT_INVALID_INPUT = 3
EXIT_VERIFICATION_FAILED = 4
EXIT_ARITHMETIC_ERROR = 5

_CATALOG = {"d4": dihedral4, "q8": quaternion8, "s3": symmetric3}

# A cyclic group is a dense order x order table; larger orders are refused.
MAX_CYCLIC_ORDER = 4096
_GROUP_HELP = f"C<n> (n <= {MAX_CYCLIC_ORDER}), D4, Q8, S3 or a group-table file"


class CliInputError(ValueError):
    """Invalid command-line input; maps to exit code 3."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        raise CliInputError(message)


def _check_cyclic_order(n: int) -> None:
    if n > MAX_CYCLIC_ORDER:
        raise CliInputError(f"cyclic order {n} is above the cap of {MAX_CYCLIC_ORDER}")


def resolve_group(name: str) -> FiniteGroup:
    """A catalog name (C<n>, D4, Q8, S3, case-insensitive) or a table file."""
    low = name.lower()
    if low in _CATALOG:
        return _CATALOG[low]()
    if re.fullmatch(r"c[0-9]+", low):
        n = int(low[1:])
        _check_cyclic_order(n)
        return cyclic(n)
    if Path(name).is_file():
        return load_group_table(name)
    raise CliInputError(
        f"unknown group {name!r}; expected C<n>, D4, Q8, S3 or a group-table file"
    )


def resolve_orientation(group: FiniteGroup, signs: str | None) -> Orientation | None:
    """Parse "x:-1,y:+1" style generator signs; None keeps the classical involution."""
    if signs is None:
        return None
    pairs = []
    for part in signs.split(","):
        name, sep, sgn = part.partition(":")
        name, sgn = name.strip(), sgn.strip()
        if not sep or not name or not sgn:
            raise CliInputError(f"bad orientation entry {part.strip()!r}; expected name:sign")
        if sgn in ("+1", "1"):
            sign = 1
        elif sgn == "-1":
            sign = -1
        else:
            raise CliInputError(f"sign for {name!r} must be +1 or -1, got {sgn!r}")
        pairs.append((name, sign))
    return orientation_from_generators(group, pairs)


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CliInputError(f"not a rational number: {text!r}") from None


def _print_fields(fields: list[tuple[str, str]], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(dict(fields), indent=2))
        return
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["field", "value"])
        writer.writerows(fields)
        print(buf.getvalue(), end="")
        return
    for key, value in fields:
        print(f"{key}: {value}")


def _print_rows(header: list[str], rows: list[list[str]], fmt: str) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        print(buf.getvalue(), end="")
        return
    print("| " + " | ".join(header) + " |")
    print("| " + " | ".join("---" for _ in header) + " |")
    for row in rows:
        print("| " + " | ".join(row) + " |")


def cmd_table(args) -> int:
    if args.orders is None:
        orders = list(TABLE_ORDERS)
    else:
        try:
            orders = [int(tok) for tok in args.orders.split(",") if tok.strip()]
        except ValueError:
            raise CliInputError(f"bad order list {args.orders!r}") from None
        if not orders:
            raise CliInputError("the order list is empty")
        for n in orders:
            _check_cyclic_order(n)
    rows = table_rows(orders)
    if args.format == "json":
        payload = []
        for n, result in rows:
            entry: dict = {"order": n, "invertible": result is not None}
            if result is not None:
                entry["unit"] = element_to_json(result.unit)
            payload.append(entry)
        print(json.dumps({"rows": payload}, indent=2))
        return EXIT_OK
    cells = [
        [str(n), "not invertible" if result is None else format_element(result.unit)]
        for n, result in rows
    ]
    _print_rows(["order", "unit"], cells, args.format)
    return EXIT_OK


def _single_group_element(group: FiniteGroup, text: str) -> int:
    elem = parse_element(text, group)
    support = elem.support()
    if len(support) != 1 or elem.coefficient(support[0]) != 1:
        raise CliInputError(f"{text!r} is not a single group element")
    return support[0]


def cmd_unit(args) -> int:
    group = resolve_group(args.group)
    orientation = resolve_orientation(group, args.orient)
    q = _parse_rational(args.q)
    if args.kind == "generic":
        beta = q * parse_element(args.element, group)
        result = cayley_transform(beta, orientation)
    else:
        sg = SkewGenerator(args.kind, group, _single_group_element(group, args.element))
        result = cayley_from_generator(sg, q, orientation)
    if result is None:
        print("not invertible: 1 + beta is a zero divisor", file=sys.stderr)
        return EXIT_NOT_INVERTIBLE
    if args.format == "json":
        print(json.dumps({
            "group": group.name,
            "method": result.method,
            "beta": element_to_json(result.beta),
            "inverse_of_one_plus_beta": element_to_json(result.inverse_of_one_plus_beta),
            "unit": element_to_json(result.unit),
        }, indent=2))
        return EXIT_OK
    _print_fields([
        ("group", group.name),
        ("method", result.method),
        ("beta", format_element(result.beta)),
        ("inverse of 1 + beta", format_element(result.inverse_of_one_plus_beta)),
        ("unit", format_element(result.unit)),
    ], args.format)
    return EXIT_OK


def cmd_skew_basis(args) -> int:
    group = resolve_group(args.group)
    orientation = resolve_orientation(group, args.orient)
    basis = skew_basis(group, orientation)
    if args.format == "json":
        payload = [
            {"kind": sg.kind, "base": sg.base_name,
             "element": element_to_json(materialize(sg))}
            for sg in basis
        ]
        print(json.dumps({"group": group.name, "generators": payload}, indent=2))
        return EXIT_OK
    rows = [[sg.kind, sg.base_name, format_element(materialize(sg))] for sg in basis]
    _print_rows(["kind", "base", "element"], rows, args.format)
    return EXIT_OK


def cmd_inverse(args) -> int:
    group = resolve_group(args.group)
    elem = parse_element(args.element, group)
    inverse = oracle_inverse(elem)
    if inverse is None:
        print("not invertible", file=sys.stderr)
        return EXIT_NOT_INVERTIBLE
    if args.format == "json":
        print(json.dumps({
            "group": group.name,
            "element": element_to_json(elem),
            "inverse": element_to_json(inverse),
        }, indent=2))
        return EXIT_OK
    _print_fields([
        ("group", group.name),
        ("element", format_element(elem)),
        ("inverse", format_element(inverse)),
    ], args.format)
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suite(args.suite)
    failed = [r for r in results if not r.passed]
    if args.format == "json":
        print(json.dumps({
            "suite": args.suite,
            "checks": [{"label": r.label, "passed": r.passed} for r in results],
            "passed": len(results) - len(failed),
            "failed": len(failed),
        }, indent=2))
    elif args.format == "csv":
        _print_rows(["label", "passed"], [[r.label, str(r.passed).lower()] for r in results],
                    "csv")
    else:
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'}  {r.label}")
        print(f"{len(results) - len(failed)} passed, {len(failed)} failed")
    return EXIT_VERIFICATION_FAILED if failed else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="cayleyunits",
        description="Exact Cayley unitary elements in rational group algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p) -> None:
        p.add_argument("--format", choices=("md", "csv", "json"), default="md",
                       help="output format (default md)")

    p = sub.add_parser("table", help="units for z + z^-1 in cyclic groups of even order")
    p.add_argument("--orders", help="comma-separated even orders, at most "
                   f"{MAX_CYCLIC_ORDER} (default " + ",".join(map(str, TABLE_ORDERS)) + ")")
    add_format(p)
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("unit", help="build one Cayley unit from a skew generator")
    p.add_argument("--group", required=True, help=_GROUP_HELP)
    p.add_argument("--orient", help='generator signs, e.g. "x:+1,y:-1" (default classical)')
    p.add_argument("--kind", choices=("L1", "L2", "L3", "generic"), required=True,
                   help="shape of beta: L1 = q*(g - g^-1), L2 = q*g, L3 = g + g^-1, "
                        "generic = q times any skew expression")
    p.add_argument("--element", required=True,
                   help="a group element (or any skew expression for --kind generic); "
                        "a leading minus sign is allowed, as in --element -x")
    p.add_argument("--q", default="1", help="rational scalar (default 1)")
    add_format(p)
    p.set_defaults(handler=cmd_unit)

    p = sub.add_parser("skew-basis", help="spanning set of the skew-symmetric elements")
    p.add_argument("--group", required=True, help=_GROUP_HELP)
    p.add_argument("--orient", help='generator signs, e.g. "x:+1,y:-1" (default classical)')
    add_format(p)
    p.set_defaults(handler=cmd_skew_basis)

    p = sub.add_parser("inverse", help="exact inverse of an algebra element, if any")
    p.add_argument("--group", required=True, help=_GROUP_HELP)
    p.add_argument("--element", required=True,
                   help="an algebra-element expression; a leading minus sign is "
                        "allowed, as in --element -x")
    add_format(p)
    p.set_defaults(handler=cmd_inverse)

    p = sub.add_parser("verify", help="run the exactness suites")
    p.add_argument("--suite", default="all",
                   choices=("all", "involutions", "sequences", "table", "examples",
                            "counterexample"))
    add_format(p)
    p.set_defaults(handler=cmd_verify)
    return parser


def _attach_element_values(argv: list[str]) -> list[str]:
    """Join ``--element`` with a following value that starts with one minus sign.

    argparse reads a lone "-x" as an unknown option; "--element=-x" is the
    same request in the form it accepts.
    """
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if tok == "--element" and nxt.startswith("-") and not nxt.startswith("--"):
            out.append(f"--element={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_element_values(sys.argv[1:] if argv is None else argv))
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARITHMETIC_ERROR


if __name__ == "__main__":
    sys.exit(main())

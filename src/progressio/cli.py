"""Command-line front end.

Subcommands: construct, certify, search, count, factor, selftest. Exit
codes separate the failure families: 0 success, 1 the mathematics said
no (no admissible exponent, field too small, a certification clause
failed), 2 the invocation was malformed. Outputs are bit-deterministic
for a fixed argv and seed; seeded commands print the seed in a header
comment so published artifacts can be replayed.
"""

from __future__ import annotations

import argparse
import random
import sys
from functools import cache

from .construct import (
    build_stable,
    certificate_from_text,
    certificate_to_text,
)
from .dirichlet import _root_sieve, density_scan, search_constructed, search_exhaustive
from .errors import MathError, ParseError, UsageError
from .factor import count_irreducibles, factorize, is_irreducible
from .ff import PrimeField
from .galois import certify_sn
from .oracle import _monic_polys, enumerate_irreducibles, naive_factor, naive_mul
from .poly import Poly, parse_poly


def _emit(text: str, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_construct(args) -> int:
    field = PrimeField(args.p)
    a = parse_poly(field, args.a)
    b = parse_poly(field, args.b)
    cert = build_stable(a, b, args.n, args.seed)
    _emit(f"# seed: {args.seed}\n" + certificate_to_text(cert), args.output)
    return 0


def _read_cert(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return certificate_from_text(fh.read())
    except UnicodeDecodeError as exc:
        raise ParseError(f"certificate {path} is not UTF-8 text: {exc}") from exc


def _cmd_certify(args) -> int:
    _emit(certify_sn(_read_cert(args.cert)).to_text(), args.output)
    return 0


def _cmd_search(args) -> int:
    field = PrimeField(args.p)
    a = parse_poly(field, args.a)
    b = parse_poly(field, args.b)
    if args.strategy == "constructed":
        report = search_constructed(a, b, args.n, args.max_hits)
    else:
        report = search_exhaustive(a, b, args.n)
    body = report.to_csv() if args.format == "csv" else report.to_detail_text()
    _emit(f"# seed: {args.seed}\n" + body, args.output)
    return 0


def _cmd_count(args) -> int:
    _emit(density_scan(_read_cert(args.cert)).to_csv(), args.output)
    return 0


def _cmd_factor(args) -> int:
    field = PrimeField(args.p)
    f = parse_poly(field, args.f)
    _emit(factorize(f, args.seed).to_text() + "\n", args.output)
    return 0


def _selftest_suites(level: str):
    degree_cap = 4 if level == "quick" else 6
    moduli = (2,) if level == "quick" else (2, 3)
    yield "necklace counts match enumeration", lambda: all(
        count_irreducibles(2, n) == len(enumerate_irreducibles(2, n))
        for n in range(1, degree_cap + 1)
    )

    def factor_agreement() -> bool:
        # Every polynomial of degree 1 to the cap: each monic one times each unit.
        for p in moduli:
            field = PrimeField(p)
            polys = (m * lead for n in range(1, degree_cap + 1)
                     for m in _monic_polys(field, n) for lead in range(1, p))
            for f in polys:
                ours = factorize(f)
                ref = naive_factor(f)
                if ours.unit != ref.unit or set(ours.factors) != set(ref.factors):
                    return False
                if ours.expand() != f:
                    return False
        return True

    yield "factorization agrees with trial division", factor_agreement

    def search_count(p: int, n: int) -> bool:
        # a = X+1, b = 1: c -> a + c permutes the degree-n polynomials when n >= 2.
        r = search_exhaustive(Poly(PrimeField(p), [1, 1]), Poly.one(PrimeField(p)), n)
        irreducible = (p - 1) * count_irreducibles(p, n)
        return (len(r.hits), r.scanned) == (irreducible, (p - 1) * p**n)

    yield "exhaustive search agrees with the necklace count", lambda: all(
        search_count(p, n) for p in moduli for n in range(2, degree_cap + 1))

    yield "irreducibility test agrees with the sieve", lambda: all(
        {f for f in _monic_polys(PrimeField(p), n) if is_irreducible(f)}
        == set(enumerate_irreducibles(p, n))
        for p in moduli for n in range(1, degree_cap + 1)
    )

    def mul_agreement() -> bool:
        rng = random.Random(7)
        rounds = 100 if level == "quick" else 1000
        for _ in range(rounds):
            p = rng.choice((2, 3, 101, (1 << 61) - 1))
            field = PrimeField(p)
            f = Poly(field, [rng.randrange(p) for _ in range(rng.randrange(1, 151))])
            g = Poly(field, [rng.randrange(p) for _ in range(rng.randrange(1, 151))])
            if f * g != naive_mul(f, g):
                return False
        return True

    yield "product kernel agrees with convolution", mul_agreement

    def roundtrip() -> bool:
        field = PrimeField(13)
        a = parse_poly(field, "X+1")
        b = parse_poly(field, "1")
        cert = build_stable(a, b, 9, 0)
        replay = certificate_from_text(certificate_to_text(cert))
        return certify_sn(replay).n == 9

    yield "certificate round-trip certifies", roundtrip

    def sieve_agreement(p: int, n: int) -> bool:
        field = PrimeField(p)
        cert = build_stable(parse_poly(field, "X+1"), Poly.one(field), n, 0)
        bc = cert.b * cert.c
        marked = _root_sieve(list(cert.a.coeffs), list(bc.coeffs), p)
        members = [cert.a + alpha * bc for alpha in range(1, p)]
        irreducible = [is_irreducible(m) for m in members]
        return density_scan(cert, workers=1).count == sum(irreducible) and not any(
            rooted and (irr or all(map(m, range(p))))
            for m, irr, rooted in zip(members, irreducible, marked[1:]))

    cases = ((101, 7),) if level == "quick" else ((101, 7), (1009, 9))
    yield "root sieve agrees with the irreducibility test", lambda: all(
        sieve_agreement(p, n) for p, n in cases)


def _cmd_selftest(args) -> int:
    failures = 0
    for name, suite in _selftest_suites(args.level):
        ok = suite()
        print(f"{'ok' if ok else 'FAIL'}  {name}")
        if not ok:
            failures += 1
    return 1 if failures else 0


@cache  # built on first use, then shared: parse_args leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="progressio",
        description=(
            "Search for irreducible polynomials in arithmetic progressions "
            "over prime fields, and certify the constructions behind the search."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pencil_args(sp):
        sp.add_argument("-p", type=int, required=True, help="prime modulus")
        sp.add_argument("-a", required=True, help="polynomial a (text grammar)")
        sp.add_argument("-b", required=True, help="polynomial b (text grammar)")
        sp.add_argument("-n", type=int, required=True, help="target degree")

    header_seed = "only labels the '# seed:' header; the output is deterministic"
    sp = sub.add_parser("construct", help="build and print a certificate")
    add_pencil_args(sp)
    sp.add_argument("--seed", type=int, default=0, help=header_seed)
    sp.add_argument("-o", "--output")
    sp.set_defaults(fn=_cmd_construct)

    sp = sub.add_parser("certify", help="replay a certificate file")
    sp.add_argument("--cert", required=True)
    sp.add_argument("-o", "--output")
    sp.set_defaults(fn=_cmd_certify)

    sp = sub.add_parser("search", help="search the progression for members")
    add_pencil_args(sp)
    sp.add_argument(
        "--strategy", choices=("constructed", "exhaustive"), default="constructed"
    )
    sp.add_argument("--max-hits", type=int, default=16)
    sp.add_argument("--seed", type=int, default=0, help=header_seed)
    sp.add_argument("--format", choices=("csv", "structured-text"), default="csv")
    sp.add_argument("-o", "--output")
    sp.set_defaults(fn=_cmd_search)

    sp = sub.add_parser("count", help="exhaustive density scan of a certificate")
    sp.add_argument("--cert", required=True)
    sp.add_argument("-o", "--output")
    sp.set_defaults(fn=_cmd_count)

    sp = sub.add_parser("factor", help="factor a polynomial over F_p")
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("-f", required=True, help="polynomial (text grammar)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("-o", "--output")
    sp.set_defaults(fn=_cmd_factor)

    sp = sub.add_parser("selftest", help="run the built-in oracle cross-checks")
    sp.add_argument("--level", choices=("quick", "full"), default="quick")
    sp.set_defaults(fn=_cmd_selftest)

    return parser


def run(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except MathError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())

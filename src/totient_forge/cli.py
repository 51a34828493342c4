"""Command-line interface.

Commands: solve, enumerate, count, sequence, search-r, verify-claims,
totient, factor. All numbers cross the boundary as decimal strings. Exit
codes: 0 success, 1 claim/verification failure, 2 usage error (a bad
argument, or a path that cannot be read or written).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .arith import FactoringBoundExceeded, Factorization, factorize, totient
from .claims import LEVELS, run_claims
from .constructions import (
    MIN_SOLUTIONS,
    ConstructionError,
    serialize_solution,
    solution_to_dict,
    solve,
    verify_solution,
)
from .search import (CACHE_ENV, FERMAT_PRIMES, LimitExhausted, PairSearchTask, Parity,
                     default_cache_dir, search_pair_r)
from .sequences import SequenceVariant, generate_sequence, sequence_product_magnitude
from .sieve_enum import RangeTooLarge, enumerate_solutions, solution_count_table

USAGE_ERROR = 2
_FORMATS = ("text", "json", "csv")


def _decimal(text: str) -> int:
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"expected a decimal integer, got {text!r}")
    return int(text)


def _positive_decimal(text: str) -> int:
    value = _decimal(text)
    if value < 1:
        raise argparse.ArgumentTypeError("value must be >= 1")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="totient-forge",
        description="Constructions, searches and brute-force enumeration for "
        "totient(n+k) = M*totient(n), M = 1 or 2.",
        epilog=f"Claim ids C1..C8 are frozen; cache directory via --cache-dir or ${CACHE_ENV}.",
    )
    parser.add_argument("--cache-dir", help="cache directory (overrides the environment)")
    parser.add_argument("--format", choices=_FORMATS, default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="list verified solutions for (k, M)")
    p.add_argument("--k", type=_positive_decimal, required=True)
    p.add_argument("--M", type=int, choices=(1, 2), required=True)
    p.add_argument("--k-factors", help="factorization of k as 'p^e * p^e' (mandatory above 10^18)")
    p.add_argument("--with-witness-search", action="store_true",
                   help="also scan divisors of k for the two special-case propositions")

    p = sub.add_parser("enumerate", help="exhaustive solutions n <= max (sieve oracle)")
    p.add_argument("--k", type=_positive_decimal, required=True)
    p.add_argument("--M", type=int, choices=(1, 2), required=True)
    p.add_argument("--max", type=_positive_decimal, required=True)

    p = sub.add_parser("count", help="solution counts n <= max for every k <= k-max (sieve oracle)")
    p.add_argument("--k-max", type=_positive_decimal, required=True)
    p.add_argument("--M", type=int, choices=(1, 2), required=True)
    p.add_argument("--max", type=_positive_decimal, required=True)

    p = sub.add_parser("sequence", help="generate a bundled prime sequence")
    p.add_argument("--variant", required=True,
                   choices=[v.value for v in SequenceVariant])
    p.add_argument("--bound", type=_positive_decimal, required=True)

    p = sub.add_parser("search-r", help="smallest r with a*r+1 and b*r+1 both prime")
    p.add_argument("--a", type=_positive_decimal)
    p.add_argument("--b", type=_positive_decimal)
    p.add_argument("--m", type=int, choices=range(5),
                   help="Fermat shorthand: a = 2^(2^m), b = 2^(2^m)+1")
    p.add_argument("--start", type=_positive_decimal, default=1)
    p.add_argument("--even-only", action="store_true")
    p.add_argument("--limit", type=_positive_decimal, help="give-up bound on r")

    p = sub.add_parser("verify-claims", help="run the claim verification suite")
    p.add_argument("--level", choices=LEVELS, default="quick")
    p.add_argument("--csv", help="also write the machine-readable report here")

    p = sub.add_parser("totient", help="Euler's totient of N")
    p.add_argument("n", type=_positive_decimal)
    p.add_argument("--k-factors", help="factorization hint for N")

    p = sub.add_parser("factor", help="factor N")
    p.add_argument("n", type=_positive_decimal)

    return parser


def _parse_factors(text: str | None, value: int | None = None) -> Factorization | None:
    if text is None:
        return None
    f = Factorization.parse(text)
    if value is not None and f.value != value:
        raise ValueError(f"--k-factors product {f.value} does not match {value}")
    return f


def _emit_solutions(solutions, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps([solution_to_dict(s) for s in solutions], sort_keys=True, indent=2))
    elif fmt == "csv":
        print("k,M,n,method,witnesses,n_factors")
        for s in solutions:
            d = solution_to_dict(s)
            witnesses = ";".join(d["witnesses"])
            print(f'{d["k"]},{d["M"]},{d["n"]},{d["method"]},"{witnesses}","{d["n_factors"]}"')
    else:
        for s in solutions:
            print(serialize_solution(s))


def cmd_solve(args, cache_dir: Path) -> int:
    k_fact = _parse_factors(args.k_factors, args.k)
    solutions = solve(args.k, args.M, k_fact=k_fact, with_witness_search=args.with_witness_search)
    _emit_solutions(solutions, args.format)
    if not all(verify_solution(s) for s in solutions):
        return 1
    return 0 if len(solutions) >= MIN_SOLUTIONS[(args.M, args.k % 2)] else 1


def cmd_enumerate(args, cache_dir: Path) -> int:
    report = enumerate_solutions(args.k, args.M, args.max)
    if args.format == "json":
        print(json.dumps({
            "k": str(report.k), "M": report.M, "limit": str(report.limit),
            "solutions": [str(n) for n in report.solutions],
        }, sort_keys=True, indent=2))
    else:
        # CSV is the report's canonical serialization; "text" emits it too
        sys.stdout.write(report.to_csv())
    return 0


def cmd_count(args, cache_dir: Path) -> int:
    table = solution_count_table(args.k_max, args.M, args.max)
    if args.format == "json":
        print(json.dumps({
            "k_max": str(table.k_max), "M": table.M, "limit": str(table.limit),
            "counts": {str(k): c for k, c in table.counts.items()},
            "min_count": table.min_count,
            "min_achievers": [str(k) for k in table.min_achievers],
        }, sort_keys=True, indent=2))
    else:
        # CSV is the table's canonical serialization; "text" emits it too
        sys.stdout.write(table.to_csv())
    return 0


def cmd_sequence(args, cache_dir: Path) -> int:
    variant = SequenceVariant(args.variant)
    seq = generate_sequence(variant, args.bound)
    mantissa, exponent = sequence_product_magnitude(seq)
    if args.format == "json":
        print(json.dumps({
            "variant": variant.value, "bound": str(seq.search_bound),
            "terms": [str(t) for t in seq.terms],
            "aux": [str(a) for a in seq.aux],
            "product": str(seq.product),
            "magnitude": f"{mantissa:.2f}e{exponent}",
        }, sort_keys=True, indent=2))
    elif args.format == "csv":
        print("term,aux" if variant.uses_aux else "term")
        for i, term in enumerate(seq.terms):
            print(f"{term},{seq.aux[i]}" if variant.uses_aux else str(term))
    else:
        print(f"variant={variant.value} bound={seq.search_bound} "
              f"terms={len(seq.terms)} product~{mantissa:.2f}e{exponent}")
        for i, term in enumerate(seq.terms):
            print(f"{term}\t{seq.aux[i]}" if variant.uses_aux else str(term))
    return 0


def cmd_search_r(args, cache_dir: Path) -> int:
    if args.m is not None:
        if args.a is not None or args.b is not None:
            raise ValueError("--m replaces --a/--b; do not combine them")
        a, b = FERMAT_PRIMES[args.m] - 1, FERMAT_PRIMES[args.m]
    elif args.a is None or args.b is None:
        raise ValueError("either --m or both --a and --b are required")
    else:
        a, b = args.a, args.b
    task = PairSearchTask(
        a=a, b=b, start=args.start,
        parity=Parity.EVEN_ONLY if args.even_only else Parity.ANY, limit=args.limit,
    )
    result = search_pair_r(task, cache_dir=cache_dir)
    if args.format == "json":
        print(json.dumps({
            "r": str(result.r), "p1": str(result.p1), "p2": str(result.p2),
            "verdicts": [v.verdict.value for v in result.verdicts],
            "candidates_tested": result.candidates_tested,
        }, sort_keys=True, indent=2))
    else:
        print(f"r={result.r}")
        print(f"p1={result.p1} {result.verdicts[0].verdict.value}")
        print(f"p2={result.p2} {result.verdicts[1].verdict.value}")
        print(f"candidates_tested={result.candidates_tested}")
    return 0


def cmd_verify_claims(args, cache_dir: Path) -> int:
    # imported here, as run_claims imports the pool: other commands never load it
    from concurrent.futures.process import BrokenProcessPool

    # an unusable report path fails before the claims run, not after them
    csv_path = cache_dir / f"claims_{args.level}.csv" if args.csv is None else Path(args.csv)
    if args.csv is None:
        cache_dir.mkdir(parents=True, exist_ok=True)
    elif not csv_path.parent.is_dir():
        raise FileNotFoundError(f"no directory for the CSV report {csv_path}")
    try:
        reports = run_claims(args.level, cache_dir)
    except BrokenProcessPool as exc:
        print(f"error: a claim process died ({exc})", file=sys.stderr)
        return 1
    failed = [r for r in reports if r.status == "Fail"]
    csv_text = "claim,status,runtime_s,anchor,evidence\n" + "\n".join(
        r.csv_row() for r in reports
    ) + "\n"
    # with --format csv stdout carries the CSV alone
    if args.format == "csv":
        sys.stdout.write(csv_text)
    else:
        width = max(len(r.anchor) for r in reports)
        for r in reports:
            print(f"{r.claim_id}  {r.status:7s} {r.runtime:8.2f}s  {r.anchor:{width}s}")
            print(f"    {r.evidence}")
        print(f"{len(reports) - len(failed)}/{len(reports)} claims passed")
    with open(csv_path, "w", encoding="utf-8") as handle:
        handle.write(csv_text)
    print(f"csv report written to {csv_path}", file=sys.stderr if args.format == "csv" else sys.stdout)
    return 1 if failed else 0


def cmd_totient(args, cache_dir: Path) -> int:
    hint = _parse_factors(args.k_factors, args.n)
    value = totient(factorize(args.n, hint=hint))
    if args.format == "json":
        print(json.dumps({"n": str(args.n), "totient": str(value)}, sort_keys=True))
    else:
        print(value)
    return 0


def cmd_factor(args, cache_dir: Path) -> int:
    f = factorize(args.n)
    if args.format == "json":
        print(json.dumps({
            "n": str(args.n),
            "factors": [[str(p), e] for p, e in f.factors],
        }, sort_keys=True))
    else:
        print(str(f))
    return 0


# command -> (handler, the --format values it prints)
_COMMANDS = {
    "solve": (cmd_solve, _FORMATS),
    "enumerate": (cmd_enumerate, _FORMATS),
    "count": (cmd_count, _FORMATS),
    "sequence": (cmd_sequence, _FORMATS),
    "search-r": (cmd_search_r, ("text", "json")),
    "verify-claims": (cmd_verify_claims, ("text", "csv")),
    "totient": (cmd_totient, ("text", "json")),
    "factor": (cmd_factor, ("text", "json")),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command, formats = _COMMANDS[args.command]
    if args.format not in formats:
        parser.error(f"{args.command} does not support --format {args.format}"
                     f" (supported: {', '.join(formats)})")
    cache_dir = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    try:
        return command(args, cache_dir)
    except (ValueError, FactoringBoundExceeded, RangeTooLarge, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ConstructionError, LimitExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

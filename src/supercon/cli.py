"""Command-line interface.

Five subcommands: `verify` drives the congruence sweep and emits one record
per report; `gamma`, `pfq`, `eta`, and `identity` expose the underlying
evaluators for one-off queries.  Exit codes: 0 when everything checked out,
1 when at least one congruence failed to hold, 2 for usage or validation
problems and for a `verify` run that checked nothing, 3 for a `verify` run
with no violation but at least one checker error row, and for a residue on
which the two series routes disagreed.  Rationals are written num/den with
an optional sign.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from .arith import is_prime, primes_in, reduce_mod
from .congruences import CATALOG, SweepConfig, _series_class, _unlimited_int_str, sweep
from .errors import OracleMismatch, SuperconError
from .eta import eta_product_qexp, expansion_updates
from .gamma import gamma_p
from .hyper import GSParams, PfqSpec, gs_lhs, gs_rhs, pfq_exact

#: Default --max-work ceiling: terms for pfq and identity, coefficient
#: updates for eta.
DEFAULT_MAX_WORK = 10**8

def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"not a rational: {text!r} ({e})") from None


def _parse_rational_list(text: str) -> tuple:
    return tuple(_parse_rational(t) for t in text.split(",") if t.strip())


def _parse_primes(text: str) -> tuple:
    """`A..B` (inclusive, both endpoints prime) or a comma list of primes,
    which SweepConfig.normalized() checks."""
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        lo, hi = int(lo_s), int(hi_s)
        for endpoint in (lo, hi):
            if not is_prime(endpoint):
                raise ValueError(
                    f"prime range endpoints must be prime, got {endpoint}"
                )
        if lo > hi:
            raise ValueError(f"empty prime range {text}")
        return primes_in(lo, hi)
    return tuple(int(t) for t in text.split(",") if t.strip())


def _params_text(params: dict) -> str:
    return ";".join(f"{k}={v}" for k, v in params.items())


def _render(reports, fmt: str) -> str:
    """Text for a non-empty list of reports; csv columns are record()'s keys."""
    rows = [r.record() for r in reports]
    if fmt == "json":
        return "".join(json.dumps(row) + "\n" for row in rows)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0])
        for row in rows:
            row["params"] = _params_text(row["params"])
            row["holds"] = "true" if row["holds"] else "false"
            writer.writerow(row.values())
        return buf.getvalue()
    lines = []
    for r in reports:
        where = f"mod {r.p}^{r.k}" if r.k else "exact"
        head = "ok  " if r.holds else "FAIL"
        ps = _params_text(r.params)
        middle = f" [{ps}]" if ps else ""
        lines.append(
            f"{head} {r.id} p={r.p}{middle} {where}: "
            f"lhs={r.lhs} rhs={r.rhs} ({r.elapsed_ms}ms)"
        )
    held = sum(1 for r in reports if r.holds)
    lines.append(f"{held}/{len(reports)} hold")
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    ids = []
    for chunk in args.id or []:
        ids.extend(t.strip() for t in chunk.split(",") if t.strip())
    cfg = SweepConfig(
        ids=tuple(ids) or CATALOG,
        primes=_parse_primes(args.primes),
        alphas="all" if args.alpha == "all" else _parse_rational_list(args.alpha),
        seed=args.seed,
        samples=args.samples,
        pairs=args.pairs,
        jobs=args.jobs,
    ).normalized()
    reports = sweep(cfg)
    if not reports:
        primes = ",".join(map(str, cfg.primes))
        print(
            f"nothing checked: ids {','.join(cfg.ids)} at primes {primes}",
            file=sys.stderr,
        )
        return 2
    text = _render(reports, args.format)
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as e:
            print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    if any(not r.holds and "error" not in r.params for r in reports):
        return 1
    return 3 if any("error" in r.params for r in reports) else 0


def cmd_gamma(args) -> int:
    x = _parse_rational(args.x)
    rep = reduce_mod(x, args.p, args.k).value
    value = gamma_p(x, args.p, args.k)
    print(f"{value.value} (m={rep})")
    return 0


def cmd_pfq(args) -> int:
    if (args.p is None) != (args.k is None):
        print("error: --p and --k must be given together", file=sys.stderr)
        return 2
    spec = PfqSpec(
        _parse_rational_list(args.upper),
        _parse_rational_list(args.lower),
        _parse_rational(args.z),
        args.n,
    )
    if _refuse_terms(args):
        return 2
    exact = pfq_exact(spec)
    text = f"{exact}\n"
    if args.p is not None:
        residue = _series_class(spec, args.p, args.k, exact)
        text += f"{residue.value} (mod {residue.modulus})\n"
    sys.stdout.write(text)
    return 0


def cmd_eta(args) -> int:
    if args.limit < 1:
        print("error: --limit must be at least 1", file=sys.stderr)
        return 2
    # Every pass rewrites all (limit + 1) // 2 coefficients of Y, so the
    # update count is at least 2 * limit; a limit above W is refused
    # before its factor lists are built.
    if args.limit > args.max_work or expansion_updates(args.limit) > args.max_work:
        print(
            f"error: expanding to q^{args.limit} exceeds --max-work "
            f"{args.max_work}",
            file=sys.stderr,
        )
        return 2
    series = eta_product_qexp(args.limit)
    if args.coeff is not None:
        print(series.coefficient(args.coeff))
    else:
        print(", ".join(str(series.coefficient(i)) for i in range(1, args.limit + 1)))
    return 0


def cmd_identity(args) -> int:
    if _refuse_terms(args):
        return 2
    g = GSParams(
        _parse_rational(args.a),
        _parse_rational(args.b),
        _parse_rational(args.d),
        args.n,
    )
    lhs, rhs = gs_lhs(g), gs_rhs(g)
    equal = lhs == rhs
    print(f"{lhs} = {rhs}, {'equal' if equal else 'not equal'}")
    return 0 if equal else 1


def _add_max_work(parser, refuses: str) -> None:
    parser.add_argument(
        "--max-work",
        type=int,
        default=DEFAULT_MAX_WORK,
        metavar="W",
        help=f"refuse {refuses} (default {DEFAULT_MAX_WORK})",
    )


def _refuse_terms(args) -> bool:
    """Print the refusal and return True when --n exceeds --max-work."""
    if args.n <= args.max_work:
        return False
    print(f"error: {args.n} terms exceeds --max-work {args.max_work}", file=sys.stderr)
    return True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supercon",
        description="Check truncated hypergeometric congruences and poke at "
        "the evaluators behind them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run congruence checks over a prime range")
    v.add_argument(
        "--id",
        action="append",
        metavar="ID",
        help="congruence id (repeatable, comma lists allowed); "
        "default: the whole catalog",
    )
    v.add_argument(
        "--primes",
        default="5..13",
        metavar="A..B",
        help="inclusive range with prime endpoints, or a comma list "
        "(default 5..13)",
    )
    v.add_argument(
        "--alpha",
        default="all",
        metavar="POLICY",
        help="'all' walks the whole window at each prime; or give a comma "
        "list of rationals (inadmissible entries are skipped per prime)",
    )
    v.add_argument("--format", choices=("json", "csv", "text"), default="text")
    v.add_argument("--out", metavar="PATH", help="write output to PATH")
    v.add_argument("--jobs", type=int, default=1, metavar="N")
    v.add_argument("--seed", type=int, default=0, metavar="S")
    v.add_argument(
        "--samples",
        type=int,
        default=100,
        metavar="N",
        help="sample count for the randomized suites (default 100)",
    )
    v.add_argument(
        "--pairs",
        type=int,
        default=50,
        metavar="N",
        help="(u, v) draws per prime for ff-3.2 (default 50)",
    )
    v.set_defaults(func=cmd_verify)

    g = sub.add_parser("gamma", help="one p-adic gamma value")
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--x", required=True, metavar="RATIONAL")
    g.set_defaults(func=cmd_gamma)

    f = sub.add_parser("pfq", help="truncated hypergeometric sum")
    f.add_argument("--upper", required=True, metavar="LIST")
    f.add_argument("--lower", required=True, metavar="LIST")
    f.add_argument("--z", default="1", metavar="RATIONAL")
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--p", type=int, help="also reduce mod p^k")
    f.add_argument("--k", type=int)
    _add_max_work(f, "an --n above W")
    f.set_defaults(func=cmd_pfq)

    e = sub.add_parser("eta", help="eta-product q-expansion coefficients")
    e.add_argument("--limit", type=int, required=True)
    e.add_argument("--coeff", type=int, help="print only this coefficient")
    _add_max_work(e, "expansions needing more than W coefficient updates")
    e.set_defaults(func=cmd_eta)

    i = sub.add_parser("identity", help="both sides of the terminating identity")
    i.add_argument("--a", required=True, metavar="RATIONAL")
    i.add_argument("--b", required=True, metavar="RATIONAL")
    i.add_argument("--d", required=True, metavar="RATIONAL")
    i.add_argument("--n", type=int, required=True)
    _add_max_work(i, "an --n above W")
    i.set_defaults(func=cmd_identity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    _unlimited_int_str()  # exact values can run past CPython's 4300 digits
    try:
        return args.func(args)
    except OracleMismatch as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    except (SuperconError, ValueError, ZeroDivisionError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

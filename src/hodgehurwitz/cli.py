"""Command-line surface: single values, tables, and verification suites.

Four subcommands:

  hodge    one linear Hodge integral <tau_{n_1}..tau_{n_ell} lambda_j>
  hurwitz  one simple Hurwitz number h_{g,mu}
  table    a deterministic file (csv or json) of Hurwitz numbers
  verify   the cross-validation suites; exit 0 iff every check passes

All values print as exact rationals ("num/den", or "n" for integers).
Identical invocations produce byte-identical output.  Every error path
exits nonzero with a single-line reason on stderr.

Each call solves only the Hodge-table levels its answers need, once.
If the environment variable HURWITZ_REC_CACHE names a directory, each
method's table persists there as one JSON file (see ``Tables``).
"""

import argparse
import os
import sys
from typing import Optional

# Every command formats rationals; each runner below imports the other
# layers it calls (the verify suites are in ``verify`` and
# ``verify_series``), so a process loads only those.  The module
# docstring is the --help text.
from .exact_algebra import format_rational

DEFAULT_BUDGET = 9
# a request fills only its level's closure; the dearest cold
# ``hodge --method both`` request at complexity chi, such as
# --g 5 --indices 19,0,0,0,0,0,0 at 15, takes about 2.3 s at chi 13,
# 4.2 s at 14, 7.8 s at 15 and 13.4 s at 16 (medians of 5, of 3 at 16,
# fresh processes with PYTHONDONTWRITEBYTECODE=1 on a shared 2-vCPU
# host, Python 3.11.7, fractions; single runs at 15 ranged 7.1-11.7 s).
# The dvv suite checks every level within the budget: cold, about 0.3,
# 1.9 and 10.2 s at budgets 9, 12 and 15 (medians of 3-4, same host).
MAX_BUDGET = 15
# the series suite compares eta_n with xi_hat_n for these n; the
# comparison window opens at truncation order 2n + 2
ETA_INDICES = range(-1, 9)
MIN_SERIES_ORDER = 2 * ETA_INDICES[-1] + 2
# a fresh series suite process at order 60 takes about 0.12 s (2 vCPUs,
# Python 3.11, fractions); its work above start-up grows about as the
# square of the order (README)
MAX_SERIES_ORDER = 60
# h(g, mu) needs r = 2g - 2 + ell + |mu| simple branch points, and the
# branch-point recursion descends once per branch point.  The dearest
# profiles found at r = 24 (g = 2, mu = 5,5,3,2,2 or 6,4,4,2,1) take
# about 0.35 s cold (medians of 7 on a shared 2-vCPU host, Python
# 3.11.7, fractions), and each step of r multiplies that by about 1.5.
MAX_BRANCH_POINTS = 24


class _Parser(argparse.ArgumentParser):
    """argparse with single-line errors (keeps stderr machine-parsable)."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _add_common(sub) -> None:
    sub.add_argument(
        "--complexity-budget", type=int, default=DEFAULT_BUDGET,
        metavar="CHI",
        help="largest recursion level 2g-2+ell the Hodge table may fill "
             f"(default {DEFAULT_BUDGET}, 1 to {MAX_BUDGET}; the dearest "
             f"cold --method both request at {MAX_BUDGET} takes about 8 s)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hodgehurwitz", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    hodge = sub.add_parser(
        "hodge", help="one linear Hodge integral")
    hodge.add_argument("--g", type=int, required=True, help="genus")
    hodge.add_argument("--indices", required=True, metavar="N1,N2,...",
                       help="comma-separated psi exponents, e.g. 3 or 2,2")
    hodge.add_argument("--method", choices=["cutjoin", "bm", "both"],
                       default="cutjoin",
                       help="recursion pipeline (both = compute twice and "
                            "compare)")
    hodge.add_argument("--format", choices=["text", "json"], default="text")
    _add_common(hodge)

    hurwitz = sub.add_parser(
        "hurwitz", help="one simple Hurwitz number")
    hurwitz.add_argument("--g", type=int, required=True, help="genus")
    hurwitz.add_argument("--mu", required=True, metavar="M1,M2,...",
                         help="ramification profile, e.g. 2,1; the number "
                              "of simple branch points r = 2g-2+ell+|mu| "
                              f"may be at most {MAX_BRANCH_POINTS}")
    hurwitz.add_argument("--method",
                         choices=["cutjoin", "elsv", "brute", "cross"],
                         default="cutjoin",
                         help="cutjoin = branch-point recursion, elsv = "
                              "Hodge-integral formula, brute = symmetric-"
                              "group count, cross = every route that "
                              "applies, the genus-0 formula too, compared")
    _add_common(hurwitz)

    table = sub.add_parser(
        "table", help="emit a table of Hurwitz numbers")
    table.add_argument("--g-max", type=int, required=True,
                       help="largest genus; the largest row needs r = "
                            "2*g_max-2+2*D simple branch points, which may "
                            f"be at most {MAX_BRANCH_POINTS}")
    table.add_argument("--size-max", type=int, default=6, metavar="D",
                       help="largest degree |mu| (default 6)")
    table.add_argument("--out", metavar="FILE",
                       help="write here instead of stdout")
    table.add_argument("--format", choices=["csv", "json"], default="csv")
    table.add_argument("--include-genus-zero", action="store_true",
                       help="also emit g = 0 rows")
    table.add_argument("--check", action="store_true",
                       help="recompute every row by a second route and "
                            "compare: the branch-point recursion for elsv "
                            "rows; for direct rows the closed formula in "
                            "genus 0, else brute force (|mu| <= 5, r <= 8); "
                            "checked is false where no second route "
                            "applies")
    _add_common(table)

    verify = sub.add_parser(
        "verify", help="run the cross-validation suites")
    verify.add_argument("--suite",
                        choices=["appendix", "dvv", "series", "residues",
                                 "all"],
                        default="all")
    verify.add_argument("--order", type=int, default=30,
                        help="series truncation order (default 30, "
                             f"{MIN_SERIES_ORDER} to {MAX_SERIES_ORDER})")
    _add_common(verify)

    return parser


# ---------------------------------------------------------------------------
# shared plumbing


def _parse_parts(text: str, what: str) -> tuple:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(
            f"invalid {what} {text!r}: expected comma-separated integers")


def _validate_common(args) -> None:
    if args.complexity_budget < 1:
        raise ValueError("complexity-budget must be ≥ 1")
    if args.complexity_budget > MAX_BUDGET:
        raise ValueError(f"complexity-budget must be ≤ {MAX_BUDGET}")


def _refuse_over_branch_points(r: int) -> None:
    if r > MAX_BRANCH_POINTS:
        raise ValueError(
            f"r = 2g-2+ell+|mu| = {r} simple branch points exceeds the "
            f"limit {MAX_BRANCH_POINTS}")


def _refuse_over_budget(chi: int, budget: int) -> None:
    if chi > budget:
        raise ValueError(
            f"complexity 2g-2+ell = {chi} exceeds --complexity-budget "
            f"{budget}")


class Tables:
    """One call's Hodge tables, one per method, created on first use and
    filled on demand.  With HURWITZ_REC_CACHE set, a table starts from
    the method's cache file (a damaged file is a miss), and ``save``
    rewrites the file if the call solved new levels."""

    def __init__(self):
        self._cache_dir = os.environ.get("HURWITZ_REC_CACHE")
        self._tables: dict[str, tuple] = {}

    def get(self, method: str):
        if method not in self._tables:
            from .hodge_solver import HodgeTable, load_table_cache
            table = None
            if self._cache_dir:
                table = load_table_cache(self._cache_dir, method)
            if table is None:
                table = HodgeTable()
            self._tables[method] = (table, len(table.filled))
        return self._tables[method][0]

    def save(self) -> None:
        for table, levels in self._tables.values():
            if self._cache_dir and len(table.filled) > levels:
                from .hodge_solver import save_table_cache
                save_table_cache(table, self._cache_dir)


# ---------------------------------------------------------------------------
# subcommands


def _run_hodge(args, tables: Tables) -> int:
    if args.g < 0:
        raise ValueError(f"genus must be ≥ 0, got {args.g}")
    indices = _parse_parts(args.indices, "indices")
    if any(n < 0 for n in indices):
        raise ValueError(f"indices must be ≥ 0, got {indices}")
    chi = 2 * args.g - 2 + len(indices)
    if chi < 1:
        raise ValueError(f"unstable (g,ell)=({args.g},{len(indices)})")
    _refuse_over_budget(chi, args.complexity_budget)
    from .hodge_solver import hodge_lambda
    j, value = hodge_lambda(args.g, indices, method=args.method,
                            table=tables.get(args.method))
    if args.format == "json":
        import json
        print(json.dumps({
            "g": args.g,
            "indices": sorted(indices, reverse=True),
            "lambda_j": j,
            "value": format_rational(value),
        }))
    else:
        print(f"j={j} value={format_rational(value)}")
    return 0


def _run_hurwitz(args, tables: Tables) -> int:
    if args.g < 0:
        raise ValueError(f"genus must be ≥ 0, got {args.g}")
    mu = _parse_parts(args.mu, "mu")
    chi = 2 * args.g - 2 + len(mu)
    r = chi + sum(mu)
    _refuse_over_branch_points(r)
    from .hurwitz import h_brute, h_direct, hurwitz_elsv, routes
    if args.method == "cutjoin":
        print(format_rational(h_direct(args.g, mu)))
        return 0
    if args.method == "brute":
        print(format_rational(h_brute(args.g, mu)))
        return 0
    if args.method == "elsv":
        _refuse_over_budget(chi, args.complexity_budget)
        print(format_rational(hurwitz_elsv(args.g, mu,
                                           table=tables.get("cutjoin"))))
        return 0
    # cross: every route that answers this profile
    results = [(name, format_rational(route())) for name, route in routes(
        args.g, mu, args.complexity_budget, lambda: tables.get("cutjoin"))]
    if len({v for _, v in results}) != 1:
        detail = " ".join(f"{name}={v}" for name, v in results)
        raise ValueError(
            f"methods disagree at h({args.g}, {tuple(sorted(mu, reverse=True))}): "
            f"{detail}")
    print(f"{results[0][1]} ({len(results)} methods agree)")
    return 0


def _table_payload(rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        import json
        payload = [{
            "g": row["g"],
            "mu": row["mu"],
            "h": format_rational(row["h"]),
            "method": row["method"],
            "checked": row["checked"],
        } for row in rows]
        return json.dumps(payload, indent=2) + "\n"
    import csv
    import io
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["g", "mu", "h", "method", "checked"])
    for row in rows:
        writer.writerow([
            row["g"],
            " ".join(str(m) for m in row["mu"]),
            format_rational(row["h"]),
            row["method"],
            "true" if row["checked"] else "false",
        ])
    return out.getvalue()


def _run_table(args, tables: Tables) -> int:
    _refuse_over_branch_points(2 * args.g_max - 2 + 2 * args.size_max)
    from .hurwitz import table_generate
    rows = table_generate(
        args.g_max, args.size_max,
        include_genus_zero=args.include_genus_zero,
        check=args.check,
        hodge_table=tables.get("cutjoin"),
        chi_budget=args.complexity_budget)
    payload = _table_payload(rows, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror}")
    else:
        sys.stdout.write(payload)
    return 0


def _run_verify(args, tables: Tables) -> int:
    if args.order < MIN_SERIES_ORDER:
        raise ValueError(f"order must be ≥ {MIN_SERIES_ORDER}")
    if args.order > MAX_SERIES_ORDER:
        raise ValueError(f"order must be ≤ {MAX_SERIES_ORDER}")
    checks = []
    if args.suite in ("series", "all"):
        from .verify_series import series_checks
        checks += series_checks(args.order)
    if args.suite in ("residues", "all"):
        from .verify import residue_checks
        checks += residue_checks()
    if args.suite in ("dvv", "all"):
        from .verify import dvv_checks
        checks += dvv_checks(args.complexity_budget, tables)
    if args.suite in ("appendix", "all"):
        from .verify import appendix_checks
        checks += appendix_checks(args.complexity_budget, tables)
    first_failure: Optional[str] = None
    for name, fn in checks:
        try:
            ok = bool(fn())
            detail = ""
        except ValueError as exc:
            ok = False
            detail = f": {exc}"
        print(("ok   " if ok else "FAIL ") + name + detail)
        if not ok and first_failure is None:
            first_failure = name + detail
    if first_failure is not None:
        print(f"error: verification failed: {first_failure}",
              file=sys.stderr)
        return 1
    return 0


_RUNNERS = {
    "hodge": _run_hodge,
    "hurwitz": _run_hurwitz,
    "table": _run_table,
    "verify": _run_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    tables = Tables()
    try:
        _validate_common(args)
        code = _RUNNERS[args.command](args, tables)
        tables.save()
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

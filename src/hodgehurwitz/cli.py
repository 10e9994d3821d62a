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
method's table persists there as one JSON file (see ``_Tables``).
"""

import argparse
import os
import sys
from functools import cache
from typing import Optional

# Every command formats rationals; each runner and suite below imports
# the other layers it calls, so a process loads only those.
from .exact_algebra import format_rational, rat

DEFAULT_BUDGET = 9
# the series suite compares eta_n with xi_hat_n for these n; the
# comparison window opens at truncation order 2n + 2
ETA_INDICES = range(-1, 9)
MIN_SERIES_ORDER = 2 * ETA_INDICES[-1] + 2
# the series suite at order 60 takes about 2.5 s on one core; its cost
# grows about as the cube of the order (80: 6 s, 100: 13 s)
MAX_SERIES_ORDER = 60
# h(g, mu) needs r = 2g - 2 + ell + |mu| simple branch points, and the
# branch-point recursion descends once per branch point.  The dearest
# profiles found at r = 24 (such as g = 4, mu = 11,1,1,1) take about
# 3 s, and each step of r multiplies that by about 1.4.
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
             f"(default {DEFAULT_BUDGET})")


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
                              "group count, cross = all in-range methods")
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
                       help="recompute every row by the branch-point "
                            "recursion and compare")
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
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(
            f"invalid {what} {text!r}: expected comma-separated integers")
    if not parts:
        raise ValueError(f"{what} must be nonempty")
    return parts


def _validate_common(args) -> None:
    if args.complexity_budget < 1:
        raise ValueError("complexity-budget must be ≥ 1")


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


class _Tables:
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
        for method, (table, levels) in self._tables.items():
            if self._cache_dir and len(table.filled) > levels:
                from .hodge_solver import save_table_cache
                save_table_cache(table, self._cache_dir, method)


# ---------------------------------------------------------------------------
# subcommands


def _run_hodge(args, tables: _Tables) -> int:
    if args.g < 0:
        raise ValueError(f"genus must be ≥ 0, got {args.g}")
    indices = _parse_parts(args.indices, "indices")
    if any(n < 0 for n in indices):
        raise ValueError(f"indices must be ≥ 0, got {indices}")
    chi = 2 * args.g - 2 + len(indices)
    from .hodge_solver import HodgeTable, hodge_lambda
    if chi < 1:
        # unstable; raise the canonical error without building a table
        hodge_lambda(args.g, indices, method=args.method,
                     table=HodgeTable())
    _refuse_over_budget(chi, args.complexity_budget)
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


def _run_hurwitz(args, tables: _Tables) -> int:
    if args.g < 0:
        raise ValueError(f"genus must be ≥ 0, got {args.g}")
    mu = _parse_parts(args.mu, "mu")
    ell = len(mu)
    chi = 2 * args.g - 2 + ell
    r = chi + sum(mu)
    _refuse_over_branch_points(r)
    from .hurwitz import h_brute, h_direct, hurwitz_elsv
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
    # cross: every method whose range covers this profile
    results = [("cutjoin", h_direct(args.g, mu))]
    if chi >= 1 and chi <= args.complexity_budget:
        results.append(("elsv", hurwitz_elsv(args.g, mu,
                                             table=tables.get("cutjoin"))))
    if sum(mu) <= 5 and r <= 8:
        results.append(("brute", h_brute(args.g, mu)))
    vals = {format_rational(v) for _, v in results}
    if len(vals) != 1:
        detail = " ".join(f"{name}={format_rational(v)}"
                          for name, v in results)
        raise ValueError(
            f"methods disagree at h({args.g}, {tuple(sorted(mu, reverse=True))}): "
            f"{detail}")
    print(f"{vals.pop()} ({len(results)} methods agree)")
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


def _run_table(args, tables: _Tables) -> int:
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


# ---------------------------------------------------------------------------
# verification suites


def _series_checks(order: int) -> list:
    from .exact_algebra import LaurentSeries, SeriesPowers, \
        laurent_reciprocal
    from .lambert_curve import eta_xi_identity_check, \
        h02_series_identity_check, s_involution, stirling_coefficients, \
        v_series, w_series

    @cache
    def inv_s() -> SeriesPowers:
        """Powers of 1/s, formed once for every composition into 1/s."""
        return SeriesPowers(laurent_reciprocal(s_involution(order)))

    def involution():
        ss = inv_s().substitute(s_involution(order))
        diff = ss - LaurentSeries.exact({-1: 1}, "1/t")
        return diff.is_zero() and diff.truncation_order >= order - 6

    def fixes_w():
        w = w_series(order)
        diff = inv_s().substitute(w) - w
        return diff.is_zero() and diff.truncation_order >= order - 4

    def half_v_squared():
        v = v_series(order)
        return ((v * v).scale(rat(1, 2)) - w_series(order)).is_zero()

    def v_odd_under_s():
        v = v_series(order)
        diff = inv_s().substitute(v) + v
        return diff.is_zero() and diff.truncation_order >= order - 6

    def eta_matches_xi():
        return all(eta_xi_identity_check(n, order) for n in ETA_INDICES)

    def frozen_coefficients():
        s = s_involution(order)
        v = v_series(order)
        s_ok = [s.coefficient(k) for k in (-1, 0, 1, 2, 3)] == \
            [rat(-1), rat(2, 3), rat(0), rat(4, 135), rat(8, 405)]
        v_ok = [v.coefficient(k) for k in (1, 2, 3, 4, 5)] == \
            [rat(1), rat(1, 3), rat(7, 36), rat(73, 540), rat(1331, 12960)]
        sk_ok = stirling_coefficients(4) == [
            rat(1), rat(-1, 12), rat(1, 288), rat(139, 51840),
            rat(-571, 2488320)]
        return s_ok and v_ok and sk_ok

    def h02_identity():
        return h02_series_identity_check(8)

    return [
        ("series: s(s(t)) = t", involution),
        ("series: w(s(t)) = w(t)", fixes_w),
        ("series: v^2/2 = w", half_v_squared),
        ("series: v(s(t)) = -v(t)", v_odd_under_s),
        ("series: eta_n matches xi_hat_n for n = "
         f"{ETA_INDICES[0]}..{ETA_INDICES[-1]}", eta_matches_xi),
        ("series: frozen leading coefficients of s, v, s_k",
         frozen_coefficients),
        ("series: two-point genus-zero amplitude identity to degree 8",
         h02_identity),
    ]


def _residue_checks() -> list:
    from .residue_kernel import p_ab, p_ab_eta, p_n, p_n_eta

    def pair_kernels():
        for a in range(0, 9):
            for b in range(0, 9 - a):
                poly = p_ab(a, b)
                if poly != p_ab_eta(a, b):
                    return False
                if poly.degree() != 2 * (a + b + 2):
                    return False
        return True

    def point_kernels():
        for n in range(0, 7):
            poly = p_n(n)
            if poly != p_n_eta(n):
                return False
            if poly.total_degree() != 2 * n + 2:
                return False
        return True

    return [
        ("residues: p_ab agrees with its eta-series form for a+b <= 8",
         pair_kernels),
        ("residues: p_n agrees with its eta-series form for n <= 6",
         point_kernels),
    ]


def _dvv_checks(budget: int, tables: _Tables) -> list:
    from .exact_algebra import UniPoly
    from .hodge_solver import dvv_verify
    from .lambert_curve import xi_form

    def base_values():
        table = tables.get("cutjoin")
        return (table.value(0, (0, 0, 0)) == rat(1)
                and table.value(1, (1,)) == rat(1, 24))

    def one_point_amplitude():
        table = tables.get("cutjoin")
        acc = UniPoly.zero()
        for idx, val in table.level_entries(1, 1).items():
            acc = acc + xi_form(idx[0]).scale(val)
        return acc == UniPoly({2: rat(1, 8), 1: rat(-1, 12), 0: rat(-1, 24)})

    def recursion_holds():
        table = tables.get("cutjoin")
        for g in range(0, 4):
            for ell in range(1, budget + 2):
                if 2 * g - 1 + ell > budget:
                    break
                if not dvv_verify(g, ell, table=table):
                    raise ValueError(f"dvv fails at (g,ell)=({g},{ell})")
        return True

    return [
        ("dvv: <tau_0^3> = 1 and <tau_1> = 1/24", base_values),
        ("dvv: genus-one one-point amplitude is (1/24)(t-1)(3t+1)",
         one_point_amplitude),
        ("dvv: psi-sector recursion holds for g <= 3 within budget",
         recursion_holds),
    ]


def _appendix_checks(budget: int, tables: _Tables) -> list:
    from .hodge_solver import hodge_lambda
    from .hurwitz import h_direct, hurwitz_elsv
    from .reference_data import HODGE_REFERENCE, HURWITZ_GENUS_FIVE, \
        HURWITZ_REFERENCE

    need = max(2 * g - 2 + len(idx) for g, idx, _, _ in HODGE_REFERENCE)
    need = max(need, max(2 * g - 2 + len(mu)
                         for g, mu, _ in HURWITZ_REFERENCE))
    if budget < need:
        raise ValueError(
            f"appendix suite needs --complexity-budget ≥ {need}")

    def hodge_rows(method: str):
        def check():
            table = tables.get(method)
            for g, idx, j, val in HODGE_REFERENCE:
                jj, got = hodge_lambda(g, idx, method=method, table=table)
                if jj != j or got != rat(val):
                    raise ValueError(
                        f"<tau_{idx} lambda_{j}>_{g} expected {val}, "
                        f"{method} gives j={jj} value={format_rational(got)}")
            return True
        return check

    def hurwitz_direct():
        for g, mu, val in HURWITZ_REFERENCE + HURWITZ_GENUS_FIVE:
            got = h_direct(g, mu)
            if got != rat(val):
                raise ValueError(
                    f"h({g}, {mu}) expected {val}, recursion gives "
                    f"{format_rational(got)}")
        return True

    def hurwitz_formula():
        table = tables.get("cutjoin")
        for g, mu, val in HURWITZ_REFERENCE + HURWITZ_GENUS_FIVE:
            got = hurwitz_elsv(g, mu, table=table)
            if got != rat(val):
                raise ValueError(
                    f"h({g}, {mu}) expected {val}, Hodge-integral formula "
                    f"gives {format_rational(got)}")
        return True

    return [
        ("appendix: Hodge integrals, cut-and-join pipeline",
         hodge_rows("cutjoin")),
        ("appendix: Hodge integrals, topological-recursion pipeline",
         hodge_rows("bm")),
        ("appendix: Hurwitz numbers, branch-point recursion",
         hurwitz_direct),
        ("appendix: Hurwitz numbers, Hodge-integral formula",
         hurwitz_formula),
    ]


def _run_verify(args, tables: _Tables) -> int:
    if args.order < MIN_SERIES_ORDER:
        raise ValueError(f"order must be ≥ {MIN_SERIES_ORDER}")
    if args.order > MAX_SERIES_ORDER:
        raise ValueError(f"order must be ≤ {MAX_SERIES_ORDER}")
    checks = []
    if args.suite in ("series", "all"):
        checks += _series_checks(args.order)
    if args.suite in ("residues", "all"):
        checks += _residue_checks()
    if args.suite in ("dvv", "all"):
        checks += _dvv_checks(args.complexity_budget, tables)
    if args.suite in ("appendix", "all"):
        checks += _appendix_checks(args.complexity_budget, tables)
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
    tables = _Tables()
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

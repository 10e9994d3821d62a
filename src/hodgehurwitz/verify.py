"""The residue, DVV and appendix suites of ``verify``, and
``dvv_verify``.

Each suite is a list of (name, check) pairs, and ``cli`` prints one
status line per check.  A suite imports the layers it checks when it is
built, and only the ``verify`` command loads this module; the series
suite is in ``verify_series``, so ``verify --suite series`` compiles
neither this module nor any Hodge table.  The suites read the call's
tables from ``cli.Tables``, one per method; ``dvv_verify`` reads the
table its caller passes and solves a missing level by cut-and-join.
"""

from __future__ import annotations

from functools import cache
from math import prod
from typing import TYPE_CHECKING

from .exact_algebra import HALF, ZERO, Rational, format_rational, rat, \
    remove_one, splits

if TYPE_CHECKING:
    from .cli import Tables
    from .hodge_solver import HodgeTable


def dvv_verify(g: int, ell: int, table: HodgeTable) -> bool:
    """Check the Virasoro-type recursion on the pure psi-class sector.

    Validates, for every top-dimensional entry at level (g, ell + 1)
    and every choice of distinguished index n, the identity on
    sigma_n = (2n+1)!! tau_n:

      <sigma_n sigma_{n_L}> = sum_i (2n_i+1) <sigma_{n+n_i-1}
        sigma_{L-i}> + 1/2 sum_{a+b=n-2} [ <sigma_a sigma_b sigma_{n_L}>
        + sum_{stable splits} <sigma_a sigma_I><sigma_b sigma_J> ].

    Both sums over L run over multisets, each term times the positions
    or subsets of L it stands for.  Levels whose instances would involve
    unstable data (complexity of the target below 2) have nothing to
    check and return True.  Missing levels of ``table`` are solved by
    cut-and-join.
    """
    target_ell = ell + 1
    if 2 * g - 2 + target_ell < 2:
        return True

    @cache
    def sorted_sigma(gg: int, idx: tuple[int, ...]) -> Rational:
        """<sigma_idx>_gg: zero off the psi sector, for a negative index
        and at an unstable level; the (2n+1)!! are integers."""
        if any(n < 0 for n in idx) or 2 * gg - 2 + len(idx) < 1:
            return ZERO
        if sum(idx) != 3 * gg - 3 + len(idx):
            return ZERO
        table.ensure_level(gg, len(idx), "cutjoin")
        return table.value(gg, idx) * prod(
            prod(range(2 * n + 1, 0, -2)) for n in idx)

    def sigma(gg: int, idx: tuple[int, ...]) -> Rational:
        # memoized per (gg, sorted idx) for this call
        return sorted_sigma(gg, tuple(sorted(idx)))

    table.ensure_level(g, target_ell, "cutjoin")
    dim = 3 * g - 3 + target_ell
    ok = True
    for key, _ in sorted(table.level_entries(g, target_ell).items()):
        if sum(key) != dim:
            continue
        for n in sorted(set(key), reverse=True):
            rest = remove_one(key, n)
            lhs = sigma(g, key)
            rhs = ZERO
            for ni in set(rest):
                sub = remove_one(rest, ni) + (n + ni - 1,)
                rhs = rhs + rest.count(ni) * (2 * ni + 1) * sigma(g, sub)
            # each split of rest, listed once for every a (none if n < 2)
            parts = list(splits(rest)) if n >= 2 else []
            for a in range(n - 1):
                b = n - 2 - a
                if g >= 1:
                    rhs = rhs + HALF * sigma(g - 1, rest + (a, b))
                for left, right, count in parts:
                    for g1 in range(g + 1):
                        c1 = sigma(g1, left + (a,))
                        if not c1:
                            continue
                        c2 = sigma(g - g1, right + (b,))
                        rhs = rhs + HALF * count * c1 * c2
            if lhs != rhs:
                ok = False
    return ok


def residue_checks() -> list:
    from .residue_kernel import p_ab, p_ab_eta, p_n, p_n_eta

    def pair_kernels():
        for a in range(0, 9):
            for b in range(0, 9 - a):
                poly = p_ab(a, b)
                if poly != p_ab_eta(a, b):
                    return False
                if max(poly) != 2 * (a + b + 2):
                    return False
        return True

    def point_kernels():
        for n in range(0, 7):
            poly = p_n(n)
            if poly != p_n_eta(n):
                return False
            if max(map(sum, poly)) != 2 * n + 2:
                return False
        return True

    return [
        ("residues: p_ab agrees with its eta-series form for a+b <= 8",
         pair_kernels),
        ("residues: p_n agrees with its eta-series form for n <= 6",
         point_kernels),
    ]


def dvv_checks(budget: int, tables: Tables) -> list:
    from .xi_tower import xi_form

    def base_values():
        table = tables.get("cutjoin")
        return (table.value(0, (0, 0, 0)) == rat(1)
                and table.value(1, (1,)) == rat(1, 24))

    def one_point_amplitude():
        table = tables.get("cutjoin")
        acc: dict = {}
        for idx, val in table.level_entries(1, 1).items():
            for d, c in xi_form(idx[0]).items():
                acc[d] = acc.get(d, ZERO) + c * val
        return acc == {2: rat(1, 8), 1: rat(-1, 12), 0: rat(-1, 24)}

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


def appendix_checks(budget: int, tables: Tables) -> list:
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

    def hurwitz_rows(route, what: str):
        def check():
            for g, mu, val in HURWITZ_REFERENCE + HURWITZ_GENUS_FIVE:
                got = route(g, mu)
                if got != rat(val):
                    raise ValueError(f"h({g}, {mu}) expected {val}, {what} "
                                     f"gives {format_rational(got)}")
            return True
        return check

    return [
        ("appendix: Hodge integrals, cut-and-join pipeline",
         hodge_rows("cutjoin")),
        ("appendix: Hodge integrals, topological-recursion pipeline",
         hodge_rows("bm")),
        ("appendix: Hurwitz numbers, branch-point recursion",
         hurwitz_rows(h_direct, "recursion")),
        ("appendix: Hurwitz numbers, Hodge-integral formula",
         hurwitz_rows(lambda g, mu: hurwitz_elsv(
             g, mu, table=tables.get("cutjoin")), "Hodge-integral formula")),
    ]

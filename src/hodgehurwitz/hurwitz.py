"""Simple Hurwitz numbers by four independent routes.

h(g, mu) counts degree-|mu| covers of the sphere with ramification
profile mu over one point and 2g - 2 + len(mu) + |mu| simple branch
points elsewhere, weighted by 1/|mu|! over all monodromy choices.

* ``hurwitz_elsv`` — the intersection-number formula: a weighted sum
  of linear Hodge integrals from the caller's table, filled by
  cut-and-join.
* ``h_direct`` — the cut-and-join recursion on the branch-point count,
  on integer counts z_mu h, with the trivial cover as its one base case.
* ``genus_zero`` — Hurwitz's closed formula, genus 0 only.
* ``h_brute`` — finite symmetric-group enumeration (a transfer-matrix
  walk over (permutation, orbit-partition) states), usable for small
  degree and branch count only, and deliberately independent of any
  recursion.

``routes`` says which of them answer a profile, in that order of
preference, and ``agree`` decides whether the routes it is given agree:
``table_generate`` and ``hurwitz --method cross`` call both.

``elsv_invert`` runs the intersection-number formula backwards: it
recovers a whole level of the Hodge table from Hurwitz numbers alone
by solving a square linear system, giving an end-to-end consistency
check between the recursions.
"""

from __future__ import annotations

from functools import cache
from math import comb, factorial, prod
from typing import TYPE_CHECKING, Callable, Optional

from hodgehurwitz.exact_algebra import ONE, ZERO, Rational, aut, \
    format_rational, rat, remove_one, splits

if TYPE_CHECKING:
    from hodgehurwitz.hodge_solver import HodgeTable


def _profile(g: int, mu) -> tuple[tuple[int, ...], int]:
    """(mu non-increasing, r): a validated ramification profile and its
    number r = 2g - 2 + len(mu) + |mu| of simple branch points."""
    if g < 0:
        raise ValueError(f"genus must be >= 0, got {g}")
    parts = tuple(sorted((int(m) for m in mu), reverse=True))
    if not parts or any(m < 1 for m in parts):
        raise ValueError(f"partition parts must be positive: {tuple(mu)}")
    return parts, 2 * g - 2 + len(parts) + sum(parts)


# the splits of each multiset, listed once per process
_splits = cache(lambda rest: tuple(splits(rest)))


@cache
def _count(g: int, mu: tuple[int, ...]) -> int:
    """N(g, mu) = z_mu h(g, mu), the number of transitive r-tuples of
    transpositions whose product is one fixed permutation of type mu.

    Peeling off the last transposition joins two cycles or cuts one:

      N(g, mu) = sum_{i<j} mu_i mu_j N(g, join_{ij}(mu))
        + 1/2 sum_i mu_i sum_{a+b=mu_i} [ N(g-1, cut_i(mu; a, b))
        + sum_{g1+g2=g} sum_{S subset of mu minus i}
          C(r-1, r1) N(g1, S + (a,)) N(g2, S^c + (b,)) ]

    with a, b ordered and r1 the branch-point count of the first factor.
    The sums over i and S run over multisets, each term times the part
    positions or subsets S it stands for; mirrored terms pair up, so the
    cut sum is even.
    """
    ell = len(mu)
    r = 2 * g - 2 + ell + sum(mu)
    if r <= 0:
        return 1 if (g, mu) == (0, (1,)) else 0
    join = cut = 0
    for i in range(ell):
        for j in range(i + 1, ell):
            rest = mu[:i] + mu[i + 1:j] + mu[j + 1:]
            joined = tuple(sorted(rest + (mu[i] + mu[j],), reverse=True))
            join += mu[i] * mu[j] * _count(g, joined)
    for k in set(mu):
        rest = remove_one(mu, k)
        inner = 0
        for a in range(1, k):
            b = k - a
            if g >= 1:
                inner += _count(g - 1, tuple(sorted(rest + (a, b),
                                                    reverse=True)))
            for left, right, count in _splits(rest):
                mu1 = tuple(sorted(left + (a,), reverse=True))
                mu2 = tuple(sorted(right + (b,), reverse=True))
                r1 = len(mu1) + sum(mu1) - 2  # r(g1, mu1) - 2 g1
                for g1 in range(g + 1):
                    c1 = _count(g1, mu1)
                    c2 = c1 and _count(g - g1, mu2)
                    if c2:
                        inner += count * comb(r - 1, r1 + 2 * g1) * c1 * c2
        cut += mu.count(k) * k * inner
    if cut % 2:
        raise RuntimeError(f"odd cut sum at N({g}, {mu}) (internal error)")
    return join + cut // 2


def h_direct(g: int, mu) -> Rational:
    """Simple Hurwitz number via the branch-point recursion."""
    mu, _ = _profile(g, mu)
    return rat(_count(g, mu), aut(mu) * prod(mu))


def genus_zero(mu) -> Rational:
    """h(0, mu) by Hurwitz's formula, r!/|Aut(mu)| prod(mu_i^mu_i / mu_i!)
    d^(ell - 3) with d = |mu|, r = d + ell - 2: integers, one division."""
    mu, r = _profile(0, mu)
    d, ell = sum(mu), len(mu)
    num = factorial(r) * d ** max(ell - 3, 0)
    den = aut(mu) * d ** max(3 - ell, 0)
    for m in mu:
        num *= m ** m
        den *= factorial(m)
    return rat(num, den)


# the names perfbench/make_oracle.py imports
def genus_zero_one_part(k: int) -> Rational:
    return genus_zero((k,))


def genus_zero_two_part(a: int, b: int) -> Rational:
    return genus_zero((a, b))


def _elsv_weight(mu: tuple[int, ...], idx: tuple[int, ...]) -> int:
    """sum over the distinct orders n of ``idx`` of prod mu_i^n_i: the
    integer weight of the Hodge integral <tau_idx ...> in h(g, mu).

    The orders are built one part of mu at a time; the partial orders
    that leave the same indices to place share one partial sum."""
    partial = {tuple(sorted(idx)): 1}
    for m in mu:
        placed: dict[tuple[int, ...], int] = {}
        for rest, acc in partial.items():
            for n in set(rest):
                i = rest.index(n)
                left = rest[:i] + rest[i + 1:]
                placed[left] = placed.get(left, 0) + acc * m ** n
        partial = placed
    return partial[()]


def _elsv_prefactor(mu: tuple[int, ...], r: int) -> Rational:
    """r!/|Aut(mu)| prod(mu_i^mu_i / mu_i!), the factor of the ELSV sum."""
    prefactor = rat(factorial(r)) / aut(mu)
    for m in mu:
        prefactor = prefactor * rat(m) ** m / factorial(m)
    return prefactor


def hurwitz_elsv(g: int, mu, table: HodgeTable) -> Rational:
    """Simple Hurwitz number as a weighted sum of Hodge integrals:

      h(g, mu) = r!/|Aut(mu)| prod(mu_i^mu_i / mu_i!)
                 * sum_n prod(mu_i^n_i) <tau_n Lambda-alternating>_g

    A missing level of ``table`` is solved by cut-and-join.
    """
    mu, r = _profile(g, mu)
    ell = len(mu)
    table.ensure_level(g, ell, "cutjoin")
    total = ZERO
    for idx, val in table.level_entries(g, ell).items():
        total = total + val * _elsv_weight(mu, idx)
    return _elsv_prefactor(mu, r) * total


_BRUTE_D_MAX = 5
_BRUTE_R_MAX = 8


def brute_in_range(g: int, mu) -> bool:
    """True when ``h_brute`` answers h(g, mu)."""
    mu, r = _profile(g, mu)
    return sum(mu) <= _BRUTE_D_MAX and r <= _BRUTE_R_MAX


def h_brute(g: int, mu) -> Rational:
    """Count monodromy tuples directly in the symmetric group.

    Walks all products of r transpositions, tracking (partial product,
    orbit partition), and keeps the tuples whose product is a fixed
    permutation of cycle type mu and whose factors act transitively.
    Exact but exponential: degrees above 5 or more than 8 simple
    branch points are refused.
    """
    mu, r = _profile(g, mu)
    d = sum(mu)
    if not brute_in_range(g, mu):
        raise ValueError(
            f"oracle out of range: need |mu| <= {_BRUTE_D_MAX} and "
            f"r <= {_BRUTE_R_MAX}, got |mu|={d}, r={r}")

    # canonical permutation of type mu, as an image tuple
    sigma = list(range(d))
    start = 0
    for part in mu:
        for o in range(part):
            sigma[start + o] = start + (o + 1) % part
        start += part
    target = tuple(sigma.index(i) for i in range(d))  # sigma^(-1)

    transpositions = [(a, b) for a in range(d) for b in range(a + 1, d)]
    identity = tuple(range(d))
    discrete = tuple(range(d))

    def merge(partition: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
        ra, rb = partition[a], partition[b]
        if ra == rb:
            return partition
        lo, hi = min(ra, rb), max(ra, rb)
        return tuple(lo if x == hi else x for x in partition)

    states: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {
        (identity, discrete): 1}
    for _ in range(r):
        nxt: dict = {}
        for (perm, partition), count in states.items():
            for a, b in transpositions:
                image = list(perm)
                image[a], image[b] = image[b], image[a]
                swapped = tuple(image)
                key2 = (swapped, merge(partition, a, b))
                nxt[key2] = nxt.get(key2, 0) + count
        states = nxt

    # transitivity: a single orbit across all d sheets
    hits = sum(count for (perm, partition), count in states.items()
               if perm == target and len(set(partition)) == 1)
    return rat(hits, aut(mu) * prod(mu))


def routes(g: int, mu, budget: int,
           table: Callable[[], HodgeTable]) -> list[tuple[str, Callable]]:
    """(name, thunk) of each route that answers h(g, mu), in order of
    preference; no two share code: "elsv" where 1 <= 2g-2+ell <= budget,
    "direct", "closed form" where g = 0, and "brute" where
    ``brute_in_range``.  Only the elsv thunk calls ``table()``."""
    mu, _ = _profile(g, mu)
    chi = 2 * g - 2 + len(mu)
    found = []
    if 1 <= chi <= budget:
        found.append(("elsv", lambda: hurwitz_elsv(g, mu, table=table())))
    found.append(("direct", lambda: h_direct(g, mu)))
    if g == 0:
        found.append(("closed form", lambda: genus_zero(mu)))
    if brute_in_range(g, mu):
        found.append(("brute", lambda: h_brute(g, mu)))
    return found


def agree(g: int, mu, found: list) -> tuple[Rational, list[str]]:
    """(value, names): run each (name, thunk) of ``found`` in order and
    return the one value they all give; on any difference raise one
    ValueError naming every route run and its value."""
    values = [(name, route()) for name, route in found]
    value = values[0][1]
    if any(v != value for _, v in values):
        detail = " ".join(f"{n}={format_rational(v)}" for n, v in values)
        raise ValueError(f"methods disagree at h({g}, "
                         f"{tuple(sorted(mu, reverse=True))}): {detail}")
    return value, [name for name, _ in values]


def elsv_invert(g: int, ell: int) -> dict:
    """Recover the Hodge-table level (g, ell) from Hurwitz numbers.

    For each admissible index multiset N the profile mu = N + 1 gives
    one equation sum_n prod(mu_i^n_i) T(n) = h(g, mu) / prefactor; the
    resulting square system is solved by exact Gaussian elimination.
    """
    if 2 * g - 2 + ell < 1:
        raise ValueError(f"unstable (g,ell)=({g},{ell})")
    dim = 3 * g - 3 + ell
    unknowns = [n + (0,) * (ell - len(n)) for d in range(dim, -1, -1)
                for n in _partitions(d) if len(n) <= ell]
    index_of = {n: i for i, n in enumerate(unknowns)}
    size = len(unknowns)

    rows = []
    rhs = []
    for n_row in unknowns:
        mu = tuple(m + 1 for m in n_row)
        coeffs = [_elsv_weight(mu, n_col) for n_col in unknowns]
        r = 2 * g - 2 + ell + sum(mu)
        rows.append(coeffs)
        rhs.append(h_direct(g, mu) / _elsv_prefactor(mu, r))

    for col in range(size):
        pivot = next((row for row in range(col, size) if rows[row][col]),
                     None)
        if pivot is None:
            raise ValueError(f"inversion grid is singular at (g,ell)="
                             f"({g},{ell})")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inv = ONE / rows[col][col]
        rows[col] = [c * inv for c in rows[col]]
        rhs[col] = rhs[col] * inv
        for row in range(size):
            if row != col and rows[row][col]:
                factor = rows[row][col]
                rows[row] = [c - factor * p
                             for c, p in zip(rows[row], rows[col])]
                rhs[row] = rhs[row] - factor * rhs[col]

    return {n: rhs[i] for n, i in index_of.items() if rhs[i]}


# ---------------------------------------------------------------------------
# bulk table generation (CLI backend)


def _partitions(d: int, cap: Optional[int] = None):
    """Partitions of d in descending lexicographic order."""
    cap = d if cap is None else min(cap, d)
    if d == 0:
        yield ()
        return
    for first in range(cap, 0, -1):
        for rest in _partitions(d - first, first):
            yield (first,) + rest


def table_generate(g_max: int, d_max: int, include_genus_zero: bool = False,
                   check: bool = False, *, hodge_table: HodgeTable,
                   chi_budget: int) -> list[dict]:
    """Rows of simple Hurwitz numbers, deterministically ordered.

    Each row is computed by the first of its ``routes``: the
    Hodge-integral formula over ``hodge_table`` for stable profiles
    within ``chi_budget``, the branch-point recursion otherwise.  With
    ``check`` its second route, which shares no code with the first,
    runs too, never a third, and ``agree`` compares the two; a row with
    no second route is marked unchecked.
    """
    if g_max < 1:
        raise ValueError("g-max must be ≥ 1 for the Hurwitz table")
    if d_max < 1:
        raise ValueError("size-max must be ≥ 1")
    rows = []
    for g in range(0 if include_genus_zero else 1, g_max + 1):
        for d in range(1, d_max + 1):
            for mu in _partitions(d):
                found = routes(g, mu, chi_budget, lambda: hodge_table)
                value, names = agree(g, mu, found[:2 if check else 1])
                rows.append({
                    "g": g,
                    "mu": list(mu),
                    "h": value,
                    "method": names[0],
                    "checked": len(names) > 1,
                })
    return rows

"""Simple Hurwitz numbers by three independent routes.

h(g, mu) counts degree-|mu| covers of the sphere with ramification
profile mu over one point and 2g - 2 + len(mu) + |mu| simple branch
points elsewhere, weighted by 1/|mu|! over all monodromy choices.

* ``h_direct`` — the cut-and-join recursion on the branch-point count,
  run in the normalization H = |Aut(mu)| h / r! that makes every
  weight a plain rational; the only base case is the trivial cover.
* ``hurwitz_elsv`` — the intersection-number formula: a weighted sum
  of linear Hodge integrals from the solver table.
* ``h_brute`` — finite symmetric-group enumeration (a transfer-matrix
  walk over (permutation, orbit-partition) states), usable for small
  degree and branch count only, and deliberately independent of any
  recursion.

``elsv_invert`` runs the intersection-number formula backwards: it
recovers a whole level of the Hodge table from Hurwitz numbers alone
by solving a square linear system, giving an end-to-end consistency
check between the recursions.
"""

from __future__ import annotations

from functools import cache
from math import factorial
from typing import TYPE_CHECKING, NamedTuple, Optional

from hodgehurwitz.exact_algebra import ONE, ZERO, HALF, Rational, aut, rat, \
    subsets

if TYPE_CHECKING:
    from hodgehurwitz.hodge_solver import HodgeTable


def _normalize_mu(mu) -> tuple[int, ...]:
    parts = tuple(sorted((int(m) for m in mu), reverse=True))
    if not parts or any(m < 1 for m in parts):
        raise ValueError(f"partition parts must be positive: {tuple(mu)}")
    return parts


class HurwitzKey(NamedTuple):
    """Genus plus a ramification profile (non-increasing, positive)."""

    g: int
    mu: tuple[int, ...]

    @classmethod
    def make(cls, g: int, mu) -> "HurwitzKey":
        if g < 0:
            raise ValueError(f"genus must be >= 0, got {g}")
        return cls(g, _normalize_mu(mu))

    @property
    def r(self) -> int:
        """Number of simple branch points."""
        return 2 * self.g - 2 + len(self.mu) + sum(self.mu)


@cache
def _rescaled(g: int, mu: tuple[int, ...]) -> Rational:
    """H = |Aut(mu)| h / r!, the recursion-friendly normalization.

    Peeling the last simple branch point gives

      r H(g, mu) = sum_{i<j} (mu_i + mu_j) H(g, join_{ij}(mu))
        + 1/2 sum_i sum_{a+b=mu_i} a b [ H(g-1, cut_i(mu; a, b))
        + sum_{g1+g2=g} sum_{S subset of mu minus i}
          H(g1, S + (a,)) H(g2, S^c + (b,)) ]

    over part positions; the split sum runs over ordered pairs.
    """
    r = 2 * g - 2 + len(mu) + sum(mu)
    if r <= 0:
        return ONE if (g, mu) == (0, (1,)) else ZERO
    total = ZERO
    ell = len(mu)
    for i in range(ell):
        for j in range(i + 1, ell):
            rest = mu[:i] + mu[i + 1:j] + mu[j + 1:]
            joined = tuple(sorted(rest + (mu[i] + mu[j],), reverse=True))
            total = total + (mu[i] + mu[j]) * _rescaled(g, joined)
    for i in range(ell):
        k = mu[i]
        rest = mu[:i] + mu[i + 1:]
        for a in range(1, k):
            b = k - a
            weight = HALF * a * b
            if g >= 1:
                cut = tuple(sorted(rest + (a, b), reverse=True))
                total = total + weight * _rescaled(g - 1, cut)
            for left, right in subsets(rest):
                mu1 = tuple(sorted(left + (a,), reverse=True))
                mu2 = tuple(sorted(right + (b,), reverse=True))
                for g1 in range(g + 1):
                    c1 = _rescaled(g1, mu1)
                    if not c1:
                        continue
                    c2 = _rescaled(g - g1, mu2)
                    if not c2:
                        continue
                    total = total + weight * c1 * c2
    return total / r


def h_direct(g: int, mu) -> Rational:
    """Simple Hurwitz number via the branch-point recursion."""
    key = HurwitzKey.make(g, mu)
    return _rescaled(key.g, key.mu) * factorial(key.r) / aut(key.mu)


def genus_zero_one_part(k: int) -> Rational:
    """h(0, (k)) in closed form: k^(k-2) / k."""
    if k < 1:
        raise ValueError("part must be positive")
    return rat(k) ** (k - 2) / k


def genus_zero_two_part(a: int, b: int) -> Rational:
    """h(0, (a, b)) in closed form: a^a b^b (a+b-1)! / (a! b! |Aut|)."""
    if a < 1 or b < 1:
        raise ValueError("parts must be positive")
    value = (rat(a) ** a) * (rat(b) ** b) * factorial(a + b - 1)
    return value / (factorial(a) * factorial(b) * aut((a, b)))


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


def hurwitz_elsv(g: int, mu, table: Optional[HodgeTable] = None) -> Rational:
    """Simple Hurwitz number as a weighted sum of Hodge integrals:

      h(g, mu) = r!/|Aut(mu)| prod(mu_i^mu_i / mu_i!)
                 * sum_n prod(mu_i^n_i) <tau_n Lambda-alternating>_g
    """
    key = HurwitzKey.make(g, mu)
    ell = len(key.mu)
    if 2 * g - 2 + ell < 1:
        raise ValueError(f"unstable (g,ell)=({g},{ell})")
    if table is None:
        from hodgehurwitz.hodge_solver import default_table
        table = default_table()
    table.ensure_level(g, ell)
    total = ZERO
    for idx, val in table.level_entries(g, ell).items():
        total = total + val * _elsv_weight(key.mu, idx)
    prefactor = rat(factorial(key.r)) / aut(key.mu)
    for m in key.mu:
        prefactor = prefactor * rat(m) ** m / factorial(m)
    return prefactor * total


_BRUTE_D_MAX = 5
_BRUTE_R_MAX = 8


def h_brute(g: int, mu) -> Rational:
    """Count monodromy tuples directly in the symmetric group.

    Walks all products of r transpositions, tracking (partial product,
    orbit partition), and keeps the tuples whose product is a fixed
    permutation of cycle type mu and whose factors act transitively.
    Exact but exponential: degrees above 5 or more than 8 simple
    branch points are refused.
    """
    key = HurwitzKey.make(g, mu)
    d = sum(key.mu)
    r = key.r
    if d > _BRUTE_D_MAX or r > _BRUTE_R_MAX:
        raise ValueError(
            f"oracle out of range: need |mu| <= {_BRUTE_D_MAX} and "
            f"r <= {_BRUTE_R_MAX}, got |mu|={d}, r={r}")
    if r < 0:
        return ZERO

    # canonical permutation of type mu, as an image tuple
    sigma = list(range(d))
    start = 0
    for part in key.mu:
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
    z = aut(key.mu)
    for m in key.mu:
        z *= m
    return rat(hits, z)


def elsv_invert(g: int, ell: int) -> dict:
    """Recover the Hodge-table level (g, ell) from Hurwitz numbers.

    For each admissible index multiset N the profile mu = N + 1 gives
    one equation sum_n prod(mu_i^n_i) T(n) = normalized h(g, mu); the
    resulting square system is solved by exact Gaussian elimination.
    """
    if 2 * g - 2 + ell < 1:
        raise ValueError(f"unstable (g,ell)=({g},{ell})")
    dim = 3 * g - 3 + ell

    def multisets(size: int, bound: int, total: int):
        if size == 0:
            yield ()
            return
        for first in range(min(bound, total), -1, -1):
            for rest in multisets(size - 1, first, total - first):
                yield (first,) + rest

    unknowns = [n for n in multisets(ell, dim, dim)]
    index_of = {n: i for i, n in enumerate(unknowns)}
    size = len(unknowns)

    rows = []
    rhs = []
    for n_row in unknowns:
        mu = tuple(m + 1 for m in n_row)
        coeffs = [_elsv_weight(mu, n_col) for n_col in unknowns]
        h = h_direct(g, mu)
        r = 2 * g - 2 + ell + sum(mu)
        normalized = h * aut(mu) / factorial(r)
        for m in mu:
            normalized = normalized * factorial(m) / rat(m) ** m
        rows.append(coeffs)
        rhs.append(normalized)

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
                   check: bool = False,
                   hodge_table: Optional[HodgeTable] = None,
                   chi_budget: Optional[int] = None) -> list[dict]:
    """Rows of simple Hurwitz numbers, deterministically ordered.

    Stable profiles are computed through the Hodge-integral formula;
    levels it cannot see (genus 0 with fewer than three parts), or
    whose complexity 2g-2+ell exceeds ``chi_budget``, fall back to
    the branch-point recursion.  With ``check`` every row is
    recomputed by the recursion and compared exactly.
    """
    if g_max < 1:
        raise ValueError("g-max must be ≥ 1 for the Hurwitz table")
    if d_max < 1:
        raise ValueError("d-max must be ≥ 1")
    if hodge_table is None:
        from hodgehurwitz.hodge_solver import default_table
        hodge_table = default_table()
    rows = []
    genera = range(0 if include_genus_zero else 1, g_max + 1)
    for g in genera:
        for d in range(1, d_max + 1):
            for mu in _partitions(d):
                chi = 2 * g - 2 + len(mu)
                if chi >= 1 and (chi_budget is None or chi <= chi_budget):
                    how = "elsv"
                    value = hurwitz_elsv(g, mu, table=hodge_table)
                else:
                    how = "direct"
                    value = h_direct(g, mu)
                checked = False
                if check:
                    other = h_direct(g, mu)
                    if other != value:
                        raise ValueError(
                            f"pipelines disagree at h({g}, {mu}): "
                            f"{how} gives {value}, direct gives {other}")
                    checked = True
                rows.append({
                    "g": g,
                    "mu": list(mu),
                    "h": value,
                    "method": how,
                    "checked": checked,
                })
    return rows

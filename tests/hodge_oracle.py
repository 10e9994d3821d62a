"""Test-side oracles for the Hodge solver and the series layer.

The solver builds each right side folded, in labels and in integers.
These build the same recursions expanded, as genuine multivariate
polynomials in (t_1..t_ell) or (t, t_1..t_ell), and read a level off an
expanded identity; ``join_pair_poly`` and ``cut_pair_poly`` build the
cut-and-join kernels by polynomial products and ``divided_difference``.
The tests compare the solver's integer path against them.  A
multivariate polynomial is a dict from exponent tuples, one entry per
variable position, to nonzero rationals: the form in which the solver
reads its kernels.  ``poly_add``, ``poly_scale`` and ``poly_mul`` are its
ring operations; the expanded right sides run them on ints over one
denominator per right side.

The series layer stores each series as integers over one denominator
and forms powers only through the degree a composition reads.
``fraction_mul`` is the product as a loop of rational multiplies and
adds, the other ``fraction_*`` functions are the sum, scaling, shift,
truncation, derivative and reciprocal the same way, one rational per
coefficient, and ``laurent_substitute_uncapped`` composes from powers
formed over their whole honest window with ``fraction_mul``; the tests
compare these with the series layer.
``xi_in_x_check``, ``permute_vars``, ``from_univariate`` and
``distinct_permutations`` serve only these checks.
"""

from itertools import permutations
from math import factorial, lcm
from operator import add
from typing import Iterator, NamedTuple

from hodgehurwitz.exact_algebra import ZERO, Rational, TruncationError, \
    aut, rat
from hodgehurwitz.hodge_solver import HodgeTable
from hodgehurwitz.level_solve import _KERNELS, _in_basis, _Kernel, \
    _recursion_terms, _run_extraction
from hodgehurwitz.series import LaurentSeries, laurent_reciprocal, \
    laurent_substitute
from hodgehurwitz.xi_tower import xi_hat


def distinct_permutations(items: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Each distinct ordering of ``items`` once."""
    if not items:
        yield ()
        return
    seen = set()
    for i, v in enumerate(items):
        if v in seen:
            continue
        seen.add(v)
        for rest in distinct_permutations(items[:i] + items[i + 1:]):
            yield (v,) + rest


def poly_add(a: dict, b: dict) -> dict:
    """a + b."""
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def poly_scale(p: dict, c) -> dict:
    """c p."""
    return {e: v * c for e, v in p.items()} if c else {}


def poly_mul(a: dict, b: dict) -> dict:
    """a b."""
    out = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            e = tuple(map(add, e1, e2))
            s = out.get(e, 0) + v1 * v2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def from_univariate(p: dict, width: int, slot: int) -> dict:
    """Embed a univariate polynomial ``{degree: coefficient}`` into
    position ``slot`` of ``width`` variables."""
    return {(0,) * slot + (d,) + (0,) * (width - slot - 1): v
            for d, v in p.items()}


def permute_vars(p: dict, order: tuple[int, ...]) -> dict:
    """Relabel the variables of ``p``: position i of the result takes
    the exponent at position ``order[i]`` (for symmetry checks)."""
    return {tuple(e[j] for j in order): v for e, v in p.items()}


def divided_difference(p: dict, ix: int, iy: int) -> dict:
    """Exact quotient p / (x - y) for p divisible by (x - y), with x and
    y the variables at positions ``ix`` and ``iy``.

    The input must vanish on the diagonal x = y (equivalently, be
    divisible by x - y); a nonzero remainder raises ``ValueError("not
    antisymmetric")`` since it signals a bug upstream.
    """
    rem = dict(p)
    quot: dict[tuple[int, ...], Rational] = {}
    while rem:
        e = max(rem, key=lambda e: (e[ix], e))
        if e[ix] == 0:
            raise ValueError("not antisymmetric")
        c = rem.pop(e)
        q = e[:ix] + (e[ix] - 1,) + e[ix + 1:]
        s = quot.get(q, ZERO) + c
        if s:
            quot[q] = s
        else:
            del quot[q]
        # subtract c * x^(a-1) * (x - y) * rest: the x^a term cancels,
        # leaving a lower term with the exponent moved onto y.
        e2 = list(q)
        e2[iy] += 1
        e2 = tuple(e2)
        s = rem.get(e2, ZERO) + c
        if s:
            rem[e2] = s
        else:
            rem.pop(e2, None)
    return quot


def fraction_mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """a * b by rational multiplies and adds, one pair of terms at a
    time, with the honest truncation min(T_a + m_b, T_b + m_a)."""
    ta, tb = a._trunc_key(), b._trunc_key()
    t = min(ta + b.min_degree, tb + a.min_degree)
    trunc = None if t >= (1 << 61) else t
    d: dict[int, Rational] = {}
    for k1, v1 in a.coeffs.items():
        for k2, v2 in b.coeffs.items():
            k = k1 + k2
            if trunc is not None and k > trunc:
                continue
            s = d.get(k, ZERO) + v1 * v2
            if s:
                d[k] = s
            else:
                del d[k]
    return LaurentSeries(d, a.var, a.min_degree + b.min_degree, trunc)


def fraction_add(a: LaurentSeries, b: LaurentSeries,
                 sign: int = 1) -> LaurentSeries:
    """a + sign * b, one rational add per degree, cut at the lesser
    truncation order."""
    ta, tb = a._trunc_key(), b._trunc_key()
    trunc = None if min(ta, tb) >= (1 << 62) else min(ta, tb)
    d = dict(a.coeffs)
    for k, v in b.coeffs.items():
        d[k] = d.get(k, ZERO) + sign * v
    d = {k: v for k, v in d.items()
         if v and (trunc is None or k <= trunc)}
    return LaurentSeries(d, a.var, min(a.min_degree, b.min_degree), trunc)


def fraction_scale(a: LaurentSeries, c) -> LaurentSeries:
    return LaurentSeries({k: v * c for k, v in a.coeffs.items()}, a.var,
                         a.min_degree, a.truncation_order)


def fraction_shift(a: LaurentSeries, step: int) -> LaurentSeries:
    t = a.truncation_order
    return LaurentSeries({k + step: v for k, v in a.coeffs.items()}, a.var,
                         a.min_degree + step, None if t is None else t + step)


def fraction_truncate(a: LaurentSeries, order: int) -> LaurentSeries:
    return LaurentSeries({k: v for k, v in a.coeffs.items() if k <= order},
                         a.var, a.min_degree, order)


def fraction_derivative(a: LaurentSeries) -> LaurentSeries:
    t = a.truncation_order
    return LaurentSeries({k - 1: k * v for k, v in a.coeffs.items()}, a.var,
                         a.min_degree - 1, None if t is None else t - 1)


def fraction_reciprocal(s: LaurentSeries, order=None) -> LaurentSeries:
    """1/s by the recurrence inv_m = -(sum_{i>=1} s_i inv_{m-i})/s_0 in
    rationals, with the truncation order of ``laurent_reciprocal``:
    T - 2 val(s) for s truncated at T, or ``order`` (the lesser of the
    two when both are given; an exact monomial needs none)."""
    c = s.coeffs
    val = min(c)
    t = s.truncation_order
    out_t = order if t is None else (
        t - 2 * val if order is None else min(t - 2 * val, order))
    if out_t is None and len(c) > 1:
        raise ValueError("an exact non-monomial needs an order")
    top = 0 if out_t is None else out_t + val
    inv = [1 / c[val]]
    for m in range(1, top + 1):
        inv.append(-sum(c.get(val + i, ZERO) * inv[m - i]
                        for i in range(1, m + 1)) / c[val])
    return LaurentSeries({m - val: v for m, v in enumerate(inv)
                          if v and (out_t is None or m - val <= out_t)},
                         s.var, -val, out_t)


def laurent_substitute_uncapped(p, s: LaurentSeries) -> LaurentSeries:
    """``laurent_substitute(p, s)`` from powers of s and 1/s formed over
    their whole honest window by ``fraction_mul``; the cap
    (T_p + 1) val(s) - 1 of a truncated ``p`` is applied to the sum."""
    cap = None
    if isinstance(p, LaurentSeries) and p.truncation_order is not None:
        val = s.valuation()
        if val is None or val < 1:
            raise TruncationError("inner series needs valuation >= 1")
        cap = (p.truncation_order + 1) * val - 1
    coeffs = p.coeffs if isinstance(p, LaurentSeries) else p
    result = LaurentSeries.zero(s.var)
    pos, neg = [s], []
    for d, c in sorted(coeffs.items()):
        if d > 0:
            while len(pos) < d:
                pos.append(fraction_mul(pos[-1], s))
            result = result + pos[d - 1].scale(c)
        elif d < 0:
            if not neg:
                neg.append(laurent_reciprocal(s))
            while len(neg) < -d:
                neg.append(fraction_mul(neg[-1], neg[0]))
            result = result + neg[-d - 1].scale(c)
    if coeffs.get(0):
        result = result + LaurentSeries.exact({0: coeffs[0]}, s.var)
    if cap is not None and cap < result._trunc_key():
        result = result.truncate(cap)
    return result


def xi_in_x_check(n: int, order: int) -> bool:
    """xi_hat_n on the global coordinate series of the curve.

    t(x) = sum_{k>=0} k^k x^k / k! inverts the covering map in the
    coordinate x; composing gives xi_hat_n(t(x)) = sum_{k>=1}
    k^{k+n} x^k / k!, checked through x^order.  Valid for n >= -1.
    """
    if n < -1:
        raise ValueError("check defined for n >= -1")
    t_of_x = LaurentSeries(
        {k: rat(k ** k, factorial(k)) for k in range(order + 1)},
        "x", 0, order)
    if n >= 0:
        got = laurent_substitute(xi_hat(n), t_of_x)
    else:
        got = laurent_substitute(LaurentSeries.exact({0: 1, 1: -1}, "1/t"),
                                 laurent_reciprocal(t_of_x))
    if got.coefficient(0) != 0:
        return False
    for k in range(1, order + 1):
        if got.coefficient(k) != rat(k ** (k + n), factorial(k)):
            return False
    return True


class XiIdentity(NamedTuple):
    """One recursion instance: an exact polynomial right-hand side plus
    the shape of the linear operator acting on the unknowns."""

    unknown_shape: str  # "bm" | "cutjoin"
    g: int
    variables: tuple[str, ...]
    rhs: dict


def join_pair_poly(m: int) -> dict:
    """(xi_hat_{m+1}(x) xi_hat_0(y) x^2 - (x <-> y)) / (x - y), as terms."""
    ax, ay = (from_univariate(xi_hat(m + 1), 2, slot) for slot in (0, 1))
    zx, zy = (from_univariate(xi_hat(0), 2, slot) for slot in (0, 1))
    p = poly_add(poly_mul(poly_mul(ax, zy), {(2, 0): 1}),
                 poly_scale(poly_mul(poly_mul(ay, zx), {(0, 2): 1}), -1))
    return divided_difference(p, 0, 1)


def cut_pair_poly(a: int, b: int) -> dict:
    """xi_hat_{a+1} xi_hat_{b+1}, as terms."""
    return poly_mul(from_univariate(xi_hat(a + 1), 1, 0),
                    from_univariate(xi_hat(b + 1), 1, 0))


def rebuilt(converted: tuple[int, dict], kernel: _Kernel,
            width: int) -> dict:
    """The polynomial in ``width`` variables that a folded conversion
    (D, {labels: int}) stands for: each key's mass c/D spread evenly over
    the distinct orders of its labels past ``kernel.head``, each order
    the product of one basis polynomial per variable."""
    den, ints = converted
    head = kernel.head
    total = {}
    for key, c in ints.items():
        orders = list(distinct_permutations(key[head:]))
        for order in orders:
            term = {(0,) * width: rat(c, den * len(orders))}
            for slot, k in enumerate(key[:head] + order):
                term = poly_mul(term, from_univariate(kernel.basis(k), width,
                                                   slot))
            total = poly_add(total, term)
    return total


def _embed(terms: dict, width: int, slots: tuple[int, ...]) -> dict:
    """Place the exponent tuples of ``terms`` in positions ``slots`` of
    ``width`` variables."""
    out = {}
    for exps, c in terms.items():
        vec = [0] * width
        for slot, e in zip(slots, exps):
            vec[slot] = e
        if c:
            out[tuple(vec)] = c
    return out


def _cleared(terms: dict) -> tuple[int, dict]:
    """Rational ``terms`` as (D, {exponents: int}), each coefficient
    int/D."""
    den = lcm(*(Rational(c).denominator for c in terms.values()))
    return den, {e: int(Rational(c) * den) for e, c in terms.items()}


def _rhs_expanded(kernel: _Kernel, table: HodgeTable, g: int,
                  width: int, slots) -> dict:
    """``kernel``'s right side in ``width`` variables, summed over the
    choice of the distinguished slot among ``slots``; every other
    variable is a spectator.  Its unknowns live at level (g, width).

    Each pair's spectators go in every distinct order, each weighted
    q' = weight q |Aut(spectators)|; its terms are cleared once, and the
    products run on ints over the lcm L of every pair's D den(q')."""
    pairs = []
    for ((part, *indices), spectators), q in _recursion_terms(
            table.level_entries, g, width).items():
        terms = getattr(kernel, part)(*indices)
        if terms:
            den, ints = _cleared(terms)
            q *= kernel.weight * aut(spectators)
            pairs.append((ints, spectators, int(q.numerator),
                          den * int(q.denominator)))
    level = lcm(*(den for *_, den in pairs))
    total = {}
    for terms, spectators, num, den in pairs:
        factor = num * (level // den)
        picks = len(next(iter(terms))) - 1
        for slot in slots:
            others = [s for s in range(width) if s != slot]
            for picked in permutations(others, picks):
                base = poly_scale(_embed(terms, width, (slot,) + picked),
                                  factor)
                free = [s for s in others if s not in picked]
                for order in distinct_permutations(spectators):
                    term = base
                    for s, w in zip(free, order):
                        term = poly_mul(term, from_univariate(
                            kernel.basis(2 * w + kernel.parity), width, s))
                    total = poly_add(total, term)
    return {e: Rational(c, level) for e, c in total.items()}


def cutjoin_rhs(g: int, ell: int, table: HodgeTable) -> XiIdentity:
    """The cut-and-join identity at level (g, ell), expanded.

    Returns the exact right-hand side in (t_1..t_ell) together with the
    left-hand operator description: the unknowns of the level itself
    enter through (2g-2+ell) prod xi_hat_{n_i} plus the promoted terms
    sum_i xi_hat_{n_i + 1}(t_i)/t_i prod_{j != i} xi_hat_{n_j}.  The
    right side is the recursion sum with its distinguished slot summed
    over every t_i; the weight 1/2 counts each symmetric join pair once.
    """
    variables = tuple(f"t_{i}" for i in range(1, ell + 1))
    total = _rhs_expanded(_KERNELS["cutjoin"], table, g, ell, range(ell))
    return XiIdentity("cutjoin", g, variables, total)


def bm_rhs(g: int, ell: int, table: HodgeTable) -> dict:
    """The residue-form identity's right-hand side in (t, t_1..t_ell).

    Its unknowns live at level (g, ell + 1); an empty polynomial means
    the level is not determined by the recursion (a base case).
    """
    if 2 * g - 1 + ell < 1:
        raise ValueError(f"unstable (g,ell)=({g},{ell + 1})")
    if 2 * g - 1 + ell < 2:
        return {}
    return _rhs_expanded(_KERNELS["bm"], table, g, ell + 1, (0,))


def extract_in_xi_basis(identity: XiIdentity) -> dict:
    """Solve an expanded identity for its unknown coefficients.

    Converts the right-hand side into the shape's label basis and folds
    it (faithful: both recursion forms are symmetric in the t_i), then
    reads each unknown off its keys directly.  For the "bm" shape the
    returned keys are (n_0, n_1, ..) with n_0 the t-slot index; for
    "cutjoin" they are non-increasing index tuples.  Disagreeing reads
    or a nonzero remainder raise "identity violated".
    """
    shape, g = identity.unknown_shape, identity.g
    n_vars = len(identity.variables)
    kernel = _KERNELS.get(shape)
    if kernel is None:
        raise ValueError(f"unknown identity shape {shape!r}")
    if kernel.head and identity.variables[0] != "t":
        raise ValueError(f"{shape} identities carry the distinguished "
                         "variable t in slot 0")
    den, ints = _in_basis(identity.rhs, kernel)
    den *= factorial(n_vars - kernel.head)
    folded = {key: rat(c, den) for key, c in ints.items()}
    return _run_extraction(folded, kernel, g, n_vars,
                           f"extraction (g={g}, {shape})")



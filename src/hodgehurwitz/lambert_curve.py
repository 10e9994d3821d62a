"""Series and polynomial data attached to the Lambert curve.

The curve x = y e^{-y} carries a distinguished coordinate t in which
the covering map is w(t) = -1/t - log(1 - 1/t) = sum_{m>=2} t^{-m}/m.
This module builds, in exact arithmetic, on the series layer
(``series``) and the xi_hat tower (``xi_tower``):

* the deck transformation (involution) ``s_involution``, the second
  solution of w(s) = w(t), the branch coordinate ``v_series`` with
  v^2/2 = w, and the Stirling expansion coefficients
  ``stirling_coefficients``;
* the odd Laurent family ``eta_series`` in v, plus the identity checks
  tying all of these together as truncated series.

Series in t live in the formal variable "1/t": stored degree d is the
coefficient of t^{-d}, so polynomials in t occupy degrees <= 0.

Each series is computed once per process.  The Stirling coefficients
grow as a module list; ``eta_series`` is memoized per argument.
s(t) and v(t) are grow-only: the process holds each at the highest
order requested so far and serves a lower order as its truncation; a
higher order is reached by resuming from the series held, and the
defining equation is verified at the new orders (see ``_solve_s``).

s(t) comes from the ODE s' t^2 (t - 1) = s^2 (s - 1), which is
w'(s) s' = w'(t) with w'(t) = -1/(t^2 (t - 1)).  Its coefficients in
1/t follow one by one from s = -t + ..., each at O(n) cost through a
running list of the coefficients of s^2, so N of them cost O(N^2)
rational operations; the check of w(s) = w(t) that follows is a
product of series, O(N^2) operations on Python ints (see ``_solve_s``).
v(t) follows the same way, from y^2 = 2 w t^2 for y = t v (see
``_solve_v``).
``s_powers`` and ``v_powers`` share the powers of the series served at
one order across every composition into it.  Cached values are never
mutated.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Optional

from hodgehurwitz.exact_algebra import HALF, ONE, ZERO, bernoulli, \
    double_factorial, rat
from hodgehurwitz.series import LaurentSeries, SeriesPowers, \
    laurent_reciprocal, laurent_substitute
from hodgehurwitz.xi_tower import xi_hat


def poly_as_recip_series(p: dict) -> LaurentSeries:
    """Embed a polynomial in t, ``{degree: coefficient}``, exactly into
    the 1/t series ring."""
    return LaurentSeries.exact({-d: c for d, c in p.items()}, "1/t")


def d_dt(series: LaurentSeries) -> LaurentSeries:
    """t-derivative of a series in the variable 1/t.

    With u = 1/t, d/dt = -u^2 d/du, so degree d maps to degree d+1 with
    coefficient -d.  An unknown tail from degree T+1 feeds degree T+2
    onward, hence the result is honest through T+1.
    """
    if series.var != "1/t":
        raise ValueError(f"expected a series in 1/t, got {series.var!r}")
    t = series.truncation_order
    return LaurentSeries._of(
        "1/t", series.min_degree + 1, None if t is None else t + 1,
        series.den, series.lo + 1,
        [-d * n for d, n in enumerate(series.ints, series.lo)])


# ---------------------------------------------------------------------------
# the covering map and its inversions


def w_series(order: int) -> LaurentSeries:
    """w(t) = sum_{m >= 2} t^{-m}/m, truncated at t^{-order}."""
    if order < 2:
        raise ValueError("w_series needs order >= 2")
    den = math.lcm(*range(2, order + 1))
    return LaurentSeries._of("1/t", 2, order, den, 2,
                             [den // m for m in range(2, order + 1)])


def _s_coefficients(held: list, order: int) -> list:
    """c_{-1} .. c_order of s(t) = sum_k c_k t^-k, continuing the
    recurrence from ``held`` = [c_{-1}, ..., c_T].

    In the list, c[i] is c_{i-1}, and sq[j] = sum_{a<=j} c[a] c[j-a] is
    the coefficient of t^-(j-2) in s^2.  Comparing t^-(n-2) on both
    sides of s' t^2 (t - 1) = s^2 (s - 1) gives

        (n + 3) c_n = (n - 1) c_{n-1} + P - R + [s^2]_{n-2},
        P = sum_{a=1}^{n} c[a] c[n+1-a],  R = sum_{a=1}^{n} c[a] sq[n+1-a],

    where c_n enters s^3 three times (through c_{-1}^2 = 1) and s' once.
    Then [s^2]_{n-1} = P - 2 c_n extends sq, so each c_n costs O(n).
    """
    c = list(held)
    sq = [sum(c[a] * c[j - a] for a in range(j + 1)) for j in range(len(c))]
    for n in range(len(c) - 1, order + 1):
        p = r = ZERO
        for a in range(1, n + 1):
            p += c[a] * c[n + 1 - a]
            r += c[a] * sq[n + 1 - a]
        cn = ((n - 1) * c[n] + p - r + sq[n]) / (n + 3)
        c.append(cn)
        sq.append(p - 2 * cn)
    return c


def _solve_s(order: int,
             seed: Optional[LaurentSeries] = None) -> LaurentSeries:
    """Solve for the deck transformation s(t) through t^-order.

    Differentiating w(s) = w(t) with w'(t) = -1/(t^2 (t - 1)) gives the
    ODE s' t^2 (t - 1) = s^2 (s - 1).  In u = 1/t, with
    s = sum_{k >= -1} c_k u^k, the u^-3 term reads c_{-1} = c_{-1}^3:
    c_{-1} = 1 is the identity s = t, and c_{-1} = -1 picks the deck
    transformation.  Every later c_n solves a linear equation with the
    coefficient n + 3, which never vanishes, so the branch and the
    coefficients are unique (``_s_coefficients``).  Keeping the
    coefficients of s^2 as they grow makes c_n cost O(n), so N
    coefficients cost O(N^2) rational operations.  ``seed``, an earlier
    solve at a lower order, resumes the recurrence from the
    coefficients it holds.

    The result is then verified against the defining equation itself.
    With x = 1/sigma, W(sigma) = sum_{m >= 2} x^m/m = -x - log(1 - x),
    whose u-derivative is x' x/(1 - x), so k [u^k] W(sigma) is the
    coefficient of u^k in the series product (u x') x/(1 - x), which
    needs x only through u^(k-1) and costs O(N^2) in all; it must equal
    k [u^k] w = 1 for every k >= 2.

    The lag.  Write sigma = u^-1 (c_{-1} + c_0 u + ...) and x = u y with
    y = 1/(c_{-1} + c_0 u + ...), so y_i reads c_{-1}..c_{i-1}.  Then
    [u^k] x^m = [u^(k-m)] y^m reads c_j only for j <= k - m - 1, and
    [u^k] W(sigma) reads c_j only for j <= k - 3 (every m >= 2).  The
    newest of them, c_{k-3}, enters only through x^2/2, as
    y_0 y_{k-2} = -c_{k-3}/c_{-1}^3 + (lower c): with c_{-1} = -1 an error
    d in c_{k-3} alone moves the residual W(sigma) - w at u^k by d.  So
    the residual vanishing through u^(order + 3) pins sigma through
    u^order, and its coefficients through u^(T + 3) read only the
    coefficients c_{-1}..c_T of a seed at order T, which the seed's own
    solve checked and the recurrence passes on unchanged.  A growth from
    a seed therefore compares only u^(T + 4) .. u^(order + 3); the
    memo seeds only with series this function returned.  A wrong held
    coefficient still shows there in general: the new coefficients obey
    the ODE, whose residual is then nonzero below the seam, and
    d/dt (W(s) - w) = -(s' t^2 (t - 1) - s^2 (s - 1)) /
    (s^2 (s - 1) t^2 (t - 1)) carries it past the seam.
    """
    held = [-ONE] if seed is None else [
        seed.coefficient(k) for k in range(-1, seed.truncation_order + 1)]
    c = _s_coefficients(held, max(order, 1))
    if c[2] != 0:
        raise RuntimeError("involution acquired a t^-1 term (internal error)")
    sigma = LaurentSeries(dict(enumerate(c[:order + 2], -1)), "1/t", -1,
                          order)
    x = laurent_reciprocal(sigma)  # 1/sigma, honest through order + 2
    one = LaurentSeries.exact({0: 1}, "1/t")
    # u dW(sigma)/du = (u x') x/(1 - x), honest through order + 3
    dw = x.derivative().shift(1) * (x * laurent_reciprocal(one - x))
    start = 2 if seed is None else len(held) + 2
    if dw.lo > start or dw.ints[start - dw.lo:order + 4 - dw.lo] != \
            [dw.den] * (order + 4 - start):
        raise RuntimeError(
            "involution recurrence violates w(s) = w(t) (internal error)")
    return sigma


def _v_coefficients(held: list, order: int) -> list:
    """y_0 .. y_{order-1} of y = t v(t) = sqrt(2 w t^2), continuing the
    recurrence from ``held`` = [y_0, ..., y_T].

    With 2 w t^2 = sum_{n>=0} 2/(n + 2) t^-n, comparing t^-n in
    y^2 = 2 w t^2 gives 2 y_n = 2/(n + 2) - sum_{0<k<n} y_k y_{n-k},
    from y_0 = 1, so each y_n costs O(n).
    """
    y = list(held)
    for n in range(len(y), order):
        y.append(rat(1, n + 2)
                 - HALF * sum(y[k] * y[n - k] for k in range(1, n)))
    return y


def _solve_v(order: int,
             seed: Optional[LaurentSeries] = None) -> LaurentSeries:
    """Solve for the branch coordinate v(t) = y/t through t^-order.

    y = sqrt(A), A = 2 w t^2, follows from its recurrence
    (``_v_coefficients``), resumed from the coefficients of ``seed``, an
    earlier solve at a lower order, and is verified by y^2 = A before use.
    """
    held = [ONE] if seed is None else [
        seed.coefficient(k + 1) for k in range(seed.truncation_order)]
    y = _v_coefficients(held, order)
    y = LaurentSeries(dict(enumerate(y)), "1/t", 0, order - 1)
    if not (y * y - w_series(order + 1).shift(-2).scale(2)).is_zero():
        raise RuntimeError("square-root recurrence failed (internal error)")
    return y.shift(1)


class _CurveMemo:
    """The curve series of one process: s(t) and v(t), each held at the
    highest order solved so far, and the power tables of the series
    served at each order."""

    def __init__(self):
        self.top: dict[str, LaurentSeries] = {}
        self.powers: dict[tuple[str, int], SeriesPowers] = {}

    def serve(self, name: str, order: int, solve) -> LaurentSeries:
        """The series ``name`` through t^-order.  A lower order than the
        one held is its truncation; a higher one is solved by ``solve``,
        seeded with the series held."""
        top = self.top.get(name)
        if top is None or top.truncation_order < order:
            top = self.top[name] = solve(order, top)
        return top.truncate(order)

    def table(self, name: str, series: LaurentSeries) -> SeriesPowers:
        """The shared power table of a served series, keyed by its order."""
        key = (name, series.truncation_order)
        table = self.powers.get(key)
        if table is None:
            table = self.powers[key] = SeriesPowers(series)
        return table


_CURVE = _CurveMemo()


def s_involution(order: int) -> LaurentSeries:
    """The deck transformation s(t): the second solution of w(s) = w(t),
    truncated at t^-order.  Solved once per process and grown on demand
    (see ``_solve_s``)."""
    if order < 0:
        raise ValueError("s_involution needs order >= 0")
    return _CURVE.serve("s", order, _solve_s)


def v_series(order: int) -> LaurentSeries:
    """The branch coordinate v(t) with v^2/2 = w and leading term +1/t,
    truncated at t^-order.  Solved once per process and grown on demand
    (see ``_solve_v``)."""
    if order < 1:
        raise ValueError("v_series needs order >= 1")
    return _CURVE.serve("v", order, _solve_v)


def s_powers(order: int) -> SeriesPowers:
    """Powers of ``s_involution(order)`` and of 1/s, formed once."""
    return _CURVE.table("s", s_involution(order))


def v_powers(order: int) -> SeriesPowers:
    """Powers of ``v_series(order)`` and of 1/v, formed once."""
    return _CURVE.table("v", v_series(order))


# ---------------------------------------------------------------------------
# Stirling coefficients and the eta family


_STIRLING: list = [ONE]


def stirling_coefficients(k_max: int) -> list:
    """s_0 .. s_{k_max}: exp(-sum_{r>=1} B_{2r}/(2r(2r-1)) z^{2r-1}).

    Computed through the ODE f' = g' f of the exponential, i.e.
    m f_m = sum_j j g_j f_{m-j}, so every prefix is exact.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    while len(_STIRLING) <= k_max:
        m = len(_STIRLING)
        acc = ZERO
        for j in range(1, m + 1, 2):
            r = (j + 1) // 2
            g_j = -bernoulli(2 * r) / (2 * r * (2 * r - 1))
            acc += j * g_j * _STIRLING[m - j]
        _STIRLING.append(acc / m)
    return _STIRLING[:k_max + 1]


@cache
def eta_series(n: int, order: int) -> LaurentSeries:
    """The odd Laurent series eta_n(v), truncated at v^order.

    eta_n(v) = sum_{k>=0} s_k (2(n-k)-1)!! v^{2(k-n)-1}, an odd series
    starting at v^{-(2n+1)}; the double factorial at negative odd
    arguments follows the recurrence extension.
    """
    coeffs = {}
    k = 0
    while True:
        d = 2 * (k - n) - 1
        if d > order:
            break
        coeffs[d] = (stirling_coefficients(k)[k]
                     * double_factorial(2 * (n - k) - 1))
        k += 1
    return LaurentSeries(coeffs, "v", -(2 * n + 1), order)


# ---------------------------------------------------------------------------
# identity checks (exercised by the verify suite and the tests)


def eta_xi_identity_check(n: int, order: int) -> bool:
    """eta_n(v(t)) == (xi_hat_n(t) - xi_hat_n(s(t)))/2, as 1/t-series.

    Valid for n >= -1.  Raises if the requested order leaves no honest
    comparison window, which for n >= 0 opens at order 2n + 2.
    """
    if n < -1:
        raise ValueError("identity holds for n >= -1")
    s = s_powers(order)
    lhs = v_powers(order).substitute(eta_series(n, order))
    xh = xi_hat(n)
    if n >= 0:
        rhs = poly_as_recip_series(xh) - s.substitute(xh)
    else:
        # xi_hat_{-1} lives in the 1/t ring already; composing with s
        # means substituting 1/s(t) for its variable.
        rhs = xh - laurent_substitute(xh, s.power(-1))
    diff = lhs - rhs.scale(HALF)
    if diff.truncation_order is not None and diff.truncation_order < 0:
        raise ValueError(
            f"order {order} too small to compare eta_{n} against xi_hat_{n}")
    return diff.is_zero()


def _bivariate_mul(a: dict, b: dict, cap: int) -> dict:
    out: dict[tuple[int, int], int] = {}
    for (e1, e2), c in a.items():
        for (f1, f2), d in b.items():
            g1, g2 = e1 + f1, e2 + f2
            if g1 + g2 <= cap:
                out[(g1, g2)] = out.get((g1, g2), 0) + c * d
    return out


def h02_series_identity_check(order: int) -> bool:
    """The two-point genus-zero generating identity, through total
    degree ``order``:

        sum_{(m1,m2) != (0,0)}  m1^m1 m2^m2 / (m1! m2! (m1+m2)) x1^m1 x2^m2
          ==  log( sum_{k>=1} (k^{k-1}/k!) (x1^k - x2^k)/(x1 - x2) )

    with 0^0 = 1.  Both sides are expanded exactly as bivariate series,
    in integers: times L F^order, with F = (order + 1)! and
    L = lcm(1..order), every coefficient of either side is an integer.
    """
    if order < 2:
        raise ValueError("h02 check needs order >= 2")
    fac = math.factorial
    f, lcm = fac(order + 1), math.lcm(*range(1, order + 1))
    lhs: dict[tuple[int, int], int] = {}
    for m1 in range(order + 1):
        for m2 in range(order - m1 + 1):
            if m1 == 0 and m2 == 0:
                continue
            lhs[(m1, m2)] = (m1 ** m1 * m2 ** m2 * f // (fac(m1) * fac(m2))
                             * (lcm // (m1 + m2)) * f ** (order - 1))
    # F (inner sum - 1); (x1^k - x2^k)/(x1 - x2) = sum_{a+b=k-1} x1^a x2^b,
    # and the k = 1 term cancels the 1
    h = {(a, k - 1 - a): f // fac(k) * k ** (k - 1)
         for k in range(2, order + 2) for a in range(k)}
    # log(1 + h) = sum_j (-1)^(j+1) h^j / j, times L F^order
    rhs: dict[tuple[int, int], int] = {}
    power = h
    for j in range(1, order + 1):
        c = (1 if j % 2 else -1) * (lcm // j) * f ** (order - j)
        for e, n in power.items():
            rhs[e] = rhs.get(e, 0) + n * c
        if j < order:
            power = _bivariate_mul(power, h, order)
    return lhs == {e: n for e, n in rhs.items() if n}

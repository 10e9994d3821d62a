"""Series and polynomial data attached to the Lambert curve.

The curve x = y e^{-y} carries a distinguished coordinate t in which
the covering map is w(t) = -1/t - log(1 - 1/t) = sum_{m>=2} t^{-m}/m.
This module builds, in exact arithmetic, on the series layer
(``series``) and the xi_hat tower (``xi_tower``):

* the deck transformation (involution) ``s_involution``, the second
  solution of w(s) = w(t), the branch coordinate ``v_series`` with
  v^2/2 = w, and the Stirling expansion coefficients
  ``stirling_coefficients``, with the special numbers they need
  (``bernoulli``, ``double_factorial``);
* the odd Laurent family ``eta_series`` in v, plus the identity checks
  tying all of these together as truncated series.

Series in t live in the formal variable "1/t": stored degree d is the
coefficient of t^{-d}, so polynomials in t occupy degrees <= 0.

Each series is computed once per process.  The Bernoulli numbers and
the Stirling coefficients grow as module lists; ``eta_series`` is
memoized per argument, and so are s(t) and v(t), per truncation order:
each order is solved once, and every solve is checked against its
defining equation from its first order (see ``_solve_s``).

s(t) comes from the ODE s' t^2 (t - 1) = s^2 (s - 1), which is
w'(s) s' = w'(t) with w'(t) = -1/(t^2 (t - 1)).  Its coefficients in
1/t follow one by one from s = -t + ..., each at O(n) cost through a
running list of the coefficients of s^2, so N of them cost O(N^2)
operations on Python ints over one running denominator
(``_RunningInts``); the check of w(s) = w(t) that follows is a product
of series, O(N^2) operations on Python ints (see ``_solve_s``).  v(t)
follows the same way, from y^2 = 2 w t^2 for y = t v (see
``_solve_v``), and so do the Bernoulli numbers and the Stirling
coefficients.
``s_powers`` and ``v_powers`` share the powers of the series at one
order across every composition into it.  Cached values are never
mutated.
"""

from __future__ import annotations

import math
from functools import cache
from operator import mul

from hodgehurwitz.exact_algebra import HALF, Rational
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
    return -(series.derivative().shift(2))


# ---------------------------------------------------------------------------
# the covering map and its inversions


def w_series(order: int) -> LaurentSeries:
    """w(t) = sum_{m >= 2} t^{-m}/m, truncated at t^{-order}."""
    if order < 2:
        raise ValueError("w_series needs order >= 2")
    den = math.lcm(*range(2, order + 1))
    return LaurentSeries._of("1/t", 2, order, den, 2,
                             [den // m for m in range(2, order + 1)])


class _RunningInts:
    """Exact rationals ints[i] / den over one running denominator.

    A new value num/d is appended as an int over den; den, and every
    int held, grows only when d, reduced, does not divide den.
    """

    __slots__ = ("den", "ints")

    def __init__(self, first: int):
        self.den, self.ints = 1, [first]

    def append(self, num: int, d: int) -> int:
        """Append num/d; returns the factor by which den grew."""
        k = d // math.gcd(num, d)
        k //= math.gcd(self.den, k)
        if k != 1:
            self.den *= k
            self.ints = [n * k for n in self.ints]
        self.ints.append(num * self.den // d)
        return k


def _s_coefficients(order: int) -> tuple[int, list]:
    """c_{-1} .. c_order of s(t) = sum_k c_k t^-k, from c_{-1} = -1, as
    (den, ints) with c[i] = ints[i] / den.

    In the list, c[i] is c_{i-1}, and sq[j] = sum_{a<=j} c[a] c[j-a] is
    the coefficient of t^-(j-2) in s^2.  Comparing t^-(n-2) on both
    sides of s' t^2 (t - 1) = s^2 (s - 1) gives

        (n + 3) c_n = (n - 1) c_{n-1} + P - R + [s^2]_{n-2},
        P = sum_{a=1}^{n} c[a] c[n+1-a],  R = sum_{a=1}^{n} c[a] sq[n+1-a],

    where c_n enters s^3 three times (through c_{-1}^2 = 1) and s' once.
    Then [s^2]_{n-1} = P - 2 c_n extends sq, so each c_n costs O(n).
    The sums run on ints: sq is held over den^2, so P is over den^2 and
    R over den^3.
    """
    c, sq = _RunningInts(-1), [1]
    for n in range(order + 1):
        ci, d = c.ints, c.den
        p = sum(map(mul, ci[1:n + 1], ci[n:0:-1]))
        r = sum(map(mul, ci[1:n + 1], sq[n:0:-1]))
        k = c.append(((n - 1) * ci[n] * d + p + sq[n]) * d - r,
                     (n + 3) * d ** 3)
        if k != 1:
            p *= k * k
            sq = [m * k * k for m in sq]
        sq.append(p - 2 * c.ints[-1] * c.den)
    return c.den, c.ints


def _solve_s(order: int) -> LaurentSeries:
    """Solve for the deck transformation s(t) through t^-order.

    Differentiating w(s) = w(t) with w'(t) = -1/(t^2 (t - 1)) gives the
    ODE s' t^2 (t - 1) = s^2 (s - 1).  In u = 1/t, with
    s = sum_{k >= -1} c_k u^k, the u^-3 term reads c_{-1} = c_{-1}^3:
    c_{-1} = 1 is the identity s = t, and c_{-1} = -1 picks the deck
    transformation.  Every later c_n solves a linear equation with the
    coefficient n + 3, which never vanishes, so the branch and the
    coefficients are unique (``_s_coefficients``).  Keeping the
    coefficients of s^2 as they grow makes c_n cost O(n), so N
    coefficients cost O(N^2) operations on Python ints.

    The result is then verified against the defining equation itself.
    With x = 1/sigma, W(sigma) = sum_{m >= 2} x^m/m = -x - log(1 - x),
    whose u-derivative is x' x/(1 - x), so k [u^k] W(sigma) is the
    coefficient of u^k in the series product (u x') x/(1 - x), which
    needs x only through u^(k-1) and costs O(N^2) in all; it must equal
    k [u^k] w = 1 for every k >= 2.  [u^k] W(sigma) reads c_j only for
    j <= k - 3, and the newest, c_{k-3}, enters only through x^2/2 with
    the factor -1/c_{-1}^3 = 1, so the residual vanishing at u^2 ..
    u^(order + 3) pins every coefficient through u^order.
    """
    den, c = _s_coefficients(max(order, 1))
    if c[2]:
        raise RuntimeError("involution acquired a t^-1 term (internal error)")
    sigma = LaurentSeries._of("1/t", -1, order, den, -1, c)
    x = laurent_reciprocal(sigma)  # 1/sigma, honest through order + 2
    one = LaurentSeries.exact({0: 1}, "1/t")
    # u dW(sigma)/du = (u x') x/(1 - x), honest through order + 3
    dw = x.derivative().shift(1) * (x * laurent_reciprocal(one - x))
    if dw.lo > 2 or dw.ints[2 - dw.lo:order + 4 - dw.lo] != \
            [dw.den] * (order + 2):
        raise RuntimeError(
            "involution recurrence violates w(s) = w(t) (internal error)")
    return sigma


def _v_coefficients(order: int) -> tuple[int, list]:
    """y_0 .. y_{order-1} of y = t v(t) = sqrt(2 w t^2), as (den, ints)
    with y_n = ints[n] / den.

    With 2 w t^2 = sum_{n>=0} 2/(n + 2) t^-n, comparing t^-n in
    y^2 = 2 w t^2 gives 2 y_n = 2/(n + 2) - sum_{0<k<n} y_k y_{n-k},
    from y_0 = 1, so each y_n costs O(n).
    """
    y = _RunningInts(1)
    for n in range(1, order):
        yi, d = y.ints, y.den
        q = sum(map(mul, yi[1:n], yi[n - 1:0:-1]))  # over d^2
        y.append(2 * d * d - (n + 2) * q, 2 * (n + 2) * d * d)
    return y.den, y.ints


def _solve_v(order: int) -> LaurentSeries:
    """Solve for the branch coordinate v(t) = y/t through t^-order.

    y = sqrt(A), A = 2 w t^2, follows from its recurrence
    (``_v_coefficients``) and is verified by y^2 = A before use.
    """
    den, y = _v_coefficients(order)
    y = LaurentSeries._of("1/t", 0, order - 1, den, 0, y)
    if not (y * y - w_series(order + 1).shift(-2).scale(2)).is_zero():
        raise RuntimeError("square-root recurrence failed (internal error)")
    return y.shift(1)


@cache
def s_involution(order: int) -> LaurentSeries:
    """The deck transformation s(t), the second solution of w(s) = w(t),
    truncated at t^-order; solved and checked once per order (``_solve_s``)."""
    if order < 0:
        raise ValueError("s_involution needs order >= 0")
    return _solve_s(order)


@cache
def v_series(order: int) -> LaurentSeries:
    """The branch coordinate v(t) with v^2/2 = w and leading term +1/t,
    truncated at t^-order; solved and checked once per order (``_solve_v``)."""
    if order < 1:
        raise ValueError("v_series needs order >= 1")
    return _solve_v(order)


@cache
def s_powers(order: int) -> SeriesPowers:
    """Powers of ``s_involution(order)`` and of 1/s, formed once."""
    return SeriesPowers(s_involution(order))


@cache
def v_powers(order: int) -> SeriesPowers:
    """Powers of ``v_series(order)`` and of 1/v, formed once."""
    return SeriesPowers(v_series(order))


# ---------------------------------------------------------------------------
# Stirling coefficients and the eta family


def double_factorial(n: int) -> Rational:
    """Double factorial of an odd integer, extended to negative arguments.

    For n >= -1 this is the usual product (with (-1)!! = 1, the empty
    product); for n <= -3 it is extended by the recurrence
    n!! = (n+2)!!/(n+2), so (-3)!! = -1, (-5)!! = 1/3, and generally
    (-(2k+1))!! = (-1)^k / (2k-1)!!.
    """
    if n % 2 == 0:
        raise ValueError(f"double factorial of even {n}")
    if n >= -1:
        acc = 1
        for k in range(n, 1, -2):
            acc *= k
        return Rational(acc)
    k = (-n - 1) // 2
    return Rational((-1) ** k, math.prod(range(2 * k - 1, 0, -2)))


_BERNOULLI = _RunningInts(1)


def bernoulli(r: int) -> Rational:
    """Bernoulli number B_r (convention B_1 = -1/2, from z*e^{zx}/(e^z-1)),
    from B_n = -sum_{j<n} C(n+1, j) B_j / (n + 1)."""
    if r < 0:
        raise ValueError("negative Bernoulli index")
    b = _BERNOULLI
    for n in range(len(b.ints), r + 1):
        b.append(-sum(math.comb(n + 1, j) * m for j, m in enumerate(b.ints)),
                 (n + 1) * b.den)
    return Rational(b.ints[r], b.den)


_STIRLING = _RunningInts(1)


def stirling_coefficients(k_max: int) -> list:
    """s_0 .. s_{k_max}: exp(-sum_{r>=1} B_{2r}/(2r(2r-1)) z^{2r-1}).

    Computed through the ODE f' = g' f of the exponential, i.e.
    m f_m = sum_j j g_j f_{m-j}, so every prefix is exact.  For odd j,
    j g_j = -B_{j+1}/(j+1), summed in ints over lcm(2, 4, .., m + 1).
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    f, b = _STIRLING, _BERNOULLI
    bernoulli(k_max + 1)  # B_2 .. B_{k_max+1}, held over b.den
    for m in range(len(f.ints), k_max + 1):
        lcm = math.lcm(*range(2, m + 2, 2))
        acc = sum(b.ints[j + 1] * (lcm // (j + 1)) * f.ints[m - j]
                  for j in range(1, m + 1, 2))
        f.append(-acc, m * lcm * b.den * f.den)
    return [Rational(n, f.den) for n in f.ints[:k_max + 1]]


@cache
def eta_series(n: int, order: int) -> LaurentSeries:
    """The odd Laurent series eta_n(v), truncated at v^order.

    eta_n(v) = sum_{k>=0} s_k (2(n-k)-1)!! v^{2(k-n)-1}, an odd series
    starting at v^{-(2n+1)}; the double factorial at negative odd
    arguments follows the recurrence extension.
    """
    k_top = (order + 2 * n + 1) // 2  # the last k with 2(k-n)-1 <= order
    sk = stirling_coefficients(max(k_top, 0))
    coeffs = {2 * (k - n) - 1: sk[k] * double_factorial(2 * (n - k) - 1)
              for k in range(k_top + 1)}
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
    if n >= 0:
        xh = xi_hat(n)
        rhs = poly_as_recip_series(xh) - s.substitute(xh)
    else:
        # xi_hat_{-1} = 1 - 1/t lives in the 1/t ring already; composing
        # with s means substituting 1/s(t) for its variable.
        xh = LaurentSeries.exact({0: 1, 1: -1}, "1/t")
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

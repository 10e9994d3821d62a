"""Residue polynomials of the topological recursion on the Lambert curve.

Two families are computed, each in two independent ways:

* ``p_ab(a, b)`` — a polynomial in t of degree exactly 2(a+b+2), a
  dict from degrees to nonzero rationals, obtained from the recursion
  kernel t s(t)/(t - s(t)) and the involution s(t); ``p_ab_eta``
  recomputes it from the eta-series in the branch coordinate v.
  Equality of the two forms is a core cross-check of the whole curve
  layer.
* ``p_n(n)`` — a polynomial in (t, t_i) of degree exactly 2n+2 in each
  variable, and its eta-form twin ``p_n_eta``; both are dicts from
  exponent pairs (deg_t, deg_t_i) to nonzero rationals, the form in
  which the Hodge solver reads every kernel.

The direct forms need xi_hat_k(s(t)), and read it off the tower rather
than compose: D = t^2 (t - 1) d/dt, the operator that builds the tower
from xi_hat_0 = t - 1, is -d/dw, and the deck transformation keeps w
fixed, so D commutes with composition by s and
xi_hat_k(s(t)) = D^k (s(t) - 1).  In one line: for F(t) = f(s(t)),
D F = t^2 (t - 1) f'(s) s' = s^2 (s - 1) f'(s) = (D f)(s), by the ODE
s' t^2 (t - 1) = s^2 (s - 1) that s solves.

Each kernel is evaluated once, at truncation order N = degree + 3 for
its exact t-degree: the least order at which the honest truncation
that the series layer tracks reaches t^0.  With s known through t^-N,
K/(t^2 (t - 1)) ~ t^-2 is known through t^-(N - 1); p_ab multiplies it
by a sum ~ t^(degree + 2), so its product is known through
t^-(N - degree - 3).  Every term of the t_i-primitive of p_n is known
through t^-(N - degree) or beyond, so N = degree would do there; one
rule for both families gives p_n(a+b+1) the context of p_ab(a, b).  At
any lower order ``polynomial_part`` raises ``TruncationError``, and
the eta forms stay the independent check of the values.

``polynomial_part`` reads a kernel through t^0 only, so the products
that feed it are formed only through degree 0 in 1/t
(``LaurentSeries.mul_through``): the last product of p_ab, and the chain
ker xi(t) s'/s^(k+1) of p_n, which multiplies by 1/s once per k.  1/s
has min_degree 1, so each link needs the one before it only through
t^1.  The cut truncation order is min(honest, 0), which is negative
exactly when the honest one is, so the same orders raise.
"""

from __future__ import annotations

from typing import Callable

from hodgehurwitz.exact_algebra import HALF
from hodgehurwitz.lambert_curve import (
    d_dt,
    eta_series,
    poly_as_recip_series,
    s_involution,
    v_powers,
)
from hodgehurwitz.series import LaurentSeries, laurent_reciprocal, \
    polynomial_part
from hodgehurwitz.xi_tower import xi_hat


def _tower_step(f: LaurentSeries) -> LaurentSeries:
    """D f = t^2 (t - 1) df/dt; t^2 (t - 1) is xi_hat_1."""
    return poly_as_recip_series(xi_hat(1)) * d_dt(f)


def _evaluated(memo: dict, key, name: str, at: Callable[[int], object],
               degree: int, degrees: Callable[[object], tuple]):
    """``memo[key]``, evaluated on first use as ``at(degree + 3)``, the
    least order that knows the polynomial part; every entry of
    ``degrees`` of it must be ``degree``, otherwise an internal error is
    raised."""
    if key not in memo:
        result = at(degree + 3)
        if set(degrees(result)) != {degree}:
            raise RuntimeError(f"{name} degrees {degrees(result)} != "
                               f"{degree} (internal error)")
        memo[key] = result
    return memo[key]


def _d_dti(primitive: dict) -> dict:
    """The t_i-derivative of a polynomial in (t, t_i) as exponent pairs."""
    return {(d, k - 1): k * c for (d, k), c in primitive.items() if k}


class ResidueCache:
    """Memoized residue polynomials and the series context of each
    truncation order."""

    def __init__(self):
        self.pab: dict[tuple[int, int], dict] = {}
        self.pn: dict[int, dict] = {}
        self._ctx: dict[int, dict] = {}

    # -- shared series context

    def _context(self, order: int) -> dict:
        """s through t^-order and what the direct forms build from it:
        1/s, the kernel K = t s/(t - s), K/(t^2 (t - 1)), s', and the
        tower [s - 1, D(s - 1), ...] of xi_hat_k(s), grown on demand."""
        ctx = self._ctx.get(order)
        if ctx is None:
            s = s_involution(order)
            t = LaurentSeries.exact({-1: 1}, "1/t")
            kernel = s.shift(-1) * laurent_reciprocal(t - s)  # t s/(t - s)
            ctx = self._ctx[order] = {
                "inv_s": laurent_reciprocal(s),
                "kernel": kernel,
                "kernel_over_t2_tm1": kernel * laurent_reciprocal(
                    poly_as_recip_series(xi_hat(1)), order=order),
                "ds_dt": d_dt(s),
                "xi_s": [s - LaurentSeries.exact({0: 1}, "1/t")],
            }
        return ctx

    def _xi_hat_of_s(self, k: int, order: int) -> LaurentSeries:
        """xi_hat_k(s(t)) with s through t^-order: D^k (s - 1), honest
        through t^-(order - 2k)."""
        tower = self._context(order)["xi_s"]
        while len(tower) <= k:
            tower.append(_tower_step(tower[-1]))
        return tower[k]

    # -- direct forms

    def _pab_at(self, a: int, b: int, order: int) -> dict:
        ctx = self._context(order)
        xa, xb = xi_hat(a + 1), xi_hat(b + 1)
        xa_s = self._xi_hat_of_s(a + 1, order)
        xb_s = xa_s if b == a else self._xi_hat_of_s(b + 1, order)
        sym = (poly_as_recip_series(xa) * xb_s
               + xa_s * poly_as_recip_series(xb))
        full = ctx["kernel_over_t2_tm1"].mul_through(sym, 0)
        return polynomial_part(full.scale(HALF))

    def p_ab(self, a: int, b: int) -> dict:
        if a < 0 or b < 0:
            raise ValueError("p_ab indices must be >= 0")
        key = (min(a, b), max(a, b))
        return _evaluated(self.pab, key, f"p_ab{key}",
                          lambda order: self._pab_at(*key, order),
                          2 * (a + b + 2),
                          lambda q: (max(q, default=None),))

    def _pn_at(self, n: int, order: int) -> dict:
        ctx = self._context(order)
        kernel, inv_s = ctx["kernel"], ctx["inv_s"]
        fixed = kernel * ctx["ds_dt"] * poly_as_recip_series(xi_hat(n + 1))
        swapped = kernel * self._xi_hat_of_s(n + 1, order)
        terms: dict[tuple[int, int], object] = {}
        for k in range(2 * n + 4):
            # coefficient of t_i^k in ker (xi(t) s'/(s - t_i) + xi(s)/(t - t_i))
            # ker xi(t) s'/s(t)^{k+1}, a 1/t series read through t^0
            fixed = fixed.mul_through(inv_s, 0)
            part = polynomial_part(fixed + swapped.shift(k + 1))
            for d, c in part.items():
                terms[(d, k)] = c
        return _d_dti(terms)

    def p_n(self, n: int) -> dict:
        if n < 0:
            raise ValueError("p_n index must be >= 0")
        return _evaluated(self.pn, n, f"p_n({n})",
                          lambda order: self._pn_at(n, order), 2 * n + 2,
                          lambda q: tuple(map(max, zip(*q))))


DEFAULT_CACHE = ResidueCache()


def p_ab(a: int, b: int) -> dict:
    return DEFAULT_CACHE.p_ab(a, b)


def p_n(n: int) -> dict:
    return DEFAULT_CACHE.p_n(n)


# ---------------------------------------------------------------------------
# eta forms (independent oracles)


def p_ab_eta(a: int, b: int) -> dict:
    if a < 0 or b < 0:
        raise ValueError("p_ab_eta indices must be >= 0")
    order = 2 * (a + b + 2) + 12
    v = v_powers(order)
    inv_eta = laurent_reciprocal(eta_series(-1, order))
    odd = eta_series(a + 1, order) * eta_series(b + 1, order) * inv_eta
    # the v-measure: multiply by v (shift in the v-ring), substitute
    # v = v(t), then by dv/dt as a 1/t series
    composed = v.substitute(odd.shift(1)) * d_dt(v.series)
    return polynomial_part(composed.scale(HALF))


def p_n_eta(n: int) -> dict:
    if n < 0:
        raise ValueError("p_n_eta index must be >= 0")
    order = 2 * n + 16
    v = v_powers(order)
    dv = d_dt(v.series)
    eta_top = eta_series(n + 1, order)
    inv_eta = laurent_reciprocal(eta_series(-1, order))
    terms: dict[tuple[int, int], object] = {}
    for m in range(n + 3):  # higher m cannot contribute
        # polynomial_part reads degrees <= 0, and v^d starts at degree d
        left = polynomial_part(v.substitute(eta_top.shift(2 * m)._cut(0)))
        if not left:
            continue
        # dv starts at degree 2, so only degrees <= -2 of the right
        # factor reach degree 0
        right = polynomial_part(v.substitute(
            inv_eta.shift(-(2 * m + 1))._cut(-2)).mul_through(dv, 0))
        if not right:
            continue
        for di, ci in left.items():      # t_i factor
            for dt, ct in right.items():  # t factor
                key = (dt, di)
                val = terms.get(key)
                val = ci * ct if val is None else val + ci * ct
                if val:
                    terms[key] = val
                else:
                    del terms[key]
    return _d_dti(terms)

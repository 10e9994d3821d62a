"""Residue polynomials of the topological recursion on the Lambert curve.

Two families are computed, each in two independent ways:

* ``p_ab(a, b)`` — a polynomial in t of degree exactly 2(a+b+2),
  obtained from the recursion kernel t s(t)/(t - s(t)) and the
  involution s(t); ``p_ab_eta`` recomputes it from the eta-series in
  the branch coordinate v.  Equality of the two forms is a core
  cross-check of the whole curve layer.
* ``p_n(n)`` — a polynomial in (t, t_i) of degree exactly 2n+2 in each
  variable, and its eta-form twin ``p_n_eta``.

All series arithmetic runs at a guarded truncation: the direct forms
are evaluated at two different orders (target degree + 6 and + 12) and
the polynomial parts must agree exactly, otherwise an internal error is
raised.  The honest-truncation tracking in the series layer underpins
this: a too-low order fails loudly instead of corrupting coefficients.
"""

from __future__ import annotations

from typing import Optional

from hodgehurwitz.exact_algebra import (
    HALF,
    LaurentSeries,
    MultiPoly,
    UniPoly,
    laurent_reciprocal,
    polynomial_part,
)
from hodgehurwitz.lambert_curve import (
    d_dt,
    eta_series,
    poly_as_recip_series,
    s_powers,
    v_powers,
    xi_hat,
)

GUARD_LOW = 6
GUARD_HIGH = 12


class ResidueCache:
    """Memoized residue polynomials, the per-order series context, and
    each xi_hat_k(s(t)) at the highest order needed so far."""

    def __init__(self):
        self.pab: dict[tuple[int, int], UniPoly] = {}
        self.pn: dict[int, MultiPoly] = {}
        self._ctx: dict[int, dict] = {}
        self._xi_s: dict[int, tuple[int, LaurentSeries]] = {}

    # -- shared series context

    def _context(self, order: int) -> dict:
        ctx = self._ctx.get(order)
        if ctx is None:
            powers = s_powers(order)
            s = powers.series
            t = LaurentSeries.exact({-1: 1}, "1/t")
            kernel = s.shift(-1) * laurent_reciprocal(t - s)  # t s/(t - s)
            inv_t2_tm1 = laurent_reciprocal(                  # 1/(t^2 (t-1))
                LaurentSeries.exact({-3: 1, -2: -1}, "1/t"), order=order)
            ctx = {
                "s": powers,
                "kernel": kernel,
                "inv_t2_tm1": inv_t2_tm1,
                "ds_dt": d_dt(s),
            }
            self._ctx[order] = ctx
        return ctx

    def _xi_hat_of_s(self, k: int, order: int) -> LaurentSeries:
        """xi_hat_k(s(t)) with s through t^-order.  It is composed once,
        at the highest order asked so far, and served as its truncation
        at order - deg + 1, where s^deg stops being honest."""
        held = self._xi_s.get(k)
        if held is None or held[0] < order:
            composed = self._context(order)["s"].substitute(xi_hat(k))
            held = self._xi_s[k] = (order, composed)
        return held[1].truncate(order - xi_hat(k).degree() + 1)

    # -- direct forms

    def _pab_at(self, a: int, b: int, order: int) -> UniPoly:
        ctx = self._context(order)
        xa, xb = xi_hat(a + 1), xi_hat(b + 1)
        xa_s = self._xi_hat_of_s(a + 1, order)
        xb_s = xa_s if b == a else self._xi_hat_of_s(b + 1, order)
        sym = (poly_as_recip_series(xa) * xb_s
               + xa_s * poly_as_recip_series(xb))
        full = ctx["kernel"] * ctx["inv_t2_tm1"] * sym
        return polynomial_part(full.scale(HALF))

    def p_ab(self, a: int, b: int) -> UniPoly:
        if a < 0 or b < 0:
            raise ValueError("p_ab indices must be >= 0")
        key = (min(a, b), max(a, b))
        cached = self.pab.get(key)
        if cached is not None:
            return cached
        degree = 2 * (a + b + 2)
        result = self._pab_at(key[0], key[1], degree + GUARD_LOW)
        recheck = self._pab_at(key[0], key[1], degree + GUARD_HIGH)
        if result != recheck:
            raise RuntimeError(
                f"truncation guard mismatch for p_ab{key} (internal error)")
        if result.degree() != degree:
            raise RuntimeError(
                f"p_ab{key} degree {result.degree()} != {degree} "
                "(internal error)")
        self.pab[key] = result
        return result

    def _pn_at(self, n: int, order: int) -> MultiPoly:
        ctx = self._context(order)
        s, kernel = ctx["s"], ctx["kernel"]
        xi = xi_hat(n + 1)
        base_fixed = kernel * ctx["ds_dt"] * poly_as_recip_series(xi)
        base_swapped = kernel * self._xi_hat_of_s(n + 1, order)
        terms: dict[tuple[int, int], object] = {}
        for k in range(2 * n + 4):
            # coefficient of t_i^k in ker (xi(t) s'/(s - t_i) + xi(s)/(t - t_i))
            r_pow = s.power(-(k + 1))  # 1/s(t)^{k+1}, expanded as a 1/t series
            bracket = base_fixed * r_pow + base_swapped.shift(k + 1)
            part = polynomial_part(bracket)
            for d, c in part.coeffs.items():
                terms[(d, k)] = c
        primitive = MultiPoly(("t", "t_i"), terms)
        return primitive.derivative_in("t_i")

    def p_n(self, n: int) -> MultiPoly:
        if n < 0:
            raise ValueError("p_n index must be >= 0")
        cached = self.pn.get(n)
        if cached is not None:
            return cached
        degree = 2 * n + 2
        result = self._pn_at(n, degree + GUARD_LOW)
        recheck = self._pn_at(n, degree + GUARD_HIGH)
        if result != recheck:
            raise RuntimeError(
                f"truncation guard mismatch for p_n({n}) (internal error)")
        if (result.degree_in("t") != degree
                or result.degree_in("t_i") != degree):
            raise RuntimeError(
                f"p_n({n}) degrees != {degree} (internal error)")
        self.pn[n] = result
        return result


DEFAULT_CACHE = ResidueCache()


def p_ab(a: int, b: int) -> UniPoly:
    return DEFAULT_CACHE.p_ab(a, b)


def p_n(n: int) -> MultiPoly:
    return DEFAULT_CACHE.p_n(n)


# ---------------------------------------------------------------------------
# eta forms (independent oracles)


def p_ab_eta(a: int, b: int, order: Optional[int] = None) -> UniPoly:
    if a < 0 or b < 0:
        raise ValueError("p_ab_eta indices must be >= 0")
    degree = 2 * (a + b + 2)
    if order is None:
        order = degree + GUARD_HIGH
    v = v_powers(order)
    inv_eta = laurent_reciprocal(eta_series(-1, order))
    odd = eta_series(a + 1, order) * eta_series(b + 1, order) * inv_eta
    # the v-measure: multiply by v (shift in the v-ring), substitute
    # v = v(t), then by dv/dt as a 1/t series
    composed = v.substitute(odd.shift(1)) * d_dt(v.series)
    return polynomial_part(composed.scale(HALF))


def p_n_eta(n: int, order: Optional[int] = None,
            m_max: Optional[int] = None) -> MultiPoly:
    if n < 0:
        raise ValueError("p_n_eta index must be >= 0")
    if order is None:
        order = 2 * n + 4 + GUARD_HIGH
    if m_max is None:
        m_max = n + 2  # higher m cannot contribute
    v = v_powers(order)
    dv = d_dt(v.series)
    eta_top = eta_series(n + 1, order)
    inv_eta = laurent_reciprocal(eta_series(-1, order))
    terms: dict[tuple[int, int], object] = {}
    for m in range(m_max + 1):
        left = polynomial_part(v.substitute(eta_top.shift(2 * m)))
        if left.is_zero():
            continue
        right = polynomial_part(
            v.substitute(inv_eta.shift(-(2 * m + 1))) * dv)
        if right.is_zero():
            continue
        for di, ci in left.coeffs.items():      # t_i factor
            for dt, ct in right.coeffs.items():  # t factor
                key = (dt, di)
                val = terms.get(key)
                val = ci * ct if val is None else val + ci * ct
                if val:
                    terms[key] = val
                else:
                    del terms[key]
    primitive = MultiPoly(("t", "t_i"), terms)
    return primitive.derivative_in("t_i")

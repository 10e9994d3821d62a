"""The series suite of ``verify``: the curve series s, v, eta_n and
the identities that tie them together, at one truncation order.

``verify --suite series`` loads this module and the series and curve
layers, and no Hodge table; no other command loads it.
"""

from __future__ import annotations

from functools import cache

from .cli import ETA_INDICES
from .exact_algebra import rat
from .lambert_curve import eta_xi_identity_check, \
    h02_series_identity_check, s_involution, stirling_coefficients, \
    v_series, w_series
from .series import LaurentSeries, SeriesPowers, laurent_reciprocal


def series_checks(order: int) -> list:

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

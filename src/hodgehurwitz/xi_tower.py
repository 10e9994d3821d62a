"""The xi_hat polynomial tower: ``xi_hat(n)``, generated from t - 1 by
t^2 (t - 1) d/dt and grown as a module list, and its memoized forms
``xi_form(n)`` (the t-derivative) and ``xi_hat_over_t(n)``.

For n >= 0 each is a polynomial in t with integer coefficients, held as
a ``{degree: int}`` dict with no zero coefficient; the recurrence runs
on Python ints.  Cut-and-join needs only this tower, so it never loads
the series layer; the Laurent members xi_hat_{-1}, xi_hat_{-2} load it
on first use.  Returned dicts are shared, so no caller may change one.
"""

from __future__ import annotations

from functools import cache

from hodgehurwitz.exact_algebra import rat

_XI_HAT: list = [{1: 1, 0: -1}]


def _derivative(p: dict) -> dict:
    return {d - 1: d * c for d, c in p.items() if d >= 1}


@cache
def _xi_hat_laurent(n: int):
    """xi_hat_{-1} and xi_hat_{-2} as exact series in 1/t, built once."""
    from hodgehurwitz.series import LaurentSeries
    if n == -1:
        return LaurentSeries.exact({0: 1, 1: -1}, "1/t")
    return LaurentSeries.exact({2: rat(-1, 2)}, "1/t")


def xi_hat(n: int):
    """xi_hat_n: a ``{degree: int}`` dict for n >= 0, a Laurent form for
    n = -1, -2.

    xi_hat_0 = t - 1 and xi_hat_{n+1} = t^2 (t - 1) (d/dt) xi_hat_n, a
    polynomial of degree 2n+1 with leading coefficient (2n-1)!! for
    n >= 1.  The two Laurent members below the tower are
    xi_hat_{-1} = 1 - 1/t and xi_hat_{-2} = -1/(2 t^2) up to an
    additive constant; the constant is transcendental and never enters
    any identity computed here, so it is simply left out (only
    differences and derivatives of xi_hat_{-2} are meaningful).
    """
    if n < -2:
        raise ValueError(f"xi_hat is not defined for n = {n} < -2")
    if n < 0:
        return _xi_hat_laurent(n)
    while len(_XI_HAT) <= n:
        # t^3 and -t^2 times each term c t^d of the derivative
        derivative, nxt = _derivative(_XI_HAT[-1]), {}
        for step, sign in ((3, 1), (2, -1)):
            for d, c in derivative.items():
                s = nxt.get(d + step, 0) + sign * c
                if s:
                    nxt[d + step] = s
                else:
                    del nxt[d + step]
        _XI_HAT.append(nxt)
    return _XI_HAT[n]


@cache
def xi_form(n: int) -> dict:
    """xi_n = d/dt xi_hat_n: degree 2n, leading coefficient (2n+1)!!."""
    if n < 0:
        raise ValueError(f"xi_form requires n >= 0, got {n}")
    return _derivative(xi_hat(n))


@cache
def xi_hat_over_t(n: int) -> dict:
    """xi_hat_{n+1}(t)/t for n >= 0 — exact, since t^2 | xi_hat_{n+1}."""
    if n < 0:
        raise ValueError(f"xi_hat_over_t requires n >= 0, got {n}")
    return {d - 1: c for d, c in xi_hat(n + 1).items()}

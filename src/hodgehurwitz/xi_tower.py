"""The xi_hat polynomial tower: ``xi_hat(n)``, generated from t - 1 by
t^2 (t - 1) d/dt and grown as a module list, and its memoized forms
``xi_form(n)`` (the t-derivative) and ``xi_hat_over_t(n)``.

Each is a polynomial in t with integer coefficients, held as a
``{degree: int}`` dict with no zero coefficient; the recurrence runs on
Python ints.  The tower has no member below n = 0: a check that needs
xi_hat_{-1} = 1 - 1/t builds it in the series layer itself, so this
module never loads that layer.  Returned dicts are shared, so no caller
may change one.
"""

from __future__ import annotations

from functools import cache

_XI_HAT: list = [{1: 1, 0: -1}]


def _derivative(p: dict) -> dict:
    return {d - 1: d * c for d, c in p.items() if d >= 1}


def xi_hat(n: int) -> dict:
    """xi_hat_n for n >= 0, as a ``{degree: int}`` dict.

    xi_hat_0 = t - 1 and xi_hat_{n+1} = t^2 (t - 1) (d/dt) xi_hat_n, a
    polynomial of degree 2n+1 with leading coefficient (2n-1)!! for
    n >= 1.
    """
    if n < 0:
        raise ValueError(f"xi_hat requires n >= 0, got {n}")
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

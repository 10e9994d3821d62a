"""Truncated Laurent series over the exact rationals.

A series is known exactly on a finite degree window and tracks an
explicit truncation order, propagated pessimistically through
arithmetic: any read past the honest truncation raises
``TruncationError`` instead of returning a silent zero.

A series product is formed over one denominator per factor: each factor
is written once as integers over the lcm of its coefficient denominators
(kept with the series, which is never changed after construction), each
output degree sums Python ints, and one rational is made per degree.
The linear combination of powers in ``SeriesPowers.substitute`` is summed
the same way.  Only ``.numerator``, ``.denominator`` and
``Rational(n, d)`` touch the backend, which both backends provide.
``mul_through`` forms a product only through the last degree a caller
reads, and ``SeriesPowers`` forms each power only through the degree its
composition reads (the cap rule in its docstring).

Only the curve layer and the series suite load this module.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Mapping, Optional

from hodgehurwitz.exact_algebra import ZERO, Rational, RationalLike, \
    TruncationError, UniPoly, format_rational


class LaurentSeries:
    """Laurent series known exactly on a finite degree window.

    ``coeffs`` holds degrees in ``[min_degree, truncation_order]``;
    degrees below ``min_degree`` are exactly zero, degrees above
    ``truncation_order`` are *unknown*.  ``truncation_order`` may be
    ``None``, meaning the series is exact (a Laurent polynomial).

    The variable is a formal name.  By convention the curve series live
    in the variable ``"1/t"``: stored degree d is the coefficient of
    t^(-d), so a series with min_degree -1 starts at t^(+1).
    """

    __slots__ = ("var", "min_degree", "truncation_order", "coeffs", "_ints")

    def __init__(self, coeffs: Mapping[int, RationalLike], var: str,
                 min_degree: Optional[int] = None,
                 truncation_order: Optional[int] = None):
        d: dict[int, Rational] = {}
        for k, v in coeffs.items():
            q = Rational(v)
            if q:
                d[int(k)] = q
        if min_degree is None:
            min_degree = min(d) if d else 0
        if truncation_order is not None and d:
            if max(d) > truncation_order:
                raise ValueError("coefficient beyond truncation order")
        if any(k < min_degree for k in d):
            raise ValueError("coefficient below min_degree")
        self.var = var
        self.min_degree = int(min_degree)
        self.truncation_order = (None if truncation_order is None
                                 else int(truncation_order))
        self.coeffs = d
        self._ints = None

    @classmethod
    def _trusted(cls, coeffs: dict, var: str, min_degree: int,
                 truncation_order: Optional[int]) -> "LaurentSeries":
        """A series from nonzero Rationals already inside its window."""
        out = cls.__new__(cls)
        out.var, out.min_degree = var, min_degree
        out.truncation_order, out.coeffs, out._ints = \
            truncation_order, coeffs, None
        return out

    # -- constructors

    @classmethod
    def zero(cls, var: str, truncation_order: Optional[int] = None) -> "LaurentSeries":
        return cls({}, var, 0, truncation_order)

    @classmethod
    def exact(cls, coeffs: Mapping[int, RationalLike], var: str) -> "LaurentSeries":
        return cls(coeffs, var, truncation_order=None)

    # -- structure

    def is_zero(self) -> bool:
        """True when no nonzero coefficient is stored (up to truncation)."""
        return not self.coeffs

    def coefficient(self, degree: int) -> Rational:
        if self.truncation_order is not None and degree > self.truncation_order:
            raise TruncationError(
                f"coefficient of degree {degree} requested, series truncated "
                f"at {self.truncation_order}")
        return self.coeffs.get(degree, ZERO)

    def valuation(self) -> Optional[int]:
        """Least degree with a nonzero coefficient, or None if zero."""
        return min(self.coeffs) if self.coeffs else None

    def _trunc_key(self) -> int:
        t = self.truncation_order
        return (1 << 62) if t is None else t

    # -- arithmetic

    def _require_same_var(self, other: "LaurentSeries") -> None:
        if self.var != other.var:
            raise ValueError(
                f"variable mismatch: {self.var!r} vs {other.var!r}")

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._require_same_var(other)
        t = min(self._trunc_key(), other._trunc_key())
        d = dict(self.coeffs)
        for k, v in other.coeffs.items():
            s = d.get(k, ZERO) + v
            if s:
                d[k] = s
            else:
                d.pop(k, None)
        trunc = None if t >= (1 << 62) else t
        if trunc is not None:
            d = {k: v for k, v in d.items() if k <= trunc}
        return LaurentSeries(d, self.var,
                             min(self.min_degree, other.min_degree), trunc)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries({k: -v for k, v in self.coeffs.items()},
                             self.var, self.min_degree, self.truncation_order)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __mul__(self, other) -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return self.scale(other)
        self._require_same_var(other)
        # honest truncation: min(T_a + m_b, T_b + m_a)
        ta, tb = self._trunc_key(), other._trunc_key()
        t = min(ta + other.min_degree, tb + self.min_degree)
        trunc = None if t >= (1 << 61) else t
        da, la, a = self._integer_coefficients()
        db, lb, b = other._integer_coefficients()
        lo, na, nb = la + lb, len(a), len(b)
        top = na + nb - 2 if trunc is None else min(na + nb - 2, trunc - lo)
        den, b, d = da * db, b[::-1], {}
        for r in range(top + 1):
            # degree lo + r: a[i] b[r - i] over the i both lists reach
            i0, i1 = max(0, r - nb + 1), min(na - 1, r)
            c = sum(map(mul, a[i0:i1 + 1], b[nb - 1 - r + i0:nb - r + i1]))
            if c:
                d[lo + r] = Rational(c, den)
        return LaurentSeries._trusted(d, self.var,
                                      self.min_degree + other.min_degree,
                                      trunc)

    def mul_through(self, other: "LaurentSeries",
                    degree: int) -> "LaurentSeries":
        """``self * other`` computed only through ``degree``: each factor
        is first cut at ``degree`` minus the other's ``min_degree``, the
        last of its degrees that can reach ``degree``.  The result is the
        product truncated at the lesser of its honest order and
        ``degree``."""
        return (self._cut(degree - other.min_degree)
                * other._cut(degree - self.min_degree))

    def _cut(self, order: int) -> "LaurentSeries":
        """``truncate(order)``, or ``self`` when already truncated there
        or lower."""
        t = self.truncation_order
        return self if t is not None and t <= order else self.truncate(order)

    def _integer_coefficients(self) -> tuple[int, int, list]:
        """(D, lo, [n_lo, n_lo+1, ..]): the coefficient of degree lo + i
        is n_lo+i / D, with D the lcm of the coefficient denominators and
        lo the valuation (0 for the zero series); formed once per
        series."""
        if self._ints is None:
            den, lo = 1, min(self.coeffs, default=0)
            for c in self.coeffs.values():
                den = math.lcm(den, int(c.denominator))
            ints = [0] * (max(self.coeffs, default=lo - 1) - lo + 1)
            for k, c in self.coeffs.items():
                ints[k - lo] = int(c.numerator) * (den // int(c.denominator))
            self._ints = (den, lo, ints)
        return self._ints

    def scale(self, c: RationalLike) -> "LaurentSeries":
        q = Rational(c)
        if not q:
            return LaurentSeries({}, self.var, self.min_degree,
                                 self.truncation_order)
        return LaurentSeries({k: v * q for k, v in self.coeffs.items()},
                             self.var, self.min_degree, self.truncation_order)

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by var**k (degree shift)."""
        t = self.truncation_order
        return LaurentSeries({d + k: v for d, v in self.coeffs.items()},
                             self.var, self.min_degree + k,
                             None if t is None else t + k)

    def truncate(self, order: int) -> "LaurentSeries":
        if self.truncation_order is not None and order > self.truncation_order:
            raise TruncationError(
                f"cannot extend truncation {self.truncation_order} to {order}")
        return LaurentSeries({k: v for k, v in self.coeffs.items() if k <= order},
                             self.var, self.min_degree, order)

    def derivative(self) -> "LaurentSeries":
        """d/d(var), term by term."""
        t = self.truncation_order
        return LaurentSeries({k - 1: k * v for k, v in self.coeffs.items() if k},
                             self.var, self.min_degree - 1,
                             None if t is None else t - 1)

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentSeries) and self.var == other.var
                and self.coeffs == other.coeffs
                and self.truncation_order == other.truncation_order)

    def __str__(self) -> str:
        if not self.coeffs:
            body = "0"
        else:
            terms = []
            for k in sorted(self.coeffs):
                c = format_rational(self.coeffs[k])
                if k == 0:
                    terms.append(c)
                elif k == 1:
                    terms.append(f"{c}*{self.var}")
                else:
                    terms.append(f"{c}*{self.var}^{k}")
            body = " + ".join(terms)
        tail = "" if self.truncation_order is None else \
            f" + O({self.var}^{self.truncation_order + 1})"
        return body + tail

    def __repr__(self) -> str:
        return f"LaurentSeries({self})"


def polynomial_part(obj: LaurentSeries) -> UniPoly:
    """The terms of non-negative exponent in X of a series in ``"1/X"``,
    as a ``UniPoly`` in X: stored degree d <= 0 becomes X^(-d).  The
    series must be truncated at order >= 0, else ``TruncationError``
    ("insufficient truncation") — the non-negative-power window must be
    fully known."""
    if obj.truncation_order is not None and obj.truncation_order < 0:
        raise TruncationError("insufficient truncation")
    if not obj.var.startswith("1/"):
        raise ValueError(
            "polynomial part is defined for series in a reciprocal "
            f"variable, got {obj.var!r}")
    return UniPoly({-d: v for d, v in obj.coeffs.items() if d <= 0},
                   var=obj.var[2:])


def laurent_reciprocal(s: LaurentSeries,
                       order: Optional[int] = None) -> "LaurentSeries":
    """Multiplicative inverse of a series with nonzero leading coefficient.

    The result has valuation -val(s) and honest truncation
    T - 2*val(s) for a series truncated at T (an unknown tail at degree
    T+1 perturbs the inverse only from degree T+1 - 2*val onward).  For
    an exact input that is not a monomial, ``order`` must be given since
    the inverse is an infinite series.
    """
    val = s.valuation()
    if val is None:
        raise ValueError("reciprocal of zero series")
    if s.truncation_order is None:
        if len(s.coeffs) == 1:
            out_t = order  # exact monomial: exact inverse unless capped
        elif order is None:
            raise ValueError("reciprocal of an exact non-monomial series "
                             "needs an explicit truncation order")
        else:
            out_t = order
    else:
        out_t = s.truncation_order - 2 * val
        if order is not None:
            out_t = min(out_t, order)
    lead = s.coeffs[val]
    # a cap below the leading degree -val leaves no coefficient known
    inv: dict[int, Rational] = (
        {-val: 1 / lead} if out_t is None or out_t >= -val else {})
    if out_t is not None:
        for m in range(1, out_t + val + 1):
            acc = ZERO
            for i, ri in inv.items():
                c = s.coeffs.get(m - i)
                if c is not None:
                    acc += ri * c
            if acc:
                inv[m - val] = -acc / lead
    return LaurentSeries(inv, s.var, -val, out_t)


def laurent_substitute(p, s: LaurentSeries) -> LaurentSeries:
    """Compose: substitute the series ``s`` for the variable of ``p``.

    ``p`` may be a ``UniPoly`` or a ``LaurentSeries``.  Negative degrees
    of ``p`` go through ``laurent_reciprocal(s)``.  Honest truncation is
    inherited from the series arithmetic; additionally, when ``p`` is
    itself truncated its unknown tail (degrees > T_p) caps the result at
    (T_p + 1) * val(s) - 1, which requires val(s) >= 1.
    """
    return SeriesPowers(s).substitute(p)


class SeriesPowers:
    """The powers of one series ``s`` and of its reciprocal, each formed
    on first use and only as far as it is read.

    ``power(k, through)`` is s**k for k >= 1 and (1/s)**(-k) for
    k <= -1, the product of the power below it and s (or 1/s), known
    through min(honest order, ``through``); ``through=None`` asks for the
    whole honest window.  A power is kept at the furthest degree asked
    of it; a later call that asks further forms it again from the power
    below it.

    The cap rule.  A truncated outer series caps a composition at
    C = (T_p + 1) val(s) - 1, and ``substitute`` asks each power only
    through C.  Let b be the factor (s or 1/s) and m its min_degree.
    When m >= 0, b**k through C needs b**(k-1) only through C - m <= C
    and b only through C - min_degree(b**(k-1)), so a chain whose every
    power is cut at C (``LaurentSeries.mul_through``) has the truncation
    order min(honest, C) at every power, the honest order of the
    uncapped chain wherever that is below C.  When m < 0, as for the
    powers of 1/s when s has valuation >= 1, each product would consume
    -m further orders of the power below it, so those powers are formed
    over their whole honest window.  A composition read from one table
    thus equals ``laurent_substitute`` computed afresh, truncation order
    included.  Keep one table per series to share the products across
    every composition into it.
    """

    __slots__ = ("series", "_pos", "_neg")

    def __init__(self, s: LaurentSeries):
        self.series = s
        # [(b**k, the degree it was formed through or None for all)]
        self._pos = [(s, None)]
        self._neg: list[tuple[LaurentSeries, Optional[int]]] = []

    def power(self, k: int, through: Optional[int] = None) -> LaurentSeries:
        if k == 0:
            raise ValueError("power 0 is not tabulated")
        if k < 0 and not self._neg:
            self._neg.append((laurent_reciprocal(self.series), None))
        chain, top = (self._pos, k) if k > 0 else (self._neg, -k)
        base = chain[0][0]
        if base.min_degree < 0:
            through = None
        # the powers below that reach too short are formed again first
        k = top
        while k > 1 and (k > len(chain) or not (
                chain[k - 1][1] is None
                or through is not None and chain[k - 1][1] >= through)):
            k -= 1
        for k in range(k + 1, top + 1):
            below = chain[k - 2][0]
            entry = (below * base if through is None
                     else below.mul_through(base, through), through)
            if k > len(chain):
                chain.append(entry)
            else:
                chain[k - 1] = entry
        return chain[top - 1][0]

    def substitute(self, p) -> LaurentSeries:
        """``laurent_substitute(p, self.series)`` from the tabulated powers."""
        if isinstance(p, UniPoly):
            p_trunc = None
        elif isinstance(p, LaurentSeries):
            p_trunc = p.truncation_order
        else:
            raise TypeError(f"unsupported input {type(p).__name__}")
        s = self.series
        cap = None
        if p_trunc is not None:
            val = s.valuation()
            if val is None or val < 1:
                raise TruncationError(
                    "substituting a truncated series requires the inner "
                    "series to have valuation >= 1")
            cap = (p_trunc + 1) * val - 1

        # the sum over one denominator: the power's n/D at a degree, scaled
        # by c, adds n num(c) den/(D den(c)) to the degree's numerator
        trunc, low, den, parts = 1 << 62 if cap is None else cap, 0, 1, []
        for d, c in p.coeffs.items():
            power = (self.power(d, cap) if d
                     else LaurentSeries.exact({0: 1}, s.var))
            trunc = min(trunc, power._trunc_key())
            low = min(low, power.min_degree)
            ints = power._integer_coefficients()
            scale = ints[0] * int(c.denominator)
            den = math.lcm(den, scale)
            parts.append((ints, c, scale))
        sums: dict[int, int] = {}
        for (_, lo, ints), c, scale in parts:
            f = int(c.numerator) * (den // scale)
            for k, n in enumerate(ints, lo):
                if n and k <= trunc:
                    sums[k] = sums.get(k, 0) + n * f
        coeffs = {}
        for k, n in sums.items():
            if n:
                coeffs[k] = Rational(n, den)
        return LaurentSeries._trusted(coeffs, s.var, low,
                                      None if trunc >= 1 << 62 else trunc)

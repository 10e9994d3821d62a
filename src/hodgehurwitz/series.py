"""Truncated Laurent series over the exact rationals.

A series is known exactly on a finite degree window and tracks an
explicit truncation order, propagated pessimistically through
arithmetic: any read past the honest truncation raises
``TruncationError`` instead of returning a silent zero.

A series is stored as Python ints over one denominator: ``ints[i] / den``
is the coefficient of degree ``lo + i``, with ``den > 0``,
gcd(den, *ints) = 1 and no zero at either end of ``ints``, so the zero
series is (1, 0, []) and two series with equal coefficients store
equal triples; no list is changed after construction, so series may
share one.  Sums, scalings, shifts, derivatives, products and the
reciprocal work on the ints and reduce once per result; a rational is
made only where a caller reads a coefficient (``coefficient``,
``coeffs``, ``polynomial_part``).  Only ``.numerator``, ``.denominator``
and ``Rational(n, d)`` touch the backend, which both backends provide.
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
    TruncationError, format_rational


class LaurentSeries:
    """Laurent series known exactly on a finite degree window.

    The nonzero coefficients lie in ``[min_degree, truncation_order]``;
    degrees below ``min_degree`` are exactly zero, degrees above
    ``truncation_order`` are *unknown*.  ``truncation_order`` may be
    ``None``, meaning the series is exact (a Laurent polynomial).  The
    coefficients are ``(den, lo, ints)`` (module docstring); ``coeffs``
    is a fresh ``{degree: Rational}`` of the nonzero ones.

    The variable is a formal name.  By convention the curve series live
    in the variable ``"1/t"``: stored degree d is the coefficient of
    t^(-d), so a series with min_degree -1 starts at t^(+1).
    """

    __slots__ = ("var", "min_degree", "truncation_order", "den", "lo", "ints")

    def __init__(self, coeffs: Mapping[int, RationalLike], var: str,
                 min_degree: Optional[int] = None,
                 truncation_order: Optional[int] = None):
        d = {int(k): q for k, v in coeffs.items() if (q := Rational(v))}
        if min_degree is None:
            min_degree = min(d) if d else 0
        if truncation_order is not None and d:
            if max(d) > truncation_order:
                raise ValueError("coefficient beyond truncation order")
        if any(k < min_degree for k in d):
            raise ValueError("coefficient below min_degree")
        den = math.lcm(*(int(q.denominator) for q in d.values()))
        lo = min(d, default=0)
        ints = [0] * (max(d, default=lo - 1) - lo + 1)
        for k, q in d.items():
            ints[k - lo] = int(q.numerator) * (den // int(q.denominator))
        self._set(var, int(min_degree), None if truncation_order is None
                  else int(truncation_order), den, lo, ints)

    @classmethod
    def _of(cls, var: str, min_degree: int, truncation_order: Optional[int],
            den: int, lo: int, ints: list) -> "LaurentSeries":
        """The series of ``ints[i] / den`` at degree ``lo + i``, cut at
        ``truncation_order``; ``den`` > 0 and no degree below
        ``min_degree``."""
        out = cls.__new__(cls)
        out._set(var, min_degree, truncation_order, den, lo, ints)
        return out

    def _set(self, var, min_degree, truncation_order, den, lo, ints) -> None:
        # the canonical form: cut at the truncation, no zero at either
        # end, gcd(den, *ints) = 1, and (1, 0, []) for zero
        if truncation_order is not None:
            ints = ints[:max(0, truncation_order - lo + 1)]
        i, j = 0, len(ints)
        while i < j and not ints[i]:
            i += 1
        while j > i and not ints[j - 1]:
            j -= 1
        if i == j:
            den, lo, ints = 1, 0, []
        else:
            if i or j < len(ints):
                ints, lo = ints[i:j], lo + i
            g = math.gcd(den, *ints)
            if g != 1:
                den, ints = den // g, [n // g for n in ints]
        self.var, self.min_degree = var, min_degree
        self.truncation_order = truncation_order
        self.den, self.lo, self.ints = den, lo, ints

    # -- constructors

    @classmethod
    def zero(cls, var: str, truncation_order: Optional[int] = None) -> "LaurentSeries":
        return cls({}, var, 0, truncation_order)

    @classmethod
    def exact(cls, coeffs: Mapping[int, RationalLike], var: str) -> "LaurentSeries":
        return cls(coeffs, var, truncation_order=None)

    # -- structure

    @property
    def coeffs(self) -> dict:
        """The nonzero coefficients, ``{degree: Rational}``."""
        return {k: Rational(n, self.den)
                for k, n in enumerate(self.ints, self.lo) if n}

    def is_zero(self) -> bool:
        """True when no nonzero coefficient is stored (up to truncation)."""
        return not self.ints

    def coefficient(self, degree: int) -> Rational:
        if self.truncation_order is not None and degree > self.truncation_order:
            raise TruncationError(
                f"coefficient of degree {degree} requested, series truncated "
                f"at {self.truncation_order}")
        i = degree - self.lo
        return (Rational(self.ints[i], self.den)
                if 0 <= i < len(self.ints) else ZERO)

    def valuation(self) -> Optional[int]:
        """Least degree with a nonzero coefficient, or None if zero."""
        return self.lo if self.ints else None

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
        return _combination([(1, 1, self), (1, 1, other)], self.var,
                            min(self.min_degree, other.min_degree),
                            None if t >= (1 << 62) else t)

    def __neg__(self) -> "LaurentSeries":
        return self._with([-n for n in self.ints])

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
        a, b = self.ints, other.ints
        lo, na, nb = self.lo + other.lo, len(a), len(b)
        top = na + nb - 2 if trunc is None else min(na + nb - 2, trunc - lo)
        b, ints = b[::-1], []
        for r in range(top + 1):
            # degree lo + r: a[i] b[r - i] over the i both lists reach
            i0, i1 = max(0, r - nb + 1), min(na - 1, r)
            ints.append(sum(map(mul, a[i0:i1 + 1],
                                b[nb - 1 - r + i0:nb - r + i1])))
        return LaurentSeries._of(self.var, self.min_degree + other.min_degree,
                                 trunc, self.den * other.den, lo, ints)

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

    def _with(self, ints: list, den: Optional[int] = None,
              step: int = 0) -> "LaurentSeries":
        """This series with ``ints`` over ``den`` (default its own), every
        degree and the window moved by ``step``."""
        t = self.truncation_order
        return LaurentSeries._of(self.var, self.min_degree + step,
                                 None if t is None else t + step,
                                 self.den if den is None else den,
                                 self.lo + step, ints)

    def scale(self, c: RationalLike) -> "LaurentSeries":
        q = Rational(c)
        f = int(q.numerator)
        return self._with([n * f for n in self.ints],
                          self.den * int(q.denominator))

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by var**k (degree shift)."""
        return self._with(self.ints, step=k)

    def truncate(self, order: int) -> "LaurentSeries":
        if self.truncation_order is not None and order > self.truncation_order:
            raise TruncationError(
                f"cannot extend truncation {self.truncation_order} to {order}")
        return LaurentSeries._of(self.var, self.min_degree, order, self.den,
                                 self.lo, self.ints)

    def derivative(self) -> "LaurentSeries":
        """d/d(var), term by term."""
        return self._with([k * n for k, n in enumerate(self.ints, self.lo)],
                          step=-1)

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentSeries) and self.var == other.var
                and self.ints == other.ints and self.lo == other.lo
                and self.den == other.den
                and self.truncation_order == other.truncation_order)

    def __str__(self) -> str:
        coeffs = self.coeffs
        if not coeffs:
            body = "0"
        else:
            terms = []
            for k in sorted(coeffs):
                c = format_rational(coeffs[k])
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


def _combination(terms: list, var: str, min_degree: int,
                 truncation_order: Optional[int]) -> LaurentSeries:
    """sum of n/d * series over the (n, d, series) of ``terms``, over one
    denominator: the series' ints at a degree, scaled by n/d, add
    ints * n * D/(den d) to the degree's numerator over D."""
    den = math.lcm(*(d * s.den for _, d, s in terms))
    terms = [term for term in terms if term[2].ints]
    lo = min((s.lo for _, _, s in terms), default=0)
    hi = max((s.lo + len(s.ints) - 1 for _, _, s in terms), default=-1)
    if truncation_order is not None:
        hi = min(hi, truncation_order)
    sums = [0] * max(0, hi - lo + 1)
    for n, d, s in terms:
        f = n * (den // (d * s.den))
        for i, x in enumerate(s.ints[:max(0, hi - s.lo + 1)], s.lo - lo):
            sums[i] += x * f
    return LaurentSeries._of(var, min_degree, truncation_order, den, lo, sums)


def polynomial_part(obj: LaurentSeries) -> dict:
    """The terms of non-negative exponent in X of a series in ``"1/X"``,
    as a polynomial in X, ``{degree: Rational}``: stored degree d <= 0
    becomes X^(-d).  The series must be truncated at order >= 0, else
    ``TruncationError`` ("insufficient truncation") — the
    non-negative-power window must be fully known."""
    if obj.truncation_order is not None and obj.truncation_order < 0:
        raise TruncationError("insufficient truncation")
    if not obj.var.startswith("1/"):
        raise ValueError(
            "polynomial part is defined for series in a reciprocal "
            f"variable, got {obj.var!r}")
    return {-k: Rational(n, obj.den) for k, n in
            enumerate(obj.ints[:max(0, 1 - obj.lo)], obj.lo) if n}


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
        if len(s.ints) == 1:
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
    # the coefficient of degree m - val is inv[m]/den: with s = sum a_i/D
    # at degree val + i, inv[0]/den = D/a_0 and
    # inv[m]/den = -(sum_{i=1}^{m} a_i inv[m-i]) / (a_0 den); each step
    # grows den only by the part of a_0 that the sum does not cancel
    a = s.ints
    sign, g = (1 if a[0] > 0 else -1), math.gcd(s.den, a[0])
    den, inv = abs(a[0]) // g, [sign * s.den // g]
    for m in range(1, 1 if out_t is None else out_t + val + 1):
        i1 = min(m, len(a) - 1)
        acc = sum(map(mul, a[1:i1 + 1], inv[m - i1:m][::-1]))
        g = math.gcd(acc, a[0])
        k = abs(a[0]) // g
        if k != 1:
            den, inv = den * k, [n * k for n in inv]
        inv.append(-sign * (acc // g))
    # cut at out_t: a cap below the leading degree -val leaves no
    # coefficient known
    return LaurentSeries._of(s.var, -val, out_t, den, -val, inv)


def laurent_substitute(p, s: LaurentSeries) -> LaurentSeries:
    """Compose: substitute the series ``s`` for the variable of ``p``.

    ``p`` may be a polynomial, ``{degree: coefficient}``, or a
    ``LaurentSeries``.  Negative degrees of ``p`` go through
    ``laurent_reciprocal(s)``.  Honest truncation is inherited from the
    series arithmetic; additionally, when ``p`` is itself truncated its
    unknown tail (degrees > T_p) caps the result at (T_p + 1) * val(s) - 1,
    which requires val(s) >= 1.
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
        # (degree, numerator, denominator) of each term of p
        if isinstance(p, dict):
            p_trunc = None
            terms = [(d, int(c.numerator), int(c.denominator))
                     for d, c in p.items()]
        elif isinstance(p, LaurentSeries):
            p_trunc = p.truncation_order
            terms = [(d, n, p.den) for d, n in enumerate(p.ints, p.lo) if n]
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
        trunc, low, parts = 1 << 62 if cap is None else cap, 0, []
        for d, n, den in terms:
            power = (self.power(d, cap) if d
                     else LaurentSeries._of(s.var, 0, None, 1, 0, [1]))
            trunc = min(trunc, power._trunc_key())
            low = min(low, power.min_degree)
            parts.append((n, den, power))
        return _combination(parts, s.var, low,
                            None if trunc >= 1 << 62 else trunc)


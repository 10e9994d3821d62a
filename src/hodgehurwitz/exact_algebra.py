"""Exact rational arithmetic, sparse univariate polynomials, multiset
helpers and special numbers.

Every number in this package is an exact rational; there is no floating
point anywhere.  Rationals are backed by ``gmpy2.mpq`` when available
(``fractions.Fraction`` otherwise) — both normalize on construction and
print as ``"num/den"`` (or ``"n"`` for integers), which is the
serialization format shared with the CLI.  ``TruncationError`` is
raised by reads past the honest truncation of a series.

Every CLI process loads this module.  The truncated Laurent series live
in ``series``, which loads only with the curve layer; for callers that
read their five names here, those resolve on first access (PEP 562).
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping, Optional, Union

try:
    from gmpy2 import mpq as Rational
except ImportError:  # gmpy2 is optional: the "fast" extra
    from fractions import Fraction as Rational

RationalLike = Union[int, str, "Rational"]

ZERO = Rational(0)
ONE = Rational(1)
HALF = Rational(1, 2)


def rat(x: RationalLike, den: Optional[int] = None) -> Rational:
    """Coerce ``x`` (int, "num/den" string, or rational) to a Rational."""
    if den is not None:
        return Rational(x, den)
    return Rational(x)


def format_rational(q: RationalLike) -> str:
    """Serialize exactly as "num/den", or "n" when the denominator is 1."""
    return str(Rational(q))


class TruncationError(ValueError):
    """A series was asked for data beyond its honest truncation order."""


_SERIES_NAMES = frozenset({"LaurentSeries", "SeriesPowers", "polynomial_part",
                           "laurent_reciprocal", "laurent_substitute"})


def __getattr__(name):
    # any other name raises at once, such as the ``__path__`` that
    # ``from M import x`` asks for
    if name not in _SERIES_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from hodgehurwitz import series
    return getattr(series, name)


# ---------------------------------------------------------------------------
# univariate polynomials


class UniPoly:
    """Sparse exact-coefficient polynomial in one variable.

    Coefficients are stored as a map ``degree -> Rational`` with no zero
    entries.  ``degree()`` of the zero polynomial is ``None`` (a
    distinguished sentinel, never a number).

    EXAMPLES::

        >>> p = UniPoly({2: 3, 1: -2})
        >>> str(p)
        '3*t^2 - 2*t'
        >>> p(rat(2))
        Fraction(8, 1)
    """

    __slots__ = ("var", "coeffs")

    def __init__(self, coeffs: Optional[Mapping[int, RationalLike]] = None,
                 var: str = "t"):
        self.var = var
        d: dict[int, Rational] = {}
        if coeffs:
            for k, v in coeffs.items():
                q = Rational(v)
                if q:
                    if k < 0:
                        raise ValueError("polynomial degree must be >= 0")
                    d[int(k)] = q
        self.coeffs = d

    # -- constructors

    @classmethod
    def zero(cls, var: str = "t") -> "UniPoly":
        return cls({}, var)

    @classmethod
    def one(cls, var: str = "t") -> "UniPoly":
        return cls({0: 1}, var)

    # -- structure

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> Optional[int]:
        """Highest degree with nonzero coefficient; None for the zero poly."""
        return max(self.coeffs) if self.coeffs else None

    def valuation(self) -> Optional[int]:
        return min(self.coeffs) if self.coeffs else None

    def coefficient(self, degree: int) -> Rational:
        return self.coeffs.get(degree, ZERO)

    def leading_coefficient(self) -> Rational:
        if not self.coeffs:
            return ZERO
        return self.coeffs[max(self.coeffs)]

    # -- ring operations

    def _require_same_var(self, other: "UniPoly") -> None:
        if self.var != other.var:
            raise ValueError(
                f"variable mismatch: {self.var!r} vs {other.var!r}")

    def __add__(self, other: "UniPoly") -> "UniPoly":
        self._require_same_var(other)
        d = dict(self.coeffs)
        for k, v in other.coeffs.items():
            s = d.get(k, ZERO) + v
            if s:
                d[k] = s
            else:
                d.pop(k, None)
        out = UniPoly.zero(self.var)
        out.coeffs = d
        return out

    def __neg__(self) -> "UniPoly":
        out = UniPoly.zero(self.var)
        out.coeffs = {k: -v for k, v in self.coeffs.items()}
        return out

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other) -> "UniPoly":
        if not isinstance(other, UniPoly):
            return self.scale(other)
        self._require_same_var(other)
        d: dict[int, Rational] = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                k = k1 + k2
                s = d.get(k, ZERO) + v1 * v2
                if s:
                    d[k] = s
                else:
                    del d[k]
        out = UniPoly.zero(self.var)
        out.coeffs = d
        return out

    def scale(self, c: RationalLike) -> "UniPoly":
        q = Rational(c)
        out = UniPoly.zero(self.var)
        if q:
            out.coeffs = {k: v * q for k, v in self.coeffs.items()}
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, UniPoly) and self.var == other.var
                and self.coeffs == other.coeffs)

    # -- calculus / evaluation

    def derivative(self) -> "UniPoly":
        out = UniPoly.zero(self.var)
        out.coeffs = {k - 1: k * v for k, v in self.coeffs.items() if k >= 1}
        return out

    def __call__(self, x: RationalLike) -> Rational:
        """Evaluate by Horner's rule over the dense degree range."""
        if not self.coeffs:
            return ZERO
        x = Rational(x)
        acc = ZERO
        for k in range(max(self.coeffs), -1, -1):
            acc = acc * x + self.coeffs.get(k, ZERO)
        return acc

    def divide_by_power(self, k: int) -> "UniPoly":
        """Exact division by var**k; raises if any term has degree < k."""
        if any(d < k for d in self.coeffs):
            raise ValueError(f"not divisible by {self.var}^{k}")
        out = UniPoly.zero(self.var)
        out.coeffs = {d - k: v for d, v in self.coeffs.items()}
        return out

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs, reverse=True):
            v = self.coeffs[k]
            sign = "-" if v < 0 else "+"
            mag = -v if v < 0 else v
            if k == 0:
                term = format_rational(mag)
            else:
                pw = self.var if k == 1 else f"{self.var}^{k}"
                term = pw if mag == 1 else f"{format_rational(mag)}*{pw}"
            parts.append((sign, term))
        sign0, term0 = parts[0]
        text = ("-" if sign0 == "-" else "") + term0
        for sign, term in parts[1:]:
            text += f" {sign} {term}"
        return text

    def __repr__(self) -> str:
        return f"UniPoly({self})"


# ---------------------------------------------------------------------------
# multisets


def aut(multiset: tuple[int, ...]) -> int:
    """|Aut| of a multiset: the product of its multiplicities' factorials."""
    acc = 1
    for value in set(multiset):
        acc *= math.factorial(multiset.count(value))
    return acc


def subsets(items: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...],
                                                      tuple[int, ...]]]:
    """Each split of the positions of ``items`` into a chosen part and
    the rest, as (chosen, rest), both in the order of ``items``."""
    for mask in range(1 << len(items)):
        yield (tuple(v for p, v in enumerate(items) if mask >> p & 1),
               tuple(v for p, v in enumerate(items) if not mask >> p & 1))


# ---------------------------------------------------------------------------
# special numbers


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


_BERNOULLI_CACHE: list[Rational] = [ONE, Rational(-1, 2)]


def bernoulli(r: int) -> Rational:
    """Bernoulli number B_r (convention B_1 = -1/2, from z*e^{zx}/(e^z-1))."""
    if r < 0:
        raise ValueError("negative Bernoulli index")
    while len(_BERNOULLI_CACHE) <= r:
        n = len(_BERNOULLI_CACHE)
        acc = ZERO
        for j in range(n):
            acc += math.comb(n + 1, j) * _BERNOULLI_CACHE[j]
        _BERNOULLI_CACHE.append(-acc / (n + 1))
    return _BERNOULLI_CACHE[r]

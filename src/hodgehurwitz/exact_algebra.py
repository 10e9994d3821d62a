"""Exact rational arithmetic and multiset helpers.

Every number in this package is an exact rational; there is no floating
point anywhere.  Rationals are backed by ``gmpy2.mpq`` when available
(``fractions.Fraction`` otherwise) — both normalize on construction and
print as ``"num/den"`` (or ``"n"`` for integers), which is the
serialization format shared with the CLI.  ``TruncationError`` is
raised by reads past the honest truncation of a series.  A polynomial
in one variable is a plain ``{degree: coefficient}`` dict with no zero
coefficient: the xi_hat tower (integers), ``polynomial_part`` and the
residue polynomials p_ab (rationals).

Every CLI process loads this module.  The truncated Laurent series live
in ``series``, which loads only with the curve layer; for callers that
read their five names here, those resolve on first access (PEP 562).
The special numbers (``bernoulli``, ``double_factorial``) live with
their only caller, the curve layer (``lambert_curve``).
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterator, Optional, Union

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
# multisets


def aut(multiset: tuple[int, ...]) -> int:
    """|Aut| of a multiset: the product of its multiplicities' factorials."""
    acc = 1
    for value in set(multiset):
        acc *= math.factorial(multiset.count(value))
    return acc


def remove_one(items: tuple[int, ...], value: int) -> tuple[int, ...]:
    """``items`` without its first occurrence of ``value``."""
    i = items.index(value)
    return items[:i] + items[i + 1:]


def splits(items: tuple[int, ...]) -> Iterator[tuple]:
    """Each split of the multiset ``items`` as (chosen, rest, count):
    both parts non-increasing, ``count`` the number of position subsets
    of ``items`` that give it."""
    values = sorted(set(items), reverse=True)
    mults = [items.count(v) for v in values]
    for ks in product(*(range(m + 1) for m in mults)):
        yield (sum(((v,) * k for v, k in zip(values, ks)), ()),
               sum(((v,) * (m - k) for v, m, k in zip(values, mults, ks)), ()),
               math.prod(map(math.comb, mults, ks)))

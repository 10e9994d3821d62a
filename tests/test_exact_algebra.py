import math
import os
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from hodgehurwitz.exact_algebra import (
    Rational,
    TruncationError,
    format_rational,
    rat,
    splits,
)
from hodgehurwitz.lambert_curve import bernoulli, double_factorial
from hodgehurwitz.series import (
    LaurentSeries,
    SeriesPowers,
    laurent_reciprocal,
    laurent_substitute,
    polynomial_part,
)
from hodge_oracle import divided_difference, fraction_add, \
    fraction_derivative, fraction_mul, fraction_reciprocal, fraction_scale, \
    fraction_shift, fraction_truncate, from_univariate, \
    laurent_substitute_uncapped, permute_vars, poly_add, poly_mul, poly_scale


def test_rational_roundtrip():
    q = rat(-22, 7)
    assert format_rational(q) == "-22/7"
    assert rat("-22/7") == q
    assert format_rational(rat(5)) == "5"
    assert rat("5") == Rational(5)


@given(st.lists(st.integers(0, 3), max_size=8).map(tuple))
@settings(max_examples=60)
def test_splits_are_the_position_subsets_collected(items):
    # each multiset split stands for exactly the position masks giving it
    by_mask = Counter()
    for mask in range(1 << len(items)):
        chosen = [v for p, v in enumerate(items) if mask >> p & 1]
        rest = [v for p, v in enumerate(items) if not mask >> p & 1]
        by_mask[tuple(sorted(chosen, reverse=True)),
                tuple(sorted(rest, reverse=True))] += 1
    got = Counter()
    for chosen, rest, count in splits(items):
        assert (chosen, rest) not in got
        got[chosen, rest] = count
    assert got == by_mask


# --- multivariate polynomials (test oracles): {exponents: coefficient} -----

coeff_st = st.integers(min_value=-30, max_value=30)


def test_multipoly_product_and_degrees():
    x = from_univariate({1: 1}, 2, 0)
    y = from_univariate({1: 1}, 2, 1)
    p = poly_mul(poly_add(x, y), poly_add(x, poly_scale(y, -1)))
    assert p == {(2, 0): 1, (0, 2): -1}
    assert max(map(sum, p)) == 2
    assert max(e[0] for e in p) == 2


def test_multipoly_permute_vars():
    q = permute_vars({(2, 1): 3}, (1, 0))
    assert q == {(1, 2): 3}


def test_divided_difference_exact():
    # (x^3 - y^3)/(x - y) = x^2 + xy + y^2
    q = divided_difference({(3, 0): 1, (0, 3): -1}, 0, 1)
    assert q == {(2, 0): 1, (1, 1): 1, (0, 2): 1}


@given(st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 3)),
    coeff_st, max_size=5))
@settings(max_examples=40)
def test_divided_difference_inverts_multiplication(terms):
    q = {e: c for e, c in terms.items() if c}
    xy = {(1, 0, 0): 1, (0, 1, 0): -1}
    assert divided_difference(poly_mul(q, xy), 0, 1) == q


def test_divided_difference_rejects_nondivisible():
    p = {(1, 0): 1, (0, 1): 1}  # x + y
    with pytest.raises(ValueError, match="not antisymmetric"):
        divided_difference(p, 0, 1)


# --- LaurentSeries ---------------------------------------------------------


def test_series_truncation_propagates_through_mul():
    a = LaurentSeries({-1: 1, 0: 2, 1: 3}, "v", -1, 4)
    b = LaurentSeries({2: 1, 3: 5}, "v", 2, 6)
    c = a * b
    assert c.min_degree == 1
    # unknown tail of b at degree 7 times the v^-1 head of a pollutes degree 6
    assert c.truncation_order == 5
    assert c.coefficient(1) == 1
    assert c.coefficient(2) == 2 + 5
    with pytest.raises(TruncationError):
        c.coefficient(6)


def test_series_add_takes_min_truncation():
    a = LaurentSeries({0: 1}, "v", 0, 10)
    b = LaurentSeries({1: 1}, "v", 0, 3)
    assert (a + b).truncation_order == 3


def test_series_exact_arithmetic_stays_exact():
    a = LaurentSeries.exact({-2: 1, 1: 4}, "v")
    b = LaurentSeries.exact({0: 3}, "v")
    c = a * b + a
    assert c.truncation_order is None
    assert c.coefficient(10**6) == 0  # any degree readable on exact series


def test_series_coefficient_raises_past_truncation():
    a = LaurentSeries({0: 1}, "v", 0, 5)
    assert a.coefficient(5) == 0
    with pytest.raises(TruncationError):
        a.coefficient(6)


def test_series_derivative():
    a = LaurentSeries({-1: 2, 0: 7, 3: 1}, "v", -1, 5)
    d = a.derivative()
    assert d.coefficient(-2) == -2
    assert d.coefficient(2) == 3
    assert d.truncation_order == 4


def test_laurent_reciprocal_roundtrip_random():
    import random
    rng = random.Random(12345)
    for _ in range(50):
        val = rng.randint(-3, 3)
        coeffs = {val: rng.choice([1, -1, 2, 3, rat(1, 2)])}
        trunc = val + rng.randint(2, 8)
        for d in range(val + 1, trunc + 1):
            if rng.random() < 0.7:
                coeffs[d] = rat(rng.randint(-5, 5), rng.randint(1, 4))
        s = LaurentSeries(coeffs, "v", val, trunc)
        r = laurent_reciprocal(s)
        assert r.truncation_order == trunc - 2 * val
        prod = s * r
        assert prod.coefficient(0) == 1
        for d in range(1, prod.truncation_order + 1):
            assert prod.coefficient(d) == 0


def test_laurent_reciprocal_exact_monomial():
    s = LaurentSeries.exact({3: rat(2)}, "v")
    r = laurent_reciprocal(s)
    assert r.truncation_order is None
    assert r.coeffs == {-3: rat(1, 2)}


def test_laurent_reciprocal_exact_nonmonomial_needs_order():
    s = LaurentSeries.exact({0: 1, 1: -1}, "v")
    with pytest.raises(ValueError):
        laurent_reciprocal(s)
    r = laurent_reciprocal(s, order=5)
    # 1/(1-v) = 1 + v + v^2 + ...
    for d in range(6):
        assert r.coefficient(d) == 1


@pytest.mark.parametrize("s, cap", [
    (LaurentSeries.exact({-3: 1, -2: -1}, "1/t"), 2),  # t^2 (t - 1)
    (LaurentSeries({-1: 1, 0: 1}, "1/t", truncation_order=5), 0),
], ids=["exact", "truncated"])
def test_laurent_reciprocal_cap_below_the_leading_degree(s, cap):
    # the inverse starts at degree -val(s) > cap: nothing is known
    # through the cap, and the series says so instead of raising
    r = laurent_reciprocal(s, order=cap)
    assert r.is_zero()
    assert r.truncation_order == cap
    assert r.min_degree == -s.valuation()
    assert (s * r).truncation_order < 0
    # one degree higher, the cap reaches the leading term
    r = laurent_reciprocal(s, order=-s.valuation())
    assert r.coeffs == {-s.valuation(): 1}


def test_laurent_substitute_polynomial():
    p = {2: 1, 0: -1}  # t^2 - 1
    s = LaurentSeries({1: 1, 2: 1}, "v", 1, 6)  # v + v^2 + O(v^7)
    out = laurent_substitute(p, s)
    assert out.coefficient(0) == -1
    assert out.coefficient(2) == 1
    assert out.coefficient(3) == 2
    assert out.coefficient(4) == 1


@pytest.mark.parametrize("p", [[1, 2], (1, 2), 3, rat(1, 2), "t^2 - 1",
                               None, {1, 2}])
def test_substitute_refuses_neither_a_dict_nor_a_series(p):
    s = LaurentSeries({1: 1, 2: 1}, "v", 1, 6)
    with pytest.raises(TypeError, match="unsupported input"):
        SeriesPowers(s).substitute(p)
    with pytest.raises(TypeError, match="unsupported input"):
        laurent_substitute(p, s)


def test_laurent_substitute_negative_powers():
    p = LaurentSeries.exact({-1: 1}, "u")  # 1/u
    s = LaurentSeries({1: 1, 2: -1}, "v", 1, 5)
    out = laurent_substitute(p, s)
    # 1/(v - v^2) = v^{-1} (1 + v + v^2 + ...)
    assert out.coefficient(-1) == 1
    assert out.coefficient(0) == 1
    assert out.coefficient(1) == 1


def test_laurent_substitute_truncated_outer_caps_result():
    p = LaurentSeries({0: 1, 1: 1, 2: 1}, "u", 0, 2)  # unknown from u^3
    s = LaurentSeries({2: 1}, "v", 2, 10)  # valuation 2
    out = laurent_substitute(p, s)
    # unknown u^3 tail enters at v^6, so honest order is 5
    assert out.truncation_order == 5
    s_bad = LaurentSeries({0: 1, 1: 1}, "v", 0, 10)
    with pytest.raises(TruncationError):
        laurent_substitute(p, s_bad)


# --- the integer product and the capped powers ------------------------------

rational_st = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def series_st(draw, min_degree=st.integers(-4, 3), var="v", exact=True):
    """A series with negative degrees allowed, truncated, or exact too
    when ``exact``; the stored min_degree may sit below the valuation."""
    m = draw(min_degree)
    trunc = draw(st.integers(m - 1, m + 8) if not exact else
                 st.one_of(st.none(), st.integers(m - 1, m + 8)))
    top = m + 8 if trunc is None else trunc
    coeffs = draw(st.dictionaries(st.integers(m, max(m, top)), rational_st,
                                  max_size=8))
    if trunc is not None:
        coeffs = {k: c for k, c in coeffs.items() if k <= trunc}
    return LaurentSeries({k: Rational(c) for k, c in coeffs.items()}, var, m,
                         trunc)


def assert_canonical(s):
    """(den, lo, ints) is reduced, with no zero at either end, inside
    the window, and (1, 0, []) for zero; so == means equal
    coefficients."""
    assert s.den > 0 and all(type(n) is int for n in (s.den, *s.ints))
    assert math.gcd(s.den, *s.ints) == 1
    if s.ints:
        assert s.ints[0] and s.ints[-1]
        assert s.lo >= s.min_degree
        t = s.truncation_order
        assert t is None or s.lo + len(s.ints) - 1 <= t
    else:
        assert (s.den, s.lo) == (1, 0)


def assert_same_series(got, want):
    assert got == want  # var, coefficients and truncation order
    assert got.coeffs == want.coeffs
    assert got.min_degree == want.min_degree
    assert_canonical(got)
    assert_canonical(want)


@given(series_st(), series_st())
@settings(max_examples=150)
def test_series_product_matches_the_fraction_loop(a, b):
    assert_same_series(a * b, fraction_mul(a, b))


@pytest.mark.parametrize("a, b", [
    # (1 + v)(1 - v): the v term cancels to zero
    ({0: 1, 1: 1}, {0: 1, 1: -1}),
    # (v^-2 - v^-1/2)(2 v^-1 + 4): every degree below v^0 cancels
    ({-2: 1, -1: rat(-1, 2)}, {-1: 2, 0: 4}),
    # (v^-1 + 1)(v - v^2 + v^3 - ...): all but the constant cancel
    ({-1: 1, 0: 1}, {1: 1, 2: -1, 3: 1, 4: -1, 5: 1}),
])
@pytest.mark.parametrize("truncated", [False, True])
def test_series_product_cancels_to_zero(a, b, truncated):
    a = LaurentSeries(a, "v", truncation_order=6 if truncated else None)
    b = LaurentSeries(b, "v",
                      truncation_order=5 if truncated or len(b) > 2 else None)
    assert_same_series(a * b, fraction_mul(a, b))
    assert 1 not in (a * b).coeffs


@given(series_st(), series_st(), st.sampled_from([1, -1]))
@settings(max_examples=150)
def test_series_sum_matches_the_fraction_loop(a, b, sign):
    assert_same_series(a + b if sign == 1 else a - b, fraction_add(a, b, sign))
    # a part of b that a cancels: a + b - b loses what lies past b's
    # truncation, and a - a is the one zero
    back = a + b - b
    assert_same_series(back, fraction_add(fraction_add(a, b), b, -1))
    assert_same_series(a - a, fraction_add(a, a, -1))
    assert (a - a).is_zero() and -(-a) == a


@given(series_st(), rational_st, st.integers(-6, 6))
@settings(max_examples=150)
def test_series_scale_shift_derivative_match_the_fraction_loop(a, c, step):
    assert_same_series(a.scale(c), fraction_scale(a, c))
    assert_same_series(a * c, fraction_scale(a, c))
    assert_same_series(-a, fraction_scale(a, -1))
    assert_same_series(a.shift(step), fraction_shift(a, step))
    assert_same_series(a.derivative(), fraction_derivative(a))


@given(series_st(), st.integers(-6, 12))
@settings(max_examples=150)
def test_series_truncate_matches_the_fraction_loop(a, order):
    if a.truncation_order is not None and order > a.truncation_order:
        with pytest.raises(TruncationError):
            a.truncate(order)
    else:
        assert_same_series(a.truncate(order), fraction_truncate(a, order))


@given(series_st(), st.one_of(st.none(), st.integers(-6, 12)))
@settings(max_examples=150)
def test_laurent_reciprocal_matches_the_fraction_loop(s, order):
    if s.is_zero():
        with pytest.raises(ValueError):
            laurent_reciprocal(s, order)
    elif s.truncation_order is None and len(s.ints) > 1 and order is None:
        with pytest.raises(ValueError):
            laurent_reciprocal(s)
    else:
        assert_same_series(laurent_reciprocal(s, order),
                           fraction_reciprocal(s, order))


@pytest.mark.parametrize("s", [
    # a leading 1 stored as 36/36: the inverse's denominators grow as
    # 36^m
    LaurentSeries({0: 1, 1: rat(1, 36)}, "v", 0, 12),
    # a leading 2/3 against a tail over 5 and 7
    LaurentSeries({-2: rat(2, 3), 0: rat(1, 5), 1: rat(-3, 7)}, "v", -3, 9),
])
def test_laurent_reciprocal_denominators_are_the_fraction_loop(s):
    assert_same_series(laurent_reciprocal(s), fraction_reciprocal(s))


@given(series_st(), series_st(), st.integers(-8, 12))
@settings(max_examples=100)
def test_mul_through_is_the_truncated_product(a, b, degree):
    want = fraction_mul(a, b)
    if want.truncation_order is None or degree < want.truncation_order:
        want = want.truncate(degree)
    assert_same_series(a.mul_through(b, degree), want)


@st.composite
def inner_st(draw):
    """A truncated inner series of valuation 1 or 2 whose stored
    min_degree may be up to two below it, negative included."""
    val = draw(st.integers(1, 2))
    lead = draw(rational_st.filter(bool))
    rest = draw(st.dictionaries(st.integers(val + 1, val + 10), rational_st,
                                max_size=5))
    trunc = draw(st.integers(val + 1, val + 10))
    coeffs = {k: c for k, c in rest.items() if k <= trunc}
    coeffs[val] = lead
    return LaurentSeries(coeffs, "v", val - draw(st.integers(0, 2)), trunc)


outer_st = st.one_of(
    st.dictionaries(st.integers(0, 7), rational_st, max_size=5).map(
        lambda c: {k: Rational(v) for k, v in c.items() if v}),
    series_st(min_degree=st.integers(-3, 2), var="u", exact=False))


@given(inner_st(), st.lists(outer_st, min_size=1, max_size=4))
@settings(max_examples=80)
def test_capped_substitute_equals_the_uncapped_composition(s, outers):
    # one table serves every composition, so powers formed through one
    # cap are asked again through other caps and through none
    table = SeriesPowers(s)
    for p in outers:
        want = laurent_substitute_uncapped(p, s)
        assert_same_series(table.substitute(p), want)
        assert_same_series(laurent_substitute(p, s), want)


def test_capped_powers_stop_at_the_cap():
    s = LaurentSeries({1: 1, 2: rat(1, 3), 3: rat(7, 36)}, "v", 1, 12)
    table = SeriesPowers(s)
    # s^4 through degree 4 forms s^2 and s^3 through degree 4 first, not
    # through their honest 13 and 14
    assert table.power(4, 4) == laurent_substitute_uncapped(
        {4: 1}, s).truncate(4)
    for k in range(2, 5):
        assert table.power(k, 4).truncation_order == 4
    p = LaurentSeries({1: 1, 2: 1, 3: 1, 4: 1, 5: 1}, "u", 1, 5)  # cap 5
    assert_same_series(table.substitute(p),
                       laurent_substitute_uncapped(p, s))
    # asking the whole window forms each power again, in full
    for k in range(1, 6):
        assert table.power(k) == laurent_substitute_uncapped(
            {k: 1}, s)
        assert table.power(k).min_degree == k


# --- polynomial_part -------------------------------------------------------


def test_polynomial_part_of_series():
    # stored degree d is the t^(-d) coefficient for var "1/t"
    s = LaurentSeries({-2: 3, 0: 5, 2: 7}, "1/t", -2, 4)
    p = polynomial_part(s)
    assert p == {2: 3, 0: 5}


def test_polynomial_part_requires_window():
    s = LaurentSeries({-2: 3}, "1/t", -2, -1)
    with pytest.raises(TruncationError, match="insufficient truncation"):
        polynomial_part(s)


def test_polynomial_part_requires_reciprocal_var():
    s = LaurentSeries({1: 1}, "v", 1, 4)
    with pytest.raises(ValueError):
        polynomial_part(s)


def test_polynomial_part_idempotent_and_linear():
    a = LaurentSeries({-3: 1, -1: 4, 1: 2}, "1/t", -3, 5)
    b = LaurentSeries({-2: 7, 3: 1}, "1/t", -2, 5)
    pa, pb = polynomial_part(a), polynomial_part(b)
    assert polynomial_part(a + b) == poly_add(pa, pb)
    # projecting twice changes nothing: embed pa back and project again
    back = LaurentSeries({-d: v for d, v in pa.items()}, "1/t",
                         truncation_order=5)
    assert polynomial_part(back) == pa


# --- the series names resolve here on first access ---------------------------

_LAZY_PROBE = """\
import sys
from hodgehurwitz.exact_algebra import rat
from hodgehurwitz import exact_algebra
assert not hasattr(exact_algebra, "__path__")
try:
    exact_algebra.no_such_name
except AttributeError:
    pass
else:
    raise SystemExit("an unknown name resolved")
assert "hodgehurwitz.series" not in sys.modules
from hodgehurwitz import series
for name in ("LaurentSeries", "SeriesPowers", "polynomial_part",
             "laurent_reciprocal", "laurent_substitute"):
    assert getattr(exact_algebra, name) is getattr(series, name), name
"""


def test_series_names_load_the_series_layer_only_on_access():
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_PROBE], capture_output=True, text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    assert proc.returncode == 0, proc.stderr


# --- special numbers -------------------------------------------------------


def test_double_factorial_positive():
    assert double_factorial(-1) == 1
    assert double_factorial(1) == 1
    assert double_factorial(3) == 3
    assert double_factorial(5) == 15
    assert double_factorial(7) == 105
    assert double_factorial(9) == 945


def test_double_factorial_negative_extension():
    assert double_factorial(-3) == -1
    assert double_factorial(-5) == rat(1, 3)
    assert double_factorial(-7) == rat(-1, 15)


def test_double_factorial_recurrence_spans_negative_range():
    for n in range(-9, 10, 2):
        assert double_factorial(n + 2) == double_factorial(n) * (n + 2)


def test_double_factorial_rejects_even():
    with pytest.raises(ValueError):
        double_factorial(4)


def test_bernoulli_values():
    expected = {0: rat(1), 1: rat(-1, 2), 2: rat(1, 6), 3: rat(0),
                4: rat(-1, 30), 6: rat(1, 42), 8: rat(-1, 30),
                10: rat(5, 66), 12: rat(-691, 2730)}
    for r, v in expected.items():
        assert bernoulli(r) == v
    for r in range(3, 20, 2):
        assert bernoulli(r) == 0

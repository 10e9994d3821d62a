import pytest
from hypothesis import given, settings, strategies as st

from hodgehurwitz.exact_algebra import (
    LaurentSeries,
    MultiPoly,
    Rational,
    TruncationError,
    UniPoly,
    bernoulli,
    divided_difference,
    double_factorial,
    format_rational,
    laurent_reciprocal,
    laurent_substitute,
    polynomial_part,
    rat,
)


def test_rational_roundtrip():
    q = rat(-22, 7)
    assert format_rational(q) == "-22/7"
    assert rat("-22/7") == q
    assert format_rational(rat(5)) == "5"
    assert rat("5") == Rational(5)


# --- UniPoly ---------------------------------------------------------------

coeff_st = st.integers(min_value=-30, max_value=30)
unipoly_st = st.dictionaries(st.integers(min_value=0, max_value=8), coeff_st,
                             max_size=6).map(UniPoly)


@given(unipoly_st, unipoly_st, unipoly_st)
@settings(max_examples=60)
def test_unipoly_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + UniPoly.zero() == a
    assert a * UniPoly.one() == a
    assert a - a == UniPoly.zero()


@given(unipoly_st, unipoly_st)
@settings(max_examples=40)
def test_unipoly_evaluation_is_ring_hom(a, b):
    x = rat(3, 2)
    assert (a * b)(x) == a(x) * b(x)
    assert (a + b)(x) == a(x) + b(x)


def test_unipoly_degree_and_leading():
    p = UniPoly({3: 2, 0: -1})
    assert p.degree() == 3
    assert p.leading_coefficient() == 2
    assert UniPoly.zero().degree() is None
    assert UniPoly.zero().leading_coefficient() == 0


def test_unipoly_derivative():
    p = UniPoly({3: 1, 1: 5, 0: 7})
    assert p.derivative() == UniPoly({2: 3, 0: 5})


def test_unipoly_pow():
    p = UniPoly({1: 1, 0: 1})
    assert p ** 3 == UniPoly({3: 1, 2: 3, 1: 3, 0: 1})
    assert p ** 0 == UniPoly.one()


def test_unipoly_divide_by_power():
    p = UniPoly({3: 4, 2: -1})
    assert p.divide_by_power(2) == UniPoly({1: 4, 0: -1})
    with pytest.raises(ValueError):
        p.divide_by_power(3)


def test_unipoly_str():
    assert str(UniPoly({2: 3, 1: -2})) == "3*t^2 - 2*t"
    assert str(UniPoly.zero()) == "0"


# --- MultiPoly -------------------------------------------------------------


def test_multipoly_product_and_degrees():
    x = MultiPoly.from_unipoly(UniPoly({1: 1}), ("x", "y"), 0)
    y = MultiPoly.from_unipoly(UniPoly({1: 1}), ("x", "y"), 1)
    p = (x + y) * (x - y)
    assert p == MultiPoly(("x", "y"), {(2, 0): 1, (0, 2): -1})
    assert p.total_degree() == 2
    assert p.degree_in("x") == 2


def test_multipoly_derivative_in():
    p = MultiPoly(("x", "y"), {(2, 1): 3, (0, 1): 5})
    assert p.derivative_in("x") == MultiPoly(("x", "y"), {(1, 1): 6})


def test_multipoly_permute_vars():
    p = MultiPoly(("x", "y"), {(2, 1): 3})
    q = p.permute_vars({"x": "y", "y": "x"})
    assert q == MultiPoly(("x", "y"), {(1, 2): 3})


def test_divided_difference_exact():
    # (x^3 - y^3)/(x - y) = x^2 + xy + y^2
    p = MultiPoly(("x", "y"), {(3, 0): 1, (0, 3): -1})
    q = divided_difference(p, "x", "y")
    assert q == MultiPoly(("x", "y"), {(2, 0): 1, (1, 1): 1, (0, 2): 1})


@given(st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 3)),
    coeff_st, max_size=5))
@settings(max_examples=40)
def test_divided_difference_inverts_multiplication(terms):
    q = MultiPoly(("x", "y", "z"), terms)
    xy = MultiPoly(("x", "y", "z"), {(1, 0, 0): 1, (0, 1, 0): -1})
    assert divided_difference(q * xy, "x", "y") == q


def test_divided_difference_rejects_nondivisible():
    p = MultiPoly(("x", "y"), {(1, 0): 1, (0, 1): 1})  # x + y
    with pytest.raises(ValueError, match="not antisymmetric"):
        divided_difference(p, "x", "y")


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
    p = UniPoly({2: 1, 0: -1})  # t^2 - 1
    s = LaurentSeries({1: 1, 2: 1}, "v", 1, 6)  # v + v^2 + O(v^7)
    out = laurent_substitute(p, s)
    assert out.coefficient(0) == -1
    assert out.coefficient(2) == 1
    assert out.coefficient(3) == 2
    assert out.coefficient(4) == 1


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


# --- polynomial_part -------------------------------------------------------


def test_polynomial_part_of_series():
    # stored degree d is the t^(-d) coefficient for var "1/t"
    s = LaurentSeries({-2: 3, 0: 5, 2: 7}, "1/t", -2, 4)
    p = polynomial_part(s)
    assert isinstance(p, UniPoly)
    assert p.var == "t"
    assert p == UniPoly({2: 3, 0: 5})


def test_polynomial_part_requires_window():
    s = LaurentSeries({-2: 3}, "1/t", -2, -1)
    with pytest.raises(TruncationError, match="insufficient truncation"):
        polynomial_part(s)


def test_polynomial_part_requires_reciprocal_var():
    s = LaurentSeries({1: 1}, "v", 1, 4)
    with pytest.raises(ValueError):
        polynomial_part(s)


def test_polynomial_part_multipoly():
    p = MultiPoly(("x", "y"), {(-1, 2): 1, (0, 1): 2, (3, -4): 5})
    out = polynomial_part(p, laurent_var="x")
    assert out == MultiPoly(("x", "y"), {(0, 1): 2, (3, -4): 5})


def test_polynomial_part_idempotent_and_linear():
    a = LaurentSeries({-3: 1, -1: 4, 1: 2}, "1/t", -3, 5)
    b = LaurentSeries({-2: 7, 3: 1}, "1/t", -2, 5)
    pa, pb = polynomial_part(a), polynomial_part(b)
    assert polynomial_part(a + b) == pa + pb
    # projecting twice changes nothing: embed pa back and project again
    back = LaurentSeries({-d: v for d, v in pa.coeffs.items()}, "1/t",
                         truncation_order=5)
    assert polynomial_part(back) == pa


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

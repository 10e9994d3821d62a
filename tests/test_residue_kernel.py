import pytest

from hodgehurwitz.exact_algebra import (
    MultiPoly,
    TruncationError,
    UniPoly,
    double_factorial,
    rat,
)
from hodgehurwitz.lambert_curve import s_powers, xi_hat
from hodgehurwitz.residue_kernel import (
    ResidueCache,
    p_ab,
    p_ab_eta,
    p_n,
    p_n_eta,
)


def test_p_ab_00_frozen():
    # both pipelines agreed on this value; frozen as a regression anchor
    assert p_ab(0, 0) == UniPoly(
        {4: rat(1, 2), 3: rat(-2, 3), 2: rat(1, 9), 1: rat(8, 135)})


def test_p_ab_symmetry():
    for a in range(4):
        for b in range(4):
            assert p_ab(a, b) == p_ab(b, a)


def test_p_ab_degree_and_leading():
    for a in range(3):
        for b in range(3):
            q = p_ab(a, b)
            assert q.degree() == 2 * (a + b + 2)
            expected = (double_factorial(2 * a + 1)
                        * double_factorial(2 * b + 1)) / 2
            assert q.leading_coefficient() == expected


def test_p_ab_matches_eta_form_small():
    for a in range(3):
        for b in range(a, 3):
            assert p_ab(a, b) == p_ab_eta(a, b)


def test_p_ab_eta_insufficient_order_raises():
    with pytest.raises(TruncationError):
        p_ab_eta(2, 2, order=6)


def test_p_n_0_frozen():
    assert p_n(0) == MultiPoly(
        ("t", "t_i"),
        {(2, 0): 1, (0, 2): 3, (1, 0): rat(-2, 3), (0, 1): -2})


def test_p_n_degrees():
    for n in range(4):
        q = p_n(n)
        assert q.degree_in("t") == 2 * n + 2
        assert q.degree_in("t_i") == 2 * n + 2


def test_p_n_matches_eta_form_small():
    for n in range(4):
        assert p_n(n) == p_n_eta(n)


def test_p_n_eta_m_sum_insensitivity():
    for n in range(4):
        assert p_n_eta(n) == p_n_eta(n, m_max=n + 4)


def test_p_n_primitive_consistency():
    # the t_i-degree-0 slice of p_n equals the t_i-coefficient of degree 1
    # in the primitive, i.e. d/dt_i evaluated at t_i = 0: re-derive from
    # p_n itself by integrating back one step in t_i
    q = p_n(2)
    base = {d: c for (d, k), c in q.terms.items() if k == 0}
    assert base  # nonzero slice
    # integrating: primitive coefficient at t_i^1 is exactly base
    # (derivative_in multiplies by the exponent 1); cross-check by
    # rebuilding the derivative of the embedded monomial
    embedded = MultiPoly(("t", "t_i"), {(d, 1): c for d, c in base.items()})
    slice0 = MultiPoly(("t", "t_i"), {(d, 0): c for d, c in base.items()})
    assert embedded.derivative_in("t_i") == slice0


def test_cache_instances_are_consistent():
    cache = ResidueCache()
    assert cache.p_ab(1, 2) == p_ab(2, 1)
    assert cache.p_n(1) == p_n(1)


def test_composition_with_s_is_shared_across_orders():
    # xi_hat_k(s) is composed at the highest order asked so far; a lower
    # order gets its truncation, equal to a fresh composition there,
    # truncation order included
    cache = ResidueCache()
    for k, order in ((3, 20), (3, 14), (1, 9), (3, 26), (1, 26), (3, 8)):
        fresh = s_powers(order).substitute(xi_hat(k))
        assert cache._xi_hat_of_s(k, order) == fresh, (k, order)
    assert {k: held[0] for k, held in cache._xi_s.items()} == {1: 26, 3: 26}


def test_invalid_indices():
    with pytest.raises(ValueError):
        p_ab(-1, 0)
    with pytest.raises(ValueError):
        p_n(-2)

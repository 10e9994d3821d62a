import math

import pytest

from hodgehurwitz import hodge_solver, lambert_curve, residue_kernel
from hodgehurwitz.cli import main
from hodgehurwitz.exact_algebra import (
    LaurentSeries,
    UniPoly,
    double_factorial,
    laurent_reciprocal,
    laurent_substitute,
    rat,
)
from hodgehurwitz.lambert_curve import (
    d_dt,
    eta_series,
    eta_xi_identity_check,
    h02_series_identity_check,
    poly_as_recip_series,
    s_involution,
    stirling_coefficients,
    v_series,
    w_series,
    xi_form,
    xi_hat,
    xi_hat_over_t,
    xi_in_x_check,
)
from hodgehurwitz.residue_kernel import ResidueCache

ORDER = 30


@pytest.fixture
def curve_solves(monkeypatch):
    """A fresh process memo of the curve series, and the orders at which
    s(t) and v(t) are then solved, in call order."""
    monkeypatch.setattr(lambert_curve, "_CURVE", lambert_curve._CurveMemo())
    solves = {"s": [], "v": []}
    for name in solves:
        solve = getattr(lambert_curve, f"_solve_{name}")

        def counting(order, seed=None, name=name, solve=solve):
            solves[name].append(order)
            return solve(order, seed)

        monkeypatch.setattr(lambert_curve, f"_solve_{name}", counting)
    return solves


# --- xi_hat tower ------------------------------------------------------------


def test_xi_hat_first_members():
    assert xi_hat(0) == UniPoly({1: 1, 0: -1})
    assert xi_hat(1) == UniPoly({3: 1, 2: -1})
    assert xi_hat(2) == UniPoly({5: 3, 4: -5, 3: 2})


def test_xi_hat_degree_leading_and_root():
    for n in range(13):
        p = xi_hat(n)
        assert p.degree() == 2 * n + 1
        expected_leading = 1 if n == 0 else double_factorial(2 * n - 1)
        assert p.leading_coefficient() == expected_leading
        assert p(1) == 0


def test_xi_hat_laurent_members():
    m1 = xi_hat(-1)
    assert isinstance(m1, LaurentSeries)
    assert m1.coeffs == {0: rat(1), 1: rat(-1)}  # 1 - 1/t
    m2 = xi_hat(-2)
    assert m2.coeffs == {2: rat(-1, 2)}  # -1/(2 t^2), additive const dropped
    with pytest.raises(ValueError):
        xi_hat(-3)


def test_xi_form_values_and_structure():
    assert xi_form(0) == UniPoly({0: 1})
    assert xi_form(1) == UniPoly({2: 3, 1: -2})
    for n in range(11):
        f = xi_form(n)
        assert f == xi_hat(n).derivative()
        assert f.degree() == 2 * n
        assert f.leading_coefficient() == double_factorial(2 * n + 1)
        # lowest term (-1)^n (n+1)! t^n
        assert f.valuation() == n
        assert f.coefficient(n) == (-1) ** n * math.factorial(n + 1)


def test_xi_hat_over_t_is_exact_polynomial():
    for n in range(8):
        q = xi_hat_over_t(n)
        assert q * UniPoly({1: 1}) == xi_hat(n + 1)


# --- curve series ------------------------------------------------------------


def test_w_series_coefficients():
    w = w_series(12)
    assert w.coefficient(2) == rat(1, 2)
    assert w.coefficient(1) == 0
    assert w.coefficient(5) == rat(1, 5)
    assert w.min_degree == 2 and w.truncation_order == 12


def test_s_involution_printed_coefficients():
    s = s_involution(ORDER)
    assert s.coefficient(-1) == -1
    assert s.coefficient(0) == rat(2, 3)
    assert s.coefficient(1) == 0
    assert s.coefficient(2) == rat(4, 135)
    assert s.coefficient(3) == rat(8, 405)
    assert s.coefficient(4) == rat(8, 567)


def test_s_involution_low_orders_are_truncations():
    # the uncached solve, from scratch and grown from a lower solve, is
    # the truncation of a deeper one; at orders 2-7, 11-13 and 23-25 a
    # residual checked only through `order` leaves the top terms wrong
    full = lambert_curve._solve_s(60)
    for k in range(61):
        assert lambert_curve._solve_s(k) == full.truncate(k), k
    for k in list(range(2, 8)) + [11, 12, 13, 23, 24, 25, 60]:
        seed = full.truncate(k // 2)
        assert lambert_curve._solve_s(k, seed) == full.truncate(k), k


def test_s_recurrence_resumes_from_the_held_coefficients(monkeypatch):
    # growing passes the held coefficients on unchanged and computes
    # only the new ones
    seed = lambert_curve._solve_s(12)
    resumed = []
    extend = lambert_curve._s_coefficients

    def recording(held, order):
        resumed.append(len(held))
        return extend(held, order)

    monkeypatch.setattr(lambert_curve, "_s_coefficients", recording)
    assert lambert_curve._solve_s(20, seed) == lambert_curve._solve_s(20)
    assert resumed == [14, 1]
    # so a wrong coefficient held is carried on, and the check refuses it
    bad = LaurentSeries({**seed.coeffs, 5: seed.coefficient(5) * 2},
                        "1/t", -1, 12)
    with pytest.raises(RuntimeError, match="internal error"):
        lambert_curve._solve_s(20, bad)


@pytest.mark.parametrize("index", [0, 1, 2, 9, 40, 60])
def test_s_recurrence_corruption_is_caught(monkeypatch, index):
    # one wrong coefficient out of the recurrence, at t^-index, must
    # fail the defining-equation check (or, at t^-1, the t^-1 check)
    extend = lambert_curve._s_coefficients

    def corrupted(held, order):
        c = extend(held, order)
        c[index + 1] += rat(1, 10 ** 6)
        return c

    monkeypatch.setattr(lambert_curve, "_s_coefficients", corrupted)
    with pytest.raises(RuntimeError, match="internal error"):
        lambert_curve._solve_s(60)


def test_s_involution_grows_from_lower_orders(curve_solves):
    # lower orders are truncations of the series held; a higher order
    # resumes the solve from it and equals a solve from scratch
    served = {k: s_involution(k) for k in (10, 4, 16, 12, 20)}
    assert curve_solves["s"] == [10, 16, 20]
    for k, s in served.items():
        assert s == lambert_curve._solve_s(k), k


def test_s_involution_fixes_w():
    for order in (ORDER, 60):
        s = s_involution(order)
        w = w_series(order)
        diff = laurent_substitute(w, laurent_reciprocal(s)) - w
        assert diff.is_zero(), order
        assert diff.truncation_order >= order - 4, order


def test_s_involution_is_an_involution():
    s = s_involution(ORDER)
    # s(s(t)): substitute 1/s(t) for the formal variable of s
    ss = laurent_substitute(s, laurent_reciprocal(s))
    t = LaurentSeries.exact({-1: 1}, "1/t")
    diff = ss - t
    assert diff.is_zero()
    assert diff.truncation_order >= ORDER - 6


def test_v_series_printed_coefficients():
    v = v_series(ORDER)
    assert v.coefficient(1) == 1
    assert v.coefficient(2) == rat(1, 3)
    assert v.coefficient(3) == rat(7, 36)
    assert v.coefficient(4) == rat(73, 540)
    assert v.coefficient(5) == rat(1331, 12960)


def test_v_series_low_orders_are_truncations(curve_solves):
    # v(t) is an infinite series at every order, including order 1
    for k in range(1, 40):
        v = v_series(k)  # each grows the process memo from order k - 1
        assert v.truncation_order == k, k
    full = v_series(40)
    assert curve_solves["v"] == list(range(1, 41))
    for k in range(1, 40):
        assert v_series(k) == full.truncate(k), k
        assert lambert_curve._solve_v(k) == full.truncate(k), k


@pytest.mark.parametrize("index", [0, 1, 2, 9, 40, 59])
def test_v_recurrence_corruption_is_caught(monkeypatch, index):
    # one wrong coefficient of sqrt(2 w t^2), at t^-index, must fail the
    # y^2 = A check, from scratch and when grown from a lower solve
    seed = lambert_curve._solve_v(index) if index else None
    extend = lambert_curve._v_coefficients

    def corrupted(held, order):
        y = extend(held, order)
        y[index] += rat(1, 10 ** 6)
        return y

    monkeypatch.setattr(lambert_curve, "_v_coefficients", corrupted)
    for start in (None, seed):
        with pytest.raises(RuntimeError, match="internal error"):
            lambert_curve._solve_v(60, start)


def test_v_squared_is_twice_w():
    v = v_series(ORDER)
    w = w_series(ORDER)
    diff = (v * v).scale(rat(1, 2)) - w
    assert diff.is_zero()
    assert diff.truncation_order >= ORDER - 2


def test_v_is_odd_under_the_involution():
    v = v_series(ORDER)
    s = s_involution(ORDER)
    v_of_s = laurent_substitute(v, laurent_reciprocal(s))
    total = v_of_s + v
    assert total.is_zero()
    assert total.truncation_order >= ORDER - 6


# --- Stirling coefficients and eta -------------------------------------------


def test_stirling_coefficients_values():
    sk = stirling_coefficients(4)
    assert sk == [rat(1), rat(-1, 12), rat(1, 288), rat(139, 51840),
                  rat(-571, 2488320)]


def test_eta_minus_one_expansion():
    e = eta_series(-1, 9)
    assert e.coefficient(1) == -1
    assert e.coefficient(3) == rat(-1, 36)
    # general term -v^{2k+1} (-1)^k s_k / (2k+1)!!
    sk = stirling_coefficients(4)
    for k in range(4):
        expected = -((-1) ** k) * sk[k] / double_factorial(2 * k + 1)
        assert e.coefficient(2 * k + 1) == expected


def test_eta_is_odd():
    for n in range(-2, 6):
        e = eta_series(n, 15)
        assert all(d % 2 == 1 for d in e.coeffs)
        assert e.min_degree == -(2 * n + 1)


def test_eta_recursion():
    order = 21
    for n in range(-2, 11):
        e_n = eta_series(n, order)
        e_next = eta_series(n + 1, order)
        derived = e_n.derivative().shift(-1).scale(-1)  # -(1/v) d/dv
        diff = e_next - derived
        assert diff.is_zero()
        assert diff.truncation_order >= order - 2


def test_eta_matches_xi_hat_under_the_involution():
    for n in range(-1, 9):
        assert eta_xi_identity_check(n, ORDER)


def test_eta_xi_check_rejects_tiny_order():
    with pytest.raises(ValueError):
        eta_xi_identity_check(8, 10)


# --- global-coordinate and two-point identities -------------------------------


def test_xi_hat_on_global_coordinate_series():
    for n in range(-1, 7):
        assert xi_in_x_check(n, 12)


def test_h02_identity_small_and_degree8():
    assert h02_series_identity_check(2)
    assert h02_series_identity_check(8)


# --- helpers ------------------------------------------------------------------


def test_d_dt_on_polynomials_matches_poly_derivative():
    p = xi_hat(3)
    series = poly_as_recip_series(p)
    assert d_dt(series) == poly_as_recip_series(p.derivative())


def test_d_dt_on_w_gives_kernel_denominator():
    # w'(t) = -1/(t^2 (t-1)): check via (t^3 - t^2) w' = -1
    w = w_series(25)
    dw = d_dt(w)
    t3_t2 = poly_as_recip_series(UniPoly({3: 1, 2: -1}))
    prod = t3_t2 * dw
    minus_one = LaurentSeries.exact({0: -1}, "1/t")
    diff = prod - minus_one
    assert diff.is_zero()


# --- each series once per process --------------------------------------------


def test_verify_series_solves_s_and_v_once(capsys, curve_solves):
    assert main(["verify", "--suite", "series", "--order", "18"]) == 0
    assert capsys.readouterr().out.count("ok   series:") == 7
    assert curve_solves == {"s": [18], "v": [18]}


def test_bm_hodge_solves_s_only_when_the_order_rises(capsys, monkeypatch,
                                                     curve_solves):
    monkeypatch.setattr(residue_kernel, "DEFAULT_CACHE", ResidueCache())
    # the solver memoizes p_ab and p_n in its label basis per kernel
    # object, so a copy of the bm kernel asks the fresh cache again
    monkeypatch.setitem(hodge_solver._KERNELS, "bm",
                        hodge_solver._KERNELS["bm"].replace())
    memo, requested = lambert_curve._CURVE, []
    serve = memo.serve

    def recording(name, order, solve):
        if name == "s":
            requested.append(order)
        return serve(name, order, solve)

    monkeypatch.setattr(memo, "serve", recording)
    assert main(["hodge", "--g", "2", "--indices", "4", "--method",
                 "bm"]) == 0
    assert capsys.readouterr().out == "j=0 value=1/1152\n"
    rises = [k for i, k in enumerate(requested)
             if all(k > j for j in requested[:i])]
    assert len(rises) < len(requested)
    assert curve_solves["s"] == rises

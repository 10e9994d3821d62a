import hashlib
import json
import math

import pytest

from hodgehurwitz import lambert_curve, level_solve, residue_kernel
from hodgehurwitz.cli import main
from hodgehurwitz.exact_algebra import format_rational, rat
from hodgehurwitz.lambert_curve import (
    d_dt,
    double_factorial,
    eta_series,
    eta_xi_identity_check,
    h02_series_identity_check,
    poly_as_recip_series,
    s_involution,
    stirling_coefficients,
    v_series,
    w_series,
)
from hodgehurwitz.residue_kernel import ResidueCache
from hodgehurwitz.series import (
    LaurentSeries,
    laurent_reciprocal,
    laurent_substitute,
)
from hodgehurwitz.xi_tower import xi_form, xi_hat, xi_hat_over_t
from hodge_oracle import xi_in_x_check

ORDER = 30


_CURVE_MEMOS = (lambert_curve.s_involution, lambert_curve.v_series,
                lambert_curve.s_powers, lambert_curve.v_powers)


@pytest.fixture
def curve_solves(monkeypatch):
    """Empty memos of the curve series, and the orders at which s(t) and
    v(t) are then solved, in call order."""
    solves = {"s": [], "v": []}
    for name in solves:
        solve = getattr(lambert_curve, f"_solve_{name}")

        def counting(order, name=name, solve=solve):
            solves[name].append(order)
            return solve(order)

        monkeypatch.setattr(lambert_curve, f"_solve_{name}", counting)
    for memo in _CURVE_MEMOS:
        memo.cache_clear()
    yield solves
    for memo in _CURVE_MEMOS:
        memo.cache_clear()


# --- xi_hat tower ------------------------------------------------------------


def test_xi_hat_first_members():
    assert xi_hat(0) == {1: 1, 0: -1}
    assert xi_hat(1) == {3: 1, 2: -1}
    assert xi_hat(2) == {5: 3, 4: -5, 3: 2}


def test_xi_hat_degree_leading_and_root():
    for n in range(13):
        p = xi_hat(n)
        assert max(p) == 2 * n + 1
        expected_leading = 1 if n == 0 else double_factorial(2 * n - 1)
        assert p[max(p)] == expected_leading
        assert sum(p.values()) == 0


def test_xi_hat_laurent_members():
    # the Laurent members below the tower are refused, not served
    for n in (-1, -2, -3):
        with pytest.raises(ValueError,
                           match=f"xi_hat requires n >= 0, got {n}"):
            xi_hat(n)


def test_xi_form_values_and_structure():
    assert xi_form(0) == {0: 1}
    assert xi_form(1) == {2: 3, 1: -2}
    for n in range(11):
        f = xi_form(n)
        assert f == {d - 1: d * c for d, c in xi_hat(n).items() if d}
        assert max(f) == 2 * n
        assert f[max(f)] == double_factorial(2 * n + 1)
        # lowest term (-1)^n (n+1)! t^n
        assert min(f) == n
        assert f[n] == (-1) ** n * math.factorial(n + 1)


def test_xi_hat_over_t_is_exact_polynomial():
    for n in range(13):
        q = xi_hat_over_t(n)
        assert {d + 1: c for d, c in q.items()} == xi_hat(n + 1)


# md5 of each xi_hat(n) and xi_form(n), n = 0..12, as JSON
# [[degree, "num/den"]] in sorted order
_XI_HAT_MD5 = [
    "8c96be10a34f7fcb4074cf5343495032", "1663a4833d660ce5502d0c6825830139",
    "848dc990ab3ddab6c2705fb3d86b72b7", "0798b265641d1c44cee51e72dcef69b0",
    "0f0d47408654593a838a57aa2ca3e5c3", "2432b2a81b6b44a7058b5bb328111cc0",
    "ba5d1455cb7d99c2d5fda60dd22425c2", "021222382ca08e1a3c31aef5adcfef1b",
    "4e788234cf69af67eb39c47f58329d37", "8c3beb6023452e42d62d7cbb9b6f4f65",
    "a7769b0f2d4154026ef7b9cfa700cf26", "e98b967da77c741572c318524911e047",
    "36d154845399cd11e030ee2d31161d0e",
]
_XI_FORM_MD5 = [
    "53fe46fbece1126ff4b6e4b3fe6c518d", "b3dee37acfb41c83b599a79110746664",
    "e51f239a26caeb9f8d0b109e2451e05d", "031ca9d379d4ac6b9ccee23c039e9e8d",
    "cba8aeabd4572b8ee0e9a759e95a1ec7", "844262d808c9e3c990ab7a63777793fa",
    "6ad4878bb53cbfbb9acea5714402f3fc", "b6b89f0eac3b49fe96f7d773a4ec1de0",
    "cb93902e7de401d05667ec5b5891ddc8", "ad8aa9066d4bb974992d0388fbf6a938",
    "35608d64d8d4460fad3a0c743bcf6a81", "4f9f2aa41b269a6fd2ac9de15bb89a67",
    "bbc69fde34260b4aceef5cec829d125a",
]


def _poly_md5(p: dict) -> str:
    rows = [[deg, format_rational(c)] for deg, c in sorted(p.items())]
    return hashlib.md5(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize("n", range(13))
def test_xi_tower_is_pinned(n):
    assert _poly_md5(xi_hat(n)) == _XI_HAT_MD5[n]
    assert _poly_md5(xi_form(n)) == _XI_FORM_MD5[n]


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
    # the uncached solve at every order is the truncation of a deeper one
    full = lambert_curve._solve_s(60)
    for k in range(61):
        assert lambert_curve._solve_s(k) == full.truncate(k), k


@pytest.mark.parametrize("index", [0, 1, 2, 9, 12, 13, 40, 60])
def test_s_recurrence_corruption_is_caught(monkeypatch, index):
    # one wrong coefficient out of the recurrence, at t^-index, must
    # fail the defining-equation check (or, at t^-1, the t^-1 check);
    # solved at order = index it first moves the residual at
    # t^-(index + 3), the last degree compared, so the check's window
    # must run from its start through there
    extend = lambert_curve._s_coefficients

    def corrupted(order):
        den, c = extend(order)
        c[index + 1] += den  # c_index + 1, over the same denominator
        return den, c

    monkeypatch.setattr(lambert_curve, "_s_coefficients", corrupted)
    for order in (index, 60):
        with pytest.raises(RuntimeError, match="internal error"):
            lambert_curve._solve_s(order)


def test_s_involution_solves_each_order_once(curve_solves):
    # each order is solved once, whatever order came before it, and a
    # lower order agrees with the truncation of a higher one
    orders = (10, 4, 16, 12, 20)
    served = {k: s_involution(k) for k in orders}
    assert curve_solves["s"] == list(orders)
    for k in orders:
        assert s_involution(k) is served[k], k
    assert curve_solves["s"] == list(orders)
    for k, s in served.items():
        assert s == s_involution(20).truncate(k), k


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
        v = v_series(k)  # each order is solved once, on first request
        assert v.truncation_order == k, k
    full = v_series(40)
    assert curve_solves["v"] == list(range(1, 41))
    for k in range(1, 40):
        assert v_series(k) == full.truncate(k), k
        assert lambert_curve._solve_v(k) == full.truncate(k), k


@pytest.mark.parametrize("index", [0, 1, 2, 9, 40, 59])
def test_v_recurrence_corruption_is_caught(monkeypatch, index):
    # one wrong coefficient of sqrt(2 w t^2), at t^-index, must fail the
    # y^2 = A check
    extend = lambert_curve._v_coefficients

    def corrupted(order):
        den, y = extend(order)
        y[index] += den  # y_index + 1, over the same denominator
        return den, y

    monkeypatch.setattr(lambert_curve, "_v_coefficients", corrupted)
    with pytest.raises(RuntimeError, match="internal error"):
        lambert_curve._solve_v(60)


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


@pytest.mark.parametrize("call, key", [
    (0, (1, 1)), (0, (2, 3)), (0, (0, 8)), (0, (4, 4)), (6, (4, 4))])
def test_h02_check_refuses_one_changed_coefficient(monkeypatch, call, key):
    # one coefficient of one power of the log's argument, off by one
    # unit: h^2 (call 0) at a low, a middle and the top total degree,
    # and h^8 (call 6, the last) at the top
    mul = lambert_curve._bivariate_mul
    calls = []

    def corrupted(a, b, cap):
        out = mul(a, b, cap)
        if len(calls) == call:
            out[key] = out.get(key, 0) + 1
        calls.append(cap)
        return out

    monkeypatch.setattr(lambert_curve, "_bivariate_mul", corrupted)
    assert h02_series_identity_check(8) is False
    assert len(calls) == 7


# --- helpers ------------------------------------------------------------------


def test_d_dt_on_polynomials_matches_poly_derivative():
    p = xi_hat(3)
    series = poly_as_recip_series(p)
    assert d_dt(series) == poly_as_recip_series(
        {d - 1: d * c for d, c in p.items() if d})


def test_d_dt_on_w_gives_kernel_denominator():
    # w'(t) = -1/(t^2 (t-1)): check via (t^3 - t^2) w' = -1
    w = w_series(25)
    dw = d_dt(w)
    t3_t2 = poly_as_recip_series({3: 1, 2: -1})
    prod = t3_t2 * dw
    minus_one = LaurentSeries.exact({0: -1}, "1/t")
    diff = prod - minus_one
    assert diff.is_zero()


# --- each series once per process --------------------------------------------


def test_verify_series_solves_s_and_v_once(capsys, curve_solves):
    assert main(["verify", "--suite", "series", "--order", "18"]) == 0
    assert capsys.readouterr().out.count("ok   series:") == 7
    assert curve_solves == {"s": [18], "v": [18]}


def test_bm_hodge_solves_each_order_of_s_once(capsys, monkeypatch,
                                             curve_solves):
    monkeypatch.setattr(residue_kernel, "DEFAULT_CACHE", ResidueCache())
    # the solver memoizes p_ab and p_n in its label basis per kernel
    # object, so a copy of the bm kernel asks the fresh cache again
    monkeypatch.setitem(level_solve._KERNELS, "bm",
                        level_solve._KERNELS["bm"].replace())
    requested = []
    involution = lambert_curve.s_involution

    def recording(order):
        requested.append(order)
        return involution(order)

    monkeypatch.setattr(lambert_curve, "s_involution", recording)
    monkeypatch.setattr(residue_kernel, "s_involution", recording)
    assert main(["hodge", "--g", "2", "--indices", "4", "--method",
                 "bm"]) == 0
    assert capsys.readouterr().out == "j=0 value=1/1152\n"
    # each order asked for is solved once, when it is first asked for
    assert requested
    assert curve_solves["s"] == list(dict.fromkeys(requested))

import pytest

from hodgehurwitz import hodge_solver, residue_kernel
from hodgehurwitz.cli import main
from hodgehurwitz.exact_algebra import (
    LaurentSeries,
    MultiPoly,
    TruncationError,
    UniPoly,
    double_factorial,
    rat,
)
from hodgehurwitz.hodge_solver import HodgeTable
from hodgehurwitz.lambert_curve import d_dt, s_powers, xi_hat
from hodgehurwitz.residue_kernel import (
    GUARD_HIGH,
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


def test_xi_hat_of_s_equals_the_composition_with_s():
    # D^k (s - 1), read off the tower, is xi_hat_k composed with s,
    # truncation order included
    cache = ResidueCache()
    for order in (8, 14, 20, 26, 38):
        powers = s_powers(order)
        for k in range(14):
            fresh = powers.substitute(xi_hat(k))
            assert cache._xi_hat_of_s(k, order) == fresh, (k, order)


# each check on a direct form must fire when what it guards goes wrong

PERTURBED_FORMS = [  # method, a kernel it evaluates, that kernel's
    # degree, a constant, and a term above that degree
    ("_pab_at", lambda cache: cache.p_ab(1, 2), 10, UniPoly({0: 1}),
     UniPoly({11: 1})),
    ("_pn_at", lambda cache: cache.p_n(2), 6,
     MultiPoly(("t", "t_i"), {(0, 0): 1}),
     MultiPoly(("t", "t_i"), {(7, 0): 1})),
]


@pytest.mark.parametrize("name, build, degree, one, top", PERTURBED_FORMS,
                         ids=["p_ab", "p_n"])
def test_truncation_guard_fires_on_a_high_order_mismatch(
        monkeypatch, name, build, degree, one, top):
    evaluate = getattr(ResidueCache, name)

    def perturbed(self, *args):
        result = evaluate(self, *args)
        return result + one if args[-1] == degree + GUARD_HIGH else result

    monkeypatch.setattr(ResidueCache, name, perturbed)
    with pytest.raises(RuntimeError, match="truncation guard mismatch"):
        build(ResidueCache())


@pytest.mark.parametrize("name, build, degree, one, top", PERTURBED_FORMS,
                         ids=["p_ab", "p_n"])
def test_degree_check_fires_on_a_wrong_degree(monkeypatch, name, build,
                                              degree, one, top):
    # the same extra top term at both orders passes the guard
    evaluate = getattr(ResidueCache, name)
    monkeypatch.setattr(ResidueCache, name,
                        lambda self, *args: evaluate(self, *args) + top)
    with pytest.raises(RuntimeError, match=r"degrees .* \(internal error\)"):
        build(ResidueCache())


def test_a_wrong_tower_operator_is_caught(monkeypatch, capsys):
    # with D replaced by (t^3 - t^2 + 1) d/dt, p_ab leaves its eta form
    # and the BM fill leaves the Hodge identity
    wrong = LaurentSeries.exact({-3: 1, -2: -1, 0: 1}, "1/t")
    monkeypatch.setattr(residue_kernel, "_tower_step",
                        lambda f: wrong * d_dt(f))
    monkeypatch.setattr(residue_kernel, "DEFAULT_CACHE", ResidueCache())
    assert main(["verify", "--suite", "residues"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: verification failed: residues: p_ab")
    monkeypatch.setattr(residue_kernel, "DEFAULT_CACHE", ResidueCache())
    # the solver memoizes p_ab and p_n per kernel object
    monkeypatch.setitem(hodge_solver._KERNELS, "bm",
                        hodge_solver._KERNELS["bm"].replace())
    with pytest.raises(ValueError, match="identity violated"):
        HodgeTable().fill_to_complexity(5, method="bm")


def test_invalid_indices():
    with pytest.raises(ValueError):
        p_ab(-1, 0)
    with pytest.raises(ValueError):
        p_n(-2)

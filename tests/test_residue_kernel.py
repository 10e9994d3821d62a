import hashlib
import json

import pytest

from hodgehurwitz import level_solve, residue_kernel
from hodgehurwitz.cli import main
from hodgehurwitz.exact_algebra import (
    TruncationError,
    format_rational,
    rat,
)
from hodgehurwitz.hodge_solver import HodgeTable
from hodgehurwitz.lambert_curve import d_dt, double_factorial, s_powers
from hodgehurwitz.residue_kernel import (
    ResidueCache,
    p_ab,
    p_ab_eta,
    p_n,
    p_n_eta,
)
from hodgehurwitz.series import LaurentSeries
from hodgehurwitz.xi_tower import xi_hat
from hodge_oracle import poly_add


def test_p_ab_00_frozen():
    # both pipelines agreed on this value; frozen as a regression anchor
    assert p_ab(0, 0) == \
        {4: rat(1, 2), 3: rat(-2, 3), 2: rat(1, 9), 1: rat(8, 135)}


def test_p_ab_symmetry():
    for a in range(4):
        for b in range(4):
            assert p_ab(a, b) == p_ab(b, a)


def test_p_ab_degree_and_leading():
    for a in range(3):
        for b in range(3):
            q = p_ab(a, b)
            assert max(q) == 2 * (a + b + 2)
            expected = (double_factorial(2 * a + 1)
                        * double_factorial(2 * b + 1)) / 2
            assert q[max(q)] == expected


def test_p_ab_matches_eta_form_small():
    for a in range(3):
        for b in range(a, 3):
            assert p_ab(a, b) == p_ab_eta(a, b)


def test_p_n_0_frozen():
    assert p_n(0) == {(2, 0): 1, (0, 2): 3, (1, 0): rat(-2, 3), (0, 1): -2}


# md5 of each p_n_eta(n), n = 0..11, as JSON [[deg_t, deg_t_i, "num/den"]]
# in sorted order: the eta form is cut to the degrees its polynomial
# part reads, and must give the same polynomials as the uncut form
_P_N_ETA_MD5 = [
    "6faf6b7a12bd7ed6d1b353985f4c9cad", "af1a0a9b83036f2bc290608d3c54fca1",
    "a4794133735f2f6b385b04e34a8d7b3b", "40675da7ce6d8abe8fd66aaf9bbfb7a5",
    "f2aa1bcfe59091bc54ef76b233994e64", "44a46ec6b11530c012de7d3e6b992b8e",
    "b7dbc440c7d0c0f7b4c0c257412992a3", "eca8b314e6e0ef7414aac3b8ea7ec7a3",
    "83a0686d790b3519c13f92259cb7f83e", "82dccffaed1e57731698987011ce6337",
    "d4da8a58994b4ba39f3128842ea33840", "1256e798f6c5bcc5cbebc427963029d3",
]


@pytest.mark.parametrize("n", range(12))
def test_p_n_eta_is_pinned(n):
    rows = [[*key, format_rational(c)] for key, c in sorted(p_n_eta(n).items())]
    assert hashlib.md5(json.dumps(rows).encode()).hexdigest() == \
        _P_N_ETA_MD5[n]


# md5 of each p_ab(a, b), a <= b, a + b <= 5, as JSON [[degree, "num/den"]]
# in sorted order; p_ab(b, a), p_ab_eta(a, b) and p_ab_eta(b, a) are the
# same polynomial
_P_AB_MD5 = {
    (0, 0): "4c75ecdfee9bcba333ec56f57d3281ec",
    (0, 1): "3cc0587f544cf124cde7c234e6b94143",
    (0, 2): "6bb78f5f0c378a418ba25804804433e8",
    (0, 3): "ec410bcefc40b1acf957d643345a9651",
    (0, 4): "6292ad58a9ba73b81702185e4cdafdb3",
    (0, 5): "1f54266b5c311255ddbe27c60066b782",
    (1, 1): "2bdf4e15e15b35142b982c8f72503670",
    (1, 2): "1954aae5b01bef3615a3198a5e4c3bb9",
    (1, 3): "689b381488cf534f4596d1fb9601742d",
    (1, 4): "9a70adfba3b25a8f2a73c42cf3334ec0",
    (2, 2): "152c3bb15c130ff19084da088e30aa49",
    (2, 3): "82d5a38556f6e1484c3cfdb8b90b2b5f",
}


@pytest.mark.parametrize("a, b", sorted(_P_AB_MD5))
def test_p_ab_and_p_ab_eta_are_pinned(a, b):
    for poly in (p_ab(a, b), p_ab(b, a), p_ab_eta(a, b), p_ab_eta(b, a)):
        rows = [[d, format_rational(c)] for d, c in sorted(poly.items())]
        assert hashlib.md5(json.dumps(rows).encode()).hexdigest() == \
            _P_AB_MD5[(a, b)]


def test_p_n_degrees():
    for n in range(4):
        q = p_n(n)
        assert max(d for d, _ in q) == 2 * n + 2
        assert max(k for _, k in q) == 2 * n + 2


def test_p_n_matches_eta_form_small():
    for n in range(4):
        assert p_n(n) == p_n_eta(n)


def test_p_n_primitive_consistency():
    # the t_i-degree-0 slice of p_n equals the t_i-coefficient of degree 1
    # in the primitive, i.e. d/dt_i evaluated at t_i = 0: re-derive from
    # p_n itself by integrating back one step in t_i
    q = p_n(2)
    base = {d: c for (d, k), c in q.items() if k == 0}
    assert base  # nonzero slice
    # integrating: primitive coefficient at t_i^1 is exactly base
    # (the t_i-derivative multiplies by the exponent 1); cross-check by
    # rebuilding the derivative of the embedded monomial
    embedded = {(d, 1): c for d, c in base.items()}
    slice0 = {(d, 0): c for d, c in base.items()}
    assert residue_kernel._d_dti(embedded) == slice0


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


# each kernel is evaluated once, at order degree + 3 (module docstring)


def test_kernels_equal_an_evaluation_nine_orders_higher():
    # every p_ab and p_n a BM fill to chi 9 uses, against a fresh cache
    # at the old two-order margin
    high = ResidueCache()
    for a in range(6):
        for b in range(a, 12 - a):
            degree = 2 * (a + b + 2)
            assert p_ab(a, b) == high._pab_at(a, b, degree + 12), (a, b)
    for n in range(12):
        assert p_n(n) == high._pn_at(n, 2 * n + 2 + 12), n


@pytest.mark.parametrize("a, b", [(0, 0), (0, 3), (2, 2), (1, 5), (4, 4)])
def test_p_ab_one_order_below_the_rule_raises(a, b):
    cache, degree = ResidueCache(), 2 * (a + b + 2)
    with pytest.raises(TruncationError):
        cache._pab_at(a, b, degree + 2)
    assert cache._pab_at(a, b, degree + 3) == p_ab(a, b)


@pytest.mark.parametrize("n", [0, 1, 3, 6, 9])
def test_p_n_one_order_below_its_least_order_raises(n):
    # p_n is known from order = degree on (module docstring)
    cache, degree = ResidueCache(), 2 * n + 2
    with pytest.raises(TruncationError):
        cache._pn_at(n, degree - 1)
    assert cache._pn_at(n, degree) == p_n(n)


def test_each_kernel_is_evaluated_once(monkeypatch):
    calls = []
    for name in ("_pab_at", "_pn_at"):
        def recording(self, *args, _evaluate=getattr(ResidueCache, name)):
            calls.append(args)
            return _evaluate(self, *args)
        monkeypatch.setattr(ResidueCache, name, recording)
    cache = ResidueCache()
    for _ in range(2):
        cache.p_ab(2, 1)
        cache.p_ab(1, 2)
        cache.p_n(4)
    assert calls == [(1, 2, 13), (4, 13)]
    # p_n(a+b+1) shares the series context of p_ab(a, b)
    assert list(cache._ctx) == [13]


# each check on a direct form must fire when what it guards goes wrong

PERTURBED_FORMS = [  # method, a kernel it evaluates, and that kernel
    # with a term above its degree added
    ("_pab_at", lambda cache: cache.p_ab(1, 2),
     lambda q: poly_add(q, {11: 1})),
    ("_pn_at", lambda cache: cache.p_n(2), lambda q: {**q, (7, 0): 1}),
]


@pytest.mark.parametrize("name, build, perturb", PERTURBED_FORMS,
                         ids=["p_ab", "p_n"])
def test_degree_check_fires_on_a_wrong_degree(monkeypatch, name, build,
                                              perturb):
    # an extra term above the degree, at the one order evaluated
    evaluate = getattr(ResidueCache, name)
    monkeypatch.setattr(ResidueCache, name,
                        lambda self, *args: perturb(evaluate(self, *args)))
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
    monkeypatch.setitem(level_solve._KERNELS, "bm",
                        level_solve._KERNELS["bm"].replace())
    with pytest.raises(ValueError, match="identity violated"):
        HodgeTable().fill_to_complexity(5, method="bm")


def test_invalid_indices():
    with pytest.raises(ValueError):
        p_ab(-1, 0)
    with pytest.raises(ValueError):
        p_n(-2)

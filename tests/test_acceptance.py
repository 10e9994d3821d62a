"""Acceptance suite: the eight headline guarantees, all exact.

Every comparison here is exact rational equality (tolerance zero).
The two Hodge tables are filled once, lazily, and shared; criterion 1
times the fills it triggers.
"""

import hashlib
import json
import time

import pytest

from hodgehurwitz.cli import main
from hodgehurwitz.exact_algebra import rat
from hodgehurwitz.hodge_solver import HodgeTable, hodge_lambda
from hodgehurwitz.hurwitz import elsv_invert, h_brute, h_direct, \
    hurwitz_elsv, _partitions
from hodgehurwitz.lambert_curve import eta_xi_identity_check, \
    h02_series_identity_check, s_involution, stirling_coefficients, \
    v_series, w_series
from hodgehurwitz.residue_kernel import p_ab, p_ab_eta, p_n, p_n_eta
from hodgehurwitz.reference_data import HODGE_REFERENCE, \
    HURWITZ_GENUS_FIVE, HURWITZ_REFERENCE
from hodgehurwitz.series import LaurentSeries, laurent_reciprocal, \
    laurent_substitute
from hodgehurwitz.verify import dvv_verify
from hodgehurwitz.xi_tower import xi_form
from hodge_oracle import XiIdentity, bm_rhs, extract_in_xi_basis, \
    from_univariate, poly_add, poly_mul, poly_scale

CHI_MAX = 9
ORDER = 30

_TABLES: dict = {}


def _filled(method: str) -> HodgeTable:
    if method not in _TABLES:
        table = HodgeTable()
        table.fill_to_complexity(CHI_MAX, method=method)
        _TABLES[method] = table
    return _TABLES[method]


def test_criterion_1_hodge_reference_values_both_pipelines():
    start = time.monotonic()
    for method in ("cutjoin", "bm"):
        table = _filled(method)
        for g, indices, j, value in HODGE_REFERENCE:
            got_j, got = hodge_lambda(g, indices, method=method, table=table)
            assert (got_j, got) == (j, rat(value)), (method, g, indices)
    assert time.monotonic() - start < 120


def test_criterion_1_tables_match_their_pinned_digest():
    # both pipelines, each filled to CHI_MAX, give one table, pinned;
    # levels other tests add beyond CHI_MAX are left out of the digest
    for method in ("cutjoin", "bm"):
        rows = [r for r in _filled(method).to_rows()
                if 2 * r["g"] - 2 + len(r["indices"]) <= CHI_MAX]
        assert len(rows) == 811, method
        assert hashlib.md5(json.dumps(rows).encode()).hexdigest() == \
            "8f889d19aaeff9c9ae653c13a7e20e84", method


def test_criterion_1_both_table_to_chi_12_matches_its_pinned_digest():
    # "both" refuses on any disagreement, so one fill pins both pipelines
    start = time.monotonic()
    rows = HodgeTable().fill_to_complexity(12, method="both").to_rows()
    assert time.monotonic() - start < 120
    assert len(rows) == 3723
    assert hashlib.md5(json.dumps(rows).encode()).hexdigest() == \
        "9afdaad4ed0dbbc219a25da0be7f0df0"


def test_criterion_2_hurwitz_reference_values_both_pipelines():
    start = time.monotonic()
    table = _filled("cutjoin")
    for g, mu, value in HURWITZ_REFERENCE + HURWITZ_GENUS_FIVE:
        expected = rat(value)
        assert h_direct(g, mu) == expected, (g, mu)
        assert hurwitz_elsv(g, mu, table=table) == expected, (g, mu)
    assert time.monotonic() - start < 120


def test_criterion_3_brute_force_oracle_agreement():
    start = time.monotonic()
    keys = []
    for d in range(1, 6):
        for mu in _partitions(d):
            g = 0
            while 2 * g - 2 + len(mu) + d <= 8:
                keys.append((g, mu))
                g += 1
    assert len(keys) >= 12
    for g, mu in keys:
        assert h_brute(g, mu) == h_direct(g, mu), (g, mu)
    assert time.monotonic() - start < 300


def test_criterion_4_residue_kernels_match_eta_forms():
    for a in range(0, 9):
        for b in range(0, 9 - a):
            direct = p_ab(a, b)
            assert direct == p_ab_eta(a, b), (a, b)
            assert max(direct) == 2 * (a + b + 2), (a, b)
    for n in range(0, 7):
        direct = p_n(n)
        assert direct == p_n_eta(n), n
        assert max(map(sum, direct)) == 2 * n + 2, n


def test_criterion_5_series_suite_at_order_30():
    s = s_involution(ORDER)
    w = w_series(ORDER)
    v = v_series(ORDER)
    recip_s = laurent_reciprocal(s)

    composed = laurent_substitute(s, recip_s)
    diff = composed - LaurentSeries.exact({-1: 1}, "1/t")
    assert diff.is_zero() and diff.truncation_order >= ORDER - 6

    diff = laurent_substitute(w, recip_s) - w
    assert diff.is_zero() and diff.truncation_order >= ORDER - 4

    assert ((v * v).scale(rat(1, 2)) - w).is_zero()

    diff = laurent_substitute(v, recip_s) + v
    assert diff.is_zero() and diff.truncation_order >= ORDER - 6

    for n in range(-1, 9):
        assert eta_xi_identity_check(n, ORDER), n

    assert [s.coefficient(k) for k in (-1, 0, 1, 2, 3)] == [
        rat(-1), rat(2, 3), rat(0), rat(4, 135), rat(8, 405)]
    assert [v.coefficient(k) for k in (1, 2, 3, 4, 5)] == [
        rat(1), rat(1, 3), rat(7, 36), rat(73, 540), rat(1331, 12960)]
    assert stirling_coefficients(4) == [
        rat(1), rat(-1, 12), rat(1, 288), rat(139, 51840),
        rat(-571, 2488320)]


def _solvable_levels(chi_lo: int, chi_hi: int):
    for chi in range(chi_lo, chi_hi + 1):
        g = 0
        while chi + 2 - 2 * g >= 1:
            yield g, chi + 2 - 2 * g
            g += 1


def test_criterion_6_identity_remainders_vanish():
    for method in ("cutjoin", "bm"):
        table = _filled(method)
        for g, ell in _solvable_levels(2, CHI_MAX):
            assert table.identity_remainder(g, ell, method) == {}, \
                (method, g, ell)


def test_criterion_6_extracted_tables_are_permutation_symmetric():
    # a BM unknown is read once for each index in the t-slot, and every
    # read must agree: an extracted table is symmetric or refused
    table = _filled("bm")
    for g, spectators in [(0, 3), (1, 1), (1, 2)]:
        rhs = bm_rhs(g, spectators, table)
        names = ("t",) + tuple(f"t_{i}" for i in range(1, spectators + 1))
        extracted = extract_in_xi_basis(XiIdentity("bm", g, names, rhs))
        assert extracted == table.level_entries(g, spectators + 1)
    # xi_1(t) xi_0(t_1) is not symmetric in (t, t_1): alone it leaves the
    # t-slot choice xi_0(t) xi_1(t_1) over, and added to a true right
    # side it makes the two reads of <tau_1 tau_0> disagree
    one_slot = poly_mul(from_univariate(xi_form(1), 2, 0),
                        from_univariate(xi_form(0), 2, 1))
    for rhs, fault in [(one_slot, "leftover"),
                       (poly_add(bm_rhs(1, 1, table), one_slot),
                        r"reads of \(1, 0\) disagree")]:
        with pytest.raises(ValueError, match=f"identity violated.*{fault}"):
            extract_in_xi_basis(XiIdentity("bm", 1, ("t", "t_1"), rhs))


def test_criterion_7_dvv_sector():
    table = _filled("cutjoin")
    assert table.value(0, (0, 0, 0)) == rat(1)
    assert table.value(1, (1,)) == rat(1, 24)

    amplitude = {}
    for idx, val in table.level_entries(1, 1).items():
        amplitude = poly_add(amplitude, poly_scale(xi_form(idx[0]), val))
    assert amplitude == {2: rat(1, 8), 1: rat(-1, 12), 0: rat(-1, 24)}

    for g in range(0, 4):
        ell = 1
        while 2 * g - 1 + ell <= CHI_MAX:
            assert dvv_verify(g, ell, table=table), (g, ell)
            ell += 1


def test_criterion_7_dvv_suite_at_budget_12_is_bounded(monkeypatch):
    # the suite checks every g <= 3 level within the budget, in process,
    # filling its own table with no cache file to read
    monkeypatch.delenv("HURWITZ_REC_CACHE", raising=False)
    start = time.monotonic()
    assert main(["verify", "--suite", "dvv", "--complexity-budget", "12"]) \
        == 0
    assert time.monotonic() - start < 10


def test_criterion_8_two_point_series_and_inversion():
    assert h02_series_identity_check(8)
    table = _filled("cutjoin")
    levels = [(g, ell) for g, ell in _solvable_levels(1, 4)]
    assert len(levels) == 10
    for g, ell in levels:
        assert elsv_invert(g, ell) == table.level_entries(g, ell), (g, ell)

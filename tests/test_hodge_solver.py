"""Tests for the Hodge-integral table and its two recursion pipelines."""

import json
from math import factorial

import pytest

from hodgehurwitz.exact_algebra import MultiPoly, UniPoly, rat
from hodgehurwitz.hodge_solver import (
    _KERNELS,
    _in_basis,
    HodgeTable,
    TauKey,
    XiIdentity,
    bm_rhs,
    cutjoin_rhs,
    dvv_verify,
    extract_in_xi_basis,
    hodge_lambda,
    load_table_cache,
    save_table_cache,
)
from hodgehurwitz.lambert_curve import xi_form, xi_hat


@pytest.fixture(scope="module")
def table_cj():
    return HodgeTable().fill_to_complexity(5, method="cutjoin")


@pytest.fixture(scope="module")
def table_bm():
    return HodgeTable().fill_to_complexity(5, method="bm")


def test_base_entries_seeded():
    tab = HodgeTable()
    assert tab.value(0, (0, 0, 0)) == 1
    assert tab.value(1, (1,)) == rat(1, 24)
    assert tab.value(1, (0,)) == rat(-1, 24)


def test_value_above_dimension_is_zero_without_fill():
    tab = HodgeTable()
    assert tab.value(0, (2, 0, 0)) == 0
    assert tab.value(2, (99,)) == 0


def test_value_unfilled_level_raises_keyerror():
    tab = HodgeTable()
    with pytest.raises(KeyError, match="TauKey"):
        tab.value(2, (3,))


def test_value_unstable_raises():
    tab = HodgeTable()
    with pytest.raises(ValueError, match=r"unstable \(g,ell\)=\(0,1\)"):
        tab.value(0, (0,))


def test_genus_zero_is_multinomial(table_cj):
    # <tau_{n_1}..tau_{n_ell}>_0 = (ell-3)! / prod n_i!  at sum n_i = ell-3
    for ell in (3, 4, 5, 6, 7):
        level = table_cj.level_entries(0, ell)
        assert level, ell
        for idx, val in level.items():
            assert sum(idx) == ell - 3
            expect = rat(factorial(ell - 3))
            for n in idx:
                expect = expect / factorial(n)
            assert val == expect


def test_pipelines_agree(table_cj, table_bm):
    assert table_cj.entries == table_bm.entries
    assert table_cj.filled == table_bm.filled


def test_fill_method_both_matches(table_cj):
    tab = HodgeTable().fill_to_complexity(3, method="both")
    for key, val in tab.entries.items():
        assert table_cj.entries[key] == val


def test_known_one_point_values(table_cj):
    # <tau_4>_2 = 1/1152 and <tau_2>_1,1... via the pure-psi sector
    assert table_cj.value(2, (4,)) == rat(1, 1152)
    assert table_cj.value(1, (1,)) == rat(1, 24)


def test_hodge_lambda_genus_two(table_cj):
    assert hodge_lambda(2, (3,), table=table_cj) == (1, rat(1, 480))
    assert hodge_lambda(2, (2, 2), table=table_cj) == (1, rat(5, 576))


def test_hodge_lambda_genus_three(table_cj):
    assert hodge_lambda(3, (6,), table=table_cj) == (1, rat(7, 138240))
    assert hodge_lambda(3, (5,), table=table_cj) == (2, rat(41, 580608))
    assert hodge_lambda(3, (3, 3, 2), table=table_cj) == (1, rat(89, 7680))


def test_hodge_lambda_out_of_range_j(table_cj):
    j, value = hodge_lambda(0, (0, 0, 0, 0), table=table_cj)
    assert (j, value) == (1, 0)  # j > g = 0
    j, value = hodge_lambda(1, (5,), table=table_cj)
    assert (j, value) == (-4, 0)


def test_hodge_lambda_unstable_message():
    with pytest.raises(ValueError, match=r"unstable \(g,ell\)=\(0,1\)"):
        hodge_lambda(0, (0,))


def test_hodge_lambda_demand_driven_genus_five():
    tab = HodgeTable()
    assert hodge_lambda(5, (12,), table=tab) == (1, rat(1, 106168320))
    # only the recursion closure was filled, not the whole pyramid:
    # the deepest genus-0 level reached is (0,6), via repeated cuts
    assert (5, 1) in tab.filled and (0, 6) in tab.filled
    assert (0, 7) not in tab.filled


def test_ensure_level_closure_is_minimal():
    tab = HodgeTable()
    tab.ensure_level(2, 1)
    assert (2, 1) in tab.filled and (1, 2) in tab.filled
    assert (0, 4) not in tab.filled


def test_dvv_holds(table_cj):
    for g in range(4):
        for ell in range(3):
            assert dvv_verify(g, ell, table=table_cj) is True


def test_dvv_vacuous_below_complexity_two(table_cj):
    assert dvv_verify(0, 1, table=table_cj) is True
    assert dvv_verify(1, -1 + 1, table=table_cj) is True


def test_dvv_detects_corruption():
    tab = HodgeTable().fill_to_complexity(3, method="cutjoin")
    tab.entries[(2, (4,))] = tab.entries[(2, (4,))] + 1
    assert dvv_verify(2, 0, table=tab) is False


def test_trivial_bm_extraction():
    variables = ("t", "t_1")
    rhs = (MultiPoly.from_unipoly(xi_form(1), variables, 0)
           * MultiPoly.from_unipoly(xi_form(0), variables, 1))
    assert extract_in_xi_basis(XiIdentity("bm", 1, variables, rhs)) == {
        (1, 0): 1}


def test_extraction_of_zero_rhs_is_empty():
    variables = ("t", "t_1")
    ident = XiIdentity("bm", 1, variables, MultiPoly.zero(variables))
    assert extract_in_xi_basis(ident) == {}


def test_extraction_rejects_garbage():
    variables = ("t", "t_1")
    rhs = MultiPoly(variables, {(3, 0): rat(1)})  # odd t-degree
    with pytest.raises(ValueError, match="identity violated"):
        extract_in_xi_basis(XiIdentity("bm", 1, variables, rhs))


def test_extraction_rejects_a_partial_image():
    # one unknown's all-odd key alone reads consistently, but the
    # promoted keys of its image are missing from the right side
    variables = ("t_1", "t_2", "t_3", "t_4")
    rhs = MultiPoly.from_unipoly(xi_hat(1), variables, 0)
    for slot in (1, 2, 3):
        rhs = rhs * MultiPoly.from_unipoly(xi_hat(0), variables, slot)
    with pytest.raises(ValueError, match="identity violated.*leftover"):
        extract_in_xi_basis(XiIdentity("cutjoin", 0, variables, rhs))


def test_cutjoin_public_level_04(table_cj):
    ident = cutjoin_rhs(0, 4, table_cj)
    assert ident.unknown_shape == "cutjoin"
    assert ident.variables == ("t_1", "t_2", "t_3", "t_4")
    assert extract_in_xi_basis(ident) == {(1, 0, 0, 0): 1}


def test_cutjoin_public_rhs_is_symmetric(table_cj):
    ident = cutjoin_rhs(1, 2, table_cj)
    swap = {"t_1": "t_2", "t_2": "t_1"}
    assert ident.rhs.permute_vars(swap) == ident.rhs


def test_cutjoin_public_matches_table(table_cj):
    got = extract_in_xi_basis(cutjoin_rhs(1, 2, table_cj))
    assert got == table_cj.level_entries(1, 2)


def test_cutjoin_rhs_rejects_base_level(table_cj):
    with pytest.raises(ValueError, match="base level"):
        cutjoin_rhs(1, 1, table_cj)


def test_bm_rhs_empty_at_base_level(table_cj):
    assert bm_rhs(1, 0, table_cj).is_zero()


def test_bm_rhs_empty_at_genus_zero_base_level(table_cj):
    # unknowns at the base level (0, 3); the recursion reads no level
    assert bm_rhs(0, 2, table_cj).is_zero()


def _expanded_in_basis(poly: MultiPoly, method: str) -> dict:
    """The expanded ``poly`` in the method's label basis, folded over
    its symmetric slots (all but the first ``head``) and divided by the
    factorial of their count."""
    kernel = _KERNELS[method]
    slots = factorial(len(poly.vars) - kernel.head)
    return {key: c / slots for key, c in _in_basis(poly.terms, kernel).items()}


RECURSIVE_LEVELS_TO_CHI_4 = [
    (g, chi + 2 - 2 * g) for chi in range(2, 5)
    for g in range((chi + 1) // 2 + 1) if chi + 2 - 2 * g >= 1]


@pytest.mark.parametrize("g,ell", RECURSIVE_LEVELS_TO_CHI_4)
def test_folded_rhs_is_the_fold_of_the_expanded_rhs(table_cj, g, ell):
    # the solver's right side, built in labels, is the expanded oracle
    # converted into the label basis and folded
    expanded = cutjoin_rhs(g, ell, table_cj).rhs
    assert table_cj._rhs_in_basis(_KERNELS["cutjoin"], g, ell) == \
        _expanded_in_basis(expanded, "cutjoin")
    expanded = bm_rhs(g, ell - 1, table_cj)
    assert table_cj._rhs_in_basis(_KERNELS["bm"], g, ell) == \
        _expanded_in_basis(expanded, "bm")


@pytest.mark.parametrize("method", ["cutjoin", "bm"])
def test_label_basis_is_triangular_and_converts_monomials(method):
    kernel = _KERNELS[method]
    for d in range(14):
        assert kernel.basis(d).degree() == d
        back = UniPoly.zero()
        for (k,), c in _in_basis({(d,): 1}, kernel).items():
            assert k <= d
            back = back + kernel.basis(k).scale(c)
        assert back == UniPoly({d: 1})


def test_kernel_copy_is_a_distinct_key_with_the_same_fields():
    # _labels memoizes per kernel object: a copy must never hit the
    # original's entries, even with every field unchanged
    kernel = _KERNELS["bm"]
    copy = kernel.replace()
    assert copy is not kernel and copy != kernel
    assert len({kernel, copy}) == 2
    assert vars(copy) == vars(kernel)
    assert kernel.replace(head=0).head == 0 and kernel.head == 1
    with pytest.raises(TypeError):
        kernel.replace(wieght=rat(1))


# each mutation of a correct solver must end in "identity violated"


@pytest.mark.parametrize("method", ["cutjoin", "bm"])
def test_mutated_kernel_weight_raises(monkeypatch, method):
    kernel = _KERNELS[method]
    monkeypatch.setitem(_KERNELS, method,
                        kernel.replace(weight=kernel.weight * rat(2, 3)))
    with pytest.raises(ValueError, match="identity violated"):
        HodgeTable().fill_to_complexity(5, method=method)


@pytest.mark.parametrize("method", ["cutjoin", "bm"])
def test_mutated_stored_value_raises(method):
    tab = HodgeTable()
    tab.ensure_level(1, 2, method)
    assert (1, 3) not in tab.filled and (2, 1) not in tab.filled
    level = tab._by_level[(1, 2)]
    level[(1, 0)] = tab.entries[(1, (1, 0))] = level[(1, 0)] + 1
    with pytest.raises(ValueError, match="identity violated"):
        tab.fill_to_complexity(5, method=method)


@pytest.mark.parametrize("method", ["cutjoin", "bm"])
def test_mutated_join_polynomial_raises(monkeypatch, method):
    # doubled, the join keeps every key resolvable: the reads must catch it
    kernel = _KERNELS[method]
    monkeypatch.setitem(_KERNELS, method, kernel.replace(
        join=lambda m: {e: 2 * c for e, c in kernel.join(m).items()}))
    with pytest.raises(ValueError, match="identity violated"):
        HodgeTable().fill_to_complexity(5, method=method)


def test_bm_public_level_12_pairs(table_cj):
    rhs = bm_rhs(1, 1, table_cj)
    swap = {"t": "t", "t_1": "t_1"}
    got = extract_in_xi_basis(XiIdentity("bm", 1, ("t", "t_1"), rhs))
    # pair-indexed coefficients collapse symmetrically onto the level
    level = table_cj.level_entries(1, 2)
    assert got[(2, 0)] == got[(0, 2)] == level[(2, 0)]
    assert got[(1, 1)] == level[(1, 1)]
    assert got[(1, 0)] == got[(0, 1)] == level[(1, 0)]


def test_bm_public_two_point_symmetry(table_cj):
    rhs = bm_rhs(1, 2, table_cj)
    swap = {"t": "t", "t_1": "t_2", "t_2": "t_1"}
    assert rhs.permute_vars(swap) == rhs


def test_identity_remainders_are_zero():
    tab = HodgeTable()
    for g, ell in [(0, 4), (0, 5), (1, 2), (1, 3), (2, 1), (2, 2)]:
        assert tab.identity_remainder(g, ell, "cutjoin") == {}
        assert tab.identity_remainder(g, ell, "bm") == {}


def test_one_point_genus_one_amplitude(table_cj):
    # sum_n <tau_n (1 - lambda_1)>_{1,1} xi_n(t) = (1/24)(t-1)(3t+1)
    acc = UniPoly.zero()
    for idx, val in table_cj.level_entries(1, 1).items():
        acc = acc + xi_form(idx[0]).scale(val)
    assert acc == UniPoly({2: rat(1, 8), 1: rat(-1, 12), 0: rat(-1, 24)})


def test_tau_key_normalization():
    key = TauKey.make(2, [0, 3, 1])
    assert key.indices == (3, 1, 0)
    assert key.chi == 5 and key.dimension() == 6
    with pytest.raises(ValueError):
        TauKey.make(1, (-1,))


def test_to_rows_deterministic(table_cj):
    rows = table_cj.to_rows()
    assert rows == sorted(
        rows, key=lambda r: (r["g"], len(r["indices"]), r["indices"]))
    lookup = {(r["g"], tuple(r["indices"])): r for r in rows}
    row = lookup[(2, (3,))]
    assert row["lambda_j"] == 1 and row["value"] == "1/480"
    row = lookup[(0, (0, 0, 0))]
    assert row["lambda_j"] == 0 and row["value"] == "1"


def test_cache_roundtrip(tmp_path):
    tab = HodgeTable().fill_to_complexity(3, method="cutjoin")
    path = save_table_cache(tab, str(tmp_path), "cutjoin")
    assert path.endswith("hodge-cutjoin.json")
    loaded = load_table_cache(str(tmp_path), "cutjoin")
    assert loaded is not None
    assert loaded.entries == tab.entries and loaded.filled == tab.filled
    assert load_table_cache(str(tmp_path), "bm") is None


def test_cache_rejects_corrupted_base(tmp_path):
    tab = HodgeTable().fill_to_complexity(2)
    tab.entries[(1, (1,))] = rat(1, 25)
    tab._by_level[(1, 1)][(1,)] = rat(1, 25)
    save_table_cache(tab, str(tmp_path), "cutjoin")
    assert load_table_cache(str(tmp_path), "cutjoin") is None


@pytest.mark.parametrize("edit", ["schema", "sha256", "value"])
def test_cache_without_matching_digest_is_a_miss(tmp_path, edit):
    path = save_table_cache(HodgeTable().fill_to_complexity(3),
                            str(tmp_path), "cutjoin")
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if edit == "value":     # a well-formed non-base value, digest kept
        payload["levels"][-1]["entries"][0][1] = "-1/7"
    else:                   # a file written before the digest existed
        del payload[edit]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    assert load_table_cache(str(tmp_path), "cutjoin") is None


@pytest.mark.parametrize("payload", [
    '{"levels": [{"g": 0,',                 # truncated
    '[]',                                   # wrong top-level shape
    '{"levels": [{"g": 1, "ell": 1, "entries": [[[1, 0], "1/24"]]}]}',
    '{"levels": [{"g": 1, "ell": 1, "entries": [[[1], "1/0"]]}]}',
])
def test_cache_damaged_file_is_a_miss(tmp_path, payload):
    (tmp_path / "hodge-cutjoin.json").write_text(payload)
    assert load_table_cache(str(tmp_path), "cutjoin") is None

"""Tests for the Hodge-integral table and its two recursion pipelines."""

import json
import os
from collections import Counter
from math import factorial

import pytest

from hodgehurwitz import level_solve
from hodgehurwitz.exact_algebra import rat
from hodgehurwitz.hodge_solver import (
    HodgeTable,
    _key,
    hodge_lambda,
    load_table_cache,
    save_table_cache,
)
from hodgehurwitz.hurwitz import hurwitz_elsv
from hodgehurwitz.level_solve import _KERNELS, _in_basis, _recursion_terms, \
    _rhs_in_basis
from hodgehurwitz.verify import dvv_verify
from hodgehurwitz.xi_tower import xi_form, xi_hat
from hodge_oracle import XiIdentity, bm_rhs, cut_pair_poly, cutjoin_rhs, \
    extract_in_xi_basis, from_univariate, join_pair_poly, permute_vars, \
    poly_add, poly_mul, poly_scale, rebuilt


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
    with pytest.raises(KeyError, match="not computed"):
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
    assert hodge_lambda(2, (3,), "cutjoin", table_cj) == (1, rat(1, 480))
    assert hodge_lambda(2, (2, 2), "cutjoin", table_cj) == (1, rat(5, 576))


def test_hodge_lambda_genus_three(table_cj):
    assert hodge_lambda(3, (6,), "cutjoin", table_cj) == (1, rat(7, 138240))
    assert hodge_lambda(3, (5,), "cutjoin", table_cj) == (2, rat(41, 580608))
    assert hodge_lambda(3, (3, 3, 2), "cutjoin", table_cj) == \
        (1, rat(89, 7680))


def test_hodge_lambda_out_of_range_j(table_cj):
    j, value = hodge_lambda(0, (0, 0, 0, 0), "cutjoin", table_cj)
    assert (j, value) == (1, 0)  # j > g = 0
    j, value = hodge_lambda(1, (5,), "cutjoin", table_cj)
    assert (j, value) == (-4, 0)


def test_hodge_lambda_unstable_message():
    with pytest.raises(ValueError, match=r"unstable \(g,ell\)=\(0,1\)"):
        hodge_lambda(0, (0,), "cutjoin", HodgeTable())


def test_hodge_lambda_demand_driven_genus_five():
    tab = HodgeTable()
    assert hodge_lambda(5, (12,), "cutjoin", tab) == (1, rat(1, 106168320))
    # only the recursion closure was filled, not the whole pyramid:
    # the deepest genus-0 level reached is (0,6), via repeated cuts
    assert (5, 1) in tab.filled and (0, 6) in tab.filled
    assert (0, 7) not in tab.filled


def test_ensure_level_closure_is_minimal():
    tab = HodgeTable()
    tab.ensure_level(2, 1, "cutjoin")
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
    level = tab.level_entries(2, 1)
    level[(4,)] = level[(4,)] + 1
    assert dvv_verify(2, 0, table=tab) is False


def _xi_product(t_index: int, spectator: int) -> dict:
    """xi_{t_index}(t) xi_{spectator}(t_1)."""
    return poly_mul(from_univariate(xi_form(t_index), 2, 0),
                    from_univariate(xi_form(spectator), 2, 1))


def test_trivial_bm_extraction():
    variables = ("t", "t_1")
    rhs = poly_add(_xi_product(1, 0), _xi_product(0, 1))
    assert extract_in_xi_basis(XiIdentity("bm", 1, variables, rhs)) == {
        (1, 0): 1}


def test_bm_extraction_refuses_one_slot_choice():
    # <tau_1 tau_0> has a key for each index in the t-slot; with only
    # xi_1(t) xi_0(t_1) the image of the read value leaves the other over
    rhs = _xi_product(1, 0)
    with pytest.raises(ValueError, match=r"identity violated.*leftover at "
                                         r"1 keys, top \(0, 2\)"):
        extract_in_xi_basis(XiIdentity("bm", 1, ("t", "t_1"), rhs))


def test_extraction_of_zero_rhs_is_empty():
    variables = ("t", "t_1")
    ident = XiIdentity("bm", 1, variables, {})
    assert extract_in_xi_basis(ident) == {}


def test_extraction_rejects_garbage():
    variables = ("t", "t_1")
    rhs = {(3, 0): rat(1)}  # odd t-degree
    with pytest.raises(ValueError, match="identity violated"):
        extract_in_xi_basis(XiIdentity("bm", 1, variables, rhs))


def test_extraction_rejects_a_partial_image():
    # one unknown's all-odd key alone reads consistently, but the
    # promoted keys of its image are missing from the right side
    variables = ("t_1", "t_2", "t_3", "t_4")
    rhs = from_univariate(xi_hat(1), 4, 0)
    for slot in (1, 2, 3):
        rhs = poly_mul(rhs, from_univariate(xi_hat(0), 4, slot))
    with pytest.raises(ValueError, match="identity violated.*leftover"):
        extract_in_xi_basis(XiIdentity("cutjoin", 0, variables, rhs))


def test_cutjoin_public_level_04(table_cj):
    ident = cutjoin_rhs(0, 4, table_cj)
    assert ident.unknown_shape == "cutjoin"
    assert ident.variables == ("t_1", "t_2", "t_3", "t_4")
    assert extract_in_xi_basis(ident) == {(1, 0, 0, 0): 1}


def test_cutjoin_public_rhs_is_symmetric(table_cj):
    ident = cutjoin_rhs(1, 2, table_cj)
    assert permute_vars(ident.rhs, (1, 0)) == ident.rhs


def test_cutjoin_public_matches_table(table_cj):
    got = extract_in_xi_basis(cutjoin_rhs(1, 2, table_cj))
    assert got == table_cj.level_entries(1, 2)


def test_cutjoin_rhs_rejects_base_level(table_cj):
    with pytest.raises(ValueError, match="base level"):
        cutjoin_rhs(1, 1, table_cj)


def test_bm_rhs_empty_at_base_level(table_cj):
    assert bm_rhs(1, 0, table_cj) == {}


def test_bm_rhs_empty_at_genus_zero_base_level(table_cj):
    # unknowns at the base level (0, 3); the recursion reads no level
    assert bm_rhs(0, 2, table_cj) == {}


def _expanded_in_basis(poly: dict, width: int, method: str) -> dict:
    """The expanded ``poly`` in ``width`` variables in the method's label
    basis, folded over its symmetric slots (all but the first ``head``)
    and divided by the factorial of their count."""
    kernel = _KERNELS[method]
    den, ints = _in_basis(poly, kernel)
    den *= factorial(width - kernel.head)
    return {key: rat(c, den) for key, c in ints.items()}


# every recursive level to chi 4, and each level of chi 5..7 whose case
# takes under about a second; the expanded cut-and-join side sums over
# all ell distinguished slots, so the case grows fast in ell: (0, 7)
# takes 11 s, (1, 6) 28 s and (2, 5) 14 s
FOLD_ORACLE_LEVELS = [
    (g, chi + 2 - 2 * g) for chi in range(2, 5)
    for g in range((chi + 1) // 2 + 1) if chi + 2 - 2 * g >= 1] + [
    (1, 5), (2, 3), (3, 1), (2, 4), (3, 2), (3, 3), (4, 1)]


@pytest.fixture(scope="module")
def table_cj_to_6():
    return HodgeTable().fill_to_complexity(6, method="cutjoin")


@pytest.mark.parametrize("g,ell", FOLD_ORACLE_LEVELS)
def test_folded_rhs_is_the_fold_of_the_expanded_rhs(table_cj_to_6, g, ell):
    # the solver's right side, built in labels, is the expanded oracle
    # converted into the label basis and folded
    table = table_cj_to_6
    expanded = cutjoin_rhs(g, ell, table).rhs
    terms = _recursion_terms(table.level_entries, g, ell)
    assert _rhs_in_basis(terms, _KERNELS["cutjoin"]) == \
        _expanded_in_basis(expanded, ell, "cutjoin")
    expanded = bm_rhs(g, ell - 1, table)
    assert _rhs_in_basis(terms, _KERNELS["bm"]) == \
        _expanded_in_basis(expanded, ell, "bm")


def _recorded_labels(method: str, chi_max: int) -> dict:
    """(part, indices) -> (D, ints) for every label conversion that a
    fill of a fresh table to ``chi_max`` reads."""
    read = {}
    labels = level_solve._labels

    def recording(kernel, part, *indices):
        read[(part, indices)] = labels(kernel, part, *indices)
        return read[(part, indices)]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(level_solve, "_labels", recording)
        HodgeTable().fill_to_complexity(chi_max, method=method)
    return read


# the cut-and-join conversions of a chi <= 10 fill, and the bm ones of a
# chi <= 7 fill (whose residue kernels the chi <= 9 acceptance fill
# shares), recorded once for this module
_READ_CHI = {"cutjoin": 10, "bm": 7}


@pytest.fixture(scope="module")
def labels_read():
    return {method: _recorded_labels(method, chi)
            for method, chi in _READ_CHI.items()}


@pytest.mark.parametrize("method", ["cutjoin", "bm"])
def test_label_basis_is_triangular_and_converts_monomials(method,
                                                          labels_read):
    kernel = _KERNELS[method]
    for d in range(14):
        assert max(kernel.basis(d)) == d
        back = {}
        den, ints = _in_basis({(d,): 1}, kernel)
        for (k,), c in ints.items():
            assert k <= d
            back = poly_add(back, poly_scale(kernel.basis(k), rat(c, den)))
        assert back == {d: 1}
    # every kernel a fill reads: the integer cut-and-join polynomials
    # equal the oracle route, and each conversion (D, ints) rebuilds
    # its polynomial exactly as sum (c/D) b_k
    read = labels_read[method]
    assert {part for part, _ in read} == {"join", "cut"}
    for (part, indices), converted in read.items():
        terms = getattr(kernel, part)(*indices)
        if method == "cutjoin":
            oracle = (join_pair_poly if part == "join" else cut_pair_poly)(
                *indices)
            assert terms == oracle, (part, indices)
        assert rebuilt(converted, kernel, len(next(iter(terms)))) == \
            terms, (method, part, indices)


@pytest.mark.parametrize("method", ["cutjoin", "bm"])
def test_label_conversions_are_integers_over_one_denominator(method,
                                                             labels_read):
    # the memoized conversions hold Python ints, so a slide back to
    # per-term rational arithmetic fails here
    for den, ints in labels_read[method].values():
        assert type(den) is int and den >= 1
        assert ints and all(type(c) is int for c in ints.values())


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


def _bm_image_mutant(monkeypatch, change):
    """Install a ``bm`` kernel whose image of each unknown with two or
    more distinct indices has ``change(image, key)`` applied at the key
    with its least index in the t-slot."""
    kernel = _KERNELS["bm"]

    def image(M, chi):
        got = dict(kernel.image(M, chi))
        if len(got) > 1:
            change(got, min(got))
        return got

    monkeypatch.setitem(_KERNELS, "bm", kernel.replace(image=image))


def test_one_wrong_t_slot_weight_raises(monkeypatch):
    # the other t-slot keys of the unknown read its true value
    def scale(image, key):
        image[key] *= rat(2, 3)

    _bm_image_mutant(monkeypatch, scale)
    with pytest.raises(ValueError, match="identity violated.*disagree"):
        HodgeTable().fill_to_complexity(5, method="bm")


def test_a_dropped_t_slot_key_raises(monkeypatch):
    _bm_image_mutant(monkeypatch, dict.pop)
    with pytest.raises(ValueError, match="identity violated.*misses its key"):
        HodgeTable().fill_to_complexity(5, method="bm")


def test_a_table_is_filled_by_one_method():
    tab = HodgeTable()
    tab.ensure_level(1, 2, "cutjoin")
    tab.ensure_level(1, 2, "bm")        # a filled level reads either way
    for method, (g, ell) in [("bm", (2, 1)), ("both", (2, 1)),
                             ("both", (1, 2))]:
        with pytest.raises(ValueError, match=f"a {method} request on a "
                                             "table filled by cutjoin"):
            tab.ensure_level(g, ell, method)
    assert (2, 1) not in tab.filled


def _wrong_bm_weight(monkeypatch):
    kernel = _KERNELS["bm"]
    monkeypatch.setitem(_KERNELS, "bm",
                        kernel.replace(weight=kernel.weight * rat(2, 3)))


def test_an_elsv_fill_never_answers_a_both_request(monkeypatch):
    # the ELSV sum fills by cut-and-join; a "both" request must not take
    # those values as checked by BM, which a wrong weight would fail
    tab = HodgeTable()
    assert hurwitz_elsv(2, (2, 1), table=tab) == 364
    _wrong_bm_weight(monkeypatch)
    with pytest.raises(ValueError, match="a both request on a table "
                                         "filled by cutjoin"):
        hodge_lambda(2, (3, 1), "both", tab)


def test_dvv_verify_never_fills_a_both_table(monkeypatch):
    tab = HodgeTable().fill_to_complexity(6, method="both")
    assert dvv_verify(3, 1, table=tab)  # level (3, 2) is filled
    _wrong_bm_weight(monkeypatch)
    with pytest.raises(ValueError, match="a cutjoin request on a table "
                                         "filled by both"):
        dvv_verify(3, 2, table=tab)
    assert (3, 3) not in tab.filled
    with pytest.raises(ValueError, match="pipelines disagree"):
        hodge_lambda(3, (3, 3, 1), "both", tab)


def test_a_loaded_table_keeps_the_method_of_its_file(tmp_path):
    save_table_cache(HodgeTable().fill_to_complexity(3, method="cutjoin"),
                     str(tmp_path))
    tab = load_table_cache(str(tmp_path), "cutjoin")
    with pytest.raises(ValueError, match="a both request on a table "
                                         "filled by cutjoin"):
        hodge_lambda(2, (3,), "both", tab)
    with pytest.raises(ValueError, match="a bm request on a table "
                                         "filled by cutjoin"):
        tab.ensure_level(2, 2, "bm")
    tab.ensure_level(2, 2, "cutjoin")


@pytest.mark.parametrize("method", ["cutjoin", "bm"])
def test_mutated_stored_value_raises(method):
    tab = HodgeTable()
    tab.ensure_level(1, 2, method)
    assert (1, 3) not in tab.filled and (2, 1) not in tab.filled
    level = tab.level_entries(1, 2)
    level[(1, 0)] = level[(1, 0)] + 1
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


@pytest.mark.parametrize("method", ["cutjoin", "bm"])
def test_label_denominator_off_by_three_raises(monkeypatch, method):
    # one memoized conversion, the join of index 1, claims a denominator
    # three times too large
    labels = level_solve._labels

    def wrong(kernel, part, *indices):
        den, ints = labels(kernel, part, *indices)
        return (3 * den, ints) if (part, indices) == ("join", (1,)) else \
            (den, ints)

    monkeypatch.setattr(level_solve, "_labels", wrong)
    with pytest.raises(ValueError, match="identity violated"):
        HodgeTable().fill_to_complexity(5, method=method)


def test_bm_public_level_12_pairs(table_cj):
    rhs = bm_rhs(1, 1, table_cj)
    got = extract_in_xi_basis(XiIdentity("bm", 1, ("t", "t_1"), rhs))
    # every t-slot choice of each index pair reads the cut-and-join value
    assert got == table_cj.level_entries(1, 2)
    assert set(got) == {(2, 0), (1, 1), (1, 0)}


def test_bm_public_two_point_symmetry(table_cj):
    rhs = bm_rhs(1, 2, table_cj)
    assert permute_vars(rhs, (0, 2, 1)) == rhs


def test_identity_remainders_are_zero():
    tab = HodgeTable()
    for g, ell in [(0, 4), (0, 5), (1, 2), (1, 3), (2, 1), (2, 2)]:
        assert tab.identity_remainder(g, ell, "cutjoin") == {}
        assert tab.identity_remainder(g, ell, "bm") == {}


def _solvable_levels(table):
    return [(g, ell) for g, ell in table.filled if 2 * g - 2 + ell >= 2]


def test_both_identity_remainder_checks_both_kernels(monkeypatch):
    tab = HodgeTable().fill_to_complexity(6, method="both")
    assert len(_solvable_levels(tab)) == 16
    for g, ell in _solvable_levels(tab):
        assert tab.identity_remainder(g, ell, "both") == {}, (g, ell)
    # a BM-only fault falls through an empty cut-and-join remainder
    kernel = _KERNELS["bm"]
    monkeypatch.setitem(_KERNELS, "bm",
                        kernel.replace(weight=kernel.weight * rat(2, 3)))
    assert tab.identity_remainder(1, 2, "cutjoin") == {}
    bm = tab.identity_remainder(1, 2, "bm")
    assert bm and tab.identity_remainder(1, 2, "both") == bm
    monkeypatch.undo()
    # a stored fault is reported by cut-and-join first
    level = tab.level_entries(1, 2)
    level[(1, 0)] = level[(1, 0)] + 1
    cutjoin = tab.identity_remainder(1, 2, "cutjoin")
    assert cutjoin and tab.identity_remainder(1, 2, "bm")
    assert tab.identity_remainder(1, 2, "both") == cutjoin


def test_a_both_solve_reads_each_recursion_sum_once(monkeypatch):
    # "both" converts one stream of terms in each kernel: a fill and a
    # remainder check each read a level's recursion sum once
    reads = Counter()
    stream = level_solve._recursion_terms

    def counting(*args):
        reads[args[-2:]] += 1
        return stream(*args)

    monkeypatch.setattr(level_solve, "_recursion_terms", counting)
    tab = HodgeTable().fill_to_complexity(5, method="both")
    levels = Counter(_solvable_levels(tab))
    assert len(levels) == 12 and reads == levels
    reads.clear()
    for g, ell in levels:
        assert tab.identity_remainder(g, ell, "both") == {}, (g, ell)
    assert reads == levels


def test_the_recursion_sum_is_collected_per_term_and_spectators():
    # the 17,062 join, cut and split occurrences of a chi <= 9 fill merge
    # into 3298 (term, spectators) pairs; spectators keyed unsorted, or a
    # cut keyed (a, b) in the order the split gives it (4617), would
    # leave every value right but stop the merging
    tab = HodgeTable().fill_to_complexity(9, method="cutjoin")
    assert sum(len(_recursion_terms(tab.level_entries, g, ell))
               for g, ell in _solvable_levels(tab)) == 3298


def test_a_key_beyond_the_dimension_is_refused(monkeypatch):
    # a BM cut fault adds the one label xi_5 at the one-point level
    # (2, 1), of dimension 4: its image is the one key (10,), so neither
    # the leftover check nor the agreement of its t-slot reads sees it
    kernel = _KERNELS["bm"]

    def cut(a, b):
        terms = dict(kernel.cut(a, b))
        if (a, b) == (1, 1):
            for d, c in xi_form(5).items():
                terms[(d,)] = terms.get((d,), 0) + c
        return terms

    monkeypatch.setitem(_KERNELS, "bm", kernel.replace(cut=cut))
    with pytest.raises(ValueError, match=r"bm level \(g,ell\)=\(2,1\): "
                                         r"key \(10,\) beyond dimension 4"):
        HodgeTable().ensure_level(2, 1, "bm")


def test_every_reader_reads_the_one_store():
    tab = HodgeTable().fill_to_complexity(3, method="both")
    h = hurwitz_elsv(1, (2, 1, 1), table=tab)
    level = tab.level_entries(1, 3)
    assert level[(1, 1, 1)] == rat(1, 12)
    level[(1, 1, 1)] = rat(13, 12)
    assert tab.value(1, (1, 1, 1)) == rat(13, 12)
    assert hodge_lambda(1, (1, 1, 1), method="both", table=tab) == \
        (0, rat(13, 12))
    assert {"g": 1, "indices": [1, 1, 1], "lambda_j": 0,
            "value": "13/12"} in tab.to_rows()
    assert tab.entries[(1, (1, 1, 1))] == rat(13, 12)
    # <tau_1^3> has weight prod mu_i = 2 in h(1, (2,1,1)), whose ELSV
    # prefactor is r!/|Aut mu| prod mu_i^mu_i/mu_i! = 7!/2 * 2 = 5040
    assert hurwitz_elsv(1, (2, 1, 1), table=tab) == h + 2 * 5040
    with pytest.raises(TypeError):
        tab.entries[(1, (1, 1, 1))] = rat(1, 12)
    # the seeded base levels are each table's own
    tab.level_entries(1, 1)[(1,)] = rat(1, 25)
    assert HodgeTable().value(1, (1,)) == rat(1, 24)


@pytest.mark.parametrize("method", ["cutjoin", "bm"])
def test_shared_images_are_never_mutated(monkeypatch, method):
    # the images are memoized: a caller that changed one would corrupt
    # every later read of it
    kernel, handed = _KERNELS[method], []

    def image(unknown, chi):
        got = kernel.image(unknown, chi)
        handed.append((unknown, chi, got))
        return got

    monkeypatch.setitem(_KERNELS, method, kernel.replace(image=image))
    tab = HodgeTable().fill_to_complexity(6, method=method)
    for g, ell in [(0, 5), (1, 3), (2, 2)]:
        assert tab.identity_remainder(g, ell, method) == {}
    assert handed
    for unknown, chi, got in handed:
        assert kernel.image(unknown, chi) is got
        assert got == kernel.image.__wrapped__(unknown, chi)


def test_one_point_genus_one_amplitude(table_cj):
    # sum_n <tau_n (1 - lambda_1)>_{1,1} xi_n(t) = (1/24)(t-1)(3t+1)
    acc = {}
    for idx, val in table_cj.level_entries(1, 1).items():
        acc = poly_add(acc, poly_scale(xi_form(idx[0]), val))
    assert acc == {2: rat(1, 8), 1: rat(-1, 12), 0: rat(-1, 24)}


def test_tau_key_normalization():
    assert _key(2, [0, 3, 1]) == (2, (3, 1, 0))
    with pytest.raises(ValueError):
        _key(1, (-1,))
    with pytest.raises(ValueError, match=r"unstable \(g,ell\)=\(0,2\)"):
        _key(0, (1, 0))


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
    path = save_table_cache(tab, str(tmp_path))
    assert path.endswith("hodge-cutjoin.json")
    loaded = load_table_cache(str(tmp_path), "cutjoin")
    assert loaded is not None
    assert loaded.entries == tab.entries and loaded.filled == tab.filled
    assert load_table_cache(str(tmp_path), "bm") is None


def test_a_table_is_saved_under_the_method_that_filled_it(tmp_path):
    # the cache file is named by the table's own method, never the
    # caller's: a cut-and-join table never answers a later both request
    tab = HodgeTable().fill_to_complexity(3, method="cutjoin")
    path = save_table_cache(tab, str(tmp_path))
    assert os.listdir(tmp_path) == ["hodge-cutjoin.json"]
    assert path == str(tmp_path / "hodge-cutjoin.json")
    assert load_table_cache(str(tmp_path), "both") is None
    with pytest.raises(ValueError, match="no method has filled"):
        save_table_cache(HodgeTable(), str(tmp_path))
    assert os.listdir(tmp_path) == ["hodge-cutjoin.json"]


def test_cache_rejects_corrupted_base(tmp_path):
    tab = HodgeTable().fill_to_complexity(2, method="cutjoin")
    tab.level_entries(1, 1)[(1,)] = rat(1, 25)
    save_table_cache(tab, str(tmp_path))
    assert load_table_cache(str(tmp_path), "cutjoin") is None


def test_cache_base_level_with_an_extra_value_is_a_miss(tmp_path):
    # the file's base levels must equal the seeded ones, key for key
    tab = HodgeTable().fill_to_complexity(2, method="cutjoin")
    tab.level_entries(1, 1)[(2,)] = rat(1, 7)
    save_table_cache(tab, str(tmp_path))
    assert load_table_cache(str(tmp_path), "cutjoin") is None


@pytest.mark.parametrize("edit", ["schema", "sha256", "value"])
def test_cache_without_matching_digest_is_a_miss(tmp_path, edit):
    path = save_table_cache(
        HodgeTable().fill_to_complexity(3, method="cutjoin"), str(tmp_path))
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

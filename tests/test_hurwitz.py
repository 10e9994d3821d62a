"""Tests for the three Hurwitz-number routes and the ELSV bridge."""

from fractions import Fraction
from math import prod

import pytest

from hodgehurwitz.exact_algebra import rat
from hodgehurwitz.hodge_solver import HodgeTable
from hodgehurwitz.hurwitz import (
    HurwitzKey,
    elsv_invert,
    genus_zero_one_part,
    genus_zero_two_part,
    h_brute,
    h_direct,
    hurwitz_elsv,
    table_generate,
    _elsv_weight,
    _partitions,
)


def test_trivial_cover():
    assert h_direct(0, (1,)) == 1


def test_degree_one_higher_genus_vanishes():
    assert h_direct(1, (1,)) == 0
    assert h_direct(3, (1,)) == 0


def test_degree_two_is_one_half():
    # a single transposition sequence exists for every branch count
    for g in range(0, 5):
        assert h_direct(g, (2,)) == rat(1, 2)
        assert h_direct(g, (1, 1)) == rat(1, 2)


def test_genus_zero_closed_forms():
    for k in range(1, 8):
        assert h_direct(0, (k,)) == genus_zero_one_part(k)
    for a in range(1, 5):
        for b in range(1, a + 1):
            assert h_direct(0, (a, b)) == genus_zero_two_part(a, b)


def test_closed_form_values():
    assert genus_zero_one_part(3) == 1
    assert genus_zero_one_part(5) == 25
    assert genus_zero_two_part(1, 1) == rat(1, 2)
    assert genus_zero_two_part(2, 2) == 12


def test_brute_matches_direct_in_range():
    cases = [(0, (1,)), (0, (2,)), (0, (1, 1)), (0, (3,)), (0, (2, 1)),
             (0, (1, 1, 1)), (1, (2,)), (1, (1, 1)), (1, (3,)),
             (1, (2, 1)), (2, (2,)), (2, (1, 1)), (0, (4,)), (0, (3, 1)),
             (0, (2, 2)), (1, (4,)), (0, (5,)), (0, (2, 2, 1))]
    for g, mu in cases:
        assert h_brute(g, mu) == h_direct(g, mu), (g, mu)


def test_brute_range_guard():
    with pytest.raises(ValueError, match="oracle out of range"):
        h_brute(0, (6,))
    with pytest.raises(ValueError, match="oracle out of range"):
        h_brute(3, (3, 2))  # r = 9


def test_appendix_one_part_column():
    assert h_direct(1, (3,)) == 9
    assert h_direct(2, (3,)) == 81
    assert h_direct(3, (3,)) == 729
    assert h_direct(4, (3,)) == 6561
    assert h_direct(2, (4,)) == 5824
    assert h_direct(4, (6,)) == 895132294056


def test_appendix_multi_part_cells():
    assert h_direct(1, (2, 1)) == 40
    assert h_direct(4, (2, 1)) == 29524
    assert h_direct(3, (3, 1)) == 1673055
    assert h_direct(2, (2, 2, 1)) == 20160000
    assert h_direct(1, (3, 2, 1)) == 14696640
    assert h_direct(2, (1, 1, 1, 1, 1)) == 131670000
    assert h_direct(2, (2, 1, 1, 1, 1)) == 100557737280


def test_genus_five_one_part_list():
    wants = [0, rat(1, 2), 59049, 272097280, 333251953125, 202252053177720]
    for k, want in zip(range(1, 7), wants):
        assert h_direct(5, (k,)) == want, k


def test_elsv_matches_direct():
    for g, mu in [(1, (2,)), (1, (1, 1)), (2, (3,)), (1, (2, 2)),
                  (3, (2, 1)), (2, (4, 1)), (4, (3,)), (1, (3, 2, 1))]:
        assert hurwitz_elsv(g, mu) == h_direct(g, mu), (g, mu)


def test_elsv_unstable_raises():
    with pytest.raises(ValueError, match=r"unstable \(g,ell\)=\(0,2\)"):
        hurwitz_elsv(0, (3, 1))


def test_elsv_genus_zero_stable():
    assert hurwitz_elsv(0, (1, 1, 1)) == h_direct(0, (1, 1, 1))
    assert hurwitz_elsv(0, (3, 2, 1)) == h_direct(0, (3, 2, 1))


def test_elsv_invert_startup():
    assert elsv_invert(1, 1) == {(1,): rat(1, 24), (0,): rat(-1, 24)}


def test_elsv_invert_matches_solver():
    tab = HodgeTable().fill_to_complexity(3, method="cutjoin")
    for g, ell in [(0, 4), (0, 5), (1, 2), (1, 3), (2, 1)]:
        assert elsv_invert(g, ell) == tab.level_entries(g, ell), (g, ell)


def test_elsv_invert_unstable():
    with pytest.raises(ValueError, match="unstable"):
        elsv_invert(0, 2)


def _orders(idx: tuple) -> list:
    """Every distinct order of the multiset ``idx``."""
    if not idx:
        return [()]
    out = []
    for v in sorted(set(idx)):
        rest = list(idx)
        rest.remove(v)
        out += [(v,) + tail for tail in _orders(tuple(rest))]
    return out


def _multisets(length: int, total_max: int, cap: int):
    """Non-increasing tuples of ``length`` entries with sum <= total_max."""
    if length == 0:
        yield ()
        return
    for first in range(min(cap, total_max), -1, -1):
        for rest in _multisets(length - 1, total_max - first, first):
            yield (first,) + rest


def test_elsv_weight_is_the_rational_power_sum():
    # the weight of <tau_idx ...> in h(g, mu), summed over the distinct
    # orders of idx as Fraction powers, is an exact integer
    cases = 0
    for d in range(1, 9):
        for mu in _partitions(d):
            for idx in _multisets(len(mu), 6, 6):
                reference = sum(prod((Fraction(m) ** n
                                      for m, n in zip(mu, order)),
                                     start=Fraction(1))
                                for order in _orders(idx))
                weight = _elsv_weight(mu, idx)
                assert type(weight) is int
                assert weight == reference, (mu, idx)
                cases += 1
    assert cases > 1000


def test_hurwitz_key_normalization():
    key = HurwitzKey.make(1, [1, 3, 2])
    assert key.mu == (3, 2, 1) and key.r == 9
    with pytest.raises(ValueError, match="positive"):
        HurwitzKey.make(0, (2, 0))
    with pytest.raises(ValueError, match="positive"):
        HurwitzKey.make(0, ())


def test_partitions_descending_lex():
    assert list(_partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1),
                                    (1, 1, 1, 1)]


def test_table_generate_rows():
    rows = table_generate(2, 3)
    keys = [(r["g"], tuple(r["mu"])) for r in rows]
    assert keys == [
        (1, (1,)), (1, (2,)), (1, (1, 1)), (1, (3,)), (1, (2, 1)),
        (1, (1, 1, 1)),
        (2, (1,)), (2, (2,)), (2, (1, 1)), (2, (3,)), (2, (2, 1)),
        (2, (1, 1, 1)),
    ]
    by_key = dict(zip(keys, rows))
    assert by_key[(1, (3,))]["h"] == 9
    assert by_key[(2, (2, 1))]["h"] == 364
    assert all(r["method"] == "elsv" for r in rows)
    assert not any(r["checked"] for r in rows)


def test_table_generate_check_and_genus_zero():
    rows = table_generate(1, 2, include_genus_zero=True, check=True)
    by_key = {(r["g"], tuple(r["mu"])): r for r in rows}
    assert by_key[(0, (1,))]["method"] == "direct"
    assert by_key[(0, (1,))]["h"] == 1
    assert by_key[(0, (2,))]["h"] == rat(1, 2)
    assert by_key[(1, (2,))]["method"] == "elsv"
    assert all(r["checked"] for r in rows)


def test_table_generate_rejects_bad_bounds():
    with pytest.raises(ValueError, match="g-max must be ≥ 1"):
        table_generate(0, 3)
    with pytest.raises(ValueError, match="d-max"):
        table_generate(1, 0)

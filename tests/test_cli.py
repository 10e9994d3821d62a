import json
import os
import re
import subprocess
import sys

import pytest

import hodgehurwitz
from hodgehurwitz import hurwitz, lambert_curve, level_solve, \
    reference_data
from hodgehurwitz.cli import MAX_BRANCH_POINTS, MAX_BUDGET, \
    MAX_SERIES_ORDER, MIN_SERIES_ORDER, main
from hodgehurwitz.exact_algebra import rat
from hodgehurwitz.hodge_solver import HodgeTable


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def solved(monkeypatch):
    """The (g, ell, method) of every level solved, in order."""
    calls = []
    solve = HodgeTable._solve_level

    def counting(self, g, ell, method):
        calls.append((g, ell, method))
        return solve(self, g, ell, method)

    monkeypatch.setattr(HodgeTable, "_solve_level", counting)
    return calls


# --- hodge ---------------------------------------------------------------


def test_hodge_text_output(capsys):
    code, out, err = run(capsys, "hodge", "--g", "2", "--indices", "3")
    assert code == 0
    assert out == "j=1 value=1/480\n"
    assert err == ""


def test_hodge_genus_zero_base(capsys):
    code, out, _ = run(capsys, "hodge", "--g", "0", "--indices", "0,0,0")
    assert code == 0
    assert out == "j=0 value=1\n"


def test_hodge_json_output(capsys):
    code, out, _ = run(capsys, "hodge", "--g", "2", "--indices", "2,2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "g": 2, "indices": [2, 2], "lambda_j": 1, "value": "5/576"}


def test_hodge_both_methods(capsys):
    code, out, _ = run(capsys, "hodge", "--g", "3", "--indices", "3,3,2",
                       "--method", "both")
    assert code == 0
    assert out == "j=1 value=89/7680\n"


def test_hodge_unstable_is_an_error(capsys):
    code, out, err = run(capsys, "hodge", "--g", "0", "--indices", "0")
    assert code == 1
    assert out == ""
    assert err == "error: unstable (g,ell)=(0,1)\n"


@pytest.mark.parametrize("indices, ell", [("0,0", 2), ("5", 1)])
def test_hodge_unstable_builds_no_table(capsys, monkeypatch, indices, ell):
    def fail(self):
        raise AssertionError("no table may be built")

    monkeypatch.setattr(HodgeTable, "__init__", fail)
    assert run(capsys, "hodge", "--g", "0", "--indices", indices) == \
        (1, "", f"error: unstable (g,ell)=(0,{ell})\n")


@pytest.mark.parametrize("argv, err", [
    (("hodge", "--g", "-1", "--indices", "3"), "genus must be ≥ 0, got -1"),
    (("hodge", "--g", "1", "--indices", "1,-1"),
     "indices must be ≥ 0, got (1, -1)"),
    (("hurwitz", "--g", "-1", "--mu", "2"), "genus must be ≥ 0, got -1"),
], ids=["hodge_genus", "hodge_index", "hurwitz_genus"])
def test_negative_input_builds_no_table(capsys, monkeypatch, argv, err):
    def fail(self):
        raise AssertionError("no table may be built")

    monkeypatch.setattr(HodgeTable, "__init__", fail)
    assert run(capsys, *argv) == (1, "", f"error: {err}\n")


def test_hodge_both_names_the_first_entry_where_pipelines_disagree(
        capsys, monkeypatch):
    # a wrong BM weight scales BM's whole right side, so BM's own checks
    # pass and only the comparison with cut-and-join can refuse
    kernel = level_solve._KERNELS["bm"]
    monkeypatch.setitem(level_solve._KERNELS, "bm",
                        kernel.replace(weight=kernel.weight * rat(2, 3)))
    monkeypatch.delenv("HURWITZ_REC_CACHE", raising=False)
    assert run(capsys, "hodge", "--g", "1", "--indices", "1,1",
               "--method", "both") == \
        (1, "", "error: pipelines disagree at (g,ell)=(1,2): indices "
                "(1, 0): cutjoin -1/24 vs bm -1/36\n")


@pytest.mark.parametrize("indices", ["1,x", ""])
def test_hodge_rejects_malformed_indices(capsys, indices):
    code, _, err = run(capsys, "hodge", "--g", "1", "--indices", indices)
    assert code == 1
    assert "expected comma-separated integers" in err
    assert err.count("\n") == 1


def test_hodge_budget_enforced(capsys):
    code, _, err = run(capsys, "hodge", "--g", "5", "--indices", "9",
                       "--complexity-budget", "8")
    assert code == 1
    assert "complexity 2g-2+ell = 9 exceeds --complexity-budget 8" in err


# the recursion closure of level (3, 1), base levels (0, 3), (1, 1) aside
CLOSURE_3_1 = {(0, 4), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)}


@pytest.mark.parametrize("indices, out", [("1", "j=6 value=0\n"),
                                          ("6", "j=1 value=7/138240\n")])
def test_hodge_solves_only_the_closure(capsys, solved, indices, out):
    assert run(capsys, "hodge", "--g", "3", "--indices", indices) == \
        (0, out, "")
    cells = [(g, ell) for g, ell, _ in solved]
    assert len(cells) == len(set(cells))
    assert set(cells) <= CLOSURE_3_1
    assert not {(0, 7), (1, 5), (2, 3)} & set(cells)
    if indices == "6":
        assert set(cells) == CLOSURE_3_1


def test_both_solves_every_level_of_the_closure_both_ways(capsys, solved):
    # a "both" answer rests only on levels that both pipelines agreed on
    assert run(capsys, "hodge", "--g", "3", "--indices", "6",
               "--method", "both") == (0, "j=1 value=7/138240\n", "")
    assert len(solved) == len(CLOSURE_3_1)
    assert {(g, ell) for g, ell, _ in solved} == CLOSURE_3_1
    assert {method for *_, method in solved} == {"both"}


def test_verify_solves_each_level_once(capsys, solved):
    code, out, _ = run(capsys, "verify", "--suite", "dvv",
                       "--complexity-budget", "5")
    assert code == 0 and out.count("ok   dvv:") == 3
    assert solved and len(solved) == len(set(solved))


def test_hodge_cache_roundtrip(capsys, tmp_path, monkeypatch, solved):
    monkeypatch.setenv("HURWITZ_REC_CACHE", str(tmp_path))
    cache = tmp_path / "hodge-cutjoin.json"
    code, out, _ = run(capsys, "hodge", "--g", "2", "--indices", "3")
    assert code == 0 and out == "j=1 value=1/480\n"
    assert cache.exists()
    first, text = len(solved), cache.read_text()
    assert first > 0
    code, out, _ = run(capsys, "hodge", "--g", "2", "--indices", "3")
    assert code == 0 and out == "j=1 value=1/480\n"
    assert len(solved) == first and cache.read_text() == text
    # a deeper level reuses the file, solves only what it lacks, and
    # rewrites the file with the union
    code, out, _ = run(capsys, "hodge", "--g", "2", "--indices", "2,2")
    assert code == 0 and out == "j=1 value=5/576\n"
    assert (2, 2, "cutjoin") in solved[first:]
    assert not set(solved[first:]) & set(solved[:first])
    levels = {(lv["g"], lv["ell"])
              for lv in json.loads(cache.read_text())["levels"]}
    assert levels == {(g, ell) for g, ell, _ in solved} | {(0, 3), (1, 1)}


@pytest.mark.parametrize("payload", ['{"levels": [{"g": 0, "ell', "[]"])
def test_hodge_damaged_cache_is_recomputed(capsys, tmp_path, monkeypatch,
                                           payload):
    monkeypatch.setenv("HURWITZ_REC_CACHE", str(tmp_path))
    cache = tmp_path / "hodge-cutjoin.json"
    cache.write_text(payload)
    code, out, err = run(capsys, "hodge", "--g", "2", "--indices", "3")
    assert (code, out, err) == (0, "j=1 value=1/480\n", "")
    assert json.loads(cache.read_text())["method"] == "cutjoin"


def test_hodge_cache_of_another_method_is_a_miss(capsys, tmp_path,
                                                monkeypatch, solved):
    # a cut-and-join file copied to the "both" name holds no BM check
    monkeypatch.setenv("HURWITZ_REC_CACHE", str(tmp_path))
    assert run(capsys, "hodge", "--g", "2", "--indices", "3") == \
        (0, "j=1 value=1/480\n", "")
    first = len(solved)
    both = tmp_path / "hodge-both.json"
    both.write_text((tmp_path / "hodge-cutjoin.json").read_text())
    assert run(capsys, "hodge", "--g", "2", "--indices", "3",
               "--method", "both") == (0, "j=1 value=1/480\n", "")
    assert {m for *_, m in solved[first:]} == {"both"}
    assert json.loads(both.read_text())["method"] == "both"


def test_hodge_edited_cache_value_is_recomputed(capsys, tmp_path,
                                                monkeypatch):
    monkeypatch.setenv("HURWITZ_REC_CACHE", str(tmp_path))
    cache = tmp_path / "hodge-cutjoin.json"
    assert run(capsys, "hodge", "--g", "2", "--indices", "3") == \
        (0, "j=1 value=1/480\n", "")

    def tau_3_row(payload):  # the genus-2 <tau_3> row
        level = next(lv for lv in payload["levels"]
                     if (lv["g"], lv["ell"]) == (2, 1))
        return next(row for row in level["entries"] if row[0] == [3])

    # edit the value, leaving the stored digest as it was
    payload = json.loads(cache.read_text())
    row = tau_3_row(payload)
    good, row[1] = row[1], "-1/7"
    cache.write_text(json.dumps(payload))
    assert run(capsys, "hodge", "--g", "2", "--indices", "3") == \
        (0, "j=1 value=1/480\n", "")
    assert tau_3_row(json.loads(cache.read_text()))[1] == good
    assert not list(tmp_path.glob("*.tmp"))


# --- hurwitz -------------------------------------------------------------


def test_hurwitz_default_method(capsys):
    code, out, _ = run(capsys, "hurwitz", "--g", "1", "--mu", "2,1")
    assert code == 0
    assert out == "40\n"


def test_hurwitz_genus_five(capsys):
    code, out, _ = run(capsys, "hurwitz", "--g", "5", "--mu", "6")
    assert code == 0
    assert out == "202252053177720\n"


def test_hurwitz_cross_agreement(capsys):
    code, out, _ = run(capsys, "hurwitz", "--g", "1", "--mu", "2",
                       "--method", "cross")
    assert code == 0
    assert out == "1/2 (3 methods agree)\n"
    # genus 0: the recursion, Hurwitz's formula and brute force
    assert run(capsys, "hurwitz", "--g", "0", "--mu", "3,2",
               "--method", "cross") == (0, "216 (3 methods agree)\n", "")


@pytest.mark.parametrize("route, g, mu, detail", [
    ("genus_zero", "0", "3,2",
     "h(0, (3, 2)): direct=216 closed form=217 brute=216"),
    ("h_brute", "1", "1,2", "h(1, (2, 1)): elsv=40 direct=40 brute=41"),
], ids=["closed_form", "brute"])
def test_hurwitz_cross_names_a_wrong_route(capsys, monkeypatch, route, g, mu,
                                           detail):
    right = getattr(hurwitz, route)
    monkeypatch.setattr(hurwitz, route, lambda *args: right(*args) + 1)
    code, out, err = run(capsys, "hurwitz", "--g", g, "--mu", mu,
                         "--method", "cross")
    assert (code, out) == (1, "")
    assert err == f"error: methods disagree at {detail}\n"


def test_hurwitz_half_integer_prints_as_fraction(capsys):
    code, out, _ = run(capsys, "hurwitz", "--g", "4", "--mu", "1,1",
                       "--method", "elsv")
    assert code == 0
    assert out == "1/2\n"


def test_hurwitz_brute_out_of_range(capsys):
    code, _, err = run(capsys, "hurwitz", "--g", "3", "--mu", "6",
                       "--method", "brute")
    assert code == 1
    assert "oracle out of range" in err


def test_hurwitz_rejects_bad_partition(capsys):
    code, _, err = run(capsys, "hurwitz", "--g", "1", "--mu", "2,0")
    assert code == 1
    assert "partition parts must be positive" in err


def test_hurwitz_rejects_an_empty_profile(capsys):
    assert run(capsys, "hurwitz", "--g", "1", "--mu", "") == (
        1, "", "error: invalid mu '': expected comma-separated integers\n")


@pytest.mark.parametrize("g, mu, r", [
    ("1", "99999999999999999999", 10 ** 20),
    ("500", "2", 1001),
    ("0", "3000", 2999),
    ("0", "26", 25),
])
@pytest.mark.parametrize("method", ["cutjoin", "elsv", "brute", "cross"])
def test_hurwitz_refuses_too_many_branch_points(capsys, monkeypatch, g, mu,
                                                r, method):
    # refused before any work: the recursion would overflow the stack or
    # run for minutes
    for route in ("h_direct", "h_brute", "hurwitz_elsv"):
        monkeypatch.setattr(hurwitz, route, None)
    code, out, err = run(capsys, "hurwitz", "--g", g, "--mu", mu,
                         "--method", method)
    assert (code, out) == (1, "")
    assert err == (f"error: r = 2g-2+ell+|mu| = {r} simple branch points "
                   f"exceeds the limit {MAX_BRANCH_POINTS}\n")
    assert "Traceback" not in err


def test_hurwitz_answers_at_the_branch_point_limit(capsys):
    # r = 24 exactly
    assert run(capsys, "hurwitz", "--g", "0", "--mu", "25") == \
        (0, "5684341886080801486968994140625\n", "")


# --- table ---------------------------------------------------------------


def test_table_small_csv(capsys):
    code, out, _ = run(capsys, "table", "--g-max", "1", "--size-max", "2")
    assert code == 0
    assert out == ("g,mu,h,method,checked\n"
                   "1,1,0,elsv,false\n"
                   "1,2,1/2,elsv,false\n"
                   "1,1 1,1/2,elsv,false\n")


def test_table_rejects_genus_zero_max(capsys):
    code, _, err = run(capsys, "table", "--g-max", "0")
    assert code == 1
    assert err == "error: g-max must be ≥ 1 for the Hurwitz table\n"


@pytest.mark.parametrize("g_max, size_max, r", [
    ("30", "12", 82), ("2", "12", 26)])
def test_table_refuses_too_many_branch_points(capsys, monkeypatch, g_max,
                                              size_max, r):
    # the largest row (g_max, 1^size_max) needs r = 2 g_max - 2 + 2 size_max
    # branch points; refused before any work
    monkeypatch.setattr(hurwitz, "table_generate", None)
    code, out, err = run(capsys, "table", "--g-max", g_max, "--size-max",
                         size_max)
    assert (code, out) == (1, "")
    assert err == (f"error: r = 2g-2+ell+|mu| = {r} simple branch points "
                   f"exceeds the limit {MAX_BRANCH_POINTS}\n")


def test_table_answers_at_the_branch_point_limit(capsys):
    # r = 24 exactly: one row per genus, mu = (1)
    code, out, _ = run(capsys, "table", "--g-max", "12", "--size-max", "1")
    assert code == 0
    assert out.count("\n") == 1 + 12


def test_table_reruns_are_byte_identical(capsys):
    _, first, _ = run(capsys, "table", "--g-max", "2", "--size-max", "4",
                      "--format", "json")
    _, second, _ = run(capsys, "table", "--g-max", "2", "--size-max", "4",
                       "--format", "json")
    assert first == second
    rows = json.loads(first)
    assert rows[0] == {"g": 1, "mu": [1], "h": "0", "method": "elsv",
                       "checked": False}
    assert len(rows) == 2 * (1 + 2 + 3 + 5)


def test_table_check_and_genus_zero(capsys):
    code, out, _ = run(capsys, "table", "--g-max", "1", "--size-max", "3",
                       "--include-genus-zero", "--check", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert all(row["checked"] for row in rows)
    zero_rows = {tuple(r["mu"]): r for r in rows if r["g"] == 0}
    assert zero_rows[(1,)]["h"] == "1"
    assert zero_rows[(1,)]["method"] == "direct"
    assert zero_rows[(1, 1, 1)]["h"] == "4"
    assert zero_rows[(1, 1, 1)]["method"] == "elsv"


@pytest.mark.parametrize("wrong, row", [
    ((3,), "h(0, (3,))"),
    ((2, 1), "h(0, (2, 1))"),
], ids=["one_part", "two_part"])
def test_table_check_compares_direct_rows_with_a_closed_form(
        capsys, monkeypatch, wrong, row):
    # a direct row is checked by a route that shares no code with
    # h_direct, so a wrong closed form is caught
    right = hurwitz.genus_zero
    monkeypatch.setattr(hurwitz, "genus_zero", lambda mu: right(mu) + 1
                        if mu == wrong else right(mu))
    code, out, err = run(capsys, "table", "--g-max", "1", "--size-max", "3",
                         "--include-genus-zero", "--check")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: pipelines disagree at {row}: direct ")
    assert err.count("\n") == 1


def test_table_check_marks_rows_beyond_every_second_route(capsys):
    # at budget 1 only chi = 1 rows go through the formula; the other
    # rows are direct, and brute force checks them where |mu| <= 5 and
    # r <= 8
    code, out, _ = run(capsys, "table", "--g-max", "2", "--size-max", "4",
                       "--complexity-budget", "1", "--check")
    assert code == 0
    rows = {line.rsplit(",", 3)[0]: line.split(",")[3:]
            for line in out.splitlines()[1:]}
    assert rows["1,1"] == ["elsv", "true"]          # chi 1, by recursion
    assert rows["1,1 1"] == ["direct", "true"]      # r = 4, by brute force
    assert rows["2,2 2"] == ["direct", "true"]      # r = 8
    assert rows["2,2 1 1"] == ["direct", "false"]   # r = 9
    assert rows["2,1 1 1 1"] == ["direct", "false"]  # r = 10
    assert out.count(",false\n") == 2


def test_table_check_covers_every_genus_zero_row(capsys):
    # Hurwitz's formula checks the direct rows of genus 0 beyond brute
    # force too; in genus 1 those rows stay unchecked
    code, out, _ = run(capsys, "table", "--g-max", "1", "--size-max", "6",
                       "--include-genus-zero", "--complexity-budget", "1",
                       "--check")
    assert code == 0
    rows = {line.rsplit(",", 3)[0]: line.split(",")[3:]
            for line in out.splitlines()[1:]}
    assert rows["0,1 1 1 1 1 1"] == ["direct", "true"]   # |mu| = 6
    assert rows["1,1 1 1 1 1 1"] == ["direct", "false"]
    assert all(checked == "true" for key, (_, checked) in rows.items()
               if key.startswith("0,"))


def test_table_out_file(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "table", "--g-max", "1", "--size-max", "2",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("g,mu,h,method,checked\n")


def test_table_unwritable_out_surfaces_path(capsys, tmp_path):
    target = tmp_path / "missing" / "rows.csv"
    code, _, err = run(capsys, "table", "--g-max", "1", "--size-max", "2",
                       "--out", str(target))
    assert code == 1
    assert str(target) in err


def test_table_budget_falls_back_to_direct(capsys):
    code, out, _ = run(capsys, "table", "--g-max", "2", "--size-max", "3",
                       "--complexity-budget", "3", "--format", "json")
    assert code == 0
    methods = {tuple([r["g"]] + r["mu"]): r["method"]
               for r in json.loads(out)}
    assert methods[(1, 1)] == "elsv"           # chi = 1
    assert methods[(2, 1, 1, 1)] == "direct"   # chi = 5 > budget
    values = {tuple([r["g"]] + r["mu"]): r["h"] for r in json.loads(out)}
    assert values[(2, 1, 1, 1)] == "364"


# --- verify --------------------------------------------------------------


def test_verify_series_suite(capsys):
    code, out, err = run(capsys, "verify", "--suite", "series",
                         "--order", "20")
    assert code == 0
    assert err == ""
    lines = out.strip().split("\n")
    assert len(lines) == 7
    assert all(line.startswith("ok   series:") for line in lines)


def test_verify_residues_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "residues")
    assert code == 0
    assert all(line.startswith("ok   residues:")
               for line in out.strip().split("\n"))


def test_verify_dvv_suite_small_budget(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "dvv",
                       "--complexity-budget", "5")
    assert code == 0
    assert out.count("ok   dvv:") == 3


def test_verify_appendix_needs_budget(capsys):
    code, _, err = run(capsys, "verify", "--suite", "appendix",
                       "--complexity-budget", "5")
    assert code == 1
    assert "appendix suite needs --complexity-budget ≥ 9" in err


APPENDIX_CHECKS = [
    "appendix: Hodge integrals, cut-and-join pipeline",
    "appendix: Hodge integrals, topological-recursion pipeline",
    "appendix: Hurwitz numbers, branch-point recursion",
    "appendix: Hurwitz numbers, Hodge-integral formula",
]


def test_verify_appendix_suite_passes(capsys):
    assert run(capsys, "verify", "--suite", "appendix") == \
        (0, "".join(f"ok   {name}\n" for name in APPENDIX_CHECKS), "")


def test_verify_appendix_names_a_wrong_hodge_row(capsys, monkeypatch):
    rows = list(reference_data.HODGE_REFERENCE)
    assert rows[0] == (2, (3,), 1, "1/480")
    rows[0] = (2, (3,), 1, "1/481")
    monkeypatch.setattr(reference_data, "HODGE_REFERENCE", tuple(rows))
    code, out, err = run(capsys, "verify", "--suite", "appendix")
    assert code == 1
    wrong = "<tau_(3,) lambda_1>_2 expected 1/481"
    assert out.split("\n")[:4] == [
        f"FAIL {APPENDIX_CHECKS[0]}: {wrong}, cutjoin gives j=1 value=1/480",
        f"FAIL {APPENDIX_CHECKS[1]}: {wrong}, bm gives j=1 value=1/480",
        f"ok   {APPENDIX_CHECKS[2]}",
        f"ok   {APPENDIX_CHECKS[3]}",
    ]
    assert err == (f"error: verification failed: {APPENDIX_CHECKS[0]}: "
                   f"{wrong}, cutjoin gives j=1 value=1/480\n")


def test_verify_rejects_tiny_order(capsys):
    code, _, err = run(capsys, "verify", "--suite", "series", "--order", "4")
    assert code == 1
    assert "order must be" in err


def test_verify_rejects_order_below_the_eta_window(capsys):
    # eta_8 is compared with xi_hat_8 only from order 18 on; no check runs
    assert run(capsys, "verify", "--suite", "series", "--order", "17") == \
        (1, "", "error: order must be ≥ 18\n")


def test_verify_rejects_order_above_the_ceiling(capsys, monkeypatch):
    monkeypatch.setattr(lambert_curve, "_solve_s", None)
    assert run(capsys, "verify", "--suite", "series", "--order", "61") == \
        (1, "", f"error: order must be ≤ {MAX_SERIES_ORDER}\n")
    assert run(capsys, "verify", "--suite", "series", "--order", "400") == \
        (1, "", f"error: order must be ≤ {MAX_SERIES_ORDER}\n")


def test_flag_validation_precedes_work(capsys, solved):
    code, _, err = run(capsys, "hodge", "--g", "2", "--indices", "3",
                       "--complexity-budget", "0")
    assert code == 1
    assert err == "error: complexity-budget must be ≥ 1\n"
    assert solved == []


@pytest.mark.parametrize("argv", [
    ("hodge", "--g", "600", "--indices", "1500"),
    ("hodge", "--g", "5", "--indices", "2", "--method", "both"),
    ("hurwitz", "--g", "3", "--mu", "2", "--method", "elsv"),
    ("table", "--g-max", "6", "--size-max", "2"),
    ("verify", "--suite", "appendix"),
], ids=["hodge", "hodge_both", "hurwitz_elsv", "table", "verify"])
@pytest.mark.parametrize("budget", [str(MAX_BUDGET + 1), "2000"],
                         ids=["ceiling_plus_1", "2000"])
def test_budget_above_the_ceiling_is_refused_before_work(
        capsys, monkeypatch, argv, budget):
    def fail(*args, **kwargs):
        raise AssertionError("no Hodge level may be solved")

    monkeypatch.setattr(HodgeTable, "ensure_level", fail)
    monkeypatch.setattr(HodgeTable, "fill_to_complexity", fail)
    monkeypatch.setattr(HodgeTable, "_solve_level", fail)
    assert run(capsys, *argv, "--complexity-budget", budget) == \
        (1, "", f"error: complexity-budget must be ≤ {MAX_BUDGET}\n")


def test_budget_at_the_ceiling_answers(capsys):
    assert run(capsys, "hodge", "--g", "2", "--indices", "3",
               "--complexity-budget", str(MAX_BUDGET)) == \
        (0, "j=1 value=1/480\n", "")


# --- process-level entry points ------------------------------------------


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hodgehurwitz", "hurwitz", "--g", "0",
         "--mu", "3", "--method", "brute"],
        capture_output=True, text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    assert proc.returncode == 0
    assert proc.stdout == "1\n"


def test_unknown_subcommand_exits_nonzero():
    proc = subprocess.run(
        [sys.executable, "-m", "hodgehurwitz", "frobnicate"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert proc.stderr.count("\n") == 1


# What one request imports: run in a fresh interpreter, print the exit
# code and every module that cli.main added.  json and dataclasses are
# dropped first, so that a .pth file that preloads them cannot hide them.
_IMPORT_PROBE = """\
import io, sys
for name in [m for m in sys.modules
             if m.split(".")[0] in ("json", "dataclasses")]:
    del sys.modules[name]
before = set(sys.modules)
from hodgehurwitz import cli
sys.stdout, out = io.StringIO(), sys.stdout
code = cli.main(sys.argv[1:])
sys.stdout = out
print(code, *sorted(set(sys.modules) - before))
"""
# the table alone answers from its seeded base levels or the cache file;
# a cut-and-join level solve adds the solve and the xi_hat tower, and a
# bm one the curve layer
_TABLE_SET = {"hodge_solver"}
_HODGE_SET = _TABLE_SET | {"level_solve", "xi_tower"}
_CURVE_SET = {"series", "lambert_curve", "xi_tower"}
_BM_SET = _HODGE_SET | _CURVE_SET | {"residue_kernel"}


@pytest.mark.parametrize("argv, modules, uses_json, cached", [
    # a no-op: the seeded base level
    ("hodge --g 1 --indices 1", _TABLE_SET, False, False),
    ("hodge --g 1 --indices 1,0", _HODGE_SET, False, False),
    ("hodge --g 1 --indices 1,0 --format json", _HODGE_SET, True, False),
    # a cache miss writes the file
    ("hodge --g 1 --indices 1,0", _HODGE_SET, True, True),
    ("hodge --g 1 --indices 1,0 --method bm", _BM_SET, False, False),
    ("hodge --g 1 --indices 1,0 --method both", _BM_SET, False, False),
    ("hurwitz --g 1 --mu 3 --method cutjoin", {"hurwitz"}, False, False),
    ("hurwitz --g 1 --mu 3 --method brute", {"hurwitz"}, False, False),
    ("hurwitz --g 1 --mu 2,1 --method elsv", _HODGE_SET | {"hurwitz"},
     False, False),
    ("hurwitz --g 1 --mu 2,1 --method cross", _HODGE_SET | {"hurwitz"},
     False, False),
    ("table --g-max 1 --size-max 2", _HODGE_SET | {"hurwitz"}, False, False),
    (f"verify --suite series --order {MIN_SERIES_ORDER}",
     _CURVE_SET | {"verify_series"}, False, False),
    ("verify --suite residues", _CURVE_SET | {"verify", "residue_kernel"},
     False, False),
    ("verify --suite dvv --complexity-budget 5", _HODGE_SET | {"verify"},
     False, False),
    ("verify --suite appendix", _BM_SET | {"verify", "hurwitz",
                                           "reference_data"},
     False, False),
    # a cache hit, the second of two calls, solves no level
    ("hodge --g 1 --indices 1,0", _TABLE_SET, True, "hit"),
    # deeper cut-and-join requests load no curve layer either
    ("hodge --g 3 --indices 4,3", _HODGE_SET, False, False),
    ("hurwitz --g 2 --mu 3,2 --method elsv", _HODGE_SET | {"hurwitz"},
     False, False),
    # no elsv route at genus 0 with ell <= 2: no table, no cache file read
    ("hurwitz --g 0 --mu 3,2 --method cross", {"hurwitz"}, False, True),
])
def test_each_command_loads_only_its_modules(tmp_path, argv, modules,
                                             uses_json, cached):
    env = {k: v for k, v in os.environ.items() if k != "HURWITZ_REC_CACHE"}
    if cached:
        env["HURWITZ_REC_CACHE"] = str(tmp_path)
    for _ in range(2 if cached == "hit" else 1):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, *argv.split()],
            capture_output=True, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    assert proc.returncode == 0, proc.stderr
    code, *added = proc.stdout.split()
    assert code == "0"
    assert {m for m in added if m.startswith("hodgehurwitz.")} == \
        {f"hodgehurwitz.{m}" for m in modules | {"cli", "exact_algebra"}}
    assert "dataclasses" not in added
    assert ("json" in added) == uses_json


# --- library surface -----------------------------------------------------


def test_package_surface_is_the_documented_one():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    match = re.search(r"from hodgehurwitz import \(([^)]*)\)", readme)
    assert match, "README lacks its `from hodgehurwitz import (...)` block"
    documented = [name.strip() for name in match.group(1).split(",")
                  if name.strip()]
    assert sorted(hodgehurwitz.__all__) == sorted(documented + ["__version__"])
    for name in hodgehurwitz.__all__:
        assert getattr(hodgehurwitz, name) is not None

"""Write oracle.json: the exact outputs the benchmark's requests must print.

Each value is kept only where two independent pipelines agree:

* Hodge integrals: the cut-and-join table and the BM (topological
  recursion) table, each filled in its own process-local HodgeTable.
* Hurwitz numbers: the branch-point recursion (h_direct) and the ELSV
  formula over the Hodge table; for unstable genus-zero profiles, where
  ELSV does not apply, the closed forms for one and two parts.

Rows of the frozen reference data that overlap must match as well.
Any disagreement aborts without writing.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_oracle.py
"""

import json

import workloads as wl
from hodgehurwitz.exact_algebra import format_rational, rat
from hodgehurwitz.hodge_solver import HodgeTable, hodge_lambda
from hodgehurwitz.hurwitz import genus_zero_one_part, genus_zero_two_part, \
    h_direct, hurwitz_elsv
from hodgehurwitz.reference_data import HODGE_REFERENCE, HURWITZ_REFERENCE

CHI_MAX = 7


def hodge_values() -> dict:
    tables = {m: HodgeTable().fill_to_complexity(CHI_MAX, method=m)
              for m in ("cutjoin", "bm")}
    wanted = list(wl.hodge_candidates()) + [
        (int(argv[2]), tuple(int(n) for n in argv[4].split(",")))
        for argv in wl.NOOP_ARGV]
    out = {}
    for g, idx in wanted:
        (j, a), (jb, b) = (hodge_lambda(g, idx, method=m, table=tables[m])
                           for m in ("cutjoin", "bm"))
        if (j, a) != (jb, b):
            raise SystemExit(f"pipelines disagree at <{idx}>_{g}: {a} vs {b}")
        if a:
            out[wl.key(g, idx)] = [j, format_rational(a)]
    for g, idx, j, val in HODGE_REFERENCE:
        got = out.get(wl.key(g, idx))
        if got is not None and got != [j, val]:
            raise SystemExit(f"reference row <{idx}>_{g} is {val}, got {got}")
    return out


def hurwitz_profiles():
    strata = wl.HURWITZ + wl.HURWITZ_TINY
    for _, g, ell, d in strata:
        for mu in wl.hurwitz_candidates(ell, d):
            yield g, mu
    for g_max, size_max in wl.TABLES + wl.TABLES_TINY:
        yield from wl.table_profiles(g_max, size_max, True)


def hurwitz_values() -> dict:
    table = HodgeTable().fill_to_complexity(CHI_MAX, method="cutjoin")
    out = {}
    for g, mu in sorted(set(hurwitz_profiles())):
        direct = h_direct(g, mu)
        if 2 * g - 2 + len(mu) >= 1:
            other = hurwitz_elsv(g, mu, table=table)
        elif len(mu) == 1:
            other = genus_zero_one_part(mu[0])
        else:
            other = genus_zero_two_part(*mu)
        if direct != other:
            raise SystemExit(f"pipelines disagree at h({g}, {mu}): "
                             f"{direct} vs {other}")
        out[wl.key(g, mu)] = format_rational(direct)
    for g, mu, val in HURWITZ_REFERENCE:
        got = out.get(wl.key(g, mu))
        if got is not None and rat(got) != rat(val):
            raise SystemExit(f"reference row h({g}, {mu}) is {val}, got {got}")
    return out


def main() -> None:
    oracle = {"hodge": hodge_values(), "hurwitz": hurwitz_values()}
    # one value per line, so a regenerated oracle diffs line by line
    sections = [f"{json.dumps(name)}: {{\n" + ",\n".join(
        f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(vals.items()))
        + "\n}" for name, vals in sorted(oracle.items())]
    with open(wl.ORACLE_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(sections) + "\n}\n")
    print(f"wrote {len(oracle['hodge'])} Hodge and {len(oracle['hurwitz'])} "
          f"Hurwitz values to {wl.ORACLE_PATH}")


if __name__ == "__main__":
    main()

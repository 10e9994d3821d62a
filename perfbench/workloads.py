"""Request generators and exact expected outputs for the four workloads.

A workload is a list of strata.  A stratum fixes what a request costs:
the command, the method, and the recursion level 2g - 2 + ell the CLI
fills (every request fills all levels up to it).  The seed picks the
concrete inputs inside each stratum: genus, index tuple or profile,
argument order and output format.  So every seed asks for the same
amount of work, and the spread between seeds is the machine's, not the
inputs'.

Expected outputs come from ``oracle.json``, written by ``make_oracle.py``
only where two independent pipelines agreed (cut-and-join = BM for Hodge
integrals, ELSV = branch-point recursion for Hurwitz numbers).
"""

import json
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ORACLE_PATH = os.path.join(HERE, "oracle.json")

# The CLI default --complexity-budget; requests never pass the flag.
DEFAULT_BUDGET = 9
# h_brute's documented range, which decides how many methods `cross` runs.
BRUTE_D_MAX, BRUTE_R_MAX = 5, 8
# `verify --suite series` fails at orders 10-17 and 23-25.  Order 18
# passes and costs 3.5 s, so a run repeats it six times or more; each
# higher order that passes costs another 0.5-1.5 s.
# `verify --suite residues` is left out: one request takes ~15 s, too
# long to repeat within a run, so its time would rest on one sample.
SERIES_ORDERS = (18,)
# Requests that do no work: the table's seeded base levels.
NOOP_ARGV = (("hodge", "--g", "1", "--indices", "1"),
             ("hodge", "--g", "0", "--indices", "0,0,0"))

# (method, chi) per request of one hodge_query pass.  The three middle
# ones (cutjoin at chi 5) sit well apart from their neighbours in cost,
# so req_p50_s, the median of eight, always falls among them.  A pass
# takes about 5 s, so that a run repeats every request four times or
# more: cutjoin at chi 7 (3-4 s, the only level with g = 4) is left out
# for that reason.
HODGE_QUERY = (("cutjoin", 3), ("cutjoin", 4)) + (("cutjoin", 5),) * 3 \
    + (("cutjoin", 6), ("bm", 3), ("both", 3))
HODGE_QUERY_TINY = (("cutjoin", 3), ("bm", 3), ("both", 3))
# (method, chi, repeats): the first request of each stratum misses the
# cache and writes it, the rest hit.
HODGE_CACHE = (("cutjoin", 6, 6), ("cutjoin", 5, 5), ("bm", 3, 6))
HODGE_CACHE_TINY = (("cutjoin", 4, 3),)
# (g-max, size-max) of the `table --check` requests; (2, 5) takes 4 s
# and is left out to keep a pass near 6 s.
TABLES = ((1, 5), (2, 4), (1, 6))
TABLES_TINY = ((1, 4),)
# (method, g, ell, |mu|) of the `hurwitz` requests; the seed picks the
# profile.  The degree is fixed because brute force grows with it.
HURWITZ = (("cutjoin", 1, 3, 6), ("cutjoin", 2, 2, 6), ("cutjoin", 3, 2, 5),
           ("cutjoin", 4, 1, 5), ("elsv", 1, 3, 5), ("elsv", 2, 2, 5),
           ("elsv", 2, 3, 5), ("elsv", 3, 2, 4), ("cross", 1, 2, 4),
           ("cross", 2, 1, 3), ("brute", 0, 2, 4), ("brute", 1, 2, 3),
           ("brute", 1, 1, 4))
HURWITZ_TINY = (("cutjoin", 1, 2, 3), ("elsv", 1, 2, 3), ("cross", 1, 1, 2),
                ("brute", 1, 1, 3))

WORKLOADS = ("hodge_query", "hurwitz_batch", "verify_curve", "hodge_cache")


@dataclass(frozen=True)
class Request:
    argv: tuple
    expected: str        # exact stdout; None for `verify` (see check)


def load_oracle() -> dict:
    with open(ORACLE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def key(g: int, parts) -> str:
    return f"{g}:" + ",".join(str(p) for p in sorted(parts, reverse=True))


def partitions(d: int, cap=None):
    """Partitions of d in descending lexicographic order."""
    cap = d if cap is None else min(cap, d)
    if d == 0:
        yield ()
        return
    for first in range(cap, 0, -1):
        for rest in partitions(d - first, first):
            yield (first,) + rest


def tuples_summing(total: int, length: int, cap=None):
    """Non-increasing tuples of `length` non-negative ints summing to total."""
    cap = total if cap is None else min(cap, total)
    if length == 0:
        if total == 0:
            yield ()
        return
    for first in range(cap, -1, -1):
        for rest in tuples_summing(total - first, length - 1, first):
            yield (first,) + rest


# -- candidate inputs (shared with make_oracle.py) ---------------------------


def hodge_candidates():
    """(g, indices) for g = 2..4 at levels chi = 3..7 with lambda_j,
    0 <= j <= g, in range.  The oracle keeps the nonzero ones."""
    for g in (2, 3, 4):
        for ell in range(1, 8):
            chi = 2 * g - 2 + ell
            if not 3 <= chi <= 7:
                continue
            dim = 3 * g - 3 + ell
            for j in range(g + 1):
                yield from ((g, idx) for idx in tuples_summing(dim - j, ell))


def hurwitz_candidates(ell: int, d: int):
    return [mu for mu in partitions(d) if len(mu) == ell]


def table_profiles(g_max: int, size_max: int, genus_zero: bool):
    for g in range(0 if genus_zero else 1, g_max + 1):
        for d in range(1, size_max + 1):
            for mu in partitions(d):
                yield g, mu


# -- expected outputs ---------------------------------------------------------


def hodge_output(oracle: dict, g: int, indices, fmt: str) -> str:
    j, value = oracle["hodge"][key(g, indices)]
    if fmt == "json":
        return json.dumps({"g": g,
                           "indices": sorted(indices, reverse=True),
                           "lambda_j": j, "value": value}) + "\n"
    return f"j={j} value={value}\n"


def hurwitz_output(oracle: dict, method: str, g: int, mu) -> str:
    value = oracle["hurwitz"][key(g, mu)]
    if method != "cross":
        return value + "\n"
    chi = 2 * g - 2 + len(mu)
    r = chi + sum(mu)
    methods = 1 + (1 <= chi <= DEFAULT_BUDGET) \
        + (sum(mu) <= BRUTE_D_MAX and r <= BRUTE_R_MAX)
    return f"{value} ({methods} methods agree)\n"


def table_output(oracle: dict, g_max: int, size_max: int, genus_zero: bool,
                 fmt: str) -> str:
    rows = []
    for g, mu in table_profiles(g_max, size_max, genus_zero):
        chi = 2 * g - 2 + len(mu)
        how = "elsv" if 1 <= chi <= DEFAULT_BUDGET else "direct"
        rows.append((g, mu, oracle["hurwitz"][key(g, mu)], how))
    if fmt == "json":
        return json.dumps([{"g": g, "mu": list(mu), "h": h, "method": how,
                            "checked": True} for g, mu, h, how in rows],
                          indent=2) + "\n"
    lines = ["g,mu,h,method,checked"]
    lines += [f"{g},{' '.join(map(str, mu))},{h},{how},true"
              for g, mu, h, how in rows]
    return "\n".join(lines) + "\n"


# -- request generation -------------------------------------------------------


def _hodge_request(oracle: dict, rng: random.Random, method: str,
                   chi: int) -> Request:
    choices = sorted(k for k in oracle["hodge"]
                     if 2 * int(k.split(":")[0]) - 2
                     + len(k.split(":")[1].split(",")) == chi)
    g_text, idx_text = rng.choice(choices).split(":")
    g, indices = int(g_text), [int(n) for n in idx_text.split(",")]
    rng.shuffle(indices)  # the CLI symmetrizes; order is free input
    fmt = rng.choice(("text", "json"))
    argv = ("hodge", "--g", str(g), "--indices",
            ",".join(map(str, indices)), "--method", method)
    if fmt == "json":
        argv += ("--format", "json")
    return Request(argv, hodge_output(oracle, g, indices, fmt))


def _hurwitz_request(oracle: dict, rng: random.Random, method: str, g: int,
                     ell: int, d: int) -> Request:
    mu = list(rng.choice(hurwitz_candidates(ell, d)))
    rng.shuffle(mu)
    argv = ("hurwitz", "--g", str(g), "--mu", ",".join(map(str, mu)),
            "--method", method)
    return Request(argv, hurwitz_output(oracle, method, g, mu))


def _table_request(oracle: dict, rng: random.Random, g_max: int,
                   size_max: int) -> Request:
    fmt = rng.choice(("csv", "json"))
    genus_zero = rng.random() < 0.5
    argv = ("table", "--g-max", str(g_max), "--size-max", str(size_max),
            "--check", "--format", fmt)
    if genus_zero:
        argv += ("--include-genus-zero",)
    return Request(argv, table_output(oracle, g_max, size_max, genus_zero,
                                      fmt))


def _series_request(order: int) -> Request:
    return Request(("verify", "--suite", "series", "--order", str(order)),
                   None)


def build_pass(workload: str, seed: int, oracle: dict,
               tiny: bool = False) -> list:
    """The requests of one pass, in the order they are sent."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "hodge_query":
        reqs = [_hodge_request(oracle, rng, m, chi)
                for m, chi in (HODGE_QUERY_TINY if tiny else HODGE_QUERY)]
    elif workload == "hodge_cache":
        # the first request of each (method, chi) fills and writes the cache
        reqs = []
        for m, chi, repeats in (HODGE_CACHE_TINY if tiny else HODGE_CACHE):
            reqs += [_hodge_request(oracle, rng, m, chi)
                     for _ in range(repeats)]
    elif workload == "hurwitz_batch":
        reqs = [_table_request(oracle, rng, gm, sm)
                for gm, sm in (TABLES_TINY if tiny else TABLES)]
        reqs += [_hurwitz_request(oracle, rng, *stratum)
                 for stratum in (HURWITZ_TINY if tiny else HURWITZ)]
    elif workload == "verify_curve":
        reqs = [_series_request(order) for order in SERIES_ORDERS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(reqs)
    return reqs


def noop_requests(oracle: dict) -> list:
    return [Request(argv, hodge_output(
                oracle, int(argv[2]), [int(n) for n in argv[4].split(",")],
                "text"))
            for argv in NOOP_ARGV]

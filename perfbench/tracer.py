"""Run one CLI request with spans around each layer's public calls.

    PYTHONPATH=src python3 perfbench/tracer.py OUT.json hodge --g 2 ...

Behaves like ``python -m hodgehurwitz ARGV`` (same stdout, stderr and
exit code) and, on exit, writes OUT.json with each span's self time and
call count and the layer counters.  The wrappers live here, not in the
program: each replaces a public function or method in every
``hodgehurwitz`` module namespace that holds it, since a name imported
with ``from ... import`` is looked up in the importing module.

A span's self time is its duration minus the time its child spans
cover.  Spans are summed by name as they close; only the sums and the
call counts are written.
"""

import json
import os
import sys
import time
import weakref
from collections import Counter, defaultdict

from hodgehurwitz import cli, exact_algebra, hodge_solver, hurwitz, \
    lambert_curve, residue_kernel


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.orders = set()
        self._children = []      # child time of each open span

    def span(self, name, fn, *args, **kwargs):
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self.self_s[name] += duration - self._children.pop()
            self.calls[name] += 1
            if self._children:
                self._children[-1] += duration

    def report(self) -> dict:
        counts = dict(self.counts)
        counts["lambert_curve.s_involution.orders"] = len(self.orders)
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": counts}


def _replace(old, new) -> None:
    """Install `new` wherever a hodgehurwitz module namespace holds `old`."""
    for name, module in list(sys.modules.items()):
        if name == "hodgehurwitz" or name.startswith("hodgehurwitz."):
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)


def _wrap_function(tracer, module, name, span_name, after=None):
    orig = getattr(module, name)

    def wrapper(*args, **kwargs):
        result = tracer.span(span_name, orig, *args, **kwargs)
        if after is not None:
            after(result, *args, **kwargs)
        return result

    _replace(orig, wrapper)


def _wrap_method(cls, name, call):
    orig = getattr(cls, name)
    setattr(cls, name, lambda self, *a, **k: call(orig, self, *a, **k))


def install(tracer: Tracer) -> None:
    t = tracer

    _wrap_function(t, cli, "main", "cli.main")

    # -- hodge_solver: fills grouped by requested method, and the cache
    seen = weakref.WeakKeyDictionary()  # table -> sizes when last counted

    def fill(orig, table, *args, method="cutjoin", **kwargs):
        seen.setdefault(table, (len(table.filled), len(table.entries)))
        try:
            return t.span(f"hodge_solver.fill.{method}", orig, table, *args,
                          method=method, **kwargs)
        finally:
            levels, entries = seen[table]
            t.counts["hodge_solver.levels_solved"] += \
                len(table.filled) - levels
            t.counts["hodge_solver.entries"] += len(table.entries) - entries
            seen[table] = (len(table.filled), len(table.entries))

    def fill_to_complexity(orig, table, chi_max, method="cutjoin", **kw):
        return fill(orig, table, chi_max, method=method, **kw)

    def ensure_level(orig, table, g, ell, method="cutjoin"):
        return fill(orig, table, g, ell, method=method)

    _wrap_method(hodge_solver.HodgeTable, "fill_to_complexity",
                 fill_to_complexity)
    _wrap_method(hodge_solver.HodgeTable, "ensure_level", ensure_level)

    def loaded(result, *args, **kwargs):
        t.counts["hodge_solver.cache.misses" if result is None
                 else "hodge_solver.cache.hits"] += 1

    def saved(path, *args, **kwargs):
        t.counts["hodge_solver.cache.bytes_written"] += os.path.getsize(path)

    _wrap_function(t, hodge_solver, "load_table_cache",
                   "hodge_solver.load_table_cache", loaded)
    _wrap_function(t, hodge_solver, "save_table_cache",
                   "hodge_solver.save_table_cache", saved)

    # -- residue_kernel: builds are calls whose key is not memoized yet
    def p_ab(orig, cache, a, b):
        if (min(a, b), max(a, b)) not in cache.pab:
            t.counts["residue_kernel.p_ab.builds"] += 1
        return t.span("residue_kernel.p_ab", orig, cache, a, b)

    def p_n(orig, cache, n):
        if n not in cache.pn:
            t.counts["residue_kernel.p_n.builds"] += 1
        return t.span("residue_kernel.p_n", orig, cache, n)

    _wrap_method(residue_kernel.ResidueCache, "p_ab", p_ab)
    _wrap_method(residue_kernel.ResidueCache, "p_n", p_n)

    # -- lambert_curve, exact_algebra, hurwitz
    def involution(result, order):
        t.orders.add(order)

    _wrap_function(t, lambert_curve, "s_involution",
                   "lambert_curve.s_involution", involution)
    for name in ("v_series", "eta_xi_identity_check",
                 "h02_series_identity_check"):
        _wrap_function(t, lambert_curve, name, f"lambert_curve.{name}")
    for name in ("laurent_substitute", "laurent_reciprocal"):
        _wrap_function(t, exact_algebra, name, f"exact_algebra.{name}")
    for name in ("h_direct", "hurwitz_elsv", "h_brute", "table_generate"):
        _wrap_function(t, hurwitz, name, f"hurwitz.{name}")


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(), fh)


if __name__ == "__main__":
    raise SystemExit(main())

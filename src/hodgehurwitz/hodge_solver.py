"""The demand-filled table of linear Hodge integrals, ``hodge_lambda``
and the table's cache file.

The level solve is ``level_solve``, loaded with the first level a
process solves: a request answered from the seeded base levels or the
cache file loads neither it nor the xi_hat tower.
"""

from __future__ import annotations

import os
from typing import NamedTuple, Optional

from hodgehurwitz.exact_algebra import ONE, ZERO, Rational, format_rational, rat


class TauKey(NamedTuple):
    """A table key: genus plus a non-increasing tuple of tau-indices."""

    g: int
    indices: tuple[int, ...]

    @classmethod
    def make(cls, g: int, indices) -> "TauKey":
        idx = tuple(sorted((int(n) for n in indices), reverse=True))
        if g < 0 or any(n < 0 for n in idx):
            raise ValueError(f"invalid TauKey(g={g}, indices={idx})")
        return cls(g, idx)

    @property
    def ell(self) -> int:
        return len(self.indices)

    @property
    def chi(self) -> int:
        return 2 * self.g - 2 + len(self.indices)

    def dimension(self) -> int:
        return 3 * self.g - 3 + len(self.indices)


def _remove_one(items: tuple[int, ...], value: int) -> tuple[int, ...]:
    i = items.index(value)
    return items[:i] + items[i + 1:]


def _splits(g: int, n: int):
    """(g1, k1, g2, k2): two stable surfaces sharing n spectators."""
    for g1 in range(g + 1):
        for k1 in range(n + 1):
            g2, k2 = g - g1, n - k1
            if 2 * g1 + k1 >= 2 and 2 * g2 + k2 >= 2:
                yield g1, k1, g2, k2


# ---------------------------------------------------------------------------
# the table


_BASE_ENTRIES = {
    (0, (0, 0, 0)): ONE,
    (1, (1,)): rat(1, 24),
    (1, (0,)): rat(-1, 24),
}


class HodgeTable:
    """Memoized linear Hodge integrals, filled level by level.

    Levels (g, ell) are complete sets: once a level is marked filled,
    absent keys at that level are exact zeros.  The base levels
    (g, ell) = (0, 3) and (1, 1) are seeded; everything else comes from
    the recursions, which only apply for complexity 2g - 2 + ell >= 2.
    """

    def __init__(self):
        self.entries: dict[tuple[int, tuple[int, ...]], Rational] = {}
        self._by_level: dict[tuple[int, int], dict] = {}
        self.filled: set[tuple[int, int]] = set()
        for (g, idx), val in _BASE_ENTRIES.items():
            self.entries[(g, idx)] = val
            self._by_level.setdefault((g, len(idx)), {})[idx] = val
            self.filled.add((g, len(idx)))

    # -- access

    def value(self, g: int, indices) -> Rational:
        key = TauKey.make(g, indices)
        if key.chi < 1:
            raise ValueError(f"unstable (g,ell)=({key.g},{key.ell})")
        if sum(key.indices) > key.dimension():
            return ZERO
        if (key.g, key.ell) not in self.filled:
            raise KeyError(f"{key} not computed: level "
                           f"(g,ell)=({key.g},{key.ell}) is unfilled")
        return self.entries.get((key.g, key.indices), ZERO)

    def level_entries(self, g: int, ell: int) -> dict:
        if (g, ell) not in self.filled:
            raise KeyError(f"TauKey(g={g}, indices=<any of length {ell}>) "
                           f"not computed: level (g,ell)=({g},{ell}) unfilled")
        return self._by_level.get((g, ell), {})

    # -- level scheduling

    @staticmethod
    def _prereq_levels(g: int, ell: int) -> list[tuple[int, int]]:
        pre = []
        if ell >= 2:
            pre.append((g, ell - 1))
        if g >= 1:
            pre.append((g - 1, ell + 1))
        for g1, k1, g2, k2 in _splits(g, ell - 1):
            pre.append((g1, k1 + 1))
            pre.append((g2, k2 + 1))
        return list(dict.fromkeys(pre))

    def ensure_level(self, g: int, ell: int, method: str = "cutjoin") -> None:
        """Demand-driven fill of one level and its recursion closure."""
        if g < 0 or ell < 1 or 2 * g - 2 + ell < 1:
            raise ValueError(f"unstable (g,ell)=({g},{ell})")
        if (g, ell) in self.filled:
            return
        for pg, pl in self._prereq_levels(g, ell):
            self.ensure_level(pg, pl, method)
        self._solve_level(g, ell, method)

    def fill_to_complexity(self, chi_max: int,
                           method: str = "cutjoin") -> "HodgeTable":
        """Complete every level with 1 <= 2g - 2 + ell <= chi_max.

        Solves level by level in increasing complexity, so each level
        finds its prerequisites filled.  Fills more than any single
        query needs; ``ensure_level`` fills only one level's closure.
        """
        if chi_max < 1:
            raise ValueError("chi_max must be >= 1")
        for chi in range(2, chi_max + 1):
            for g in range((chi + 1) // 2 + 1):
                if (g, chi + 2 - 2 * g) not in self.filled:
                    self._solve_level(g, chi + 2 - 2 * g, method)
        return self

    # -- solving one level

    def _solve_level(self, g: int, ell: int, method: str) -> None:
        self._store_level(g, ell, self._solve_level_values(g, ell, method))

    def _solve_level_values(self, g: int, ell: int, method: str) -> dict:
        if method == "both":
            a = self._solve_level_values(g, ell, "cutjoin")
            b = self._solve_level_values(g, ell, "bm")
            if a != b:
                raise ValueError(
                    f"pipelines disagree at (g,ell)=({g},{ell}): "
                    f"cutjoin {a} vs bm {b}")
            return a
        from hodgehurwitz.level_solve import _kernel, _merge_slot_choices, \
            _rhs_in_basis, _run_extraction
        kernel = _kernel(method)
        context = f"{method} level (g,ell)=({g},{ell})"
        solved = _run_extraction(_rhs_in_basis(self, kernel, g, ell), kernel,
                                 g, ell, context)
        return _merge_slot_choices(solved, kernel.head, context)

    def _store_level(self, g: int, ell: int, solved: dict) -> None:
        level = self._by_level.setdefault((g, ell), {})
        for indices, val in solved.items():
            self.entries[(g, indices)] = val
            level[indices] = val
        self.filled.add((g, ell))

    def _star_values(self, g: int, k: int) -> dict:
        """W -> {a: <tau_a tau_W>}, read off level (g, k+1)."""
        out: dict[tuple[int, ...], dict[int, Rational]] = {}
        for E, val in self.level_entries(g, k + 1).items():
            for a in set(E):
                out.setdefault(_remove_one(E, a), {})[a] = val
        return out

    # -- verification surface

    def identity_remainder(self, g: int, ell: int, method: str) -> dict:
        """Recompute the folded RHS minus the image of the solved values,
        both in the method's label basis.

        The recursions' machine-checkable content: the result must be
        an empty dict at every solvable level.
        """
        from hodgehurwitz.level_solve import _add_scaled, _kernel, \
            _rhs_in_basis, _slot_choices
        kernel = _kernel(method)
        self.ensure_level(g, ell, method)
        rhs = _rhs_in_basis(self, kernel, g, ell)
        chi = 2 * g - 2 + ell
        for M, val in self._by_level[(g, ell)].items():
            for unknown in _slot_choices(M, kernel.head):
                _add_scaled(rhs, kernel.image(unknown, chi), -val)
        return rhs

    # -- serialization

    def to_rows(self) -> list[dict]:
        rows = []
        for (g, indices), val in self.entries.items():
            j = 3 * g - 3 + len(indices) - sum(indices)
            rows.append({
                "g": g,
                "indices": list(indices),
                "lambda_j": j,
                "value": format_rational(val if j % 2 == 0 else -val),
            })
        rows.sort(key=lambda r: (r["g"], len(r["indices"]), r["indices"]))
        return rows


# ---------------------------------------------------------------------------
# module-level convenience surface


_DEFAULT_TABLE: Optional[HodgeTable] = None


def default_table() -> HodgeTable:
    global _DEFAULT_TABLE
    if _DEFAULT_TABLE is None:
        _DEFAULT_TABLE = HodgeTable()
    return _DEFAULT_TABLE


def hodge_lambda(g: int, indices, method: str = "cutjoin",
                 table: Optional[HodgeTable] = None):
    """<tau_{n_1}..tau_{n_ell} lambda_j> with j forced by the dimension.

    j = 3g - 3 + ell - sum(n); out-of-range j reports (j, 0); unstable
    (g, ell) raises.  Exactly one Chern class survives the dimension
    constraint, with sign (-1)^j relative to the stored alternating sum.
    """
    key = TauKey.make(g, indices)
    if key.chi < 1:
        raise ValueError(f"unstable (g,ell)=({key.g},{key.ell})")
    j = key.dimension() - sum(key.indices)
    if j < 0 or j > g:
        return j, ZERO
    if table is None:
        table = default_table()
    table.ensure_level(key.g, key.ell, method)
    value = table.value(key.g, key.indices)
    return j, (value if j % 2 == 0 else -value)


# ---------------------------------------------------------------------------
# persistence (used by the CLI cache)


CACHE_SCHEMA = 1


def _cache_path(directory: str, method: str) -> str:
    return os.path.join(directory, f"hodge-{method}.json")


def _levels_digest(levels) -> str:
    """SHA-256 of the canonical JSON of the cached ``levels`` rows."""
    import json
    # CPython's own SHA-256 module: importing hashlib would also load
    # OpenSSL, about 3.5 MB more resident memory in every CLI process
    try:
        from _sha256 import sha256              # CPython <= 3.11
    except ImportError:
        try:
            from _sha2 import sha256            # CPython >= 3.12
        except ImportError:
            from hashlib import sha256
    canonical = json.dumps(levels, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()


def save_table_cache(table: HodgeTable, directory: str, method: str) -> str:
    """Write every filled level of ``table`` to the method's cache file,
    with the schema version and the digest of the rows, atomically."""
    import json
    levels = [
        {
            "g": g,
            "ell": ell,
            "entries": [[list(idx), format_rational(val)]
                        for idx, val in sorted(level.items())],
        }
        for (g, ell), level in sorted(table._by_level.items())
    ]
    payload = {"schema": CACHE_SCHEMA, "method": method, "levels": levels,
               "sha256": _levels_digest(levels)}
    path = _cache_path(directory, method)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=0, sort_keys=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def load_table_cache(directory: str, method: str) -> Optional[HodgeTable]:
    """Reload a persisted table, adopting it only if its rows match the
    stored digest and the base entries revalidate exactly.  A missing,
    undecodable or misshapen file, another schema version or a digest
    mismatch is a miss (None)."""
    path = _cache_path(directory, method)
    if not os.path.exists(path):
        return None
    import json
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if (payload["schema"] != CACHE_SCHEMA
                or payload["sha256"] != _levels_digest(payload["levels"])):
            return None
        staged: dict[tuple[int, int], dict] = {}
        for level in payload["levels"]:
            g, ell = int(level["g"]), int(level["ell"])
            entries = {tuple(int(n) for n in idx): rat(val)
                       for idx, val in level["entries"]}
            if any(len(idx) != ell for idx in entries):
                return None
            staged[(g, ell)] = entries
    except (ValueError, TypeError, KeyError, ArithmeticError):
        return None
    for (g, idx), val in _BASE_ENTRIES.items():
        level = staged.get((g, len(idx)))
        if level is None or level.get(idx) != val:
            return None
    table = HodgeTable()
    for (g, ell), level in staged.items():
        if (g, ell) not in table.filled:
            table._store_level(g, ell, level)
    return table

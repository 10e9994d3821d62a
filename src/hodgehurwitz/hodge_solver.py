"""The demand-filled table of linear Hodge integrals, ``hodge_lambda``
and the table's cache file.

The table holds each value once, in one dict of complete levels
(g, ell) that every reader reads, and schedules the fills; it does not
know the shape of the recursions.  ``level_solve`` solves one level and
reads each lower level its recursion sum needs through
``ensure_level``, so a level is filled, by the same method, the first
time a sum reads it.  ``level_solve`` loads with the first level a
process solves: a request answered from the seeded base levels or the
cache file loads neither it nor the xi_hat tower.

The caller owns every table and names the method of every fill; there
is no process-wide table.  A table is filled by one method: its first
solve, or the cache file it was loaded from, fixes it.
"""

from __future__ import annotations

import os
from types import MappingProxyType
from typing import Optional

from hodgehurwitz.exact_algebra import ONE, ZERO, Rational, format_rational, rat


def _key(g: int, indices) -> tuple[int, tuple[int, ...]]:
    """A stable table key: the genus and the indices, non-increasing."""
    idx = tuple(sorted((int(n) for n in indices), reverse=True))
    if g < 0 or any(n < 0 for n in idx):
        raise ValueError(f"invalid key (g={g}, indices={idx})")
    if 2 * g - 2 + len(idx) < 1:
        raise ValueError(f"unstable (g,ell)=({g},{len(idx)})")
    return g, idx


# ---------------------------------------------------------------------------
# the table


_BASE_LEVELS = {
    (0, 3): {(0, 0, 0): ONE},
    (1, 1): {(1,): rat(1, 24), (0,): rat(-1, 24)},
}


class HodgeTable:
    """Memoized linear Hodge integrals, filled level by level.

    One dict maps each level (g, ell) to {indices: value}.  Levels are
    complete sets: absent keys at a stored level are exact zeros.
    ``filled`` views the stored levels, and ``entries`` is a read-only
    view of every value, keyed (g, indices).  The base levels
    (g, ell) = (0, 3) and (1, 1) are seeded; everything else comes from
    the recursions, which only apply for complexity 2g - 2 + ell >= 2.
    The first solve fixes the table's method; ``ensure_level`` refuses
    a solve by another method and any "both" request on a table that a
    single method filled.
    """

    def __init__(self):
        self._levels: dict[tuple[int, int], dict] = {
            key: dict(level) for key, level in _BASE_LEVELS.items()}
        self._method: Optional[str] = None
        self.filled = self._levels.keys()

    # -- access

    @property
    def entries(self) -> MappingProxyType:
        return MappingProxyType({(g, idx): val
                                 for (g, _), level in self._levels.items()
                                 for idx, val in level.items()})

    def value(self, g: int, indices) -> Rational:
        g, idx = _key(g, indices)
        if sum(idx) > 3 * g - 3 + len(idx):
            return ZERO
        return self.level_entries(g, len(idx)).get(idx, ZERO)

    def level_entries(self, g: int, ell: int) -> dict:
        level = self._levels.get((g, ell))
        if level is None:
            raise KeyError(f"level (g,ell)=({g},{ell}) not computed")
        return level

    # -- level scheduling

    def ensure_level(self, g: int, ell: int, method: str) -> None:
        """Solve level (g, ell) by ``method`` unless it is filled; the
        solve fills the lower levels its recursion reads, by ``method``.
        A filled level may be read under another single method."""
        if g < 0 or ell < 1 or 2 * g - 2 + ell < 1:
            raise ValueError(f"unstable (g,ell)=({g},{ell})")
        missing = (g, ell) not in self._levels
        if self._method not in (None, method) and (
                missing or method == "both"):
            raise ValueError(f"a {method} request on a table filled by "
                             f"{self._method}")
        if missing:
            self._method = method
            self._solve_level(g, ell, method)

    def fill_to_complexity(self, chi_max: int, method: str) -> "HodgeTable":
        """Complete every level with 1 <= 2g - 2 + ell <= chi_max.

        Ensures level by level in increasing complexity, so each solve
        finds the levels it reads filled.  Fills more than any single
        query needs; ``ensure_level`` fills only one level's closure.
        """
        if chi_max < 1:
            raise ValueError("chi_max must be >= 1")
        for chi in range(2, chi_max + 1):
            for g in range((chi + 1) // 2 + 1):
                self.ensure_level(g, chi + 2 - 2 * g, method)
        return self

    def _solve_level(self, g: int, ell: int, method: str) -> None:
        from hodgehurwitz.level_solve import solve_level
        self._levels[(g, ell)] = solve_level(self, g, ell, method)

    # -- verification surface

    def identity_remainder(self, g: int, ell: int, method: str) -> dict:
        """Recompute the folded RHS minus the image of the solved values,
        both in the method's label basis ("both": cut-and-join, then BM).

        The recursions' machine-checkable content: the result must be
        an empty dict at every solvable level.
        """
        from hodgehurwitz.level_solve import identity_remainder
        return identity_remainder(self, g, ell, method)

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
# one Hodge integral


def hodge_lambda(g: int, indices, method: str, table: HodgeTable):
    """<tau_{n_1}..tau_{n_ell} lambda_j> with j forced by the dimension,
    read from ``table`` after ``method`` fills its level.

    j = 3g - 3 + ell - sum(n); out-of-range j reports (j, 0); unstable
    (g, ell) raises.  Exactly one Chern class survives the dimension
    constraint, with sign (-1)^j relative to the stored alternating sum.
    """
    g, idx = _key(g, indices)
    j = 3 * g - 3 + len(idx) - sum(idx)
    if j < 0 or j > g:
        return j, ZERO
    table.ensure_level(g, len(idx), method)
    value = table.level_entries(g, len(idx)).get(idx, ZERO)
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


def save_table_cache(table: HodgeTable, directory: str) -> str:
    """Write every filled level of ``table`` to the cache file of the
    method that filled it, with the schema version and the digest of the
    rows, atomically.  A table that no solve or load has given a method
    raises ``ValueError``."""
    method = table._method
    if method is None:
        raise ValueError("a table that no method has filled has no cache "
                         "file")
    import json
    levels = [
        {
            "g": g,
            "ell": ell,
            "entries": [[list(idx), format_rational(val)]
                        for idx, val in sorted(level.items())],
        }
        for (g, ell), level in sorted(table._levels.items())
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
    stored digest and its base levels equal the seeded ones exactly; the
    file's levels then go straight into the table's store, and the
    file's method is the table's.  A missing, undecodable or misshapen
    file, another schema version, a file written for another method or
    a digest mismatch is a miss (None)."""
    path = _cache_path(directory, method)
    if not os.path.exists(path):
        return None
    import json
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if (payload["schema"] != CACHE_SCHEMA
                or payload["method"] != method
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
    if any(staged.get(key) != base for key, base in _BASE_LEVELS.items()):
        return None
    table = HodgeTable()
    table._levels.update(staged)
    table._method = method
    return table

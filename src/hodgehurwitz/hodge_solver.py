"""Solver for linear Hodge integrals via two independent recursions.

The table maps (g, non-increasing index tuple) to the alternating-sum
pairing <tau_{n_1}..tau_{n_ell} (1 - lambda_1 + ... +- lambda_g)>.  Two
pipelines fill it level by level in the complexity chi = 2g - 2 + ell:

* ``cutjoin`` — the Laplace-transformed cut-and-join equation, an
  identity of symmetric polynomials in (t_1..t_ell) built from the
  xi_hat tower, with the unknowns of level (g, ell) on its left side;
* ``bm`` — the algebraic residue form of the topological recursion on
  the Lambert curve, an identity in (t, t_1..t_ell) built from the
  residue polynomials, whose unknowns live one variable up.

Both identities are equalities of polynomials that are symmetric in the
t_i.  Rather than expanding them monomial by monomial, the solver works
with *folded* vectors: the coefficient mass of each orbit of monomials,
keyed by the sorted exponent tuple.  Folding is faithful on symmetric
polynomials, and both sides here are symmetric by construction, so a
zero folded remainder is equivalent to the exact polynomial identity.
Extraction proceeds by descending total degree: the top monomial orbit
of the remainder names its unknown (degree parity separates the
operator parts), the coefficient is read off, the unknown's full
operator image is subtracted, and the loop must end at exactly zero —
any leftover raises "identity violated".  The recursions are thus
self-checking: a wrong weight anywhere cannot silently produce a table.

The distinguished variable t of the ``bm`` form is handled by tagged
keys (exponent of t, sorted rest).  Its unknowns are solved per choice
of which index sits in the t-slot, and the solver verifies that all
choices give the same value before storing — the permutation symmetry
of the output is checked, not assumed.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass
from math import factorial
from typing import Callable, Optional

# CPython's own SHA-256 module: importing hashlib would also load OpenSSL,
# about 3.5 MB more resident memory in every CLI process
try:
    from _sha256 import sha256              # CPython <= 3.11
except ImportError:
    try:
        from _sha2 import sha256            # CPython >= 3.12
    except ImportError:
        from hashlib import sha256

from hodgehurwitz.exact_algebra import (
    HALF,
    ONE,
    ZERO,
    MultiPoly,
    Rational,
    UniPoly,
    aut,
    distinct_permutations,
    divided_difference,
    double_factorial,
    format_rational,
    rat,
)
from hodgehurwitz.lambert_curve import xi_form, xi_hat, xi_hat_over_t
from hodgehurwitz.residue_kernel import DEFAULT_CACHE, ResidueCache


@dataclass(frozen=True, order=True)
class TauKey:
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


@dataclass(frozen=True)
class XiIdentity:
    """One recursion instance: an exact polynomial right-hand side plus
    the shape of the linear operator acting on the unknowns."""

    unknown_shape: str  # "bm" | "cutjoin"
    g: int
    variables: tuple[str, ...]
    rhs: MultiPoly


# ---------------------------------------------------------------------------
# folded-vector helpers


def _remove_one(items: tuple[int, ...], value: int) -> tuple[int, ...]:
    i = items.index(value)
    return items[:i] + items[i + 1:]


def _distinct_values(items: tuple[int, ...]) -> list[int]:
    return sorted(set(items), reverse=True)


def _value_pairs(items: tuple[int, ...]) -> list[tuple[int, int]]:
    """Unordered value pairs {a, b} extractable from the multiset."""
    counts = Counter(items)
    values = sorted(counts)
    pairs = []
    for i, a in enumerate(values):
        for b in values[i:]:
            if a != b or counts[a] >= 2:
                pairs.append((a, b))
    return pairs


def _fold_extend(folded: dict, poly: dict) -> dict:
    """Attach one more symmetric slot carrying the univariate ``poly``."""
    out: dict = {}
    for key, c in folded.items():
        for d, pc in poly.items():
            k2 = tuple(sorted(key + (d,), reverse=True))
            prev = out.get(k2)
            val = c * pc if prev is None else prev + c * pc
            if val:
                out[k2] = val
            elif prev is not None:
                del out[k2]
    return out


def _fold_extend_tagged(folded: dict, poly: dict) -> dict:
    """Same, for keys of the form (t-exponent, sorted rest)."""
    out: dict = {}
    for (e0, key), c in folded.items():
        for d, pc in poly.items():
            k2 = (e0, tuple(sorted(key + (d,), reverse=True)))
            prev = out.get(k2)
            val = c * pc if prev is None else prev + c * pc
            if val:
                out[k2] = val
            elif prev is not None:
                del out[k2]
    return out


def _fold_product(polys) -> dict:
    folded: dict = {(): ONE}
    for p in polys:
        folded = _fold_extend(folded, p)
    return folded


def _fold_add_scaled(dst: dict, src: dict, factor) -> None:
    if not factor:
        return
    for k, c in src.items():
        s = dst.get(k, ZERO) + c * factor
        if s:
            dst[k] = s
        else:
            dst.pop(k, None)


# ---------------------------------------------------------------------------
# the two left-hand-side operators, folded


def _op_cutjoin(M: tuple[int, ...], chi: int) -> dict:
    """chi * prod xi_hat_{M} plus the promoted terms xi_hat_{v+1}/t."""
    op: dict = {}
    _fold_add_scaled(op, _fold_product([xi_hat(m).coeffs for m in M]),
                     rat(chi) / aut(M))
    for v in _distinct_values(M):
        rest = _remove_one(M, v)
        polys = [xi_hat_over_t(v).coeffs] + [xi_hat(m).coeffs for m in rest]
        _fold_add_scaled(op, _fold_product(polys), ONE / aut(rest))
    return op


def _op_bm(pair: tuple[int, tuple[int, ...]]) -> dict:
    """xi_form_v in the t-slot times prod xi_form_W over the rest."""
    v, rest = pair
    folded = {(d, ()): c for d, c in xi_form(v).coeffs.items()}
    for m in rest:
        folded = _fold_extend_tagged(folded, xi_form(m).coeffs)
    if len(rest) == 0:
        return folded
    out: dict = {}
    _fold_add_scaled(out, folded, ONE / aut(rest))
    return out


def _decode_cutjoin(key: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    evens = [e for e in key if e % 2 == 0]
    if len(evens) != 1 or evens[0] < 2:
        return None
    v = evens[0] // 2 - 1
    return tuple(sorted([v] + [(e - 1) // 2 for e in key if e % 2 == 1],
                        reverse=True))


def _decode_bm(key) -> Optional[tuple[int, tuple[int, ...]]]:
    e0, rest = key
    if e0 % 2 or any(e % 2 for e in rest):
        return None
    return (e0 // 2, tuple(e // 2 for e in rest))


def _sort_cutjoin(key):
    return (sum(key), key)


def _sort_bm(key):
    return (key[0] + sum(key[1]), (key[0],) + key[1])


def _total_cutjoin(unknown) -> int:
    return sum(unknown)


def _total_bm(unknown) -> int:
    return unknown[0] + sum(unknown[1])


def _run_extraction(rhs: dict, decode: Callable, op_builder: Callable,
                    sort_key: Callable, total_of: Callable, dim: int,
                    context: str) -> dict:
    """Descending-degree elimination; must end at exactly zero."""
    rem = dict(rhs)
    solved: dict = {}
    while rem:
        key = max(rem, key=sort_key)
        unknown = decode(key)
        if unknown is None or unknown in solved:
            raise ValueError(f"identity violated at {context}: "
                             f"unresolvable monomial {key}")
        if total_of(unknown) > dim:
            raise ValueError(f"identity violated at {context}: "
                             f"monomial {key} beyond dimension {dim}")
        op = op_builder(unknown)
        top = op.get(key)
        if not top:
            raise ValueError(f"identity violated at {context}: "
                             f"operator misses its top monomial {key}")
        value = rem[key] / top
        solved[unknown] = value
        for k, c in op.items():
            s = rem.get(k, ZERO) - value * c
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
    return solved


# ---------------------------------------------------------------------------
# divided-difference join polynomials (cut-and-join form)


_PAIR_POLY_CACHE: dict[int, dict] = {}


def _join_pair_poly(m: int) -> dict:
    """(xi_hat_{m+1}(x) xi_hat_0(y) x^2 - (x <-> y)) / (x - y), as terms."""
    cached = _PAIR_POLY_CACHE.get(m)
    if cached is None:
        variables = ("x", "y")
        ax = MultiPoly.from_unipoly(xi_hat(m + 1), variables, 0)
        ay = MultiPoly.from_unipoly(xi_hat(m + 1), variables, 1)
        zx = MultiPoly.from_unipoly(xi_hat(0), variables, 0)
        zy = MultiPoly.from_unipoly(xi_hat(0), variables, 1)
        x2 = MultiPoly(variables, {(2, 0): 1})
        y2 = MultiPoly(variables, {(0, 2): 1})
        p = ax * zy * x2 - ay * zx * y2
        cached = divided_difference(p, "x", "y").terms
        _PAIR_POLY_CACHE[m] = cached
    return cached


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

    def __init__(self, residues: Optional[ResidueCache] = None):
        self.residues = residues if residues is not None else DEFAULT_CACHE
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
        for g1 in range(g + 1):
            for k1 in range(ell):
                g2, k2 = g - g1, ell - 1 - k1
                if 2 * g1 + k1 >= 2 and 2 * g2 + k2 >= 2:
                    pre.append((g1, k1 + 1))
                    pre.append((g2, k2 + 1))
        seen, ordered = set(), []
        for cell in pre:
            if cell not in seen:
                seen.add(cell)
                ordered.append(cell)
        return ordered

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
        dim = 3 * g - 3 + ell
        if method == "cutjoin":
            rhs = self._cutjoin_rhs_folded(g, ell)
            chi = 2 * g - 2 + ell
            return _run_extraction(
                rhs, _decode_cutjoin, lambda M: _op_cutjoin(M, chi),
                _sort_cutjoin, _total_cutjoin, dim,
                f"cutjoin level (g,ell)=({g},{ell})")
        if method == "bm":
            rhs = self._bm_rhs_folded(g, ell - 1)
            pairs = _run_extraction(
                rhs, _decode_bm, _op_bm, _sort_bm, _total_bm, dim,
                f"bm level (g,ell)=({g},{ell})")
            return self._merge_bm_pairs(pairs, g, ell)
        raise ValueError(f"unknown method {method!r}")

    @staticmethod
    def _merge_bm_pairs(pairs: dict, g: int, ell: int) -> dict:
        """Collapse per-slot solutions, verifying permutation symmetry."""
        grouped: dict[tuple[int, ...], dict] = {}
        for (v, rest), val in pairs.items():
            key = tuple(sorted((v,) + rest, reverse=True))
            grouped.setdefault(key, {})[v] = val
        solved = {}
        for key, by_slot in grouped.items():
            wanted = set(key)
            values = set(by_slot.values())
            if set(by_slot) != wanted or len(values) != 1:
                raise ValueError(
                    f"identity violated at bm level (g,ell)=({g},{ell}): "
                    f"asymmetric solution for indices {key}: {by_slot}")
            solved[key] = values.pop()
        return solved

    def _store_level(self, g: int, ell: int, solved: dict) -> None:
        level = self._by_level.setdefault((g, ell), {})
        for indices, val in solved.items():
            self.entries[(g, indices)] = val
            level[indices] = val
        self.filled.add((g, ell))

    # -- folded right-hand sides

    def _cutjoin_rhs_folded(self, g: int, ell: int) -> dict:
        if 2 * g - 2 + ell < 2:
            raise ValueError(
                f"recursion applies for complexity 2g-2+ell >= 2; "
                f"(g,ell)=({g},{ell}) is a base level")
        rhs: dict = {}
        if ell >= 2:
            for E, val in self.level_entries(g, ell - 1).items():
                for m in _distinct_values(E):
                    rest = _remove_one(E, m)
                    start: dict = {}
                    for (e1, e2), c in _join_pair_poly(m).items():
                        k = (e1, e2) if e1 >= e2 else (e2, e1)
                        s = start.get(k, ZERO) + c
                        if s:
                            start[k] = s
                        else:
                            del start[k]
                    folded = start
                    for w in rest:
                        folded = _fold_extend(folded, xi_hat(w).coeffs)
                    _fold_add_scaled(rhs, folded, val / (2 * aut(rest)))
        if g >= 1:
            paired: dict[tuple[int, ...], UniPoly] = {}
            for E, val in self.level_entries(g - 1, ell + 1).items():
                for a, b in _value_pairs(E):
                    rest = _remove_one(_remove_one(E, a), b)
                    factor = val if a == b else 2 * val
                    contrib = (xi_hat(a + 1) * xi_hat(b + 1)).scale(factor)
                    acc = paired.get(rest)
                    paired[rest] = contrib if acc is None else acc + contrib
            for rest, qpoly in paired.items():
                folded = _fold_product(
                    [qpoly.coeffs] + [xi_hat(w).coeffs for w in rest])
                _fold_add_scaled(rhs, folded, HALF / aut(rest))
        for g1 in range(g + 1):
            for k1 in range(ell):
                g2, k2 = g - g1, ell - 1 - k1
                if 2 * g1 + k1 < 2 or 2 * g2 + k2 < 2:
                    continue
                left = self._promoted_sums(g1, k1)
                right = self._promoted_sums(g2, k2)
                for w1, p1 in left.items():
                    for w2, p2 in right.items():
                        prod = p1 * p2
                        if prod.is_zero():
                            continue
                        folded = _fold_product(
                            [prod.coeffs]
                            + [xi_hat(w).coeffs for w in w1 + w2])
                        _fold_add_scaled(
                            rhs, folded, HALF / (aut(w1) * aut(w2)))
        return rhs

    def _promoted_sums(self, g: int, k: int) -> dict:
        """W -> sum_a <tau_a tau_W> xi_hat_{a+1}, from level (g, k+1)."""
        out: dict[tuple[int, ...], UniPoly] = {}
        for E, val in self.level_entries(g, k + 1).items():
            for a in _distinct_values(E):
                rest = _remove_one(E, a)
                contrib = xi_hat(a + 1).scale(val)
                acc = out.get(rest)
                out[rest] = contrib if acc is None else acc + contrib
        return out

    def _star_values(self, g: int, k: int) -> dict:
        """W -> {a: <tau_a tau_W>}, read off level (g, k+1)."""
        out: dict[tuple[int, ...], dict[int, Rational]] = {}
        for E, val in self.level_entries(g, k + 1).items():
            for a in set(E):
                out.setdefault(_remove_one(E, a), {})[a] = val
        return out

    def _bm_rhs_folded(self, g: int, ell: int) -> dict:
        """Folded right side of the residue-form identity with ell
        symmetric slots; its unknowns live at level (g, ell + 1)."""
        if 2 * g - 1 + ell < 2:
            raise ValueError(
                f"recursion applies for complexity 2g-1+ell >= 2; "
                f"level (g,ell)=({g},{ell + 1}) is a base level")
        residues = self.residues
        rhs: dict = {}
        if ell >= 1:
            for E, val in self.level_entries(g, ell).items():
                for m in _distinct_values(E):
                    rest = _remove_one(E, m)
                    folded = {(et, (ei,)): c
                              for (et, ei), c in residues.p_n(m).terms.items()}
                    for w in rest:
                        folded = _fold_extend_tagged(folded, xi_form(w).coeffs)
                    _fold_add_scaled(rhs, folded, val / aut(rest))
        if g >= 1:
            paired: dict[tuple[int, ...], UniPoly] = {}
            for E, val in self.level_entries(g - 1, ell + 2).items():
                for a, b in _value_pairs(E):
                    rest = _remove_one(_remove_one(E, a), b)
                    factor = val if a == b else 2 * val
                    contrib = residues.p_ab(a, b).scale(factor)
                    acc = paired.get(rest)
                    paired[rest] = contrib if acc is None else acc + contrib
            for rest, qpoly in paired.items():
                folded = {(d, ()): c for d, c in qpoly.coeffs.items()}
                for w in rest:
                    folded = _fold_extend_tagged(folded, xi_form(w).coeffs)
                _fold_add_scaled(rhs, folded, ONE / aut(rest))
        for g1 in range(g + 1):
            for k1 in range(ell + 1):
                g2, k2 = g - g1, ell - k1
                if 2 * g1 + k1 < 2 or 2 * g2 + k2 < 2:
                    continue
                left = self._star_values(g1, k1)
                right = self._star_values(g2, k2)
                for w1, amap in left.items():
                    for w2, bmap in right.items():
                        mixed = UniPoly.zero()
                        for a, va in amap.items():
                            for b, vb in bmap.items():
                                mixed = mixed + residues.p_ab(a, b).scale(
                                    va * vb)
                        if mixed.is_zero():
                            continue
                        folded = {(d, ()): c for d, c in mixed.coeffs.items()}
                        for w in w1 + w2:
                            folded = _fold_extend_tagged(folded,
                                                         xi_form(w).coeffs)
                        _fold_add_scaled(rhs, folded,
                                         ONE / (aut(w1) * aut(w2)))
        return rhs

    # -- verification surface

    def identity_remainder(self, g: int, ell: int, method: str) -> dict:
        """Recompute the folded RHS minus the solved operator image.

        The recursions' machine-checkable content: the result must be
        an empty dict at every solvable level.
        """
        if method not in ("bm", "cutjoin"):
            raise ValueError(f"unknown method {method!r}")
        self.ensure_level(g, ell, method)
        solved = self._by_level[(g, ell)]
        if method == "cutjoin":
            rhs = self._cutjoin_rhs_folded(g, ell)
            chi = 2 * g - 2 + ell
            for M, val in solved.items():
                _fold_add_scaled(rhs, _op_cutjoin(M, chi), -val)
        else:
            rhs = self._bm_rhs_folded(g, ell - 1)
            for M, val in solved.items():
                for v in _distinct_values(M):
                    _fold_add_scaled(rhs, _op_bm((v, _remove_one(M, v))),
                                     -val)
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
# public identity builders (genuine multivariate polynomials)


def _embed_uni(p: UniPoly, variables: tuple[str, ...], slot: int) -> MultiPoly:
    return MultiPoly.from_unipoly(p, variables, slot)


def _embed_pair(terms: dict, variables: tuple[str, ...],
                slot_a: int, slot_b: int) -> MultiPoly:
    n = len(variables)
    out = {}
    for (ea, eb), c in terms.items():
        vec = [0] * n
        vec[slot_a] = ea
        vec[slot_b] = eb
        out[tuple(vec)] = c
    return MultiPoly(variables, out)


def cutjoin_rhs(g: int, ell: int, table: HodgeTable) -> XiIdentity:
    """The cut-and-join identity at level (g, ell), expanded.

    Returns the exact right-hand side in (t_1..t_ell) together with the
    left-hand operator description: the unknowns of the level itself
    enter through (2g-2+ell) prod xi_hat_{n_i} plus the promoted terms
    sum_i xi_hat_{n_i + 1}(t_i)/t_i prod_{j != i} xi_hat_{n_j}.
    """
    chi = 2 * g - 2 + ell
    if chi < 2:
        raise ValueError(
            f"recursion applies for complexity 2g-2+ell >= 2; "
            f"(g,ell)=({g},{ell}) is a base level")
    variables = tuple(f"t_{i}" for i in range(1, ell + 1))
    total = MultiPoly.zero(variables)
    slots = list(range(ell))
    if ell >= 2:
        for E, val in table.level_entries(g, ell - 1).items():
            for m in _distinct_values(E):
                rest = _remove_one(E, m)
                pair = _join_pair_poly(m)
                for i in slots:
                    for j in slots[i + 1:]:
                        others = [s for s in slots if s not in (i, j)]
                        base = _embed_pair(pair, variables, i, j).scale(val)
                        for perm in distinct_permutations(rest):
                            term = base
                            for slot, w in zip(others, perm):
                                term = term * _embed_uni(xi_hat(w),
                                                         variables, slot)
                            total = total + term
    if g >= 1:
        for E, val in table.level_entries(g - 1, ell + 1).items():
            for a, b in _value_pairs(E):
                rest = _remove_one(_remove_one(E, a), b)
                factor = (val if a == b else 2 * val) * HALF
                pq = (xi_hat(a + 1) * xi_hat(b + 1)).scale(factor)
                for i in slots:
                    others = [s for s in slots if s != i]
                    base = _embed_uni(pq, variables, i)
                    for perm in distinct_permutations(rest):
                        term = base
                        for slot, w in zip(others, perm):
                            term = term * _embed_uni(xi_hat(w),
                                                     variables, slot)
                        total = total + term
    for i in slots:
        others = [s for s in slots if s != i]
        for split in range(1 << len(others)):
            left_slots = [others[p] for p in range(len(others))
                          if split >> p & 1]
            right_slots = [s for s in others if s not in left_slots]
            for g1 in range(g + 1):
                g2 = g - g1
                k1, k2 = len(left_slots), len(right_slots)
                if 2 * g1 + k1 < 2 or 2 * g2 + k2 < 2:
                    continue
                star1 = table._star_values(g1, k1)
                star2 = table._star_values(g2, k2)
                for w1, amap in star1.items():
                    for w2, bmap in star2.items():
                        mixed = UniPoly.zero()
                        for a, va in amap.items():
                            for b, vb in bmap.items():
                                mixed = mixed + (
                                    xi_hat(a + 1) * xi_hat(b + 1)
                                ).scale(va * vb)
                        if mixed.is_zero():
                            continue
                        base = _embed_uni(mixed.scale(HALF), variables, i)
                        for perm1 in distinct_permutations(w1):
                            t1 = base
                            for slot, w in zip(left_slots, perm1):
                                t1 = t1 * _embed_uni(xi_hat(w),
                                                     variables, slot)
                            for perm2 in distinct_permutations(w2):
                                term = t1
                                for slot, w in zip(right_slots, perm2):
                                    term = term * _embed_uni(xi_hat(w),
                                                             variables, slot)
                                total = total + term
    return XiIdentity("cutjoin", g, variables, total)


def bm_rhs(g: int, ell: int, table: HodgeTable,
           residues: Optional[ResidueCache] = None) -> MultiPoly:
    """The residue-form identity's right-hand side in (t, t_1..t_ell).

    Its unknowns live at level (g, ell + 1); an empty polynomial means
    the level is not determined by the recursion (a base case).
    """
    if residues is None:
        residues = table.residues
    if 2 * g - 1 + ell < 1:
        raise ValueError(f"unstable (g,ell)=({g},{ell + 1})")
    variables = ("t",) + tuple(f"t_{i}" for i in range(1, ell + 1))
    total = MultiPoly.zero(variables)
    slots = list(range(1, ell + 1))
    if ell >= 1:
        for E, val in table.level_entries(g, ell).items():
            for m in _distinct_values(E):
                rest = _remove_one(E, m)
                pair_terms = residues.p_n(m).terms
                for i in slots:
                    others = [s for s in slots if s != i]
                    base = _embed_pair(pair_terms, variables, 0, i).scale(val)
                    for perm in distinct_permutations(rest):
                        term = base
                        for slot, w in zip(others, perm):
                            term = term * _embed_uni(xi_form(w),
                                                     variables, slot)
                        total = total + term
    if g >= 1 and 2 * (g - 1) - 2 + ell + 2 >= 1:
        for E, val in table.level_entries(g - 1, ell + 2).items():
            for a, b in _value_pairs(E):
                rest = _remove_one(_remove_one(E, a), b)
                factor = val if a == b else 2 * val
                base_poly = residues.p_ab(a, b).scale(factor)
                base = _embed_uni(base_poly, variables, 0)
                for perm in distinct_permutations(rest):
                    term = base
                    for slot, w in zip(slots, perm):
                        term = term * _embed_uni(xi_form(w), variables, slot)
                    total = total + term
    for split in range(1 << ell):
        left_slots = [slots[p] for p in range(ell) if split >> p & 1]
        right_slots = [s for s in slots if s not in left_slots]
        for g1 in range(g + 1):
            g2 = g - g1
            k1, k2 = len(left_slots), len(right_slots)
            if 2 * g1 + k1 < 2 or 2 * g2 + k2 < 2:
                continue
            star1 = table._star_values(g1, k1)
            star2 = table._star_values(g2, k2)
            for w1, amap in star1.items():
                for w2, bmap in star2.items():
                    mixed = UniPoly.zero()
                    for a, va in amap.items():
                        for b, vb in bmap.items():
                            mixed = mixed + residues.p_ab(a, b).scale(va * vb)
                    if mixed.is_zero():
                        continue
                    base = _embed_uni(mixed, variables, 0)
                    for perm1 in distinct_permutations(w1):
                        t1 = base
                        for slot, w in zip(left_slots, perm1):
                            t1 = t1 * _embed_uni(xi_form(w), variables, slot)
                        for perm2 in distinct_permutations(w2):
                            term = t1
                            for slot, w in zip(right_slots, perm2):
                                term = term * _embed_uni(xi_form(w),
                                                         variables, slot)
                            total = total + term
    return total


def extract_in_xi_basis(identity: XiIdentity) -> dict:
    """Solve an expanded identity for its unknown coefficients.

    Folds the right-hand side (faithful: both recursion forms are
    symmetric in the t_i), then eliminates by descending total degree.
    For the "bm" shape the returned keys are (n_0, n_1, ..) with n_0
    the t-slot index; for "cutjoin" they are non-increasing index
    tuples.  A nonzero final remainder raises "identity violated".
    """
    rhs = identity.rhs
    g = identity.g
    n_vars = len(identity.variables)
    dim = 3 * g - 3 + n_vars
    if identity.unknown_shape == "cutjoin":
        sym_slots = n_vars
        folded: dict = {}
        for e, c in rhs.terms.items():
            _fold_add_scaled(folded,
                             {tuple(sorted(e, reverse=True)): c},
                             ONE / factorial(sym_slots))
        chi = 2 * g - 2 + n_vars
        return _run_extraction(
            folded, _decode_cutjoin, lambda M: _op_cutjoin(M, chi),
            _sort_cutjoin, _total_cutjoin, dim,
            f"extraction (g={g}, cutjoin)")
    if identity.unknown_shape == "bm":
        if identity.variables[0] != "t":
            raise ValueError("bm identities carry the distinguished "
                             "variable t in slot 0")
        sym_slots = n_vars - 1
        folded = {}
        for e, c in rhs.terms.items():
            key = (e[0], tuple(sorted(e[1:], reverse=True)))
            _fold_add_scaled(folded, {key: c}, ONE / factorial(sym_slots))
        pairs = _run_extraction(
            folded, _decode_bm, _op_bm, _sort_bm, _total_bm, dim,
            f"extraction (g={g}, bm)")
        return {(v,) + rest: val for (v, rest), val in pairs.items()}
    raise ValueError(f"unknown identity shape {identity.unknown_shape!r}")


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


def dvv_verify(g: int, ell: int, table: Optional[HodgeTable] = None,
               method: str = "cutjoin") -> bool:
    """Check the Virasoro-type recursion on the pure psi-class sector.

    Validates, for every top-dimensional entry at level (g, ell + 1)
    and every choice of distinguished index n, the identity on
    sigma_n = (2n+1)!! tau_n:

      <sigma_n sigma_{n_L}> = sum_i (2n_i+1) <sigma_{n+n_i-1}
        sigma_{L-i}> + 1/2 sum_{a+b=n-2} [ <sigma_a sigma_b sigma_{n_L}>
        + sum_{stable splits} <sigma_a sigma_I><sigma_b sigma_J> ].

    Levels whose instances would involve unstable data (complexity of
    the target below 2) have nothing to check and return True.
    """
    if table is None:
        table = default_table()
    target_ell = ell + 1
    if 2 * g - 2 + target_ell < 2:
        return True

    def psi(gg: int, idx: tuple[int, ...]) -> Rational:
        if any(n < 0 for n in idx):
            return ZERO
        if 2 * gg - 2 + len(idx) < 1:
            return ZERO
        if sum(idx) != 3 * gg - 3 + len(idx):
            return ZERO
        table.ensure_level(gg, len(idx), method)
        return table.value(gg, idx)

    table.ensure_level(g, target_ell, method)
    dim = 3 * g - 3 + target_ell
    ok = True
    for key, _ in sorted(table.level_entries(g, target_ell).items()):
        if sum(key) != dim:
            continue
        for n in sorted(set(key), reverse=True):
            rest = _remove_one(key, n)
            lhs = double_factorial(2 * n + 1)
            for m in rest:
                lhs = lhs * double_factorial(2 * m + 1)
            lhs = lhs * psi(g, key)
            rhs = ZERO
            for i, ni in enumerate(rest):
                sub = rest[:i] + rest[i + 1:]
                merged = tuple(sorted(sub + (n + ni - 1,), reverse=True))
                coeff = double_factorial(2 * (n + ni) - 1) * (2 * ni + 1)
                for m in sub:
                    coeff = coeff * double_factorial(2 * m + 1)
                rhs = rhs + coeff * psi(g, merged)
            for a in range(n - 1):
                b = n - 2 - a
                sigma_ab = (double_factorial(2 * a + 1)
                            * double_factorial(2 * b + 1))
                if g >= 1:
                    coeff = sigma_ab
                    for m in rest:
                        coeff = coeff * double_factorial(2 * m + 1)
                    joined = tuple(sorted(rest + (a, b), reverse=True))
                    rhs = rhs + HALF * coeff * psi(g - 1, joined)
                for split in range(1 << len(rest)):
                    left = tuple(rest[p] for p in range(len(rest))
                                 if split >> p & 1)
                    right = tuple(rest[p] for p in range(len(rest))
                                  if not split >> p & 1)
                    for g1 in range(g + 1):
                        g2 = g - g1
                        if (2 * g1 - 1 + len(left) <= 0
                                or 2 * g2 - 1 + len(right) <= 0):
                            continue
                        c1 = psi(g1, tuple(sorted(left + (a,), reverse=True)))
                        if not c1:
                            continue
                        c2 = psi(g2, tuple(sorted(right + (b,),
                                                  reverse=True)))
                        if not c2:
                            continue
                        coeff = sigma_ab
                        for m in rest:
                            coeff = coeff * double_factorial(2 * m + 1)
                        rhs = rhs + HALF * coeff * c1 * c2
            if lhs != rhs:
                ok = False
    return ok


# ---------------------------------------------------------------------------
# persistence (used by the CLI cache)


CACHE_SCHEMA = 1


def _cache_path(directory: str, method: str) -> str:
    return os.path.join(directory, f"hodge-{method}.json")


def _levels_digest(levels) -> str:
    """SHA-256 of the canonical JSON of the cached ``levels`` rows."""
    canonical = json.dumps(levels, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()


def save_table_cache(table: HodgeTable, directory: str, method: str) -> str:
    """Write every filled level of ``table`` to the method's cache file,
    with the schema version and the digest of the rows, atomically."""
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


def load_table_cache(directory: str, method: str,
                     residues: Optional[ResidueCache] = None
                     ) -> Optional[HodgeTable]:
    """Reload a persisted table, adopting it only if its rows match the
    stored digest and the base entries revalidate exactly.  A missing,
    undecodable or misshapen file, another schema version or a digest
    mismatch is a miss (None)."""
    path = _cache_path(directory, method)
    if not os.path.exists(path):
        return None
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
    table = HodgeTable(residues)
    for (g, ell), level in staged.items():
        if (g, ell) not in table.filled:
            table._store_level(g, ell, level)
    return table

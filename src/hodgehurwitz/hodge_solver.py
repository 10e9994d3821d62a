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
t_i.  The solver writes each in a triangular *label basis*, b_k of
degree k: for cut-and-join b_0 = 1, b_{2n+1} = xi_hat_n and
b_{2n+2} = xi_hat_{n+1}/t; for ``bm`` b_{2n} = xi_n and
b_{2n+1} = t^{2n+1}.  Sides are *folded*: the mass of each orbit of
label products, keyed by the sorted label tuple, which is faithful on
symmetric polynomials.  A spectator is then one label, and only the join
and cut polynomials are converted, each once.
Each unknown's image is a few keys, and each key names one unknown, so
extraction reads every unknown off directly.  Every read must agree and
the image of the solution must equal the right side exactly — any
leftover raises "identity violated".  The recursions are thus
self-checking: a wrong weight anywhere cannot silently produce a table.

Both right-hand sides are one join/cut/split sum in different kernels:
n = ell - 1 spectator slots sit beside one distinguished slot, the join
reads level (g, n), the cut reads (g - 1, n + 2), and the splits pair
levels with k1 + k2 = n spectators.  A ``_Kernel`` spec holds what
differs (weight, join and cut polynomials, label basis, spectator label
parity, the number ``head`` of fixed key positions, image and decoder),
and ``_recursion_terms`` writes the sum once for the solver, in labels,
and for the expanded public builders, in monomials.  Folded keys are
flat: the first ``head`` positions stay in place and the rest are
sorted.  Cut-and-join has head 0; ``bm`` has head 1, the label of its
distinguished variable t.
The ``bm`` unknowns are solved per choice of which index sits in the
t-slot, and the solver verifies that all choices give the same value
before storing — the permutation symmetry of the output is checked, not
assumed.
"""

from __future__ import annotations

import os
from functools import cache
from itertools import combinations, permutations
from math import factorial
from typing import Callable, NamedTuple, Optional

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
    subsets,
)
from hodgehurwitz.lambert_curve import xi_form, xi_hat, xi_hat_over_t


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


class XiIdentity(NamedTuple):
    """One recursion instance: an exact polynomial right-hand side plus
    the shape of the linear operator acting on the unknowns."""

    unknown_shape: str  # "bm" | "cutjoin"
    g: int
    variables: tuple[str, ...]
    rhs: MultiPoly


# ---------------------------------------------------------------------------
# folded vectors in the label bases


def _remove_one(items: tuple[int, ...], value: int) -> tuple[int, ...]:
    i = items.index(value)
    return items[:i] + items[i + 1:]


def _distinct_values(items: tuple[int, ...]) -> list[int]:
    return sorted(set(items), reverse=True)


def _value_pairs(items: tuple[int, ...]) -> list[tuple[int, int]]:
    """Unordered value pairs {a, b} extractable from the multiset, each
    once as (min, max), in increasing order."""
    return sorted({(min(x, y), max(x, y)) for x, y in combinations(items, 2)})


def _slot_choices(indices: tuple[int, ...], head: int) -> list[tuple]:
    """The unknowns of one index tuple: each distinct choice of the
    indices in the ``head`` fixed slots, followed by the rest, sorted."""
    choices = []
    for fixed in sorted(set(permutations(indices, head)), reverse=True):
        rest = indices
        for v in fixed:
            rest = _remove_one(rest, v)
        choices.append(fixed + rest)
    return choices


def _add_to(dst: dict, key, value) -> None:
    s = dst.get(key, ZERO) + value
    if s:
        dst[key] = s
    else:
        dst.pop(key, None)


def _add_scaled(dst: dict, src: dict, factor) -> None:
    if factor:
        for k, c in src.items():
            _add_to(dst, k, c * factor)


def _cutjoin_basis(k: int) -> UniPoly:
    """b_0 = 1, b_{2n+1} = xi_hat_n, b_{2n+2} = xi_hat_{n+1}/t."""
    if k == 0:
        return UniPoly.one()
    return xi_hat(k // 2) if k % 2 else xi_hat_over_t(k // 2 - 1)


def _bm_basis(k: int) -> UniPoly:
    """b_{2n} = xi_n, b_{2n+1} = t^{2n+1}."""
    return UniPoly({k: 1}) if k % 2 else xi_form(k // 2)


def _in_basis(terms: dict, kernel: _Kernel) -> dict:
    """Multivariate ``terms`` keyed by exponent tuples, rewritten in
    ``kernel``'s label basis one slot at a time, by triangular
    elimination from the top degree, then folded: the first ``head``
    labels stay in place and the others are sorted."""
    for slot in range(len(next(iter(terms), ()))):
        rows: dict = {}
        for e, c in terms.items():
            rows.setdefault(e[:slot] + e[slot + 1:], {})[e[slot]] = c
        terms = {}
        for rest, rem in rows.items():
            while rem:
                d = max(rem)
                b = kernel.basis(d)
                top = rem.pop(d) / b.leading_coefficient()
                terms[rest[:slot] + (d,) + rest[slot:]] = top
                for lower, bc in b.coeffs.items():
                    if lower < d:
                        _add_to(rem, lower, -top * bc)
    folded: dict = {}
    for e, c in terms.items():
        _add_to(folded, e[:kernel.head]
                + tuple(sorted(e[kernel.head:], reverse=True)), c)
    return folded


# ---------------------------------------------------------------------------
# the two left-hand-side operators, in labels


def _image_cutjoin(M: tuple[int, ...], chi: int) -> dict:
    """chi * prod xi_hat_{M} plus the promoted terms xi_hat_{v+1}/t."""
    image = {tuple(2 * m + 1 for m in M): rat(chi) / aut(M)}
    for v in _distinct_values(M):
        rest = _remove_one(M, v)
        key = tuple(sorted([2 * v + 2] + [2 * m + 1 for m in rest],
                           reverse=True))
        image[key] = ONE / aut(rest)
    return image


def _image_bm(unknown: tuple[int, ...], chi: int) -> dict:
    """xi_form of the t-slot index times prod xi_form over the rest; the
    residue form has no chi factor, so ``chi`` is unused."""
    return {tuple(2 * m for m in unknown): ONE / aut(unknown[1:])}


def _decode_cutjoin(key: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    # labels 2m+1 and, promoted, 2m+2 both carry index m = (label-1)//2
    evens = [e for e in key if e % 2 == 0]
    if len(evens) > 1 or 0 in evens:
        return None
    return tuple(sorted(((e - 1) // 2 for e in key), reverse=True))


def _decode_bm(key: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    if any(e % 2 for e in key):
        return None
    return tuple(e // 2 for e in key)


# ---------------------------------------------------------------------------
# divided-difference join polynomials and cut products (cut-and-join form)


@cache
def _join_pair_poly(m: int) -> dict:
    """(xi_hat_{m+1}(x) xi_hat_0(y) x^2 - (x <-> y)) / (x - y), as terms."""
    variables = ("x", "y")
    ax = MultiPoly.from_unipoly(xi_hat(m + 1), variables, 0)
    ay = MultiPoly.from_unipoly(xi_hat(m + 1), variables, 1)
    zx = MultiPoly.from_unipoly(xi_hat(0), variables, 0)
    zy = MultiPoly.from_unipoly(xi_hat(0), variables, 1)
    x2 = MultiPoly(variables, {(2, 0): 1})
    y2 = MultiPoly(variables, {(0, 2): 1})
    p = ax * zy * x2 - ay * zx * y2
    return divided_difference(p, "x", "y").terms


def _terms(p: UniPoly) -> dict:
    return {(d,): c for d, c in p.coeffs.items()}


@cache
def _cut_pair_poly(a: int, b: int) -> dict:
    """xi_hat_{a+1} xi_hat_{b+1}, as terms."""
    return _terms(xi_hat(a + 1) * xi_hat(b + 1))


# ---------------------------------------------------------------------------
# the recursion skeleton


class _Kernel:
    """What one recursion puts into the shared join/cut/split sum: join
    terms keyed (distinguished, spectator exponent), the cut terms of
    the distinguished slot, the label basis, the parity p of the label
    2w + p of a spectator w, and the left side as a sparse image
    (unknown, chi) -> {key: weight} and its decoder key -> unknown.

    Kernels compare and hash by identity: ``_labels`` keeps one memo per
    kernel object, and a copy made by ``replace`` gets its own."""

    weight: Rational
    join: Callable[[int], dict]
    cut: Callable[[int, int], dict]
    basis: Callable[[int], UniPoly]
    parity: int
    head: int
    image: Callable[[tuple[int, ...], int], dict]
    decode: Callable[[tuple[int, ...]], Optional[tuple[int, ...]]]

    def __init__(self, weight, join, cut, basis, parity, head, image,
                 decode):
        self.weight, self.join, self.cut, self.basis = weight, join, cut, basis
        self.parity, self.head, self.image, self.decode = \
            parity, head, image, decode

    def replace(self, **changes) -> _Kernel:
        """A new kernel with ``changes`` to these fields."""
        return _Kernel(**{**vars(self), **changes})


# the residue kernels load with the first bm fill; p_ab and p_n look up
# the process-wide ResidueCache at call time, so that a wrapper
# installed on ResidueCache sees every build
def _bm_join(m: int) -> dict:
    from hodgehurwitz.residue_kernel import p_n
    return p_n(m).terms


def _bm_cut(a: int, b: int) -> dict:
    from hodgehurwitz.residue_kernel import p_ab
    return _terms(p_ab(a, b))


_KERNELS = {
    "cutjoin": _Kernel(HALF, _join_pair_poly, _cut_pair_poly, _cutjoin_basis,
                       1, 0, _image_cutjoin, _decode_cutjoin),
    "bm": _Kernel(ONE, _bm_join, _bm_cut, _bm_basis,
                  0, 1, _image_bm, _decode_bm),
}


def _kernel(method: str) -> _Kernel:
    kernel = _KERNELS.get(method)
    if kernel is None:
        raise ValueError(f"unknown method {method!r}")
    return kernel


@cache
def _labels(kernel: _Kernel, part: str, *indices: int) -> dict:
    """``kernel``'s join or cut terms in its label basis, converted once
    per kernel object (a replaced kernel gets its own memo)."""
    return _in_basis(getattr(kernel, part)(*indices), kernel)


def _splits(g: int, n: int):
    """(g1, k1, g2, k2): two stable surfaces sharing n spectators."""
    for g1 in range(g + 1):
        for k1 in range(n + 1):
            g2, k2 = g - g1, n - k1
            if 2 * g1 + k1 >= 2 and 2 * g2 + k2 >= 2:
                yield g1, k1, g2, k2


def _recursion_terms(join: Callable[[int], dict],
                     cut: Callable[[int, int], dict],
                     table: "HodgeTable", g: int, ell: int):
    """Yield the right side at level (g, ell) as (terms, groups, coeff):
    ``terms`` is keyed by the exponents (or labels) of the distinguished
    slot and of the spectator slots it occupies, as ``join`` and ``cut``
    give them; each of ``groups`` is a multiset of indices for the
    spectator slots left, placed in every distinct way; ``coeff`` times
    the kernel weight multiplies the term."""
    if 2 * g - 2 + ell < 2:
        raise ValueError(
            f"recursion applies for complexity 2g-2+ell >= 2; "
            f"(g,ell)=({g},{ell}) is a base level")
    n = ell - 1
    # join: a spectator merges with the distinguished slot
    if n >= 1:
        for E, val in table.level_entries(g, n).items():
            for m in _distinct_values(E):
                yield join(m), (_remove_one(E, m),), val
    # cut: the distinguished slot closes a handle
    if g >= 1:
        paired: dict[tuple[int, ...], dict] = {}
        for E, val in table.level_entries(g - 1, n + 2).items():
            for a, b in _value_pairs(E):
                rest = _remove_one(_remove_one(E, a), b)
                factor = val if a == b else 2 * val
                _add_scaled(paired.setdefault(rest, {}), cut(a, b), factor)
        for rest, terms in paired.items():
            yield terms, (rest,), ONE
    # split: two stable surfaces share the spectators
    for g1, k1, g2, k2 in _splits(g, n):
        left = table._star_values(g1, k1)
        right = table._star_values(g2, k2)
        for w1, amap in left.items():
            for w2, bmap in right.items():
                mixed: dict = {}
                for a, va in amap.items():
                    for b, vb in bmap.items():
                        _add_scaled(mixed, cut(a, b), va * vb)
                if mixed:
                    yield mixed, (w1, w2), ONE


def _run_extraction(rhs: dict, kernel: _Kernel, g: int, ell: int,
                    context: str) -> dict:
    """Read each unknown off its keys of ``rhs``; every read must agree
    and the image of the solution must equal ``rhs`` exactly."""
    chi, dim = 2 * g - 2 + ell, 3 * g - 3 + ell
    solved: dict = {}
    for key, c in rhs.items():
        unknown = kernel.decode(key)
        if unknown is None:
            raise ValueError(f"identity violated at {context}: "
                             f"unresolvable key {key}")
        if sum(unknown) > dim:
            raise ValueError(f"identity violated at {context}: "
                             f"key {key} beyond dimension {dim}")
        weight = kernel.image(unknown, chi).get(key)
        if not weight:
            raise ValueError(f"identity violated at {context}: "
                             f"operator misses its key {key}")
        value = c / weight
        if solved.setdefault(unknown, value) != value:
            raise ValueError(f"identity violated at {context}: reads of "
                             f"{unknown} disagree at key {key}")
    remainder = dict(rhs)
    for unknown, value in solved.items():
        _add_scaled(remainder, kernel.image(unknown, chi), -value)
    if remainder:
        raise ValueError(f"identity violated at {context}: leftover at "
                         f"{len(remainder)} keys, top {max(remainder)}")
    return solved


def _merge_slot_choices(solved: dict, head: int, context: str) -> dict:
    """Collapse per-slot solutions onto sorted index tuples, verifying
    that every choice of the fixed slots is solved and all agree."""
    merged = {}
    for unknown, val in solved.items():
        key = tuple(sorted(unknown, reverse=True))
        by_slot = {u: solved.get(u) for u in _slot_choices(key, head)}
        if set(by_slot.values()) != {val}:
            raise ValueError(
                f"identity violated at {context}: "
                f"asymmetric solution for indices {key}: {by_slot}")
        merged[key] = val
    return merged


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
        kernel = _kernel(method)
        context = f"{method} level (g,ell)=({g},{ell})"
        solved = _run_extraction(self._rhs_in_basis(kernel, g, ell), kernel,
                                 g, ell, context)
        return _merge_slot_choices(solved, kernel.head, context)

    def _store_level(self, g: int, ell: int, solved: dict) -> None:
        level = self._by_level.setdefault((g, ell), {})
        for indices, val in solved.items():
            self.entries[(g, indices)] = val
            level[indices] = val
        self.filled.add((g, ell))

    # -- the right-hand side in the label basis

    def _rhs_in_basis(self, kernel: _Kernel, g: int, ell: int) -> dict:
        """Folded right side of ``kernel``'s identity in its label basis,
        whose unknowns live at level (g, ell)."""
        head = kernel.head
        rhs: dict = {}
        for terms, groups, coeff in _recursion_terms(
                lambda m: _labels(kernel, "join", m),
                lambda a, b: _labels(kernel, "cut", a, b), self, g, ell):
            factor = kernel.weight * coeff
            labels: tuple[int, ...] = ()
            for group in groups:
                factor = factor / aut(group)
                labels += tuple(2 * w + kernel.parity for w in group)
            for key, c in terms.items():
                _add_to(rhs, key[:head] + tuple(sorted(key[head:] + labels,
                                                       reverse=True)),
                        c * factor)
        return rhs

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
        kernel = _kernel(method)
        self.ensure_level(g, ell, method)
        rhs = self._rhs_in_basis(kernel, g, ell)
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
# public identity builders (genuine multivariate polynomials)


def _embed(terms: dict, variables: tuple[str, ...],
           slots: tuple[int, ...]) -> MultiPoly:
    """Place the exponent tuples of ``terms`` in variable positions
    ``slots``."""
    n = len(variables)
    out = {}
    for exps, c in terms.items():
        vec = [0] * n
        for slot, e in zip(slots, exps):
            vec[slot] = e
        out[tuple(vec)] = c
    return MultiPoly(variables, out)


def _rhs_expanded(kernel: _Kernel, table: HodgeTable, g: int,
                  variables: tuple[str, ...], slots) -> MultiPoly:
    """``kernel``'s right side in ``variables``, summed over the choice
    of the distinguished slot among ``slots``; every other variable is a
    spectator.  Its unknowns live at level (g, len(variables))."""
    total = MultiPoly.zero(variables)
    for terms, groups, coeff in _recursion_terms(
            kernel.join, kernel.cut, table, g, len(variables)):
        if not terms:
            continue
        width = len(next(iter(terms))) - 1
        # a distinct order of the group-tagged indices over the free slots
        # is a subset of them per group, each in a distinct order
        tagged = tuple((i, w) for i, group in enumerate(groups) for w in group)
        for slot in slots:
            others = [s for s in range(len(variables)) if s != slot]
            for picked in permutations(others, width):
                base = _embed(terms, variables, (slot,) + picked).scale(
                    kernel.weight * coeff)
                free = [s for s in others if s not in picked]
                for order in distinct_permutations(tagged):
                    term = base
                    for s, (_, w) in zip(free, order):
                        term = term * MultiPoly.from_unipoly(
                            kernel.basis(2 * w + kernel.parity), variables, s)
                    total = total + term
    return total


def cutjoin_rhs(g: int, ell: int, table: HodgeTable) -> XiIdentity:
    """The cut-and-join identity at level (g, ell), expanded.

    Returns the exact right-hand side in (t_1..t_ell) together with the
    left-hand operator description: the unknowns of the level itself
    enter through (2g-2+ell) prod xi_hat_{n_i} plus the promoted terms
    sum_i xi_hat_{n_i + 1}(t_i)/t_i prod_{j != i} xi_hat_{n_j}.  The
    right side is the recursion sum with its distinguished slot summed
    over every t_i; the weight 1/2 counts each symmetric join pair once.
    """
    variables = tuple(f"t_{i}" for i in range(1, ell + 1))
    total = _rhs_expanded(_KERNELS["cutjoin"], table, g, variables,
                          range(ell))
    return XiIdentity("cutjoin", g, variables, total)


def bm_rhs(g: int, ell: int, table: HodgeTable) -> MultiPoly:
    """The residue-form identity's right-hand side in (t, t_1..t_ell).

    Its unknowns live at level (g, ell + 1); an empty polynomial means
    the level is not determined by the recursion (a base case).
    """
    if 2 * g - 1 + ell < 1:
        raise ValueError(f"unstable (g,ell)=({g},{ell + 1})")
    variables = ("t",) + tuple(f"t_{i}" for i in range(1, ell + 1))
    if 2 * g - 1 + ell < 2:
        return MultiPoly.zero(variables)
    return _rhs_expanded(_KERNELS["bm"], table, g, variables, (0,))


def extract_in_xi_basis(identity: XiIdentity) -> dict:
    """Solve an expanded identity for its unknown coefficients.

    Converts the right-hand side into the shape's label basis and folds
    it (faithful: both recursion forms are symmetric in the t_i), then
    reads each unknown off its keys directly.  For the "bm" shape the
    returned keys are (n_0, n_1, ..) with n_0 the t-slot index; for
    "cutjoin" they are non-increasing index tuples.  Disagreeing reads
    or a nonzero remainder raise "identity violated".
    """
    shape, g = identity.unknown_shape, identity.g
    n_vars = len(identity.variables)
    kernel = _KERNELS.get(shape)
    if kernel is None:
        raise ValueError(f"unknown identity shape {shape!r}")
    if kernel.head and identity.variables[0] != "t":
        raise ValueError(f"{shape} identities carry the distinguished "
                         "variable t in slot 0")
    sym_slots = n_vars - kernel.head
    folded = {key: c / factorial(sym_slots) for key, c in
              _in_basis(identity.rhs.terms, kernel).items()}
    return _run_extraction(folded, kernel, g, n_vars,
                           f"extraction (g={g}, {shape})")


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


def dvv_verify(g: int, ell: int, table: Optional[HodgeTable] = None) -> bool:
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

    def sigma(gg: int, idx: tuple[int, ...]) -> Rational:
        """<sigma_idx>_gg: zero off the psi sector, for a negative index
        and at an unstable level."""
        if any(n < 0 for n in idx) or 2 * gg - 2 + len(idx) < 1:
            return ZERO
        if sum(idx) != 3 * gg - 3 + len(idx):
            return ZERO
        table.ensure_level(gg, len(idx))
        value = table.value(gg, idx)
        for n in idx:
            value = value * double_factorial(2 * n + 1)
        return value

    table.ensure_level(g, target_ell)
    dim = 3 * g - 3 + target_ell
    ok = True
    for key, _ in sorted(table.level_entries(g, target_ell).items()):
        if sum(key) != dim:
            continue
        for n in sorted(set(key), reverse=True):
            rest = _remove_one(key, n)
            lhs = sigma(g, key)
            rhs = ZERO
            for i, ni in enumerate(rest):
                sub = rest[:i] + rest[i + 1:]
                rhs = rhs + (2 * ni + 1) * sigma(g, sub + (n + ni - 1,))
            for a in range(n - 1):
                b = n - 2 - a
                if g >= 1:
                    rhs = rhs + HALF * sigma(g - 1, rest + (a, b))
                for left, right in subsets(rest):
                    for g1 in range(g + 1):
                        c1 = sigma(g1, left + (a,))
                        if not c1:
                            continue
                        c2 = sigma(g - g1, right + (b,))
                        rhs = rhs + HALF * c1 * c2
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

"""One level of the Hodge table, solved by two independent recursions.

The table maps (g, non-increasing index tuple) to the alternating-sum
pairing <tau_{n_1}..tau_{n_ell} (1 - lambda_1 + ... +- lambda_g)>.  Two
pipelines fill it level by level in the complexity chi = 2g - 2 + ell
(``hodge_solver.HodgeTable`` loads this module with its first level,
and stores what ``solve_level`` returns):

* ``cutjoin`` — the Laplace-transformed cut-and-join equation, an
  identity of symmetric polynomials in (t_1..t_ell) built from the
  xi_hat tower, with the unknowns of level (g, ell) on its left side;
* ``bm`` — the algebraic residue form of the topological recursion on
  the Lambert curve, an identity in (t, t_1..t_ell) built from the
  residue polynomials, whose unknowns live one variable up.

Both identities are equalities of polynomials that are symmetric in the
t_i.  The solver writes each in a triangular *label basis*, b_k of
degree k with integer coefficients: for cut-and-join b_0 = 1,
b_{2n+1} = xi_hat_n and b_{2n+2} = xi_hat_{n+1}/t; for ``bm``
b_{2n} = xi_n and b_{2n+1} = t^{2n+1}.  Sides are *folded*: the mass of
each orbit of label products, keyed by the sorted label tuple, which is
faithful on symmetric polynomials.  A spectator is then one label, and
only the join and cut polynomials are converted, each once.

The level solve is integer up to one division per key.  The
cut-and-join join and cut polynomials are integer polynomials (xi_hat_n
has integer coefficients), built as such; the ``bm`` residue
polynomials are rational and have their denominators cleared first.
Each is converted by fraction-free triangular elimination and memoized
as its labels over one denominator, (D, {labels: int}).  The right side
of a level is one rational scalar q per (kernel term, spectator
multiset): the kernel weight times the sum of the pair's join, cut and
split coefficients (a table value or product of two over the spectator
groups' automorphisms).  With the level denominator L, the lcm of every
D den(q), each key sums the Python ints c num(q) L/(D den(q)) and is
divided by L once.

Extraction works on those rationals.  An unknown is the sorted index
tuple the table stores, in both kernels.  Its image is a few keys, and
each key names one unknown, so extraction reads every unknown off
directly.  Every read must agree and the image of the solution must
equal the right side exactly — any leftover raises "identity violated".
The recursions are thus self-checking: a wrong weight, kernel or
denominator anywhere cannot silently produce a table.

Both right-hand sides are one join/cut/split sum in different kernels:
n = ell - 1 spectator slots sit beside one distinguished slot, the join
reads level (g, n), the cut reads (g - 1, n + 2), and the splits pair
levels with k1 + k2 = n spectators.  A ``_Kernel`` spec holds what
differs (weight, join and cut polynomials, label basis, spectator label
parity, the number ``head`` of fixed key positions, image and decoder),
and ``_recursion_terms`` collects the sum once, with no kernel in it,
keyed by term name, ("join", m) or ("cut", a, b), and sorted spectator
multiset; ``_rhs_in_basis`` converts each pair in one kernel.  A method
is the kernels it solves with (``_METHODS``): "both" is cut-and-join
then ``bm``, and collects the sum once for the two.  The sum reads each
lower level through a reader ``level(g, ell) -> entries``; inside
``solve_level`` the reader is the table's ``ensure_level`` then
``level_entries``, with the solve's own method, so a solve fills exactly
the missing levels it reads, and every level under a "both" solve is
itself solved both ways.  Folded keys are flat: the first ``head``
positions stay in place and the rest are sorted.  Cut-and-join has head
0; ``bm`` has head 1, the label of its distinguished variable t.
A ``bm`` unknown has one key per distinct index that can sit in the
t-slot, and every one of them must read the same value, or be a
leftover — the permutation symmetry of the output is checked, not
assumed.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import combinations
from math import gcd, lcm
from typing import TYPE_CHECKING, Callable, Optional

from hodgehurwitz.exact_algebra import HALF, ONE, ZERO, Rational, aut, \
    format_rational, rat, remove_one
from hodgehurwitz.xi_tower import xi_form, xi_hat, xi_hat_over_t

if TYPE_CHECKING:
    from hodgehurwitz.hodge_solver import HodgeTable


# ---------------------------------------------------------------------------
# folded vectors in the label bases

def _distinct_values(items: tuple[int, ...]) -> list[int]:
    return sorted(set(items), reverse=True)


def _value_pairs(items: tuple[int, ...]) -> list[tuple[int, int]]:
    """Unordered value pairs {a, b} extractable from the multiset, each
    once as (min, max), in increasing order."""
    return sorted({(min(x, y), max(x, y)) for x, y in combinations(items, 2)})


def _splits(g: int, n: int):
    """(g1, k1, g2, k2): two stable surfaces sharing n spectators."""
    for g1 in range(g + 1):
        for k1 in range(n + 1):
            g2, k2 = g - g1, n - k1
            if 2 * g1 + k1 >= 2 and 2 * g2 + k2 >= 2:
                yield g1, k1, g2, k2


def _star_values(entries: dict) -> dict:
    """W -> {a: <tau_a tau_W> / |Aut W|}, from the entries of one level."""
    out: dict[tuple[int, ...], dict[int, Rational]] = {}
    for E, val in entries.items():
        for a in set(E):
            W = remove_one(E, a)
            out.setdefault(W, {})[a] = val / aut(W)
    return out


def _cutjoin_basis(k: int) -> dict:
    """b_0 = 1, b_{2n+1} = xi_hat_n, b_{2n+2} = xi_hat_{n+1}/t."""
    if k == 0:
        return {0: 1}
    return xi_hat(k // 2) if k % 2 else xi_hat_over_t(k // 2 - 1)


def _bm_basis(k: int) -> dict:
    """b_{2n} = xi_n, b_{2n+1} = t^{2n+1}."""
    return {k: 1} if k % 2 else xi_form(k // 2)


def _in_basis(terms: dict, kernel: _Kernel) -> tuple[int, dict]:
    """Multivariate rational ``terms`` keyed by exponent tuples, rewritten
    in ``kernel``'s label basis and folded, as (D, {labels: int}): each
    coefficient is int/D, and D shares no factor with all the ints.

    One slot at a time, each row of the other exponents is eliminated
    from its top degree against the integer basis.  When the leading
    coefficient of b_d does not divide the top coefficient, the row is
    scaled until it does, and the row's denominator takes the factor;
    the rows then share the lcm.  Folding keeps the first ``head``
    labels in place and sorts the others."""
    den = lcm(*(int(c.denominator) for c in terms.values()))
    terms = {e: int(c.numerator) * (den // int(c.denominator))
             for e, c in terms.items()}
    for slot in range(len(next(iter(terms), ()))):
        rows: dict = {}
        for e, c in terms.items():
            rows.setdefault(e[:slot] + e[slot + 1:], {})[e[slot]] = c
        done = []
        for rest, rem in rows.items():
            scale, out = 1, {}
            while rem:
                d = max(rem)
                b = kernel.basis(d)
                c, lead = rem.pop(d), b[d]
                f = lead // gcd(c, lead)
                if f != 1:
                    scale, c = scale * f, c * f
                    rem = {k: v * f for k, v in rem.items()}
                    out = {k: v * f for k, v in out.items()}
                out[d] = top = c // lead
                for lower, bc in b.items():
                    if lower < d:
                        v = rem.get(lower, 0) - top * bc
                        if v:
                            rem[lower] = v
                        else:
                            rem.pop(lower, None)
            done.append((rest, scale, out))
        common = lcm(*(scale for _, scale, _ in done))
        den *= common
        terms = {rest[:slot] + (d,) + rest[slot:]: c * (common // scale)
                 for rest, scale, out in done for d, c in out.items()}
    head, folded = kernel.head, {}
    for e, c in terms.items():
        key = e[:head] + tuple(sorted(e[head:], reverse=True))
        folded[key] = folded.get(key, 0) + c
    folded = {key: c for key, c in folded.items() if c}
    common = gcd(den, *folded.values())
    return den // common, {key: c // common for key, c in folded.items()}


# ---------------------------------------------------------------------------
# the two left-hand-side operators, in labels


@cache
def _image_cutjoin(M: tuple[int, ...], chi: int) -> dict:
    """chi * prod xi_hat_{M} plus the promoted terms xi_hat_{v+1}/t.

    The images are memoized and shared, so no caller may change one."""
    image = {tuple(2 * m + 1 for m in M): rat(chi) / aut(M)}
    for v in _distinct_values(M):
        rest = remove_one(M, v)
        key = tuple(sorted([2 * v + 2] + [2 * m + 1 for m in rest],
                           reverse=True))
        image[key] = ONE / aut(rest)
    return image


@cache
def _image_bm(M: tuple[int, ...], chi: int) -> dict:
    """xi_v(t) times prod xi_form over the rest of M, one key for each
    distinct index v of M in the t-slot; the residue form has no chi
    factor, so ``chi`` is unused.  Memoized and shared like
    ``_image_cutjoin``."""
    image = {}
    for v in _distinct_values(M):
        rest = remove_one(M, v)
        image[(2 * v,) + tuple(2 * m for m in rest)] = ONE / aut(rest)
    return image


def _decode_cutjoin(key: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    # labels 2m+1 and, promoted, 2m+2 both carry index m = (label-1)//2
    evens = [e for e in key if e % 2 == 0]
    if len(evens) > 1 or 0 in evens:
        return None
    return tuple(sorted(((e - 1) // 2 for e in key), reverse=True))


def _decode_bm(key: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    # label 2m carries index m in the t-slot and in the spectators alike
    if any(e % 2 for e in key):
        return None
    return tuple(sorted((e // 2 for e in key), reverse=True))


# ---------------------------------------------------------------------------
# divided-difference join polynomials and cut products (cut-and-join form)


def _join_pair_poly(m: int) -> dict:
    """(xi_hat_{m+1}(x) xi_hat_0(y) x^2 - (x <-> y)) / (x - y), as integer
    terms keyed (x, y).  With A(x) = x^2 xi_hat_{m+1}(x), B = xi_hat_0,
    the numerator is sum a_i b_j (x^i y^j - x^j y^i), and for i > j
    (x^i y^j - x^j y^i)/(x - y) = sum_{k < i - j} x^{j+k} y^{i-1-k}.
    Every degree of A (t^2 divides xi_hat_{m+1}, so at least 4) exceeds
    every degree of B (at most 1)."""
    out: dict = {}
    for i, ai in xi_hat(m + 1).items():
        for j, bj in xi_hat(0).items():
            for k in range(i + 2 - j):
                e = (j + k, i + 1 - k)
                out[e] = out.get(e, 0) + ai * bj
    return {e: c for e, c in out.items() if c}


def _cut_pair_poly(a: int, b: int) -> dict:
    """xi_hat_{a+1} xi_hat_{b+1}, as integer terms."""
    out: dict = {}
    for i, ci in xi_hat(a + 1).items():
        for j, cj in xi_hat(b + 1).items():
            out[(i + j,)] = out.get((i + j,), 0) + ci * cj
    return {e: c for e, c in out.items() if c}


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
    basis: Callable[[int], dict]
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
    return p_n(m)


def _bm_cut(a: int, b: int) -> dict:
    from hodgehurwitz.residue_kernel import p_ab
    return {(d,): c for d, c in p_ab(a, b).items()}


_KERNELS = {
    "cutjoin": _Kernel(HALF, _join_pair_poly, _cut_pair_poly, _cutjoin_basis,
                       1, 0, _image_cutjoin, _decode_cutjoin),
    "bm": _Kernel(ONE, _bm_join, _bm_cut, _bm_basis,
                  0, 1, _image_bm, _decode_bm),
}

# a method is the kernels it solves with, in order; "both" requires
# every kernel's solution to equal the first's
_METHODS = {"cutjoin": ("cutjoin",), "bm": ("bm",), "both": ("cutjoin", "bm")}


def _method_kernels(method: str) -> tuple[str, ...]:
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    return _METHODS[method]


@cache
def _labels(kernel: _Kernel, part: str, *indices: int) -> tuple[int, dict]:
    """``kernel``'s join or cut terms in its label basis as (D, ints),
    converted once per kernel object (a replaced kernel gets its own
    memo)."""
    return _in_basis(getattr(kernel, part)(*indices), kernel)


def _recursion_terms(level: Callable[[int, int], dict], g: int, ell: int):
    """The right side at level (g, ell), collected: a Counter keyed
    (term, spectators), reading each lower level through ``level(g,
    ell)``.  ``term`` names a kernel polynomial, ("join", m) or ("cut",
    a, b) with a <= b, keyed by the exponents (or labels) of the
    distinguished slot and the spectator slots it occupies;
    ``spectators`` is the sorted multiset of indices for the slots left,
    placed in every distinct way.  The value, times the kernel weight,
    is the pair's scalar: each occurrence's coefficient over its
    spectator groups' automorphisms, summed.  No kernel enters, so one
    sum serves every kernel."""
    if 2 * g - 2 + ell < 2:
        raise ValueError(
            f"recursion applies for complexity 2g-2+ell >= 2; "
            f"(g,ell)=({g},{ell}) is a base level")
    n, terms = ell - 1, Counter()
    # join: a spectator merges with the distinguished slot
    if n >= 1:
        for E, val in level(g, n).items():
            for m in _distinct_values(E):
                rest = remove_one(E, m)
                terms[("join", m), rest] += val / aut(rest)
    # cut: the distinguished slot closes a handle
    if g >= 1:
        for E, val in level(g - 1, n + 2).items():
            for a, b in _value_pairs(E):
                rest = remove_one(remove_one(E, a), b)
                terms[("cut", a, b), rest] += \
                    (val if a == b else 2 * val) / aut(rest)
    # split: two stable surfaces share the spectators
    for g1, k1, g2, k2 in _splits(g, n):
        left = _star_values(level(g1, k1 + 1))
        right = _star_values(level(g2, k2 + 1))
        for w1, amap in left.items():
            for w2, bmap in right.items():
                rest = tuple(sorted(w1 + w2, reverse=True))
                for a, va in amap.items():
                    for b, vb in bmap.items():
                        terms[("cut", min(a, b), max(a, b)), rest] += va * vb
    return terms


def _image_remainder(rhs: dict, kernel: _Kernel, chi: int,
                     values: dict) -> dict:
    """``rhs`` minus the image of ``values``, a map unknown -> value."""
    remainder = dict(rhs)
    for unknown, value in values.items():
        for key, weight in kernel.image(unknown, chi).items():
            c = remainder.get(key, ZERO) - weight * value
            if c:
                remainder[key] = c
            else:
                remainder.pop(key, None)
    return remainder


def _run_extraction(rhs: dict, kernel: _Kernel, g: int, ell: int,
                    context: str) -> dict:
    """Read each unknown, a sorted index tuple, off its keys of
    ``rhs``; every read must agree (for ``bm``, every choice of the
    t-slot index) and the image of the solution must equal ``rhs``
    exactly, so a key of an unknown missing from ``rhs`` is a leftover."""
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
    remainder = _image_remainder(rhs, kernel, chi, solved)
    if remainder:
        raise ValueError(f"identity violated at {context}: leftover at "
                         f"{len(remainder)} keys, top {max(remainder)}")
    return solved


def _rhs_in_basis(terms: Counter, kernel: _Kernel) -> dict:
    """Folded right side of ``kernel``'s identity in its label basis,
    from the collected ``terms`` of ``_recursion_terms``, each term
    converted through ``_labels``.

    Each pair is a converted kernel (D, ints) times a rational scalar
    q = num(q)/den(q), the kernel weight times the pair's value.  With
    L the lcm of every D den(q), each key sums the Python ints
    c num(q) L/(D den(q)) and is divided by L once."""
    head, parity, weight = kernel.head, kernel.parity, kernel.weight
    converted = []
    for (term, spectators), q in terms.items():
        den, ints = _labels(kernel, *term)
        q *= weight
        converted.append((ints, tuple(2 * w + parity for w in spectators),
                          int(q.numerator), den * int(q.denominator)))
    level = lcm(*(den for *_, den in converted))
    sums: dict = {}
    for ints, labels, num, den in converted:
        factor = num * (level // den)
        for key, c in ints.items():
            key = key[:head] + tuple(sorted(key[head:] + labels,
                                            reverse=True))
            sums[key] = sums.get(key, 0) + c * factor
    return {key: Rational(c, level) for key, c in sums.items() if c}


# ---------------------------------------------------------------------------
# one level of a table


def solve_level(table: HodgeTable, g: int, ell: int, method: str) -> dict:
    """The entries of level (g, ell) by ``method``: "cutjoin", "bm", or
    "both", which solves by each and requires equal results.  The
    recursion sum is collected once, and every lower level it reads is
    filled in ``table`` first, by ``method``."""
    def level(g: int, ell: int) -> dict:
        table.ensure_level(g, ell, method)
        return table.level_entries(g, ell)

    names = _method_kernels(method)
    terms = _recursion_terms(level, g, ell)
    first = None
    for name in names:
        kernel = _KERNELS[name]
        context = f"{name} level (g,ell)=({g},{ell})"
        solved = _run_extraction(_rhs_in_basis(terms, kernel), kernel,
                                 g, ell, context)
        if first is None:
            first = solved
        elif solved != first:
            # the first entry that differs; an absent entry is zero
            key = min(k for k in first.keys() | solved.keys()
                      if first.get(k) != solved.get(k))
            raise ValueError(
                f"pipelines disagree at (g,ell)=({g},{ell}): indices {key}: "
                f"{names[0]} {format_rational(first.get(key, ZERO))} vs "
                f"{name} {format_rational(solved.get(key, ZERO))}")
    return first


def identity_remainder(table: HodgeTable, g: int, ell: int,
                       method: str) -> dict:
    """The folded right side at level (g, ell) minus the image of the
    level's stored values, in ``method``'s label basis; empty when the
    stored values satisfy the recursion; "both" gives the first remainder
    that is not empty, cut-and-join first, as ``solve_level`` solves."""
    table.ensure_level(g, ell, method)
    names = _method_kernels(method)
    entries = table.level_entries(g, ell)
    terms = _recursion_terms(table.level_entries, g, ell)
    for name in names:
        kernel = _KERNELS[name]
        remainder = _image_remainder(_rhs_in_basis(terms, kernel),
                                     kernel, 2 * g - 2 + ell, entries)
        if remainder:
            return remainder
    return {}

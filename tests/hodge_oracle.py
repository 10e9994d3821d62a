"""Test-side oracles for the Hodge solver.

The solver builds each right side folded, in labels and in integers.
These build the same recursions expanded, as genuine multivariate
polynomials in (t_1..t_ell) or (t, t_1..t_ell), and read a level off an
expanded identity; ``join_pair_poly`` and ``cut_pair_poly`` build the
cut-and-join kernels by ``MultiPoly`` and ``divided_difference``.  The
tests compare the solver's integer path against them.
"""

from itertools import permutations
from math import factorial
from typing import NamedTuple

from hodgehurwitz.exact_algebra import MultiPoly, distinct_permutations, \
    divided_difference, rat
from hodgehurwitz.hodge_solver import _KERNELS, HodgeTable, _in_basis, \
    _Kernel, _recursion_terms, _run_extraction
from hodgehurwitz.lambert_curve import xi_hat


class XiIdentity(NamedTuple):
    """One recursion instance: an exact polynomial right-hand side plus
    the shape of the linear operator acting on the unknowns."""

    unknown_shape: str  # "bm" | "cutjoin"
    g: int
    variables: tuple[str, ...]
    rhs: MultiPoly


def join_pair_poly(m: int) -> dict:
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


def cut_pair_poly(a: int, b: int) -> dict:
    """xi_hat_{a+1} xi_hat_{b+1}, as terms."""
    return {(d,): c for d, c in (xi_hat(a + 1) * xi_hat(b + 1)).coeffs.items()}


def rebuilt(converted: tuple[int, dict], kernel: _Kernel,
            variables: tuple[str, ...]) -> MultiPoly:
    """The polynomial that a folded conversion (D, {labels: int}) stands
    for: each key's mass c/D spread evenly over the distinct orders of
    its labels past ``kernel.head``, each order the product of one basis
    polynomial per variable."""
    den, ints = converted
    head = kernel.head
    total = MultiPoly.zero(variables)
    for key, c in ints.items():
        orders = list(distinct_permutations(key[head:]))
        for order in orders:
            term = MultiPoly(variables, {(0,) * len(variables):
                                         rat(c, den * len(orders))})
            for slot, k in enumerate(key[:head] + order):
                term = term * MultiPoly.from_unipoly(kernel.basis(k),
                                                     variables, slot)
            total = total + term
    return total


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
    den, ints = _in_basis(identity.rhs.terms, kernel)
    den *= factorial(n_vars - kernel.head)
    folded = {key: rat(c, den) for key, c in ints.items()}
    return _run_extraction(folded, kernel, g, n_vars,
                           f"extraction (g={g}, {shape})")



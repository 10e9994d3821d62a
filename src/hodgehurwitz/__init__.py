"""Exact linear Hodge integrals and simple Hurwitz numbers.

Three independent exact pipelines compute the same intersection
numbers — a cut-and-join coefficient recursion, its polynomial
Laplace-transformed form on the Lambert curve, and the
Bouchard-Marino topological recursion — and every consumer-facing
result is cross-checked between them.
"""

from hodgehurwitz.hodge_solver import HodgeTable, dvv_verify, hodge_lambda
from hodgehurwitz.hurwitz import (
    elsv_invert,
    h_brute,
    h_direct,
    hurwitz_elsv,
    table_generate,
)

__version__ = "0.1.0"

__all__ = [
    "HodgeTable",
    "dvv_verify",
    "elsv_invert",
    "h_brute",
    "h_direct",
    "hodge_lambda",
    "hurwitz_elsv",
    "table_generate",
    "__version__",
]

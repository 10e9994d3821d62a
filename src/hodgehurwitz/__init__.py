"""Exact linear Hodge integrals and simple Hurwitz numbers.

Three independent exact pipelines compute the same intersection
numbers — a cut-and-join coefficient recursion, its polynomial
Laplace-transformed form on the Lambert curve, and the
Bouchard-Marino topological recursion — and every consumer-facing
result is cross-checked between them.

The public names load their module on first access (PEP 562), so a
process imports only the layers it uses.
"""

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

_HOME = {
    "HodgeTable": "hodge_solver",
    "dvv_verify": "verify",
    "hodge_lambda": "hodge_solver",
    "elsv_invert": "hurwitz",
    "h_brute": "hurwitz",
    "h_direct": "hurwitz",
    "hurwitz_elsv": "hurwitz",
    "table_generate": "hurwitz",
}


def __getattr__(name):
    # read from the module on every access, so a name replaced there is
    # seen here too
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = __import__(f"{__name__}.{home}", fromlist=[name])
    return getattr(module, name)

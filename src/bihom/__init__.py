"""Exact-arithmetic kernel for twisted infinitesimal bialgebras.

Structure constants over Q, exhaustive axiom checkers with pinpoint
violation reports, and executable constructions: twists, duals, weighted
tensor products, element- and form-induced (co)products, Yang-Baxter
residuals and searches, Rota-Baxter / dendriform / pre-Lie derivations,
and Hopf-module builders.

Each submodule loads on first use, so a CLI call compiles only the
modules its verb needs.
"""

__all__ = ["axioms", "catalog", "constructions", "exactcore", "models",
           "structures", "ybe"]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in __all__:
        # the import statement's own machinery, so -X importtime sees it
        __import__(f"{__name__}.{name}")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

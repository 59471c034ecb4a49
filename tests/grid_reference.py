"""Every point of a search-r grid, kept as a test oracle.

The equivalence sweeps quantify over the whole grid, solutions and
non-solutions alike, so they enumerate it with the search's own walk over
the invariance equations alone.
"""

from __future__ import annotations

from bihom import ybe
from bihom.exactcore import Elem2, Endo
from bihom.structures import Algebra


def grid_candidates(a: Algebra, psi: Endo, omega: Endo, coeff_set,
                    require_invariant: bool = True,
                    guard: int = 10_000_000) -> list[Elem2]:
    """Every grid candidate (solutions and non-solutions alike), for the
    equivalence sweeps that quantify over the whole grid; with invariance
    required, the search of _walk on the invariance equations alone."""
    coeffs = ybe._grid(a.dim, coeff_set, guard)
    system = ybe._system(a.dim, None, ybe._squares(a, psi, omega) if require_invariant else ())
    return [ybe._as_elem2(flat, a.dim) for flat in ybe._walk(coeffs, system)]

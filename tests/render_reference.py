"""The dense renderer, kept as a test oracle.

`bihom` renders a report's sides from the nonzero cells of a map's column.
The function here is the earlier renderer, which walked every coordinate
of a dense coefficient vector, so a property test can compare the two.
"""

from __future__ import annotations

from typing import Sequence

from bihom.exactcore import Q, scalar_render


def render_flat_dense(coeffs: Sequence[Q], dims: Sequence[int], legs: Sequence[str]) -> str:
    """Render a tensor by its nonzero coordinates, e.g. 'e0(x)e1 - 2*e1(x)e0'."""
    if not dims:
        return scalar_render(coeffs[0])
    terms = []
    for flat, c in enumerate(coeffs):
        if c == 0:
            continue
        idx = []
        rem = flat
        for d in reversed(dims):
            rem, part = divmod(rem, d)
            idx.append(part)
        idx.reverse()
        basis = "(x)".join(f"{leg}{i}" for leg, i in zip(legs, idx))
        if c == 1:
            term = basis
        elif c == -1:
            term = "-" + basis
        else:
            term = f"{scalar_render(c)}*{basis}"
        terms.append(term)
    if not terms:
        return "0"
    text = terms[0]
    for term in terms[1:]:
        text += (" - " + term[1:]) if term.startswith("-") else (" + " + term)
    return text

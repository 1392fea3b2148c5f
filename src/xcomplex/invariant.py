"""The exact counting invariant.

For a presentation P with l_m cells in dimension m and a complex A of
length L, the invariant is

    I_A(P) = #Hom(P, A) * prod_{n>=1} ( prod_{m>=1} |A_{m+n}|^{l_m} )^{(-1)^n}

where sizes above the truncation degree are 1, so only terms with
m + n <= L contribute.  All arithmetic is exact rational.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .complexes import FiniteCrossedComplex
from .enumeration import cell_orders, count_homs
from .presentations import CWPresentation


def normalization_factor(p: CWPresentation, cx: FiniteCrossedComplex) -> Fraction:
    """The alternating double product multiplying the morphism count."""
    out = Fraction(1)
    for n in range(1, cx.length):  # the inner product counts the shift-n maps
        out *= Fraction(math.prod(order ** lm for lm, order in cell_orders(p, cx, n))) ** (-1) ** n
    return out


def invariant_ia(p: CWPresentation, cx: FiniteCrossedComplex) -> Fraction:
    """Exact rational homotopy invariant of P against A."""
    return count_homs(p, cx) * normalization_factor(p, cx)


def format_rational(q: Fraction) -> str:
    """Render p/q, omitting the denominator when it is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"

"""The exact counting invariant.

For a presentation P with l_m cells in dimension m and a complex A of
length L, the invariant is

    I_A(P) = #Hom(P, A) * prod_{n>=1} ( prod_{m>=1} |A_{m+n}|^{l_m} )^{(-1)^n}

where sizes above the truncation degree are 1, so only terms with
m + n <= L contribute.  All arithmetic is exact rational.
"""

from __future__ import annotations

from fractions import Fraction

from .complexes import FiniteCrossedComplex, size_at
from .enumeration import count_homs
from .presentations import CWPresentation


def normalization_factor(p: CWPresentation, cx: FiniteCrossedComplex) -> Fraction:
    """The alternating double product multiplying the morphism count."""
    out = Fraction(1)
    for n in range(1, cx.length):
        inner = 1
        for m in range(1, cx.length - n + 1):
            lm = p.count(m)
            if lm:
                inner *= size_at(cx, m + n) ** lm
        out *= inner if n % 2 == 0 else Fraction(1, inner)
    return out


def invariant_ia(p: CWPresentation, cx: FiniteCrossedComplex) -> Fraction:
    """Exact rational homotopy invariant of P against A."""
    return count_homs(p, cx) * normalization_factor(p, cx)


def format_rational(q: Fraction) -> str:
    """Render p/q, omitting the denominator when it is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"

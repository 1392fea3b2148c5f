"""Combinatorial presentations of CW-complexes with a single 0-cell.

A presentation records cell counts per dimension and attaching data:

  * a 2-cell carries a Word in the 1-cells, letters (gen, +-1);
  * a cell of dimension n >= 3 carries Terms, triples (twisting Word,
    (n-1)-cell, power): a word in the free crossed module on the 2-cells
    when n = 3, an element of the free Z[pi_1]-module on the (n-1)-cells
    when n >= 4.  The power is +-1 at n = 3 and any integer above.

Attaching data is raw syntax: no normal form in the free algebra is ever
computed, and equality of attaching data is plain structural equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from .errors import ValidationReport

Word = tuple[tuple[int, int], ...]
Terms = tuple[tuple[Word, int, int], ...]


@dataclass(frozen=True)
class CWPresentation:
    """Cell counts l_0..l_D plus attaching data per positive dimension.

    attach_terms[n-3] holds the Terms of the n-cells, one per cell, for
    n >= 3; read it through `terms(n)`.
    """

    cells: tuple[int, ...]
    attach2: tuple[Word, ...] = ()
    attach_terms: tuple[tuple[Terms, ...], ...] = ()
    name: str = field(default="", compare=False)

    @property
    def dim(self) -> int:
        return len(self.cells) - 1

    def count(self, n: int) -> int:
        if n < 0:
            raise ValueError(f"negative dimension {n}")
        return self.cells[n] if n <= self.dim else 0

    def terms(self, n: int) -> tuple[Terms, ...]:
        """The Terms of every n-cell; () past the stored dimensions."""
        if n < 3:
            raise ValueError(f"no Terms data below dimension 3 (asked {n})")
        k = n - 3
        return self.attach_terms[k] if k < len(self.attach_terms) else ()

    def __repr__(self) -> str:
        return f"CWPresentation({self.name or '?'}, cells={list(self.cells)})"


def free_reduce(w: Word) -> Word:
    """Cancel adjacent (g,e)(g,-e) pairs until none remain."""
    out: list[tuple[int, int]] = []
    for g, e in w:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def word_inverse(w: Word) -> Word:
    return tuple((g, -e) for g, e in reversed(w))


def fox_terms(w: Word) -> Terms:
    """The Fox derivative of w (Fox, Ann. Math. 57, 1953) as Terms: letter
    i of w = x_1^e_1 .. x_m^e_m, with suffix s = x_{i+1} .. x_m, becomes
    (s^-1, x_i, 1) when e_i = 1 and (s^-1 x_i, x_i, -1) when e_i = -1."""
    return tuple((word_inverse(w[i + 1:]) + (() if e == 1 else ((g, 1),)), g, e)
                 for i, (g, e) in enumerate(w))


def validate_presentation(p: CWPresentation) -> ValidationReport:
    """Structural sweep; see ValidationReport for the axiom names used."""
    violations: list[tuple[str, tuple]] = []
    if p.dim < 0 or p.cells[0] != 1:
        violations.append(("base-cells", (p.cells[0] if p.cells else None,)))
    for n, l in enumerate(p.cells):
        if l < 0:
            violations.append(("cell-count", (n, l)))

    def sequence(x, where: tuple) -> bool:
        """Whether x is a tuple or list; an attach-shape violation otherwise."""
        if isinstance(x, (tuple, list)):
            return True
        violations.append(("attach-shape", where))
        return False

    def check_word(w: Word, bound: int, where: tuple) -> None:
        if not sequence(w, where):
            return
        for i, letter in enumerate(w):
            try:
                g, e = letter
            except (TypeError, ValueError):  # not a (gen, exp) pair
                violations.append(("attach-shape", where + (i,)))
                continue
            if not (isinstance(g, int) and 0 <= g < bound):
                violations.append(("generator-range", where + (i, g)))
            if e not in (1, -1):
                violations.append(("exponent", where + (i, e)))

    l1 = p.count(1)
    mark = len(violations)
    if sequence(p.attach2, (2,)):
        if len(p.attach2) != p.count(2):
            violations.append(("attach-arity", (2, len(p.attach2), p.count(2))))
        for c, w in enumerate(p.attach2):
            check_word(w, l1, (2, c))

    top = max(p.dim, len(p.attach_terms) + 2) if sequence(p.attach_terms, (3,)) else 2
    for n in range(3, top + 1):
        data = p.terms(n)
        if not sequence(data, (n,)):
            continue
        if len(data) != p.count(n):
            violations.append(("attach-arity", (n, len(data), p.count(n))))
        below = p.count(n - 1)
        for c, terms in enumerate(data):
            if not sequence(terms, (n, c)):
                continue
            for i, term in enumerate(terms):
                try:
                    twist, gen, power = term
                except (TypeError, ValueError):  # not a (word, cell, power) triple
                    violations.append(("attach-shape", (n, c, i)))
                    continue
                check_word(twist, l1, (n, c, i))
                if not (isinstance(gen, int) and 0 <= gen < below):
                    violations.append(("generator-range", (n, c, i, gen)))
                # the one rule that depends on n: a 3-cell's power is +-1
                if not (power in (1, -1) if n == 3 else isinstance(power, int)):
                    violations.append(("exponent", (n, c, i, power)))

    # boundary-of-boundary at dimension 3: the image word of each 3-cell's
    # terms must reduce freely to the empty word.  Skipped when the 2- or
    # 3-cell data are out of range, since it indexes the 2-cell words; every
    # violation since `mark` names its dimension first.
    if not any(where[0] <= 3 for _, where in violations[mark:]):
        for c, terms in enumerate(p.terms(3)):
            parts: list[tuple[int, int]] = []
            for conj, gen, exp in terms:
                inner = p.attach2[gen] if exp == 1 else word_inverse(p.attach2[gen])
                parts.extend(conj)
                parts.extend(inner)
                parts.extend(word_inverse(conj))
            reduced = free_reduce(tuple(parts))
            if reduced:
                violations.append(("boundary-boundary", (c, reduced)))

    return ValidationReport(violations)


def _shift_word(w: Word, by: int) -> Word:
    return tuple((g + by, e) for g, e in w)


def wedge(p: CWPresentation, q: CWPresentation) -> CWPresentation:
    """One-point union: cell counts add, q's cells are shifted past p's."""
    d = max(p.dim, q.dim)
    cells = (1,) + tuple(p.count(n) + q.count(n) for n in range(1, d + 1))
    s1 = p.count(1)
    attach2 = p.attach2 + tuple(_shift_word(w, s1) for w in q.attach2)
    terms = tuple(
        p.terms(n) + tuple(
            tuple((_shift_word(tw, s1), gen + p.count(n - 1), e) for tw, gen, e in ts)
            for ts in q.terms(n))
        for n in range(3, d + 1))
    return CWPresentation(
        cells, attach2, terms,
        name=f"{p.name} v {q.name}" if p.name and q.name else "")


def relabel_cells(p: CWPresentation, perms: Mapping[int, Sequence[int]]) -> CWPresentation:
    """Renumber cells dimension-wise; perms[n][old] = new index.

    Dimensions absent from `perms` keep their numbering.  Used to check that
    results do not depend on cell order.
    """
    def perm(n: int) -> Sequence[int]:
        return perms.get(n, tuple(range(p.count(n))))

    def reword(w: Word) -> Word:
        p1 = perm(1)
        return tuple((p1[g], e) for g, e in w)

    def place(items, n):
        out = [None] * p.count(n)
        pn = perm(n)
        for old, item in enumerate(items):
            out[pn[old]] = item
        return tuple(out)

    attach2 = place(tuple(reword(w) for w in p.attach2), 2)
    terms = tuple(
        place(tuple(tuple((reword(tw), perm(n - 1)[gen], e) for tw, gen, e in ts)
                    for ts in p.terms(n)), n)
        for n in range(3, p.dim + 1))
    return CWPresentation(p.cells, attach2, terms, name=p.name)


def point() -> CWPresentation:
    return CWPresentation((1,), name="point")


def _one_per_dimension(data: Mapping[int, tuple], name: str) -> CWPresentation:
    """The presentation whose n-cells carry data[n] (none where absent);
    1-cells carry no data, so data[1] only counts them."""
    top = max(data)
    return CWPresentation(
        (1,) + tuple(len(data.get(n, ())) for n in range(1, top + 1)),
        attach2=data.get(2, ()),
        attach_terms=tuple(data.get(n, ()) for n in range(3, top + 1)),
        name=name)


def sphere(n: int) -> CWPresentation:
    """One 0-cell and one n-cell, attached trivially."""
    if n < 1:
        raise ValueError("sphere needs n >= 1")
    return _one_per_dimension({n: ((),)}, f"sphere:{n}")


def disk(n: int) -> CWPresentation:
    """One 0-cell, one (n-1)-cell and one n-cell that fills it."""
    if n < 2:
        raise ValueError("disk needs n >= 2")
    rim = ((0, 1),) if n == 2 else (((), 0, 1),)
    return _one_per_dimension({n - 1: ((),), n: (rim,)}, f"disk:{n}")


def torus() -> CWPresentation:
    return replace(genus_surface(1), name="torus")


def genus_surface(g: int) -> CWPresentation:
    """Closed orientable surface: 2g 1-cells, one 2-cell, commutator word."""
    if g < 0:
        raise ValueError("genus must be >= 0")
    w: list[tuple[int, int]] = []
    for i in range(g):
        a, b = 2 * i, 2 * i + 1
        w += [(a, 1), (b, 1), (a, -1), (b, -1)]
    return CWPresentation((1, 2 * g, 1), attach2=(tuple(w),), name=f"genus:{g}")


def rp2() -> CWPresentation:
    return CWPresentation((1, 1, 1), attach2=(((0, 1), (0, 1)),), name="rp2")


def sphere2_two_cells() -> CWPresentation:
    """The 2-sphere built from one 1-cell and two 2-cells glued along it."""
    return CWPresentation(
        (1, 1, 2),
        attach2=(((0, 1),), ((0, -1),)),
        name="sphere2-two-cells")

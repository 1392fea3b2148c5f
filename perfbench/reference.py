"""Independent answers for every benchmark op.

Written from the definitions, not from the package under test, which this
module never imports:

  * a morphism colours the n-cells (n = 1..L) by elements of A_n so that
    each n-cell's colour (2 <= n <= L) lies in the fibre of d_n over its
    evaluated attaching data, and the attaching data of each (L+1)-cell
    evaluates to the identity; cells above L+1 impose nothing;
  * I_A(P) = #Hom(P, A) * prod_{n=1}^{L-1} (prod_{m=1}^{L-n} |A_{m+n}|^{l_m})^{(-1)^n}.

Counts for presentations of dimension <= 2 come from variable elimination
over the letters of the relators; genus-g surfaces against groups also
from the Mednykh/Frobenius formula |G| sum_chi (|G|/chi(1))^{2g-2}; all
other counts and listings from a layered sweep.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from fractions import Fraction


def _cells(p, n):
    return p["cells"][n] if n < len(p["cells"]) else 0


def _attach(p, n):
    return p["attach"].get(str(n), [])


def eval_word(g, f1, w):
    mul, inv = g["mul"], g["inv"]
    acc = 0
    for gen, e in w:
        v = f1[gen]
        acc = mul[acc][v if e == 1 else inv[v]]
    return acc


def attach_value(p, cx, colours, n, cell):
    """Value in A_{n-1} of an n-cell's attaching data (2 <= n)."""
    a1 = cx["groups"][0]
    if n == 2:
        return eval_word(a1, colours[0], _attach(p, 2)[cell])
    g = cx["groups"][n - 2]
    act = cx["actions"][n - 3]
    mul, inv = g["mul"], g["inv"]
    lower = colours[n - 2]
    acc = 0
    if n == 3:
        for conj, gen, exp in _attach(p, 3)[cell]:
            v = act[eval_word(a1, colours[0], conj)][lower[gen]]
            acc = mul[acc][v if exp == 1 else inv[v]]
        return acc
    for coef, twist, gen in _attach(p, n)[cell]:
        v = act[eval_word(a1, colours[0], twist)][lower[gen]]
        if coef < 0:
            v, coef = inv[v], -coef
        for _ in range(coef):
            acc = mul[acc][v]
    return acc


def _fibres(cx, n):
    """fibres[t] = sorted colours x of A_n with d_n(x) = t."""
    out = [[] for _ in range(cx["groups"][n - 2]["order"])]
    for x, t in enumerate(cx["boundaries"][n - 2]):
        out[t].append(x)
    return out


def is_morphism(p, cx, colours):
    length = len(cx["groups"])
    if len(colours) != length:
        return False
    for n in range(1, length + 1):
        if len(colours[n - 1]) != _cells(p, n):
            return False
        if not all(0 <= v < cx["groups"][n - 1]["order"] for v in colours[n - 1]):
            return False
    for n in range(2, length + 1):
        image = cx["boundaries"][n - 2]
        for cell in range(_cells(p, n)):
            if image[colours[n - 1][cell]] != attach_value(p, cx, colours, n, cell):
                return False
    return all(attach_value(p, cx, colours, length + 1, cell) == 0
               for cell in range(_cells(p, length + 1)))


def enumerate_homs(p, cx):
    """Every morphism as a tuple of per-layer colour tuples, layer by layer."""
    length = len(cx["groups"])
    fibres = {n: _fibres(cx, n) for n in range(2, length + 1)}
    kills = _cells(p, length + 1)
    out = []

    def layer(colours):
        n = len(colours) + 1
        if n > length:
            if all(attach_value(p, cx, colours, n, c) == 0 for c in range(kills)):
                out.append(tuple(colours))
            return
        choices = [fibres[n][attach_value(p, cx, colours, n, c)]
                   for c in range(_cells(p, n))]
        for combo in itertools.product(*choices):
            colours.append(combo)
            layer(colours)
            colours.pop()

    for f1 in itertools.product(range(cx["groups"][0]["order"]), repeat=_cells(p, 1)):
        layer([f1])
    return out


def _count_2d(p, cx):
    """Count for a presentation of dimension <= 2 by eliminating 1-cells.

    The letters of all relators are read in order.  A state is the running
    product of the current relator plus the colours of the 1-cells that
    were seen and occur again later; a cell is summed out after its last
    letter.  A finished relator with value t weighs [t = 1] when L = 1 (it
    is a kill cell) and |d_2^{-1}(t)| otherwise.
    """
    a1 = cx["groups"][0]
    mul, inv, order = a1["mul"], a1["inv"], a1["order"]
    if len(cx["groups"]) == 1:
        weight = [1] + [0] * (order - 1)
    else:
        weight = [len(f) for f in _fibres(cx, 2)]
    words = _attach(p, 2)
    last = {}
    for i, w in enumerate(words):
        for j, (gen, _) in enumerate(w):
            last[gen] = (i, j)
    states = {(0, ()): 1}  # (product, sorted (cell, colour) pairs) -> count
    for i, w in enumerate(words):
        for j, (gen, e) in enumerate(w):
            drop = last[gen] == (i, j)
            nxt = defaultdict(int)
            for (acc, live), cnt in states.items():
                bound = dict(live)
                values = (bound[gen],) if gen in bound else range(order)
                for v in values:
                    acc2 = mul[acc][v if e == 1 else inv[v]]
                    if drop:
                        live2 = tuple(kv for kv in live if kv[0] != gen)
                    elif gen in bound:
                        live2 = live
                    else:
                        live2 = tuple(sorted(live + ((gen, v),)))
                    nxt[(acc2, live2)] += cnt
            states = nxt
        closed = defaultdict(int)
        for (acc, live), cnt in states.items():
            if weight[acc]:
                closed[(0, live)] += cnt * weight[acc]
        states = closed
    total = sum(states.values())
    return total * order ** (_cells(p, 1) - len(last))


def mednykh(g, genus):
    """#Hom(pi_1 of the genus-g surface, G) = |G| sum_chi (|G|/chi(1))^(2g-2)."""
    n = g["order"]
    return sum(n * Fraction(n, d) ** (2 * genus - 2) for d in g["degrees"])


def count_homs(p, cx):
    if len(p["cells"]) <= 3:
        return _count_2d(p, cx)
    return len(enumerate_homs(p, cx))


def surface_genus(p):
    """g when p is the standard genus-g surface word, else None."""
    if len(p["cells"]) != 3 or p["cells"][2] != 1:
        return None
    w = _attach(p, 2)[0]
    if len(w) != 2 * p["cells"][1] or len(w) % 4:
        return None
    for k in range(0, len(w), 4):
        (a, e1), (b, e2), (a2, e3), (b2, e4) = w[k:k + 4]
        if (a2, b2, e1, e2, e3, e4) != (a, b, 1, 1, -1, -1):
            return None
    return len(w) // 4


def normalization(p, cx):
    sizes = [g["order"] for g in cx["groups"]]
    length = len(sizes)
    out = Fraction(1)
    for n in range(1, length):
        inner = 1
        for m in range(1, length - n + 1):
            inner *= sizes[m + n - 1] ** _cells(p, m)
        out *= inner if n % 2 == 0 else Fraction(1, inner)
    return out


def homotopies_per_morphism(p, cx):
    """Number of 1-fold homotopies out of any morphism: prod_k |A_{k+1}|^{l_k}."""
    sizes = [g["order"] for g in cx["groups"]]
    out = 1
    for k in range(1, len(p["cells"])):
        if k < len(sizes):
            out *= sizes[k] ** p["cells"][k]
    return out


def fmt(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

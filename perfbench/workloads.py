"""Seeded, self-contained input generators for the benchmark workloads.

Nothing here imports the package under test: groups, towers and
presentations are built from first principles and written as the JSON
documents the command line reads.  A seed only changes details that leave
the amount of work per op fixed: the numbering of group elements and of
1-cells, and the order of ops.  Random relators and
random tower attaching data are drawn once per slot from a stream of their
own, so the search work of an op does not depend on the seed.

Every generated object is a plain dict:

  group     {"order", "mul", "inv", "degrees", "name"}   degrees = irreducible
            character degrees, used by the Mednykh closed form
  complex   {"groups": [group, ...], "boundaries": [image, ...],
             "actions": [table, ...], "name"}           boundaries[k] is d_{k+2}
  pres      the presentation document itself
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("count-surfaces", "classes-crossed", "tower-enumerate", "large-tables")


# ---------------------------------------------------------------- groups

def _table_group(elems, op, name, degrees=None):
    """Group on `elems` (identity first) under `op`."""
    index = {e: i for i, e in enumerate(elems)}
    mul = [[index[op(a, b)] for b in elems] for a in elems]
    inv = [row.index(0) for row in mul]
    n = len(elems)
    return {"order": n, "mul": mul, "inv": inv,
            "degrees": degrees or [1] * n, "name": name}


def cyclic(n):
    return _table_group(list(range(n)), lambda a, b: (a + b) % n, f"Z/{n}")


def product(*orders):
    """Z/a x Z/b x ..., abelian."""
    elems = list(itertools.product(*(range(n) for n in orders)))
    return _table_group(
        elems, lambda a, b: tuple((x + y) % n for x, y, n in zip(a, b, orders)),
        "x".join(f"Z/{n}" for n in orders))


def _perm_group(gens, name, degrees):
    """Closure of permutation generators, identity first, then sorted."""
    ident = tuple(range(len(gens[0])))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[g[x]] for x in ident)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    elems = [ident] + sorted(seen - {ident})
    return _table_group(elems, lambda p, q: tuple(p[q[x]] for x in ident),
                        name, degrees)


def s3():
    return _perm_group([(1, 0, 2), (1, 2, 0)], "S3", [1, 1, 2])


def d4():
    return _perm_group([(1, 2, 3, 0), (0, 3, 2, 1)], "D4", [1, 1, 1, 1, 2])


GROUPS = {
    "z4": lambda: cyclic(4), "z5": lambda: cyclic(5), "z6": lambda: cyclic(6),
    "z7": lambda: cyclic(7), "z8": lambda: cyclic(8),
    "z2xz2": lambda: product(2, 2), "z2xz4": lambda: product(2, 4),
    "s3": s3, "d4": d4,
}


def _parity(g):
    """0 for elements of the subgroup generated by squares, else 1.

    For S3 that subgroup is A3, so this is the sign.
    """
    mul = g["mul"]
    squares = {mul[x][x] for x in range(g["order"])}
    even = {0}
    frontier = [0]
    while frontier:
        a = frontier.pop()
        for b in squares:
            c = mul[a][b]
            if c not in even:
                even.add(c)
                frontier.append(c)
    return [0 if x in even else 1 for x in range(g["order"])]


def center(g):
    mul = g["mul"]
    return [x for x in range(g["order"])
            if all(mul[x][y] == mul[y][x] for y in range(g["order"]))]


# -------------------------------------------------------------- complexes

def from_group(g):
    return {"groups": [g], "boundaries": [], "actions": [], "name": g["name"]}


def crossed(g, e, image, act, name):
    return {"groups": [g, e], "boundaries": [image], "actions": [act], "name": name}


def _trivial_act(g, e):
    return [list(range(e["order"])) for _ in range(g["order"])]


def _neg_act(g_parity, n):
    """Elements of odd parity act on Z/n by negation."""
    return [[(-x) % n if odd else x for x in range(n)] for odd in g_parity]


def _subgroup_incl(g, e_elems):
    """Inclusion image of a subgroup listed identity first, with its table."""
    index = {x: i for i, x in enumerate(e_elems)}
    mul = [[index[g["mul"][a][b]] for b in e_elems] for a in e_elems]
    inv = [row.index(0) for row in mul]
    e = {"order": len(e_elems), "mul": mul, "inv": inv,
         "degrees": [1] * len(e_elems), "name": "sub"}
    return e, list(e_elems)


def _conj_act(g, e_elems):
    index = {x: i for i, x in enumerate(e_elems)}
    return [[index[g["mul"][g["mul"][x][y]][g["inv"][x]]] for y in e_elems]
            for x in range(g["order"])]


def cm_incl(g, e_elems, name):
    """Normal subgroup inclusion with the conjugation action."""
    e, image = _subgroup_incl(g, e_elems)
    return crossed(g, e, image, _conj_act(g, e_elems), name)


def cm_flip(n):
    """Z/2 acting on Z/n by negation, zero boundary."""
    g = cyclic(2)
    return crossed(g, cyclic(n), [0] * n, _neg_act([0, 1], n), f"flip-z{n}")


def cm_z4_z5():
    """Z/4 acting on Z/5 by x -> 2x, an automorphism of order 4."""
    g, e = cyclic(4), cyclic(5)
    act = [[(pow(2, k, 5) * x) % 5 for x in range(5)] for k in range(4)]
    return crossed(g, e, [0] * 5, act, "z4-on-z5")


def cm_s3_sign(n):
    """S3 acting on Z/n through its sign, zero boundary."""
    g = s3()
    return crossed(g, cyclic(n), [0] * n, _neg_act(_parity(g), n), f"s3-sign-z{n}")


def cm_z3_on_v4():
    """Z/3 permuting the three nonzero elements of Z/2 x Z/2."""
    g, e = cyclic(3), product(2, 2)
    # elements of e: 0=(0,0) 1=(0,1) 2=(1,0) 3=(1,1); cycle 1 -> 2 -> 3 -> 1
    cyc = [0, 2, 3, 1]
    rows = [list(range(4))]
    for _ in range(2):
        rows.append([cyc[v] for v in rows[-1]])
    return crossed(g, e, [0] * 4, rows, "z3-on-v4")


def cm_identity(g):
    """id: G -> G with conjugation."""
    elems = list(range(g["order"]))
    return crossed(g, g, elems, _conj_act(g, elems), f"id-{g['name']}")


def cm_cyclic_incl(n, m):
    """Z/m included in Z/n (m | n), trivial action."""
    g, e = cyclic(n), cyclic(m)
    return crossed(g, e, [x * (n // m) for x in range(m)], _trivial_act(g, e),
                   f"incl-z{m}-z{n}")


def cm_cyclic_zero(n, m):
    """Z/n, Z/m with zero boundary and trivial action."""
    g, e = cyclic(n), cyclic(m)
    return crossed(g, e, [0] * m, _trivial_act(g, e), f"zero-z{m}-z{n}")


def tower(a1, a2, a3, act2, act3, name):
    """Length-3 tower with zero boundaries."""
    return {"groups": [a1, a2, a3],
            "boundaries": [[0] * a2["order"], [0] * a3["order"]],
            "actions": [act2, act3], "name": name}


def tower_flip(n2, n3):
    """Z/2 acting by negation on Z/n2 and on Z/n3."""
    return tower(cyclic(2), cyclic(n2), cyclic(n3), _neg_act([0, 1], n2),
                 _neg_act([0, 1], n3), f"flip-z{n2}-z{n3}")


def tower_trivial(n1, n2, n3):
    a1, a2, a3 = cyclic(n1), cyclic(n2), cyclic(n3)
    return tower(a1, a2, a3, _trivial_act(a1, a2), _trivial_act(a1, a3),
                 f"z{n1}-z{n2}-z{n3}")


def relabel(cx, rng):
    """Renumber every group's elements at random, keeping 0 the identity."""
    perms = []
    groups = []
    for g in cx["groups"]:
        rest = list(range(1, g["order"]))
        rng.shuffle(rest)
        p = [0] + rest
        n = g["order"]
        mul = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                mul[p[a]][p[b]] = p[g["mul"][a][b]]
        inv = [0] * n
        for a in range(n):
            inv[p[a]] = p[g["inv"][a]]
        groups.append(dict(g, mul=mul, inv=inv))
        perms.append(p)
    p1 = perms[0]
    boundaries = []
    actions = []
    for k, (img, act) in enumerate(zip(cx["boundaries"], cx["actions"])):
        src, dst = perms[k + 1], perms[k]
        new_img = [0] * len(img)
        for e, v in enumerate(img):
            new_img[src[e]] = dst[v]
        new_act = [[0] * len(row) for row in act]
        for x, row in enumerate(act):
            for e, v in enumerate(row):
                new_act[p1[x]][src[e]] = src[v]
        boundaries.append(new_img)
        actions.append(new_act)
    return dict(cx, groups=groups, boundaries=boundaries, actions=actions)


def complex_doc(cx):
    return {"L": len(cx["groups"]),
            "groups": [{"order": g["order"], "mul": g["mul"], "name": g["name"]}
                       for g in cx["groups"]],
            "boundaries": cx["boundaries"], "actions": cx["actions"],
            "name": cx["name"]}


# ---------------------------------------------------------- presentations

def pres(cells, attach, name):
    return {"cells": list(cells),
            "attach": {str(k): v for k, v in attach.items() if v}, "name": name}


def genus(g):
    w = []
    for i in range(g):
        a, b = 2 * i, 2 * i + 1
        w += [[a, 1], [b, 1], [a, -1], [b, -1]]
    return pres([1, 2 * g, 1], {2: [w]}, f"genus:{g}")


TORUS = genus(1)
TORUS["name"] = "torus"
RP2 = pres([1, 1, 1], {2: [[[0, 1], [0, 1]]]}, "rp2")
SPHERE2 = pres([1, 0, 1], {2: [[]]}, "sphere:2")
SPHERE2_TWO = pres([1, 1, 2], {2: [[[0, 1]], [[0, -1]]]}, "sphere2-two-cells")
DISK2 = pres([1, 1, 1], {2: [[[0, 1]]]}, "disk:2")
POINT = pres([1], {}, "point")
DISK3 = pres([1, 0, 1, 1], {2: [[]], 3: [[[[], 0, 1]]]}, "disk:3")


def wedge2(p, q):
    """One-point union of two presentations of dimension <= 2."""
    s1 = p["cells"][1] if len(p["cells"]) > 1 else 0
    cells = [1] + [(p["cells"][n] if n < len(p["cells"]) else 0)
                   + (q["cells"][n] if n < len(q["cells"]) else 0) for n in (1, 2)]
    words = p["attach"].get("2", []) + [
        [[g + s1, e] for g, e in w] for w in q["attach"].get("2", [])]
    return pres(cells, {2: words}, f"{p['name']} v {q['name']}")


def relabel_generators(p, rng):
    """Renumber the 1-cells at random, in the words of every dimension.

    The morphism set is the same up to the renumbering, and so is the work
    of counting or listing it.  Cells of higher dimension keep their order,
    because the search stops at the first failing cell of a layer.
    """
    l1 = p["cells"][1] if len(p["cells"]) > 1 else 0
    perm = list(range(l1))
    rng.shuffle(perm)

    def word(w):
        return [[perm[g], e] for g, e in w]

    attach = {}
    for n in range(2, len(p["cells"])):
        items = p["attach"].get(str(n), [])
        if n == 2:
            attach[n] = [word(w) for w in items]
        elif n == 3:
            attach[n] = [[[word(u), r, e] for u, r, e in cw] for cw in items]
        else:
            attach[n] = [[[c, word(t), g] for c, t, g in elt] for elt in items]
    return pres(p["cells"], attach, p["name"])


def random_relators(rng, l1, lengths, wide):
    """Relator words over l1 generators.

    Wide relators draw each letter from all generators, so letters of one
    generator sit far apart; narrow ones walk along neighbouring generators,
    so each generator is live over a short stretch of the word.
    """
    words = []
    for length in lengths:
        w = []
        while len(w) < length:
            if wide:
                g = rng.randrange(l1)
            else:
                g = min(l1 - 1, max(0, (w[-1][0] if w else 0) + rng.choice((0, 1, 1))))
            e = rng.choice((1, -1))
            if w and w[-1][0] == g and w[-1][1] == -e:
                continue  # keep words freely reduced
            w.append([g, e])
        words.append(w)
    # every generator occurs in a relator, so none is a free factor
    used = {g for w in words for g, _ in w}
    for g in sorted(set(range(l1)) - used):
        words[g % len(words)].append([g, 1])
    return words


def random_tower_pres(rng, l1, l2, l3, l4, l5):
    """A presentation of dimension 4 or 5 that validates structurally.

    2-cells: two are spherical (empty word), the rest random short words.
    3-cells: crossed words mixing spherical terms (arbitrary) and Peiffer
    pairs (u, r, +1)(u R, r, -1), both of which bound freely.
    4- and 5-cells: random module elements.
    """
    def word(n):
        return [[rng.randrange(l1), rng.choice((1, -1))] for _ in range(n)]

    spherical = min(2, l2)
    attach2 = [[] for _ in range(spherical)]
    attach2 += [word(rng.randint(2, 3)) for _ in range(l2 - spherical)]
    attach3 = []
    for _ in range(l3):
        cw = []
        for _ in range(rng.randint(2, 3)):
            s = rng.randrange(spherical)
            cw.append([word(rng.randint(0, 2)), s, rng.choice((1, -1))])
        r = rng.randrange(l2)
        u = word(rng.randint(0, 1))
        cw.append([u, r, 1])
        cw.append([u + attach2[r], r, -1])
        attach3.append(cw)
    attach4 = [[[rng.randint(-2, 2) or 1, word(rng.randint(0, 1)), rng.randrange(l3)]
                for _ in range(rng.randint(1, 3))] for _ in range(l4)]
    attach5 = [[[rng.randint(1, 2), word(rng.randint(0, 1)), rng.randrange(l4)]]
               for _ in range(l5)]
    cells = [1, l1, l2, l3, l4] + ([l5] if l5 else [])
    return pres(cells, {2: attach2, 3: attach3, 4: attach4, 5: attach5},
                f"tower-{l1}{l2}{l3}{l4}{l5}")


# ----------------------------------------------------------------- ops

def _op(command, p, cx, extra=()):
    return {"command": command, "extra": list(extra), "pres": p, "cx": cx}


def count_surfaces(rng):
    """`count` on surfaces and random one- and two-relator presentations.

    Ops come in cost groups (layer-1 colourings, heaviest first) sized so
    that the median op and the tail op fall inside a group, not on the step
    between two groups.  A relator op is (one-cells, relator lengths, wide,
    coefficients); see random_relators for wide and narrow.
    """
    incl_z2_z4, incl_z2_z8, incl_z3_z6 = (cm_cyclic_incl(4, 2), cm_cyclic_incl(8, 2),
                                          cm_cyclic_incl(6, 3))
    z2_d4 = cm_incl(d4(), center(d4()), "z2-d4")
    groups = [
        # 46656-65536 colourings
        [(4, "z4"), (4, "z2xz2"), (3, "s3"), (3, "z6"),
         (8, [14], True, "z2xz2"), (6, [12], True, "z6")],
        # 32768-46656 colourings
        [(5, [10], True, "z8"), (5, [8, 8], True, "z8"), (5, [10], False, "d4"),
         (5, [12], True, "d4"), (5, [10], True, "z2xz4"), (5, [12], False, "z2xz4"),
         (5, [10], True, incl_z2_z8), (6, [8, 8], False, incl_z3_z6),
         (6, [6, 6], True, "s3")],
        # 15625-16807 colourings
        [(5, [12], True, "z7"), (3, "z5"), (6, [12], False, "z5"), (7, [8, 10], False, "z4"),
         (7, [14], True, "z2xz2"), (5, [10], False, "z7")],
        # 4096 colourings
        [(2, "z8"), (2, "z2xz4"), (3, "z4"), (3, "z2xz2"), (2, "d4"), (3, incl_z2_z4),
         (4, [10], True, "z8"), (6, [8, 8], True, "z4"), (4, [8, 6], True, "d4"),
         (2, incl_z2_z8), (4, [8], True, z2_d4)],
        # 256-2401 colourings
        [(2, "z7"), (2, "s3"), (4, [6, 6], True, "s3"), (2, "z6"),
         (2, cm_incl(s3(), [0, 3, 4], "a3-s3")), (2, incl_z3_z6),
         (5, [10], True, incl_z2_z4), (2, "z5"), (2, "z2xz2"), (2, "z4"), (2, incl_z2_z4),
         (4, [8], True, "z7"), (4, [8], False, "s3"), (4, [6, 6], True, "z6"),
         (5, [10], True, "z4"), (5, [8], False, "z2xz2"), (4, [8], True, "z5"),
         (4, [6], False, "z6"), (4, [8, 6], False, "z4"), (4, [8], False, incl_z2_z4)],
    ]
    ops = []
    for k, slot in enumerate(slot for group in groups for slot in group):
        cx = slot[-1]
        cx = relabel(from_group(GROUPS[cx]()) if isinstance(cx, str) else cx, rng)
        if len(slot) == 2:
            p = genus(slot[0])
        else:
            l1, lengths, wide, _ = slot
            words = random_relators(random.Random(f"count-surfaces:{k}"), l1, lengths, wide)
            p = pres([1, l1, len(words)], {2: words},
                     f"{'wide' if wide else 'narrow'}-{l1}-{len(words)}")
        ops.append(_op("count", relabel_generators(p, rng), cx))
    return ops


def classes_crossed(rng):
    """`classes` on 2-dimensional spaces against crossed modules and towers.

    Ops come in cost groups (homotopy edges walked, heaviest first) sized so
    that the median op and the tail op fall inside a group, not on the step
    between two groups.
    """
    flip3, flip4, flip5 = cm_flip(3), cm_flip(4), cm_flip(5)
    z4z5, a3, ids3 = cm_z4_z5(), cm_incl(s3(), [0, 3, 4], "a3-s3"), cm_identity(s3())
    tf33, t222 = tower_flip(3, 3), tower_trivial(2, 2, 2)
    g2, g3 = genus(2), genus(3)
    w = wedge2
    groups = [
        # 8k-16k edges
        [(g3, t222), (g2, cm_s3_sign(2)), (g2, flip4), (g2, tf33), (w(TORUS, TORUS), flip3),
         (w(TORUS, DISK2), tf33), (w(SPHERE2, TORUS), z4z5)],
        # about 4k edges
        [(g2, flip3), (g2, cm_cyclic_incl(4, 2)), (w(DISK2, TORUS), flip4),
         (TORUS, cm_identity(d4())), (w(TORUS, TORUS), t222),
         (w(DISK2, TORUS), cm_s3_sign(3)), (w(DISK2, RP2), tower_flip(3, 5))],
        # 2.3k-3.1k edges
        [(w(TORUS, SPHERE2_TWO), flip3), (w(RP2, RP2), tf33), (w(DISK2, SPHERE2_TWO), flip5),
         (w(RP2, RP2), flip5), (w(SPHERE2, TORUS), cm_z3_on_v4())],
        # 1k-1.5k edges
        [(TORUS, ids3), (w(DISK2, DISK2), ids3), (w(RP2, RP2), cm_s3_sign(3)), (g2, t222),
         (w(RP2, RP2), flip4), (w(TORUS, RP2), t222), (w(DISK2, TORUS), flip3),
         (w(SPHERE2, TORUS), cm_s3_sign(3)), (w(DISK2, RP2), tf33), (TORUS, tower_flip(5, 3))],
        # under 1k edges
        [(TORUS, tower_trivial(3, 3, 3)), (w(DISK2, DISK2), flip5),
         (w(DISK2, SPHERE2_TWO), tower_trivial(2, 2, 3)), (RP2, flip3), (SPHERE2, flip5),
         (SPHERE2, cm_identity(d4())), (SPHERE2_TWO, flip3), (RP2, ids3), (TORUS, flip3),
         (RP2, tower_flip(3, 5)), (SPHERE2, tower_flip(5, 5)), (TORUS, a3),
         (TORUS, cm_s3_sign(3)), (TORUS, cm_z3_on_v4()), (TORUS, flip5), (TORUS, flip4),
         (w(DISK2, SPHERE2), flip4), (RP2, cm_s3_sign(5)), (RP2, z4z5)],
    ]
    return [_op("classes", relabel_generators(p, rng), relabel(cx, rng))
            for group in groups for p, cx in group]


# (tower, shape (l1, l2, l3, l4, l5), band of morphism counts)
TOWER_SLOTS = [
    ("z3", (3, 3, 2, 1, 0), (81, 81)), ("z3", (4, 3, 2, 2, 0), (243, 243)),
    ("z3", (4, 4, 3, 2, 1), (243, 243)), ("z3", (5, 4, 3, 3, 0), (729, 729)),
    ("z3", (4, 3, 3, 1, 1), (729, 729)), ("z3", (5, 3, 2, 2, 0), (729, 729)),
    ("z3", (5, 4, 2, 2, 0), (2187, 2187)), ("z3", (5, 4, 2, 1, 0), (2187, 2187)),
    ("z3", (5, 4, 3, 1, 0), (2187, 2187)), ("z3", (4, 4, 2, 1, 0), (729, 729)),
    ("z3", (3, 4, 2, 1, 0), (243, 243)),
    ("flip", (3, 3, 2, 1, 0), (72, 72)), ("flip", (4, 3, 2, 2, 1), (48, 48)),
    ("flip", (4, 4, 3, 2, 0), (216, 216)), ("flip", (5, 4, 2, 1, 0), (324, 432)),
    ("flip", (3, 4, 2, 2, 0), (108, 108)), ("flip", (5, 3, 2, 1, 1), (288, 288)),
    ("flip", (4, 3, 3, 3, 0), (72, 72)), ("flip", (5, 4, 3, 1, 0), (432, 648)),
    ("flip", (5, 4, 2, 2, 0), (216, 324)), ("flip", (4, 4, 2, 1, 1), (216, 324)),
    ("z2", (4, 3, 3, 1, 0), (64, 64)), ("z2", (5, 4, 3, 2, 1), (128, 128)),
    ("z2", (3, 3, 2, 2, 0), (16, 32)), ("z2", (5, 3, 2, 1, 0), (128, 128)),
    ("z2", (5, 4, 3, 3, 1), (64, 64)), ("z2", (4, 4, 2, 1, 0), (128, 128)),
    ("z2", (5, 4, 2, 1, 0), (128, 256)), ("z2", (5, 3, 3, 2, 0), (64, 128)),
    ("z2", (4, 3, 2, 1, 1), (32, 64)),
]


def tower_enumerate(rng, count_ref):
    """`count --enumerate` and `invariant` on length-3 towers.

    `count_ref(pres, cx)` is the benchmark's reference count.  Each slot's
    attaching data are drawn from the slot's own fixed stream until the
    count lies in the slot's band; the seed then renumbers 1-cells and
    elements, so every seed lists the same number of morphisms with the
    same search work.
    """
    towers = {"z3": lambda: tower_trivial(3, 3, 3), "flip": lambda: tower_flip(3, 3),
              "z2": lambda: tower_trivial(2, 2, 2)}
    ops = []
    for k, (kind, shape, (lo, hi)) in enumerate(TOWER_SLOTS):
        cx = towers[kind]()
        draw = random.Random(f"tower-enumerate:{k}")
        for _ in range(2000):
            p = random_tower_pres(draw, *shape)
            if lo <= count_ref(p, cx) <= hi:
                break
        else:
            raise RuntimeError(f"no {kind} tower presentation of shape {shape} "
                               f"has between {lo} and {hi} morphisms")
        p, cx = relabel_generators(p, rng), relabel(cx, rng)
        ops.append(_op("count", p, cx, ["--enumerate"]))
        ops.append(_op("invariant", p, cx))
    return ops


# (complex, number of ops on it), heaviest first; |A_1| runs from 60 to 160.
# The op counts put the median op and the tail op inside a group of ops of
# equal table size, not on the step between two sizes.
LARGE_TABLES = [
    (lambda: from_group(cyclic(160)), 1), (lambda: from_group(product(2, 4, 16)), 1),
    (lambda: from_group(cyclic(112)), 4), (lambda: from_group(product(8, 12)), 7),
    (lambda: cm_cyclic_zero(80, 3), 6), (lambda: from_group(cyclic(72)), 6),
    (lambda: cm_cyclic_incl(64, 2), 6), (lambda: from_group(cyclic(60)), 5),
    (lambda: from_group(product(6, 10)), 4), (lambda: cm_cyclic_incl(60, 2), 4),
]


def large_tables(rng):
    """`count` and `invariant` of small spaces against big table complexes."""
    spaces = [POINT, SPHERE2, TORUS, DISK3]
    ops = []
    for make, uses in LARGE_TABLES:
        cx = relabel(make(), rng)
        for k in range(uses):
            ops.append(_op(("count", "invariant")[k % 2], spaces[(k // 2 + uses) % 4], cx))
    return ops


def generate(workload, seed, count_ref):
    """The op list of one workload and seed, in the order the run uses."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "count-surfaces":
        ops = count_surfaces(rng)
    elif workload == "classes-crossed":
        ops = classes_crossed(rng)
    elif workload == "tower-enumerate":
        ops = tower_enumerate(rng, count_ref)
    elif workload == "large-tables":
        ops = large_tables(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops

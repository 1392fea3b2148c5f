"""Self-contained acceptance checks, runnable from the CLI and the tests.

Each criterion is a function returning a CheckResult; `run_all` runs the
nine of them in order.  The suite is deterministic (fixed seeds) and sized
to finish in well under a minute on a laptop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .complexes import FiniteCrossedComplex, from_crossed_module, pi1, size_at, validate
from .documents import dump_complex, load_complex
from .enumeration import count_homs, count_homs_bruteforce, enumerate_homs
from .errors import InstanceTooLarge, ResultTooLarge, TargetNotMorphism
from .groups import GroupAction, GroupHom, hom_violation, symmetric_group_3
from .homotopies import count_homotopies, homotopy_classes, homotopy_orbit
from .invariant import format_rational, invariant_ia, normalization_factor
from .library import resolve_coefficients, resolve_space, standard_coefficients, standard_spaces
from .presentations import (
    disk,
    genus_surface,
    point,
    relabel_cells,
    rp2,
    sphere,
    torus,
    wedge,
)
from .randomgen import random_instances

SEED = 20260819
RANDOM_INSTANCES = 24
MUTATIONS = 100
EDGE_BUDGET = 10_000


@dataclass
class CheckResult:
    number: int
    name: str
    ok: bool
    details: str


def _suite_pairs():
    return [(p, cx) for p in standard_spaces() for cx in standard_coefficients()]


def check_oracle_equivalence() -> CheckResult:
    """count_homs, by either engine, equals the brute-force count on random
    and builtin instances."""
    labelled = [(f"random #{i}", p, cx)
                for i, (p, cx) in enumerate(random_instances(SEED, RANDOM_INSTANCES), start=1)]
    labelled += [(f"{p.name} x {cx.name}", p, cx) for p, cx in _suite_pairs()]
    bad = []
    for label, p, cx in labelled:
        fast, slow = count_homs(p, cx), count_homs_bruteforce(p, cx)
        if fast != slow:
            bad.append(f"{label}: {fast} != {slow}")
    details = f"{len(labelled)} instances" + (f"; mismatches: {'; '.join(bad)}" if bad else "")
    return CheckResult(1, "oracle equivalence", not bad, details)


def check_decomposition_invariance() -> CheckResult:
    """Invariant agrees across different cell decompositions of one space."""
    families = [
        [point(), disk(2)],
        [point(), disk(3)],
        [sphere(2), resolve_space("sphere2-two-cells")],
    ]
    for base in (torus(), rp2(), sphere(2)):
        for n in (2, 3):
            families.append([base, wedge(base, disk(n))])
    bad = []
    checked = 0
    for cx in standard_coefficients():
        for family in families:
            vals = [invariant_ia(p, cx) for p in family]
            checked += 1
            if len(set(vals)) != 1:
                names = ", ".join(p.name for p in family)
                bad.append(f"{{{names}}} x {cx.name}: "
                           + ", ".join(format_rational(v) for v in vals))
    details = f"{checked} family/coefficient combinations"
    if bad:
        details += "; disagreements: " + "; ".join(bad)
    return CheckResult(2, "decomposition invariance", not bad, details)


def check_disk_wedge_counts() -> CheckResult:
    """#Hom(P v disk(n)) = #Hom(P) * |A_n| for every suite pair and n."""
    bad = []
    checked = 0
    for p, cx in _suite_pairs():
        base = count_homs(p, cx)
        for n in (2, 3, 4):
            lhs = count_homs(wedge(p, disk(n)), cx)
            rhs = base * size_at(cx, n)
            checked += 1
            if lhs != rhs:
                bad.append(f"{p.name} v disk:{n} x {cx.name}: {lhs} != {rhs}")
    details = f"{checked} identities"
    if bad:
        details += "; failures: " + "; ".join(bad)
    return CheckResult(3, "disk-wedge count identity", not bad, details)


def check_euler_identity() -> CheckResult:
    """The Euler characteristic identity in orbit-stabiliser form.

    On the suite pairs whose class graph fits EDGE_BUDGET, every class of
    the generator-edge walk is compared with a walk of the full
    homotopy value space at its representative f: the distinct targets
    number |class(f)|, and |class(f)| * |Stab(f)| = #homotopies out of f,
    where Stab(f) holds the homotopies whose target is f.  Summing
    #homotopies / |Stab(f)| over the classes then recovers the morphism
    count, so I_A(P) = normalization * that sum.
    """
    bad = []
    checked = classes = 0
    for p, cx in _suite_pairs():
        try:
            dec = homotopy_classes(p, cx, cap=EDGE_BUDGET)
        except (InstanceTooLarge, ResultTooLarge):
            continue
        total = Fraction(0)
        per = count_homotopies(p, cx)
        for f, size in zip(dec.representatives, dec.sizes):
            orbit, stab = homotopy_orbit(p, cx, f)
            if orbit != size or size * stab != per:
                bad.append(f"{p.name} x {cx.name} class of {f}: size {size},"
                           f" orbit {orbit}, stabiliser {stab}, homotopies {per}")
            total += Fraction(per, stab)
        inv = invariant_ia(p, cx)
        if inv != normalization_factor(p, cx) * total:
            bad.append(f"{p.name} x {cx.name}: invariant {format_rational(inv)}"
                       f" != normalization x {format_rational(total)}")
        checked += 1
        classes += dec.count
    details = f"{checked} instances, {classes} classes"
    if bad:
        details += "; mismatches: " + "; ".join(bad[:5])
    return CheckResult(4, "euler characteristic identity", not bad, details)


def check_named_values() -> CheckResult:
    """Frozen reference values and values from the literature.

    A genus-g surface has |G| sum_chi (|G|/chi(1))^(2g-2) morphisms into a
    group G (Mednykh 1978); S3's character degrees are 1, 1, 2.  The
    projective plane's morphisms into G are the x in G with x^2 = 1.
    """
    s3 = resolve_coefficients("s3")
    cases = [
        ("torus x s3", torus(), s3, "18"),
        ("rp2 x z2", rp2(), resolve_coefficients("z2"), "2"),
        ("rp2 x z3", rp2(), resolve_coefficients("z3"), "1"),
    ]
    for g in range(2, 9):
        mednykh = sum(6 * (6 // d) ** (2 * g - 2) for d in (1, 1, 2))
        cases.append((f"genus:{g} x s3", genus_surface(g), s3, str(mednykh)))
    for name in ("z2", "z3", "z4", "s3", "z2xz2"):
        cx = resolve_coefficients(name)
        a1 = cx.groups[0]
        roots = sum(1 for x in range(a1.order) if a1.mul[x][x] == 0)
        cases.append((f"rp2 x {name}", rp2(), cx, str(roots)))
    for cx in standard_coefficients():
        cases.append((f"point x {cx.name}", point(), cx, "1"))
    bad = []
    for label, p, cx, want in cases:
        got = format_rational(invariant_ia(p, cx))
        if got != want:
            bad.append(f"{label}: got {got}, want {want}")
    details = f"{len(cases)} named values"
    if bad:
        details += "; wrong: " + "; ".join(bad)
    return CheckResult(5, "named invariant values", not bad, details)


def check_class_counts() -> CheckResult:
    """Homotopy classes of maps out of the circle biject with pi1."""
    bad = []
    circle = sphere(1)
    for cx in standard_coefficients():
        want = pi1(cx).order
        got = homotopy_classes(circle, cx).count
        if got != want:
            bad.append(f"{cx.name}: {got} classes, |pi1| = {want}")
    details = f"{len(standard_coefficients())} coefficient complexes"
    if bad:
        details += "; mismatches: " + "; ".join(bad)
    return CheckResult(6, "circle classes count pi1", not bad, details)


def _conjugation_crossed_module() -> FiniteCrossedComplex:
    """S3 acting on itself by conjugation, with the identity as boundary."""
    s3 = symmetric_group_3()
    act = tuple(tuple(s3.mul[s3.mul[g][e]][s3.inv[g]] for e in range(6)) for g in range(6))
    return from_crossed_module(s3, s3, GroupHom(s3, s3, tuple(range(6))),
                               GroupAction(s3, s3, act), name="s3-conj")


def check_connection_validity() -> CheckResult:
    """Every homotopy target on the small suite pairs and on the torus against
    the S3 conjugation module (injective d_2, twisted action) is a morphism:
    `homotopy_orbit` verifies every target out of each listed morphism."""
    failures = []
    edges = 0
    for p, cx in _suite_pairs() + [(torus(), _conjugation_crossed_module())]:
        homs = enumerate_homs(p, cx)
        out_of_each = count_homotopies(p, cx)
        if not homs or out_of_each * len(homs) > EDGE_BUDGET:
            continue
        edges += out_of_each * len(homs)
        for f in homs:
            try:
                homotopy_orbit(p, cx, f)
            except TargetNotMorphism as exc:
                failures.append(f"{p.name} x {cx.name}: {exc}")
    details = f"{edges} homotopy targets verified"
    if failures:
        details += "; failures: " + "; ".join(failures[:5])
    return CheckResult(7, "homotopy targets are morphisms", not failures, details)


def _mutation_sites(cx: FiniteCrossedComplex) -> list[tuple]:
    sites: list[tuple] = []
    for n, g in enumerate(cx.groups, start=1):
        if g.order < 2:
            continue
        sites.extend(("mul", n, a, b) for a in range(g.order) for b in range(g.order))
        sites.extend(("inv", n, x) for x in range(g.order))
    for n in range(2, cx.length + 1):
        if cx.boundary(n).target.order >= 2:
            sites.extend(("bd", n, x) for x in range(cx.boundary(n).source.order))
        if cx.action(n).space.order >= 2:
            sites.extend(
                ("act", n, g, e)
                for g in range(cx.groups[0].order)
                for e in range(cx.action(n).space.order))
    return sites


_EXPECTED = {
    "mul": frozenset({"group-identity", "group-inverse", "group-associativity"}),
    "inv": frozenset({"group-inverse"}),
    "bd": frozenset({"boundary-hom"}),
    "act": frozenset({"action-bijective"}),
}


def _mutate(cx: FiniteCrossedComplex, site: tuple, rng: random.Random):
    """Apply a single-entry mutation; returns (complex, expected axiom names),
    or None at a boundary entry where every other value still gives a homomorphism.

    A document holds no inverses, so an `inv` site swaps in a copy of its
    group; every other site edits `dump_complex(cx)` and loads it back.
    """
    kind, n, *at = site
    if kind == "inv":
        g = cx.groups[n - 1]
        inv = list(g.inv)
        inv[at[0]] = rng.choice([v for v in range(g.order) if v != inv[at[0]]])
        groups = list(cx.groups)
        groups[n - 1] = replace(g, inv=tuple(inv))
        return replace(cx, groups=tuple(groups)), _EXPECTED[kind]
    doc = dump_complex(cx)
    if kind == "bd":
        bd, (x,) = cx.boundary(n), at
        image = doc["boundaries"][n - 2]
        # a changed entry can occasionally leave the map a homomorphism
        # (zero vs identity on Z/2), and even a valid complex; only plant
        # values that provably break the hom property
        candidates = [v for v in range(bd.target.order) if v != image[x]]
        rng.shuffle(candidates)
        new = next((v for v in candidates if hom_violation(GroupHom(
            bd.source, bd.target, (*image[:x], v, *image[x + 1:]))) is not None), None)
        if new is None:
            return None
        image[x] = new
    else:
        table = doc["groups"][n - 1]["mul"] if kind == "mul" else doc["actions"][n - 2]
        row, i = table[at[0]], at[1]
        row[i] = rng.choice([v for v in range(len(row)) if v != row[i]])
    return load_complex(doc), _EXPECTED[kind]


def check_mutation_fuzzing() -> CheckResult:
    """Planted single-entry defects are flagged with the right axiom name."""
    rng = random.Random(SEED + 8)
    complexes = [cx for cx in standard_coefficients() if _mutation_sites(cx)]
    bad = []
    for i in range(MUTATIONS):
        cx = complexes[i % len(complexes)]
        planted = None
        while planted is None:
            site = rng.choice(_mutation_sites(cx))
            planted = _mutate(cx, site, rng)
        mutated, expected = planted
        report = validate(mutated)
        if report.ok:
            bad.append(f"#{i} {cx.name} {site}: mutation not detected")
        elif not (report.names() & expected):
            bad.append(f"#{i} {cx.name} {site}: reported {sorted(report.names())}, "
                       f"expected one of {sorted(expected)}")
    details = f"{MUTATIONS} mutations"
    if bad:
        details += "; failures: " + "; ".join(bad[:5])
    return CheckResult(8, "mutation fuzzing names axioms", not bad, details)


def check_relabelling_invariance() -> CheckResult:
    """Counts, invariants and class sizes survive reversing the cell order
    in every dimension, on random and builtin instances."""
    instances = random_instances(SEED, RANDOM_INSTANCES) + _suite_pairs()
    bad = []
    partitions = 0
    for p, cx in instances:
        q = relabel_cells(
            p, {n: tuple(reversed(range(p.count(n)))) for n in range(1, p.dim + 1)})
        cp, cq = count_homs(p, cx), count_homs(q, cx)
        if cp != cq:
            bad.append(f"count {p.name} x {cx.name}: {cp} != {cq}")
        if invariant_ia(p, cx) != invariant_ia(q, cx):
            bad.append(f"invariant {p.name} x {cx.name}")
        try:
            sp = sorted(homotopy_classes(p, cx, cap=EDGE_BUDGET).sizes)
        except (InstanceTooLarge, ResultTooLarge):
            continue
        partitions += 1
        sq = sorted(homotopy_classes(q, cx).sizes)
        if sp != sq:
            bad.append(f"classes {p.name} x {cx.name}: {sp} != {sq}")
    details = f"{len(instances)} instances, {partitions} class partitions"
    if bad:
        details += "; changed by relabelling: " + "; ".join(bad)
    return CheckResult(9, "cell relabelling invariance", not bad, details)


def run_all() -> list[CheckResult]:
    return [
        check_oracle_equivalence(),
        check_decomposition_invariance(),
        check_disk_wedge_counts(),
        check_euler_identity(),
        check_named_values(),
        check_class_counts(),
        check_connection_validity(),
        check_mutation_fuzzing(),
        check_relabelling_invariance(),
    ]

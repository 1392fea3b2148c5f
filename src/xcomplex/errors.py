"""Exception types shared across the package, plus the validation report
container used by the group, complex and presentation validators."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional


class XComplexError(Exception):
    """Base class for package errors; `witness` pins the first offending tuple."""

    def __init__(self, message: str, witness: Optional[tuple] = None):
        super().__init__(message)
        self.witness = witness


class DimensionMismatch(XComplexError):
    """Tables or arrays whose shapes or index ranges do not line up."""


class NoIdentityAtZero(XComplexError):
    """Index 0 does not act as a two-sided identity."""


class MissingInverse(XComplexError):
    """Some element has no two-sided inverse."""


class NotAssociative(XComplexError):
    """Multiplication table fails associativity."""


class IndexOutOfRange(XComplexError):
    """Degree argument outside the meaningful range."""


class ResultTooLarge(XComplexError):
    """Enumeration output would exceed the configured cap."""


class InstanceTooLarge(XComplexError):
    """A work estimate (brute-force space, counting plan, listing walk) exceeds the cap."""


class TargetNotMorphism(XComplexError):
    """A homotopy target failed morphism verification."""


class ParseError(XComplexError):
    """Malformed input document."""


@dataclass
class ValidationReport:
    """Outcome of an exhaustive axiom sweep.

    `violations` holds (axiom, witness) pairs, one entry per failing check
    site with the first witness found there.  `ok` is true exactly when the
    list is empty.  Axiom names are stable strings; the complex validator
    uses: group-identity, group-inverse, group-associativity, boundary-hom,
    action-bijective, action-hom, action-identity, action-composition, CM1,
    Peiffer, equivariance, complex, abelian, factoring.  The presentation
    validator uses: base-cells, cell-count, attach-arity, attach-shape (any
    level of attaching data that is no tuple or list, a letter that is no
    (gen, exp) pair, a term that is no (word, cell, power) triple),
    generator-range, exponent, boundary-boundary.
    """

    ok: bool
    violations: list[tuple[str, tuple]] = field(default_factory=list)

    @classmethod
    def from_violations(cls, violations: Iterable[tuple[str, tuple]]) -> "ValidationReport":
        vs = list(violations)
        return cls(ok=not vs, violations=vs)

    def names(self) -> set[str]:
        return {name for name, _ in self.violations}


class InvalidComplex(XComplexError):
    """Construction rejected because validation failed; carries the report."""

    def __init__(self, report: ValidationReport):
        names = ", ".join(sorted(report.names()))
        super().__init__(f"validation failed: {names}")
        self.report = report

"""Defect arithmetic.

Ostrowski's identity for a unique extension of valued fields,
degree = e * f * p^delta, determines the defect exponent delta from the
declared extension data.  Admissible-family decompositions contribute an
independent route to the same quantity: the product of the per-family
degree jumps equals p^delta, which ``consistency`` cross-checks.
Uniqueness of the extension is a declared input, not something this module
certifies.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError, JumpNotGtOne, NotOstrowski
from .scalars import check_ints, format_raw, is_prime


class ExtensionData:
    """Degree and ramification data of a finite extension of valued fields.

    ``p`` follows the residue-characteristic convention: 1 in residue
    characteristic zero, the prime otherwise.  ``fres`` defaults to 1, the
    standing situation of an algebraically closed residue field.
    """

    __slots__ = ("degree", "e", "fres", "p")

    def __init__(self, degree: int, e: int, fres: int = 1, p: int = 1):
        check_ints("degree, e, f or p", degree, e, fres, p)
        if degree <= 0 or e <= 0 or fres <= 0:
            raise InputError("degree, e and f must be positive")
        if p != 1 and not is_prime(p):
            raise InputError("p must be 1 (characteristic zero) or prime")
        self.degree, self.e, self.fres, self.p = degree, e, fres, p


def ostrowski(x: ExtensionData) -> int:
    """The unique delta with degree = e * fres * p^delta."""
    ef = x.e * x.fres
    if x.degree % ef != 0:
        raise NotOstrowski(f"{x.degree} is not divisible by e*f = {format_raw(ef)}")
    q = x.degree // ef
    if x.p == 1:
        if q != 1:
            raise NotOstrowski(f"residual quotient {q} in characteristic zero")
        return 0
    delta = 0
    while q % x.p == 0:
        q //= x.p
        delta += 1
    if q != 1:
        raise NotOstrowski(f"residual quotient is not a power of {x.p}")
    return delta


class SimpleFamily:
    """One simple admissible family: the degree of its first key polynomial
    and the (stable) degree of the keys of its continuous part."""

    __slots__ = ("first_degree", "stable_degree")

    def __init__(self, first_degree: int, stable_degree: int):
        check_ints("a key polynomial degree", first_degree, stable_degree)
        if first_degree <= 0 or stable_degree <= 0:
            raise InputError("key polynomial degrees are positive")
        if stable_degree < first_degree:
            raise InputError("degrees cannot decrease within a family")
        self.first_degree, self.stable_degree = first_degree, stable_degree


class FamilyDecomposition:
    __slots__ = ("families",)

    def __init__(self, families: tuple):
        if not families:
            raise InputError("a decomposition has at least one family")
        for fam in families:
            if not isinstance(fam, SimpleFamily):
                raise InputError("decomposition entries must be SimpleFamily")
        self.families = families


def jump_total(d: FamilyDecomposition) -> Fraction:
    """Product of the per-family degree jumps; each jump must exceed 1."""
    total = Fraction(1)
    for prev, nxt in zip(d.families, d.families[1:]):
        jump = Fraction(nxt.first_degree, prev.stable_degree)
        if jump <= 1:
            raise JumpNotGtOne(f"jump {jump} is not greater than 1")
        total *= jump
    return total


def consistency(x: ExtensionData, d: FamilyDecomposition) -> bool:
    """True iff p^ostrowski(x) equals the total jump of the decomposition."""
    delta = ostrowski(x)
    return Fraction(x.p) ** delta == jump_total(d)

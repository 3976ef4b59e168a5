"""Format/degree pairs and their computation on formulas.

The format of a formula is the larger of its atoms' formats and the number
of distinct variables appearing in it (free or quantified); the degree is
the sum of the degrees of its atom occurrences.  A polynomial atom in k
variables has format k and degree max(deg, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import Atom, Formula, NamedAtom


@dataclass(frozen=True, order=False)
class FDPair:
    format: int
    degree: int

    def __post_init__(self):
        if self.format < 0 or self.degree < 1:
            raise ValueError(f"bad FD pair ({self.format}, {self.degree})")

    def __le__(self, other):
        return self.format <= other.format and self.degree <= other.degree

    def __ge__(self, other):
        return other.__le__(self)

    def as_tuple(self):
        return (self.format, self.degree)

    def __repr__(self):
        return f"FD({self.format}, {self.degree})"


def atom_fd(atom, env=None) -> FDPair:
    """FD of a single atom occurrence."""
    if isinstance(atom, Atom):
        return FDPair(len(atom.poly.variables), max(atom.poly.total_degree(), 1))
    if isinstance(atom, NamedAtom):
        if env is None:
            raise ValueError("named atom requires an environment")
        _, fd = env.lookup(atom.name)
        return fd
    raise TypeError(f"not an atom: {atom!r}")


def fd_of_formula(psi: Formula, env=None) -> FDPair:
    pairs = [atom_fd(a, env) for a in psi.atoms()]
    if not pairs:
        raise ValueError("formula has no atoms")
    n = len(psi.all_vars())
    return FDPair(max(max(p.format for p in pairs), n),
                  sum(p.degree for p in pairs))


def pformat_of_formula(psi: Formula) -> int:
    """max of the formula's format and its parse-tree depth."""
    return max(fd_of_formula(psi).format, psi.depth())

"""Exception types shared across the package.

Every validation failure carries enough data to reproduce it: the
offending elements (as indices) and, where relevant, which operation
broke. Witnesses are always the lexicographically first offenders found
by an ascending scan, so error messages are deterministic. The
commutative monoid laws of every module, algebra and monoid are
checked by one routine (core_lattice._commutative_monoid), and every
morphism's preservation by another (core_lattice._check_map), so a
defect gets the same witness whichever structure carries it.
"""

from __future__ import annotations


class B1Error(Exception):
    """Base class for everything raised on purpose by this package."""


class LawViolation(B1Error):
    """An algebraic law failed on concrete elements.

    witness: tuple of element indices exhibiting the failure, or None.
    op: 'sum' or 'mul' when the structure has both operations.
    """

    def __init__(self, message, witness=None, op=None):
        super().__init__(message)
        self.witness = witness
        self.op = op


class NotIdempotent(LawViolation):
    pass


class NotCommutative(LawViolation):
    pass


class NotAssociative(LawViolation):
    pass


class NoBottom(LawViolation):
    """No element is neutral for the sum."""


class NoUnit(LawViolation):
    """The designated unit is not neutral for the product."""


class ZeroNotAbsorbing(LawViolation):
    """0 * x != 0 for some x."""


class NotDistributiveLaw(LawViolation):
    """x*(y+z) != x*y + x*z for some triple."""


class NotDecent(B1Error):
    """Scalar action disagrees with the forced one (0*m=0, 1*m=m)."""


class ZeroEqualsOne(B1Error):
    """An algebra needs at least the two distinguished elements."""


class CollapsesZeroOne(B1Error):
    """A congruence (or presentation closure) identified 0 with 1."""


class SizeTooLarge(B1Error):
    """Exhaustive enumeration refused above its documented size cap."""


class TooLarge(B1Error):
    """A presentation's quotient was not found within its element cap.

    stage: 'search' when no power rule of size at most the cap follows
    from the relations within the search's degree bound and no model
    was found, which does not prove the quotient large; 'closure' when
    the exact quotient has `size` elements, more than `bound`; 'model'
    when a quotient of a power algebra with `size` elements satisfies
    the relations, which proves the same (close_presentation tries the
    models after a search that found no rule; the census's presentation
    shrink asks monogenic._implies instead, two closures of the lost
    relation's sides in each model, and drops a trial whose lost
    relation fails in one without raising anything).
    """

    def __init__(self, message, stage, size=None, bound=None):
        super().__init__(message)
        self.stage = stage
        self.size = size
        self.bound = bound


class VariableMismatch(B1Error):
    """Polynomials over different variable tuples were combined."""


class UnknownVariable(B1Error):
    """Evaluation met a variable with no assigned value."""


class NotSubmonoid(B1Error):
    """Integrality test given a pair that is not monoid-inside-monoid."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotAGroup(B1Error):
    """A construction restricted to abelian groups got a non-group."""


class PolyParseError(B1Error):
    """Bad polynomial text. `position` is a 0-based character offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class StructureParseError(B1Error):
    """Bad structure file. Carries a 1-based line number."""

    def __init__(self, message, line, column=None):
        loc = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{message} ({loc})")
        self.line = line
        self.column = column

"""Exception hierarchy for cuspbase.

Errors that bad input causes also subclass ValueError: the command line
reports every ValueError as a usage error and any other CuspbaseError as an
internal invariant violation.
"""


class CuspbaseError(Exception):
    """Base class for all cuspbase errors."""


# -- series layer -----------------------------------------------------------

class OffGrid(CuspbaseError):
    """Exponent not representable on the series' exponent grid."""


class PrecisionExceeded(CuspbaseError):
    """Coefficient requested at or beyond the precision frontier."""


class NotAUnit(CuspbaseError):
    """Inversion of a series whose valuation is not zero."""


class ZeroWithinPrecision(CuspbaseError):
    """Valuation requested for a series with no known nonzero coefficient."""


# -- eta / weierstrass layer ------------------------------------------------

class FractionalValuation(CuspbaseError, ValueError):
    """Eta-quotient valuation has a denominator the grid cannot carry."""


class LatticePoint(CuspbaseError, ValueError):
    """Weierstrass expansion requested at a lattice point (a pole)."""


# -- dimensions / catalog ---------------------------------------------------

class UnsupportedLevel(CuspbaseError, ValueError):
    """Level a request cannot take: the catalogue holds data for levels
    1..10 only, and the dimension formulas need a level of at least 1."""


class OddWeight(CuspbaseError, ValueError):
    """Dimension formula requested at an odd or negative weight."""


class WeightMismatch(CuspbaseError, ValueError):
    """Expression tree mixes incompatible weights under a sum."""


class UnknownAtom(CuspbaseError, ValueError):
    """Expression references an atom name that is not registered."""


class ExprSyntaxError(CuspbaseError, ValueError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# -- basis engine -----------------------------------------------------------

class RankDeficient(CuspbaseError):
    """Fewer independent rows than the expected dimension."""

    def __init__(self, rank, expected):
        super().__init__(f"rank {rank} < expected dimension {expected}")
        self.rank = rank
        self.expected = expected


class RankExcess(CuspbaseError):
    """More independent rows than the expected dimension (non-form input)."""

    def __init__(self, expected):
        super().__init__(f"more independent rows than expected dimension {expected}")
        self.expected = expected


class InsufficientPrecision(CuspbaseError):
    """Series precision too low to certify the requested operation."""


class IncompleteSpan(CuspbaseError):
    """Atom closure failed to span the full space."""

    def __init__(self, level, weight, rank, expected):
        super().__init__(
            f"span at level {level} weight {weight} reached rank {rank} "
            f"of expected {expected}"
        )
        self.level = level
        self.weight = weight
        self.rank = rank
        self.expected = expected


class LadderConditionFailed(CuspbaseError):
    """The ladder dimension identity fails at the requested weight."""


class NotInSpan(CuspbaseError):
    """Membership test failed; carries the first unmatched exponent."""

    def __init__(self, exponent):
        super().__init__(f"not in span; first unmatched exponent {exponent}")
        self.exponent = exponent


class DecompositionMismatch(CuspbaseError):
    """Structure decomposition dimensions disagree with the space dimension."""

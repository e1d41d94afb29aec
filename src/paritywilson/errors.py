"""Exception types shared across the library."""


class ParityWilsonError(Exception):
    """Base class for all library-specific errors."""


class NoConvergence(ParityWilsonError):
    """An iterative summation or quadrature exceeded its configured cap."""


class DegenerateFamily(ParityWilsonError):
    """Family parameters hit a degenerate point (sqrt(B+1) a positive integer, or B <= -1)."""


class DomainPole(ParityWilsonError):
    """Evaluation requested at a pole or outside the real spectral domain."""


class LatticePole(ParityWilsonError):
    """A lattice point hit a zero of a denominator factor or of the base solution."""


class IllConditioned(ParityWilsonError):
    """A least-squares system was numerically singular."""


class InvalidSpin(ParityWilsonError):
    """Spin labels must be nonnegative half-integers."""

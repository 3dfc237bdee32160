"""Exception types shared across the library.

Every failure mode that callers are expected to handle gets its own class,
so tests and the command line can match on the exact condition instead of
parsing messages.
"""


class AugvarError(Exception):
    """Base class for all library errors."""


# ---------------------------------------------------------------- rings

class ZeroPolynomial(AugvarError):
    """Operation undefined for the zero polynomial."""


class NotInvertible(AugvarError):
    """Element has no inverse in its ring (for quotient rings this
    usually signals a reducible modulus)."""


class NonzeroConstantTerm(AugvarError):
    """A series that must have zero constant term has a nonzero one: the
    argument of the series exponential, or the degree-0 residual of
    ``rings.solve_exp_sum``."""


class ConstantTermNotOne(AugvarError):
    """Series logarithm requires a series with constant term one."""


class BackendMismatch(AugvarError):
    """Two values from different coefficient backends were combined."""


# -------------------------------------------------------------- laurent

class VariableMismatch(AugvarError):
    """Laurent polynomials or series over different variable lists."""


class NotAVertex(AugvarError):
    """The given exponent vector is not a vertex of the Newton polytope."""


class NotUnimodular(AugvarError):
    """Integer matrix does not have determinant +-1."""


class NegativeExponentAtZero(AugvarError):
    """Setting a variable to zero is undefined when it appears with a
    negative exponent."""


class NotInvertibleAtPoint(AugvarError):
    """Evaluation requires inverting a value that has no inverse."""


# ------------------------------------------------------------- polytope

class DimensionMismatch(AugvarError):
    """Polytopes with different ambient dimensions."""


class NotTwoDimensionalInput(AugvarError):
    """Operation restricted to ambient dimension two."""


class PreconditionViolation(AugvarError):
    """Structured input does not satisfy a documented precondition."""


class SearchBudgetExceeded(AugvarError):
    """A search would take more steps than its fixed budget allows."""


# ----------------------------------------------------------- potentials

class SignLengthMismatch(AugvarError):
    """Sign vector has the wrong number of entries."""


class NonPrimitiveRay(AugvarError):
    """Fan ray is zero or not primitive."""


class DegenerateFan(AugvarError):
    """Fan rays do not span the full lattice."""


class NotANormalizedTriple(AugvarError):
    """Markov triple not of the normalized (1, b, c) form."""


# -------------------------------------------------------------- augment

class NoRootAvailable(AugvarError):
    """Restricted polynomial has no rational root and no factor was
    supplied for a field extension."""


class DoubleRoot(AugvarError):
    """Chosen root is not transverse (the derivative vanishes there).

    Carries where the solver stopped: ``variable``, the name of the solved
    variable, and ``order``, the total degree to which the residual was
    known to vanish (0 when the root itself is not simple).  Each is None
    when not given.
    """

    def __init__(self, message, variable=None, order=None):
        super().__init__(message)
        self.variable = variable
        self.order = order


class MissingAssignment(AugvarError):
    """Augmentation candidate does not assign all required values."""


class IndexOutOfRange(AugvarError):
    """Sheet index outside the configured range."""


# ------------------------------------------------------------------ cli

class ParseError(AugvarError):
    """Malformed input file; message names the offending path."""


class VerificationFailure(AugvarError):
    """Computation finished but a verification identity failed."""

"""Exception types shared across the package."""


class ImapkError(Exception):
    """Base class for all errors raised by this package."""


class MixedFieldContexts(ImapkError):
    """Operands belong to different algebraic number field contexts."""


class DivisionByZero(ImapkError, ZeroDivisionError):
    pass


class InvalidNumberField(ImapkError):
    pass


class ReducibleMinimalPolynomial(InvalidNumberField):
    """The defining polynomial of a NumberField factors over Q: raised only by
    ``NumberField.__init__``, which decides irreducibility once
    (``polynomials.proper_factor``) and names the factor with the isolated
    root.  So every field is a field, and no later sign test or inverse guards it.
    """


class OutOfDomain(ImapkError):
    pass


class PartitionNotIncreasing(ImapkError):
    pass


class EndpointsNotZeroOne(ImapkError):
    pass


class ZeroSlope(ImapkError):
    pass


class BranchImageOutsideUnitInterval(ImapkError):
    pass


class NotAnExchangeMap(ImapkError):
    pass


class NotSquare(ImapkError):
    pass


class NotZeroOne(ImapkError):
    pass


class NotSurjective(ImapkError):
    pass


class NonIntegerDependence(ImapkError):
    """A rational linear dependence was found whose coefficients are not integers."""

    def __init__(self, coefficients):
        self.coefficients = list(coefficients)
        super().__init__(
            "dependence coefficients are rational but not integral: %s"
            % (self.coefficients,)
        )


class CyclicityNotEstablished(ImapkError):
    pass


class CertificateFailure(ImapkError):
    """A computed result failed the exact check that certifies it.

    Raised instead of ``assert`` so the check survives ``python -O``.
    """


class InconsistentCaseData(ImapkError):
    pass


class WrongFamily(ImapkError):
    pass


class ParameterOutOfRange(ImapkError):
    pass


class UnrealizableMatrix(ImapkError):
    pass


class HypothesisViolatedWithinCap(ImapkError):
    pass


class InvalidMarkovPartition(ImapkError):
    pass


class SpecSyntaxError(ImapkError):
    def __init__(self, message, line, column):
        self.line = line
        self.column = column
        super().__init__("line %d, column %d: %s" % (line, column, message))


class SpecSemanticError(ImapkError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = "line %d, column %d: %s" % (line, column or 0, message)
        super().__init__(message)

"""Exception hierarchy shared by all parhox modules."""


class ParhoxError(Exception):
    """Base class for all toolkit errors."""


class FieldMismatch(ParhoxError):
    pass


class DivisionByZero(ParhoxError, ZeroDivisionError):
    pass


class InvalidInput(ParhoxError):
    pass


class SchemaError(InvalidInput):
    pass


class SizeLimit(ParhoxError):
    pass


class NotNormalized(InvalidInput):
    pass


class NotIdempotent(InvalidInput):
    pass


class NotCommuting(InvalidInput):
    pass


class ValidationFailure(ParhoxError):
    """A validation gate failed; carries the offending report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class AssociativityFailure(ValidationFailure):
    pass


class CompletionDiverged(ParhoxError):
    pass


class NotCovariant(ValidationFailure):
    pass


class NotARepresentation(ValidationFailure):
    pass


class IsomorphismFailure(ParhoxError):
    pass


class EquivarianceFailure(ParhoxError):
    pass


class PropertyFailure(ParhoxError):
    pass

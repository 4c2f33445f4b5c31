"""Exception types shared across the toolkit."""


class OddkitError(Exception):
    """Base class for all oddkit errors."""


class MissingParameter(OddkitError):
    """A data point does not provide a value for a required parameter."""

    def __init__(self, parameter: str):
        self.parameter = parameter
        super().__init__(f"missing value for parameter {parameter!r}")


class IncompatibleParameters(OddkitError):
    """Two ODD nodes do not share the parameters required for an operation."""


class MissingTransform(OddkitError):
    """Inlier classification was requested without a declared preprocessing transform."""


class MissingExtension(OddkitError):
    """Novelty construction requires a chain with an extension node."""


class EmptyStratum(OddkitError):
    """The requested sampling stratum contains no admissible points."""


class EmptyInput(OddkitError):
    """An operation that requires data was given none."""


class StubEvaluationError(OddkitError):
    """The stub model failed to produce a finite output."""

"""Exception types shared across the package."""


class ParameterDomainError(ValueError):
    """A scalar argument lies outside its admissible domain."""


class InvalidStateError(ValueError):
    """An operator violates Hermiticity/positivity/trace requirements."""


class SizeLimitError(RuntimeError):
    """A computation would exceed the configured memory guard."""

"""Exception hierarchy. The CLI maps these onto its exit-code contract."""


class MaslovKitError(Exception):
    """Base class for all library errors."""


class DomainError(MaslovKitError):
    """Input outside the mathematical domain of an operation.

    Singular elements, points off the Shilov boundary, group words applied
    outside their domain, malformed input data. CLI exit code 2.
    """


class AmbiguityError(MaslovKitError):
    """A discrete answer could not be certified.

    Gray-zone transversality, a determination phi(g, z) at a point off the
    closed disk where a factor 1 + lambda_k of Delta_g(z) / Delta_g(0) leaves
    the open right half-plane, tangential crossings in strict mode, coranks
    that fit no admissible rank.
    CLI exit code 3.
    """


class IntegralityError(AmbiguityError):
    """An index came out too far from an integer (or with wrong parity)."""

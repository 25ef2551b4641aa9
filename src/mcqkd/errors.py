"""Typed errors raised across the toolkit.

``DomainError`` and its subclasses signal inputs that are syntactically fine
but lie outside the physical or analytic domain of a formula.  They subclass
``ValueError`` so generic argument validation and domain failures can be
caught together when the distinction does not matter.
"""


class DomainError(ValueError):
    """Input lies outside the domain where the requested quantity exists."""


class DegenerateRegimeError(DomainError):
    """The optimal-attack noise is undefined for these parameters.

    Raised when the bracketed SNR term that is inverted to obtain the
    attack-noise variance is not positive.  The offending value is kept on
    the ``bracket`` attribute for diagnostics.
    """

    def __init__(self, bracket: float, message: str | None = None):
        self.bracket = float(bracket)
        if message is None:
            message = (
                "optimal-attack noise undefined: the inverted SNR bracket "
                f"is {self.bracket:.6g} (must be > 0)"
            )
        super().__init__(message)


class SingularNoiseError(DomainError):
    """Excess noise diverges (the eavesdropper tap transmits everything)."""


class DegenerateInputError(DomainError):
    """Input data is degenerate for the requested fit or check; a Monte
    Carlo run attaches its partial result as ``outage``."""

    def __init__(self, message: str, outage=None):
        self.outage = outage
        super().__init__(message)


class InsufficientTrialsError(RuntimeError):
    """A Monte Carlo run could not produce usable estimates.

    When partial results exist (for example per-point estimates that are all
    zero) they are attached as the ``outage`` attribute.
    """

    def __init__(self, message: str, outage=None):
        self.outage = outage
        super().__init__(message)

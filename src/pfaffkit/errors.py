"""Exception hierarchy shared across the package.

Everything raised on bad *input* derives from :class:`PfaffkitError`; the
command line maps those to exit code 1.  :class:`InternalInvariant` is
deliberately outside the hierarchy: it signals a broken internal invariant
(exit code 2) and should never be triggered by user input.
"""


class PfaffkitError(Exception):
    """Base class for all validation errors raised by pfaffkit."""


class InternalInvariant(Exception):
    """A certified result failed to re-verify; this is a bug, not bad input."""


# -- exact arithmetic -------------------------------------------------------

class NotMonic(PfaffkitError):
    pass


class ReduciblePolynomial(PfaffkitError):
    pass


class DivisionByZero(PfaffkitError):
    pass


class FieldMismatch(PfaffkitError):
    pass


class DivisionByZeroPolynomial(PfaffkitError):
    pass


# -- differential algebra ---------------------------------------------------

class UnknownVariable(PfaffkitError):
    pass


class DenominatorVanishesIdentically(PfaffkitError):
    pass


# -- chains -----------------------------------------------------------------

class TriangularityViolated(PfaffkitError):
    def __init__(self, rule_index, variable_index):
        self.rule_index = rule_index
        self.variable_index = variable_index
        super().__init__(
            f"rule {rule_index} mentions variable y{variable_index} "
            f"(> {rule_index}); chains must be triangular"
        )


class MixedKinds(PfaffkitError):
    pass


class ChainMismatch(PfaffkitError):
    pass


class ZeroElement(PfaffkitError):
    pass


class ZeroDenominator(PfaffkitError):
    pass


class ArityMismatch(PfaffkitError):
    pass


class NonConstantBase(PfaffkitError):
    pass


# -- groups -----------------------------------------------------------------

class InvalidD(PfaffkitError):
    pass


class UnknownAction(PfaffkitError):
    pass


class InvalidN(PfaffkitError):
    pass


# -- criteria ---------------------------------------------------------------

class DegenerateCurve(PfaffkitError):
    pass


class ZeroDenominatorData(PfaffkitError):
    pass


class InvalidFactoredForm(PfaffkitError):
    pass


class NoLinearFactorization(PfaffkitError):
    """A function does not split into linear factors over its declared field."""

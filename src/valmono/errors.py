"""Error taxonomy shared by every module.

Each class marks one contract violation; callers are expected to catch the
narrow type, never the base.  ``BudgetExceeded`` carries the partial state,
which a caller may inspect or save; no public function resumes a run from it.
"""


class ValmonoError(Exception):
    """Base class; never raised directly."""


class ParseError(ValmonoError):
    """Input text or JSON does not parse."""


class CertificationError(ValmonoError):
    """A postcondition that the implementation promises to certify failed."""


class RankMismatch(ValmonoError):
    """Two group elements of different finite rank were combined."""


class ForeignGenerator(ValmonoError):
    """An operand carries a generator that the left operand's value group does not declare."""


class DivideByNonPositive(ValmonoError):
    """Division of a group element by an integer < 1."""


class NonMonicDivisor(ValmonoError):
    """Euclidean division requires a monic divisor."""


class NonMonicKey(ValmonoError):
    """Truncation and expansion require a monic key."""


class ZeroPolynomial(ValmonoError):
    """The zero polynomial has no epsilon invariant."""


class NotInDivisibleHull(ValmonoError):
    """No positive multiple of the value lies in the lattice."""


class MaximalKey(ValmonoError):
    """The key admits no successor: its value has no multiple in the hull."""


class ResidueUndefined(ValmonoError):
    """The residue of a value-zero quotient cannot be read off the tower."""


class NonUnitFactor(ValmonoError):
    """A decorating factor of a key element must have value zero."""


class EmptyCenter(ValmonoError):
    """A blow-up center needs at least two parameters."""


class EmptyIdeal(ValmonoError):
    """Principalization of an ideal with no generators."""


class DegenerateInput(ValmonoError):
    """Monomialization shortcut applied to a degenerate element."""


class UnknownVariable(ValmonoError):
    """Substitution input mentions a variable the frame does not know."""


class NonBinomialInput(ValmonoError):
    """The package entry point requires a two-term key."""


class ResidueFieldExtension(ValmonoError):
    """A step would enlarge the residue field; rejected, not modeled."""


class TranscendentalResidue(ResidueFieldExtension):
    """The would-be new parameter has a transcendental residue."""


class DeltaNotOne(ValmonoError):
    """Limit recipes require the minimal index set to reach exactly 1."""


class NonPolynomialImage(ValmonoError):
    """An image over a frame is not a polynomial, or not a monomial, of the required shape."""


class BudgetExceeded(ValmonoError):
    """Blow-up step budget ran out; ``state`` holds the partial state where the run stopped."""

    def __init__(self, message: str, state=None):
        super().__init__(message)
        self.state = state


class LimitSuccessorRequired(ValmonoError):
    """A key is maximal: no binomial successor extends the chain, so the caller must supply a limit key."""

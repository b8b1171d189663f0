"""Error types shared across the library.

Every error carries a stable ``code`` string that the CLI prints and that
tests match against, so the exception class hierarchy can evolve without
breaking the error contract.
"""


class PerronvalError(Exception):
    code = "ERROR"

    def __init__(self, message=""):
        super().__init__(message or self.code)
        self.message = message or self.code


class InputError(PerronvalError):
    """Malformed document, literal, or argument."""
    code = "INPUT"


class DivisionByZero(PerronvalError):
    code = "DIVISION-BY-ZERO"


class ContextMismatch(PerronvalError):
    code = "CONTEXT-MISMATCH"


class FrameMismatch(PerronvalError):
    code = "FRAME-MISMATCH"


class NotASubgroup(PerronvalError):
    code = "NOT-A-SUBGROUP"


class NoRelation(PerronvalError):
    code = "NO-RELATION"


class AmbiguousRelation(PerronvalError):
    code = "AMBIGUOUS"


class ValueMismatch(PerronvalError):
    code = "VALUE-MISMATCH"


class StepBoundExceeded(PerronvalError):
    code = "STEP-BOUND-EXCEEDED"


class TruncationExhausted(PerronvalError):
    code = "TRUNCATION-EXHAUSTED"


class PreconditionError(PerronvalError):
    code = "PRECONDITION"


class PreconditionValueInGroup(PreconditionError):
    code = "PRECONDITION-VALUE-IN-GROUP"


class BinomialObstruction(PerronvalError):
    code = "BINOMIAL-OBSTRUCTION"


class DefectSuspected(PerronvalError):
    """Terminal diagnostic: value(x_m) stays in the base value group, either
    up the approximation ladder to the computation bound or through a case-2
    certificate that fails.  ``diagnostics`` holds what the trace prints:
    the ladder as strings, the reason, and case2_rejected when case 2
    fails."""
    code = "DEFECT-SUSPECTED"

    def __init__(self, message="", **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


class NotCase2(PerronvalError):
    code = "NOT-CASE2"


class NotOstrowski(PerronvalError):
    code = "NOT-OSTROWSKI"


class JumpNotGtOne(PerronvalError):
    code = "JUMP-NOT-GT-ONE"


class Unsupported(PerronvalError):
    """Operation outside the implemented scope (documented restriction)."""
    code = "UNSUPPORTED"


class InternalContradiction(PerronvalError):
    """A theorem-backed assertion failed; indicates a bug or bad input."""
    code = "INTERNAL-CONTRADICTION"

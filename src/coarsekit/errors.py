"""Exception types shared across the package."""


class CoarsekitError(Exception):
    """Base class for all coarsekit errors."""


class DimensionMismatch(CoarsekitError, ValueError):
    """Operands have incompatible shapes or dimensions."""


class NotHermitian(CoarsekitError, ValueError):
    """A matrix required to be Hermitian is not, within tolerance."""


class NotUnitary(CoarsekitError, ValueError):
    """A matrix required to be unitary is not, within tolerance."""


class NotCP(CoarsekitError, ValueError):
    """A map required to be completely positive has a negative Choi eigenvalue."""


class NotEquivalent(CoarsekitError, ValueError):
    """Two Kraus sets do not represent the same channel."""


class NumericalFailure(CoarsekitError, RuntimeError):
    """A construction succeeded formally but violates its residual bound."""


class MethodDisagreement(CoarsekitError, RuntimeError):
    """Independent compatibility criteria reached logically inconsistent verdicts."""


class ZeroMarginal(CoarsekitError, ValueError):
    """Bayes inversion attempted on an outcome with zero probability."""


class IndexOutOfRange(CoarsekitError, IndexError):
    """An outcome index lies outside the variable's alphabet."""

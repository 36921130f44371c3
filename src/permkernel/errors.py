"""Exception types shared across the library."""


class MatrixError(ValueError):
    """Base of the bad-input errors (CLI exit 1), as is plain ValueError;
    a numerical failure is OverflowError or another ArithmeticError (exit 2)."""


class DimensionMismatch(MatrixError):
    """Inputs do not have compatible shapes."""


class DimensionTooLarge(MatrixError):
    """Matrix exceeds the cap for an enumeration-based operation."""


class IndexOutOfRange(MatrixError):
    """An index set or selection refers outside 1..n."""


class SingularMatrix(MatrixError):
    """Matrix is numerically singular at the working tolerance."""


class HasZeroEntry(MatrixError):
    """Operation requires a matrix without zero entries."""


class PoleAtSigma(MatrixError):
    """The tilting parameter sits at a pole of the conditioning kernel."""


class ZeroPivotEntry(MatrixError):
    """Pivot row or column contains a zero entry."""


class SingularBlock(MatrixError):
    """A diagonal block or Schur complement is numerically singular."""


class NotSymmetric(MatrixError):
    """Covariance input is not symmetric at the working tolerance."""


class NotPSD(MatrixError):
    """Covariance input has a significantly negative eigenvalue."""


class NonpositiveDeterminant(MatrixError):
    """(alphas, G) lies outside the domain of the closed-form transform."""

"""Classification toolkit for permanental kernels.

Decides, for small dense square matrices, whether a matrix can be the kernel
of a permanental vector (cycle-weighted permanent positivity), whether it is
symmetrizable or diagonally equivalent to an inverse M-matrix, and whether
the unique-symmetrizable-triple criterion certifies infinite divisibility.
Includes seeded Monte Carlo validation of the squared-Gaussian Laplace
transform and a batch CLI.

Index conventions: all public index arguments and reported index sets are
1-based, matching the usual matrix notation. The transform exponent b refers
to |I + alpha G|^(-b); the squared-Gaussian case is b = 1/2.
"""

from .classify import (
    KernelReport,
    classify_kernel,
    count_symmetrizable_3subsets,
    is_diag_equiv_inverse_m,
    is_diag_equiv_symmetric,
    is_inverse_m_matrix,
    is_m_matrix,
    is_symmetrizable_3x3,
)
from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    HasZeroEntry,
    IndexOutOfRange,
    MatrixError,
    NonpositiveDeterminant,
    NotPSD,
    NotSymmetric,
    PoleAtSigma,
    SingularBlock,
    SingularMatrix,
    ZeroPivotEntry,
)
from .matcore import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    determinant,
    diagonal_conjugate,
    effectively_equivalent,
    find_positivity_signature,
    inverse,
    principal_minors,
    principal_submatrix,
    resolvent,
    signature_conjugate,
)
from .matrixio import load_matrix, matrix_from_csv, matrix_from_json, matrix_to_json
from .mcverify import (
    ConditioningCheck,
    LTEstimate,
    SampleBatch,
    closed_form_laplace,
    empirical_laplace,
    sample_squared_gaussian,
    verify_conditioning,
)
from .permanent import (
    GammaScan,
    PositivityScan,
    VJReport,
    default_gamma_grid,
    is_b_positive_definite,
    per_b,
    repeated_matrix,
    vere_jones_check,
)
from .reductions import (
    BreakpointSet,
    JohnsonSmithResult,
    block_double,
    conditioning_kernel,
    johnson_smith_inverse_m,
    ratio_matrix,
    reduce_scan,
    schur_complement,
    symmetrizability_breakpoints,
)

__version__ = "0.1.0"

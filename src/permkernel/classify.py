"""Structural classification of kernel candidates: M-matrix tests,
symmetrizability, sign-pattern normalisation, and the unique-symmetrizable-
triple test that decides infinite divisibility for dimensions above three."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import HasZeroEntry
from .matcore import (
    DEFAULT_TOL,
    Tolerance,
    _inverse_or_none,
    as_matrix,
    close,
    find_positivity_signature,
    subset_table,
)
from .permanent import VJReport, vere_jones_check

THEOREM_ID = "hypotheses-met-ID"
THEOREM_NOT_KERNEL = "hypotheses-met-not-kernel"
THEOREM_NA = "not-applicable"


def _nonnegative(a: np.ndarray, tol: Tolerance) -> bool:
    return bool(a.min() >= -tol.threshold(a))


def _off_diagonal_nonpositive(a: np.ndarray, tol: Tolerance) -> bool:
    return bool((a - np.diag(np.diag(a))).max() <= tol.threshold(a))


def _is_m(a: np.ndarray, inv: np.ndarray | None, tol: Tolerance) -> bool:
    return inv is not None and _off_diagonal_nonpositive(a, tol) and _nonnegative(inv, tol)


def _is_inverse_m(a: np.ndarray, inv: np.ndarray | None, tol: Tolerance) -> bool:
    # A is the inverse of A^{-1}, so "A^{-1} is an M-matrix" reads
    # "A >= 0 and A^{-1} has a nonpositive off-diagonal"
    return inv is not None and _nonnegative(a, tol) and _off_diagonal_nonpositive(inv, tol)


def is_m_matrix(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Nonpositive off-diagonal entries and an entrywise-nonnegative inverse.

    Singular input returns False.
    """
    a = as_matrix(a)
    return _is_m(a, _inverse_or_none(a, tol), tol)


def is_inverse_m_matrix(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff A is invertible and A^{-1} is an M-matrix."""
    a = as_matrix(a)
    return _is_inverse_m(a, _inverse_or_none(a, tol), tol)


@functools.cache
def triple_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The C(n, 3) 0-based triples i < j < k of an n x n matrix, in
    combinations order, as an (m, 3) array (subset_table(n, 3)), and the
    read-only (9, m) flat positions of their entries in the row order of
    `three_cycles`; built once per n."""
    triples = subset_table(n, 3)
    i, j, k = triples.T
    flat = np.stack((i, j, k, j, i, k, i, j, k)) * n + np.stack((j, k, i, i, k, j, i, j, k))
    flat.flags.writeable = False
    return triples, flat


def three_cycles(a: np.ndarray, part: slice = slice(None)) -> np.ndarray:
    """Entries of the 3x3 principal submatrices of the triples
    triple_table(n)[0][part] (by default all m) of each matrix of a stack
    (..., n, n), shape (9, ..., m).

    Column t belongs to triple (i, j, k), the t-th of `part`. Rows 0-2
    are the forward cycle (a_ij, a_jk, a_ki), rows 3-5 the reverse cycle
    (a_ji, a_ik, a_kj) and rows 6-8 the diagonal (a_ii, a_jj, a_kk).
    """
    flat = triple_table(a.shape[-1])[1][:, part]
    cycles = np.take(a.reshape(*a.shape[:-2], -1), flat, axis=-1)
    return cycles.transpose(-2, *range(cycles.ndim - 2), -1)


def _cycle_products(entries: np.ndarray):
    """Forward and reverse 3-cycle products, each over the cube of the
    triple's largest off-diagonal magnitude, so that neither overflows."""
    unit = entries[:6] / np.abs(entries[:6]).max(axis=0, initial=np.finfo(float).tiny)
    return unit[0] * unit[1] * unit[2], unit[3] * unit[4] * unit[5]


def _symmetrizable(a: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Boolean mask over the triples of each matrix of a stack (..., n, n),
    shape (..., m): is the principal submatrix symmetrizable.

    Each triple has its own zero threshold, tol.threshold of its block. A
    zero off-diagonal entry decides True; otherwise the diagonal must be
    nonnegative, opposite entries and the forward 3-cycle must not be
    negative, and the two 3-cycle magnitudes must agree within rel_tol.
    """
    entries = three_cycles(a)
    magnitude = np.abs(entries)
    thr = tol.threshold(magnitude, axis=0)
    forward, backward = _cycle_products(entries)
    # sigma K sigma = |K| needs a nonnegative diagonal and positive cycles;
    # rows 3, 5, 4 are (a_ji, a_kj, a_ik), opposite to rows 0, 1, 2
    signs_fit = (
        (entries[6:] >= -thr).all(axis=0)
        & (np.sign(entries[:3]) * np.sign(entries[[3, 5, 4]]) >= 0.0).all(axis=0)
        & (forward >= 0.0)
    )
    return (magnitude[:6] <= thr).any(axis=0) | (
        signs_fit & close(np.abs(forward), np.abs(backward), tol.rel_tol)
    )


def is_diag_equiv_symmetric(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether D A D^{-1} is symmetric for some positive diagonal D.

    For matrices without zero entries this holds iff opposite entries have
    matching signs (A_ij A_ji > 0) and every 3-cycle satisfies
    A_ij A_jk A_ki = A_ji A_kj A_ik; triples generate all longer cycles.
    Zero entries are out of scope here and raise HasZeroEntry.
    """
    a = as_matrix(a)
    if np.any(np.abs(a) <= tol.threshold(a)):
        raise HasZeroEntry("matrix has a zero entry at tolerance")
    if np.any(np.sign(a) * np.sign(a.T) < 0.0):
        return False
    return bool(close(*_cycle_products(three_cycles(a)), tol.rel_tol).all())


def is_symmetrizable_3x3(k, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Symmetrizability test for a 3x3 kernel candidate.

    A zero off-diagonal entry makes the matrix symmetrizable outright (it is
    then effectively equivalent to a symmetric matrix with the matching zero
    pattern). Otherwise a signature conjugation must reach the entrywise
    absolute-value matrix and the two 3-cycle magnitudes must agree:
    |K12 K23 K31| = |K21 K13 K32|.
    """
    k = as_matrix(k)
    if k.shape[0] != 3:
        raise ValueError("is_symmetrizable_3x3 expects a 3x3 matrix")
    return bool(_symmetrizable(k, tol)[0])


def count_symmetrizable_3subsets(g, tol: Tolerance = DEFAULT_TOL) -> list[tuple]:
    """All 1-based 3-subsets whose principal submatrix is symmetrizable."""
    g = as_matrix(g)
    n = g.shape[0]
    if n < 3:
        raise ValueError("needs a matrix of dimension at least 3")
    triples = triple_table(n)[0]
    return [tuple(t) for t in (triples[_symmetrizable(g, tol)] + 1).tolist()]


def _inverse_m_signature(signature, inv, tol: Tolerance):
    """`signature` when S G S is an inverse M-matrix, else None.

    signature must be find_positivity_signature's for G, which certifies
    every entry of S G S above tol.threshold(G), so S G S is nonnegative
    and only its inverse is tested. inv is G^{-1} (None when G is
    singular); (S G S)^{-1} = S G^{-1} S needs no second inversion.
    """
    if signature is None or inv is None:
        return None
    if _off_diagonal_nonpositive(inv * np.outer(signature, signature), tol):
        return signature
    return None


def is_diag_equiv_inverse_m(g, tol: Tolerance = DEFAULT_TOL) -> np.ndarray | None:
    """Signature S such that S G S is an inverse M-matrix, or None.

    Searching signatures suffices: positive diagonal rescaling never changes
    the inverse-M property, so diagonal equivalence to an inverse M-matrix
    holds iff it holds after sign normalisation.
    """
    g = as_matrix(g)
    s = find_positivity_signature(g, tol)
    if s is None:
        return None
    return _inverse_m_signature(s, _inverse_or_none(g, tol), tol)


@dataclass(frozen=True)
class KernelReport:
    """Full structural verdict for one kernel candidate."""

    n: int
    zero_pattern: tuple
    signature: tuple | None
    sym3_subsets: tuple
    m_class: str
    vere_jones: VJReport
    theorem1: str
    witnesses: dict

    def to_dict(self) -> dict:
        return self.__dict__ | {
            "zero_pattern": [list(ij) for ij in self.zero_pattern],
            "signature": list(self.signature) if self.signature else None,
            "sym3_subsets": [list(t) for t in self.sym3_subsets],
            "vere_jones": self.vere_jones.to_dict(),
        }


def _m_class(g: np.ndarray, inv, id_signature, tol: Tolerance) -> str:
    if _is_m(g, inv, tol):
        return "M-matrix"
    if _is_inverse_m(g, inv, tol):
        return "inverse-M"
    if id_signature is not None:
        return "diag-equiv-inverse-M"
    return "none"


def classify_kernel(
    g,
    b: float = 0.5,
    gamma_grid=None,
    max_order: int = 5,
    tol: Tolerance = DEFAULT_TOL,
) -> KernelReport:
    """Build the combined report for a kernel candidate.

    For n > 3 with at most one symmetrizable 3x3 principal submatrix, the
    matrix either normalises to an inverse M-matrix (then any permanental
    vector with this kernel is infinitely divisible: "hypotheses-met-ID") or
    it cannot be the kernel of a permanental vector at all
    ("hypotheses-met-not-kernel"). The numeric positivity scan is reported
    separately in vere_jones and never folded into that logical verdict.
    """
    g = as_matrix(g)
    n = g.shape[0]
    zero_pattern = tuple(map(tuple, (np.argwhere(np.abs(g) <= tol.threshold(g)) + 1).tolist()))
    signature = find_positivity_signature(g, tol)
    inv = _inverse_or_none(g, tol)
    id_signature = _inverse_m_signature(signature, inv, tol)
    sym3 = tuple(count_symmetrizable_3subsets(g, tol)) if n >= 3 else ()
    vj = vere_jones_check(g, b, gamma_grid=gamma_grid, max_order=max_order, tol=tol)

    witnesses: dict = {"sym3_count": len(sym3)}
    if n > 3 and len(sym3) <= 1:
        theorem1 = THEOREM_ID if id_signature is not None else THEOREM_NOT_KERNEL
        if id_signature is not None:
            witnesses["inverse_m_signature"] = [int(x) for x in id_signature]
        else:
            witnesses["no_inverse_m_normalisation"] = (
                "no positivity signature exists"
                if signature is None
                else "sign-normalised matrix is not an inverse M-matrix"
            )
    else:
        theorem1 = THEOREM_NA

    return KernelReport(
        n=n,
        zero_pattern=zero_pattern,
        signature=tuple(int(x) for x in signature) if signature is not None else None,
        sym3_subsets=sym3,
        m_class=_m_class(g, inv, id_signature, tol),
        vere_jones=vj,
        theorem1=theorem1,
        witnesses=witnesses,
    )

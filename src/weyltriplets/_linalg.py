"""Small Hermitian linear-algebra helpers shared across the package.

Everything here is a thin, guarded wrapper around ``numpy.linalg``:
matrix square roots through eigendecomposition with an explicit
positive-definiteness floor, and linear solves that refuse to return
garbage near singularities instead of silently pseudo-inverting.
"""

import numpy as np

# Eigenvalues below this floor mean "not positive definite" for the
# purposes of matrix (inverse) square roots.
EIG_FLOOR = 1e-13

# Condition numbers above this trigger SingularMatrixError in solves.
COND_LIMIT = 1e12


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """A matrix required to be positive definite is not (within floor)."""


class SingularMatrixError(np.linalg.LinAlgError):
    """A linear solve hit a (numerically) singular matrix."""


def herm_part(M):
    """Hermitian part (M + M*)/2."""
    M = np.asarray(M)
    return 0.5 * (M + M.conj().T)


def imag_part(M):
    """Imaginary part in the operator sense, (M - M*)/(2i); Hermitian."""
    M = np.asarray(M)
    return (M - M.conj().T) / 2j


def is_hermitian(M, tol):
    M = np.asarray(M)
    scale = max(1.0, np.abs(M).max()) if M.size else 1.0
    return np.abs(M - M.conj().T).max() <= tol * scale if M.size else True


def hermitian_funcm(M, fn, floor=None, what="matrix function"):
    """Apply ``fn`` to the spectrum of a Hermitian matrix.

    Parameters
    ----------
    M : (d, d) array_like
        Hermitian matrix (hermitized internally to kill round-off skew).
    fn : callable
        Scalar function applied to the (real) eigenvalues.
    floor : float or None
        If given, raise NotPositiveDefiniteError when any eigenvalue
        falls below the floor.  Use for sqrt/inv-sqrt of matrices that
        must be positive definite.
    """
    M = herm_part(M)
    w, V = np.linalg.eigh(M)
    if floor is not None and w.min() < floor:
        raise NotPositiveDefiniteError(
            "%s needs eigenvalues >= %.3g, got min %.3g" % (what, floor, w.min())
        )
    return (V * fn(w)) @ V.conj().T


def herm_sqrt(M, what="matrix square root"):
    """Positive-definite square root of a Hermitian matrix."""
    return hermitian_funcm(M, np.sqrt, floor=EIG_FLOOR, what=what)


def herm_inv_sqrt(M, what="matrix inverse square root"):
    """Inverse square root of a Hermitian positive definite matrix."""
    return hermitian_funcm(M, lambda w: 1.0 / np.sqrt(w), floor=EIG_FLOOR, what=what)


def solve_guarded(A, context=""):
    """Solve A X = I, refusing ill-conditioned systems.

    Raises SingularMatrixError when cond_2(A) exceeds ``COND_LIMIT``;
    this signals e.g. an evaluation point approaching the spectrum of
    an extension rather than returning an unusable result.
    """
    A = np.asarray(A, dtype=complex)
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularMatrixError(
            "matrix %s is numerically singular (cond = %.3g)"
            % (context or "in solve", cond)
        )
    return np.linalg.solve(A, np.eye(A.shape[0], dtype=complex))

"""Dense symmetric-matrix kernel.

Eigendecomposition, truncated low-rank approximation, projection onto the
PSD cone, and orthogonal-Procrustes alignment of tall factors.
Everything here is a pure function of its inputs; matrices are plain numpy
arrays, kept exactly symmetric by construction.
"""

import numpy as np


def tol_psd(M):
    """Cone-membership tolerance, an absolute-relative mix for any spectrum."""
    return 1e-8 * max(1.0, float(np.linalg.norm(M, 2)))


class EigFail(Exception):
    """The eigensolver did not converge on the given matrix."""


class NotPSD(Exception):
    """Matrix has an eigenvalue below -tol_psd where a PSD input is required."""


class ShapeError(Exception):
    """Operands have incompatible shapes."""


def symmetrize(M):
    """Return (M + M^T)/2, which is exactly symmetric entrywise."""
    M = np.asarray(M, dtype=float)
    return (M + M.T) / 2.0


def gram(U):
    """Gram matrix U U^T of a p-by-r factor, exactly symmetric.

    Parameters
    ----------
    U : ndarray, shape (p, r)

    Returns
    -------
    ndarray, shape (p, p)
        U U^T, symmetrized so that entries (i, j) and (j, i) are equal
        bit-for-bit; PSD up to roundoff by construction.
    """
    U = np.asarray(U, dtype=float)
    return symmetrize(U @ U.T)


def eig_sym(M):
    """``(w, Q)`` as ``np.linalg.eigh`` returns them, but eigenvalues descending.

    Q's orthonormal columns match w, so Q diag(w) Q^T reconstructs M.

    Ties between equal eigenvalues are broken by a stable sort on
    (eigenvalue descending, original column index ascending), so the output
    is deterministic for a fixed input.

    Raises
    ------
    EigFail
        if the underlying solver fails to converge.
    """
    M = np.asarray(M, dtype=float)
    try:
        w, Q = np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:
        raise EigFail(str(exc)) from exc
    if not (np.isfinite(w).all() and np.isfinite(Q).all()):
        raise EigFail("eigendecomposition produced non-finite values")
    order = np.argsort(-w, kind="stable")
    return w[order], Q[:, order]


def truncated_approx(M, r):
    """Best rank-r approximation of a PSD matrix plus a factor of it.

    Parameters
    ----------
    M : ndarray, shape (p, p)
        Symmetric, PSD up to tolerance (smallest eigenvalue >= -tol_psd).
    r : int
        Target rank, 1 <= r <= p.

    Returns
    -------
    (M_r, F) : (ndarray (p, p), ndarray (p, r))
        M_r = sum of the r largest eigenpairs; F has columns q_i sqrt(w_i)
        so that F F^T = M_r. Small negative eigenvalues (within tolerance)
        are clamped to zero.

    Raises
    ------
    NotPSD
        if M has an eigenvalue below -tol_psd.
    """
    M = np.asarray(M, dtype=float)
    p = M.shape[0]
    if not 1 <= r <= p:
        raise ShapeError(f"rank {r} out of range for a {p}x{p} matrix")
    w, Q = eig_sym(M)
    tol = tol_psd(M)
    if w.min(initial=0.0) < -tol:
        raise NotPSD(f"eigenvalue {w.min()} below -{tol}")
    w = np.clip(w[:r], 0.0, None)
    Q = Q[:, :r]
    F = Q * np.sqrt(w)
    M_r = symmetrize(Q @ np.diag(w) @ Q.T)
    return M_r, F


def proj_psd(M):
    """Frobenius projection of a symmetric matrix onto the PSD cone.

    Eigendecompose, clamp negative eigenvalues to zero, reconstruct.
    Fixed point on PSD inputs (up to reconstruction tolerance).
    """
    w, Q = eig_sym(M)
    w = np.clip(w, 0.0, None)
    return symmetrize((Q * w) @ Q.T)


def procrustes_dist(U, V):
    """min over orthogonal r-by-r R of ||U - V R||_F.

    The minimizer is R = W Z^T from the SVD V^T U = W S Z^T. This is the
    natural distance between factors that are identifiable only up to a
    right-orthogonal rotation.

    Raises
    ------
    ShapeError
        if U and V differ in shape.
    """
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    if U.shape != V.shape:
        raise ShapeError(f"factor shapes differ: {U.shape} vs {V.shape}")
    W, _, Zt = np.linalg.svd(V.T @ U)
    R = W @ Zt
    return float(np.linalg.norm(U - V @ R))

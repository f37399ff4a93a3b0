"""Small dense complex linear algebra for a two-level system.

Everything in this package lives on 2x2 complex matrices ("atom operators")
and on linear maps acting on them ("superoperators"), stored as 4x4 complex
matrices.  The vectorization convention is fixed once and for all:

    vec(A) = (a11, a21, a12, a22)     (column stacking)

so that composing two superoperators is an ordinary 4x4 matrix product and
``vec(X A Y) = kron(Y.T, X) @ vec(A)``.

:func:`superop_exp` is the package's one caller of ``scipy.linalg.expm``, for
every generator: the 2x2 no-jump one, superoperators, lattice counting
generators and Van Loan's augmented ones.  The other route to a semigroup,
its eigen form, belongs to :class:`resfluor.semigroup.Component` alone.

All functions are pure and never mutate their arguments.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

__all__ = [
    "I2",
    "LOWER",
    "EXCITED_PROJ",
    "vec",
    "devec",
    "superop_exp",
    "ad_map",
    "apply_superop",
    "frobenius_dist",
    "choi_matrix",
    "is_completely_positive",
    "require_density_matrix",
    "ground_state",
    "excited_state",
    "maximally_mixed",
]

I2 = np.eye(2, dtype=complex)
#: lowering operator: maps the excited basis vector e1 to the ground one e2.
LOWER = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
#: projector onto the excited state, LOWER^dag @ LOWER = diag(1, 0).
EXCITED_PROJ = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)

_HERM_TOL = 1e-12
_PSD_TOL = 1e-12


def _as_c2x2(M) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {M.shape}")
    return M


def vec(A) -> np.ndarray:
    """Column-stack a 2x2 matrix into the fixed basis order (E11,E21,E12,E22)."""
    return _as_c2x2(A).flatten(order="F")


def devec(v) -> np.ndarray:
    """Inverse of :func:`vec`."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (4,):
        raise ValueError(f"expected a 4-vector, got shape {v.shape}")
    return v.reshape((2, 2), order="F")


def apply_superop(S, A) -> np.ndarray:
    """Apply a superoperator (4x4 matrix) to a 2x2 matrix."""
    return devec(np.asarray(S, dtype=complex) @ vec(A))


def superop_exp(G, t) -> np.ndarray:
    """exp(t*G) for a square generator G with finite entries, t >= 0.

    ``t`` is a scalar, giving one matrix, or a 1-D array of times, giving a
    (len(t), n, n) stack from one stacked ``expm`` call.  Only forward
    semigroups are exposed here; a negative time raises.
    """
    G = np.asarray(G, dtype=complex)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ValueError(f"expected a square generator, got shape {G.shape}")
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ValueError(f"expected a scalar or 1-D array of times, got shape {ts.shape}")
    if not (np.isfinite(ts).all() and np.isfinite(G).all()):
        raise ValueError("superop_exp requires a finite generator and finite t")
    if (ts < 0).any():
        raise ValueError("superop_exp requires t >= 0 (forward semigroup)")
    return expm(ts[..., None, None] * G)


def ad_map(M) -> np.ndarray:
    """Heisenberg-picture sandwich A -> M^dag A M as a 4x4 superoperator."""
    M = _as_c2x2(M)
    return np.kron(M.T, M.conj().T)


def frobenius_dist(A, B) -> float:
    """Frobenius norm of the difference of two matrices of equal shape."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    return float(np.linalg.norm(A - B))


def choi_matrix(S) -> np.ndarray:
    """Choi matrix sum_ij E_ij (x) S(E_ij); positive semidefinite iff S is CP."""
    S = np.asarray(S, dtype=complex)
    blocks = [[None, None], [None, None]]
    for i in range(2):
        for j in range(2):
            Eij = np.zeros((2, 2), dtype=complex)
            Eij[i, j] = 1.0
            blocks[i][j] = apply_superop(S, Eij)
    return np.block(blocks)


def is_completely_positive(S, tol: float = 1e-10) -> bool:
    """Check complete positivity via the smallest Choi eigenvalue."""
    C = choi_matrix(S)
    C = (C + C.conj().T) / 2
    return float(np.linalg.eigvalsh(C).min()) >= -tol


def require_density_matrix(rho, tol: float = _HERM_TOL) -> np.ndarray:
    """Validate a 2x2 density matrix (Hermitian, unit trace, PSD) and return it."""
    rho = _as_c2x2(rho)
    if np.linalg.norm(rho - rho.conj().T) > tol:
        raise ValueError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho) - 1.0) > tol:
        raise ValueError("density matrix trace differs from 1 beyond tolerance")
    if np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() < -_PSD_TOL:
        raise ValueError("density matrix has a negative eigenvalue beyond tolerance")
    return rho


def ground_state() -> np.ndarray:
    return np.diag([0.0, 1.0]).astype(complex)


def excited_state() -> np.ndarray:
    return np.diag([1.0, 0.0]).astype(complex)


def maximally_mixed() -> np.ndarray:
    return 0.5 * I2.copy()

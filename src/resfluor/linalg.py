"""Small dense complex linear algebra for a two-level system.

Everything in this package lives on 2x2 complex matrices ("atom operators")
and on linear maps acting on them ("superoperators"), stored as 4x4 complex
matrices.  The vectorization convention is fixed once and for all:

    vec(A) = (a11, a21, a12, a22)     (column stacking)

so that composing two superoperators is an ordinary 4x4 matrix product and
``vec(X A Y) = kron(Y.T, X) @ vec(A)``.

:func:`superop_exp` is the package's one matrix exponential, for every
generator: the 2x2 no-jump one, superoperators, lattice counting generators
and Van Loan's augmented ones.  It is numpy only: scaling and squaring with
the degree-13 diagonal Pade approximant (Higham, SIAM J. Matrix Anal. Appl.
26, 1179 (2005), Algorithm 2.3), batched over a stack of matrices.  Each
slice picks its own scaling count s from its own 1-norm, which bounds the
backward error by 2^-53 times that norm in exact arithmetic.  As the choice
is per slice, a slice's result does not depend on the stack it sits in.  A
diagonal slice is the exponential of its diagonal exactly.  The other route
to a semigroup, its eigen form, belongs to
:class:`resfluor.semigroup.Component` alone.

All functions are pure and never mutate their arguments.
"""

from __future__ import annotations

import numpy as np

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
    """Column-stack a 2x2 matrix, or each of a (..., 2, 2) stack, into (E11,E21,E12,E22)."""
    A = np.asarray(A, dtype=complex)
    if A.shape[-2:] != (2, 2):
        raise ValueError(f"expected 2x2 matrices, got shape {A.shape}")
    return np.swapaxes(A, -1, -2).reshape(A.shape[:-2] + (4,))


def devec(v) -> np.ndarray:
    """Inverse of :func:`vec`, for one 4-vector or a (..., 4) stack."""
    v = np.asarray(v, dtype=complex)
    if v.shape[-1:] != (4,):
        raise ValueError(f"expected 4-vectors, got shape {v.shape}")
    return np.swapaxes(v.reshape(v.shape[:-1] + (2, 2)), -1, -2)


def apply_superop(S, A) -> np.ndarray:
    """Apply a superoperator (4x4 matrix) to a 2x2 matrix."""
    return devec(np.asarray(S, dtype=complex) @ vec(_as_c2x2(A)))


# Higham 2005, Table 2.3 and eq. (2.3): the largest 1-norm at which the
# degree-13 diagonal Pade approximant r_13(A) = e^(A + dA) has a backward error
# ||dA|| <= 2^-53 ||A||, and the coefficients b_0..b_13 of its numerator,
# divided by b_0 so that a nilpotent A with A^2 = 0 gives I + A exactly.
_THETA_13 = 5.371920351148152
_PADE_B = np.array(
    [64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
     1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
     33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0]
) / 64764752532480000.0


def _pade(A: np.ndarray) -> np.ndarray:
    """r_13(A) = (V - U)^-1 (V + U) for a (k, n, n) stack, Higham's eq. (2.4)."""
    b, I = _PADE_B, np.eye(A.shape[1])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2) + b[7] * A6 + b[5] * A4 + b[3] * A2
             + b[1] * I)
    V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * I
    return np.linalg.solve(V - U, V + U)


def _expm(A: np.ndarray) -> np.ndarray:
    """exp of each slice of a finite (k, n, n) complex stack.

    A diagonal slice gets exp of its diagonal.  Every other slice gets
    r_13(A / 2^s) squared s times, s = max(0, ceil(log2(norm / theta_13))).
    Every step acts on each slice alone, so a slice's result is bit for bit
    the same in any stack.
    """
    k, n = A.shape[:2]
    out = np.empty_like(A)
    # the off-diagonal entries are the first n columns of A[1:] read in rows of n + 1
    off = A.reshape(k, n * n)[:, 1:].reshape(k, n - 1, n + 1)[:, :, :n]
    diagonal = ~off.any(axis=(1, 2))
    if diagonal.any():
        d = np.arange(n)
        out[diagonal] = 0.0
        out[np.flatnonzero(diagonal)[:, None], d, d] = np.exp(A[diagonal][:, d, d])
    idx = np.flatnonzero(~diagonal)
    norm = np.abs(A[idx]).sum(axis=1).max(axis=1)
    s = np.maximum(0, np.ceil(np.log2(norm / _THETA_13))).astype(int)
    order = np.argsort(-s, kind="stable")  # the slices that need j squarings lead
    idx, s = idx[order], s[order]
    X = _pade(A[idx] * np.ldexp(1.0, -s)[:, None, None])
    for j in range(1, s.max(initial=0) + 1):
        c = np.count_nonzero(s >= j)
        X[:c] = X[:c] @ X[:c]
    out[idx] = X
    return out


def superop_exp(G, t) -> np.ndarray:
    """exp(t*G) for a square generator G with finite entries, t >= 0.

    ``t`` is a scalar, giving one matrix, or a 1-D array of times, giving a
    (len(t), n, n) stack.  ``G`` may also be a (k, n, n) stack of generators
    with k times, giving exp(t_k G_k).  Only forward semigroups are exposed
    here; a negative time raises.

    The algorithm is scaling and squaring with the degree-13 diagonal Pade
    approximant (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)): each
    slice tG is scaled by 2^-s, the least s >= 0 that brings its 1-norm
    within theta_13 = 5.37, and the approximant is squared s times.  In
    exact arithmetic the result is e^(tG + E) with ||E||_1 <= 2^-53 ||tG||_1.
    A diagonal slice is the exponential of its diagonal exactly.  Slices are
    independent: an entry of a stack equals the single call bit for bit.
    """
    G = np.asarray(G, dtype=complex)
    if G.ndim not in (2, 3) or G.shape[-2] != G.shape[-1] or G.shape[-1] == 0:
        raise ValueError(f"expected a square generator or a stack of them, got shape {G.shape}")
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ValueError(f"expected a scalar or 1-D array of times, got shape {ts.shape}")
    if G.ndim == 3 and ts.shape != G.shape[:1]:
        raise ValueError(
            f"a stack of {G.shape[0]} generators needs {G.shape[0]} times, got shape {ts.shape}"
        )
    if not (np.isfinite(ts).all() and np.isfinite(G).all()):
        raise ValueError("superop_exp requires a finite generator and finite t")
    if (ts < 0).any():
        raise ValueError("superop_exp requires t >= 0 (forward semigroup)")
    out = _expm(np.reshape(ts[..., None, None] * G, (-1, *G.shape[-2:])))
    return out if ts.ndim else out[0]


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
    """Choi matrix sum_ij E_ij (x) S(E_ij); positive semidefinite iff S is CP.

    Column stacking makes it an index permutation: C[2i+k, 2j+l] = S[k+2l, i+2j].
    """
    return np.asarray(S, dtype=complex).reshape(2, 2, 2, 2).transpose(3, 1, 2, 0).reshape(4, 4)


def is_completely_positive(S, tol: float = 1e-10) -> bool:
    """Check complete positivity via the smallest Choi eigenvalue."""
    C = choi_matrix(S)
    C = (C + C.conj().T) / 2
    return float(np.linalg.eigvalsh(C).min()) >= -tol


def require_density_matrix(rho) -> np.ndarray:
    """Validate a 2x2 density matrix (Hermitian, unit trace, PSD) and return it.

    ``rho`` may also be a (B, 2, 2) stack.  The tests run entrywise over the
    stack, in closed form for 2x2 matrices, so a single matrix gets the same
    arithmetic as a stack of one and the decisions equal checking row by
    row.  The message names the first bad row and its first failed test.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (2, 2):
        raise ValueError(f"expected a 2x2 matrix or a stack of them, got shape {rho.shape}")
    stack = rho.reshape(-1, 4)
    finite = np.isfinite(stack).all(axis=1)
    a, b, c, d = np.where(finite[:, None], stack, 0.0).T
    # ||rho - rho^dag||_F, and the smallest eigenvalue of (rho + rho^dag) / 2
    skew = np.sqrt(4.0 * (a.imag**2 + d.imag**2) + 2.0 * abs(b - c.conj()) ** 2)
    low = (a.real + d.real) / 2 - np.hypot((a.real - d.real) / 2, abs(b + c.conj()) / 2)
    tests = (
        (finite, "has a non-finite entry"),
        (skew <= _HERM_TOL, "is not Hermitian within tolerance"),
        (abs(a + d - 1.0) <= _HERM_TOL, "trace differs from 1 beyond tolerance"),
        (low >= -_PSD_TOL, "has a negative eigenvalue beyond tolerance"),
    )
    bad = ~np.logical_and.reduce([ok for ok, _ in tests])
    if bad.any():
        i = int(np.argmax(bad))
        what = next(msg for ok, msg in tests if not ok[i])
        raise ValueError(f"density matrix {what}" + (f" (row {i})" if rho.ndim == 3 else ""))
    return rho


def ground_state() -> np.ndarray:
    return np.diag([0.0, 1.0]).astype(complex)


def excited_state() -> np.ndarray:
    return np.diag([1.0, 0.0]).astype(complex)


def maximally_mixed() -> np.ndarray:
    return 0.5 * I2.copy()

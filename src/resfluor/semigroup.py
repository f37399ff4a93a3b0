"""Fast batched evaluation of exp(x*G) for a fixed 4x4 generator.

The trajectory sampler and the renewal densities evaluate one and the same
semigroup at very many times, so we eigendecompose the generator once and
evaluate U diag(e^{lambda x}) U^{-1} in a single einsum.  If the generator is
too close to defective for that to be trustworthy, ``scipy.linalg.expm`` is
applied to the whole stack instead; both paths are checked by the test suite
against ``expm`` point by point.  At x = 0 both paths return the identity
exactly (Z_0 = Id), so exact-zero endpoints such as the antibunching zero of
the side-click density stay exactly zero.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

__all__ = ["SemigroupCache"]


class SemigroupCache:
    """Evaluate exp(x*G) at scalar or array arguments for a fixed generator."""

    def __init__(self, G: np.ndarray):
        G = np.asarray(G, dtype=complex)
        self.G = G
        self._diagonalizable = False
        try:
            lam, U = np.linalg.eig(G)
            Uinv = np.linalg.inv(U)
            recon = (U * lam) @ Uinv
            ok = (
                np.linalg.cond(U) < 1e7
                and np.linalg.norm(recon - G) <= 1e-11 * max(1.0, np.linalg.norm(G))
            )
            if ok:
                self.lam, self.U, self.Uinv = lam, U, Uinv
                self._diagonalizable = True
        except np.linalg.LinAlgError:
            pass

    def at(self, x):
        """exp(x*G); ``x`` may be a scalar or a 1-D array (returns a stack).

        Wherever x == 0 the result is the identity exactly, not U U^{-1}.
        """
        scalar = np.isscalar(x)
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(xs < 0):
            raise ValueError("semigroup arguments must be >= 0")
        if self._diagonalizable:
            ph = np.exp(np.outer(xs, self.lam))
            out = np.einsum("ij,bj,jk->bik", self.U, ph, self.Uinv)
        else:
            out = expm(xs[:, None, None] * self.G)
        out[xs == 0.0] = np.eye(self.G.shape[0])
        return out[0] if scalar else out

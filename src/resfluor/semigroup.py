"""The semigroup exp(x*G) of a fixed 4x4 generator and its scalar components.

The trajectory sampler and the renewal densities evaluate one and the same
semigroup at very many times.  This module is the only one that knows how:
it eigendecomposes the generator once and evaluates U diag(e^{lambda x}) U^{-1},
unless the generator is too close to defective for that to be trustworthy
(cond(U) >= 1e7 or a poor reconstruction), in which case it applies
``scipy.linalg.expm``.

Survival probabilities, waiting densities and CDFs are all scalar components
f_b(x) = Re(w_b^dag exp(xG) t) for weight rows w_b and one target t.
:meth:`SemigroupCache.component` returns them with their integrals from 0 to
x.  On the eigen path each row's coefficients c_bi = (w_b^dag U)_i (U^{-1} t)_i
are formed once, so every evaluation is a four-term exponential sum and the
integral is sum_i c_bi expm1(lambda_i x) / lambda_i.  Otherwise the value
comes from ``expm`` and the integral from Van Loan's augmented generator
[[G, t], [0, 0]], whose exponential holds int_0^x exp(sG) t ds in its last
column.  Both paths are checked against ``expm`` in the test suite.

At x = 0 both paths return Z_0 = Id exactly, and every component its exact
value Re(w_b^dag t), so exact-zero endpoints such as the antibunching zero
of the side-click density stay exactly zero.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

__all__ = ["SemigroupCache", "Component"]


def _arguments(x) -> np.ndarray:
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs < 0):
        raise ValueError("semigroup arguments must be >= 0")
    return xs


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
        xs = _arguments(x)
        if self._diagonalizable:
            ph = np.exp(np.outer(xs, self.lam))
            out = np.einsum("ij,bj,jk->bik", self.U, ph, self.Uinv)
        else:
            out = expm(xs[:, None, None] * self.G)
        out[xs == 0.0] = np.eye(self.G.shape[0])
        return out[0] if scalar else out

    def component(self, weights, target) -> "Component":
        """f_b(x) = Re(w_b^dag exp(xG) t) for each row w_b of ``weights``."""
        return Component(self, weights, target)


class Component:
    """Scalar components of a semigroup, batched over weight rows.

    Calling it at ``x`` gives f_b(x); :meth:`integral` gives the integral of
    f_b from 0 to x.  ``x`` holds one argument per row, or any number of
    arguments when there is a single row; the result is a 1-D array.
    """

    def __init__(self, sg: SemigroupCache, weights, target):
        self._sg = sg
        self._w = np.conj(np.atleast_2d(np.asarray(weights, dtype=complex)))
        self._t = np.asarray(target, dtype=complex)
        self._at_zero = np.real(np.einsum("bi,i->b", self._w, self._t))
        if sg._diagonalizable:
            self._c = (self._w @ sg.U) * (sg.Uinv @ self._t)

    def __call__(self, x) -> np.ndarray:
        xs = _arguments(x)
        if self._sg._diagonalizable:
            ph = np.exp(xs[:, None] * self._sg.lam)
            vals = np.einsum("...i,...i->...", self._c, ph).real
        else:
            vecs = expm(xs[:, None, None] * self._sg.G) @ self._t
            vals = np.einsum("...i,...i->...", self._w, vecs).real
        return np.where(xs == 0.0, self._at_zero, vals)

    def integral(self, x) -> np.ndarray:
        """The integral of f_b from 0 to x."""
        xs = _arguments(x)
        if self._sg._diagonalizable:
            lam = self._sg.lam
            live = lam != 0.0
            prim = np.empty((xs.size, lam.size), dtype=complex)
            prim[:, ~live] = xs[:, None]
            prim[:, live] = np.expm1(xs[:, None] * lam[live]) / lam[live]
            return np.einsum("...i,...i->...", self._c, prim).real
        n = self._t.size
        aug = np.zeros((n + 1, n + 1), dtype=complex)
        aug[:n, :n] = self._sg.G
        aug[:n, n] = self._t
        vecs = expm(xs[:, None, None] * aug)[:, :n, n]
        return np.einsum("...i,...i->...", self._w, vecs).real

"""The semigroup exp(x*G) of a fixed generator and its scalar components.

Two routes evaluate it, with one owner each.  :meth:`SemigroupCache.at`
returns whole matrices exp(xG) from :func:`resfluor.linalg.superop_exp`, the
package's one ``expm``.  :class:`Component` returns scalar components
f_b(x) = Re(w_b^dag exp(xG) t) for weight rows w_b and targets t, with their
integrals from 0 to x: survival probabilities, waiting densities, CDFs and
the entries of a click-free state.  It is the only reader of the eigen form
G = U diag(lambda) U^{-1}, which the cache computes once.

The coefficients c_bi = (w_b^dag U)_i (U^{-1} t)_i are formed once, so a
value is a four-term exponential sum and the integral is
sum_i c_bi expm1(lambda_i x) / lambda_i.  When the generator is too close to
defective for its eigenvectors to be trusted (cond(U) >= 1e7 or a poor
reconstruction; Moler & Van Loan, SIAM Rev. 45, 3 (2003)), the value comes
from ``superop_exp`` and the integral from Van Loan's augmented generator
[[G, t], [0, 0]], whose exponential holds int_0^x exp(sG) t ds in its last
column.  At x = 0, ``at`` returns Id exactly and every component its exact
value Re(w_b^dag t), so exact-zero endpoints such as the antibunching zero
of the side-click density stay exactly zero.
"""

from __future__ import annotations

import numpy as np

from .linalg import superop_exp

__all__ = ["SemigroupCache", "Component"]


def _arguments(x) -> np.ndarray:
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs < 0):
        raise ValueError("semigroup arguments must be >= 0")
    return xs


class SemigroupCache:
    """exp(x*G) for a fixed generator, and its eigen form for :class:`Component`."""

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

        Wherever x == 0 the result is the identity exactly.
        """
        scalar = np.isscalar(x)
        xs = _arguments(x)
        out = superop_exp(self.G, xs)
        out[xs == 0.0] = np.eye(self.G.shape[0])
        return out[0] if scalar else out

    def component(self, weights, target) -> "Component":
        """f_b(x) = Re(w_b^dag exp(xG) t) for each row w_b of ``weights``."""
        return Component(self, weights, target)


class Component:
    """Scalar components of a semigroup, batched over weight rows.

    Calling it at ``x`` gives f_b(x); :meth:`integral` gives the integral of
    f_b from 0 to x.  ``x`` holds one argument per row, or any number of
    arguments when there is a single row.  The result is a 1-D array for one
    target, or one such row per target when ``target`` stacks k of them.
    """

    def __init__(self, sg: SemigroupCache, weights, target):
        self._sg = sg
        self._w = np.conj(np.atleast_2d(np.asarray(weights, dtype=complex)))
        self._t = np.asarray(target, dtype=complex)
        self._at_zero = np.real(np.einsum("bi,...i->...b", self._w, self._t))
        if sg._diagonalizable:
            self._c = (self._w @ sg.U) * (self._t @ sg.Uinv.T)[..., None, :]

    def __call__(self, x) -> np.ndarray:
        xs = _arguments(x)
        if self._sg._diagonalizable:
            ph = np.exp(xs[:, None] * self._sg.lam)
            vals = np.einsum("...i,...i->...", self._c, ph).real
        else:
            vecs = (superop_exp(self._sg.G, xs) @ self._t[..., None, :, None])[..., 0]
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
        n = self._w.shape[1]
        cols = self._t.reshape(-1, n).T
        aug = np.zeros((n + cols.shape[1],) * 2, dtype=complex)
        aug[:n, :n] = self._sg.G
        aug[:n, n:] = cols
        vecs = np.moveaxis(superop_exp(aug, xs)[:, :n, n:], -1, 0)
        vals = np.einsum("...i,...i->...", self._w, vecs).real
        return vals.reshape(self._t.shape[:-1] + vals.shape[-1:])

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

# Component.crossing: the certified bracket width; a Newton step below
# _NEWTON_TOL ends a row's iteration (the step after it would be of order its
# square), and after _NEWTON_STEPS steps a row bisects instead
_BRACKET = 1e-10
_NEWTON_TOL = 1e-8
_NEWTON_STEPS = 50
# Component.tabulate: points of a Newton start table
_TABLE_POINTS = 4001


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

        Wherever x == 0 the result is the identity exactly: 0*G is diagonal,
        and :func:`superop_exp` exponentiates a diagonal slice entrywise.
        """
        out = superop_exp(self.G, _arguments(x))
        return out[0] if np.isscalar(x) else out

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
        self._table = None
        if sg._diagonalizable:
            self._c = (self._w @ sg.U) * (self._t @ sg.Uinv.T)[..., None, :]

    def __call__(self, x) -> np.ndarray:
        return self._values(_arguments(x))[0]

    def _values(self, xs, rows=slice(None), slope=False):
        """f_b(x) for the weight rows ``rows``, and f_b'(x) too if ``slope``.

        ``rows`` holds one row per argument, or a single row that every
        argument shares, whose coefficients are then broadcast instead of
        gathered once per argument (the same bits either way).  The
        derivative Re(w_b^dag exp(xG) G t) comes from the same exponentials
        as the value.
        """
        sg, d = self._sg, None
        if sg._diagonalizable:
            c = self._c[..., rows, :]
            ph = np.exp(xs[:, None] * sg.lam)
            vals = np.einsum("...i,...i->...", c, ph).real
            if slope:
                d = np.einsum("...i,...i->...", c * sg.lam, ph).real
        else:
            E, w = superop_exp(sg.G, xs), self._w[rows]
            vals = np.einsum("...i,...i->...", w, (E @ self._t[..., None, :, None])[..., 0]).real
            if slope:
                Gt = self._t @ sg.G.T
                d = np.einsum("...i,...i->...", w, (E @ Gt[..., None, :, None])[..., 0]).real
        return np.where(xs == 0.0, self._at_zero[..., rows], vals), d

    def tabulate(self, row: int, cap: float) -> None:
        """Tabulate log f_b of weight row ``row`` as a Newton start for :meth:`crossing`.

        The grid holds _TABLE_POINTS arguments on [0, min(cap, 40 / slowest
        decay rate of G)] (an infinite cap stands for 1e6), evaluated in one
        call: four exponentials per point, or one stacked ``superop_exp`` on
        the expm route.  The table keeps log max(f_b, 1e-300) made
        nonincreasing, which rounding on a plateau of f_b could break.
        """
        hardcap = cap if np.isfinite(cap) else 1e6
        decay = self._slowest_decay()
        grid = np.linspace(0.0, min(hardcap, 40.0 / decay) if decay > 0 else hardcap, _TABLE_POINTS)
        f = self._values(grid, [row])[0]
        logf = np.minimum.accumulate(np.log(np.maximum(f, 1e-300)))
        # np.interp wants increasing abscissae: log f and x both reversed
        self._table = (row, logf[::-1], grid[::-1])

    def _slowest_decay(self) -> float:
        lam = self._sg.lam if self._sg._diagonalizable else np.linalg.eigvals(self._sg.G)
        decay = -lam.real[lam.real < 0]
        return decay.min() if decay.size else 0.0

    def hazard(self, x, rows) -> np.ndarray:
        """-f_b'(x) / f_b(x) for weight row rows[k] at x[k]: a survival's click rate.

        When every rows[k] is one row, its coefficients are broadcast.
        """
        rows = np.asarray(rows)
        if rows.size and (rows == rows[0]).all():
            rows = rows[:1]
        f, df = self._values(_arguments(x), rows, slope=True)
        return -df / f

    def crossing(self, u, cap: float, rows=None) -> np.ndarray:
        """Per u_k, the x in [0, cap] where weight row rows[k] falls through u_k.

        ``rows`` defaults to u_k's own row k.  For a single target with
        f_b(0) = 1 > u_k and f_b nonincreasing, such as a no-click survival:
        u_k crosses iff f_b(cap) < u_k (an infinite cap searches [0, 1e6]).
        Safeguarded Newton on log f_b keeps the bracket
        f_b(lo) >= u_k > f_b(hi): a step that leaves the bracket, or is not
        finite, bisects it instead.  Only rows still moving are evaluated.
        Newton starts from ``np.interp`` on the table of :meth:`tabulate`
        for the tabulated row, otherwise at -log(u_k) over the slowest decay
        rate of G; a start outside (0, cap) is replaced by cap / 2.

        Certificate (the same for either start): a converged x is returned
        only if the computed pair f_b(x - 5e-11) >= u_k > f_b(x + 5e-11)
        holds, so every wait lies within 5e-11 of a computed sign change of
        f_b - u_k, a bracket of 1e-10.  A row that fails the pair, or does
        not converge, bisects its bracket to 1e-10 and returns the midpoint,
        which carries the same certificate.  Each result depends on its own
        weight row, table and u_k only.  Rows that never cross give +inf, or
        the cap itself where f_b(cap) < 1e-12 (bias far below Monte Carlo
        resolution).  When every u_k reads the same weight row, as every
        side-only wait from the ground state does, that row's coefficients
        are evaluated once and broadcast in each step; the bits and the
        counts are those of the per-row gather.

        ``last_crossing`` counts this call's crossing rows (``waits``), the
        row evaluations of the Newton loop (``newton_evals``), the converged
        rows that failed the pair (``certificate_failures``) and the rows
        that bisected (``bisections``).
        """
        u = np.asarray(u, dtype=float)
        which = np.arange(u.size) if rows is None else np.asarray(rows)
        hardcap = cap if np.isfinite(cap) else 1e6
        # f_b(cap) once per distinct weight row
        distinct, inv = np.unique(which, return_inverse=True)
        s_cap = self._values(np.full(distinct.size, hardcap), distinct)[0][inv]
        out = np.where(s_cap < 1e-12, hardcap, np.inf)
        live = np.flatnonzero(s_cap < u)
        counts = self.last_crossing = dict.fromkeys(
            ("waits", "newton_evals", "certificate_failures", "bisections"), 0)
        if not live.size:
            return out
        counts["waits"] = live.size
        u, which = u[live], which[live]

        def rows(sel):
            """The weight rows of the waits ``sel``: the one shared row, if there is one."""
            return distinct if distinct.size == 1 else which[sel]

        lo, hi = np.zeros(live.size), np.full(live.size, hardcap)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            logu = np.log(u)
            x = -logu / self._slowest_decay()
            if self._table:
                row, logf, grid = self._table
                at = which == row
                x[at] = np.interp(logu[at], logf, grid)
            x = np.where((x > 0) & (x < hardcap), x, 0.5 * hardcap)
            todo, converged = np.arange(live.size), []
            for _ in range(_NEWTON_STEPS):
                counts["newton_evals"] += todo.size
                f, df = self._values(x[todo], rows(todo), slope=True)
                below = f < u[todo]
                hi[todo] = np.where(below, x[todo], hi[todo])
                lo[todo] = np.where(below, lo[todo], x[todo])
                step = (np.log(f) - logu[todo]) * f / df
                new = np.maximum(x[todo] - step, 0.0)
                done = np.abs(step) <= _NEWTON_TOL
                keep = done | ((new > lo[todo]) & (new < hi[todo]))
                x[todo] = np.where(keep, new, 0.5 * (lo[todo] + hi[todo]))
                converged.append(todo[done])
                todo = todo[~done & (hi[todo] - lo[todo] > _BRACKET)]
                if not todo.size:
                    break
        k = np.concatenate(converged)
        pair = np.stack([np.maximum(x[k] - 0.5 * _BRACKET, 0.0), x[k] + 0.5 * _BRACKET])
        f = self._values(pair.ravel(), rows(np.tile(k, 2)))[0].reshape(2, -1)
        ok = (f[0] >= u[k]) & (f[1] < u[k])
        out[live[k[ok]]] = x[k[ok]]
        certified = np.zeros(live.size, dtype=bool)
        certified[k[ok]] = True
        rest = todo = np.flatnonzero(~certified)
        counts["certificate_failures"] = int(k.size - ok.sum())
        counts["bisections"] = rest.size
        for _ in range(int(np.ceil(np.log2(hardcap / _BRACKET)))):
            if not (todo := todo[hi[todo] - lo[todo] > _BRACKET]).size:
                break
            mid = 0.5 * (lo[todo] + hi[todo])
            below = self._values(mid, rows(todo))[0] < u[todo]
            hi[todo] = np.where(below, mid, hi[todo])
            lo[todo] = np.where(below, lo[todo], mid)
        out[live[rest]] = 0.5 * (lo[rest] + hi[rest])
        return out

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

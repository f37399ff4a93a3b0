"""Gauss-Legendre rules on intervals and on ordered time simplices.

The kernel oracle (:mod:`resfluor.guichardet`) integrates over ordered
photon times 0 < v_1 < ... < v_n < T; the verify battery's brute-force
amplitude uses the interval rule.  We map the unit cube onto that simplex with the
triangular substitution v_k = T * u_k * u_{k+1} * ... * u_n (Jacobian
T^n * prod_k u_{k+1}^1 ... ), tensor a 1D Gauss-Legendre rule over the cube,
and hand back the inter-arrival gaps d_1 = v_1, d_k = v_k - v_{k-1},
d_{n+1} = T - v_n alongside the weights.  Integrands here are products of
exponentials in the times, so the rule converges spectrally.  The caller
picks the per-axis order; the oracle caps it by its own node budget.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = ["gauss_legendre_01", "simplex_nodes"]

_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre_01(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss-Legendre rule on [0, 1]."""
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    if order not in _cache:
        x, w = leggauss(order)
        _cache[order] = ((x + 1.0) / 2.0, w / 2.0)
    return _cache[order]


def simplex_nodes(ndim: int, length: float, order: int):
    """Quadrature for the ordered simplex 0 < v_1 < ... < v_ndim < length.

    Returns ``(times, gaps, weights)`` where ``times`` has shape
    (nnodes, ndim) holding the ordered v's, ``gaps`` has shape
    (nnodes, ndim + 1) holding inter-arrival coordinates (first gap from 0,
    last gap up to ``length``), and ``weights`` sums to length**ndim / ndim!.
    The rule has ``order`` nodes per axis, order**ndim in all.
    """
    if ndim < 0:
        raise ValueError("ndim must be >= 0")
    if ndim == 0:
        return (
            np.zeros((1, 0)),
            np.full((1, 1), float(length)),
            np.ones(1),
        )
    x, w = gauss_legendre_01(order)
    grids = np.meshgrid(*([x] * ndim), indexing="ij")
    wgrids = np.meshgrid(*([w] * ndim), indexing="ij")
    u = np.stack([g.ravel() for g in grids], axis=1)  # (B, ndim)
    weight = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)

    # v_k = length * u_k * u_{k+1} * ... * u_ndim via a reversed cumprod
    suffix = np.cumprod(u[:, ::-1], axis=1)[:, ::-1]
    times = float(length) * suffix
    # Jacobian: length^ndim * prod_{k=2..ndim} u_k^(k-1)
    jac = float(length) ** ndim * np.prod(
        u[:, 1:] ** np.arange(1, ndim), axis=1
    )
    weight = weight * jac

    gaps = np.empty((times.shape[0], ndim + 1))
    gaps[:, 0] = times[:, 0]
    if ndim > 1:
        gaps[:, 1:ndim] = np.diff(times, axis=1)
    gaps[:, ndim] = float(length) - times[:, -1]
    return times, gaps, weight

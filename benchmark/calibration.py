"""Host-speed calibration: a fixed kernel timed alongside the rounds.

The benchmark's host is a few cores of a shared machine whose speed drifts
by 10-30 % over tens of seconds, and that drift moves every step of a run
together (see README.md, "Host-speed calibration").  The kernel below does
a fixed amount of work of the kinds the program does, and uses nothing from
``resfluor``:

- a Python loop over small complex matrix products (the counting maps, the
  oracle and ``evolve``);
- products over a large batch of 4x4 matrices;
- a bisection over a few thousand rows with fancy indexing (the sampler's
  waiting-time inversion);
- one seeded generator per index (the sampler's per-trajectory streams);
- formatting floats into CSV lines (the CLI's writers).

A run times the kernel between its steps and reports its time metrics
scaled by ``NOMINAL_S`` / (median kernel time of the run): seconds at the
host speed at which the kernel takes ``NOMINAL_S``.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time, timed between the steps of the workloads, on the
# 2-vCPU VM on which the benchmark was defined.  Only ratios of scaled times
# mean anything; this constant keeps them close to wall seconds there.
NOMINAL_S = 0.12


def _small_products() -> float:
    rng = np.random.default_rng(20240601)
    a = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) * 0.2
    acc = 0.0
    for i in range(700):
        term = out = np.eye(4, dtype=complex)
        m = a * (1.0 + 1e-4 * i)
        for k in range(1, 10):
            term = term @ m / k
            out = out + term
        acc += abs(out[0, 0])
    return acc


def _batch_products() -> float:
    rng = np.random.default_rng(1)
    batch = rng.standard_normal((20000, 4, 4))
    vec = rng.standard_normal((20000, 4))
    acc = 0.0
    for _ in range(8):
        vec = np.einsum("nij,nj->ni", batch, vec)
        vec /= np.linalg.norm(vec, axis=1, keepdims=True)
        acc += float(np.cumsum(np.exp(-np.abs(vec[:, 0])))[-1])
    return acc


def _bisection() -> float:
    rng = np.random.default_rng(2)
    states = rng.standard_normal((5000, 2, 2)) + 1j * rng.standard_normal((5000, 2, 2))
    u = rng.random(5000)
    lo, hi = np.zeros(5000), np.ones(5000)
    acc = 0.0
    for _ in range(60):
        rows = np.flatnonzero(u > 0.1)
        mid = 0.5 * (lo[rows] + hi[rows])
        s = np.exp(-mid) * np.real(np.einsum("bii->b", states[rows]))
        below = s < u[rows]
        hi[rows[below]] = mid[below]
        lo[rows[~below]] = mid[~below]
        acc += float(s.sum())
    return acc


def _streams() -> float:
    return sum(float(np.random.default_rng([12345, i]).random(16).sum()) for i in range(600))


def _csv_lines() -> float:
    v = np.random.default_rng(3).random((6000, 2))
    return len("\n".join(f"{i},{x:.17g},{y:.17g},side" for i, (x, y) in enumerate(v)))


def _kernel() -> float:
    return (_small_products() + _batch_products() + _bisection() + _streams()
            + _csv_lines())


def calibration_s() -> float:
    """Wall time of one run of the kernel."""
    t = time.perf_counter()
    _kernel()
    return time.perf_counter() - t

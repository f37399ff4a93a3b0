"""Physical model of a driven, two-channel decaying two-level atom.

The atom decays through two channels with amplitudes kappa_f ("forward",
carrying the coherent drive of amplitude z) and kappa_s ("side"), normalized
so that |kappa_f|^2 + |kappa_s|^2 = 1; the total decay rate sets the unit of
time.  This module builds every generator and semigroup used elsewhere:

* ``lindblad_generator``   -- undriven relaxation generator L
* ``no_jump_generator``    -- generator L0 of the no-count semigroup
* ``no_jump_operator``     -- the 2x2 contraction B_t with Y_t(A) = B_t^dag A B_t
* ``no_count_map``         -- Y_t, conditioned on zero counts in both channels
* ``forward_jump`` / ``side_jump`` -- the jump superoperators
* ``emission_amplitude`` -- the driven amplitude of a photon record
* ``no_side_count_map``    -- Z_t = exp(t(L0 + J_f)), forward channel unobserved
* ``master_generator`` / ``master_map`` -- unconditioned driven evolution

Conventions: basis vector e1 is the excited state, e2 the ground state, and
superoperators act in the Heisenberg picture (on observables).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import EXCITED_PROJ, I2, LOWER, ad_map, mat_exp, superop_exp

__all__ = [
    "Model",
    "build_model",
    "lindblad_generator",
    "no_jump_generator",
    "no_jump_matrix_generator",
    "no_jump_operator",
    "no_count_map",
    "forward_jump",
    "side_jump",
    "emission_amplitude",
    "no_side_count_generator",
    "no_side_count_map",
    "master_generator",
    "master_map",
    "drive_commutator_form",
    "interaction_rate_constant",
    "bounded_rate_check",
]

_NORM_TOL = 1e-9


@dataclass(frozen=True)
class Model:
    """Decay amplitudes, drive amplitude, and the derived atom operators.

    ``V`` is the lowering operator, ``V_f = kappa_f V`` and ``V_s = kappa_s V``
    the channel decay operators, and ``P = V^dag V`` the excited-state
    projector.  Instances are immutable and safe to share between workers.
    """

    kappa_f: complex
    kappa_s: complex
    z: complex
    V: np.ndarray = field(default_factory=lambda: LOWER.copy(), repr=False)
    V_f: np.ndarray = field(init=False, repr=False)
    V_s: np.ndarray = field(init=False, repr=False)
    P: np.ndarray = field(default_factory=lambda: EXCITED_PROJ.copy(), repr=False)

    def __post_init__(self):
        norm2 = abs(self.kappa_f) ** 2 + abs(self.kappa_s) ** 2
        if abs(norm2 - 1.0) > _NORM_TOL:
            raise ValueError(
                "channel amplitudes must satisfy |kappa_f|^2 + |kappa_s|^2 = 1 "
                f"within {_NORM_TOL}; got {norm2!r}"
            )
        # restore the normalization exactly rather than rejecting small drift
        scale = 1.0 / np.sqrt(norm2)
        object.__setattr__(self, "kappa_f", complex(self.kappa_f) * scale)
        object.__setattr__(self, "kappa_s", complex(self.kappa_s) * scale)
        object.__setattr__(self, "z", complex(self.z))
        object.__setattr__(self, "V_f", self.kappa_f * self.V)
        object.__setattr__(self, "V_s", self.kappa_s * self.V)
        for name in ("V", "V_f", "V_s", "P"):
            getattr(self, name).setflags(write=False)


def build_model(kappa_f, kappa_s, z) -> Model:
    """Construct a :class:`Model`, renormalizing the channel amplitudes.

    Raises if |kappa_f|^2 + |kappa_s|^2 deviates from 1 by more than 1e-9.
    """
    return Model(kappa_f=complex(kappa_f), kappa_s=complex(kappa_s), z=complex(z))


def _left_mul(M: np.ndarray) -> np.ndarray:
    # superoperator of A -> M A under column-stacking
    return np.kron(I2, M)


def _right_mul(M: np.ndarray) -> np.ndarray:
    # superoperator of A -> A M under column-stacking
    return np.kron(M.T, I2)


def _anticomm_half(M: np.ndarray) -> np.ndarray:
    # A -> {M, A}/2
    return 0.5 * (_left_mul(M) + _right_mul(M))


def lindblad_generator(m: Model) -> np.ndarray:
    """Undriven relaxation generator L(A) = sum_c V_c^dag A V_c - {V^dag V, A}/2."""
    return ad_map(m.V_f) + ad_map(m.V_s) - _anticomm_half(m.P)


def no_jump_matrix_generator(m: Model) -> np.ndarray:
    """The 2x2 matrix G with B_t = exp(tG): G = -(|z|^2 I + V^dag V + 2 z V_f^dag)/2."""
    return -0.5 * (abs(m.z) ** 2 * I2 + m.P + 2.0 * m.z * m.V_f.conj().T)


def no_jump_generator(m: Model) -> np.ndarray:
    """Generator L0 of the no-count semigroup: L0(A) = G^dag A + A G."""
    G = no_jump_matrix_generator(m)
    return _left_mul(G.conj().T) + _right_mul(G)


def no_jump_operator(m: Model, t: float) -> np.ndarray:
    """No-jump contraction B_t = exp(tG); requires t >= 0.

    ||B_t|| <= 1 and B_s B_t = B_{s+t}; conditioned on seeing no photon in
    either channel, observables evolve as A -> B_t^dag A B_t.
    """
    if t < 0:
        raise ValueError("no_jump_operator requires t >= 0")
    return mat_exp(no_jump_matrix_generator(m), t)


def no_count_map(m: Model, t: float) -> np.ndarray:
    """Y_t = Ad[B_t], the zero-counts-in-both-channels map; requires t >= 0."""
    if t < 0:
        raise ValueError("no_count_map requires t >= 0")
    return ad_map(no_jump_operator(m, t))


def forward_jump(m: Model) -> np.ndarray:
    """Forward-channel jump J_f(A) = (zI + V_f)^dag A (zI + V_f).

    The drive interferes with the scattered light, so the forward jump mixes
    the laser amplitude into the atomic lowering operator.
    """
    return ad_map(m.z * I2 + m.V_f)


def side_jump(m: Model) -> np.ndarray:
    """Side-channel jump J_s(A) = V_s^dag A V_s = |kappa_s|^2 A_22 P.

    J_s @ J_s = 0: two side photons cannot arrive back to back.
    """
    return ad_map(m.V_s)


def emission_amplitude(m: Model, t: float, omega_f, omega_s) -> np.ndarray:
    """Driven amplitude of emissions at times omega_f, omega_s in [0, t].

    With the emissions ordered s_1 < ... < s_n it is
    e^{t|z|^2/2} B_{t-s_n} C_n ... C_1 B_{s_1}, where C = zI + V_f for a
    forward photon and V_s for a side photon; the prefactor cancels the
    coherent weight e^{-t|z|^2/2} inside B_t.  The kernel oracle's
    ``driven_amplitude`` computes the same matrix by an independent route.
    A time outside [0, t] raises ValueError through :func:`no_jump_operator`.
    """
    record = sorted(
        [(float(x), m.z * I2 + m.V_f) for x in omega_f] + [(float(x), m.V_s) for x in omega_s],
        key=lambda p: p[0],
    )
    amp, prev = I2, 0.0
    for x, C in record:
        amp = C @ no_jump_operator(m, x - prev) @ amp
        prev = x
    return np.exp(t * abs(m.z) ** 2 / 2) * no_jump_operator(m, t - prev) @ amp


def no_side_count_generator(m: Model) -> np.ndarray:
    """Generator L0 + J_f of the evolution between side-channel detections."""
    return no_jump_generator(m) + forward_jump(m)


def no_side_count_map(m: Model, t: float) -> np.ndarray:
    """Z_t = exp(t(L0 + J_f)): forward channel unobserved, no side counts.

    For |z| > 0 the generator's eigenvalues all have strictly negative real
    parts, so Z_t -> 0 as t -> infinity (a side photon eventually arrives).
    """
    if t < 0:
        raise ValueError("no_side_count_map requires t >= 0")
    return superop_exp(no_side_count_generator(m), t)


def master_generator(m: Model) -> np.ndarray:
    """Unconditioned driven generator L0 + J_f + J_s.

    Algebraically identical to the drive-commutator form
    -(1/2){V^dag V, .} + [z V_f^dag - conj(z) V_f, .] + V^dag . V
    and unital: it annihilates the identity.
    """
    return no_jump_generator(m) + forward_jump(m) + side_jump(m)


def master_map(m: Model, t) -> np.ndarray:
    """T_t = exp(t (L0 + J_f + J_s)); requires t >= 0.

    A 1-D array of times gives the (len(t), 4, 4) stack of maps.
    """
    if np.any(np.asarray(t) < 0):
        raise ValueError("master_map requires t >= 0")
    return superop_exp(master_generator(m), t)


def drive_commutator_form(m: Model) -> np.ndarray:
    """The master generator written as damping + drive commutator + feeding.

    Returns -(1/2){V^dag V, .} + [z V_f^dag - conj(z) V_f, .] + V^dag . V as a
    4x4 matrix; equality with :func:`master_generator` is an algebraic
    identity checked by the test suite.
    """
    C = m.z * m.V_f.conj().T - np.conj(m.z) * m.V_f
    commutator = _left_mul(C) - _right_mul(C)
    return -_anticomm_half(m.P) + commutator + ad_map(m.V)


def interaction_rate_constant(m: Model) -> float:
    """The advertised interaction-rate constant K = 2|z|^2|kappa_f|^2 + 1."""
    return 2.0 * abs(m.z) ** 2 * abs(m.kappa_f) ** 2 + 1.0


def bounded_rate_check(m: Model, t_grid, slack_tol: float = 1e-10) -> dict:
    """Check the operator bound I - B_t^dag B_t <= t*K*I on a time grid.

    For each t the smallest eigenvalue of t*K*I - (I - B_t^dag B_t) is
    recorded; the bound holds at t when that eigenvalue is >= -slack_tol.
    Returns a report dict with per-time slacks and an overall flag.

    Note: with K = 2|z|^2|kappa_f|^2 + 1 the bound genuinely fails at small t
    whenever the cross term z*kappa_f is appreciable (the small-t click rate
    reaches |z|^2 + (1 + sqrt(1 + 4|z|^2|kappa_f|^2))/2, which exceeds K for
    e.g. |kappa_f|^2 = 1/2).  The report states what the eigenvalues say; the
    looser constant 2|z|^2 + 1 always works and is exposed for reference.
    """
    K = interaction_rate_constant(m)
    entries = []
    for t in t_grid:
        if t < 0:
            raise ValueError("bounded_rate_check requires t >= 0")
        B = no_jump_operator(m, t)
        defect = I2 - B.conj().T @ B
        slack = float(np.linalg.eigvalsh(t * K * I2 - (defect + defect.conj().T) / 2).min())
        entries.append({"t": float(t), "min_slack_eig": slack, "holds": slack >= -slack_tol})
    return {
        "constant": K,
        "trace_bound_constant": 2.0 * abs(m.z) ** 2 + 1.0,
        "entries": entries,
        "all_hold": all(e["holds"] for e in entries),
    }

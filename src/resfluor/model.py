"""Physical model of a driven, two-channel decaying two-level atom.

The atom decays through two channels with amplitudes kappa_f ("forward",
carrying the coherent drive of amplitude z) and kappa_s ("side"), normalized
so that |kappa_f|^2 + |kappa_s|^2 = 1; the total decay rate sets the unit of
time.  :class:`Model` holds the atom's operators and constant generators,
built once when the model is made and kept read-only: the forward jump
operator C_f, the no-jump generator G and its superoperator L0, and the jump
maps J_f and J_s.  This module builds the maps used elsewhere from them:

* ``lindblad_generator``   -- undriven relaxation generator L
* ``no_jump_operator``     -- the 2x2 contraction B_t with Y_t(A) = B_t^dag A B_t
* ``no_count_map``         -- Y_t, conditioned on zero counts in both channels
* ``emission_amplitude`` -- the driven amplitude of a photon record
* ``no_side_count_map``    -- Z_t = exp(t(L0 + J_f)), forward channel unobserved
* ``master_generator`` / ``master_map`` -- unconditioned driven evolution

The eigen forms of the semigroups (``SemigroupCache``) are built by their
readers, the sampler's ``_ModeOps`` and the renewal battery.

Conventions: basis vector e1 is the excited state, e2 the ground state, and
superoperators act in the Heisenberg picture (on observables).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import EXCITED_PROJ, I2, LOWER, ad_map, superop_exp

__all__ = [
    "Model",
    "build_model",
    "lindblad_generator",
    "no_jump_operator",
    "no_count_map",
    "emission_amplitude",
    "no_side_count_generator",
    "no_side_count_map",
    "master_generator",
    "master_map",
    "drive_commutator_form",
]

_NORM_TOL = 1e-9


@dataclass(frozen=True)
class Model:
    """Decay amplitudes, drive amplitude, and the derived atom operators.

    ``V`` is the lowering operator, ``V_f = kappa_f V`` and ``V_s = kappa_s V``
    the channel decay operators, and ``P = V^dag V`` the excited-state
    projector.  ``C_f = zI + V_f`` is the forward jump operator: the drive
    interferes with the scattered light, so the forward jump mixes the laser
    amplitude into the atomic lowering operator.  ``G`` is the 2x2 no-jump
    generator, B_t = exp(tG), with G = -(|z|^2 I + V^dag V + 2 z V_f^dag)/2,
    and ``L0(A) = G^dag A + A G`` the generator of the no-count semigroup.
    ``J_f(A) = C_f^dag A C_f`` and ``J_s(A) = V_s^dag A V_s = |kappa_s|^2 A_22 P``
    are the jump superoperators; J_s @ J_s = 0, since two side photons cannot
    arrive back to back.

    Every operator is built when the model is made and is read-only, so
    instances are immutable and safe to share between workers.  They compare
    and hash by their amplitudes alone: models at z = 0.0 and z = -0.0 compare
    equal, and each holds the operators of its own amplitudes.
    """

    kappa_f: complex
    kappa_s: complex
    z: complex
    V: np.ndarray = field(init=False, repr=False, compare=False)
    V_f: np.ndarray = field(init=False, repr=False, compare=False)
    V_s: np.ndarray = field(init=False, repr=False, compare=False)
    P: np.ndarray = field(init=False, repr=False, compare=False)
    C_f: np.ndarray = field(init=False, repr=False, compare=False)
    G: np.ndarray = field(init=False, repr=False, compare=False)
    L0: np.ndarray = field(init=False, repr=False, compare=False)
    J_f: np.ndarray = field(init=False, repr=False, compare=False)
    J_s: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not np.all(np.isfinite([self.kappa_f, self.kappa_s, self.z])):
            raise ValueError(
                "channel and drive amplitudes must be finite; got "
                f"kappa_f={self.kappa_f!r}, kappa_s={self.kappa_s!r}, z={self.z!r}"
            )
        norm2 = abs(self.kappa_f) ** 2 + abs(self.kappa_s) ** 2
        if abs(norm2 - 1.0) > _NORM_TOL:
            raise ValueError(
                "channel amplitudes must satisfy |kappa_f|^2 + |kappa_s|^2 = 1 "
                f"within {_NORM_TOL}; got {norm2!r}"
            )
        # restore the normalization exactly rather than rejecting small drift
        scale = 1.0 / np.sqrt(norm2)
        kappa_f, kappa_s = complex(self.kappa_f) * scale, complex(self.kappa_s) * scale
        z, V = complex(self.z), LOWER.copy()
        V_f, V_s, P = kappa_f * V, kappa_s * V, EXCITED_PROJ.copy()
        G = -0.5 * (abs(z) ** 2 * I2 + P + 2.0 * z * V_f.conj().T)
        C_f = z * I2 + V_f
        ops = dict(V=V, V_f=V_f, V_s=V_s, P=P, C_f=C_f, G=G,
                   L0=_left_mul(G.conj().T) + _right_mul(G), J_f=ad_map(C_f), J_s=ad_map(V_s))
        for name, value in (("kappa_f", kappa_f), ("kappa_s", kappa_s), ("z", z), *ops.items()):
            object.__setattr__(self, name, value)
        for op in ops.values():
            op.setflags(write=False)


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


def no_jump_operator(m: Model, t: float) -> np.ndarray:
    """No-jump contraction B_t = exp(tG); requires t >= 0.

    ||B_t|| <= 1 and B_s B_t = B_{s+t}; conditioned on seeing no photon in
    either channel, observables evolve as A -> B_t^dag A B_t.
    """
    return superop_exp(m.G, t)


def no_count_map(m: Model, t: float) -> np.ndarray:
    """Y_t = Ad[B_t], the zero-counts-in-both-channels map; requires t >= 0."""
    return ad_map(no_jump_operator(m, t))


def emission_amplitude(m: Model, t: float, omega_f, omega_s) -> np.ndarray:
    """Driven amplitude of emissions at times omega_f, omega_s in [0, t].

    With the emissions ordered s_1 < ... < s_n it is
    e^{t|z|^2/2} B_{t-s_n} C_n ... C_1 B_{s_1}, where C = C_f = zI + V_f for a
    forward photon and V_s for a side photon; the prefactor cancels the
    coherent weight e^{-t|z|^2/2} inside B_t.  The kernel oracle's
    ``driven_amplitude`` computes the same matrix by an independent route.
    Every B factor comes from one stacked exponential over the n + 1 gaps,
    which equals the per-gap :func:`no_jump_operator` bit for bit.  A time
    outside [0, t] makes a gap negative, and :func:`superop_exp` raises
    ValueError.
    """
    record = sorted(
        [(float(x), m.C_f) for x in omega_f] + [(float(x), m.V_s) for x in omega_s],
        key=lambda p: p[0],
    )
    gaps = np.diff([0.0, *(x for x, _ in record), float(t)])
    B = superop_exp(m.G, gaps)
    amp = I2
    for (_, C), B_gap in zip(record, B):
        amp = C @ B_gap @ amp
    return np.exp(t * abs(m.z) ** 2 / 2) * B[-1] @ amp


def no_side_count_generator(m: Model) -> np.ndarray:
    """Generator L0 + J_f of the evolution between side-channel detections."""
    return m.L0 + m.J_f


def no_side_count_map(m: Model, t: float) -> np.ndarray:
    """Z_t = exp(t(L0 + J_f)): forward channel unobserved, no side counts.

    For |z| > 0 the generator's eigenvalues all have strictly negative real
    parts, so Z_t -> 0 as t -> infinity (a side photon eventually arrives).
    """
    return superop_exp(no_side_count_generator(m), t)


def master_generator(m: Model) -> np.ndarray:
    """Unconditioned driven generator L0 + J_f + J_s.

    Algebraically identical to the drive-commutator form
    -(1/2){V^dag V, .} + [z V_f^dag - conj(z) V_f, .] + V^dag . V
    and unital: it annihilates the identity.
    """
    return m.L0 + m.J_f + m.J_s


def master_map(m: Model, t) -> np.ndarray:
    """T_t = exp(t (L0 + J_f + J_s)); requires t >= 0.

    A 1-D array of times gives the (len(t), 4, 4) stack of maps.
    """
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

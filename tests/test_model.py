import math

import numpy as np
import pytest

from conftest import random_model
from resfluor.linalg import (
    EXCITED_PROJ,
    I2,
    LOWER,
    ad_map,
    apply_superop,
    frobenius_dist,
    superop_exp,
    vec,
)
from resfluor.model import (
    Model,
    build_model,
    drive_commutator_form,
    emission_amplitude,
    lindblad_generator,
    master_generator,
    master_map,
    no_count_map,
    no_jump_operator,
    no_side_count_generator,
    no_side_count_map,
)

SQ2 = 2.0 ** -0.5


def test_build_model_examples():
    m = build_model(SQ2, SQ2, 0.5)
    assert abs(abs(m.kappa_f) ** 2 + abs(m.kappa_s) ** 2 - 1.0) < 1e-15
    m2 = build_model(1.0, 0.0, 0.3j)
    assert np.all(m2.V_s == 0)
    with pytest.raises(ValueError):
        build_model(0.9, 0.9, 0.0)
    for args in ((np.nan, SQ2, 1.0), (SQ2, SQ2, np.nan), (SQ2, SQ2, complex(np.inf, 0))):
        with pytest.raises(ValueError, match="finite"):
            build_model(*args)


def test_model_operators_are_not_arguments():
    for name in ("V", "P", "C_f", "G", "L0", "J_f", "J_s"):
        with pytest.raises(TypeError):
            Model(kappa_f=SQ2, kappa_s=SQ2, z=1.0, **{name: np.eye(2)})
    m = Model(kappa_f=SQ2, kappa_s=SQ2, z=1.0)
    assert np.array_equal(m.V, LOWER) and np.array_equal(m.P, EXCITED_PROJ)


def test_model_equality_and_hash_follow_the_amplitudes():
    a, b = build_model(0.6, 0.8, 1), build_model(0.6, 0.8, 1)
    assert a == b and hash(a) == hash(b)
    assert a != build_model(0.6, 0.8, 1.5)
    table = {a: "first"}
    assert table[b] == "first"


def _no_jump_matrix(m):
    return -0.5 * (abs(m.z) ** 2 * I2 + m.P + 2.0 * m.z * m.V_f.conj().T)


# each operator's formula, spelled from the amplitudes
_OPERATORS = {
    "C_f": lambda m: m.z * I2 + m.V_f,
    "G": _no_jump_matrix,
    "L0": lambda m: np.kron(I2, _no_jump_matrix(m).conj().T) + np.kron(_no_jump_matrix(m).T, I2),
    "J_f": lambda m: ad_map(m.z * I2 + m.V_f),
    "J_s": lambda m: ad_map(m.V_s),
}


@pytest.mark.parametrize("name", sorted(_OPERATORS))
def test_operators_are_built_with_the_model_and_read_only(name):
    formula = _OPERATORS[name]
    m = build_model(0.6, 0.8j, 1.0 - 0.5j)
    a = getattr(m, name)
    assert getattr(m, name) is a and not a.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        a[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        a += 0.0
    assert a.tobytes() == formula(m).tobytes()
    # built per instance, not looked up by equality: equal models each hold
    # the arrays of their own amplitudes
    plus, minus = build_model(0.6, 0.8, 0.0), build_model(0.6, 0.8, -0.0)
    assert plus == minus and math.copysign(1.0, minus.z.real) == -1.0
    for m in (plus, minus):
        assert getattr(m, name).tobytes() == formula(m).tobytes()
    assert getattr(plus, name) is not getattr(minus, name)


def test_build_model_renormalizes_small_drift():
    m = build_model(SQ2 * (1 + 4e-10), SQ2, 1.0)
    assert abs(abs(m.kappa_f) ** 2 + abs(m.kappa_s) ** 2 - 1.0) < 1e-15


def test_lindblad_examples(sym_model):
    L = lindblad_generator(sym_model)
    assert np.linalg.norm(apply_superop(L, I2)) < 1e-15
    assert frobenius_dist(apply_superop(L, EXCITED_PROJ), -EXCITED_PROJ) < 1e-15
    assert frobenius_dist(apply_superop(L, LOWER), -0.5 * LOWER) < 1e-15


def test_no_jump_operator_corners(sym_model, undriven_model):
    assert frobenius_dist(no_jump_operator(sym_model, 0.0), I2) == 0.0
    B = no_jump_operator(undriven_model, 1.3)
    assert frobenius_dist(B, np.diag([np.exp(-0.65), 1.0])) < 1e-15
    with pytest.raises(ValueError):
        no_jump_operator(sym_model, -0.1)


def test_no_jump_operator_vs_series_oracle(sym_model):
    # independent plain Taylor summation of the upper-triangular generator
    G = sym_model.G
    term = np.eye(2, dtype=complex)
    total = np.eye(2, dtype=complex)
    for k in range(1, 60):
        term = term @ G / k
        total = total + term
    assert frobenius_dist(no_jump_operator(sym_model, 1.0), total) < 1e-14


@pytest.mark.parametrize("seed", range(6))
def test_no_jump_contraction_and_semigroup(seed):
    rng = np.random.default_rng(300 + seed)
    m = random_model(rng)
    s, t = rng.uniform(0, 2, size=2)
    Bs, Bt, Bst = (no_jump_operator(m, x) for x in (s, t, s + t))
    assert np.linalg.norm(Bs @ Bt - Bst) < 1e-12
    assert np.linalg.norm(Bt, 2) <= 1.0 + 1e-12


def test_no_count_map_examples(sym_model, undriven_model):
    assert frobenius_dist(no_count_map(sym_model, 0.0), np.eye(4)) == 0.0
    rng = np.random.default_rng(5)
    s, t = rng.uniform(0, 2, size=2)
    comp = no_count_map(sym_model, s) @ no_count_map(sym_model, t)
    assert frobenius_dist(comp, no_count_map(sym_model, s + t)) < 1e-10
    out = apply_superop(no_count_map(undriven_model, 0.9), I2)
    assert frobenius_dist(out, np.diag([np.exp(-0.9), 1.0])) < 1e-14


def test_forward_jump_examples(sym_model, undriven_model):
    Jf0 = undriven_model.J_f
    got = apply_superop(Jf0, I2)
    assert frobenius_dist(got, abs(undriven_model.kappa_f) ** 2 * EXCITED_PROJ) < 1e-15
    m = sym_model
    expect = (
        abs(m.z) ** 2 * I2
        + np.conj(m.z) * m.V_f
        + m.z * m.V_f.conj().T
        + abs(m.kappa_f) ** 2 * EXCITED_PROJ
    )
    assert frobenius_dist(apply_superop(m.J_f, I2), expect) < 1e-15
    assert frobenius_dist(
        apply_superop(m.J_f, EXCITED_PROJ), abs(m.z) ** 2 * EXCITED_PROJ
    ) < 1e-15


def test_side_jump_examples(sym_model):
    m = sym_model
    Js = m.J_s
    assert frobenius_dist(apply_superop(Js, I2), abs(m.kappa_s) ** 2 * EXCITED_PROJ) < 1e-15
    assert np.linalg.norm(Js @ Js) == 0.0  # photons antibunch: no double click
    rng = np.random.default_rng(11)
    B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert frobenius_dist(
        apply_superop(Js, B), abs(m.kappa_s) ** 2 * B[1, 1] * EXCITED_PROJ
    ) < 1e-15


def test_no_jump_generator_examples(sym_model, undriven_model):
    m = sym_model
    L0 = m.L0
    expect = -(
        abs(m.z) ** 2 * I2 + m.P + m.z * m.V_f.conj().T + np.conj(m.z) * m.V_f
    )
    assert frobenius_dist(apply_superop(L0, I2), expect) < 1e-15
    L0u = undriven_model.L0
    assert frobenius_dist(apply_superop(L0u, EXCITED_PROJ), -EXCITED_PROJ) < 1e-15
    for t in (0.1, 1.0, 5.0):
        assert frobenius_dist(superop_exp(L0, t), no_count_map(m, t)) < 1e-10


def test_no_side_count_map(sym_model, undriven_model):
    assert frobenius_dist(no_side_count_map(sym_model, 0.0), np.eye(4)) == 0.0
    out = apply_superop(no_side_count_map(undriven_model, 1.1), EXCITED_PROJ)
    assert frobenius_dist(out, np.exp(-1.1) * EXCITED_PROJ) < 1e-12
    # driven generator is strictly stable, side photon always comes
    eigs = np.linalg.eigvals(no_side_count_generator(sym_model))
    assert np.max(eigs.real) < -1e-3
    with pytest.raises(ValueError):
        no_side_count_map(sym_model, -1.0)


def test_negative_times_raise_through_superop_exp(sym_model):
    # the maps keep no time checks of their own: superop_exp rejects t < 0
    for f in (no_jump_operator, no_count_map, no_side_count_map, master_map):
        with pytest.raises(ValueError, match="t >= 0"):
            f(sym_model, -0.5)
    with pytest.raises(ValueError, match="t >= 0"):
        master_map(sym_model, np.array([0.5, -0.5]))


@pytest.mark.parametrize("seed", range(4))
def test_emission_amplitude_equals_the_per_click_loop(seed):
    # one stacked exponential over the gaps gives the bits of one
    # no_jump_operator call per gap
    rng = np.random.default_rng(seed)
    m, t = random_model(rng), rng.uniform(0.5, 3.0)
    for n_f, n_s in ((0, 0), (1, 0), (0, 1), (2, 3), (5, 1)):
        omega_f, omega_s = rng.uniform(0.0, t, n_f), rng.uniform(0.0, t, n_s)
        record = sorted(
            [(float(x), m.z * I2 + m.V_f) for x in omega_f]
            + [(float(x), m.V_s) for x in omega_s],
            key=lambda p: p[0],
        )
        amp, prev = I2, 0.0
        for x, C in record:
            amp = C @ no_jump_operator(m, x - prev) @ amp
            prev = x
        loop = np.exp(t * abs(m.z) ** 2 / 2) * no_jump_operator(m, t - prev) @ amp
        got = emission_amplitude(m, t, omega_f, omega_s)
        assert got.tobytes() == loop.tobytes(), (n_f, n_s)


def test_emission_amplitude_rejects_times_outside_the_horizon(sym_model):
    for omega_f, omega_s in (((-0.1,), ()), ((), (1.2,)), ((0.3,), (0.5, 1.0 + 1e-9))):
        with pytest.raises(ValueError, match="t >= 0"):
            emission_amplitude(sym_model, 1.0, omega_f, omega_s)
    # the horizon ends themselves are inside
    emission_amplitude(sym_model, 1.0, (0.0,), (1.0,))


def test_master_generator_identities(sym_model, undriven_model):
    m = sym_model
    assert np.linalg.norm(apply_superop(master_generator(m), I2)) < 1e-14
    assert (
        frobenius_dist(master_generator(undriven_model), lindblad_generator(undriven_model))
        < 1e-12
    )
    rng = np.random.default_rng(42)
    for _ in range(20):
        mm = random_model(rng)
        assert frobenius_dist(master_generator(mm), drive_commutator_form(mm)) < 1e-12
        T = master_map(mm, 0.7)
        assert frobenius_dist(apply_superop(T, I2), I2) < 1e-10

import numpy as np
import pytest
from scipy.linalg import expm

from resfluor.linalg import (
    EXCITED_PROJ,
    I2,
    LOWER,
    ad_map,
    apply_superop,
    choi_matrix,
    devec,
    frobenius_dist,
    is_completely_positive,
    mat_exp,
    require_density_matrix,
    superop_exp,
    vec,
)


def test_mat_exp_zero_time():
    M = np.array([[1.0, 2.0], [3.0, -1.0]], dtype=complex)
    assert frobenius_dist(mat_exp(M, 0.0), I2) == 0.0


def test_mat_exp_diagonal():
    for t in (0.3, 1.0, 4.5):
        out = mat_exp(np.diag([1.0, 0.0]).astype(complex), t)
        assert frobenius_dist(out, np.diag([np.exp(t), 1.0])) < 1e-14


def test_mat_exp_nilpotent():
    out = mat_exp(LOWER, 1.0)
    assert frobenius_dist(out, I2 + LOWER) == 0.0


@pytest.mark.parametrize("seed", range(12))
def test_mat_exp_random_vs_scipy(seed):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    t = rng.uniform(-2, 2)
    ref = expm(t * M)
    assert frobenius_dist(mat_exp(M, t), ref) < 1e-12 * max(1.0, np.linalg.norm(ref))


def test_mat_exp_rejects_nonfinite():
    with pytest.raises(ValueError):
        mat_exp(np.array([[np.nan, 0], [0, 0]]), 1.0)
    with pytest.raises(ValueError):
        mat_exp(I2, np.inf)


def test_superop_exp_identity_and_domain():
    assert frobenius_dist(superop_exp(np.zeros((4, 4)), 2.0), np.eye(4)) == 0.0
    with pytest.raises(ValueError):
        superop_exp(np.eye(4), -0.1)


@pytest.mark.parametrize("seed", range(8))
def test_superop_exp_semigroup(seed):
    rng = np.random.default_rng(100 + seed)
    G = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    G *= 5.0 / np.linalg.norm(G, 2)
    s, t = rng.uniform(0, 2, size=2)
    lhs = superop_exp(G, s) @ superop_exp(G, t)
    ref = superop_exp(G, s + t)
    assert frobenius_dist(lhs, ref) < 1e-10 * max(1.0, np.linalg.norm(ref))


def test_superop_exp_vs_scipy():
    rng = np.random.default_rng(7)
    G = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert frobenius_dist(superop_exp(G, 0.8), expm(0.8 * G)) < 1e-12


def test_superop_exp_stacked_times():
    rng = np.random.default_rng(8)
    G = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    ts = np.array([0.0, 0.3, 1.7, 12.0])
    stack = superop_exp(G, ts)
    assert stack.shape == (4, 4, 4)
    for t, S in zip(ts, stack):
        assert np.array_equal(S, superop_exp(G, float(t)))
    for bad in ([0.1, -0.1], [0.1, np.nan], [[0.1, 0.2]]):
        with pytest.raises(ValueError):
            superop_exp(G, np.array(bad))


def test_ad_map_examples():
    A = np.array([[1.0, 2.0j], [0.5, -1.0]])
    assert frobenius_dist(apply_superop(ad_map(I2), A), A) == 0.0
    assert frobenius_dist(apply_superop(ad_map(LOWER), I2), EXCITED_PROJ) == 0.0
    # V^dag P V = 0
    assert frobenius_dist(apply_superop(ad_map(LOWER), EXCITED_PROJ), np.zeros((2, 2))) == 0.0


@pytest.mark.parametrize("seed", range(6))
def test_ad_map_preserves_hermiticity_and_is_cp(seed):
    rng = np.random.default_rng(200 + seed)
    M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    H = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    H = H + H.conj().T
    out = apply_superop(ad_map(M), H)
    assert frobenius_dist(out, out.conj().T) < 1e-12
    C = choi_matrix(ad_map(M))
    assert np.linalg.eigvalsh((C + C.conj().T) / 2).min() >= -1e-12
    assert is_completely_positive(ad_map(M), tol=1e-12)


def test_frobenius_dist_examples():
    assert frobenius_dist(I2, I2) == 0.0
    assert frobenius_dist(I2, np.zeros((2, 2))) == pytest.approx(np.sqrt(2))
    assert frobenius_dist(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(np.sqrt(2))


def test_vec_roundtrip_exact():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.array_equal(devec(vec(A)), A)
    # fixed basis order (E11, E21, E12, E22): column stacking
    assert np.array_equal(vec(np.array([[1, 3], [2, 4]])), np.array([1, 2, 3, 4], dtype=complex))


def test_density_matrix_validation():
    require_density_matrix(np.diag([0.3, 0.7]))
    with pytest.raises(ValueError):
        require_density_matrix(np.diag([0.6, 0.7]))
    with pytest.raises(ValueError):
        require_density_matrix(np.array([[0.5, 0.5], [0.1, 0.5]]))
    with pytest.raises(ValueError):
        require_density_matrix(np.diag([1.5, -0.5]))

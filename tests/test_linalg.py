import numpy as np
import pytest
from scipy.linalg import expm

from resfluor import linalg
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
    require_density_matrix,
    superop_exp,
    vec,
)


# superop_exp on 2x2 generators, the case of the no-jump contraction B_t


def test_mat_exp_zero_time():
    M = np.array([[1.0, 2.0], [3.0, -1.0]], dtype=complex)
    assert frobenius_dist(superop_exp(M, 0.0), I2) == 0.0


def test_mat_exp_diagonal():
    # a diagonal generator takes the exact route: exp of the diagonal
    for t in (0.3, 1.0, 4.5):
        out = superop_exp(np.diag([1.0, 0.0]).astype(complex), t)
        assert frobenius_dist(out, np.diag([np.exp(t), 1.0])) == 0.0
    d = np.array([-3.0 + 2.0j, 0.5j, 40.0, -700.0])
    assert np.array_equal(superop_exp(np.diag(d), 1.0), np.diag(np.exp(d)))


def test_mat_exp_nilpotent():
    out = superop_exp(LOWER, 1.0)
    assert frobenius_dist(out, I2 + LOWER) == 0.0


@pytest.mark.parametrize("seed", range(12))
def test_mat_exp_random_vs_scipy(seed):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    t = rng.uniform(0, 2)
    ref = expm(t * M)
    assert frobenius_dist(superop_exp(M, t), ref) < 1e-12 * max(1.0, np.linalg.norm(ref))


def test_mat_exp_rejects_nonfinite():
    with pytest.raises(ValueError):
        superop_exp(np.array([[np.nan, 0], [0, 0]]), 1.0)
    with pytest.raises(ValueError):
        superop_exp(I2, np.inf)
    with pytest.raises(ValueError):
        superop_exp(np.ones((2, 3)), 1.0)


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


def _scaled_generators(rng, n, norms):
    """Random complex n x n generators G with ||0.8 G||_1 equal to each of ``norms``.

    Each is shifted to spectral abscissa 0, as a semigroup generator, so that
    exp(tG) cannot overflow at the large norms.
    """
    G = rng.normal(size=(len(norms), n, n)) + 1j * rng.normal(size=(len(norms), n, n))
    G -= np.linalg.eigvals(G).real.max(axis=1)[:, None, None] * np.eye(n)
    return G * (np.asarray(norms) / 0.8 / _norm1(G))[:, None, None]


def _norm1(M):
    return np.abs(M).sum(axis=-2).max(axis=-1)


# ||tG||_1 from 1e-3 to 1e3: unscaled (s = 0) and up to 8 squarings
# (theta_13 = 5.37)
PADE_NORMS = np.geomspace(1e-3, 1e3, 19)


def test_superop_exp_vs_scipy():
    # Both routines are scaling-and-squaring Pade methods with backward error
    # at most u ||tG||_1 (u = 2^-53) plus O(n u) rounding per product, and
    # exp's relative condition number is at most about ||tG||_1, so they
    # differ relatively by at most c n u max(1, ||tG||_1); c = 16 is ten times
    # the largest c seen over these sizes and norms.
    scalings = np.maximum(0, np.ceil(np.log2(PADE_NORMS / linalg._THETA_13)))
    assert scalings.min() == 0 and scalings.max() > 0
    rng = np.random.default_rng(7)
    u = 2.0**-53
    for n in (2, 4, 8, 16, 36, 64):
        for norm, G in zip(PADE_NORMS, _scaled_generators(rng, n, PADE_NORMS)):
            ref = expm(0.8 * G)
            err = _norm1(superop_exp(G, 0.8) - ref) / _norm1(ref)
            assert err <= 16 * n * u * max(1.0, norm), (n, norm, err)


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
    # a stack of generators: each slice picks its own scaling, so it equals
    # its single call bit for bit, diagonal and zero slices included
    for n in (2, 4, 16, 36):
        Gs = _scaled_generators(rng, n, PADE_NORMS)
        Gs[3] = np.diag(rng.normal(size=n) + 1j * rng.normal(size=n))
        Gs[7] = 0.0
        ts = rng.uniform(0.0, 2.0, size=len(Gs))
        stack = superop_exp(Gs, ts)
        assert stack.shape == Gs.shape
        for G, t, S in zip(Gs, ts, stack):
            assert np.array_equal(S, superop_exp(G, t)), (n, t)
        assert np.array_equal(stack[3], np.diag(np.exp(ts[3] * np.diag(Gs[3]))))
        assert np.array_equal(stack[7], np.eye(n))
        assert superop_exp(Gs[:0], ts[:0]).shape == (0, n, n)
        for bad_t in (ts[:-1], 0.5, ts[None]):
            with pytest.raises(ValueError):
                superop_exp(Gs, bad_t)
        with pytest.raises(ValueError):
            superop_exp(Gs[:, :, :-1], ts)


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
    # on a map that is not CP, the Choi matrix is still exactly its defining sum
    S = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert not is_completely_positive(S)
    defining = sum(np.kron(E, apply_superop(S, E)) for E in map(devec, np.eye(4)))
    assert np.array_equal(choi_matrix(S), defining)


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


def test_vec_of_a_stack_is_the_stack_of_vecs():
    rng = np.random.default_rng(4)
    stack = rng.normal(size=(3, 5, 2, 2)) + 1j * rng.normal(size=(3, 5, 2, 2))
    rows = vec(stack)
    assert rows.shape == (3, 5, 4)
    assert all(np.array_equal(rows[i, j], vec(stack[i, j])) for i in range(3) for j in range(5))
    assert np.array_equal(devec(rows), stack)
    with pytest.raises(ValueError):
        vec(np.zeros((4, 3)))
    with pytest.raises(ValueError):
        devec(np.zeros((4, 3)))
    with pytest.raises(ValueError):
        apply_superop(np.eye(4), np.zeros((4, 2, 2)))


def test_density_matrix_validation():
    require_density_matrix(np.diag([0.3, 0.7]))
    with pytest.raises(ValueError):
        require_density_matrix(np.diag([0.6, 0.7]))
    with pytest.raises(ValueError):
        require_density_matrix(np.array([[0.5, 0.5], [0.1, 0.5]]))
    with pytest.raises(ValueError):
        require_density_matrix(np.diag([1.5, -0.5]))
    bad_diagonal = np.diag([0.5 + 1e-9j, 0.5 - 1e-9j])
    for bad in (bad_diagonal, np.diag([np.nan, 1.0]), np.diag([np.inf, 0.0]), np.zeros((2, 3))):
        with pytest.raises(ValueError):
            require_density_matrix(bad)


def _verdict(rho):
    try:
        require_density_matrix(rho)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("k", [0, 3, 8])
def test_density_matrix_stack_names_its_first_bad_row(k):
    stack = np.broadcast_to(np.diag([0.3, 0.7]).astype(complex), (10, 2, 2)).copy()
    stack[k] = np.diag([1.5, -0.5])
    stack[-1] = np.diag([0.6, 0.7])
    with pytest.raises(ValueError, match=rf"negative eigenvalue .*\(row {k}\)$"):
        require_density_matrix(stack)
    assert require_density_matrix(stack[:k]).shape == (k, 2, 2)


@pytest.mark.parametrize("seed", range(4))
def test_density_matrix_stack_decides_as_row_by_row(seed):
    # each row sits within a few tolerances of all three boundaries
    rng = np.random.default_rng(900 + seed)
    B, eps = 400, 1e-12
    p = rng.uniform(-1.5 * eps, 1.5 * eps, B)
    theta = rng.uniform(0, 2 * np.pi, B)
    vecs = np.stack([np.cos(theta), np.exp(1j * theta) * np.sin(theta)], axis=1)
    proj = np.einsum("bi,bj->bij", vecs, vecs.conj())
    stack = p[:, None, None] * proj + (1 - p)[:, None, None] * (np.eye(2) - proj)
    stack += rng.uniform(-1.5 * eps, 1.5 * eps, B)[:, None, None] * np.eye(2) / 2
    skew = rng.uniform(-0.3 * eps, 0.3 * eps, (3, B)) * 1j
    stack[:, 0, 1] += skew[0]
    stack[:, 1, 0] += skew[0]
    stack[:, 0, 0] += skew[1]
    stack[:, 1, 1] += skew[2]
    rows = [_verdict(r) for r in stack]
    good = [i for i, v in enumerate(rows) if v is None]
    bad = [i for i, v in enumerate(rows) if v is not None]
    assert 0.1 * B < len(good) < 0.9 * B, len(good)
    assert {v for v in rows if v} == {
        "density matrix is not Hermitian within tolerance",
        "density matrix trace differs from 1 beyond tolerance",
        "density matrix has a negative eigenvalue beyond tolerance",
    }
    # the closed forms against the generic routines, on every row that
    # clears each boundary by more than their rounding (a few 1e-16)
    adj = stack.conj().transpose(0, 2, 1)
    reference = np.stack([
        np.linalg.norm(stack - adj, axis=(1, 2)),
        abs(np.trace(stack, axis1=1, axis2=2) - 1.0),
        -np.linalg.eigvalsh((stack + adj) / 2).min(axis=1),
    ]) - eps
    clear = (abs(reference) > 1e-14).all(axis=0)
    assert clear.sum() > 0.9 * B
    assert ((reference > 0).any(axis=0) == [v is not None for v in rows])[clear].all()
    assert _verdict(stack[good]) is None
    assert _verdict(stack) == f"{rows[bad[0]]} (row {bad[0]})"
    for j in bad[:40]:
        sub = stack[good[:5] + [j]]
        assert _verdict(sub) == f"{rows[j]} (row 5)"

import numpy as np
import pytest
from scipy.linalg import expm

from resfluor.semigroup import SemigroupCache


@pytest.mark.parametrize("seed", range(5))
def test_cache_matches_expm(seed):
    rng = np.random.default_rng(400 + seed)
    G = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    sg = SemigroupCache(G)
    xs = rng.uniform(0, 3, size=7)
    fast = sg.at(xs)
    for k, x in enumerate(xs):
        assert np.linalg.norm(fast[k] - expm(x * G)) < 1e-10 * max(
            1.0, np.linalg.norm(expm(x * G))
        )


def test_defective_generator_falls_back():
    # a Jordan block is not diagonalizable; the batch fallback must engage
    G = np.zeros((4, 4), dtype=complex)
    G[0, 1] = G[1, 2] = G[2, 3] = 1.0
    sg = SemigroupCache(G)
    assert not sg._diagonalizable
    xs = np.array([0.0, 0.5, 2.0])
    out = sg.at(xs)
    for k, x in enumerate(xs):
        assert np.linalg.norm(out[k] - expm(x * G)) < 1e-12


def test_scalar_argument_shape():
    G = np.diag([-1.0, -2.0, -3.0, -4.0]).astype(complex)
    sg = SemigroupCache(G)
    out = sg.at(0.5)
    assert out.shape == (4, 4)
    assert np.allclose(np.diag(out), np.exp(0.5 * np.diag(G)))
    with pytest.raises(ValueError):
        sg.at(-0.2)


def test_identity_exact_at_zero():
    # Z_0 = Id bit for bit on both paths, for scalar and array arguments
    rng = np.random.default_rng(23)
    G_eig = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    G_jordan = np.zeros((4, 4), dtype=complex)
    G_jordan[0, 1] = G_jordan[1, 2] = G_jordan[2, 3] = 1.0
    xs = np.array([0.0, 0.4, 0.0, 1.3])
    for G, diagonalizable in ((G_eig, True), (G_jordan, False)):
        sg = SemigroupCache(G)
        assert sg._diagonalizable is diagonalizable
        assert np.array_equal(sg.at(0.0), np.eye(4))
        out = sg.at(xs)
        assert np.array_equal(out[0], np.eye(4))
        assert np.array_equal(out[2], np.eye(4))
        assert not np.array_equal(out[1], np.eye(4))


def _generators():
    rng = np.random.default_rng(31)
    jordan = -0.5 * np.eye(4, dtype=complex)
    jordan[0, 1] = jordan[1, 2] = jordan[2, 3] = 1.0
    return {
        "random": rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) - 2 * np.eye(4),
        "zero-eigenvalue": np.diag([0.0, -1.0, -0.5 + 2j, -0.5 - 2j]).astype(complex),
        "jordan": jordan,
    }


@pytest.mark.parametrize("name", ["random", "zero-eigenvalue", "jordan"])
def test_component_value_and_integral(name):
    from scipy.integrate import quad

    G = _generators()[name]
    sg = SemigroupCache(G)
    assert sg._diagonalizable is (name != "jordan")
    rng = np.random.default_rng(32)
    W = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    t = rng.normal(size=4) + 1j * rng.normal(size=4)
    xs = np.array([0.0, 0.3, 1.7])

    def exact(b, x):
        return float(np.real(W[b].conj() @ expm(x * G) @ t))

    f = sg.component(W, t)
    vals = f(xs)
    # Z_0 = Id exactly: orthogonal weight and target give exactly zero
    e = np.eye(4)
    assert sg.component(e[0], e[1])(0.0)[0] == 0.0
    assert sg.component(e[0], e[1]).integral(0.0)[0] == 0.0
    for b, x in enumerate(xs):
        assert vals[b] == pytest.approx(exact(b, x), rel=1e-12, abs=1e-12)
        ref = quad(lambda s: exact(b, s), 0.0, x, epsabs=1e-13, epsrel=1e-13)[0]
        assert f.integral(xs)[b] == pytest.approx(ref, rel=1e-11, abs=1e-13)
    # one row evaluated at many arguments
    one = sg.component(W[1], t)
    assert one(xs).shape == (3,)
    assert one(xs)[1] == pytest.approx(vals[1], rel=1e-14)
    with pytest.raises(ValueError):
        f.integral(np.array([0.1, -0.1, 0.2]))


@pytest.mark.parametrize("name", ["random", "zero-eigenvalue", "jordan"])
def test_stacked_targets_equal_single_targets(name):
    # k stacked targets give k rows, each its own component to roundoff
    sg = SemigroupCache(_generators()[name])
    rng = np.random.default_rng(33)
    W = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    T = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    xs = np.array([0.0, 0.3, 1.7, 2.5, 0.0])
    stacked = sg.component(W, T)
    assert stacked(xs).shape == stacked.integral(xs).shape == (3, 5)
    close = lambda a, b: np.allclose(a, b, rtol=1e-13, atol=1e-14)
    for k, t in enumerate(T):
        single = sg.component(W, t)
        assert close(stacked(xs)[k], single(xs))
        assert close(stacked.integral(xs)[k], single.integral(xs))
        assert np.array_equal(stacked(xs)[k][xs == 0.0], single(xs)[xs == 0.0])
    one_row = sg.component(W[2], T)
    assert one_row(xs).shape == (3, 5)
    assert close(one_row(xs)[1], sg.component(W[2], T[1])(xs))

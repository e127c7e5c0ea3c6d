"""The eigh-based kernels against LAPACK and scipy: the Jordan spectral
decomposition of the matrix kinds, and the exponentials behind the
structure-group and unitary generators; and the direct LAPACK calls of
maslov_kit._lapack against np.linalg, byte for byte."""

import numpy as np
import pytest
import scipy.linalg

import _oracles as orc
from maslov_kit import _lapack
from maslov_kit import algebra as al
from maslov_kit import boundary as bd


def random_hermitian(n, rng, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (a + a.conj().T)


def random_symmetric(n, rng, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * 0.5 * (a + a.T)


def check_decomposition(alg, a):
    """Descending eigenvalues of a, and a frame of orthogonal projectors
    that rebuilds it; returns the projector matrices."""
    spec = al.spectral_decompose_real(orc.from_matrix(alg, a))
    ref = np.sort(np.linalg.eigvalsh(a))[::-1]
    scale = 1.0 + np.max(np.abs(ref))
    assert np.allclose(spec.values, ref, atol=1e-11 * scale)
    projs = [orc.to_matrix(c) for c in spec.frame]
    recon = sum(lam * p for lam, p in zip(spec.values, projs))
    assert np.allclose(recon, a, atol=1e-10 * scale)
    for i, p in enumerate(projs):
        for j, q in enumerate(projs):
            assert np.allclose(p @ q, p if i == j else 0.0, atol=1e-12)
    return projs


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9])
def test_eigh_matches_lapack_hermitian(n):
    rng = np.random.default_rng(100 + n)
    alg = al.algebra(al.HERM_C, n)
    for _ in range(20):
        check_decomposition(alg, random_hermitian(n, rng))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_eigh_real_stays_real(n):
    rng = np.random.default_rng(200 + n)
    alg = al.algebra(al.SYM_R, n)
    for _ in range(20):
        for p in check_decomposition(alg, random_symmetric(n, rng)):
            assert p.dtype == np.float64


def test_eigh_descending_and_degenerate():
    alg = al.algebra(al.SYM_R, 4)
    projs = check_decomposition(alg, np.diag([2.0, 2.0, -1.0, 5.0]))
    assert np.allclose(projs[1] + projs[2], np.diag([1.0, 1.0, 0.0, 0.0]),
                       atol=1e-13)


def test_eigh_zero_matrix():
    for alg in (al.algebra(al.SYM_R, 3), al.algebra(al.HERM_C, 3)):
        projs = check_decomposition(alg, np.zeros((3, 3)))
        assert np.allclose(sum(projs), np.eye(3))


def test_expm_helpers_match_scipy():
    """exp(s H) for a symmetric or Hermitian H at real, imaginary and
    complex s, and exp(K) for a real antisymmetric K, which is orthogonal."""
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 5):
        for _ in range(10):
            for h in (random_symmetric(n, rng), random_hermitian(n, rng)):
                for s in (1.0, 0.5j, -0.25 + 0.7j):
                    assert np.allclose(bd._expm_hermitian(h, s),
                                       scipy.linalg.expm(s * h), atol=1e-11)
            a = rng.standard_normal((n, n))
            ours = bd._expm_antisymmetric(a - a.T)
            assert ours.dtype == np.float64
            assert np.allclose(ours, scipy.linalg.expm(a - a.T), atol=1e-11)
            assert np.allclose(ours @ ours.T, np.eye(n), atol=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 3, 33])
def test_lapack_matches_np_linalg_byte_for_byte(n, m):
    """_lapack calls the gufuncs that np.linalg wraps, with the signature it
    picks: on complex128 stacks of n m x m matrices (and a float64 stack for
    det) the outputs have np.linalg's dtype, shape and bytes.  This fails
    first if a numpy release changes its private gufuncs."""
    rng = np.random.default_rng([n, m, 23])

    def stack():
        return rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m))

    a, b = stack(), stack()
    herm = a + a.conj().transpose(0, 2, 1)
    calls = [("solve", (a, b)), ("solve", (a, b[0])), ("inv", (a,)), ("det", (a,)),
             ("det", (a.real,)), ("eigvals", (a,)), ("eigvalsh", (herm,))]
    for name, args in calls:
        want, got = getattr(np.linalg, name)(*args), getattr(_lapack, name)(*args)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name
    with _lapack.singular():
        got = _lapack.solve_in_state(a, b)
    assert got.tobytes() == np.linalg.solve(a, b).tobytes()


def test_lapack_raises_as_np_linalg():
    """A singular solve or inv, and eigvals on a stack holding a NaN or an
    infinity, raise np.linalg's LinAlgError with its message, and leave the
    caller's error state as it was."""
    eye = np.broadcast_to(np.eye(2, dtype=np.complex128), (3, 2, 2)).copy()
    singular = eye.copy()
    singular[1] = [[1.0, 2.0], [2.0, 4.0]]
    nan, inf = eye.copy(), eye.copy()
    nan[2, 0, 1], inf[0, 1, 1] = np.nan, np.inf

    def in_state(a, b):
        with _lapack.singular():
            return _lapack.solve_in_state(a, b)

    calls = [(np.linalg.solve, _lapack.solve, (singular, eye)),
             (np.linalg.solve, in_state, (singular, eye)),
             (np.linalg.inv, _lapack.inv, (singular,)),
             (np.linalg.eigvals, _lapack.eigvals, (nan,)),
             (np.linalg.eigvals, _lapack.eigvals, (inf,))]
    before = np.geterr()
    for theirs, ours, args in calls:
        with pytest.raises(np.linalg.LinAlgError) as want:
            theirs(*args)
        with pytest.raises(np.linalg.LinAlgError) as got:
            ours(*args)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        assert np.geterr() == before

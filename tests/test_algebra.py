"""Jordan algebra layer: products, spectral theory, Peirce spaces."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles as orc
from _cases import ALGEBRAS, IDS, from_frame, random_idempotent
from maslov_kit import algebra as al
from maslov_kit.errors import DomainError

MATRIX_ALGEBRAS = [a for a in ALGEBRAS if a.kind != al.SPIN]


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_descriptor_dimension_relation(alg):
    r, d = alg.rank, alg.mult
    assert alg.dim == r + r * (r - 1) * d // 2


def test_descriptor_validation():
    with pytest.raises(DomainError):
        al.algebra("spin", 2)
    with pytest.raises(DomainError):
        al.algebra("sym-r", 0)
    with pytest.raises(DomainError):
        al.algebra("octonion", 3)


def test_element_validation():
    alg = al.algebra(al.SYM_R, 2)
    with pytest.raises(DomainError):
        al.element(alg, [1.0, 2.0])
    with pytest.raises(DomainError):
        al.element(alg, [1.0, 2.0, np.nan])
    with pytest.raises(DomainError):
        al.element(alg, np.array([1, 2, 3], dtype=complex))
    with pytest.raises(DomainError):
        al.jmul(al.unit(alg), al.unit(al.algebra(al.SYM_R, 3)))
    x = al.element(alg, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        x.coords[0] = 5.0


def test_jmul_unit_and_orthogonal_idempotents():
    alg = al.algebra(al.SYM_R, 2)
    e11 = al.element(alg, [1.0, 0.0, 0.0])
    e22 = al.element(alg, [0.0, 1.0, 0.0])
    assert np.allclose(al.jmul(e11, e22).coords, 0.0)
    rng = np.random.default_rng(0)
    for a in ALGEBRAS:
        x = al.random_element(a, rng)
        assert np.allclose(al.jmul(al.unit(a), x).coords, x.coords)


def test_jmul_spin_example():
    alg = al.algebra(al.SPIN, 3)
    x = al.element(alg, [2.0, 1.0, 0.0])
    assert np.allclose(al.jmul(x, x).coords, [5.0, 4.0, 0.0])


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_jordan_identity_and_power_associativity(alg):
    rng = np.random.default_rng(42)
    for _ in range(100):
        x = al.random_element(alg, rng)
        y = al.random_element(alg, rng)
        xx = al.jmul(x, x)
        left = al.jmul(x, al.jmul(xx, y))
        right = al.jmul(xx, al.jmul(x, y))
        scale = 1.0 + al.norm(x) ** 3 * (1.0 + al.norm(y))
        assert al.norm(left - right) <= 1e-10 * scale
        pa_left = al.jmul(x, al.jmul(x, xx))
        pa_right = al.jmul(xx, xx)
        assert al.norm(pa_left - pa_right) <= 1e-10 * (1.0 + al.norm(x) ** 4)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_jmul_commutative_bilinear(seed):
    rng = np.random.default_rng(seed)
    alg = ALGEBRAS[seed % len(ALGEBRAS)]
    x = al.random_element(alg, rng)
    y = al.random_element(alg, rng)
    z = al.random_element(alg, rng)
    assert al.norm(al.jmul(x, y) - al.jmul(y, x)) <= 1e-12 * (1 + al.norm(x) * al.norm(y))
    lin = al.jmul(x, y + 2.5 * z)
    split = al.jmul(x, y) + 2.5 * al.jmul(x, z)
    assert al.norm(lin - split) <= 1e-10 * (1 + al.norm(x) * (al.norm(y) + al.norm(z)))


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_trace_inner_consistency(alg):
    rng = np.random.default_rng(3)
    e = al.unit(alg)
    assert orc.trace(e) == pytest.approx(alg.rank, abs=1e-12)
    assert orc.det_real(e) == pytest.approx(1.0, abs=1e-12)
    for _ in range(25):
        x = al.random_element(alg, rng)
        y = al.random_element(alg, rng)
        assert orc.trace(al.jmul(x, y)) == pytest.approx(
            al.inner(x, y), abs=1e-12 * (1 + al.norm(x) * al.norm(y)))
        assert al.inner(x, x) >= 0.0
    assert al.inner(al.zero(alg), al.zero(alg)) == 0.0


def test_det_spin_closed_form():
    alg = al.algebra(al.SPIN, 5)
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = al.random_element(alg, rng)
        expect = x.coords[0] ** 2 - float(x.coords[1:] @ x.coords[1:])
        assert orc.det_real(x) == pytest.approx(expect, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("alg", MATRIX_ALGEBRAS, ids=[f"{a.kind}-{a.param}" for a in MATRIX_ALGEBRAS])
def test_det_matches_matrix_determinant(alg):
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = al.random_element(alg, rng)
        assert orc.det_real(x) == pytest.approx(orc.det_matrix(x), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_det_multiplicative_under_quad_rep(alg):
    rng = np.random.default_rng(6)
    for _ in range(30):
        x = al.random_element(alg, rng)
        y = al.random_element(alg, rng)
        lhs = orc.det_real(al.quad_rep_apply(y, x))
        rhs = orc.det_real(y) ** 2 * orc.det_real(x)
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8 * (1 + abs(rhs)))


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_lmul_operator(alg):
    rng = np.random.default_rng(7)
    assert np.allclose(al.lmul_operator(al.unit(alg)), np.eye(alg.dim), atol=1e-13)
    for _ in range(20):
        x = al.random_element(alg, rng)
        y = al.random_element(alg, rng)
        lx = al.lmul_operator(x)
        assert np.allclose(lx @ y.coords, al.jmul(x, y).coords, atol=1e-12 * (1 + al.norm(x)))
        # symmetric for the trace form; with a scalar Gram matrix that means
        # symmetric as a plain matrix
        assert np.allclose(lx, lx.T, atol=1e-12)
        n, r = alg.dim, alg.rank
        assert np.trace(lx) == pytest.approx(n / r * orc.trace(x), abs=1e-10 * (1 + al.norm(x)))


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_lmul_idempotent_peirce_spectrum(alg):
    rng = np.random.default_rng(8)
    for _ in range(10):
        c, _ = random_idempotent(alg, rng)
        lc = al.lmul_operator(c)
        vals = np.linalg.eigvalsh(lc)
        dist = np.min(np.abs(vals[:, None] - np.array([0.0, 0.5, 1.0])[None, :]), axis=1)
        assert np.max(dist) <= 1e-9


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_quad_rep_identities(alg):
    rng = np.random.default_rng(9)
    e = al.unit(alg)
    for _ in range(30):
        x = al.random_element(alg, rng)
        y = al.random_element(alg, rng)
        assert al.norm(al.quad_rep_apply(e, y) - y) <= 1e-12 * (1 + al.norm(y))
        assert al.norm(al.quad_rep_apply(x, e) - al.jmul(x, x)) <= 1e-12 * (1 + al.norm(x) ** 2)
        if alg.kind == al.SPIN:
            ref = orc.quad_rep_spin(x, y)
        else:
            ref = orc.quad_rep_matrix(x, y)
        assert al.norm(al.quad_rep_apply(x, y) - ref) <= 1e-10 * (1 + al.norm(x) ** 2 * al.norm(y))


def test_spectral_examples():
    alg = al.algebra(al.SYM_R, 2)
    spec = al.spectral_decompose_real(al.element(alg, [3.0, -1.0, 0.0]))
    assert np.allclose(spec.values, [3.0, -1.0])
    assert np.allclose(spec.frame[0].coords, [1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(spec.frame[1].coords, [0.0, 1.0, 0.0], atol=1e-12)

    spin = al.algebra(al.SPIN, 4)
    sp = al.spectral_decompose_real(al.element(spin, [2.0, 1.0, 0.0, 0.0]))
    assert np.allclose(sp.values, [3.0, 1.0])
    assert np.allclose(sp.frame[0].coords, [0.5, 0.5, 0.0, 0.0])
    assert np.allclose(sp.frame[1].coords, [0.5, -0.5, 0.0, 0.0])

    for alg in ALGEBRAS:
        spec = al.spectral_decompose_real(al.unit(alg))
        assert np.allclose(spec.values, 1.0)
        spec = al.spectral_decompose_real(al.zero(alg))
        assert np.allclose(spec.values, 0.0)
        assert al.norm(sum(spec.frame, al.zero(alg)) - al.unit(alg)) <= 1e-12


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_spectral_frame_invariants(alg):
    rng = np.random.default_rng(10)
    for _ in range(25):
        x = al.random_element(alg, rng)
        spec = al.spectral_decompose_real(x)
        assert len(spec.frame) == alg.rank
        assert np.all(np.diff(spec.values) <= 1e-12)
        recon = al.zero(alg)
        for lam, c in zip(spec.values, spec.frame):
            assert al.norm(al.jmul(c, c) - c) <= 1e-9
            assert orc.trace(c) == pytest.approx(1.0, abs=1e-9)
            recon = recon + float(lam) * c
        for i in range(alg.rank):
            for j in range(alg.rank):
                target = 1.0 if i == j else 0.0
                assert abs(al.inner(spec.frame[i], spec.frame[j]) - target) <= 1e-9
        assert al.norm(recon - x) <= 1e-9 * (1 + al.norm(x))
        if alg.kind != al.SPIN:
            ref = np.sort(np.linalg.eigvalsh(orc.to_matrix(x)))[::-1]
            assert np.allclose(spec.values, ref, atol=1e-10 * (1 + abs(ref[0])))


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_rank_and_cone(alg):
    """The spectrum gives the rank (its nonzero values) and cone membership
    (all values positive) of e_pq and of rank-k elements on random frames."""
    r = alg.rank

    def spectrum(x):
        return al.spectral_decompose_real(x).values

    def rank(x):
        vals = spectrum(x)
        return int(np.sum(np.abs(vals) > 1e-9 * (1.0 + np.max(np.abs(vals)))))

    assert rank(al.zero(alg)) == 0
    assert np.all(spectrum(al.unit(alg)) > 0.0)
    assert np.all(spectrum(-al.unit(alg)) < 0.0)
    for p in range(r + 1):
        for q in range(r + 1 - p):
            vals = spectrum(al.epq(alg, p, q))
            assert np.allclose(vals, [1.0] * p + [0.0] * (r - p - q) + [-1.0] * q,
                               atol=1e-12)
    rng = np.random.default_rng(12)
    for _ in range(100):
        frame = al.random_frame(alg, rng)
        k = int(rng.integers(0, r + 1))
        vals = np.concatenate([
            rng.uniform(0.5, 3.0, k) * rng.choice([-1.0, 1.0], k),
            np.zeros(r - k)])
        x = from_frame(alg, frame, vals)
        assert rank(x) == k
        assert np.allclose(spectrum(x), np.sort(vals)[::-1], atol=1e-9)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_peirce_zero_space_dimension(alg):
    # dim J(c,0) = k + k(k-1)d/2 when c has rank r-k
    rng = np.random.default_rng(14)
    r, d = alg.rank, alg.mult
    for k in range(r + 1):
        c, _ = random_idempotent(alg, rng, rank=r - k)
        lc = al.lmul_operator(c)
        p0 = 2.0 * lc @ lc - 3.0 * lc + np.eye(alg.dim)
        dim0 = int(np.sum(np.abs(np.linalg.eigvalsh(p0)) > 0.5))
        assert dim0 == k + k * (k - 1) * d // 2


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_epq_endpoints(alg):
    r = alg.rank
    assert al.norm(al.epq(alg, r, 0) - al.unit(alg)) == 0.0
    assert al.norm(al.epq(alg, 0, r) + al.unit(alg)) == 0.0
    with pytest.raises(DomainError):
        al.epq(alg, r, 1)
    for p in range(r + 1):
        for q in range(r + 1 - p):
            epq = al.epq(alg, p, q)
            assert (orc.det_real(epq) == pytest.approx(0.0, abs=1e-12)) == (p + q < r)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_random_frame_is_frame(alg):
    rng = np.random.default_rng(16)
    for _ in range(10):
        frame = al.random_frame(alg, rng)
        assert len(frame) == alg.rank
        total = al.zero(alg)
        for i, ci in enumerate(frame):
            assert al.norm(al.jmul(ci, ci) - ci) <= 1e-10
            total = total + ci
            for j in range(i):
                assert al.norm(al.jmul(ci, frame[j])) <= 1e-10
        assert al.norm(total - al.unit(alg)) <= 1e-10


@pytest.mark.parametrize("alg", MATRIX_ALGEBRAS, ids=[f"{a.kind}-{a.param}" for a in MATRIX_ALGEBRAS])
def test_matrix_round_trip(alg):
    rng = np.random.default_rng(17)
    for _ in range(20):
        x = al.random_element(alg, rng)
        mat = orc.to_matrix(x)
        assert np.allclose(mat, mat.conj().T, atol=1e-13)
        back = orc.from_matrix(alg, mat)
        assert np.allclose(back.coords, x.coords, atol=1e-13)

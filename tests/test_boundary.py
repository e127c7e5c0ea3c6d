"""Complexification, Shilov boundary, Cayley transforms, group words."""

import math

import numpy as np
import pytest

import _oracles as orc
from _cases import ALGEBRAS, IDS
from maslov_kit import algebra as al
from maslov_kit import boundary as bd
from maslov_kit.errors import AmbiguityError, DomainError, MaslovKitError

# retry loops skip draws where a word is undefined, and give up after this
# many tries per case they need, so a defect that refuses every draw fails
# the test instead of hanging it
TRIES_PER_CASE = 20


def minus_i_eps(alg, k):
    """The boundary point -i * e_{k, r-k}."""
    eps = al.epq(alg, k, alg.rank - k)
    return bd.ShilovPoint(bd.ElementC(alg, -1j * eps.coords))


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_complex_ops_restrict_to_real(alg):
    rng = np.random.default_rng(21)
    for _ in range(10):
        x = al.random_element(alg, rng)
        y = al.random_element(alg, rng)
        zx, zy = bd.complexify(x), bd.complexify(y)
        assert bd.cdet(zx) == pytest.approx(orc.det_real(x), abs=1e-9 * (1 + al.norm(x)) ** alg.rank)


def test_element_classes_share_checks_and_arithmetic():
    """ElementJ and ElementC: read-only coordinates, no assignment, results
    of the left operand's type, the algebra and shape checks, and repr; a
    real left operand refuses a complex right one, not the other way."""
    alg, other = al.algebra(al.SYM_R, 2), al.algebra(al.SPIN, 3)
    for cls, text in [(al.ElementJ, "ElementJ(sym-r:2, [1. 2. 3.])"),
                      (bd.ElementC, "ElementC(sym-r:2, [1.+0.j 2.+0.j 3.+0.j])")]:
        x, y = cls(alg, [1.0, 2.0, 3.0]), cls(alg, [0.5, -1.0, 2.0])
        with pytest.raises(ValueError):
            x.coords[0] = 5.0
        with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
            x.alg = other
        for got, want in [(x + y, [1.5, 1.0, 5.0]), (x - y, [0.5, 3.0, 1.0]),
                          (-x, [-1.0, -2.0, -3.0]), (2 * x, [2.0, 4.0, 6.0]),
                          (x * 0.5, [0.5, 1.0, 1.5])]:
            assert type(got) is cls and got.alg == alg
            assert np.array_equal(got.coords, want)
        with pytest.raises(DomainError, match="algebra mismatch"):
            x + cls(other, [1.0, 0.0, 0.0])
        with pytest.raises(DomainError, match="algebra mismatch"):
            x - cls(other, [1.0, 0.0, 0.0])
        with pytest.raises(DomainError, match="expected 3 coordinates"):
            cls(alg, [1.0, 2.0])
        with pytest.raises(DomainError, match="coordinates must be finite"):
            cls(alg, [1.0, np.inf, 0.0])
        assert repr(x) == text
    x, z = al.element(alg, [1.0, 2.0, 3.0]), bd.ElementC(alg, [1j, 0.0, 0.0])
    with pytest.raises(DomainError, match="ElementJ coordinates must be real"):
        x + z
    with pytest.raises(DomainError, match="ElementJ coordinates must be real"):
        al.ElementJ(alg, [1j, 0.0, 0.0])
    for got, want in [(z + x, [1.0 + 1j, 2.0, 3.0]), (z - x, [-1.0 + 1j, -2.0, -3.0]),
                      (z * 1j, [-1.0, 0.0, 0.0])]:
        assert type(got) is bd.ElementC
        assert np.array_equal(got.coords, want)


def test_structure_generators_build_only_the_form_they_use(monkeypatch):
    """On the matrix kinds a structure generator's block comes from its
    m x m halves, with no coordinate operator L(v); spin builds its block
    from the coordinate exponentials of L(v)."""
    calls = []
    lmul = bd.lmul_operator
    monkeypatch.setattr(bd, "lmul_operator", lambda x: calls.append(x) or lmul(x))
    for alg in (al.algebra(al.SYM_R, 2), al.algebra(al.HERM_C, 2),
                al.algebra(al.SPIN, 5)):
        calls.clear()
        rng = np.random.default_rng(7)
        v, a, b = (al.random_element(alg, rng) for _ in range(3))
        bd.GroupWord(alg, [bd.LinearGen([("lmul", v), ("derivation", a, b)]),
                           bd.UnitaryGen([("exp-iL", v), ("derivation", a, b)])])
        for seed in range(20):
            bd.random_word(alg, np.random.default_rng(seed), "mixed")
        assert (len(calls) > 0) == (alg.kind == al.SPIN)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_eta_and_hermitian_form(alg):
    """cnorm is the norm of trace(z o eta(z)) = |Re z|^2 + |Im z|^2, which
    the conjugation eta(x + iy) = x - iy preserves."""
    rng = np.random.default_rng(22)
    for _ in range(10):
        z = bd.celement(alg, rng.standard_normal(alg.dim), rng.standard_normal(alg.dim))
        want = (al.norm(al.element(alg, z.coords.real)) ** 2
                + al.norm(al.element(alg, z.coords.imag)) ** 2)
        assert bd.cnorm(z) ** 2 == pytest.approx(want, rel=1e-12)
        assert bd.cnorm(bd.ElementC(alg, np.conj(z.coords))) == bd.cnorm(z)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_cdet_homogeneity(alg):
    rng = np.random.default_rng(23)
    r = alg.rank
    for _ in range(10):
        sigma = bd.random_shilov(alg, rng)
        lhs = bd.cdet(1j * sigma.value)
        rhs = (1j ** r) * bd.cdet(sigma.value)
        assert lhs == pytest.approx(rhs, abs=1e-10)
        assert abs(bd.cdet(sigma.value)) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_cinverse(alg):
    rng = np.random.default_rng(24)
    e = al.unit(alg)
    for _ in range(10):
        z = bd.celement(alg, rng.standard_normal(alg.dim), rng.standard_normal(alg.dim))
        inv = bd.cinverse(z)
        assert np.allclose(al._mul(alg, z.coords, inv.coords), e.coords, atol=1e-8)
        # quadratic representation inverts too: P(z^{-1}) = P(z)^{-1}
        pz = bd.cquad_rep_operator(z)
        pinv = bd.cquad_rep_operator(inv)
        assert np.allclose(pz @ pinv, np.eye(alg.dim), atol=1e-7)
    with pytest.raises(DomainError):
        bd.cinverse(bd.celement(alg, np.zeros(alg.dim)))


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_chi_of_quad_rep_is_det_squared(alg):
    rng = np.random.default_rng(25)
    for _ in range(10):
        z = bd.celement(alg, rng.standard_normal(alg.dim), rng.standard_normal(alg.dim))
        op = bd.cquad_rep_operator(z)
        chi = bd.cdet(bd.ElementC(alg, op @ al.unit(alg).coords.astype(complex)))
        assert chi == pytest.approx(bd.cdet(z) ** 2, rel=1e-7, abs=1e-7)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_shilov_membership_gate(alg):
    rng = np.random.default_rng(26)
    sigma = bd.random_shilov(alg, rng)
    assert isinstance(sigma, bd.ShilovPoint)
    with pytest.raises(DomainError):
        bd.ShilovPoint(bd.complexify(2.0 * al.unit(alg)))
    with pytest.raises(DomainError):
        bd.ShilovPoint(bd.celement(alg, np.zeros(alg.dim)))


def constructor_refusal(alg, coords, theta):
    """The message with which ShilovPoint(coords) and then
    LiftedPoint(point, theta) refuse, or None."""
    try:
        bd.LiftedPoint(bd.ShilovPoint(bd.ElementC(alg, coords)), theta)
    except DomainError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_boundary_refusals_match_constructors(alg, monkeypatch):
    """The batched membership tests give, row by row, the verdict and the
    message of the ShilovPoint and LiftedPoint constructors, on points pushed
    off S, near-singular points and lifts with a drifted theta, at the fixed
    cutoffs and at tighter ones."""
    rng = np.random.default_rng(28)
    r = alg.rank
    rows, thetas = [], []
    for eps in np.logspace(-9, -5, 9):
        sigma = bd.random_shilov(alg, rng)
        push = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
        rows.append(sigma.value.coords + eps * push / np.linalg.norm(push))
        thetas.append(bd.lift(sigma).theta)
    for small in [0.0, *np.logspace(-10, -6, 9)]:
        frame = al.random_frame(alg, rng)
        values = np.exp(1j * rng.uniform(-math.pi, math.pi, r))
        values[rng.integers(r)] *= small
        rows.append(sum(v * c.coords for v, c in zip(values, frame)))
        thetas.append(0.0)
    for drift in np.logspace(-9, -5, 9):
        lifted = bd.lift(bd.random_shilov(alg, rng), int(rng.integers(-2, 3)))
        rows.append(lifted.point.value.coords)
        thetas.append(lifted.theta + drift * rng.choice([-1.0, 1.0]) / r)
    coords, thetas = np.array(rows), np.array(thetas)
    for boundary, cutoff in ((bd.BOUNDARY, bd.RANK_CUTOFF), (1e-9, 1e-9)):
        monkeypatch.setattr(bd, "BOUNDARY", boundary)
        monkeypatch.setattr(bd, "RANK_CUTOFF", cutoff)
        refused = bd.boundary_refusals(alg, coords, thetas)
        want = {k: constructor_refusal(alg, coords[k], thetas[k])
                for k in range(len(coords))}
        assert refused == {k: msg for k, msg in want.items() if msg is not None}
        kinds = {msg.split(" (")[0].split(":")[0] for msg in refused.values()}
        assert kinds == {"not on the Shilov boundary", "invalid lift"}
        assert any("singular" in msg for msg in refused.values())
        assert len(refused) < len(coords)
        # each test alone, on the rows the other accepts
        shilov = bd.boundary_refusals(alg, coords)
        assert {k: msg for k, msg in refused.items()
                if msg.startswith("not on")} == shilov
        on_s = [k for k in range(len(coords)) if k not in shilov]
        lift = bd._phase_refusals(alg, al._det(alg, coords[on_s]), thetas[on_s])
        assert {on_s[k]: msg for k, msg in lift.items()} == {
            k: msg for k, msg in refused.items() if msg.startswith("invalid")}


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_row_norms_are_linalg_norm(alg):
    """_row_norms is np.linalg.norm(x, axis=-1) byte for byte on real and
    complex rows, NaN and +-inf rows included, and on the Lie-sphere rows
    of spin points; boundary_refusals refuses exactly the non-finite rows
    of a batch of points of S."""
    rng = np.random.default_rng(29)
    lifts = [bd.lift(bd.random_shilov(alg, rng)) for _ in range(8)]
    rows = np.array([lifted.point.value.coords for lifted in lifts])
    rows[1, 0] = np.nan
    rows[3, -1] = np.inf
    rows[4, 0] = complex(1.0, -np.inf)
    rows[6] = complex(np.nan, np.inf)
    real = rng.standard_normal((6, alg.dim)) * np.logspace(-150, 150, 6)[:, None]
    real[2, 0], real[5, -1] = -np.inf, np.nan
    with np.errstate(all="ignore"):
        for x in (rows, rows.real, rows.imag, real, np.conj(rows) - 2.0 * rows):
            assert bd._row_norms(x).tobytes() == np.linalg.norm(x, axis=-1).tobytes()
        refused = bd.boundary_refusals(alg, rows, [lifted.theta for lifted in lifts])
    assert sorted(refused) == [1, 3, 4, 6]
    assert all(msg.startswith("not on the Shilov boundary") for msg in refused.values())
    if alg.kind == al.SPIN:
        z = rows[[0, 2, 5, 7]]
        got, want = bd._lie_sphere(z), orc.lie_sphere_two_pass(z)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_factor_rows_are_independent_and_take_filler(alg):
    """Each row's factors and verdict in a batch are those of the row alone,
    bit for bit; a non-finite row is refused with mu = nan, and the batch
    raises nothing."""
    rng = np.random.default_rng(61)
    word = bd.random_word(alg, rng, "mixed")
    form = word.coordinate_form()
    rows = np.array([bd.random_shilov(alg, rng).value.coords for _ in range(6)])
    rows[2] = np.nan
    rows[4, 0] = np.inf
    with np.errstate(all="ignore"):
        mu, refused = bd._factor_rows(form, rows)
    assert {2, 4} <= set(refused) and np.isnan(mu[[2, 4]]).all()
    for k in (0, 1, 3, 5):
        alone, verdict = bd._factor_rows(form, rows[k][None])
        assert np.array_equal(mu[k], alone[0])
        assert (k in refused) == bool(verdict)


@pytest.mark.parametrize("mode", ["tube", "unitary", "mixed"])
@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_coordinate_form_matches_matrix_route(alg, mode):
    """Images and factors of Delta_g from a word's coordinate form agree
    with the matrix route (to_matrix, a solve, from_matrix) to a few ulps,
    relative to the row's largest entry, on and off the boundary."""
    ulps = 32 * np.finfo(float).eps
    for seed in range(12):
        rng = np.random.default_rng([seed, 67])
        form = bd.random_word(alg, rng, mode).coordinate_form()
        rows = np.array([bd.random_shilov(alg, rng).value.coords for _ in range(4)]
                        + [al.random_element(alg, rng, 0.5).coords.astype(complex)])
        for z in rows:
            want = orc.lf_image_matrix(alg, form.g, z)
            assert np.abs(bd._lf_image(form, z) - want).max() <= ulps * np.abs(want).max()
        mu, refused = bd._factor_rows(form, rows)
        want, verdicts = orc.factor_rows_matrix(alg, form.g, rows)
        assert not refused and not verdicts
        # eigvals may order the factors differently: match each to the nearest
        gap = np.abs(mu[:, :, None] - want[:, None, :]).min(axis=2)
        assert (gap <= ulps * np.abs(want).max(axis=1, keepdims=True)).all()


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_act_lift_checks_as_the_constructors(alg, monkeypatch):
    """act_lift runs the ShilovPoint and LiftedPoint tests in one
    boundary_refusals call: its lifts, its refusals and their messages are
    those of the one-row public route (determination_phi, apply_word and the
    two constructors), at the fixed cutoffs and with BOUNDARY or LIFT_PHASE
    tighter."""
    cases = []
    for seed in range(12):
        rng = np.random.default_rng([seed, 51])
        word = bd.random_word(alg, rng, ("tube", "mixed", "unitary")[seed % 3])
        cases.append((word, bd.lift(bd.random_shilov(alg, rng), 1)))
    for boundary, lift_phase in [(bd.BOUNDARY, bd.LIFT_PHASE), (1e-15, bd.LIFT_PHASE),
                                 (1e-17, bd.LIFT_PHASE), (bd.BOUNDARY, 1e-15),
                                 (bd.BOUNDARY, 1e-16)]:
        monkeypatch.setattr(bd, "BOUNDARY", boundary)
        monkeypatch.setattr(bd, "LIFT_PHASE", lift_phase)
        for word, lifted in cases:
            got = outcome(lambda: bd.act_lift(word, lifted))
            want = outcome(lambda: orc.power_lift_sequential(word, lifted, 1))
            if isinstance(want, MaslovKitError):
                assert (type(got), str(got)) == (type(want), str(want))
            else:
                assert got.theta == want.theta
                assert np.array_equal(got.point.value.coords, want.point.value.coords)
                assert isinstance(got.point, bd.ShilovPoint)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_act_lift_raises_step_checks_before_the_image_refusal(alg, monkeypatch):
    """Where BOUNDARY is so tight that the image of sigma is refused, a
    failed check of the step itself (planted in _phi_rows) still raises
    first, from act_lift as from the one-row public route."""
    cases = []
    for seed in range(6):
        rng = np.random.default_rng([seed, 53])
        word = bd.random_word(alg, rng, ("tube", "mixed", "unitary")[seed % 3])
        cases.append((word, bd.lift(bd.random_shilov(alg, rng))))
    monkeypatch.setattr(bd, "BOUNDARY", 1e-17)
    real_phi_rows = bd._phi_rows

    def planted(word_, rows):
        phis, verdicts = real_phi_rows(word_, rows)
        verdicts[0] = AmbiguityError("planted step check")
        return phis, verdicts

    refused = 0
    for word, lifted in cases:
        got = outcome(lambda: bd.act_lift(word, lifted))
        refused += str(got).startswith("not on the Shilov boundary")
        with monkeypatch.context() as patched:
            patched.setattr(bd, "_phi_rows", planted)
            for route in (lambda: bd.act_lift(word, lifted),
                          lambda: orc.power_lift_sequential(word, lifted, 1)):
                with pytest.raises(AmbiguityError, match="^planted step check$"):
                    route()
    assert refused >= 3


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_shilov_spectral_examples(alg):
    r = alg.rank
    us = bd.shilov_spectral(bd.unit_shilov(alg))
    assert np.allclose(us.angles, 0.0, atol=1e-9)
    for k in range(r + 1):
        us = bd.shilov_spectral(minus_i_eps(alg, k))
        expect = np.concatenate([np.full(r - k, math.pi / 2), np.full(k, -math.pi / 2)])
        assert np.allclose(us.angles, expect, atol=1e-9)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_shilov_spectral_random_roundtrip(alg):
    rng = np.random.default_rng(27)
    for _ in range(20):
        x = al.random_element(alg, rng)
        spec = al.spectral_decompose_real(x)
        sigma = bd.from_unit_spectrum(alg, spec.values, spec.frame)
        want = np.sort(orc.wrap_angle(spec.values))
        us = bd.shilov_spectral(sigma)
        assert np.allclose(np.sort(us.angles), want, atol=1e-8)
        back = bd.from_unit_spectrum(alg, us.angles, us.frame)
        assert np.allclose(back.value.coords, sigma.value.coords, atol=1e-8)
        for c in us.frame:
            assert al.norm(al.jmul(c, c) - c) <= 1e-8


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_shilov_spectral_degenerate_angles(alg):
    rng = np.random.default_rng(28)
    r = alg.rank
    frame = al.random_frame(alg, rng)
    theta = rng.uniform(-2.5, 2.5)
    sigma = bd.from_unit_spectrum(alg, np.full(r, theta), frame)
    us = bd.shilov_spectral(sigma)
    assert np.allclose(us.angles, theta, atol=1e-9)
    if r >= 2:
        angles = np.concatenate([[theta], np.full(r - 1, bd.wrap_angle(theta + 1.3))])
        sigma = bd.from_unit_spectrum(alg, angles, frame)
        us = bd.shilov_spectral(sigma)
        assert np.allclose(np.sort(us.angles), np.sort(bd.wrap_angle(angles)), atol=1e-9)


def test_shilov_spectral_splits_close_spin_angles():
    """Two spin angles 2e-7 apart come back apart, each to 1e-12."""
    alg = al.algebra(al.SPIN, 5)
    frame = al.random_frame(alg, np.random.default_rng(31))
    angles = np.array([0.3 + 1e-7, 0.3 - 1e-7])
    sigma = bd.from_unit_spectrum(alg, angles, frame)
    us = bd.shilov_spectral(sigma)
    assert np.max(np.abs(us.angles - angles)) <= 1e-12
    back = bd.from_unit_spectrum(alg, us.angles, us.frame)
    assert np.allclose(back.value.coords, sigma.value.coords, atol=1e-12)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_cayley_transforms(alg):
    rng = np.random.default_rng(30)
    e = al.unit(alg)
    zero_c = bd.celement(alg, np.zeros(alg.dim))
    assert np.allclose(bd.cayley_p(zero_c).coords, -e.coords, atol=1e-12)
    tube_center = bd.ElementC(alg, 1j * e.coords)
    assert np.allclose(bd.cayley_p(tube_center).coords, 0.0, atol=1e-12)
    for _ in range(100):
        x = al.random_element(alg, rng)
        w = bd.cayley_p(bd.complexify(x))
        back = bd.cayley_c(w)
        assert np.allclose(back.coords, x.coords, atol=1e-7 * (1 + al.norm(x)))
        # real elements land on the boundary with det(e - p(x)) != 0
        sp = bd.ShilovPoint(w)
        assert abs(bd.cdet(bd.complexify(e) - w)) > 1e-12


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_word_basics(alg):
    rng = np.random.default_rng(31)
    ident = bd.identity_word(alg)
    sigma = bd.random_shilov(alg, rng)
    assert np.allclose(bd.apply_word(ident, sigma).value.coords,
                       sigma.value.coords, atol=1e-12)
    ss = bd.GroupWord(alg, [bd.InversionGen(), bd.InversionGen()])
    for _ in range(5):
        tau = bd.random_shilov(alg, rng)
        try:
            out = bd.apply_word(ss, tau)
        except DomainError:
            continue
        assert np.allclose(out.value.coords, tau.value.coords, atol=1e-7)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_words_preserve_boundary(alg):
    rng = np.random.default_rng(32)
    done = 0
    for _ in range(TRIES_PER_CASE * 50):
        if done == 50:
            break
        mode = ("tube", "unitary", "mixed")[done % 3]
        word = bd.random_word(alg, rng, mode=mode, n_gens=int(rng.integers(1, 5)))
        sigma = bd.random_shilov(alg, rng)
        try:
            out = bd.apply_word(word, sigma)
        except DomainError:
            continue
        done += 1
        # ShilovPoint construction inside apply_word already enforces the
        # membership residual; spot-check |det| = 1 as well
        assert abs(abs(bd.cdet(out.value)) - 1.0) <= 1e-7
    assert done == 50, f"only {done} of 50 words defined at their point"


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_unitary_words_preserve_hermitian_norm(alg):
    rng = np.random.default_rng(33)
    for _ in range(10):
        word = bd.random_word(alg, rng, mode="unitary", n_gens=3)
        z = bd.celement(alg, rng.standard_normal(alg.dim), rng.standard_normal(alg.dim))
        assert bd.cnorm(bd.apply_word(word, z)) == pytest.approx(
            bd.cnorm(z), abs=1e-9 * (1 + bd.cnorm(z)))


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_differential_chain_rule(alg):
    rng = np.random.default_rng(34)
    done = 0
    for _ in range(TRIES_PER_CASE * 10):
        if done == 10:
            break
        g = bd.random_word(alg, rng, mode=("tube", "mixed")[done % 2], n_gens=2)
        h = bd.random_word(alg, rng, mode=("unitary", "tube")[done % 2], n_gens=2)
        z = bd.celement(alg, 0.3 * rng.standard_normal(alg.dim),
                        0.3 * rng.standard_normal(alg.dim))
        try:
            hz = bd.apply_word(h, z)
            jl = bd.cocycle_j(bd.compose_words(g, h), z)
            jr = bd.cocycle_j(g, hz) * bd.cocycle_j(h, z)
        except DomainError:
            continue
        done += 1
        assert jl == pytest.approx(jr, rel=1e-8, abs=1e-8)
    assert done == 10, f"only {done} of 10 word pairs defined at their point"


@pytest.mark.parametrize("mode", ["tube", "mixed", "unitary"])
@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_word_matches_cayley_chart(alg, mode):
    """apply_word and cocycle_j agree with the Cayley-chart evaluation and a
    central-difference Jacobian wherever the chart is defined."""
    rng = np.random.default_rng(40)
    done = 0
    for k in range(16):
        word = bd.random_word(alg, rng, mode, int(rng.integers(1, 5)), 0.4)
        z = (bd.random_shilov(alg, rng).value if k % 2 else
             bd.celement(alg, 0.3 * rng.standard_normal(alg.dim),
                         0.3 * rng.standard_normal(alg.dim)))
        try:
            want = orc.cayley_apply(word, z.coords)
            jwant = orc.jacobian_j(word, z.coords)
        except DomainError:
            continue
        done += 1
        got = bd.apply_word(word, z).coords
        assert np.allclose(got, want, atol=1e-9 * (1 + np.max(np.abs(want))))
        assert bd.cocycle_j(word, z) == pytest.approx(jwant, rel=1e-5)
    assert done >= 12


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_cocycle_values(alg):
    rng = np.random.default_rng(35)
    z = bd.celement(alg, 0.2 * rng.standard_normal(alg.dim))
    assert bd.cocycle_j(bd.identity_word(alg), z) == pytest.approx(1.0, abs=1e-12)
    uword = bd.random_word(alg, rng, mode="unitary", n_gens=2)
    chi = bd.word_chi(uword)
    for _ in range(5):
        pt = bd.celement(alg, 0.4 * rng.standard_normal(alg.dim),
                         0.4 * rng.standard_normal(alg.dim))
        assert bd.cocycle_j(uword, pt) == pytest.approx(chi, rel=1e-9, abs=1e-9)
    # det transformation rule on the boundary
    done = 0
    for _ in range(TRIES_PER_CASE * 10):
        if done == 10:
            break
        word = bd.random_word(alg, rng, mode="mixed", n_gens=3)
        sigma = bd.random_shilov(alg, rng)
        try:
            out = bd.apply_word(word, sigma)
            jval = bd.cocycle_j(word, sigma.value)
        except DomainError:
            continue
        done += 1
        lhs = bd.cdet(out.value)
        rhs = (jval / abs(jval)) * bd.cdet(sigma.value)
        assert lhs == pytest.approx(rhs, abs=1e-7)
    assert done == 10, f"only {done} of 10 words defined at their point"


def composed_determinations(alg, rng, mode, count):
    """Yield (phi(gh, s), phi(g, h s), phi(h, s), j(gh, s)) for `count`
    random two-generator words g, h and points s where all are defined."""
    done = 0
    for _ in range(TRIES_PER_CASE * count):
        if done == count:
            break
        g = bd.random_word(alg, rng, mode=mode, n_gens=2)
        h = bd.random_word(alg, rng, mode=mode, n_gens=2)
        s = bd.random_shilov(alg, rng)
        try:
            phi_g_hs = bd.determination_phi(g, bd.apply_word(h, s))
            phi_h = bd.determination_phi(h, s)
            gh = bd.compose_words(g, h)
            phi_gh = bd.determination_phi(gh, s)
            jval = bd.cocycle_j(gh, s.value)
        except DomainError:
            continue
        done += 1
        yield phi_gh, phi_g_hs, phi_h, jval
    assert done == count, f"only {done} of {count} word pairs defined"


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_determination_phi(alg):
    rng = np.random.default_rng(36)
    sigma = bd.random_shilov(alg, rng)
    assert bd.determination_phi(bd.identity_word(alg), sigma) == pytest.approx(0.0, abs=1e-12)
    # scalar phase: phi constant in sigma, equal to the principal Arg of chi
    phi0 = 0.7
    uword = bd.GroupWord(alg, [bd.UnitaryGen([("exp-iL", phi0 * al.unit(alg))])])
    chi = bd.word_chi(uword)
    assert chi == pytest.approx(np.exp(1j * alg.rank * phi0), abs=1e-10)
    for _ in range(3):
        s = bd.random_shilov(alg, rng)
        assert bd.determination_phi(uword, s) == pytest.approx(
            bd.principal_arg(chi), abs=1e-9)
    # e^{i phi} = j/|j| along tube words, and the composition defect is 2 pi k
    for phi_gh, phi_g_hs, phi_h, jval in composed_determinations(
            alg, rng, "mixed", 6):
        assert np.exp(1j * phi_gh) == pytest.approx(jval / abs(jval), abs=1e-8)
        defect = (phi_gh - phi_g_hs - phi_h) / (2 * math.pi)
        assert abs(defect - round(defect)) <= 1e-7


@pytest.mark.parametrize("mode", ["tube", "mixed"])
@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_compose_words_seed_matches_determination(alg, mode):
    """compose_words seeds phi(gh, 0) through the interior entry of the
    determination; the boundary entry must then give phi(gh, s) =
    phi(g, h s) + phi(h, s) exactly, with no deck translate between them."""
    rng = np.random.default_rng(37)
    for phi_gh, phi_g_hs, phi_h, _ in composed_determinations(alg, rng, mode, 4):
        assert phi_gh == pytest.approx(phi_g_hs + phi_h, abs=1e-9)


def drawn_word(alg, mode, seed):
    """A random word of 1-5 generators at scale 0.4, 1 or 2, and a boundary
    point, drawn from one seeded stream."""
    rng = np.random.default_rng([seed, alg.rank, alg.dim])
    n_gens = rng.integers(1, 6)
    scale = rng.choice([0.4, 1.0, 2.0])
    word = bd.random_word(alg, rng, mode, n_gens, scale)
    return word, bd.random_shilov(alg, rng)


def determinations(alg, mode, seed):
    """Yield (library value, radial-unwrap value) for phi(g, sigma),
    phi(g, sigma / 2), the compose_words seed and the inverse's seed."""
    word, sigma = drawn_word(alg, mode, seed)
    inner, _ = drawn_word(alg, mode, seed + 1000)
    zero = bd.ElementC(alg, np.zeros(alg.dim, complex))
    bare = bd.GroupWord(alg, [g.inverse() for g in reversed(word.generators)])
    for target in (sigma.value.coords, 0.5 * sigma.value.coords):
        yield (lambda t=target: bd._checked(bd._phi_rows(word, t[None]))[0],
               lambda t=target: orc.radial_unwrap(word, t)[0])
    yield (lambda: bd.compose_words(word, inner).base_arg,
           lambda: (orc.radial_unwrap(word, bd.apply_word(inner, zero).coords)[0]
                    + inner.linear_fractional()[2]))
    yield (lambda: word.inverse().base_arg,
           lambda: -orc.radial_unwrap(word, bd.apply_word(bare, zero).coords)[0])


def outcome(fn):
    try:
        return fn()
    except MaslovKitError as exc:
        return exc


@pytest.mark.parametrize("mode", ["tube", "mixed", "unitary"])
@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_determination_matches_radial_unwrap(alg, mode):
    """The sum over the factors of Delta_g gives the determination the
    sampled radial unwrap finds, and both refuse the same inputs (the class
    may differ: the unwrap can give up on a jump before it reaches a target
    where the word is undefined)."""
    for seed in range(4):
        for new, old in determinations(alg, mode, seed):
            got, want = outcome(new), outcome(old)
            assert isinstance(got, float) == isinstance(want, float), (got, want)
            if isinstance(got, float):
                assert got == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("alg, mode, seed", [
    (al.algebra(al.SPIN, 5), "tube", 33),     # |j| ~ 3e-8
    (al.algebra(al.SPIN, 7), "mixed", 19),    # |j| ~ 5e-6
], ids=["spin-5-tube-33", "spin-7-mixed-19"])
def test_determination_where_j_is_tiny(alg, mode, seed):
    """Where |j(g, sigma)| is tiny, phi(g, sigma) is still a determination of
    Arg det(g sigma) / det(sigma) and the continuous one the unwrap finds."""
    word, sigma = drawn_word(alg, mode, seed)
    phi = bd.determination_phi(word, sigma)
    ratio = bd.cdet(bd.apply_word(word, sigma).value) / bd.cdet(sigma.value)
    assert abs(bd.wrap_angle(phi - np.angle(ratio))) <= 1e-8
    want = orc.radial_unwrap(word, sigma.value.coords)[0]
    assert phi == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_lift_and_shift(alg):
    r = alg.rank
    le = bd.lift(bd.unit_shilov(alg), 0)
    assert le.theta == pytest.approx(0.0, abs=1e-12)
    minus = bd.ShilovPoint(bd.ElementC(alg, -al.unit(alg).coords.astype(complex)))
    lm = bd.lift(minus, 0)
    if r % 2 == 0:
        assert lm.theta == pytest.approx(0.0, abs=1e-9)
    else:
        assert lm.theta == pytest.approx(math.pi / r, abs=1e-9)
    shifted = bd.t_shift(lm, 1)
    assert shifted.theta == pytest.approx(lm.theta + 2 * math.pi / r, abs=1e-12)
    for k in range(r + 1):
        lk = bd.lift(minus_i_eps(alg, k), 0)
        assert np.exp(1j * r * lk.theta) == pytest.approx(
            bd.cdet(lk.point.value), abs=1e-9)
    with pytest.raises(DomainError):
        bd.LiftedPoint(bd.unit_shilov(alg), 1.0)


@pytest.mark.parametrize("value", [True, False, 0.5, 1.0, np.float64(2.0), math.nan,
                                   "x", None, 1 + 0j])
def test_lift_and_t_shift_take_an_integer(value):
    """k of lift and n of t_shift are integers: bool is not one, and a
    float, even an integral one, is refused naming k or n."""
    lifted = bd.lift(bd.unit_shilov(al.algebra(al.SYM_R, 2)))
    with pytest.raises(DomainError, match="^k must be an integer, got"):
        bd.lift(lifted.point, value)
    with pytest.raises(DomainError, match="^n must be an integer, got"):
        bd.t_shift(lifted, value)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_lift_and_t_shift_take_numpy_integers(alg):
    sigma = bd.random_shilov(alg, np.random.default_rng(5))
    for k in (np.int64(-2), np.int32(3), np.uint8(1)):
        assert bd.lift(sigma, k).theta == bd.lift(sigma, int(k)).theta
        lifted = bd.lift(sigma)
        assert bd.t_shift(lifted, k).theta == bd.t_shift(lifted, int(k)).theta


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_lift_test_reads_only_the_phase(alg, monkeypatch):
    """A point that a looser BOUNDARY admits lifts, however far its |det| is
    from 1: that is the ShilovPoint test's, not the lift's.  The lift test
    reads the phase alone, and refuses a theta drifted by 1e-5 / r."""
    monkeypatch.setattr(bd, "BOUNDARY", 1e-4)
    sigma = bd.random_shilov(alg, np.random.default_rng(0))
    point = bd.ShilovPoint((1 + 2e-5) * sigma.value)
    assert abs(abs(bd.cdet(point.value)) - 1.0) > 1e-5 * alg.rank
    lifted = bd.lift(point, 0)
    assert bd.boundary_refusals(alg, point.value.coords[None],
                                [lifted.theta]) == {}
    with pytest.raises(DomainError, match="invalid lift"):
        bd.LiftedPoint(point, lifted.theta + 1e-5 / alg.rank)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_act_lift_is_valid_lift(alg):
    rng = np.random.default_rng(37)
    done = 0
    for _ in range(TRIES_PER_CASE * 8):
        if done == 8:
            break
        word = bd.random_word(alg, rng, mode="mixed", n_gens=3)
        sigma = bd.random_shilov(alg, rng)
        try:
            out = bd.act_lift(word, bd.lift(sigma, 0))
        except DomainError:
            continue
        done += 1
        assert isinstance(out, bd.LiftedPoint)  # constructor checked the invariant
    assert done == 8, f"only {done} of 8 lifts defined"


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_inverse_word(alg):
    rng = np.random.default_rng(38)
    done = 0
    for _ in range(TRIES_PER_CASE * 10):
        if done == 10:
            break
        word = bd.random_word(alg, rng, mode="mixed", n_gens=3)
        sigma = bd.random_shilov(alg, rng)
        try:
            there = bd.apply_word(word, sigma)
            back = bd.apply_word(word.inverse(), there)
        except DomainError:
            continue
        done += 1
        assert np.allclose(back.value.coords, sigma.value.coords, atol=1e-6)
    assert done == 10, f"only {done} of 10 words defined at their point"


@pytest.mark.parametrize("plant", [{}, {"BOUNDARY": 1e-17}, {"RANK_CUTOFF": 0.5}],
                         ids=["as-is", "image-refused", "gate-and-image-refuse"])
@pytest.mark.parametrize("mode", ["tube", "mixed"])
@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_determination_phi_makes_one_factor_pass(alg, mode, plant, monkeypatch):
    """determination_phi runs the factor pass of its point once, and gives
    the bits and the error of its gate, then the image's LinAlgError, then
    the ShilovPoint test of g(sigma): those of _phi_rows followed by
    apply_word.  The planted cutoffs, set once the points are drawn, make
    the image's test, or the gate and the image's test, refuse."""
    def composed(word, sigma):
        phi = bd._checked(bd._phi_rows(word, sigma.value.coords[None]))[0]
        bd.apply_word(word, sigma)
        return float(phi)

    cases = [drawn_word(alg, mode, seed) for seed in range(30)]
    for name, value in plant.items():
        monkeypatch.setattr(bd, name, value)
    orig, calls, outcomes = bd._factor_rows, [], []

    def counted(*args):
        calls.append(1)
        return orig(*args)

    for word, sigma in cases:
        got = outcome(lambda: bd.determination_phi(word, sigma))
        want = outcome(lambda: composed(word, sigma))
        if isinstance(want, float):
            assert got == want
        else:
            assert (type(got), str(got)) == (type(want), str(want))
        outcomes.append(type(want))
        monkeypatch.setattr(bd, "_factor_rows", counted)
        calls.clear()
        outcome(lambda: bd.determination_phi(word, sigma))
        assert len(calls) == 1
        monkeypatch.setattr(bd, "_factor_rows", orig)
    assert (DomainError if plant else float) in outcomes


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_word_composed_with_its_inverse_has_base_arg_zero(alg):
    """g^{-1}(0) is read off the inverse word's own coordinate form, the
    image compose_words takes, so g g^{-1} is seeded at exactly 0."""
    rng = np.random.default_rng(39)
    for _ in range(200):
        word = bd.random_word(alg, rng, mode="mixed", n_gens=int(rng.integers(1, 5)),
                              scale=float(rng.choice([0.4, 1.0])))
        assert bd.compose_words(word, word.inverse()).base_arg == 0.0


def test_base_arg_validation():
    # chi of exp(iL(0.5 e)) on sym-r m=2 is e^{i}, so phi(g,0) = 1 mod 2 pi
    alg = al.algebra(al.SYM_R, 2)
    gens = [bd.UnitaryGen([("exp-iL", 0.5 * al.unit(alg))])]
    sigma = bd.unit_shilov(alg)
    bad = bd.GroupWord(alg, gens, base_arg=2.0)
    with pytest.raises(DomainError):
        bd.determination_phi(bad, sigma)
    good = bd.GroupWord(alg, gens, base_arg=1.0 + 2 * math.pi)
    assert bd.determination_phi(good, sigma) == pytest.approx(1.0 + 2 * math.pi, abs=1e-9)


def test_word_refuses_generators_of_another_algebra():
    small, big = al.algebra(al.SYM_R, 2), al.algebra(al.SYM_R, 3)
    v = al.random_element(big, np.random.default_rng(41), 0.4)
    for gen in (bd.UnitaryGen([("exp-iL", v)]), bd.TranslateGen(v)):
        with pytest.raises(DomainError):
            bd.GroupWord(small, [bd.InversionGen(), gen])

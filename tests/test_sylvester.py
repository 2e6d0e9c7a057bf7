import math

import numpy as np
import pytest
import scipy.linalg

from strukt import (
    StructureKind,
    build_TA,
    pair_norm,
    quadratic_fixed_point,
    random_structured,
    sigma_min_formula,
)
from strukt import backward, minbases, polycore, sylvester
from strukt.errors import NumericalError, ThresholdError
from strukt.polycore import (
    COMPLEX,
    REAL,
    MobiusMatrix,
    driver_matrix,
    from_coeff_list,
    mobius,
    star,
    zeros,
)
from strukt.sylvester import StarSylvesterOperator, certified_gap

from conftest import ALL_KINDS, perturbation_blocks, with_scaled_22_block
from oracles import (
    build_TA_mid,
    delta_lower_bound,
    gram_matrix,
    is_coninvolutory,
    iterate_norm_cap,
    operator_for,
    reference_reduced,
    selectors,
    sign_diagonals,
)


def test_sigma_min_formula_values():
    assert sigma_min_formula(1) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert sigma_min_formula(2) == pytest.approx(0.7653668647301796, abs=1e-15)
    with pytest.raises(ValueError):
        sigma_min_formula(0)


def test_sigma_min_formula_monotone():
    vals = [sigma_min_formula(k) for k in range(1, 12)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_build_TA_hand_expansion_k1():
    t = build_TA(1, 1, StructureKind.symmetric)
    assert np.array_equal(t, np.array([[-1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, 1.0]]))
    # rows orthogonal, each of norm sqrt(2)
    assert t @ t.T == pytest.approx(2.0 * np.eye(2))


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("k", range(1, 7))
def test_sigma_min_law_scalar_blocks(kind, k):
    sv = np.linalg.svd(build_TA(k, 1, kind), compute_uv=False)
    assert abs(sv[-1] - sigma_min_formula(k)) <= 1e-10 * sigma_min_formula(k)


def test_sigma_min_independent_of_block_size():
    for kind in (StructureKind.symmetric, StructureKind.palindromic):
        one = np.linalg.svd(build_TA(2, 1, kind), compute_uv=False)[-1]
        two = np.linalg.svd(build_TA(2, 2, kind), compute_uv=False)[-1]
        assert abs(one - two) <= 1e-12


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("k", [2, 3, 4])
def test_reduction_chain_singular_values(kind, k):
    n = 2
    sv_full = np.linalg.svd(build_TA(k, n, kind), compute_uv=False)
    sv_mid = np.linalg.svd(build_TA_mid(k, n, kind), compute_uv=False)
    sv_red = np.linalg.svd(build_TA(k, 1, kind), compute_uv=False)
    assert np.allclose(sv_full, np.sort(np.repeat(sv_red, n * n))[::-1], atol=1e-12)
    assert np.allclose(sv_mid, np.sort(np.repeat(sv_red, n))[::-1], atol=1e-12)


def test_reduced_sigma_min_closed_form():
    for k in range(1, 7):
        sv = np.linalg.svd(build_TA(k, 1, StructureKind.palindromic), compute_uv=False)
        want = math.sqrt(2.0 - 2.0 * math.cos(math.pi / (2.0 * k)))
        assert sv[-1] == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(2.0 * math.sin(math.pi / (4.0 * k)), abs=1e-15)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_exact_sign_reduction_identities(k):
    """Each kind's reduced matrix is sign/permutation equivalent to the
    all-positive reference, as an exact integer identity."""
    ref = reference_reduced(k)
    kk, kk1 = k * k, k * (k + 1)
    fl = np.diag([-1.0] * kk + [1.0] * kk)
    dr = np.diag([-1.0] * kk1 + [1.0] * kk1)

    t_sym = build_TA(k, 1, StructureKind.symmetric)
    t_skew = build_TA(k, 1, StructureKind.skew_symmetric)
    assert np.array_equal(fl @ t_sym, ref)
    assert np.array_equal(t_skew @ dr, t_sym)

    t_pal = build_TA(k, 1, StructureKind.palindromic)
    t_anti = build_TA(k, 1, StructureKind.anti_palindromic)
    assert np.array_equal(t_pal @ dr, t_anti)

    t_odd = build_TA(k, 1, StructureKind.odd)
    assert np.array_equal(t_odd @ dr, build_TA(k, 1, StructureKind.even))

    # alternating kinds reduce through the alternating-sign diagonals
    sk, sk1 = sign_diagonals(k)
    t_even = fl @ build_TA(k, 1, StructureKind.even)
    left = np.kron(np.eye(2), np.kron(np.eye(k), sk))
    right = np.block(
        [
            [np.kron(np.eye(k), sk1), np.zeros((kk1, kk1))],
            [np.zeros((kk1, kk1)), np.kron(np.eye(k + 1), sk)],
        ]
    )
    assert np.array_equal(left @ t_even @ right, ref)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_zero_perturbation_gives_the_law_and_build_TA(kind, k):
    """At zero perturbation the certified gap is sigma_min(T_A), computed from
    an eigvalsh of the n = 1 Gram matrix less its rounding allowance, so it
    never exceeds the law and is within 1e-12 of it for every block size."""
    law = sigma_min_formula(k)
    for n in range(1, 4):
        op = StarSylvesterOperator.unperturbed(k, n, kind)
        assert 0.0 <= law - certified_gap(op) <= 1e-12
    op = StarSylvesterOperator.unperturbed(k, 2, kind)
    assert np.array_equal(op.matrix(), build_TA(k, 2, kind))
    # Its zeros are +0.0: L_k's -0.0 entries move `strukt sigma-min` rows.
    assert not np.signbit(op.h[op.h == 0.0]).any()


def _draw(rng, shape, field_tag, scale=1.0):
    m = rng.standard_normal(shape)
    if field_tag == COMPLEX:
        m = m + 1j * rng.standard_normal(shape)
    return scale * m


# A real involutory driver other than the six canonical matrices.
_INVOLUTORY = MobiusMatrix(math.sqrt(1.0 - 0.6 * 0.5), 0.6, 0.5, -math.sqrt(1.0 - 0.6 * 0.5))


@pytest.mark.parametrize("field_tag", [REAL, COMPLEX])
@pytest.mark.parametrize("kind", ALL_KINDS + [pytest.param(_INVOLUTORY, id="involutory")])
def test_operator_matrix_matches_matrix_products(kind, field_tag, rng):
    """The vectorized matrix applied to [vec Y; vec Z^*] is the vec of
    (Y G0^* + ehat Z^*, Y G1^* + fhat Z^*), with G0 + l*G1 written out from
    the driver's entries. The operator's G0, G1 are the Mobius image of
    ehat + l*fhat to the last bit."""
    k, n = 2, 2
    shape = (k * n, (k + 1) * n)
    da21 = _draw(rng, shape, field_tag, 0.1)
    db21 = _draw(rng, shape, field_tag, 0.1)
    e, f = selectors(k, n)
    ehat, fhat = -e + da21, f + db21
    a = driver_matrix(kind)
    g0 = a.b * fhat + a.d * ehat
    g1 = a.a * fhat + a.c * ehat
    y = _draw(rng, shape, field_tag)
    z = _draw(rng, shape, field_tag)
    zs = z.conj().T
    want0 = y @ g0.conj().T + ehat @ zs
    want1 = y @ g1.conj().T + fhat @ zs
    op = operator_for(da21, db21, kind)
    assert (op.k, op.ehat.shape) == (k, shape)
    image = mobius(from_coeff_list([ehat, fhat]), a).coeffs
    assert op.g0.tobytes() == image[0].tobytes() and op.g1.tobytes() == image[1].tobytes()
    got = op.matrix() @ np.concatenate([y.reshape(-1, order="C"), zs.reshape(-1, order="C")])
    want = np.concatenate([want0.reshape(-1, order="C"), want1.reshape(-1, order="C")])
    assert np.allclose(got, want, rtol=0, atol=1e-13)
    at0, at1 = op.apply(y, star(y))
    assert np.allclose(at0, y @ g0.conj().T + ehat @ y.conj().T, rtol=0, atol=1e-13)
    assert np.allclose(at1, y @ g1.conj().T + fhat @ y.conj().T, rtol=0, atol=1e-13)


def _vec_pair(a, b):
    return np.concatenate([a.reshape(-1, order="C"), b.reshape(-1, order="C")])


@pytest.mark.parametrize("field_tag", [REAL, COMPLEX])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_operator_gram_apply_adjoint_and_solve_match_dense_oracles(kind, field_tag, rng):
    """With a nonzero structured perturbation: apply() is matrix() on
    [vec Y; vec Z^*], adjoint() is its adjoint in the Frobenius inner
    product, and the minimum-norm solve is lstsq's."""
    k, n = 2, 2
    kn = k * n
    dl = backward.random_structured_perturbation(k, n, kind, 0.05, seed=7, field_tag=field_tag)
    _, _, da21, db21, _, _ = perturbation_blocks(dl, k, n)
    op = operator_for(da21, db21, kind)
    t = op.matrix()

    y = _draw(rng, (kn, (k + 1) * n), field_tag)
    zs = _draw(rng, ((k + 1) * n, kn), field_tag)
    c0 = _draw(rng, (kn, kn), field_tag)
    c1 = _draw(rng, (kn, kn), field_tag)
    r0, r1 = op.apply(y, zs)
    assert np.allclose(_vec_pair(r0, r1), t @ _vec_pair(y, zs), rtol=0, atol=1e-13)
    a0, a1 = op.adjoint(np.stack([c0, c1]))
    lhs = np.vdot(_vec_pair(c0, c1), _vec_pair(r0, r1))
    rhs = np.vdot(_vec_pair(a0, a1), _vec_pair(y, zs))
    assert abs(lhs - rhs) <= 1e-13 * abs(lhs)

    want = np.linalg.lstsq(t, _vec_pair(c0, c1), rcond=None)[0]
    got = _vec_pair(*op.solve(np.stack([c0, c1]))[0])
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("field_tag", [REAL, COMPLEX])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_weyl_bound_is_below_sigma_min_and_agrees_with_the_gap(kind, field_tag):
    """The certified gap, computed from the operator's own blocks, never
    exceeds the dense sigma_min of matrix() and equals the paper's bound
    sigma_min_formula(k) - hypot(||[A; C]||_2, ||[dA21; dB21]||_2), (A, C) the
    Mobius image of (dA21, dB21), to rounding, up to ||dL|| = 0.9/(3k)."""
    driver = driver_matrix(kind)
    for k in range(1, 4):
        for n in range(1, 4):
            for seed, frac in enumerate((0.0, 1e-8, 1e-3, 0.3, 0.9)):
                nrm = frac / (3.0 * k)
                dl = backward.random_structured_perturbation(
                    k, n, kind, nrm, seed=seed, field_tag=field_tag
                )
                _, _, da21, db21, _, _ = perturbation_blocks(dl, k, n)
                op = operator_for(da21, db21, kind)
                delta = certified_gap(op)
                sigma = np.linalg.svd(op.matrix(), compute_uv=False)[-1]
                image = mobius(from_coeff_list([da21, db21]), driver).coeffs
                paper = sigma_min_formula(k) - math.hypot(
                    np.linalg.norm(np.vstack(image), 2),
                    np.linalg.norm(np.vstack([da21, db21]), 2),
                )
                assert delta <= sigma + 1e-12
                assert abs(delta - paper) <= 1e-12


# Two drivers whose 2x2 matrix is not unitary, so ||A||_2 > 1.
_NON_UNITARY = [_INVOLUTORY, MobiusMatrix(2, 1, 0, 1)]


def _two_svd_delta(op):
    """The gap from the SVDs of both block differences, [dG0; dG1] and
    [dH0; dH1], each rounded up by one ulp."""
    ref = sylvester._reference(op.k, op.driver)
    base = StarSylvesterOperator.unperturbed(op.k, op.n, op.driver)
    norm_dt = math.hypot(np.linalg.norm(op.g - base.g, 2), np.linalg.norm(op.h - base.h, 2))
    return math.nextafter(ref.sigma_min - math.nextafter(norm_dt, math.inf), -math.inf)


@pytest.mark.parametrize("field_tag", [REAL, COMPLEX])
def test_one_svd_gap_against_two_svds(field_tag, rng):
    """||[dG0; dG1]||_2 <= ||A||_2 ||[dH0; dH1]||_2, so one SVD bounds both
    blocks: for a non-unitary driver the gap is at most the two-SVD one, and
    for the six kinds, where ||A||_2 = 1, it equals it to rounding."""
    for k in range(1, 4):
        for n in range(1, 4):
            for seed, kind in enumerate(ALL_KINDS):
                nrm = (1e-8, 0.3, 0.9)[seed % 3] / (3.0 * k)
                dl = backward.random_structured_perturbation(
                    k, n, kind, nrm, seed=seed, field_tag=field_tag
                )
                _, _, da21, db21, _, _ = perturbation_blocks(dl, k, n)
                op = operator_for(da21, db21, kind)
                assert abs(certified_gap(op) - _two_svd_delta(op)) <= 1e-15
            shape = (k * n, (k + 1) * n)
            for drv in _NON_UNITARY:
                op = operator_for(
                    _draw(rng, shape, field_tag, 0.03 / k), _draw(rng, shape, field_tag, 0.03 / k), drv
                )
                assert certified_gap(op) <= _two_svd_delta(op)


@pytest.mark.parametrize("field_tag", [REAL, COMPLEX])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_gap_is_never_optimistic(kind, field_tag):
    """delta is at most sigma_min(T_A) less the exact hypot of the spectral
    norms of the operator's two block differences, with those norms from a
    40-digit SVD of the exact differences, so it covers the error of the
    computed largest singular value; and it is at most the dense sigma_min of
    matrix() with no slack."""
    mpmath = pytest.importorskip("mpmath")

    def exact_norm(a, b):
        diff = mpmath.matrix(a.tolist()) - mpmath.matrix(b.tolist())
        return max(mpmath.svd(diff, compute_uv=False))

    driver = driver_matrix(kind)
    for k, n in ((1, 3), (2, 2), (3, 1)):
        for seed, frac in enumerate((1e-8, 0.3, 0.9)):
            dl = backward.random_structured_perturbation(
                k, n, kind, frac / (3.0 * k), seed=seed, field_tag=field_tag
            )
            _, _, da21, db21, _, _ = perturbation_blocks(dl, k, n)
            op = operator_for(da21, db21, kind)
            base = StarSylvesterOperator.unperturbed(k, n, kind)
            delta = certified_gap(op)
            sigma = sylvester._reference(k, driver).sigma_min
            with mpmath.workdps(40):
                norm_dt = mpmath.hypot(exact_norm(op.g, base.g), exact_norm(op.h, base.h))
                assert mpmath.mpf(delta) <= mpmath.mpf(sigma) - norm_dt
            assert delta <= np.linalg.svd(op.matrix(), compute_uv=False)[-1]


def test_delta_lower_bound_values():
    assert delta_lower_bound(2, 0.0) == pytest.approx(math.pi / 8.0)
    assert delta_lower_bound(2, 0.0) <= sigma_min_formula(2)
    assert delta_lower_bound(2, 1.0 / 12.0) == pytest.approx((math.pi / 8.0) * 0.5)
    with pytest.raises(ThresholdError):
        delta_lower_bound(2, 1.0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_delta_lower_bound_is_a_lower_bound(k, rng):
    """delta_lower_bound <= delta <= sigma_min(T_A) - ||dT_A||_2 <= sigma_min(T)
    in both fields, with the dense difference of the perturbed and
    unperturbed matrices as the oracle for ||dT_A||_2."""
    for trial in range(40):
        kind = ALL_KINDS[trial % 6]
        field_tag = (REAL, COMPLEX)[trial // 20]
        nrm = float(rng.uniform(0.0, 0.99 / (3.0 * k)))
        dl = backward.random_structured_perturbation(
            k, 2, kind, nrm, seed=trial, field_tag=field_tag
        )
        _, _, da21, db21, _, _ = perturbation_blocks(dl, k, 2)
        op = operator_for(da21, db21, kind)
        t = op.matrix()
        weyl = sigma_min_formula(k) - np.linalg.norm(t - build_TA(k, 2, kind), 2)
        sigma = np.linalg.svd(t, compute_uv=False)[-1]
        delta = certified_gap(op)
        assert delta_lower_bound(k, nrm) <= delta + 1e-12
        assert delta <= weyl + 1e-12
        assert weyl <= sigma + 1e-12


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------

def _star_residual(op, x, c0, c1):
    """Relative residual of the averaged X in both star equations."""
    r0, r1 = op.apply(x, star(x))
    return pair_norm(r0 - c0, r1 - c1) / max(pair_norm(c0, c1), 1.0)


def test_min_norm_solve_zero_rhs():
    op = StarSylvesterOperator.unperturbed(2, 2, StructureKind.symmetric)
    (y, zs), _, iterations = op.solve(np.zeros((2, 4, 4)))
    assert not y.any() and not zs.any()
    assert iterations == 0


@pytest.mark.parametrize("field_tag", [REAL, COMPLEX])
@pytest.mark.parametrize("kind", ALL_KINDS + [pytest.param(_INVOLUTORY, id="involutory")])
def test_fused_gram_is_apply_after_adjoint(kind, field_tag, rng):
    """The operator's T T^*, two products with G G^* and H H^* formed once
    per operator, is apply after adjoint to 1e-14 relative."""
    for k in range(1, 4):
        for n in range(1, 4):
            kn = k * n
            shape = (kn, (k + 1) * n)
            op = operator_for(
                _draw(rng, shape, field_tag, 0.05 / k), _draw(rng, shape, field_tag, 0.05 / k), kind
            )
            c = _draw(rng, (2, kn, kn), field_tag)
            want = op.apply(*op.adjoint(c))
            got = op.gram(c)
            assert got.shape == (2, kn, kn)
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("field_tag", [REAL, COMPLEX])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_warm_started_solve_matches_lstsq(kind, field_tag, rng):
    """A solve started from an earlier solve's w is still the minimum-norm
    solution, for a nearby right-hand side (which then needs fewer CG
    iterations) and for an unrelated one."""
    k, n = 2, 2
    kn = k * n
    dl = backward.random_structured_perturbation(k, n, kind, 0.05, seed=7, field_tag=field_tag)
    _, _, da21, db21, _, _ = perturbation_blocks(dl, k, n)
    op = operator_for(da21, db21, kind)
    t = op.matrix()
    c = _draw(rng, (2, kn, kn), field_tag)
    _, start, cold = op.solve(c)
    nearby = c + _draw(rng, c.shape, field_tag, 1e-6)
    for new in (nearby, _draw(rng, c.shape, field_tag)):
        x, _, iterations = op.solve(new, start)
        want = np.linalg.lstsq(t, _vec_pair(*new), rcond=None)[0]
        assert np.linalg.norm(_vec_pair(*x) - want) <= 1e-12 * np.linalg.norm(want)
        if new is nearby:
            assert iterations < cold


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_reduced_gram_is_the_matrix_free_gram(kind):
    """T T^* of `build_TA(k, 1, kind)` is, bit for bit, the Gram matrix of
    the unperturbed n = 1 operator applied to unit (2, k, k) stacks in
    row-major order: the n = 1 matrix's rows are in `kron_precondition`'s
    channel order, so the solve's preconditioner may be read off it. The
    same holds for the completion: C C^T, C = `convolution_matrix(L_k, k)`
    at n = 1, is the Gram matrix of D -> L_k D on unit (k+2, k, 1) stacks."""
    for k in range(1, 9):
        op = StarSylvesterOperator.unperturbed(k, 1, kind)
        want = gram_matrix(lambda w: op.apply(*op.adjoint(w)), (2, k, k))
        t = build_TA(k, 1, kind)
        assert (t @ star(t)).tobytes() == want.tobytes()
        lk = minbases.build_Lk(k, 1)
        want = gram_matrix(
            lambda r: polycore._coeff_product(lk.coeffs, minbases._times_adjoint(star(lk.coeffs), r)),
            (k + 2, k, 1),
        )
        c = minbases.convolution_matrix(lk, k)
        assert (c @ c.T).tobytes() == want.tobytes()


# A coninvolutory driver with non-real entries: A conj(A) = I.
_CONINVOLUTORY = MobiusMatrix(
    math.cosh(0.3), 1j * math.sinh(0.3), -1j * math.sinh(0.3), math.cosh(0.3)
)


@pytest.mark.parametrize("field_tag", [REAL, COMPLEX])
@pytest.mark.parametrize(
    "kind", ALL_KINDS + [pytest.param(_CONINVOLUTORY, id="complex-coninvolutory")]
)
def test_preconditioner_is_the_unperturbed_gram_inverse(kind, field_tag, rng):
    """At zero perturbation the Kronecker preconditioner is exactly
    (T_A T_A^*)^{-1}, so conjugate gradients stops after one iteration; for a
    non-real driver too, whose G0 and G1 enter T_A conjugated."""
    for k in range(1, 5):
        for n in range(1, 4):
            op = StarSylvesterOperator.unperturbed(k, n, kind)
            c = _draw(rng, (2, k * n, k * n), field_tag)
            t = op.matrix()
            gram = t @ t.conj().T
            want = scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram), _vec_pair(*c))
            pinv = sylvester._reference(k, op.driver).pinv
            got = _vec_pair(*polycore.kron_precondition(pinv, n, c))
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
            assert op.solve(c)[2] == 1


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_min_norm_solve_bound_and_consistency(kind, rng):
    k, n = 2, 2
    op = StarSylvesterOperator.unperturbed(k, n, kind)
    a = kind.mobius
    c0 = rng.standard_normal((k * n, k * n))
    c1 = rng.standard_normal((k * n, k * n))
    (y, zs), _, _ = op.solve(np.stack([c0, c1]))
    assert pair_norm(y, zs) <= pair_norm(c0, c1) / sigma_min_formula(k) + 1e-12
    r0 = y @ (a.b * op.fhat + a.d * op.ehat).T + op.ehat @ zs - c0
    r1 = y @ (a.a * op.fhat + a.c * op.ehat).T + op.fhat @ zs - c1
    assert pair_norm(r0, r1) <= 1e-12 * pair_norm(c0, c1)


def test_a_solve_keeps_no_state_between_calls(rng):
    """A cold solve gives the same bytes and CG count before and after a
    warm-started solve of another right-hand side on the same operator."""
    k, n = 2, 2
    dl = backward.random_structured_perturbation(k, n, StructureKind.odd, 0.05, seed=3)
    _, _, da21, db21, _, _ = perturbation_blocks(dl, k, n)
    op = operator_for(da21, db21, StructureKind.odd)
    c = rng.standard_normal((2, k * n, k * n))
    (y, zs), w, iterations = op.solve(c)
    op.solve(rng.standard_normal(c.shape), w)
    (y2, zs2), w2, iterations2 = op.solve(c)
    assert (y2.tobytes(), zs2.tobytes(), w2.tobytes()) == (y.tobytes(), zs.tobytes(), w.tobytes())
    assert iterations2 == iterations


def test_min_norm_solve_rank_risk(rng):
    """The gap gate refuses a large perturbation; building the operator forms
    no Gram product, so blocks whose squares overflow reach the gate too and
    are refused without a RuntimeWarning (an error in this suite)."""
    k, n = 2, 1
    for scale in (10.0, 1e200):
        huge = rng.standard_normal((k * n, (k + 1) * n)) * scale
        op = operator_for(huge, huge, StructureKind.symmetric)
        with pytest.raises(ThresholdError) as err:
            certified_gap(op)
        assert err.value.bound == 0.0
        assert err.value.value < 0.0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_star_from_sylvester_structured_rhs(kind, rng):
    """For a structured right-hand pencil l*c1 + c0, averaging the two halves
    of the minimum-norm solution gives X with op.apply(X, X^*) = (c0, c1)."""
    k, n = 2, 2
    op = StarSylvesterOperator.unperturbed(k, n, kind)
    rhs = random_structured(k * n, 1, kind, 0.7, seed=13)
    c0, c1 = rhs.coefficient(0), rhs.coefficient(1)
    (y, zs), _, _ = op.solve(np.stack([c0, c1]))
    x = (y + star(zs)) / 2.0
    assert x.shape == (k * n, (k + 1) * n)
    assert _star_residual(op, x, c0, c1) <= 1e-12


def test_star_from_sylvester_trivial_cases():
    op = StarSylvesterOperator.unperturbed(2, 2, StructureKind.even)
    z4 = np.zeros((4, 4))
    (y, zs), _, _ = op.solve(np.stack([z4, z4]))
    x = (y + star(zs)) / 2.0
    assert not x.any()
    assert _star_residual(op, x, z4, z4) == 0.0


def test_averaging_needs_a_structured_rhs(rng):
    """An unstructured right-hand side still solves the coupled system, but
    its averaged halves miss the star equations by far more than rounding."""
    op = StarSylvesterOperator.unperturbed(2, 2, StructureKind.symmetric)
    c0 = rng.standard_normal((4, 4))
    c1 = rng.standard_normal((4, 4))
    (y, zs), _, _ = op.solve(np.stack([c0, c1]))
    assert _star_residual(op, (y + star(zs)) / 2.0, c0, c1) > 1e-3


def test_star_from_sylvester_random_involutory(rng):
    """The averaging step needs only a real involutory driver, not one of the
    six canonical matrices."""
    from strukt.polycore import MatrixPolynomial, structure_project

    drv = _INVOLUTORY
    assert is_coninvolutory(drv)
    k, n = 2, 2
    op = StarSylvesterOperator.unperturbed(k, n, drv)
    sigma = np.linalg.svd(op.matrix(), compute_uv=False)[-1]
    raw = MatrixPolynomial(rng.standard_normal((2, k * n, k * n)))
    rhs = structure_project(raw, drv)
    c0, c1 = rhs.coefficient(0), rhs.coefficient(1)
    (y, zs), _, _ = op.solve(np.stack([c0, c1]))
    x = (y + star(zs)) / 2.0
    assert _star_residual(op, x, c0, c1) <= 1e-12
    assert np.linalg.norm(x) <= pair_norm(c0, c1) / sigma + 1e-12


# ---------------------------------------------------------------------------
# quadratic fixed point
# ---------------------------------------------------------------------------

def _pencil_blocks(kind, seed, norm=1e-6, k=2, n=2):
    p = random_structured(n, 2 * k + 1, kind, 1.0, seed=seed)
    from strukt.linearize import build_linearization

    pencil = build_linearization(p, kind, "tridiagonal")
    dl = backward.random_structured_perturbation(k, n, kind, norm, seed=seed + 1)
    return pencil, dl


def test_fixed_point_zero_perturbation():
    kind = StructureKind.symmetric
    pencil, _ = _pencil_blocks(kind, 21)
    state = quadratic_fixed_point(pencil.perturbed(zeros(10, 10, 1)))
    assert not state.x.any()
    assert state.iterations == 1
    assert state.residuals[-1] <= 1e-12 * state.theta


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_fixed_point_small_perturbation(kind):
    pencil, dl = _pencil_blocks(kind, 31)
    *_, da22, db22 = perturbation_blocks(dl, 2, 2)
    theta = pair_norm(da22, db22)
    state = quadratic_fixed_point(pencil.perturbed(dl))
    assert state.residuals[-1] <= 1e-12 * theta
    assert np.linalg.norm(state.x) <= 2.0 * state.theta / state.delta
    assert len(state.solve_iterations) == state.iterations
    assert all(1 <= it <= 5 for it in state.solve_iterations)


def test_fixed_point_congruence_zeroes_block(rng):
    kind = StructureKind.symmetric
    pencil, dl = _pencil_blocks(kind, 41)
    a = pencil.perturbed(dl)
    state = quadratic_fixed_point(a)
    x = state.x
    g = np.eye(10)
    g[6:, :6] = x
    h = np.eye(10)
    h[:6, 6:] = x.T
    t0 = g @ a.l0 @ h
    t1 = g @ a.l1 @ h
    assert pair_norm(t0[6:, 6:], t1[6:, 6:]) <= 1e-13


def test_fixed_point_iterate_norms_bounded():
    for seed, kind in enumerate(ALL_KINDS):
        pencil, dl = _pencil_blocks(kind, 100 + seed, norm=2e-2)
        state = quadratic_fixed_point(pencil.perturbed(dl))
        cap = iterate_norm_cap(state) + 1e-12
        assert max(state.x_norms) <= cap


@pytest.mark.parametrize("norm", [1e-10, 1e-6])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_later_sweeps_start_from_the_previous_solve(kind, norm):
    """The second sweep's right-hand side differs from the first's by the
    change in q, so CG started from the first sweep's w needs fewer
    iterations."""
    pencil, dl = _pencil_blocks(kind, 31, norm=norm)
    state = quadratic_fixed_point(pencil.perturbed(dl))
    assert state.residuals[-1] <= 1e-12 * state.theta and state.iterations >= 2
    assert state.solve_iterations[1] < state.solve_iterations[0]


def test_fixed_point_inadmissible_raises():
    kind = StructureKind.even
    pencil, dl = _pencil_blocks(kind, 51, norm=1e-3)
    forced = with_scaled_22_block(dl, 2, 2, 1e6)
    with pytest.raises(ThresholdError) as err:
        quadratic_fixed_point(pencil.perturbed(forced))
    assert err.value.bound == 0.25


def test_fixed_point_gates_every_solve(monkeypatch):
    """A solve that misses its right-hand side by 1e-9 relative is refused at
    the sweep where it happens, not after the sweeps run out."""
    kind = StructureKind.palindromic
    pencil, dl = _pencil_blocks(kind, 61)
    exact = polycore.pcg
    calls = []

    def slightly_wrong(gram_apply, precondition, c, w=None):
        calls.append(c)
        w, iterations = exact(gram_apply, precondition, c, w)
        return w * (1.0 + 1e-9), iterations

    monkeypatch.setattr(polycore, "pcg", slightly_wrong)
    with pytest.raises(NumericalError, match="solve residual"):
        quadratic_fixed_point(pencil.perturbed(dl))
    assert len(calls) == 1

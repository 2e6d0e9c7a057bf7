import math

import numpy as np
import pytest
import scipy.linalg

from strukt import (
    StructureKind,
    build_TA,
    build_TA_reduced,
    delta_lower_bound,
    frob_norm,
    pair_norm,
    quadratic_fixed_point,
    random_structured,
    sigma_min_formula,
)
from strukt import backward, minbases, sylvester
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
from strukt.sylvester import StarSylvesterOperator, _MinNormSolver, build_TA_mid

from conftest import ALL_KINDS, perturbation_blocks, with_scaled_22_block


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
    sv_red = np.linalg.svd(build_TA_reduced(k, kind), compute_uv=False)
    assert np.allclose(sv_full, np.sort(np.repeat(sv_red, n * n))[::-1], atol=1e-12)
    assert np.allclose(sv_mid, np.sort(np.repeat(sv_red, n))[::-1], atol=1e-12)


def test_reduced_sigma_min_closed_form():
    for k in range(1, 7):
        sv = np.linalg.svd(build_TA_reduced(k, StructureKind.palindromic), compute_uv=False)
        want = math.sqrt(2.0 - 2.0 * math.cos(math.pi / (2.0 * k)))
        assert sv[-1] == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(2.0 * math.sin(math.pi / (4.0 * k)), abs=1e-15)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_exact_sign_reduction_identities(k):
    """Each kind's reduced matrix is sign/permutation equivalent to the
    all-positive reference, as an exact integer identity."""
    ref = sylvester.reference_reduced(k)
    kk, kk1 = k * k, k * (k + 1)
    fl = np.diag([-1.0] * kk + [1.0] * kk)
    dr = np.diag([-1.0] * kk1 + [1.0] * kk1)

    t_sym = build_TA_reduced(k, StructureKind.symmetric)
    t_skew = build_TA_reduced(k, StructureKind.skew_symmetric)
    assert np.array_equal(fl @ t_sym, ref)
    assert np.array_equal(t_skew @ dr, t_sym)

    t_pal = build_TA_reduced(k, StructureKind.palindromic)
    t_anti = build_TA_reduced(k, StructureKind.anti_palindromic)
    assert np.array_equal(t_pal @ dr, t_anti)

    t_odd = build_TA_reduced(k, StructureKind.odd)
    assert np.array_equal(t_odd @ dr, build_TA_reduced(k, StructureKind.even))

    # alternating kinds reduce through the alternating-sign diagonals
    sk, sk1 = sylvester.sign_diagonals(k)
    t_even = fl @ build_TA_reduced(k, StructureKind.even)
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
    """At zero perturbation the solver's gap is sigma_min(T_A), computed from
    an eigvalsh of the n = 1 Gram matrix less its rounding allowance, so it
    never exceeds the law and is within 1e-12 of it for every block size."""
    law = sigma_min_formula(k)
    for n in range(1, 4):
        op = StarSylvesterOperator.unperturbed(k, n, kind)
        assert 0.0 <= law - _MinNormSolver(op).delta <= 1e-12
    op = StarSylvesterOperator.unperturbed(k, 2, kind)
    assert np.array_equal(op.matrix(), build_TA(k, 2, kind))


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
    the driver's entries."""
    k, n = 2, 2
    shape = (k * n, (k + 1) * n)
    da21 = _draw(rng, shape, field_tag, 0.1)
    db21 = _draw(rng, shape, field_tag, 0.1)
    sel = minbases.selector_matrices(k, n)
    ehat, fhat = -sel.e + da21, sel.f + db21
    a = driver_matrix(kind)
    g0 = a.b * fhat + a.d * ehat
    g1 = a.a * fhat + a.c * ehat
    y = _draw(rng, shape, field_tag)
    z = _draw(rng, shape, field_tag)
    zs = z.conj().T
    want0 = y @ g0.conj().T + ehat @ zs
    want1 = y @ g1.conj().T + fhat @ zs
    op = StarSylvesterOperator(da21, db21, kind)
    assert (op.k, op.ehat.shape) == (k, shape)
    got = op.matrix() @ np.concatenate([y.reshape(-1, order="F"), zs.reshape(-1, order="F")])
    want = np.concatenate([want0.reshape(-1, order="F"), want1.reshape(-1, order="F")])
    assert np.allclose(got, want, rtol=0, atol=1e-13)
    at0, at1 = op.at(y)
    assert np.allclose(at0, y @ g0.conj().T + ehat @ y.conj().T, rtol=0, atol=1e-13)
    assert np.allclose(at1, y @ g1.conj().T + fhat @ y.conj().T, rtol=0, atol=1e-13)


def _vec_pair(a, b):
    return np.concatenate([a.reshape(-1, order="F"), b.reshape(-1, order="F")])


@pytest.mark.parametrize("field_tag", [REAL, COMPLEX])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_operator_gram_apply_adjoint_and_solve_match_dense_oracles(kind, field_tag, rng):
    """With a nonzero structured perturbation: apply() is matrix() on
    [vec Y; vec Z^*], adjoint() is its adjoint in the Frobenius inner
    product, and the minimum-norm solve is lstsq's."""
    k, n = 2, 2
    kn = k * n
    pert = backward.random_structured_perturbation(k, n, kind, 0.05, seed=7, field_tag=field_tag)
    _, _, da21, db21, _, _ = perturbation_blocks(pert)
    op = StarSylvesterOperator(da21, db21, kind)
    t = op.matrix()

    y = _draw(rng, (kn, (k + 1) * n), field_tag)
    zs = _draw(rng, ((k + 1) * n, kn), field_tag)
    c0 = _draw(rng, (kn, kn), field_tag)
    c1 = _draw(rng, (kn, kn), field_tag)
    r0, r1 = op.apply(y, zs)
    assert np.allclose(_vec_pair(r0, r1), t @ _vec_pair(y, zs), rtol=0, atol=1e-13)
    a0, a1 = op.adjoint(c0, c1)
    lhs = np.vdot(_vec_pair(c0, c1), _vec_pair(r0, r1))
    rhs = np.vdot(_vec_pair(a0, a1), _vec_pair(y, zs))
    assert abs(lhs - rhs) <= 1e-13 * abs(lhs)

    want = np.linalg.lstsq(t, _vec_pair(c0, c1), rcond=None)[0]
    got = _vec_pair(*_MinNormSolver(op).solve(c0, c1))
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("field_tag", [REAL, COMPLEX])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_weyl_bound_is_below_sigma_min_and_agrees_with_the_gap(kind, field_tag):
    """The solver's gap, computed from the operator's own blocks, never
    exceeds the dense sigma_min of matrix() and equals the paper's bound
    sigma_min_formula(k) - hypot(||[A; C]||_2, ||[dA21; dB21]||_2), (A, C) the
    Mobius image of (dA21, dB21), to rounding, up to ||dL|| = 0.9/(3k)."""
    driver = driver_matrix(kind)
    for k in range(1, 4):
        for n in range(1, 4):
            for seed, frac in enumerate((0.0, 1e-8, 1e-3, 0.3, 0.9)):
                nrm = frac / (3.0 * k)
                pert = backward.random_structured_perturbation(
                    k, n, kind, nrm, seed=seed, field_tag=field_tag
                )
                _, _, da21, db21, _, _ = perturbation_blocks(pert)
                op = StarSylvesterOperator(da21, db21, kind)
                delta = _MinNormSolver(op).delta
                sigma = np.linalg.svd(op.matrix(), compute_uv=False)[-1]
                image = mobius(from_coeff_list([da21, db21]), driver).coeffs
                paper = sigma_min_formula(k) - math.hypot(
                    np.linalg.norm(np.vstack(image), 2),
                    np.linalg.norm(np.vstack([da21, db21]), 2),
                )
                assert delta <= sigma + 1e-12
                assert abs(delta - paper) <= 1e-12


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
        pert = backward.random_structured_perturbation(
            k, 2, kind, nrm, seed=trial, field_tag=field_tag
        )
        _, _, da21, db21, _, _ = perturbation_blocks(pert)
        op = StarSylvesterOperator(da21, db21, kind)
        t = op.matrix()
        weyl = sigma_min_formula(k) - np.linalg.norm(t - build_TA(k, 2, kind), 2)
        sigma = np.linalg.svd(t, compute_uv=False)[-1]
        delta = _MinNormSolver(op).delta
        assert delta_lower_bound(k, nrm) <= delta + 1e-12
        assert delta <= weyl + 1e-12
        assert weyl <= sigma + 1e-12


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------

def _solver(kind, k, n):
    op = StarSylvesterOperator.unperturbed(k, n, kind)
    return op, _MinNormSolver(op)


def _star_residual(op, x, c0, c1):
    """Relative residual of the averaged X in both star equations."""
    r0, r1 = op.at(x)
    return pair_norm(r0 - c0, r1 - c1) / max(pair_norm(c0, c1), 1.0)


def test_min_norm_solve_zero_rhs():
    _, solver = _solver(StructureKind.symmetric, 2, 2)
    y, zs = solver.solve(np.zeros((4, 4)), np.zeros((4, 4)))
    assert not y.any() and not zs.any()
    assert solver.iterations == 0


@pytest.mark.parametrize("field_tag", [REAL, COMPLEX])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_preconditioner_is_the_unperturbed_gram_inverse(kind, field_tag, rng):
    """At zero perturbation the Kronecker preconditioner is exactly
    (T_A T_A^*)^{-1}, so conjugate gradients stops after one iteration."""
    for k in range(1, 5):
        for n in range(1, 4):
            op, solver = _solver(kind, k, n)
            c = _draw(rng, (2, k * n, k * n), field_tag)
            t = op.matrix()
            gram = t @ t.conj().T
            want = scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram), _vec_pair(*c))
            got = _vec_pair(*solver.precondition(c))
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
            solver.solve(c[0], c[1])
            assert solver.iterations == 1


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_min_norm_solve_bound_and_consistency(kind, rng):
    k, n = 2, 2
    op, solver = _solver(kind, k, n)
    a = kind.mobius
    c0 = rng.standard_normal((k * n, k * n))
    c1 = rng.standard_normal((k * n, k * n))
    y, zs = solver.solve(c0, c1)
    assert pair_norm(y, zs) <= pair_norm(c0, c1) / sigma_min_formula(k) + 1e-12
    r0 = y @ (a.b * op.fhat + a.d * op.ehat).T + op.ehat @ zs - c0
    r1 = y @ (a.a * op.fhat + a.c * op.ehat).T + op.fhat @ zs - c1
    assert pair_norm(r0, r1) <= 1e-12 * pair_norm(c0, c1)


def test_min_norm_solve_rank_risk(rng):
    k, n = 2, 1
    huge = rng.standard_normal((k * n, (k + 1) * n)) * 10.0
    op = StarSylvesterOperator(huge, huge, StructureKind.symmetric)
    with pytest.raises(ThresholdError) as err:
        _MinNormSolver(op)
    assert err.value.bound == 0.0
    assert err.value.value < 0.0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_star_from_sylvester_structured_rhs(kind, rng):
    """For a structured right-hand pencil l*c1 + c0, averaging the two halves
    of the minimum-norm solution gives X with op.at(X) = (c0, c1)."""
    k, n = 2, 2
    op, solver = _solver(kind, k, n)
    rhs = random_structured(k * n, 1, kind, 0.7, seed=13)
    c0, c1 = rhs.coefficient(0), rhs.coefficient(1)
    y, zs = solver.solve(c0, c1)
    x = (y + star(zs)) / 2.0
    assert x.shape == (k * n, (k + 1) * n)
    assert _star_residual(op, x, c0, c1) <= 1e-12


def test_star_from_sylvester_trivial_cases():
    op, solver = _solver(StructureKind.even, 2, 2)
    z4 = np.zeros((4, 4))
    y, zs = solver.solve(z4, z4)
    x = (y + star(zs)) / 2.0
    assert not x.any()
    assert _star_residual(op, x, z4, z4) == 0.0


def test_averaging_needs_a_structured_rhs(rng):
    """An unstructured right-hand side still solves the coupled system, but
    its averaged halves miss the star equations by far more than rounding."""
    op, solver = _solver(StructureKind.symmetric, 2, 2)
    c0 = rng.standard_normal((4, 4))
    c1 = rng.standard_normal((4, 4))
    y, zs = solver.solve(c0, c1)
    assert _star_residual(op, (y + star(zs)) / 2.0, c0, c1) > 1e-3


def test_star_from_sylvester_random_involutory(rng):
    """The averaging step needs only a real involutory driver, not one of the
    six canonical matrices."""
    from strukt.polycore import MatrixPolynomial, structure_project

    drv = _INVOLUTORY
    assert drv.is_coninvolutory()
    k, n = 2, 2
    op = StarSylvesterOperator.unperturbed(k, n, drv)
    sigma = np.linalg.svd(op.matrix(), compute_uv=False)[-1]
    raw = MatrixPolynomial(rng.standard_normal((2, k * n, k * n)))
    rhs = structure_project(raw, drv)
    c0, c1 = rhs.coefficient(0), rhs.coefficient(1)
    y, zs = _MinNormSolver(op).solve(c0, c1)
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
    pert = backward.random_structured_perturbation(k, n, kind, norm, seed=seed + 1)
    return pencil, pert


def test_fixed_point_zero_perturbation():
    kind = StructureKind.symmetric
    pencil, pert = _pencil_blocks(kind, 21)
    zero = backward.StructuredPerturbation.from_pencil(zeros(10, 10, 1), 2, 2, kind)
    state = quadratic_fixed_point(zero, pencil.m0, pencil.m1)
    assert not state.x.any()
    assert state.iterations == 1
    assert state.converged


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_fixed_point_small_perturbation(kind):
    pencil, pert = _pencil_blocks(kind, 31)
    *_, da22, db22 = perturbation_blocks(pert)
    theta = pair_norm(da22, db22)
    state = quadratic_fixed_point(pert, pencil.m0, pencil.m1)
    assert state.converged
    assert state.residuals[-1] <= 1e-12 * theta
    assert np.linalg.norm(state.x) <= state.norm_bound
    assert len(state.solve_iterations) == state.iterations
    assert all(1 <= it <= 5 for it in state.solve_iterations)


def test_fixed_point_congruence_zeroes_block(rng):
    kind = StructureKind.symmetric
    pencil, pert = _pencil_blocks(kind, 41)
    state = quadratic_fixed_point(pert, pencil.m0, pencil.m1)
    x = state.x
    g = np.eye(10)
    g[6:, :6] = x
    h = np.eye(10)
    h[:6, 6:] = x.T
    perturbed = pencil.as_polynomial() + pert.pencil
    t0 = g @ perturbed.coefficient(0) @ h
    t1 = g @ perturbed.coefficient(1) @ h
    assert pair_norm(t0[6:, 6:], t1[6:, 6:]) <= 1e-13


def test_fixed_point_iterate_norms_bounded():
    for seed, kind in enumerate(ALL_KINDS):
        pencil, pert = _pencil_blocks(kind, 100 + seed, norm=2e-2)
        state = quadratic_fixed_point(pert, pencil.m0, pencil.m1)
        cap = state.rho0 * (1.0 + state.kappa) + 1e-12
        assert max(state.x_norms) <= cap


def test_fixed_point_inadmissible_raises():
    kind = StructureKind.even
    pencil, pert = _pencil_blocks(kind, 51, norm=1e-3)
    forced = with_scaled_22_block(pert, 1e6)
    with pytest.raises(ThresholdError) as err:
        quadratic_fixed_point(forced, pencil.m0, pencil.m1)
    assert err.value.bound == 0.25


def test_fixed_point_gates_every_solve(monkeypatch):
    """A solve that misses its right-hand side by 1e-9 relative is refused at
    the sweep where it happens, not after the sweeps run out."""
    kind = StructureKind.palindromic
    pencil, pert = _pencil_blocks(kind, 61)
    exact = sylvester.pcg
    calls = []

    def slightly_wrong(gram_apply, precondition, c):
        calls.append(c)
        w, iterations = exact(gram_apply, precondition, c)
        return w * (1.0 + 1e-9), iterations

    monkeypatch.setattr(sylvester, "pcg", slightly_wrong)
    with pytest.raises(NumericalError, match="solve residual"):
        quadratic_fixed_point(pert, pencil.m0, pencil.m1)
    assert len(calls) == 1

import math

import numpy as np
import pytest
import scipy.linalg

from strukt import (
    StructureKind,
    build_Lambda,
    build_Lk,
    convolution_matrix,
    dual_basis_complete,
    frob_norm,
    is_minimal_basis,
    mobius,
    poly_matmul,
    selector_matrices,
    transpose_poly,
)
from strukt import minbases, polycore
from strukt.errors import GradeError, ThresholdError

from conftest import ALL_KINDS


def test_build_Lk_scalar_cases():
    l1 = build_Lk(1, 1)
    assert np.array_equal(l1.coefficient(0), np.array([[-1.0, 0.0]]))
    assert np.array_equal(l1.coefficient(1), np.array([[0.0, 1.0]]))
    l2 = build_Lk(2, 1)
    assert np.array_equal(l2.coefficient(0), np.array([[-1.0, 0, 0], [0, -1.0, 0]]))
    assert np.array_equal(l2.coefficient(1), np.array([[0, 1.0, 0], [0, 0, 1.0]]))


def test_build_Lk_kron_blocks():
    l1 = build_Lk(1, 2)
    assert np.array_equal(l1.coefficient(0)[:, :2], -np.eye(2))
    assert np.array_equal(l1.coefficient(1)[:, 2:], np.eye(2))


def test_build_Lambda_cases():
    assert np.array_equal(build_Lambda(0, 3).coefficient(0), np.eye(3))
    lam = build_Lambda(2, 1)
    assert np.array_equal(lam.coefficient(0), np.array([[0.0, 0.0, 1.0]]))
    assert np.array_equal(lam.coefficient(1), np.array([[0.0, 1.0, 0.0]]))
    assert np.array_equal(lam.coefficient(2), np.array([[1.0, 0.0, 0.0]]))


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_duality_exact(k, n):
    prod = poly_matmul(build_Lk(k, n), transpose_poly(build_Lambda(k, n)))
    assert frob_norm(prod) == 0.0


def test_selector_matrices_small():
    sel = selector_matrices(1, 1)
    assert np.array_equal(sel.e, np.array([[1.0, 0.0]]))
    assert np.array_equal(sel.f, np.array([[0.0, 1.0]]))
    sel2 = selector_matrices(2, 1)
    assert np.array_equal(sel2.e, np.array([[1.0, 0, 0], [0, 1.0, 0]]))
    with pytest.raises(GradeError):
        selector_matrices(0, 2)


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("n", [1, 3])
def test_selectors_reconstruct_bidiagonal(k, n):
    sel = selector_matrices(k, n)
    lk = build_Lk(k, n)
    assert np.array_equal(lk.coefficient(0), -sel.e)
    assert np.array_equal(lk.coefficient(1), sel.f)


def test_is_minimal_basis_canonical():
    assert is_minimal_basis(build_Lk(3, 2))
    assert is_minimal_basis(build_Lambda(3, 2))


def test_is_minimal_basis_detects_common_root():
    # [l, l^2] drops rank at the origin
    q = polycore.from_coeff_list(
        [np.zeros((1, 2)), np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])]
    )
    assert not is_minimal_basis(q)


def test_is_minimal_basis_draws_no_random_numbers(monkeypatch):
    def no_rng(*args, **kwargs):
        raise AssertionError("is_minimal_basis must be deterministic")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    assert is_minimal_basis(build_Lk(3, 2))


def test_is_minimal_basis_rejects_tall():
    with pytest.raises(ValueError):
        is_minimal_basis(transpose_poly(build_Lk(2, 1)))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_mobius_preserves_dual_minimal_bases(kind):
    k, n = 3, 2
    a = kind.mobius
    lk = mobius(build_Lk(k, n), a)
    lam = mobius(build_Lambda(k, n), a)
    assert is_minimal_basis(lk)
    assert is_minimal_basis(lam)
    assert frob_norm(poly_matmul(lk, transpose_poly(lam))) <= 1e-13


# ---------------------------------------------------------------------------
# convolution matrix
# ---------------------------------------------------------------------------

def test_convolution_matrix_constant_is_block_diagonal(rng):
    k0 = rng.standard_normal((2, 3))
    conv = convolution_matrix(polycore.from_coeff_list([k0]), 2)
    assert conv.shape == (6, 9)
    assert np.array_equal(conv, scipy.linalg.block_diag(k0, k0, k0))


def test_convolution_matrix_action_matches_product(rng):
    kpoly = polycore.MatrixPolynomial(rng.standard_normal((2, 3, 4)))
    xpoly = polycore.MatrixPolynomial(rng.standard_normal((3, 4, 2)))
    conv = convolution_matrix(kpoly, 2)
    stacked = np.vstack([xpoly.coefficient(i) for i in range(3)])
    direct = poly_matmul(kpoly, xpoly)
    got = conv @ stacked
    want = np.vstack([direct.coefficient(i) for i in range(direct.grade + 1)])
    assert np.allclose(got, want, atol=1e-13)


def test_convolution_matrix_shape_formula(rng):
    kpoly = polycore.MatrixPolynomial(rng.standard_normal((4, 2, 5)))
    conv = convolution_matrix(kpoly, 3)
    assert conv.shape == ((3 + 3 + 1) * 2, (3 + 1) * 5)


# ---------------------------------------------------------------------------
# dual basis completion
# ---------------------------------------------------------------------------

def test_completion_unperturbed_is_exact():
    k, n = 2, 2
    pair = dual_basis_complete(build_Lk(k, n), k, n)
    assert frob_norm(pair.correction) == 0.0
    assert np.array_equal(pair.N.coeffs, build_Lambda(k, n).coeffs)
    assert pair.iterations == 0


@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_completion_matches_the_dense_lstsq_oracle(k, complex_field, rng):
    """The matrix-free completion is lstsq's minimum-norm solution of the
    convolution system. The norms keep the correction far above the rounding
    of N - Lambda, whose entries sit next to ones."""
    n = 2
    for scale in (0.1, 0.5):
        raw = rng.standard_normal((2, k * n, (k + 1) * n))
        if complex_field:
            raw = raw + 1j * rng.standard_normal(raw.shape)
        dl = polycore.from_coeff_list(list(raw))
        kpoly = build_Lk(k, n) + dl * (scale * minbases.completion_threshold(k) / frob_norm(dl))
        conv = convolution_matrix(kpoly, k)
        lam_t = transpose_poly(build_Lambda(k, n)).coeffs.reshape(-1, n)
        want = np.linalg.lstsq(conv, -conv @ lam_t, rcond=None)[0]
        pair = dual_basis_complete(kpoly, k, n)
        got = transpose_poly(pair.correction).coeffs.reshape(-1, n)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert 1 <= pair.iterations <= 10


def test_completion_correction_keeps_its_low_bits(rng):
    """`correction` is the solved correction, not N - Lambda: at ||dL|| = 1e-10
    the entries of N next to the ones of Lambda carry only the top bits of
    the correction, and the difference would miss lstsq's by about 1e-6."""
    k, n = 4, 2
    raw = rng.standard_normal((2, k * n, (k + 1) * n))
    dl = polycore.from_coeff_list(list(raw))
    kpoly = build_Lk(k, n) + dl * (1e-10 / frob_norm(dl))
    conv = convolution_matrix(kpoly, k)
    lam_t = transpose_poly(build_Lambda(k, n)).coeffs.reshape(-1, n)
    want = np.linalg.lstsq(conv, -conv @ lam_t, rcond=None)[0]
    pair = dual_basis_complete(kpoly, k, n)
    got = transpose_poly(pair.correction).coeffs.reshape(-1, n)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_completion_refuses_a_factor_that_is_not_a_pencil():
    k, n = 2, 1
    with pytest.raises(ValueError):
        dual_basis_complete(polycore.pad_to_grade(build_Lk(k, n), 2), k, n)
    with pytest.raises(ValueError):
        dual_basis_complete(build_Lk(k, 2), k, n)


def test_completion_norm_bound(rng):
    k, n = 2, 2
    raw = polycore.MatrixPolynomial(rng.standard_normal((2, k * n, (k + 1) * n)))
    dl = raw * (1e-4 / frob_norm(raw))
    pair = dual_basis_complete(build_Lk(k, n) + dl, k, n)
    bound = 6.0 * math.sqrt(2.0) * (k + 1) / math.pi * 1e-4
    assert frob_norm(pair.correction) <= bound
    assert frob_norm(pair.correction) < 1.0 / math.sqrt(2.0)


def test_completion_residual_many_trials(rng):
    k, n = 2, 2
    bound = minbases.completion_threshold(k)
    for trial in range(100):
        raw = polycore.MatrixPolynomial(rng.standard_normal((2, k * n, (k + 1) * n)))
        dl = raw * (0.5 * bound * rng.uniform(0.01, 1.0) / frob_norm(raw))
        pair = dual_basis_complete(build_Lk(k, n) + dl, k, n)
        assert pair.duality_residual() <= 1e-12


def test_completion_threshold_violation(rng):
    k, n = 2, 2
    raw = polycore.MatrixPolynomial(rng.standard_normal((2, k * n, (k + 1) * n)))
    dl = raw * (1.0 / frob_norm(raw))
    with pytest.raises(ThresholdError) as err:
        dual_basis_complete(build_Lk(k, n) + dl, k, n)
    assert err.value.bound == pytest.approx(minbases.completion_threshold(k))


def test_completion_leading_coefficient_keeps_row_rank(rng):
    k, n = 3, 2
    raw = polycore.MatrixPolynomial(rng.standard_normal((2, k * n, (k + 1) * n)))
    dl = raw * (1e-3 / frob_norm(raw))
    pair = dual_basis_complete(build_Lk(k, n) + dl, k, n)
    lead = pair.N.coefficient(k)
    assert np.linalg.norm(lead[:, :n] - np.eye(n)) <= 10 * frob_norm(pair.correction)
    s = np.linalg.svd(lead, compute_uv=False)
    assert s[n - 1] > 0.5


def test_completion_is_minimum_norm(rng):
    # any other degree-k correction solving the same system is at least as large
    k, n = 2, 1
    raw = polycore.MatrixPolynomial(rng.standard_normal((2, k * n, (k + 1) * n)))
    dl = raw * (1e-3 / frob_norm(raw))
    kpoly = build_Lk(k, n) + dl
    pair = dual_basis_complete(kpoly, k, n)
    base_norm = frob_norm(pair.correction)

    conv = convolution_matrix(kpoly, k)
    null = scipy.linalg.null_space(conv)
    assert null.shape[1] > 0
    stacked = np.vstack(
        [transpose_poly(pair.correction).coefficient(i) for i in range(k + 1)]
    )
    for _ in range(20):
        other = stacked + null @ rng.standard_normal((null.shape[1], n))
        assert np.linalg.norm(other) >= base_norm - 1e-12

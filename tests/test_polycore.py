import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strukt import (
    MatrixPolynomial,
    MobiusMatrix,
    StructureKind,
    evaluate,
    frob_norm,
    from_coeff_list,
    is_structured,
    mobius,
    pair_norm,
    poly_matmul,
    random_structured,
    reversal,
    star_adjoint,
    structure_project,
)
from strukt import polycore
from strukt.errors import GradeError, StructureError, StruktError

from conftest import ALL_KINDS, integer_structured_poly


def random_poly(rng, rows, cols, grade, complex_field=False):
    raw = rng.standard_normal((grade + 1, rows, cols))
    if complex_field:
        raw = raw + 1j * rng.standard_normal((grade + 1, rows, cols))
    return MatrixPolynomial(raw, polycore.COMPLEX if complex_field else polycore.REAL)


# ---------------------------------------------------------------------------
# frob_norm / evaluate / reversal
# ---------------------------------------------------------------------------

def test_frob_norm_unit_pencil():
    p = from_coeff_list([np.eye(2), np.eye(2)])
    assert frob_norm(p) == 2.0


def test_frob_norm_zero_any_grade():
    assert frob_norm(polycore.zeros(3, 2, grade=4)) == 0.0


def test_frob_norm_three_four_five():
    p = from_coeff_list([np.array([[3.0]]), np.array([[4.0]])])
    assert frob_norm(p) == 5.0


def test_frob_norm_grade_padding_invariant(rng):
    p = random_poly(rng, 2, 3, 2)
    assert frob_norm(polycore.pad_to_grade(p, 7)) == frob_norm(p)


@pytest.mark.parametrize(
    "scale", [2.0**540, 2.0**1000, 2.0**1020], ids=["2^540", "2^1000", "2^1020"]
)
def test_norms_do_not_overflow_below_the_largest_float(scale):
    """A norm whose squares overflow is computed on power-of-two-scaled
    entries: 3-4-5 at any finite scale, complex too, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = from_coeff_list([np.array([[3.0 * scale]]), np.array([[4.0j * scale]])])
        assert frob_norm(p) == 5.0 * scale
        assert pair_norm(np.array([[3.0 * scale]]), np.array([[4.0 * scale]])) == 5.0 * scale
        assert frob_norm(from_coeff_list([np.array([[math.inf]])])) == math.inf


def test_evaluate_pencil():
    p = from_coeff_list([np.eye(2), np.eye(2)])
    assert np.array_equal(evaluate(p, 2.0), 3.0 * np.eye(2))


def test_evaluate_at_zero_gives_constant(rng):
    p = random_poly(rng, 3, 2, 4)
    assert np.array_equal(evaluate(p, 0.0), p.coefficient(0))


def test_evaluate_row():
    # [l^2, l] at -1 -> [1, -1]
    p = from_coeff_list([np.zeros((1, 2)), np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]])])
    assert np.array_equal(evaluate(p, -1.0), np.array([[1.0, -1.0]]))


def test_reversal_swaps_pencil():
    p = from_coeff_list([np.array([[-1.0, 0.0]]), np.array([[0.0, 1.0]])])
    r = reversal(p, 1)
    assert np.array_equal(r.coefficient(0), np.array([[0.0, 1.0]]))
    assert np.array_equal(r.coefficient(1), np.array([[-1.0, 0.0]]))


def test_reversal_constant_identity():
    p = from_coeff_list([np.eye(3)])
    assert np.array_equal(reversal(p, 0).coefficient(0), np.eye(3))


def test_reversal_scalar_quadratic():
    p = from_coeff_list([np.array([[3.0]]), np.array([[2.0]]), np.array([[1.0]])])
    r = reversal(p, 2)
    assert [r.coefficient(i)[0, 0] for i in range(3)] == [1.0, 2.0, 3.0]


def test_reversal_grade_below_degree_raises():
    p = from_coeff_list([np.eye(1), np.eye(1), np.eye(1)])
    with pytest.raises(GradeError):
        reversal(p, 1)


@given(seed=st.integers(0, 2**32 - 1), grade=st.integers(0, 4), pad=st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_reversal_involution(seed, grade, pad):
    rng = np.random.default_rng(seed)
    p = random_poly(rng, 2, 2, grade)
    g = grade + pad
    back = reversal(reversal(p, g), g)
    assert np.allclose(back.coeffs, polycore.pad_to_grade(p, g).coeffs)


# ---------------------------------------------------------------------------
# Mobius
# ---------------------------------------------------------------------------

def test_mobius_identity_fixes(rng):
    p = random_poly(rng, 2, 3, 3)
    q = mobius(p, polycore.MOBIUS_IDENTITY)
    assert np.allclose(q.coeffs, p.coeffs)


def test_mobius_palindromic_matrix_reverses_bidiagonal_row():
    # the 1 x 2 pencil [-1, l] maps to [-l, 1]
    p = from_coeff_list([np.array([[-1.0, 0.0]]), np.array([[0.0, 1.0]])])
    q = mobius(p, StructureKind.palindromic.mobius)
    assert np.array_equal(q.coefficient(0), np.array([[0.0, 1.0]]))
    assert np.array_equal(q.coefficient(1), np.array([[-1.0, 0.0]]))


def test_mobius_even_matrix_negates_lambda():
    p = from_coeff_list([np.zeros((1, 1)), np.ones((1, 1))])
    q = mobius(p, StructureKind.even.mobius)
    assert q.coefficient(1)[0, 0] == -1.0
    assert q.coefficient(0)[0, 0] == 0.0


def test_mobius_singular_matrix_raises(rng):
    p = random_poly(rng, 2, 2, 2)
    with pytest.raises(StruktError):
        mobius(p, MobiusMatrix(1, 2, 2, 4))


def test_mobius_matches_rational_form(rng):
    # independent oracle: (c*l + d)^g * P((a*l + b)/(c*l + d)) at sample points
    for _ in range(20):
        g = int(rng.integers(0, 5))
        p = random_poly(rng, 2, 2, g)
        a = MobiusMatrix(*rng.uniform(-1, 1, size=4))
        if abs(a.det) < 0.2:
            continue
        q = mobius(p, a)
        for _ in range(3):
            lam = complex(*rng.standard_normal(2))
            denom = a.c * lam + a.d
            if abs(denom) < 0.1:
                continue
            want = denom**g * evaluate(p, (a.a * lam + a.b) / denom)
            got = evaluate(q, lam)
            assert np.allclose(got, want, atol=1e-10 * max(1.0, np.abs(want).max()))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_mobius_composition(seed):
    rng = np.random.default_rng(seed)
    p = random_poly(rng, 2, 2, int(rng.integers(0, 5)))
    mats = []
    while len(mats) < 2:
        m = MobiusMatrix(*rng.uniform(-1, 1, size=4))
        if abs(m.det) > 0.2:
            mats.append(m)
    a, b = mats
    lhs = mobius(mobius(p, a), b)
    rhs = mobius(p, a @ b)
    assert frob_norm(lhs - rhs) <= 1e-12 * max(1.0, frob_norm(p))


def test_mobius_acts_blockwise(rng):
    p = random_poly(rng, 4, 4, 3)
    a = StructureKind.even.mobius
    q = mobius(p, a)
    rows, cols = [0, 2, 3], [1, 2]
    sub = MatrixPolynomial(p.coeffs[:, rows, :][:, :, cols])
    assert np.allclose(q.coeffs[:, rows, :][:, :, cols], mobius(sub, a).coeffs)


def test_reversal_is_mobius_by_swap(rng):
    p = random_poly(rng, 2, 3, 4)
    assert np.allclose(
        reversal(p, 4).coeffs, mobius(p, polycore.MOBIUS_REVERSAL).coeffs
    )


# ---------------------------------------------------------------------------
# star adjoint and structure
# ---------------------------------------------------------------------------

def test_star_adjoint_real_transpose():
    p = from_coeff_list([np.array([[0.0, 1.0], [0.0, 0.0]])])
    assert np.array_equal(star_adjoint(p).coefficient(0), np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_star_adjoint_complex_conjugates():
    p = from_coeff_list([np.array([[1j]])])
    assert star_adjoint(p).coefficient(0)[0, 0] == -1j


@given(seed=st.integers(0, 2**32 - 1), complex_field=st.booleans())
@settings(max_examples=25, deadline=None)
def test_star_adjoint_involution(seed, complex_field):
    rng = np.random.default_rng(seed)
    p = random_poly(rng, 3, 2, 2, complex_field)
    assert np.array_equal(star_adjoint(star_adjoint(p)).coeffs, p.coeffs)


def test_structure_matrices_are_real_involutory():
    for kind in ALL_KINDS:
        a = kind.mobius.array
        assert np.array_equal(a, np.real(a).astype(float))
        assert np.array_equal(a @ a, np.eye(2))
        assert kind.mobius.is_coninvolutory()


def test_is_structured_skew_pencil():
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    p = from_coeff_list([np.zeros((2, 2)), j])
    assert is_structured(p, StructureKind.skew_symmetric)


def test_is_structured_palindromic_pair(rng):
    m = rng.standard_normal((3, 3))
    p = from_coeff_list([m.T, m])
    assert is_structured(p, StructureKind.palindromic)


def test_is_structured_rejects_shifted_identity():
    p = from_coeff_list([2.0 * np.eye(2), np.eye(2)])
    assert not is_structured(p, StructureKind.palindromic)


def test_is_structured_scaling_invariant(rng):
    p = random_structured(3, 3, StructureKind.even, 1.0, seed=5)
    for c in (2.0, -7.5, 1e-6, 1e6):
        assert is_structured(c * p, StructureKind.even)


def test_is_structured_requires_square(rng):
    p = random_poly(rng, 2, 3, 1)
    with pytest.raises(StructureError):
        is_structured(p, StructureKind.symmetric)


def test_structure_project_fixes_structured(rng):
    p = integer_structured_poly(StructureKind.symmetric, 3, 2, rng)
    assert np.array_equal(structure_project(p, StructureKind.symmetric).coeffs, p.coeffs)


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(ALL_KINDS))
@settings(max_examples=30, deadline=None)
def test_structure_project_idempotent_and_structured(seed, kind):
    rng = np.random.default_rng(seed)
    p = random_poly(rng, 2, 2, 3)
    proj = structure_project(p, kind)
    again = structure_project(proj, kind)
    assert frob_norm(again - proj) <= 1e-14 * max(1.0, frob_norm(proj))
    assert polycore.structure_residual(proj, kind) <= 1e-14 * max(1.0, frob_norm(proj))


def test_structure_project_palindromic_residual(rng):
    p = random_poly(rng, 2, 2, 1)
    proj = structure_project(p, StructureKind.palindromic)
    assert polycore.structure_residual(proj, StructureKind.palindromic) < 1e-14


# ---------------------------------------------------------------------------
# random_structured
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_random_structured_properties(kind):
    p = random_structured(3, 5, kind, target_norm=2.5, seed=77)
    assert is_structured(p, kind, tol=1e-13)
    assert abs(frob_norm(p) - 2.5) <= 1e-14 * 2.5


def test_random_structured_deterministic():
    a = random_structured(2, 3, StructureKind.odd, 1.0, seed=123)
    b = random_structured(2, 3, StructureKind.odd, 1.0, seed=123)
    assert np.array_equal(a.coeffs, b.coeffs)


def test_random_structured_rejects_bad_norm():
    with pytest.raises(ValueError):
        random_structured(2, 3, StructureKind.symmetric, target_norm=0.0, seed=1)


# ---------------------------------------------------------------------------
# pairs, products, file format
# ---------------------------------------------------------------------------

def test_pair_norm_pythagorean():
    assert pair_norm(np.array([[3.0]]), np.array([[4.0]])) == 5.0
    assert pair_norm(np.eye(2), np.zeros((3, 1))) == math.sqrt(2.0)


def test_poly_matmul_matches_pointwise(rng):
    p = random_poly(rng, 2, 3, 2)
    q = random_poly(rng, 3, 2, 3)
    prod = poly_matmul(p, q)
    assert prod.grade == 5
    for lam in (0.3, -1.7, 2.2):
        assert np.allclose(evaluate(prod, lam), evaluate(p, lam) @ evaluate(q, lam))


def test_json_roundtrip_bit_exact_real(rng, tmp_path):
    p = random_poly(rng, 3, 4, 5)
    path = tmp_path / "p.json"
    polycore.save_polynomial(p, path)
    q = polycore.load_polynomial(path)
    assert q.field == p.field and q.grade == p.grade
    assert np.array_equal(q.coeffs, p.coeffs)


def test_json_roundtrip_bit_exact_complex(rng, tmp_path):
    p = random_poly(rng, 2, 2, 3, complex_field=True)
    path = tmp_path / "p.json"
    polycore.save_polynomial(p, path)
    q = polycore.load_polynomial(path)
    assert q.field == polycore.COMPLEX
    assert np.array_equal(q.coeffs, p.coeffs)


def test_json_schema_fields(rng, tmp_path):
    p = random_poly(rng, 2, 3, 1)
    path = tmp_path / "p.json"
    polycore.save_polynomial(p, path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"rows", "cols", "grade", "field", "coeffs"}
    assert doc["rows"] == 2 and doc["cols"] == 3 and doc["grade"] == 1


# ---------------------------------------------------------------------------
# preconditioned conjugate gradients
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("complex_field", [False, True])
def test_pcg_solves_a_hermitian_system_on_any_shape(rng, complex_field):
    a = random_poly(rng, 12, 12, 0, complex_field).coefficient(0)
    g = a @ a.conj().T + 12.0 * np.eye(12)
    c = random_poly(rng, 3, 4, 0, complex_field).coefficient(0)
    w, iterations = polycore.pcg(
        lambda v: (g @ v.reshape(-1)).reshape(v.shape), lambda r: r / 12.0, c
    )
    assert w.shape == c.shape and 1 <= iterations < 100  # stopped on the residual
    want = np.linalg.solve(g, c.reshape(-1)).reshape(c.shape)
    assert np.linalg.norm(w - want) <= 1e-13 * np.linalg.norm(want)


def test_pcg_zero_rhs_returns_exact_zeros():
    def never(v):
        raise AssertionError("no operator call for a zero right-hand side")

    w, iterations = polycore.pcg(never, never, np.zeros((2, 3, 3), dtype=complex))
    assert iterations == 0 and w.shape == (2, 3, 3) and not w.any()
